"""Command-line entry point.

Usage: yzero <family> --config <path> [--out-dir <path>] [--seed <int>]
       [--threads <n>]   (accepted and ignored: no family starts threads)

A process that imports this module before numpy computes on its calling
thread alone: the import sets ``OPENBLAS_NUM_THREADS`` to 1 unless the
environment already sets it, before numpy loads OpenBLAS.  BLAS sees small
matrices here (a bounds SVD block is at most 207 x 207 over M <= 512 and
S <= 300), too small for a second thread to pay its way.  The pin is a
default, not an option: a value in the environment wins, and a process
that loaded numpy first is left as it is.  Each family then loads only the
modules it runs (``scenario``).

The import also keeps OpenSSL out of the process: it blocks ``_hashlib``
(``sys.modules["_hashlib"] = None``) unless a module already loaded it, so
``hashlib`` and ``hmac`` fall back to CPython's built-in hashes.
``numpy.random``, which the ``attack`` and ``entropy`` loaders import,
imports ``secrets`` and with it ``hmac``; without the block that alone would
map OpenSSL.  The block is a default, not an option, and it is set only when
the interpreter has its built-in SHA-256, the one ``scenario`` takes the
config digest from; without it the digest needs ``hashlib``'s OpenSSL route.
Importing ``yzero`` or calling ``load_config`` alone changes nothing.

Exit codes: 0 on success; 2 on configuration errors, an output directory
that cannot be created and an output file that cannot be written included;
3 when a run exceeds a desk-scale cap: the bounds energy (GRAM_ENERGY_CAP),
the heterodyne energy (WEDGE_ENERGY_CAP), the enumeration sizes, the
entropy engines' M (ENTROPY_M_CAP) or the mutual-information cells
(MI_CELL_CAP).
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import ConfigError, RegimeCapError
from .runner import RUNNERS
from .scenario import FAMILIES, load_config, sha256

# only where the config digest is the built-in SHA-256; see the docstring
if sha256.__module__ != "_hashlib":
    sys.modules.setdefault("_hashlib", None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yzero",
        description="Simulate and bound the coherent-state stream cipher at desk scale.")
    parser.add_argument("family", choices=FAMILIES,
                        help="which analysis family to run")
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="scenario file (INI format)")
    parser.add_argument("--out-dir", default=None, metavar="PATH",
                        help="override the [output] out_dir")
    parser.add_argument("--seed", default=None, type=int, metavar="U64",
                        help="override the [output] master_seed")
    parser.add_argument("--threads", default=None, type=int, metavar="N",
                        help="accepted and ignored: no family starts threads, and "
                             "BLAS runs on one unless OPENBLAS_NUM_THREADS says "
                             "otherwise (N must be at least 1)")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """Run one family from the command line; return the exit code.

    First it registers ``gc.freeze`` to run at interpreter exit, once
    however often ``main`` is called.  Exit hooks run before the
    interpreter's final collections, so those skip the whole heap built by
    importing numpy and yzero instead of scanning and freeing it, which
    shortens every process by tens of milliseconds.  Nothing changes while
    the run lasts, and the hook is in place on every exit path, argparse's
    included.  It is safe because every file yzero opens is closed by a
    ``with`` block before ``main`` returns: frozen cyclic garbage is never
    collected, so a file left open in it would never be flushed.
    """
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.family, out_dir=args.out_dir,
                          master_seed=args.seed, threads=args.threads)
        outputs = RUNNERS[cfg.family](cfg)
    except RegimeCapError as exc:
        print(f"regime cap: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for name in outputs:
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
