"""Child process: one yzero CLI run, timed from inside its own process.

Usage: python3 perfbench/child.py --report PATH [--trace] [--setup-only]
       [--facts] -- FAMILY --config PATH [yzero options]

Times ``import yzero.cli``, marks the end of set-up when ``load_config``
returns on the CLI's own path, then calls ``yzero.cli.main`` with the
arguments after ``--``.  With ``--setup-only`` it stops after that
``load_config`` call.  Writes a JSON report and exits with main's return
code.  Times are ``time.monotonic`` readings, which share one clock with the
parent process on Linux.
"""

from __future__ import annotations

import json
import platform
import sys
import time


def blas_facts() -> dict:
    """OpenBLAS build string and thread count as numpy's bundled library reports them."""
    import ctypes
    import glob
    import os

    import numpy as np

    facts = {"blas_version": None, "blas_config": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas_version"] = blas["version"]
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*.so*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                facts["blas_threads"] = int(get_threads())
                facts["blas_config"] = get_config().decode()
                break
    return facts


def main() -> int:
    argv = sys.argv[1:]
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    report_path = opts[opts.index("--report") + 1]

    t0 = time.monotonic()
    import yzero.cli as cli
    report: dict = {"import_s": time.monotonic() - t0, "yzero_file": cli.__file__}

    tracer = None
    if "--trace" in opts:
        import tracer as tracing

        tracer = tracing.Tracer()
        report["present"] = sorted(tracing.install(tracer))

    real_load_config = cli.load_config

    def load_config(*args, **kwargs):
        try:
            return real_load_config(*args, **kwargs)
        finally:
            report.setdefault("setup_end", time.monotonic())

    cli.load_config = load_config
    if "--setup-only" in opts:
        args = cli.build_parser().parse_args(cli_args)
        load_config(args.config, args.family, out_dir=args.out_dir,
                    master_seed=args.seed, threads=args.threads)
        rc = 0
    else:
        rc = cli.main(cli_args)
    report["rc"] = rc
    if tracer is not None:
        report["trace"] = tracer.snapshot()
    if "--facts" in opts:
        import numpy
        import scipy

        report["facts"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                           "scipy": scipy.__version__, **blas_facts()}
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
