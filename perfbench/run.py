"""yzero benchmark: CLI workloads timed end to end, and a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload attack_replay [--seed 1] [--seconds 30] [--trace 0]

Each CLI run is a child process (``perfbench/child.py``) that imports
``yzero.cli`` from ``src/`` and calls ``yzero.cli.main``.  Runs go one after
another from this single process: a closed loop with one client.  With
``--trace 0`` the workload repeats until ``--seconds`` would be exceeded (at
least once) and the end-to-end metrics are medians over repetitions.  With
``--trace 1`` it runs once untraced and once traced, and reports the
per-layer metrics of the traced run plus the tracing overhead.  Every run's
outputs are checked (``checks.py``) and then deleted.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import checks
import tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
WORKLOAD_DIR = os.path.join(BENCH_DIR, "workloads")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
REFS_PATH = os.path.join(BENCH_DIR, "refs.json")

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
CHILD_TIMEOUT_S = 150.0
# no repetition starts if it would end after this many seconds of the invocation
BUDGET_S = 160.0
# set-up is sampled at least this often per invocation (CLI runs plus probes)
SETUP_SAMPLES = 5
POLL_S = 0.002


def bench_threads() -> int:
    """Threads for the bounds pool: two, or fewer on a smaller machine."""
    return min(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class CliRun:
    family: str
    ini: str
    extra: "tuple[str, ...]" = ()

    @property
    def ini_path(self) -> str:
        return os.path.join(WORKLOAD_DIR, self.ini)

    @property
    def key(self) -> str:
        return os.path.splitext(self.ini)[0]


# Why each workload: see README.md beside this file.
WORKLOADS = {
    "attack_replay": (CliRun("attack", "attack_replay.ini"),),
    "bounds_grid": (CliRun("bounds", "bounds_grid.ini", ("--threads", str(bench_threads()))),),
    "entropy_exact": (CliRun("entropy", "entropy_misalign.ini"),
                      CliRun("entropy", "entropy_jitter.ini"),
                      CliRun("entropy", "entropy_quantum.ini")),
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("units_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("output_bytes", "bytes"))

# (name, unit); "<module>.<function>.<calls|total_s|self_s>" reads the traced
# function totals, the rest are derived counters (see tracer.OBSERVERS)
PER_LAYER = (
    ("setup.import_s", "s"),
    ("scenario.load_config.total_s", "s"),
    ("runner.run_attack.self_s", "s"),
    ("runner.run_bounds.self_s", "s"),
    ("codec.keystream_table.self_s", "s"),
    ("codec.keystream_table.calls", "count"),
    ("codec.keystream_table.rows", "count"),
    ("codec.bit_ensembles.self_s", "s"),
    ("codec.halfplane_label.calls", "count"),
    ("codec.encode.calls", "count"),
    ("attacks.brute_force_candidates.self_s", "s"),
    ("attacks.otp_stage_attack.self_s", "s"),
    ("attacks.label_mutual_information.total_s", "s"),
    ("attacks.ciphertext_only_entropy.self_s", "s"),
    ("attacks.known_plaintext_key_entropy.self_s", "s"),
    ("attacks.distinct_ratio", "ratio"),
    ("detection.bit_bound.total_s", "s"),
    ("detection.updown_bound.total_s", "s"),
    ("detection.srm_mary_error.total_s", "s"),
    ("detection.route.bit_fock.calls", "count"),
    ("detection.route.bit_gram.calls", "count"),
    ("detection.route.updown_fock.calls", "count"),
    ("detection.route.updown_gram.calls", "count"),
    ("detection.dim3_sum", "count"),
    ("detection.heterodyne_index_transition.total_s", "s"),
    ("fockspace.density_from_ensemble.self_s", "s"),
    ("fockspace.density_from_ensemble.calls", "count"),
    ("fockspace.coherent_fock.self_s", "s"),
    ("fockspace.coherent_fock.calls", "count"),
    ("fockspace.hermitian_eig.self_s", "s"),
    ("fockspace.hermitian_eig.calls", "count"),
    ("trace.overhead_s", "s"),
)
FUNCTION_STATS = ("calls", "total_s", "self_s")


def work_units(run: CliRun) -> int:
    """Work one CLI run does, in the workload's unit.

    attack: seed hypotheses scored over both stages; bounds: grid points
    times methods; entropy: posterior trials over both modes.
    """
    cp = checks.read_ini(run.ini_path)
    sc = cp["scenario"]
    if run.family == "attack":
        seeds = (1 << (int(cp["keystream"]["poly"], 0).bit_length() - 1)) - 1
        return seeds * (2 if sc.getboolean("otp") else 1)
    if run.family == "bounds":
        con = cp["constellation"]
        return (len(con["m_grid"].split(",")) * len(con["energy_grid"].split(","))
                * len(sc["methods"].split(",")))
    return int(sc["trials"]) * (2 if sc["mode"].strip() == "both" else 1)


# ---------------------------------------------------------------------------
# Child processes


def child_env() -> "dict[str, str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    return env


def wait_child(pid: int, deadline: float):
    """Reap pid, killing it at deadline; return (status, rusage, timed_out)."""
    timed_out = False
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            return status, usage, timed_out
        if not timed_out and time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            timed_out = True
        time.sleep(POLL_S)


def spawn(run: CliRun, work_dir: str, seed: int, flags: "tuple[str, ...]" = ()) -> dict:
    """One child process; returns its timings, peak RSS, report and exit state."""
    out_dir = os.path.join(work_dir, "out")
    os.makedirs(out_dir)
    report_path = os.path.join(work_dir, "report.json")
    err_path = os.path.join(work_dir, "stderr.txt")
    argv = [sys.executable, CHILD, "--report", report_path, *flags, "--",
            run.family, "--config", run.ini_path, "--out-dir", out_dir, "--seed", str(seed),
            *run.extra]
    with open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        status, usage, timed_out = wait_child(proc.pid, t0 + CHILD_TIMEOUT_S)
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = None
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    problems = []
    if timed_out:
        problems.append(f"timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or report is None:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-400:].strip()
        problems.append(f"exit code {proc.returncode}: {tail}")
    elif not os.path.abspath(report["yzero_file"]).startswith(SRC_DIR + os.sep):
        problems.append(f"imported yzero from {report['yzero_file']}, not from {SRC_DIR}")
    return {
        "run": run, "out_dir": out_dir, "report": report, "problems": problems,
        "wall_s": t1 - t0,
        "setup_s": report["setup_end"] - t0 if report and "setup_end" in report else None,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def check_outputs(result: dict, seed: int, refs: dict) -> None:
    """Check, digest and count one run's data files, then delete them."""
    run, out_dir = result["run"], result["out_dir"]
    if not result["problems"]:
        try:
            result["problems"] += checks.CHECKERS[run.family](out_dir, run.ini_path, seed,
                                                              refs.get(run.key, {}))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            result["problems"].append(f"unreadable output: {exc!r}")
    names = checks.data_files(out_dir)
    result["digests"] = {n: checks.sha256_file(os.path.join(out_dir, n)) for n in names}
    result["output_bytes"] = sum(os.path.getsize(os.path.join(out_dir, n)) for n in names)
    shutil.rmtree(out_dir)


class Invocation:
    """One benchmark invocation: its scratch directory, references and results."""

    def __init__(self, workload: str, seed: int, work_root: str) -> None:
        self.runs = WORKLOADS[workload]
        self.seed = seed
        self.work_root = work_root
        with open(REFS_PATH, encoding="utf-8") as fh:
            self.refs = json.load(fh)
        self.count = 0
        self.first_digests: dict = {}

    def _dir(self) -> str:
        self.count += 1
        path = os.path.join(self.work_root, f"{self.count:03d}")
        os.makedirs(path)
        return path

    def probe(self, run: CliRun, facts: bool = False) -> dict:
        """Set-up only: import and load_config, no computation."""
        flags = ("--setup-only", "--facts") if facts else ("--setup-only",)
        result = spawn(run, self._dir(), self.seed, flags)
        shutil.rmtree(result["out_dir"])
        return result

    def repetition(self, trace: bool = False) -> "list[dict]":
        """Every CLI run of the workload once, each checked against the references.

        Data files must also be byte-identical to the first repetition of this
        invocation (traced or not), since a run is determined by its seed.
        """
        results = []
        for run in self.runs:
            result = spawn(run, self._dir(), self.seed, ("--trace",) if trace else ())
            check_outputs(result, self.seed, self.refs)
            first = self.first_digests.setdefault(run.key, result["digests"])
            if result["digests"] != first and not result["problems"]:
                result["problems"].append("data files differ from this seed's first run")
            results.append(result)
        return results


# ---------------------------------------------------------------------------
# Metrics


def rep_summary(results: "list[dict]") -> dict:
    wall = sum(r["wall_s"] for r in results)
    setup = sum(r["setup_s"] or 0.0 for r in results)
    units = sum(work_units(r["run"]) for r in results)
    return {
        "wall_s": wall,
        "units_per_s": units / (wall - setup),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "output_bytes": sum(r["output_bytes"] for r in results),
    }


def end_to_end(reps: "list[list[dict]]", setups: "list[float]") -> "dict[str, list[float]]":
    """Samples per end-to-end metric; each is reported as its median."""
    summaries = [rep_summary(rep) for rep in reps]
    samples = {name: [s[name] for s in summaries] for name, _ in END_TO_END if name != "setup_s"}
    samples["setup_s"] = setups
    return samples


def layer_metrics(traced: "list[dict]", overhead_s: float) -> "tuple[dict, list[str], dict]":
    """Per-layer values from one traced repetition, the names found absent, function totals.

    Times are summed over the repetition's CLI runs.  A function that no
    longer exists in its module reads 0 and is listed as absent, as is one
    whose return value no longer has what a derived counter reads.
    """
    totals: dict = {}
    counters: dict = {}
    present: set = set()
    import_s = 0.0
    for result in traced:
        report = result["report"] or {}
        import_s += report.get("import_s", 0.0)
        present.update(report.get("present", ()))
        trace = report.get("trace", {"spans": [], "aggregates": {}, "counters": {}})
        for name, stats in tracer.function_totals(trace).items():
            entry = totals.setdefault(name, dict.fromkeys(FUNCTION_STATS, 0))
            for stat in FUNCTION_STATS:
                entry[stat] += stats[stat]
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
    values: dict = {}
    absent = []
    for name, _ in PER_LAYER:
        head, _, stat = name.rpartition(".")
        if name in counters:
            values[name] = counters[name]
        elif stat in FUNCTION_STATS and not head.startswith("detection.route."):
            if head not in present:
                absent.append(head)
            values[name] = totals.get(head, {}).get(stat, 0)
        else:
            values[name] = 0
    absent += [n[:-len(".unobservable")] + " (return value unreadable)"
               for n in counters if n.endswith(".unobservable")]
    values["setup.import_s"] = import_s
    scored = counters.get("attacks.seeds_scored", 0)
    if scored:
        values["attacks.distinct_ratio"] = counters["attacks.candidates"] / scored
    values["trace.overhead_s"] = overhead_s
    return values, sorted(set(absent)), totals


def module_profile(totals: dict, compute_s: float) -> "list[str]":
    """Self time per yzero module and the top functions, as text lines.

    Shares are of the summed self time, which counts every thread, so with
    the bounds pool it exceeds the wall-clock compute time.
    """
    by_module: dict = {}
    for name, stats in totals.items():
        module = name.split(".", 1)[0]
        by_module[module] = by_module.get(module, 0.0) + stats["self_s"]
    traced = sum(by_module.values()) or 1.0
    lines = [f"profile: compute {compute_s:.3f} s wall (minus set-up), "
             f"traced self time {traced:.3f} s over all threads"]
    for module, own in sorted(by_module.items(), key=lambda kv: -kv[1]):
        lines.append(f"  module {module:<10} self {own:9.3f} s  {own / traced:7.1%}")
    top = sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])[:10]
    for name, stats in top:
        lines.append(f"  {name:<45} self {stats['self_s']:9.3f} s  calls {stats['calls']}")
    return lines


# ---------------------------------------------------------------------------
# Run facts


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC_DIR, "yzero")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha() -> "str | None":
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def run_facts(args, probe: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)), "bounds_threads": bench_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        **(probe["report"] or {}).get("facts", {}),
        "git_sha": git_sha(), "src_sha256": source_digest(),
    }


def describe(samples: "list[float]") -> str:
    if len(samples) == 1:
        return "n=1"
    return f"n={len(samples)} min={min(samples):.6g} max={max(samples):.6g}"


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(args, invocation: Invocation, started: float) -> "tuple[list, dict, list[str]]":
    """Timed repetitions; returns (all CLI results, metrics, text lines)."""
    deadline = time.monotonic() + args.seconds
    reps, setups = [], []
    while True:
        t = time.monotonic()
        rep = invocation.repetition()
        reps.append(rep)
        setups += [r["setup_s"] for r in rep if r["setup_s"] is not None]
        took = time.monotonic() - t
        now = time.monotonic()
        if now + took > deadline or now + took > started + BUDGET_S:
            break
    probes = 0
    while len(setups) < SETUP_SAMPLES and time.monotonic() + 5.0 < started + BUDGET_S:
        result = invocation.probe(invocation.runs[probes % len(invocation.runs)])
        probes += 1
        if result["problems"]:
            raise RuntimeError(f"set-up probe failed: {result['problems']}")
        setups.append(result["setup_s"])
    samples = end_to_end(reps, setups)
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END}
    lines = [f"repetitions: {len(reps)} of {len(invocation.runs)} CLI run(s); "
             f"set-up samples: {len(setups)} ({probes} probe(s))"]
    results = [r for rep in reps for r in rep]
    failed = sum(bool(r["problems"]) for r in results)
    for name, unit in END_TO_END:
        lines.append(f"{name:<14} {metrics[name]['value']:.6g} {unit:<6} "
                     f"(median, {describe(samples[name])})")
    lines.append(f"{'fail_ratio':<14} {failed / len(results):.6g} ratio  "
                 f"({failed} of {len(results)} CLI runs)")
    return results, metrics, lines


def measure_traced(invocation: Invocation) -> "tuple[list, dict, list[str]]":
    untraced = invocation.repetition()
    traced = invocation.repetition(trace=True)
    overhead = sum(r["wall_s"] for r in traced) - sum(r["wall_s"] for r in untraced)
    values, absent, totals = layer_metrics(traced, overhead)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    compute = sum(r["wall_s"] - (r["setup_s"] or 0.0) for r in traced)
    lines = [f"{name:<46} {values[name]:.6g} {unit}" for name, unit in PER_LAYER]
    lines.append(f"absent: {', '.join(absent) if absent else 'none'}")
    lines += module_profile(totals, compute)
    return untraced + traced, metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "yzero", "cli.py")):
        print(f"no yzero sources under {SRC_DIR}; run from a full checkout", file=sys.stderr)
        return 2
    started = time.monotonic()
    os.makedirs(OUT_ROOT, exist_ok=True)
    work_root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT)
    try:
        invocation = Invocation(args.workload, args.seed, work_root)
        # first start also compiles bytecode; it is not a set-up sample
        warm = invocation.probe(invocation.runs[0], facts=True)
        if warm["problems"]:
            print(f"yzero failed to start: {warm['problems']}", file=sys.stderr)
            return 2
        if args.trace:
            results, metrics, lines = measure_traced(invocation)
        else:
            results, metrics, lines = measure(args, invocation, started)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        if os.path.isdir(OUT_ROOT) and not os.listdir(OUT_ROOT):
            os.rmdir(OUT_ROOT)
    failed = [r for r in results if r["problems"]]
    print("facts: " + json.dumps(run_facts(args, warm), sort_keys=True))
    for line in lines:
        print(line)
    for r in failed:
        print(f"FAILED {r['run'].ini}: {'; '.join(r['problems'][:5])}")
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
