"""Write refs.json, the references the output checks compare against.

Usage (from the repository root): python3 perfbench/make_refs.py

The committed references were taken at the commit that added this
benchmark.  Regenerate them only at a commit whose outputs are trusted; a
change that alters outputs must not regenerate them to make its runs pass.
Every run still has to pass the checks that need no reference.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import checks
import run as bench


def reference(result: dict) -> object:
    run, out_dir = result["run"], result["out_dir"]
    names = checks.data_files(out_dir)
    if run.family == "attack":
        return {n: checks.sha256_file(os.path.join(out_dir, n)) for n in names}
    if run.family == "bounds":
        rows = checks.read_bounds_rows(os.path.join(out_dir, names[0]))[1:]
        return {"rows": [[int(r[0]), float(r[1]), r[2], float(r[3])] for r in rows]}
    with open(os.path.join(out_dir, names[0]), encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    refs: dict = {}
    os.makedirs(bench.OUT_ROOT, exist_ok=True)
    work_root = tempfile.mkdtemp(prefix="refs-", dir=bench.OUT_ROOT)
    try:
        for seed in (bench.DEFAULT_SEED, bench.HELD_OUT_SEED):
            for workload, runs in bench.WORKLOADS.items():
                for n, run in enumerate(runs):
                    if run.family == "bounds" and seed != bench.DEFAULT_SEED:
                        continue  # the bounds grid does not depend on the seed
                    work_dir = os.path.join(work_root, f"{seed}-{workload}-{n}")
                    os.makedirs(work_dir)
                    result = bench.spawn(run, work_dir, seed)
                    problems = result["problems"] or checks.CHECKERS[run.family](
                        result["out_dir"], run.ini_path, seed, {})
                    if problems:
                        print(f"{run.ini} seed {seed}: {problems}", file=sys.stderr)
                        return 1
                    if run.family == "bounds":
                        refs[run.key] = reference(result)
                    else:
                        refs.setdefault(run.key, {})[str(seed)] = reference(result)
                    shutil.rmtree(work_dir)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        if os.path.isdir(bench.OUT_ROOT) and not os.listdir(bench.OUT_ROOT):
            os.rmdir(bench.OUT_ROOT)
    with open(bench.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
