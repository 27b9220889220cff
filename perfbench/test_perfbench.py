"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

The CLI runs here use small configs written to a temporary directory, so
the whole file takes seconds, not the minutes of a benchmark run.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

import checks
import run as bench
import tracer

# metric names the benchmark was specified with, plus the tracing overhead,
# which the specification asks for without naming
SPECIFIED_END_TO_END = {"wall_s", "setup_s", "units_per_s", "peak_rss_mb", "output_bytes",
                    "fail_ratio"}
SPECIFIED_PER_LAYER = {
    "setup.import_s", "scenario.load_config.total_s",
    "runner.run_attack.self_s", "runner.run_bounds.self_s",
    "codec.keystream_table.self_s", "codec.keystream_table.calls",
    "codec.keystream_table.rows", "codec.bit_ensembles.self_s",
    "codec.halfplane_label.calls", "codec.encode.calls",
    "attacks.brute_force_candidates.self_s", "attacks.otp_stage_attack.self_s",
    "attacks.label_mutual_information.total_s",
    "attacks.ciphertext_only_entropy.self_s", "attacks.known_plaintext_key_entropy.self_s",
    "attacks.distinct_ratio",
    "detection.bit_bound.total_s", "detection.updown_bound.total_s",
    "detection.srm_mary_error.total_s",
    "detection.route.bit_fock.calls", "detection.route.bit_gram.calls",
    "detection.route.updown_fock.calls", "detection.route.updown_gram.calls",
    "detection.dim3_sum", "detection.heterodyne_index_transition.total_s",
    "fockspace.density_from_ensemble.self_s", "fockspace.density_from_ensemble.calls",
    "fockspace.coherent_fock.self_s", "fockspace.coherent_fock.calls",
    "fockspace.hermitian_eig.self_s", "fockspace.hermitian_eig.calls",
    "trace.overhead_s",
}

SMALL_CONFIGS = {
    "attack": """
[constellation]
m = 8
energy = 4.0
[keystream]
poly = 0x11D
seed = 0x5A
[scenario]
n_symbols = 48
otp = true
mi_trials = 50
[output]
prefix = small_attack
""",
    "bounds": """
[constellation]
m_grid = 2, 8, 32
energy_grid = 1, 5, 20
[scenario]
methods = bit, srm, updown
[output]
prefix = small_bounds
""",
    "entropy": """
[constellation]
m = 4
energy = 4.0
[keystream]
degree = 6
seed = 0x2A
[scenario]
n_symbols = 16
trials = 20
mode = both
dsr = jitter:0.2
[output]
prefix = small_entropy
""",
}


def small_run(tmp_path, family: str, *extra: str) -> bench.CliRun:
    path = tmp_path / f"{family}.ini"
    path.write_text(SMALL_CONFIGS[family], encoding="utf-8")
    return bench.CliRun(family, str(path), extra)


def spawn(tmp_path, run: bench.CliRun, name: str, flags=()) -> dict:
    work = tmp_path / name
    work.mkdir()
    result = bench.spawn(run, str(work), seed=7, flags=flags)
    assert not result["problems"], result["problems"]
    return result


def span(span_id, parent, thread, start, end, agg=0.0):
    return (span_id, parent, f"f{span_id}", thread, start, end, agg)


def test_self_time_subtracts_the_union_of_overlapping_thread_children():
    spans = [
        span(1, None, "main", 0.0, 10.0, agg=0.5),
        span(2, 1, "worker-a", 1.0, 6.0),
        span(3, 1, "worker-b", 2.0, 8.0),
        span(4, 1, "main", 8.5, 9.0),
        span(5, 2, "worker-a", 2.0, 3.0),
    ]
    own = tracer.self_times(spans)
    # children cover [1, 8] and [8.5, 9]; a plain sum would give 12 and a
    # negative self time
    assert own[1] == pytest.approx(10.0 - 7.5 - 0.5)
    assert own[2] == pytest.approx(4.0)
    assert own[3] == pytest.approx(6.0)
    assert own[4] == pytest.approx(0.5)


def test_tracer_parents_worker_spans_to_the_open_main_span():
    t = tracer.Tracer(hot=frozenset({"m.tick"}))
    tick = t.wrap("m.tick", lambda: None)

    def work():
        tick()
        time.sleep(0.05)

    wrapped_work = t.wrap("m.work", work)

    def pool():
        threads = [threading.Thread(target=wrapped_work) for _ in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
            assert not th.is_alive()

    t.wrap("m.pool", pool)()
    snap = t.snapshot()
    totals = tracer.function_totals(snap)
    pool_span = next(s for s in snap["spans"] if s[tracer.NAME] == "m.pool")
    workers = [s for s in snap["spans"] if s[tracer.NAME] == "m.work"]
    assert [s[tracer.PARENT] for s in workers] == [pool_span[tracer.SPAN_ID]] * 2
    assert 0.0 <= totals["m.pool"]["self_s"] < 0.04
    assert totals["m.work"]["calls"] == 2
    assert snap["aggregates"]["m.tick"][0] == 2


def test_attack_check_rejects_one_corrupted_byte(tmp_path):
    run = small_run(tmp_path, "attack")
    result = spawn(tmp_path, run, "attack")
    out = result["out_dir"]
    refs = {"7": {n: checks.sha256_file(os.path.join(out, n)) for n in checks.data_files(out)}}
    assert checks.check_attack(out, run.ini_path, 7, refs) == []
    csv_path = os.path.join(out, "small_attack_attack_seeds.csv")
    with open(csv_path, "r+b") as fh:
        data = bytearray(fh.read())
        pos = data.index(b"\n0x80,") + 6  # first digit of one row's match fraction
        data[pos] = ord("9") if data[pos] != ord("9") else ord("8")
        fh.seek(0)
        fh.write(data)
    assert any("SHA-256" in p for p in checks.check_attack(out, run.ini_path, 7, refs))
    # without a reference the keystream oracle still catches a corrupted sampled row
    assert any("oracle" in p for p in checks.check_attack(out, run.ini_path, 7, {}))


def test_bounds_check_rejects_p_error_outside_tolerance(tmp_path):
    run = small_run(tmp_path, "bounds")
    out = spawn(tmp_path, run, "bounds")["out_dir"]
    rows = checks.read_bounds_rows(os.path.join(out, "small_bounds_bounds.csv"))[1:]
    ref = [[int(r[0]), float(r[1]), r[2], float(r[3])] for r in rows]
    assert checks.check_bounds(out, run.ini_path, 7, {"rows": ref}) == []
    ref[4][3] += 0.5 * checks.P_ERROR_ABS_TOL
    assert checks.check_bounds(out, run.ini_path, 7, {"rows": ref}) == []
    ref[4][3] += 2.0 * checks.P_ERROR_ABS_TOL
    problems = checks.check_bounds(out, run.ini_path, 7, {"rows": ref})
    assert len(problems) == 1 and "p_error" in problems[0]


def test_truncated_output_is_a_failed_run_not_a_crash(tmp_path):
    run = small_run(tmp_path, "bounds")
    result = spawn(tmp_path, run, "bounds")
    with open(os.path.join(result["out_dir"], "small_bounds_bounds.csv"), "a") as fh:
        fh.write("2,1.0\n")
    bench.check_outputs(result, 7, {})
    assert any("unreadable output" in p for p in result["problems"])


@pytest.mark.parametrize("family,extra", [("attack", ()), ("bounds", ("--threads", "2")),
                                          ("entropy", ())])
def test_traced_and_untraced_runs_write_identical_data(tmp_path, family, extra):
    run = small_run(tmp_path, family, *extra)
    plain = spawn(tmp_path, run, "plain")
    traced = spawn(tmp_path, run, "traced", flags=("--trace",))
    assert traced["report"]["trace"]["spans"]
    digests = []
    for result in (plain, traced):
        out = result["out_dir"]
        digests.append({n: checks.sha256_file(os.path.join(out, n))
                        for n in checks.data_files(out)})
    assert digests[0] and digests[0] == digests[1]


def test_emitted_metric_names_are_the_specified_names():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert end_to_end == [name for name, _ in bench.END_TO_END]
    assert per_layer == [name for name, _ in bench.PER_LAYER]
    assert set(end_to_end) <= SPECIFIED_END_TO_END
    assert set(per_layer) <= SPECIFIED_PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    # a traced run whose functions are gone still emits every name, as absent zeros
    empty = {"report": {"import_s": 1.0, "present": ["codec.encode"],
                        "trace": {"spans": [], "aggregates": {}, "counters": {}}}}
    values, absent, _ = bench.layer_metrics([empty], overhead_s=0.1)
    assert list(values) == per_layer
    assert "codec.bit_ensembles" in absent and "codec.encode" not in absent
    assert values["codec.bit_ensembles.self_s"] == 0
