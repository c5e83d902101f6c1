#!/usr/bin/env python3
"""Self-test of the benchmark harness (not of the program it measures).

Runs standalone (``python3 benchmarks/e2e/selftest.py``) and under
``pytest benchmarks/e2e/selftest.py``; the tier-1 ``testpaths`` does not
collect it.  Every run it starts uses ``--quick`` data.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_quick(*extra: str, env: dict = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", *extra],
        capture_output=True, text=True, timeout=170,
        env={**os.environ, **(env or {})})


def contract_line(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def printed_names(done: subprocess.CompletedProcess) -> set:
    """Metric names of the human-readable table (two-space indent,
    a name, then a value)."""
    names = set()
    for line in done.stdout.splitlines():
        match = re.match(r"^  ([A-Za-z0-9_.-]+) +(-?[0-9]|null)", line)
        if match:
            names.add(match.group(1))
    return names


# -- the manifest -----------------------------------------------------------

def test_manifest_names_and_limits():
    manifest = run.load_manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 1 <= manifest["run_seconds"] <= 60
    names = [entry["name"] for family in ("workloads", "end_to_end",
                                          "per_layer")
             for entry in manifest[family]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in manifest["end_to_end"])


def test_manifest_matches_the_workload_table():
    import workloads
    manifest = run.load_manifest()
    assert ([w["name"] for w in manifest["workloads"]]
            == list(workloads.WORKLOADS))
    for entry in manifest["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


# -- what a run prints ------------------------------------------------------

def test_quick_run_prints_every_declared_metric_and_no_other():
    """Also: a caller's REPRO_* setting must not reach the child — the
    value below is one the engine rejects, so leaking it fails the run."""
    manifest = run.load_manifest()
    end_to_end = {m["name"] for m in manifest["end_to_end"]}
    per_layer = {m["name"] for m in manifest["per_layer"]}
    for workload in ("scan_agg", "service_replay"):
        done = run_quick("--workload", workload, "--seed", "5",
                         env={"REPRO_DATA_PLANE": "neither-row-nor-batch"})
        assert done.returncode == 0, done.stderr[-2000:]
        line = contract_line(done)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == end_to_end | per_layer
        assert (printed_names(done)
                == end_to_end | per_layer | {"error_rate"})
        for name in end_to_end:
            assert line["metrics"][name]["value"] > 0, name
        units = {m["name"]: m["unit"]
                 for m in manifest["end_to_end"] + manifest["per_layer"]}
        assert all(v["unit"] == units[k]
                   for k, v in line["metrics"].items())


def test_trace_flag_selects_the_metric_family():
    manifest = run.load_manifest()
    for trace, family in (("0", "end_to_end"), ("1", "per_layer")):
        done = run_quick("--workload", "dss_spill", "--seed", "5",
                         "--trace", trace)
        assert done.returncode == 0, done.stderr[-2000:]
        assert (set(contract_line(done)["metrics"])
                == {m["name"] for m in manifest[family]})


def test_child_environment_is_scrubbed():
    leak = {"REPRO_DATA_PLANE": "row", "REPRO_MEMORY_MB": "1"}
    saved = {key: os.environ.get(key) for key in leak}
    os.environ.update(leak)
    try:
        env = run.child_env()
        assert set(leak) <= set(run.scrubbed())
    finally:
        for key, value in saved.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value
    assert not [key for key in env if key.startswith("REPRO_")]
    assert env["PYTHONHASHSEED"] == "0"
    assert env["TMPDIR"].startswith(HERE)


def test_corrupted_expected_row_fails_the_run():
    with open(run.EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)
    rows = expected["data"]["tpch0.002-users200"][0]["q_agg"]
    rows[0]["click_count"] += 1
    os.makedirs(run.WORK, exist_ok=True)
    corrupted = os.path.join(run.WORK, "selftest-corrupted-expected.json")
    with open(corrupted, "w", encoding="utf-8") as handle:
        json.dump(expected, handle)
    try:
        done = run_quick("--workload", "scan_agg", "--seed", "2011",
                         "--trace", "0", "--expected", corrupted)
    finally:
        os.remove(corrupted)
    assert done.returncode != 0
    line = contract_line(done)
    assert not line["correct"] and line["failed"] > 0
    error_rate = re.search(r"^  error_rate +([0-9.e-]+)", done.stdout, re.M)
    assert float(error_rate.group(1)) > 0
    # and the untouched file passes
    done = run_quick("--workload", "scan_agg", "--seed", "2011",
                     "--trace", "0")
    assert done.returncode == 0 and contract_line(done)["correct"]
    assert "expected file" in done.stdout


# -- arithmetic -------------------------------------------------------------

def test_percentiles():
    values = [float(v) for v in range(1, 101)]
    assert measure.percentile(values, 50) == 50.5
    assert abs(measure.percentile(values, 95) - 95.05) < 1e-9
    assert measure.percentile([3.0], 95) == 3.0
    assert measure.percentile([1.0, 2.0], 0) == 1.0
    assert measure.percentile([2.0, 1.0], 100) == 2.0
    q1, q2, q3 = measure.quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    assert (q1, q2, q3) == (2.0, 4.0, 6.0)
    assert measure.spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]) == 1.0


def test_span_self_time():
    span = layers.Span
    spans = [
        span("query", 0.0, 10.0, None, "q", 1),        # 0
        span("mr.map", 1.0, 4.0, 0, "q", 1),           # 1
        span("mr.reduce", 4.0, 9.0, 0, "q", 1),        # 2
        span("ops.join", 5.0, 7.0, 2, "q", 1),         # 3
        span("probe.static", 10.0, 11.0, None, "q", 2),  # 4
    ]
    assert layers.self_times(spans) == [2.0, 3.0, 3.0, 2.0, 1.0]
    # a nested span's time counts once, for the inner layer
    assert layers.pass_totals(spans, 1) == {
        "query": 2.0, "mr.map": 3.0, "mr.reduce": 3.0, "ops.join": 2.0}
    events = layers.chrome_trace(spans)["traceEvents"]
    assert [e["dur"] for e in events] == [1e7, 3e6, 5e6, 2e6, 1e6]
    assert events[3]["args"]["parent"] == 2 and events[3]["ts"] == 5e6


def test_recorder_nests_spans():
    recorder = layers.Recorder()
    recorder.query = "q1"
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    outer, inner = recorder.spans
    assert outer.parent is None and inner.parent == 0
    assert inner.query == "q1"
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(steady, [1.0] * 5, "lower", 0.05) == "unchanged"
    assert compare.verdict(steady, [1.2] * 5, "lower", 0.05) == "regressed"
    assert compare.verdict(steady, [0.8] * 5, "lower", 0.05) == "improved"
    assert compare.verdict(steady, [0.8] * 5, "higher", 0.05) == "regressed"
    noisy = [1.0, 1.3, 0.7, 1.1, 0.9]
    assert compare.verdict(noisy, [1.2] * 5, "lower", 0.05) == "unresolved"
    # too few runs to tell a change from the run-to-run spread,
    # whichever way the one pair points
    few = steady[:compare.MIN_RUNS - 1]
    assert compare.verdict(few, [1.5] * 5, "lower", 0.05) == "unresolved"
    assert compare.verdict(steady, [0.5], "lower", 0.05) == "unresolved"
    # a metric that repeats exactly is judged from one run a side
    assert compare.verdict([2.0], [2.0], "lower", 0.005,
                           repeats_exactly=True) == "unchanged"
    assert compare.verdict([2.0], [2.02], "lower", 0.005,
                           repeats_exactly=True) == "regressed"
    assert compare.verdict([2.0], [2.001], "lower", 0.005,
                           repeats_exactly=True) == "unchanged"


def test_compare_same_commit_sets():
    """Two one-run sets are never `regressed`; sets measured with
    different seeds are refused."""
    manifest = run.load_manifest()

    def document(seed, scale):
        values = {m["name"]: [scale] for m in manifest["end_to_end"]}
        for name in compare.SAME_SEED_BOUNDS:
            values[name] = [1.0]
        return {"commit": None, "seed": seed, "seconds": 1.0, "quick": True,
                "runs": {"scan_agg": {"end_to_end": values, "noisy": False,
                                      "error_rate": [0.0]}}}

    os.makedirs(run.WORK, exist_ok=True)
    paths = []
    for tag, doc in (("a", document(5, 1.0)), ("b", document(5, 1.5)),
                     ("c", document(6, 1.0))):
        paths.append(os.path.join(run.WORK, f"selftest-compare-{tag}.json"))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as table:
            assert compare.main(paths[0], paths[1], manifest) == 0
            assert compare.main(paths[0], paths[2], manifest) == 2
        assert "regressed" not in table.getvalue()
        assert "not comparable" in table.getvalue()
    finally:
        for path in paths:
            os.remove(path)


def test_row_matching():
    import check
    want = [{"k": 1, "v": 0.1 + 0.2, "s": "a"}, {"k": 2, "v": None, "s": "b"}]
    got = [{"k": 2, "v": None, "s": "b"}, {"k": 1, "v": 0.3, "s": "a"}]
    assert check.rows_match(got, want)
    assert check.rows_match([], [])
    assert not check.rows_match(None, want)
    assert not check.rows_match(got[:1], want)
    got[1]["v"] = 0.3000001
    assert not check.rows_match(got, want)
    got[1]["v"] = 0.3
    got[0]["s"] = "c"
    assert not check.rows_match(got, want)
    assert check.rows_match([{"n": 5}], [{"n": 5.0}])
    assert not check.rows_match([{"n": 5, "x": 1}], [{"n": 5}])


# -- a moved entry point ----------------------------------------------------

def test_missing_entry_point_yields_null_not_a_crash():
    import queries
    import tracedrun
    import workloads
    w = workloads.quick(workloads.WORKLOADS["scan_agg"])
    ds = workloads.build(w, 5)
    saved = layers.ENTRY_POINTS["specialize"]
    layers.ENTRY_POINTS["specialize"] = "repro.expr.codegen:moved_away"
    try:
        out = tracedrun.traced_run(w, ds, queries.sql_texts(), 0.1, 5,
                                   0.0, 1.0)
    finally:
        layers.ENTRY_POINTS["specialize"] = saved
    metrics = out.metrics
    assert metrics["sqlparser.parse_s"] > 0 and metrics["plan.plan_s"] > 0
    assert metrics["stats.optimize_s"] is not None
    for name in ("expr.codegen_warm_s", "mr.map_s", "mr.reduce_groups",
                 "trace.coverage", "data.column_batch_build_s"):
        assert metrics[name] is None, name
        assert "moved_away" in out.reasons[name]
    # what does not depend on the layered drive is still measured
    assert metrics["runtime.makespan_s"] > 0
    assert metrics["hadoop.sim_jobs"] > 0
    assert metrics["mr.peak_traced_mb"] > 0
    # and the untraced answers were still collected for checking
    assert len(out.ops) == len(w.stream) * out.detail["traced_passes"]


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except Exception as exc:  # report every test, then fail
            failed += 1
            print(f"FAIL  {name}: {type(exc).__name__}: {exc}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    sys.exit(1 if failed else 0)
