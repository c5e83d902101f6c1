#!/usr/bin/env python3
"""The repo's one benchmark: five workloads, end to end and layer by layer.

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed 2011]
        [--seconds N] [--trace 0|1|both] [--repeat N] [--out FILE] [--quick]
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --regenerate-expected

Each workload runs in a fresh child interpreter with ``PYTHONHASHSEED=0``
and every ``REPRO_*`` variable removed, so only the default configuration
is measured.  Every metric named in ``BENCHMARK.json`` is printed with
its unit; every result row is checked against the reference executor;
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero on a wrong answer.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import measure  # noqa: E402
from check import DEFAULT_SEED  # noqa: E402

MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED = os.path.join(HERE, "expected", f"seed{DEFAULT_SEED}.json")
#: scratch inside the checkout: spill runs, disk tables, trace files
WORK = os.path.join(HERE, ".work")
#: what the contract line shows for a per-layer metric that could not be
#: measured (the output file and the table above it say ``null`` + why)
NOT_MEASURED = -1.0
CHILD_TIMEOUT_S = 170


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


def scrubbed() -> List[str]:
    """Variables of the caller that could select a non-default engine
    configuration (or another copy of the engine)."""
    return sorted(k for k in os.environ
                  if k.startswith("REPRO_") or k == "PYTHONPATH")


def child_env() -> Dict[str, str]:
    drop = set(scrubbed())
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    return env


def run_child(extra: List[str]) -> dict:
    """Start one child, wait for it, and return its JSON document."""
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--spawned-at", repr(time.time()), *extra]
    done = subprocess.run(command, env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"benchmark child failed with code "
                         f"{done.returncode}: {' '.join(extra)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def commit_hash() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure_workload(name: str, trace: int, seed: int, args) -> dict:
    """One child run bracketed by the calibration loop."""
    extra = ["--workload", name, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(trace),
             "--expected", args.expected]
    if trace:
        extra += ["--trace-file",
                  os.path.join(WORK, f"trace-{name}.json")]
    if args.quick:
        extra.append("--quick")
    before = measure.calibration_s()
    doc = run_child(extra)
    after = measure.calibration_s()
    doc["calibration_s"] = [before, after]
    doc["noisy"] = abs(after - before) / min(before, after) > 0.05
    return doc


def show(doc: dict, declared: List[dict]) -> None:
    flag = "  NOISY (calibration moved > 5 %)" if doc["noisy"] else ""
    print(f"== {doc['workload']}  seed {doc['seed']}  trace {doc['trace']}"
          f"  calibration {doc['calibration_s'][0]:.4f}/"
          f"{doc['calibration_s'][1]:.4f} s{flag}")
    for spec in declared:
        value = doc["metrics"].get(spec["name"])
        if value is None:
            reason = doc["reasons"].get(spec["name"], "not measured")
            text = f"null  ({reason})"
        else:
            text = f"{value:.6g} {spec['unit']}"
        bound = (f"  [{spec['better']} is better, bound "
                 f"{spec['bound']:.1%}]" if "bound" in spec else "")
        print(f"  {spec['name']:<34}{text}{bound}")
    if not doc["trace"]:
        print(f"  {'error_rate':<34}{doc['metrics']['error_rate']:.6g} "
              f"ratio  [any rise is a regression]")
    print(f"  checked: {doc['attempted']} ops, {doc['failed']} failed "
          f"({doc['wrong_answers']} wrong answers), oracle: "
          f"{doc['detail']['oracle']}")
    for failure in doc["detail"]["failures"]:
        print(f"  FAILED {failure['query']} pass/round {failure['index']}: "
              f"{failure['error'].strip().splitlines()[-1]}")
    sys.stdout.flush()


def main() -> int:
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="steady measurement per run (default: "
                             "run_seconds of BENCHMARK.json; 1 with --quick)")
    parser.add_argument("--trace", default="both",
                        choices=("0", "1", "both"),
                        help="0: end-to-end metrics, tracing off; "
                             "1: the traced per-layer pass; both (default)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="end-to-end runs per workload, all on --seed; "
                             f"--compare wants {compare.MIN_RUNS} or more "
                             "(the traced pass runs once)")
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-sized data and one-second runs")
    parser.add_argument("--expected", default=EXPECTED,
                        help=f"reference answers for seed {DEFAULT_SEED}")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--regenerate-expected", action="store_true")
    args = parser.parse_args()

    if args.compare:
        return compare.main(args.compare[0], args.compare[1], manifest)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("benchmarks/e2e: no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(manifest["run_seconds"])
    args.expected = os.path.abspath(args.expected)
    if args.regenerate_expected:
        run_child(["--workload", names[0], "--seed", str(DEFAULT_SEED),
                   "--seconds",
                   "0", "--trace", "0", "--expected", args.expected,
                   "--regenerate-expected"])
        print(f"rewrote {args.expected}")
        return 0

    selected = names if args.workload == "all" else [args.workload]
    traces = {"0": [0], "1": [1], "both": [0, 1]}[args.trace]
    declared = {0: manifest["end_to_end"], 1: manifest["per_layer"]}
    runs: Dict[str, dict] = {}
    for name in selected:
        record = runs[name] = {"end_to_end": {}, "per_layer": {},
                               "error_rate": [], "attempted": 0,
                               "failed": 0, "reasons": {}, "noisy": False,
                               "children": []}
        for trace in traces:
            family = "per_layer" if trace else "end_to_end"
            for _ in range(1 if trace else args.repeat):
                doc = measure_workload(name, trace, args.seed, args)
                show(doc, declared[trace])
                for spec in declared[trace]:
                    record[family].setdefault(spec["name"], []).append(
                        doc["metrics"].get(spec["name"]))
                if not trace:
                    record["error_rate"].append(doc["metrics"]["error_rate"])
                record["attempted"] += doc["attempted"]
                record["failed"] += doc["failed"]
                record["noisy"] = record["noisy"] or doc["noisy"]
                record["reasons"].update(doc["reasons"])
                record["children"].append(doc)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"benchmark": "benchmarks/e2e", "commit": commit_hash(),
                       "seed": args.seed, "repeat": args.repeat,
                       "seconds": args.seconds, "quick": args.quick,
                       "machine": measure.machine_fingerprint(),
                       "environment": {"scrubbed": scrubbed(),
                                       "PYTHONHASHSEED": "0"},
                       "runs": runs}, handle, indent=1)
            handle.write("\n")

    units = {spec["name"]: spec["unit"]
             for spec in manifest["end_to_end"] + manifest["per_layer"]}
    metrics = {}
    for name, record in runs.items():
        prefix = f"{name}/" if len(runs) > 1 else ""
        for family in ("end_to_end", "per_layer"):
            for metric, values in record[family].items():
                known = [v for v in values if v is not None]
                metrics[prefix + metric] = {
                    "value": (statistics.median(known) if known
                              else NOT_MEASURED),
                    "unit": units[metric]}
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
