"""``run.py --compare A.json B.json``: did B get worse than A?

A and B are ``--out`` files of two ``--repeat N`` sets measured with the
same seed and settings.  One row per (end-to-end metric, workload): both
medians with their quartiles, the ratio B/A, and a verdict taken from
the bounds in ``BENCHMARK.json``:

* ``unresolved`` — a side holds fewer than ``MIN_RUNS`` runs (one run
  cannot tell a change from the run-to-run spread: about one run in five
  of the service replay lands in a mode a fifth faster), or A's own runs
  spread wider than the bound;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``improved`` — better by more than the bound and A's spread;
* ``unchanged`` — anything else.

The metrics computed from job counters alone repeat exactly for a seed,
so they are judged from any number of runs and against the tighter
``SAME_SEED_BOUNDS``.
"""

from __future__ import annotations

import json
import statistics
from typing import List, Optional, Sequence

from measure import quartiles, spread

#: runs per side below which a timing or memory metric stays unresolved
MIN_RUNS = 5

#: ``BENCHMARK.json`` has to bound these two across seeds, where the
#: generated data moves them by 0.1-0.7 %; between two sets on one seed
#: they differ only if the plan or the shuffle changed
SAME_SEED_BOUNDS = {"sim_cluster_s": 0.005,
                    "shuffle_bytes_per_input_byte": 0.005}

#: settings that must agree for two sets to be comparable
SETTINGS = ("seed", "seconds", "quick")


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float, repeats_exactly: bool = False) -> str:
    noise = 0.0
    if not repeats_exactly:
        if min(len(a), len(b)) < MIN_RUNS:
            return "unresolved"
        noise = spread(a)
        if noise > bound:
            return "unresolved"
    base, new = statistics.median(a), statistics.median(b)
    if base == new:
        return "unchanged"
    worse = (new - base) / base if base else float("inf")
    if better == "higher":
        worse = -worse
    if worse > bound:
        return "regressed"
    if -worse > max(bound, noise):
        return "improved"
    return "unchanged"


def _cell(values: Sequence[float]) -> str:
    median = statistics.median(values)
    if len(values) < 2:
        return f"{median:.5g} n=1"
    q1, _, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def _known(values: Optional[List[Optional[float]]]) -> List[float]:
    return [v for v in values or [] if v is not None]


def main(path_a: str, path_b: str, manifest: dict) -> int:
    with open(path_a, encoding="utf-8") as handle:
        doc_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        doc_b = json.load(handle)
    print(f"A = {path_a} (commit {doc_a.get('commit')})")
    print(f"B = {path_b} (commit {doc_b.get('commit')})")
    differ = [key for key in SETTINGS if doc_a.get(key) != doc_b.get(key)]
    if differ:
        print("not comparable: A and B were measured with different "
              + ", ".join(f"{key} ({doc_a.get(key)} vs {doc_b.get(key)})"
                          for key in differ))
        return 2
    print(f"{'workload':<16}{'metric':<30}{'A':<36}{'B':<36}"
          f"{'B/A':<9}verdict")
    bad = 0
    for workload in doc_a["runs"]:
        run_a = doc_a["runs"][workload]
        run_b = doc_b["runs"].get(workload)
        if run_b is None:
            print(f"{workload:<16}missing from B")
            bad += 1
            continue
        for spec in manifest["end_to_end"]:
            name = spec["name"]
            a = _known(run_a["end_to_end"].get(name))
            b = _known(run_b["end_to_end"].get(name))
            if not a or not b:
                continue
            if name in SAME_SEED_BOUNDS:
                result = verdict(a, b, spec["better"],
                                 SAME_SEED_BOUNDS[name],
                                 repeats_exactly=True)
            else:
                result = verdict(a, b, spec["better"], spec["bound"])
            base = statistics.median(a)
            ratio = statistics.median(b) / base if base else float("nan")
            print(f"{workload:<16}{name:<30}{_cell(a):<36}"
                  f"{_cell(b):<36}{ratio:<9.4f}{result}")
            bad += result == "regressed"
        errors_a = max(run_a["error_rate"], default=0.0)
        errors_b = max(run_b["error_rate"], default=0.0)
        rose = errors_b > errors_a
        print(f"{workload:<16}{'error_rate':<30}{errors_a:<36.5g}"
              f"{errors_b:<36.5g}{'':<9}"
              f"{'regressed' if rose else 'unchanged'}")
        bad += rose
        if run_a["noisy"] or run_b["noisy"]:
            print(f"{workload:<16}note: a calibration loop moved by more "
                  f"than 5 % during these runs")
    return 1 if bad else 0
