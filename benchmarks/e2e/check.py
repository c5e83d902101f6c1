"""Correctness: every result row against the reference executor.

The oracle is ``repro.refexec.run_reference`` (exported as
``repro.run_reference``), never the engine itself.  For the default seed
its answers are kept in ``expected/seed2011.json``; any other seed is
checked against a live reference run on a freshly generated copy of the
data, after the measurement and outside every timed region.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from typing import Dict, List, Optional, Sequence

from workloads import Workload, build, mutate

DEFAULT_SEED = 2011
REL_TOL = 1e-9


def _exact(value: object) -> tuple:
    return (value is None, type(value).__name__,
            0 if value is None else value)


def _loose(value: object) -> tuple:
    return (value is None, 0.0 if value is None else float(value))


def rows_match(got: Optional[Sequence[dict]], want: Sequence[dict]) -> bool:
    """Multiset equality of two row lists, floats within 1e-9 relative.

    A column holding a float on either side is compared numerically;
    rows are lined up by their other columns first, so last-digit noise
    from another summation order cannot pair the wrong rows.
    """
    if got is None or len(got) != len(want):
        return False
    if not want:
        return True
    columns = sorted(want[0])
    names = set(columns)
    if any(set(row) != names for rows in (got, want) for row in rows):
        return False
    loose = [c for c in columns
             if any(isinstance(row[c], float)
                    for rows in (got, want) for row in rows)]
    exact = [c for c in columns if c not in loose]

    def key(row: dict) -> tuple:
        return (tuple(_exact(row[c]) for c in exact),
                tuple(_loose(row[c]) for c in loose))

    try:
        pairs = zip(sorted(map(key, got)), sorted(map(key, want)))
        return all(
            a_exact == b_exact and all(
                a[0] == b[0] and math.isclose(a[1], b[1], rel_tol=REL_TOL,
                                              abs_tol=1e-12)
                for a, b in zip(a_loose, b_loose))
            for (a_exact, a_loose), (b_exact, b_loose) in pairs)
    except (TypeError, ValueError):  # a column mixing unlike types
        return False


def reads(sql: str, table: str) -> bool:
    return table in sql.lower()


def reference_epochs(w: Workload, seed: int, texts: Dict[str, str],
                     ds=None) -> List[Dict[str, List[dict]]]:
    """Reference rows of every stream query at every mutation epoch.

    A workload that mutates its tables gets a freshly generated copy of
    the data (the measured one is already at its last epoch) and the same
    mutations replayed; one that does not can pass its own ``ds``.  An
    epoch lists only the queries whose tables changed;
    :func:`expected_rows` walks back.
    """
    from repro import parse_sql, plan_query, run_reference
    if ds is None or w.mutations:
        ds = build(w, seed)
    epochs: List[Dict[str, List[dict]]] = []
    for table, nth in [(None, 0)] + [step[1:] for step in w.mutation_steps()]:
        if table is not None:
            mutate(ds, seed, table, nth)
        answers = {}
        for name in w.stream:
            if table is None or reads(texts[name], table):
                plan = plan_query(parse_sql(texts[name]), ds.catalog)
                answers[name] = run_reference(plan, ds).rows
        epochs.append(answers)
    return epochs


def expected_rows(epochs: Sequence[Dict[str, List[dict]]], query: str,
                  epoch: int) -> List[dict]:
    for answers in reversed(epochs[:epoch + 1]):
        if query in answers:
            return answers[query]
    raise KeyError(f"no reference answer for {query!r} at epoch {epoch}")


def load_expected(path: str, w: Workload, seed: int
                  ) -> Optional[List[Dict[str, List[dict]]]]:
    """The stored answers for this workload's data, or None when the
    file does not cover it (another seed, another size)."""
    if seed != DEFAULT_SEED or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        stored = json.load(handle)
    epochs = stored["data"].get(w.data_key)
    if epochs is None or len(epochs) < w.epochs:
        return None
    try:
        for name in w.stream:
            expected_rows(epochs, name, 0)
    except KeyError:
        return None
    return epochs


def verify(ops, epochs: Sequence[Dict[str, List[dict]]]) -> int:
    """Mark every op whose rows differ from the reference as failed;
    returns how many were marked."""
    wrong = 0
    for op in ops:
        if op.error is None and not rows_match(
                op.rows, expected_rows(epochs, op.query, op.epoch)):
            op.error = "wrong answer"
            wrong += 1
    return wrong


def regenerate(path: str, workloads: Sequence[Workload],
               texts: Dict[str, str]) -> None:
    """Rewrite the expected file from reference runs alone."""
    merged: Dict[str, Workload] = {}
    for w in workloads:
        seen = merged.get(w.data_key)
        if seen is None:
            merged[w.data_key] = w
            continue
        base = w if len(w.mutations) > len(seen.mutations) else seen
        stream = seen.stream + tuple(q for q in w.stream
                                     if q not in seen.stream)
        merged[w.data_key] = dataclasses.replace(base, stream=stream)
    data = {key: reference_epochs(w, DEFAULT_SEED, texts)
            for key, w in merged.items()}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"seed": DEFAULT_SEED,
                   "oracle": "repro.refexec.run_reference",
                   "data": data}, handle, separators=(",", ":"),
                  sort_keys=True)
        handle.write("\n")
