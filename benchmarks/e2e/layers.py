"""The traced pass: the same stream, driven layer by layer from outside.

Nothing inside ``src/`` is instrumented.  The harness calls each layer's
documented entry point itself — ``parse_sql`` -> ``plan_query`` ->
``translate_plan`` (without and with a ``StatsOptimizer``) ->
``repro.expr.codegen.specialize`` -> the ``JobTaskGraph`` lifecycle
``map_tasks -> MapTask.run -> shuffle -> ReduceTask.run -> finalize`` —
and records an in-memory span around every call.  The end-to-end arm
never runs this code, so an entry point that a later change moves costs
the traced metrics that needed it (reported as null, with the reason)
and nothing else.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

#: where each layer is entered; resolved by name at run time so a moved
#: one is a reported reason, not an ImportError at start-up
ENTRY_POINTS = {
    "parse_sql": "repro.sqlparser:parse_sql",
    "plan_query": "repro.plan:plan_query",
    "translate_plan": "repro.core:translate_plan",
    "StatsContext": "repro.stats:StatsContext",
    "StatsOptimizer": "repro.stats:StatsOptimizer",
    "specialize": "repro.expr.codegen:specialize",
    "job_source": "repro.expr.codegen:job_source",
    "JobTaskGraph": "repro.mr.tasks:JobTaskGraph",
    "resolve_memory_budget": "repro.mr.spill:resolve_memory_budget",
}

#: reducers per job — ``run_query``'s default without a cluster
NUM_REDUCERS = 8


class EntryPointMoved(Exception):
    """A layer can no longer be entered where this benchmark enters it."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in the recorder's list, or None
    parent: Optional[int]
    #: the query this span belongs to ("" outside any query)
    query: str
    #: which traced pass (0 is the cold one)
    pass_index: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans kept in memory, written out once at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.query = ""
        self.pass_index = 0

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self.query, self.pass_index)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def chrome_trace(spans: Sequence[Span]) -> Dict[str, object]:
    """The spans as a Chrome-trace ("Trace Event Format") document."""
    origin = min((span.start for span in spans), default=0.0)
    return {"displayTimeUnit": "ms", "traceEvents": [
        {"name": span.name, "cat": span.name.split(".")[0], "ph": "X",
         "pid": 1, "tid": 1,
         "ts": round((span.start - origin) * 1e6, 3),
         "dur": round(span.duration * 1e6, 3),
         "args": {"query": span.query, "pass": span.pass_index,
                  "parent": span.parent, "id": index}}
        for index, span in enumerate(spans)]}


def write_chrome_trace(spans: Sequence[Span], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(spans), handle)


def topological(jobs: Sequence[object],
                dependencies: Mapping[str, Sequence[str]]) -> List[object]:
    """Jobs in an order that respects ``Translation.dependencies()``,
    otherwise keeping submission order."""
    done: set = set()
    ordered: List[object] = []
    pending = list(jobs)
    while pending:
        ready = [job for job in pending
                 if all(dep in done for dep in
                        dependencies.get(job.job_id, ()))]
        if not ready:
            raise ValueError("job dependencies form a cycle")
        for job in ready:
            done.add(job.job_id)
            ordered.append(job)
        pending = [job for job in pending if job.job_id not in done]
    return ordered


#: span names that are the query's own work (what ``run_query`` also
#: does); ``probe.*`` spans are extra calls made to split a layer's time
WORK_SPANS = ("sqlparser.parse", "plan.plan", "core.translate",
              "data.column_batch", "expr.codegen", "mr.plan", "mr.map",
              "mr.shuffle", "mr.reduce", "mr.finalize", "workloads.collect")

#: the stage each traced metric family needs to have completed
STAGES = ("frontend", "translate", "execute")


class LayeredDriver:
    """Runs queries the way ``run_query`` does, one visible layer at a
    time.  ``counts`` accumulates the deterministic work counters of the
    pass in progress; ``stopped`` maps a stage to the reason it could
    not be driven (every later stage is then skipped as well)."""

    def __init__(self, ds, run_kwargs: Mapping[str, object]):
        self.ds = ds
        self.split_rows = run_kwargs.get("split_rows")
        self.memory_mb = run_kwargs.get("memory_budget_mb")
        self.recorder = Recorder()
        self.stopped: Dict[str, str] = {}
        self.counts: Dict[str, float] = {}
        self._entries: Dict[str, object] = {}
        self._namespace = 0
        self._stage = STAGES[0]

    def entry(self, name: str):
        if name not in self._entries:
            module, _, attr = ENTRY_POINTS[name].partition(":")
            try:
                self._entries[name] = getattr(
                    importlib.import_module(module), attr)
            except (ImportError, AttributeError) as exc:
                raise EntryPointMoved(
                    f"{ENTRY_POINTS[name]}: {exc}") from None
        return self._entries[name]

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def begin_pass(self, index: int) -> None:
        self.recorder.pass_index = index
        self.counts = {}

    def run(self, name: str, sql: str, cold: bool) -> Optional[List[dict]]:
        """One query; returns its rows, or None when a stage could not
        be driven (the reason is kept in ``stopped``)."""
        self.recorder.query = name
        self._stage = STAGES[0]
        try:
            with self.recorder.span("query"):
                return self._run(name, sql, cold)
        except Exception as exc:  # a moved or changed entry point
            self.stopped.setdefault(
                self._stage, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self.recorder.query = ""

    # -- the layers ---------------------------------------------------------

    def _run(self, name: str, sql: str, cold: bool) -> Optional[List[dict]]:
        span = self.recorder.span
        ds = self.ds
        self._namespace += 1
        ns = f"e2e{self._namespace}"

        with span("sqlparser.parse"):
            ast = self.entry("parse_sql")(sql)
        with span("plan.plan"):
            plan = self.entry("plan_query")(ast, ds.catalog)
        if "translate" in self.stopped:
            return None

        self._stage = "translate"
        translate = self.entry("translate_plan")

        def optimized(context, namespace):
            optimizer = self.entry("StatsOptimizer")(
                ds, context, num_reducers=NUM_REDUCERS)
            return translate(plan, namespace=namespace,
                             num_reducers=NUM_REDUCERS, optimizer=optimizer)

        # run_query makes a fresh stats context per call, so every query
        # pays for its sketches again; so does this
        context = self.entry("StatsContext")()
        with span("core.translate"):
            translation = optimized(context, ns)
        decisions = len(context.log.decisions)
        with span("probe.translate_static"):
            translate(plan, namespace=ns + "s", num_reducers=NUM_REDUCERS)
        with span("probe.translate_warm"):
            optimized(context, ns + "w")
        probe_decisions = len(context.log.decisions) - decisions
        if cold:
            with span("probe.one_to_one"):
                naive = translate(plan, mode="one_to_one",
                                  namespace=ns + "n",
                                  num_reducers=NUM_REDUCERS)
            self.add("core.jobs_one_to_one", len(naive.jobs))
        jobs = topological(translation.jobs, translation.dependencies())
        self.add("core.jobs", len(jobs))
        self.add("stats.sketch_collections", context.catalog.collections)
        if "execute" in self.stopped:
            return None

        self._stage = "execute"
        memory = (self.entry("resolve_memory_budget")(self.memory_mb)
                  if self.memory_mb is not None else None)
        for job in jobs:
            with span("data.column_batch"):
                for dataset in job.input_datasets:
                    if ds.has_table(dataset):
                        ds.table(dataset).column_batch()
            with span("expr.codegen"):
                twin, generated = self.entry("specialize")(job)
            self.add("expr.codegen_fallbacks", generated.fallbacks)
            if cold:
                with span("probe.job_source"):
                    source = self.entry("job_source")(job)
                self.add("expr.codegen_source_bytes", len(source or ""))
            with span("mr.plan"):
                graph = self.entry("JobTaskGraph")(
                    twin if twin is not None else job, ds,
                    self.split_rows, stats=context, memory=memory,
                    codegen=False)
                tasks = graph.map_tasks
            with span("mr.map"):
                outputs = [task.run() for task in tasks]
            with span("mr.shuffle"):
                # under a memory budget this is where runs are sorted
                # and spilled; without one it is the identity
                outputs = [graph.absorb_map_output(task, output)
                           for task, output in zip(tasks, outputs)]
                reduce_tasks = graph.shuffle(outputs)
            with span("mr.reduce"):
                results = [task.run() for task in reduce_tasks]
            with span("mr.finalize"):
                self._count(graph.finalize(results))
        with span("workloads.collect"):
            table = ds.intermediate(translation.final_dataset)
            rows = [dict(row) for row in table.rows]
        self.add("stats.decisions",
                 len(context.log.decisions) - probe_decisions)
        return rows

    def _count(self, c: object) -> None:
        add = self.add
        add("mr.map_input_records", sum(c.input_records.values()))
        add("mr.map_output_records", c.map_output_records)
        add("mr.map_eval_ops", c.map_eval_ops)
        add("mr.shuffle_records", c.reduce_input_records)
        add("mr.shuffle_bytes", c.map_output_bytes)
        add("mr.reduce_max_task_records", c.reduce_max_task_records)
        add("mr.reduce_groups", c.reduce_groups)
        add("mr.reduce_dispatch_ops", c.reduce_dispatch_ops)
        add("mr.reduce_compute_ops", c.reduce_compute_ops)
        add("mr.output_records", sum(c.output_records.values()))
        add("mr.output_bytes", sum(c.output_bytes.values()))
        add("mr.spill_files", c.spill_files)
        add("mr.spilled_bytes", c.spilled_bytes)
        add("mr.merge_passes", c.merge_passes)
        self.counts["mr.max_reducer_input"] = max(
            self.counts.get("mr.max_reducer_input", 0),
            c.reduce_max_task_records)


def pass_totals(spans: Sequence[Span], pass_index: int) -> Dict[str, float]:
    """Summed self times by span name over one traced pass: time spent
    in a span nested inside another layer's span counts once, for the
    inner layer."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        if span.pass_index == pass_index:
            totals[span.name] = totals.get(span.name, 0.0) + own
    return totals
