"""The traced arm of a run: per-layer metrics for one workload.

Order matters and is fixed: a cold layered pass first (nothing in the
process has compiled a kernel, built a column batch or collected a
sketch yet, so the cold costs are real), then untraced/traced pass
pairs for the steady split and its coverage, then one allocation-traced
query, then — for the service workload — the socket replay for the
cache and service counters.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from layers import (STAGES, WORK_SPANS, LayeredDriver, Span, pass_totals,
                    self_times)
from workloads import (TENANTS, Op, Service, Workload, between_passes,
                       run_pass, run_service, simulated)

#: the stage of the layered drive a metric (or its whole family) is
#: measured in; anything not listed does not depend on the drive
NEEDS = {"sqlparser": "frontend", "plan": "frontend",
         "core": "translate", "stats": "translate",
         "expr": "execute", "mr": "execute", "trace": "execute",
         "data.column_batch_build_s": "execute",
         "workloads.glue_s": "execute"}


def void_untraced(metrics: Dict[str, Optional[float]],
                  stopped: Mapping[str, str], reasons: Dict[str, str]
                  ) -> None:
    """Null every metric measured at or after the first stage the
    layered drive could not complete, keeping the reason."""
    broken = next((s for s in STAGES if s in stopped), None)
    if broken is None:
        return
    for name in metrics:
        needs = NEEDS.get(name) or NEEDS.get(name.split(".")[0])
        if needs and STAGES.index(needs) >= STAGES.index(broken):
            metrics[name] = None
            reasons[name] = (f"{broken} stage not traced: "
                             f"{stopped[broken]}")


@dataclass
class TracedResult:
    metrics: Dict[str, Optional[float]] = field(default_factory=dict)
    #: metric name → why it is null
    reasons: Dict[str, str] = field(default_factory=dict)
    #: every program answer to verify (untraced, layered, replayed)
    ops: List[Op] = field(default_factory=list)
    detail: Dict[str, object] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)


def _layered_pass(driver: LayeredDriver, w: Workload,
                  texts: Mapping[str, str], index: int, out: List[Op]
                  ) -> Tuple[float, Dict[str, float]]:
    driver.begin_pass(index)
    start = time.perf_counter()
    for name in w.stream:
        rows = driver.run(name, texts[name], cold=index == 0)
        if rows is not None:
            out.append(Op(name, index, 0.0, rows))
    wall = time.perf_counter() - start
    between_passes(driver.ds)
    return wall, dict(driver.counts)


def _runtime_profile(ops: Sequence[Op]) -> Dict[str, float]:
    """Scheduler metrics of one untraced pass, from ``RuntimeTrace``."""
    traces = [op.result.trace for op in ops if op.result is not None]
    makespan = sum(t.makespan_s for t in traces)
    busy = sum(t.busy_s for t in traces)
    slots = sum(t.makespan_s * t.workers for t in traces)
    return {"runtime.makespan_s": makespan, "runtime.busy_s": busy,
            "runtime.utilization": busy / slots if slots else 0.0,
            "runtime.critical_path_s": sum(t.critical_path()[0]
                                           for t in traces)}


def traced_run(w: Workload, ds, texts: Mapping[str, str], seconds: float,
               seed: int, generate_s: float, data_scale: float
               ) -> TracedResult:
    from repro import run_query
    out = TracedResult()
    metrics = out.metrics
    driver = LayeredDriver(ds, w.run_kwargs)

    metrics["data.generate_s"] = generate_s
    metrics["data.base_rows"] = sum(len(ds.table(t))
                                    for t in ds.table_names())
    metrics["data.base_bytes"] = sum(ds.sizes().values())

    _, cold_counts = _layered_pass(driver, w, texts, 0, out.ops)
    cold = pass_totals(driver.recorder.spans, 0)

    begin = time.perf_counter()
    untraced_walls: List[float] = []
    traced_walls: List[float] = []
    profiles: List[Dict[str, float]] = []
    counts: Dict[str, float] = {}
    last_untraced: List[Op] = []
    index = 0
    while index < 1 or time.perf_counter() - begin < seconds / 2:
        index += 1
        last_untraced = run_pass(w, ds, texts, index, begin,
                                 keep_trace=True)
        untraced_walls.append(sum(op.wall_s for op in last_untraced))
        profiles.append(_runtime_profile(last_untraced))
        out.ops.extend(last_untraced)
        between_passes(ds)
        wall, counts = _layered_pass(driver, w, texts, index, out.ops)
        traced_walls.append(wall)
    steady = [pass_totals(driver.recorder.spans, p)
              for p in range(1, index + 1)]
    out.spans = driver.recorder.spans

    def median_of(name: str) -> float:
        return statistics.median(t.get(name, 0.0) for t in steady)

    untraced = statistics.median(untraced_walls)
    work = statistics.median(sum(t.get(name, 0.0) for name in WORK_SPANS)
                             for t in steady)
    static = median_of("probe.translate_static")
    metrics.update({
        "sqlparser.parse_s": median_of("sqlparser.parse"),
        "plan.plan_s": median_of("plan.plan"),
        "core.translate_static_s": static,
        "core.jobs": counts.get("core.jobs"),
        "core.jobs_one_to_one": cold_counts.get("core.jobs_one_to_one"),
        "stats.optimize_s": median_of("core.translate") - static,
        "stats.optimize_warm_s": median_of("probe.translate_warm") - static,
        "stats.sketch_collections": counts.get("stats.sketch_collections"),
        "stats.decisions": counts.get("stats.decisions"),
        "expr.codegen_cold_s": cold.get("expr.codegen"),
        "expr.codegen_warm_s": median_of("expr.codegen"),
        "expr.codegen_source_bytes":
            cold_counts.get("expr.codegen_source_bytes"),
        "expr.codegen_fallbacks": counts.get("expr.codegen_fallbacks"),
        "data.column_batch_build_s": cold.get("data.column_batch"),
        "trace.coverage": work / untraced,
        "trace.overhead_ratio": statistics.median(traced_walls) / untraced,
        "workloads.glue_s": untraced - work,
    })
    for phase in ("plan", "map", "shuffle", "reduce", "finalize"):
        metrics[f"mr.{phase}_s"] = median_of(f"mr.{phase}")
    for name in ("map_input_records", "map_output_records", "map_eval_ops",
                 "shuffle_records", "shuffle_bytes", "max_reducer_input",
                 "reduce_groups", "reduce_dispatch_ops",
                 "reduce_compute_ops", "output_records", "output_bytes",
                 "spill_files", "spilled_bytes", "merge_passes"):
        metrics[f"mr.{name}"] = counts.get(f"mr.{name}")
    scanned = counts.get("mr.map_input_records")
    moved = counts.get("mr.shuffle_records")
    if scanned and moved is not None:
        metrics["mr.map_rows_per_s"] = scanned / metrics["mr.map_s"]
        metrics["mr.replication_rate"] = moved / scanned
        metrics["mr.reduce_max_task_share"] = (
            counts["mr.reduce_max_task_records"] / moved if moved else 0.0)
        metrics["mr.reduce_records_per_s"] = moved / metrics["mr.reduce_s"]

    void_untraced(metrics, driver.stopped, out.reasons)

    for key in profiles[0]:
        metrics[key] = statistics.median(p[key] for p in profiles)
    sim = simulated(ds, [op.result.runs for op in last_untraced
                         if op.result is not None], data_scale)
    metrics.update({"hadoop.sim_map_s": sim["map"],
                    "hadoop.sim_reduce_s": sim["reduce"],
                    "hadoop.sim_jobs": sim["jobs"]})

    # allocation-traced run of the stream's first query (tracemalloc
    # slows the engine several-fold: one query, not a pass)
    result = run_query(texts[w.stream[0]], ds,
                       **{**w.run_kwargs, "track_memory": True})
    metrics["mr.peak_traced_mb"] = max(
        run.counters.peak_mem_bytes for run in result.runs) / 2 ** 20
    between_passes(ds)

    metrics.update(_replay_metrics(w, ds, texts, seed, out))
    out.detail.update({
        "traced_passes": index, "allocation_traced_query": w.stream[0],
        "untraced_pass_wall_s": untraced_walls,
        "traced_pass_wall_s": traced_walls,
        "per_query_span_s": _per_query(out.spans),
        "stopped": dict(driver.stopped),
    })
    return out


def _per_query(spans: Sequence[Span]) -> Dict[str, dict]:
    """Median self time of every span name per query over steady passes."""
    sums: Dict[Tuple[str, str, int], float] = {}
    for span, own in zip(spans, self_times(spans)):
        if span.pass_index > 0:
            key = (span.query, span.name, span.pass_index)
            sums[key] = sums.get(key, 0.0) + own
    table: Dict[str, Dict[str, List[float]]] = {}
    for (query, name, _), total in sums.items():
        table.setdefault(query, {}).setdefault(name, []).append(total)
    return {query: {name: statistics.median(values)
                    for name, values in names.items()}
            for query, names in table.items()}


def _replay_metrics(w: Workload, ds, texts: Mapping[str, str], seed: int,
                    out: TracedResult) -> Dict[str, float]:
    """Cache and service counters from the socket replay; every one of
    them reads 0 on a batch workload, which attaches no cache."""
    names = ("reuse.hits", "reuse.misses", "reuse.hit_ratio",
             "reuse.cross_tenant_hits", "reuse.evictions",
             "reuse.bytes_saved", "reuse.cache_bytes", "reuse.warm_query_s",
             "service.wire_s", "service.execute_s", "service.response_bytes",
             "service.tasks_dispatched.t0", "service.tasks_dispatched.t1",
             "service.share_ratio")
    metrics: Dict[str, float] = dict.fromkeys(names, 0)
    if not w.is_service:
        return metrics
    service = Service(ds)
    try:
        ops, steady_wall = run_service(w, ds, service, texts, seed)
        stats = service.stats()
    finally:
        service.close()
    out.ops.extend(ops)
    answered = [op for op in ops if op.server is not None]
    if not answered:
        return metrics
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    warm = [op.server["wall_s"] for op in answered
            if op.server["cache_hits"] == op.server["jobs"]]
    dispatched = [stats["tenants"][tenant]["tasks_dispatched"]
                  for tenant, weight in TENANTS]
    weights = TENANTS[0][1] / TENANTS[1][1]
    metrics.update({
        "reuse.hits": cache["hits"], "reuse.misses": cache["misses"],
        "reuse.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "reuse.cross_tenant_hits": cache["cross_tenant_hits"],
        "reuse.evictions": cache["evictions"],
        "reuse.bytes_saved": cache["bytes_saved"],
        "reuse.cache_bytes": stats["cache_bytes"],
        "reuse.warm_query_s": statistics.median(warm) if warm else 0.0,
        "service.wire_s": statistics.fmean(
            op.wall_s - op.server["wall_s"] for op in answered),
        "service.execute_s": statistics.fmean(
            op.server["wall_s"] for op in answered),
        "service.response_bytes": sum(
            len(json.dumps({**op.server, "rows": op.rows}))
            for op in answered),
        "service.tasks_dispatched.t0": dispatched[0],
        "service.tasks_dispatched.t1": dispatched[1],
        "service.share_ratio": (dispatched[0] / dispatched[1] / weights
                                if dispatched[1] else 0.0),
    })
    out.detail["replay_steady_wall_s"] = steady_wall
    return metrics
