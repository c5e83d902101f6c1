"""The five workloads and the end-to-end arm that drives them.

Everything here reaches the program only through names exported from
``repro.__all__`` / ``repro.service.__all__`` (and methods of the
objects those return), with tracing off and the default configuration.
"""

from __future__ import annotations

import dataclasses
import gc
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from measure import percentile, summarize

PAPER_STREAM = ("q17", "q18", "q21", "q_csa", "q3", "q10")
SERVICE_STREAM = ("q17", "q18", "q21", "q21_subtree", "q_csa", "q_agg",
                  "q3", "q10")
#: tenant name → fair-share weight (the 2 : 1 split ``share_ratio`` is
#: held against)
TENANTS = (("t0", 2.0), ("t1", 1.0))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tpch_scale: float
    users: int
    stream: Tuple[str, ...]
    #: extra ``run_query`` keyword arguments (batch workloads)
    run_kwargs: Mapping[str, object] = field(default_factory=dict)
    #: steady passes never drop below this, whatever ``--seconds`` says
    min_passes: int = 5
    #: data-set generations timed for ``setup_s`` (the median counts)
    setup_reps: int = 2
    #: service replay only: rounds of the stream per tenant (round 0 is
    #: the cold first pass), and the table extended at the barrier
    #: *before* a given round
    rounds: int = 0
    mutations: Mapping[int, str] = field(default_factory=dict)

    @property
    def is_service(self) -> bool:
        return self.rounds > 0

    @property
    def data_key(self) -> str:
        return f"tpch{self.tpch_scale:g}-users{self.users}"

    @property
    def epochs(self) -> int:
        return 1 + len(self.mutations)

    def mutation_steps(self) -> List[Tuple[int, str, int]]:
        """(round, table, how many times the table was extended before)
        in replay order."""
        steps: List[Tuple[int, str, int]] = []
        for rnd in sorted(self.mutations):
            table = self.mutations[rnd]
            steps.append((rnd, table,
                          sum(earlier == table for _, earlier, _ in steps)))
        return steps


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "dss_serial",
        "paper queries on the default serial path; reduce dispatch "
        "dominates (55-73 %), map ~12 %, frontend+stats 7-18 %",
        0.01, 2000, PAPER_STREAM),
    Workload(
        "dss_parallel",
        "same stream with parallelism=2 and auto splits: scheduler and "
        "executor on the blocking path, the only place multi-core shows",
        0.01, 2000, PAPER_STREAM,
        run_kwargs={"parallelism": 2, "split_rows": "auto",
                    "keep_trace": True}),
    Workload(
        "dss_spill",
        "2 MB memory budget: sorted runs on disk, k-way merge, disk "
        "intermediates - the same shuffle/reduce layer used differently",
        0.01, 2000, ("q18", "q21", "q10"),
        run_kwargs={"memory_budget_mb": 2}),
    Workload(
        "scan_agg",
        "scan-filter-aggregate over 180k/300k rows: map scan, combiner, "
        "codegen and the per-call stats sketch; bypasses reduce (<5 %)",
        0.03, 8000, ("q_agg", "q1", "q6", "q_cdist"),
        min_passes=10, setup_reps=1),
    Workload(
        "service_replay",
        "2 closed-loop tenants over the socket, three table mutations: "
        "~90 % warm cache/wire path (p50), ~10 % contended cold path (p95)",
        0.01, 2000, SERVICE_STREAM,
        rounds=13, mutations={4: "lineitem", 7: "clicks", 10: "lineitem"}),
)}


def quick(w: Workload) -> Workload:
    """The smoke-sized twin of a workload (``--quick``): same code path,
    data too small to mean anything."""
    changes = dict(tpch_scale=0.002, users=200, min_passes=2, setup_reps=1)
    if w.is_service:
        changes.update(rounds=4, mutations={2: "lineitem", 3: "clicks"})
    return dataclasses.replace(w, **changes)


@dataclass
class Op:
    """One query sent to the program and what came back."""

    query: str
    #: pass number (batch) or round number (service); 0 is the first pass
    index: int
    wall_s: float
    rows: Optional[List[dict]]
    error: Optional[str] = None
    tenant: int = 0
    #: mutation epoch the data was in when the query ran
    epoch: int = 0
    #: seconds since the measurement started when the answer arrived
    end_s: float = 0.0
    #: batch: the ``QueryRunResult``; service: the response without rows
    result: Optional[object] = None
    server: Optional[dict] = None


# -- inputs -----------------------------------------------------------------

def build(w: Workload, seed: int):
    from repro import build_datastore
    return build_datastore(tpch_scale=w.tpch_scale,
                           clickstream_users=w.users, seed=seed)


def mutate(ds, seed: int, table_name: str, nth: int) -> int:
    """Extend ``table_name`` by a seeded systematic 1 % sample of its own
    rows, shifted so they stay distinct from every row already there (a
    line number no order uses, a click some ticks later); ``nth`` counts
    the earlier extensions of the same table.  Returns the rows added."""
    table = ds.resolve(table_name)
    count = max(1, len(table) // 100)
    step = len(table) // count
    column, shift = (("l_linenumber", 7) if table_name == "lineitem"
                     else ("ts", 1))
    fresh = []
    for i in range(seed % step, len(table), step)[:count]:
        row = dict(table.rows[i])
        row[column] += shift * (nth + 1)
        fresh.append(row)
    table.extend(fresh)
    return len(fresh)


# -- batch workloads --------------------------------------------------------

def run_pass(w: Workload, ds, texts: Mapping[str, str], index: int,
             begin: float, **extra) -> List[Op]:
    """One pass over the stream, each query a fresh ``run_query``."""
    from repro import run_query
    kwargs = {**w.run_kwargs, **extra}
    ops = []
    for name in w.stream:
        rows = result = error = None
        start = time.perf_counter()
        try:
            result = run_query(texts[name], ds, **kwargs)
            rows = result.rows
        except Exception:
            error = traceback.format_exc(limit=4)
        end = time.perf_counter()
        ops.append(Op(name, index, end - start, rows, error,
                      end_s=end - begin, result=result))
    return ops


def between_passes(ds) -> None:
    """Outside every timed region: free what the last pass left so the
    number of passes does not show in memory or GC pauses."""
    ds.drop_intermediates()
    gc.collect()


def run_batch(w: Workload, ds, texts: Mapping[str, str],
              seconds: float) -> Tuple[List[Op], float]:
    """The first pass, then steady passes for ``seconds``; returns the
    ops and the wall of the steady passes (hygiene between them is not
    on the clock)."""
    begin = time.perf_counter()
    ops = run_pass(w, ds, texts, 0, begin)
    between_passes(ds)
    steady_begin = time.perf_counter()
    steady_wall = 0.0
    index = 0
    while (index < w.min_passes
           or time.perf_counter() - steady_begin < seconds):
        index += 1
        start = time.perf_counter()
        done = run_pass(w, ds, texts, index, begin)
        steady_wall += time.perf_counter() - start
        for op in done:
            # the first pass's job counters serve the simulated metrics
            op.result = None
        ops.extend(done)
        between_passes(ds)
    return ops, steady_wall


# -- service replay ---------------------------------------------------------

class Service:
    """The in-process daemon and its two tenant connections."""

    def __init__(self, ds):
        from repro.service import QueryService, ServiceClient, ServiceDaemon
        self.core = QueryService(ds, workers=2, cache_mb=64)
        self.daemon = ServiceDaemon(self.core, port=0).start()
        self.clients = []
        for tenant, weight in TENANTS:
            client = ServiceClient(port=self.daemon.port)
            client.hello(tenant, weight=weight)
            self.clients.append(client)

    def stats(self) -> dict:
        return self.clients[0].stats()["service"]

    def job_runs(self) -> List[list]:
        """Every answered query's job runs, from the tenants' sessions."""
        return [run.result.runs
                for tenant, weight in TENANTS
                for run in self.core.open_session(
                    tenant, weight=weight).session.runs]

    def close(self) -> None:
        for client in self.clients:
            client.close()
        time.sleep(0.05)  # let the connection handlers see EOF first
        self.daemon.stop()
        self.daemon.join(10)
        self.core.close()


def run_service(w: Workload, ds, service: Service,
                texts: Mapping[str, str], seed: int
                ) -> Tuple[List[Op], float]:
    """The closed-loop replay: each tenant thread sends its next query
    when the last one answered.  Round 0 is the cold first pass, sent by
    tenant 0 alone; the steady clock starts at the barrier after it.
    Both tenants also meet at a barrier around each mutation, so no
    query is in flight while a table grows.  Returns the ops and the
    wall of the steady rounds."""
    barrier = threading.Barrier(len(TENANTS))
    per_tenant: List[List[Op]] = [[] for _ in TENANTS]
    steady_begin = [0.0 for _ in TENANTS]
    failures: List[str] = []
    steps = {rnd: (table, nth) for rnd, table, nth in w.mutation_steps()}
    half = len(w.stream) // 2
    begin = time.perf_counter()

    def tenant_loop(tenant: int) -> None:
        client = service.clients[tenant]
        shift = (half * tenant) % len(w.stream)
        order = w.stream[shift:] + w.stream[:shift]
        epoch = 0
        for rnd in range(w.rounds):
            if rnd == 0 and tenant > 0:
                continue  # the cold first pass is one client's, as in batch
            if rnd == 1:
                barrier.wait(300)
                steady_begin[tenant] = time.perf_counter()
            if rnd in steps:
                if barrier.wait(300) == 0:
                    mutate(ds, seed, *steps[rnd])
                barrier.wait(300)
                epoch += 1
            for name in order:
                rows = error = server = None
                start = time.perf_counter()
                try:
                    response = client.query(texts[name], name=name)
                    rows = response.pop("rows")
                    server = response
                except Exception:
                    error = traceback.format_exc(limit=4)
                end = time.perf_counter()
                per_tenant[tenant].append(Op(
                    name, rnd, end - start, rows, error, tenant=tenant,
                    epoch=epoch, end_s=end - begin, server=server))

    def guarded(tenant: int) -> None:
        try:
            tenant_loop(tenant)
        except Exception:  # a broken barrier or a bug: fail the run
            failures.append(traceback.format_exc())
            barrier.abort()

    threads = [threading.Thread(target=guarded, args=(i,))
               for i in range(len(TENANTS))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    if failures:
        raise RuntimeError("service replay aborted:\n" + failures[0])
    return [op for ops in per_tenant for op in ops], end - min(steady_begin)


# -- end-to-end metrics -----------------------------------------------------

def simulated(ds, runs_per_query: Sequence[list], data_scale: float
              ) -> Dict[str, float]:
    """The two deterministic end-to-end guards, from job counters alone:
    simulated seconds on the paper's small cluster with the data
    projected to 10 GB (cache hits priced as if they had run, so the
    number is the demand of the stream, not of one thread race), and
    map-output bytes per base-table input byte."""
    from repro import HadoopCostModel, small_cluster
    model = HadoopCostModel(small_cluster(data_scale=data_scale))
    sim = {"total": 0.0, "map": 0.0, "reduce": 0.0, "jobs": 0}
    shuffled = scanned = 0
    for runs in runs_per_query:
        runs = [dataclasses.replace(run, cached=False) for run in runs]
        timing = model.query_timing(runs)
        sim["total"] += timing.total_s
        sim["map"] += timing.total_map_s
        sim["reduce"] += timing.total_reduce_s
        sim["jobs"] += len(runs)
        for run in runs:
            shuffled += run.counters.map_output_bytes
            scanned += sum(nbytes for name, nbytes
                           in run.counters.input_bytes.items()
                           if ds.has_table(name))
    sim["shuffle_ratio"] = shuffled / scanned if scanned else 0.0
    return sim


def end_to_end(ops: Sequence[Op], steady_wall_s: float
               ) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Timing metrics from the op log (after verification marked wrong
    answers as errors), plus the sample blocks behind them.  Pass or
    round 0 is the cold first pass; everything after it is steady."""
    first = [op for op in ops if op.index == 0]
    steady = [op for op in ops if op.index > 0]
    latencies = [op.wall_s for op in steady]
    per_query: Dict[str, List[float]] = {}
    for op in steady:
        per_query.setdefault(op.query, []).append(op.wall_s)
    metrics = {
        "first_pass_s": max(op.end_s for op in first),
        "queries_per_s": (sum(op.error is None for op in steady)
                          / steady_wall_s),
        "latency_p50_s": percentile(latencies, 50),
        "latency_p95_s": percentile(latencies, 95),
    }
    samples = {
        "latency_s": summarize(latencies),
        "query_wall_s": {name: summarize(v)
                         for name, v in per_query.items()},
    }
    return metrics, samples
