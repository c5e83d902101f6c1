"""One workload, measured in this fresh interpreter.

Started by ``run.py`` with a scrubbed environment; prints one JSON
document on the last line of standard output.  Not meant to be run by
hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--expected", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--regenerate-expected", action="store_true")
    args = parser.parse_args()

    import repro  # the whole engine: what start-up really costs
    import check
    import queries
    import workloads
    from repro import data_scale_for
    startup_s = time.time() - args.spawned_at

    texts = queries.sql_texts()
    if args.regenerate_expected:
        full = list(workloads.WORKLOADS.values())
        check.regenerate(args.expected,
                         full + [workloads.quick(w) for w in full], texts)
        print(json.dumps({"regenerated": args.expected}))
        return 0

    w = workloads.WORKLOADS[args.workload]
    if args.quick:
        w = workloads.quick(w)

    # set-up: the data is generated setup_reps times and the median
    # generation counts, each copy dropped before the next is built
    generate_s = []
    for _ in range(w.setup_reps):
        ds = None  # drop the last copy first
        start = time.perf_counter()
        ds = workloads.build(w, args.seed)
        generate_s.append(time.perf_counter() - start)
    service = None
    connect_s = 0.0
    if w.is_service and not args.trace:
        start = time.perf_counter()
        service = workloads.Service(ds)
        connect_s = time.perf_counter() - start
    setup_s = startup_s + statistics.median(generate_s) + connect_s
    data_scale = data_scale_for(ds, ds.table_names(), 10.0)
    sizes = {name: len(ds.table(name)) for name in ds.table_names()}

    doc = {"workload": w.name, "seed": args.seed, "trace": args.trace,
           "sizes": {"data": w.data_key, "rows": sizes,
                     "stream": list(w.stream), "run_kwargs": w.run_kwargs,
                     "setup_reps": w.setup_reps, "rounds": w.rounds,
                     "mutations": {str(k): v
                                   for k, v in w.mutations.items()}},
           "reasons": {}, "samples": {}, "detail": {}}
    traced = None
    if args.trace:
        import layers
        import tracedrun
        traced = tracedrun.traced_run(w, ds, texts, args.seconds, args.seed,
                                      statistics.median(generate_s),
                                      data_scale)
        ops = traced.ops
        if args.trace_file:
            layers.write_chrome_trace(traced.spans, args.trace_file)
            doc["detail"]["trace_file"] = args.trace_file
    elif service is not None:
        try:
            ops, steady_wall_s = workloads.run_service(w, ds, service,
                                                       texts, args.seed)
            job_runs = service.job_runs()
        finally:
            service.close()
    else:
        ops, steady_wall_s = workloads.run_batch(w, ds, texts, args.seconds)
        job_runs = [op.result.runs for op in ops if op.result is not None]
    # memory is read here: the reference executor below is not the program
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    epochs = check.load_expected(args.expected, w, args.seed)
    doc["detail"]["oracle"] = ("expected file" if epochs is not None
                               else "live reference run")
    if epochs is None:
        epochs = check.reference_epochs(w, args.seed, texts, ds)
    wrong = check.verify(ops, epochs)
    failed = [op for op in ops if op.error is not None]
    doc.update(attempted=len(ops), failed=len(failed), wrong_answers=wrong)
    doc["detail"]["failures"] = [
        {"query": op.query, "index": op.index, "tenant": op.tenant,
         "error": op.error} for op in failed[:10]]

    if traced is not None:
        doc["metrics"] = traced.metrics
        doc["reasons"] = traced.reasons
        doc["detail"].update(traced.detail)
    else:
        metrics, samples = workloads.end_to_end(ops, steady_wall_s)
        sim = workloads.simulated(ds, job_runs, data_scale)
        metrics.update(
            setup_s=setup_s, peak_rss_mb=peak_rss_mb,
            error_rate=len(failed) / len(ops),
            sim_cluster_s=sim["total"],
            shuffle_bytes_per_input_byte=sim["shuffle_ratio"])
        doc["metrics"] = metrics
        doc["samples"] = samples
        doc["detail"].update(
            setup={"startup_s": startup_s, "generate_s": generate_s,
                   "connect_s": connect_s},
            passes=max(op.index for op in ops),
            steady_wall_s=steady_wall_s,
            sim_jobs=sim["jobs"], data_scale=data_scale)
    print(json.dumps(doc, default=dict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
