"""One benchmark process: set up a workload and, as the main process, run it.

    python3 perfbench/worker.py --workload W --seed N --seconds T --trace 0|1
                                --role setup|main --out-dir DIR

``run.py`` starts this in a fresh interpreter for every set-up sample and
for the measured run, and reads the JSON object on the last line of its
standard output.  Set-up is timed from the first liespec import to the end of
one warm-up op, so nothing the benchmark imports itself may pull in numpy
before that point.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, when it has one."""
    import ctypes
    import glob
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            return int(fn())
    return None


def set_up(workload: str) -> tuple[dict, object]:
    """Import, self-test, build shared state, one warm-up op; all timed."""
    t0 = time.perf_counter()
    import liespec
    t_import = time.perf_counter() - t0
    t = time.perf_counter()
    liespec.startup_self_test()
    t_self_test = time.perf_counter() - t

    import tracing
    import workloads
    wl = workloads.WORKLOADS[workload]
    state = workloads.State(wl)
    build_net_s = state.build()
    tracer = tracing.Tracer()
    warm = workloads.run_round(state, [0], tracer)
    setup_s = time.perf_counter() - t0

    first_diam = tracer.durations("geometry.graph_diameter")
    net = state.net
    record = {
        "setup_s": setup_s, "import_s": t_import,
        "startup_self_test_ms": 1000.0 * t_self_test,
        "build_net_s": build_net_s,
        "graph_diameter_first_ms": 1000.0 * first_diam[0] if first_diam else 0.0,
        "net_nodes": net.n_nodes if net is not None else 0,
        "knn_edges": int(net.rows.size) if net is not None else 0,
        "warmup_output": warm.outputs[0],
        "setup_peak_rss_mib": peak_rss_mib(),
    }
    return record, state


def run_timed(state, ref, seed: int, seconds: float) -> dict:
    import workloads
    it = workloads.rounds(state.wl, ref, seed)
    done = []
    t0 = time.perf_counter()
    while not done or time.perf_counter() - t0 < seconds:
        done.append(workloads.run_round(state, next(it)))
    return {"rounds": done}


def run_traced(state, ref, seed: int, seconds: float, out_dir: str, tag: str) -> dict:
    """Pairs of rounds over the same seeds, one untraced and one traced.

    The order inside a pair alternates.  Both halves must give identical
    outputs; their time ratio is the tracing overhead.  The first traced
    round is the count round: exact counts and the gap stage split come from
    it.
    """
    import tracing
    import workloads
    it = workloads.rounds(state.wl, ref, seed)
    tracer = tracing.Tracer()
    untraced, traced, mismatches = [], [], []
    count_end = None
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        seeds = next(it)
        if len(traced) % 2 == 0:
            u = workloads.run_round(state, seeds)
            t = workloads.run_round(state, seeds, tracer)
        else:
            t = workloads.run_round(state, seeds, tracer)
            u = workloads.run_round(state, seeds)
        if count_end is None:
            count_end = len(tracer.spans)
        untraced.append(u)
        traced.append(t)
        if u.outputs != t.outputs:
            mismatches.append(f"traced round over seeds {seeds} differs from untraced")

    count_spans = tracer.spans[:count_end]
    replay = tracing.Tracer()
    eig_work, replay_bad = 0, []
    if state.entry.kind != "torus":
        eig_work, replay_bad = workloads.replay_gaps(state, count_spans, replay)
    tracer.write(os.path.join(out_dir, tag + ".spans.jsonl"))
    replay.write(os.path.join(out_dir, tag + ".replay.spans.jsonl"))
    return {"rounds": untraced + traced, "untraced": untraced, "traced": traced,
            "tracer": tracer, "count_spans": count_spans, "replay": replay,
            "eig_work_d3": eig_work, "self_check": mismatches + replay_bad}


def layer_metrics(run: dict) -> dict:
    """Per-layer figures of a traced run, from its spans.

    Times are medians over calls (over ops for the replayed gap stages); a
    layer that never ran on the workload reads 0.
    """
    from tracing import quantile_ms
    tr, replay = run["tracer"], run["replay"]

    def p50(name):
        return quantile_ms(tr.durations(name), 50)

    lam = tr.durations("rep_theory.lambda1_certified")
    results = [s[5] for s in run["count_spans"] if s[0] == "rep_theory.lambda1_certified"]
    samples = len(tr.durations("egs_scan.egs_ratio"))
    own = tr.self_time_by_name()
    scan_self = own.get("egs_scan.scan", 0.0) + own.get("egs_scan.egs_ratio", 0.0)
    return {
        "geometry.graph_diameter_ms": p50("geometry.graph_diameter"),
        "geometry.torus_diameter_ms": p50("geometry.torus_diameter"),
        "rep_theory.lambda1_certified_ms": quantile_ms(lam, 50),
        "rep_theory.lambda1_certified_p90_ms": quantile_ms(lam, 90),
        "rep_theory.enumerate_irreps_ms": quantile_ms(
            replay.per_op_totals("rep_theory.enumerate_irreps"), 50),
        "rep_theory.assemble_ms": quantile_ms(
            replay.per_op_totals("rep_theory.assemble_minus_CA"), 50),
        "rep_theory.eig_ms": quantile_ms(
            replay.per_op_totals("rep_theory.lambda_min_hermitian"), 50),
        "rep_theory.irreps_evaluated": sum(r.evaluations for r in results),
        "rep_theory.eig_work_d3": run["eig_work_d3"],
        "metric_space.sample_metric_ms": p50("metric_space.sample_metric"),
        "metric_space.metric_from_matrix_ms": p50("metric_space.metric_from_matrix"),
        "egs_scan.egs_ratio_ms": p50("egs_scan.egs_ratio"),
        "egs_scan.scan_self_ms": 1000.0 * scan_self / samples if samples else 0.0,
        "egs_scan.check_violations": sum(
            len(o.get("violations", [])) for o in run["traced"][0].outputs),
        "bench.tracing_overhead_frac": (sum(r.elapsed for r in run["traced"])
                                        / sum(r.elapsed for r in run["untraced"]) - 1.0),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "main"), required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    setup, state = set_up(args.workload)
    if args.role == "setup":
        print(json.dumps({"setup": setup}))
        return

    import numpy
    import scipy
    import workloads
    ref = workloads.load_reference(state.wl)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        run = run_traced(state, ref, args.seed, args.seconds, args.out_dir, tag)
    else:
        run = run_timed(state, ref, args.seed, args.seconds)

    outputs = [setup["warmup_output"]] + [o for r in run["rounds"] for o in r.outputs]
    failures = []
    for o in outputs:
        why = workloads.check_output(ref, o)
        if why is not None:
            failures.append(f"seed {o['seed']}: {why}")
    timed = run.get("untraced", run["rounds"])
    result = {
        "setup": setup,
        "ops": sum(len(r.seeds) for r in timed),
        "elapsed_s": sum(r.elapsed for r in timed),
        "latencies_s": [x for r in timed for x in r.latencies],
        "rounds": len(timed),
        "round_size": state.wl.round_size,
        "attempted": len(outputs),
        "failures": failures,
        "violating_ops": sum(1 for o in outputs if o.get("violations")),
        "probes": workloads.truth_probes(state),
        "self_check": run.get("self_check", []),
        "peak_rss_mib": peak_rss_mib(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "blas_threads": blas_threads()},
    }
    if args.trace:
        result["layers"] = layer_metrics(run)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
