"""liespec benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload su2-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # the three workloads in turn

Workloads (see perfbench/README.md for why each was chosen):
  su2-scan     scan(su2) at the documented defaults; the graph-diameter layer
  t3-scan      scan(t3) with the lattice method; the torus layer, no net
  su2xsu2-gap  closed loop of lambda1_certified on su2 x su2; rep_theory

Each set-up sample and the measured run itself is a fresh Python process
(worker.py), single-threaded BLAS, jobs=1.  With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run.  Lines before it give every
metric by name and unit, plus the run's provenance.  Full results and spans
go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracing import quantile_ms

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("su2-scan", "t3-scan", "su2xsu2-gap")

# Fresh processes whose set-up is timed; the last one goes on to the run.
SETUP_SAMPLES = 5
# ru_maxrss of fresh processes doing the same work was seen to spread over
# 2.03 MiB (202.47 to 204.50 on su2-scan), so peak memory must repeat to
# within this many MiB while the counts below must repeat exactly.
RSS_TOL_MIB = 4.0
EXACT_COUNTS = ("geometry.net_nodes", "geometry.knn_edges",
                "rep_theory.irreps_evaluated", "rep_theory.eig_work_d3",
                "egs_scan.check_violations")
# A workload's processes together must end within this many seconds.
WORKLOAD_BUDGET_S = 175
# Single-threaded BLAS for a closed loop with jobs=1; a fixed hash seed keeps
# peak memory from varying with set and dict layouts between processes.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END_UNITS = {
    "setup_s": "s", "throughput_ops_s": "1/s", "op_latency_p50_ms": "ms",
    "op_latency_p90_ms": "ms", "peak_rss_mb": "MiB", "ok_ops_frac": "frac",
    "check_ok_frac": "frac", "truth_hit_frac": "frac",
}
PER_LAYER_UNITS = {
    "liespec.import_s": "s", "liespec.startup_self_test_ms": "ms",
    "geometry.build_net_s": "s", "geometry.graph_diameter_first_ms": "ms",
    "geometry.graph_diameter_ms": "ms", "geometry.net_nodes": "count",
    "geometry.knn_edges": "count", "geometry.torus_diameter_ms": "ms",
    "rep_theory.lambda1_certified_ms": "ms",
    "rep_theory.lambda1_certified_p90_ms": "ms",
    "rep_theory.enumerate_irreps_ms": "ms", "rep_theory.assemble_ms": "ms",
    "rep_theory.eig_ms": "ms", "rep_theory.irreps_evaluated": "count",
    "rep_theory.eig_work_d3": "count", "metric_space.sample_metric_ms": "ms",
    "metric_space.metric_from_matrix_ms": "ms", "egs_scan.egs_ratio_ms": "ms",
    "egs_scan.scan_self_ms": "ms", "egs_scan.check_violations": "count",
    "bench.tracing_overhead_frac": "frac",
}


def source_digest(*dirs: str) -> str:
    """SHA-256 over the .py files of the given directories, in name order."""
    h = hashlib.sha256()
    for d in dirs:
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as f:
                    h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def spawn(args: argparse.Namespace, name: str, role: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role, "--out-dir", OUT_DIR]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env={**os.environ, **CHILD_ENV},
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{name}: {role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_repeats(key: str, counts: dict, rss: float, digest: str) -> list[str]:
    """Compare exact counts and peak memory with an earlier run of this key.

    An earlier run counts only if it ran the same liespec and benchmark
    sources.  The latest figures are stored for the next run.
    """
    path = os.path.join(OUT_DIR, "repeats.json")
    try:
        with open(path, encoding="utf-8") as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    problems = []
    old = seen.get(key)
    if old is not None and old["source"] == digest:
        for name, value in counts.items():
            if old["counts"].get(name) != value:
                problems.append(f"{name} was {old['counts'].get(name)}, now {value}")
        if abs(old["peak_rss_mib"] - rss) > RSS_TOL_MIB:
            problems.append(f"peak RSS was {old['peak_rss_mib']:.3f} MiB, now {rss:.3f}")
    seen[key] = {"source": digest, "counts": counts, "peak_rss_mib": rss}
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return problems


def run_workload(args: argparse.Namespace, name: str, digest: str) -> dict:
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    setups = [spawn(args, name, "setup", deadline)["setup"]
              for _ in range(SETUP_SAMPLES - 1)]
    main = spawn(args, name, "main", deadline)
    setups.append(main["setup"])

    problems = list(main["self_check"])
    for key in ("net_nodes", "knn_edges", "warmup_output"):
        if any(s[key] != setups[0][key] for s in setups):
            problems.append(f"set-up {key} differs between fresh processes")
    rss = [s["setup_peak_rss_mib"] for s in setups]
    if max(rss) - min(rss) > RSS_TOL_MIB:
        problems.append(f"set-up peak RSS spreads {min(rss):.3f}..{max(rss):.3f} MiB")

    med = lambda key: statistics.median(s[key] for s in setups)  # noqa: E731
    attempted = main["attempted"]
    failed = len(main["failures"])
    probes = main["probes"]
    misses = [p for p in probes if not p["hit"]]
    lat = main["latencies_s"]
    e2e = {
        "setup_s": med("setup_s"),
        "throughput_ops_s": main["ops"] / main["elapsed_s"],
        "op_latency_p50_ms": quantile_ms(lat, 50),
        "op_latency_p90_ms": quantile_ms(lat, 90),
        "peak_rss_mb": main["peak_rss_mib"],
        "ok_ops_frac": 1.0 - failed / attempted,
        "check_ok_frac": 1.0 - main["violating_ops"] / attempted,
        "truth_hit_frac": 1.0 - len(misses) / len(probes),
    }
    layers = None
    if args.trace:
        layers = {
            "liespec.import_s": med("import_s"),
            "liespec.startup_self_test_ms": med("startup_self_test_ms"),
            "geometry.build_net_s": med("build_net_s"),
            "geometry.graph_diameter_first_ms": med("graph_diameter_first_ms"),
            "geometry.net_nodes": setups[0]["net_nodes"],
            "geometry.knn_edges": setups[0]["knn_edges"],
            **main["layers"],
        }
        counts = {k: layers[k] for k in EXACT_COUNTS}
    else:
        counts = {"geometry.net_nodes": setups[0]["net_nodes"],
                  "geometry.knn_edges": setups[0]["knn_edges"]}
    problems += check_repeats(f"{name} seed={args.seed} trace={args.trace}",
                              counts, main["peak_rss_mib"], digest)
    return {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed, "failures": main["failures"][:20],
        "self_check_problems": problems, "end_to_end": e2e, "per_layer": layers,
        "ops_timed": main["ops"], "rounds": main["rounds"],
        "round_size": main["round_size"], "violating_ops": main["violating_ops"],
        "probes": probes, "setups": setups,
        "provenance": {"workload_seed": args.seed, "nproc": os.cpu_count(),
                       "cpu_model": cpu_model(), "platform": platform.platform(),
                       **main["versions"], "source_sha256": digest},
    }


def report(res: dict) -> None:
    """Human-readable lines: every metric by name and unit, then provenance."""
    p = res["provenance"]
    print(f"== {res['workload']}  seed={res['seed']}  seconds={res['seconds']:g}  "
          f"trace={res['trace']}")
    print(f"   nproc={p['nproc']}  cpu={p['cpu_model']!r}  python={p['python']}  "
          f"numpy={p['numpy']}  scipy={p['scipy']}  blas_threads={p['blas_threads']}")
    e = res["end_to_end"]
    n, att = res["ops_timed"], res["attempted"]
    notes = {
        "setup_s": f"median of {SETUP_SAMPLES} fresh set-ups",
        "throughput_ops_s": f"{n} ops in {res['rounds']} rounds of {res['round_size']}",
        "op_latency_p50_ms": f"n={n} ops",
        "op_latency_p90_ms": f"n={n} ops",
        "peak_rss_mb": "ru_maxrss of the measuring process",
    }
    for key, unit in END_TO_END_UNITS.items():
        print(f"   {key:<24} {e[key]:<14.6g} {unit:<6} {notes.get(key, '')}")
    misses = [q for q in res["probes"] if not q["hit"]]
    print(f"   {'failed_ops_frac':<24} {res['failed'] / att:<14.6g} {'frac':<6} "
          f"{res['failed']} of {att} ops raised, were uncertified or left the reference")
    print(f"   {'check_violation_frac':<24} {res['violating_ops'] / att:<14.6g} {'frac':<6} "
          f"{res['violating_ops']} of {att} ops violate a scan check flag (as the reference)")
    print(f"   {'truth_miss_frac':<24} {len(misses) / len(res['probes']):<14.6g} {'frac':<6} "
          f"{len(misses)} of {len(res['probes'])} probes miss")
    for q in misses:
        print(f"      miss: {q['probe']} truth={q['truth']:.6g} reported={q['reported']}")
    if res["per_layer"]:
        for key, unit in PER_LAYER_UNITS.items():
            print(f"   {key:<36} {res['per_layer'][key]:<14.6g} {unit}")
    for why in res["failures"][:5]:
        print(f"   FAILED {why}")
    for why in res["self_check_problems"]:
        print(f"   SELF-CHECK {why}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    pkg = os.path.join(ROOT, "src", "liespec")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        sys.exit(f"liespec sources not found at {pkg}; run from a liespec checkout")
    if args.seconds <= 0:
        sys.exit("--seconds must be positive")
    os.makedirs(OUT_DIR, exist_ok=True)
    digest = source_digest(pkg, HERE)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(args, name, digest)
        report(res)
        with open(os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as f:
            json.dump(res, f, indent=1)
        results.append(res)

    kind, units = (("per_layer", PER_LAYER_UNITS) if args.trace
                   else ("end_to_end", END_TO_END_UNITS))
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}." if prefix else "") + k: {"value": v, "unit": units[k]}
               for r in results for k, v in r[kind].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
