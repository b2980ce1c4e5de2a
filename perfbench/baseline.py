"""Summarise runs into perfbench/baseline.json.

    python3 perfbench/baseline.py [--label TEXT]

Reads every ``perfbench/out/<workload>-seed<N>-trace<T>.json`` written by
run.py with the current sources, and writes, per workload and metric, the
median, quartiles (``statistics.quantiles(values, n=4)``), spread
(interquartile distance over median), run count and workload seeds, plus the
provenance of the runs.  Make the runs first, e.g. ten seeds per workload
with --trace 0 and a few with --trace 1.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics

from run import HERE, OUT_DIR, ROOT, source_digest


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "runs": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", default="", help="what the runs measured, e.g. a commit")
    args = ap.parse_args()
    digest = source_digest(os.path.join(ROOT, "src", "liespec"), HERE)
    runs = []
    for path in sorted(glob.glob(os.path.join(OUT_DIR, "*-seed*-trace*.json"))):
        with open(path, encoding="utf-8") as f:
            res = json.load(f)
        if res["provenance"]["source_sha256"] == digest:
            runs.append(res)
    if not runs:
        raise SystemExit("no runs of the current sources in perfbench/out")

    workloads = {}
    for res in runs:
        w = workloads.setdefault(res["workload"], {"end_to_end": {}, "per_layer": {},
                                                   "seeds": {"0": [], "1": []}})
        w["seeds"][str(res["trace"])].append(res["seed"])
        kind = "per_layer" if res["trace"] else "end_to_end"
        for name, value in res[kind].items():
            w[kind].setdefault(name, []).append(value)
    for w in workloads.values():
        for kind in ("end_to_end", "per_layer"):
            w[kind] = {k: summarise(v) for k, v in w[kind].items()}
    prov = {k: v for k, v in runs[0]["provenance"].items() if k != "workload_seed"}
    out = {"label": args.label, "seconds": runs[0]["seconds"],
           "all_correct": all(r["correct"] for r in runs),
           "provenance": prov, "workloads": workloads}
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    for name, w in workloads.items():
        for metric, s in w["end_to_end"].items():
            print(f"{name:12} {metric:22} median={s['median']:<12.6g} "
                  f"spread={s.get('spread', 0):.4f} runs={s['runs']}")


if __name__ == "__main__":
    main()
