"""Write the reference outputs the benchmark checks every op against.

    python3 perfbench/make_reference.py [workload ...]

For each workload this computes, for every sample seed of its pool, lambda1,
the certified flag, the witness, the number of irreps evaluated and, on the
scan workloads, the diameter bracket and the scan check flags violated, and
writes them to ``perfbench/reference/<workload>.json``.  It fails if any
pool seed raises or is uncertified.  Rerun it only in a change whose purpose
is to alter liespec's outputs, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import liespec  # noqa: E402
from liespec import egs_scan  # noqa: E402

import workloads  # noqa: E402
from run import source_digest  # noqa: E402


def make(wl: workloads.Workload) -> dict:
    state = workloads.State(wl)
    state.build()
    ops = []
    for s in range(wl.pool):
        spec = liespec.sample_metric(state.entry, workloads.LO, workloads.HI, s)
        res = liespec.lambda1_certified(state.entry, spec)
        op = {"seed": s, "lambda1": res.lambda1, "certified": res.certified,
              "witness": res.witness, "evaluations": res.evaluations,
              "diam": None, "violations": []}
        if wl.scan:
            rec = egs_scan.egs_ratio(state.entry, spec, state.config, seed=s, net=state.net)
            op["diam"] = [rec.diam_lower, rec.diam_value, rec.diam_upper]
            op["violations"] = rec.violated()
        if not res.certified:
            raise SystemExit(f"{wl.name}: pool seed {s} is not certified")
        ops.append(op)
    return {"workload": wl.name, "group": wl.group, "lo": workloads.LO,
            "hi": workloads.HI, "liespec_version": liespec.__version__,
            "source_sha256": source_digest(os.path.join(ROOT, "src", "liespec")), "ops": ops}


def write_reference(path: str, ref: dict) -> None:
    """JSON with one op per line, so a change to the reference diffs per op."""
    head = json.dumps({k: v for k, v in ref.items() if k != "ops"})
    ops = ",\n".join(json.dumps(op) for op in ref["ops"])
    with open(path, "w", encoding="utf-8") as f:
        f.write(head[:-1] + ', "ops": [\n' + ops + "\n]}\n")


def main(names: list[str]) -> None:
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        ref = make(workloads.WORKLOADS[name])
        path = os.path.join(workloads.REFERENCE_DIR, name + ".json")
        write_reference(path, ref)
        print(f"{name}: {len(ref['ops'])} ops -> {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    main(sys.argv[1:])
