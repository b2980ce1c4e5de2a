"""The three benchmark workloads: inputs, rounds, op checks and truth probes.

Every op draws its metric with ``sample_metric(entry, 0.2, 5.0, s)`` for a
sample seed ``s`` from a fixed pool, and ``reference/<workload>.json`` holds
the outputs for every pool seed as computed when the benchmark was defined.
The workload seed decides which pool seeds a run uses and in what order, so
every op a run makes can be checked against the reference.

Work is done in rounds: one ``scan()`` call over ``round_size`` consecutive
sample seeds on the scan workloads, and one pass over ``round_size``
certified gaps on ``su2xsu2-gap``.  A run repeats whole rounds until its time
is up.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

import liespec
from liespec import egs_scan, metric_space, rep_theory

LO, HI = 0.2, 5.0
# An op matches the reference when lambda1 and each of the three diameter
# figures agree to this relative tolerance, and the witness label, the
# certified flag and the list of violated scan check flags agree exactly.
REF_RTOL = 1e-9
# Truth probes: bi-invariant homotheties A = c*I, checked to this relative
# tolerance against their closed forms.
PROBE_SCALES = (0.5, 1.0, 2.0)
TRUTH_RTOL = 1e-9
# su2xsu2-gap: the GAP_CENSUS pool seeds with the most irreps evaluated run in
# every round; the others are paired by irreps evaluated and each round takes
# one seed of each pair.  Per-call cost spans 1 ms to 3.4 s, so a plain
# random draw would let a single costly metric swing a run's throughput.
GAP_CENSUS = 8

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


@dataclass(frozen=True)
class Workload:
    name: str
    group: str       # liespec group key
    scan: bool       # rounds are scan() calls, else certified gaps
    pool: int        # sample seeds 0 .. pool-1 carry reference outputs
    round_size: int  # ops per round


WORKLOADS = {
    "su2-scan": Workload("su2-scan", "su2", True, pool=1024, round_size=16),
    "t3-scan": Workload("t3-scan", "t3", True, pool=256, round_size=4),
    "su2xsu2-gap": Workload("su2xsu2-gap", "su2xsu2", False, pool=64,
                            round_size=GAP_CENSUS + (64 - GAP_CENSUS) // 2),
}

# Public names rebound while a round is traced: (module, attribute, span
# name, whether a call starts a new op).  Each op, a scan sample or a gap,
# begins with sample_metric, which is what ties the spans of one op together.
TRACE_TARGETS = (
    (egs_scan, "sample_metric", "metric_space.sample_metric", True),
    (metric_space, "sample_metric", "metric_space.sample_metric", True),
    (metric_space, "metric_from_matrix", "metric_space.metric_from_matrix", False),
    (egs_scan, "egs_ratio", "egs_scan.egs_ratio", False),
    (egs_scan, "lambda1_certified", "rep_theory.lambda1_certified", False),
    (rep_theory, "lambda1_certified", "rep_theory.lambda1_certified", False),
    (egs_scan, "graph_diameter", "geometry.graph_diameter", False),
    (egs_scan, "torus_diameter", "geometry.torus_diameter", False),
)


def load_reference(wl: Workload) -> dict:
    with open(os.path.join(REFERENCE_DIR, wl.name + ".json"), encoding="utf-8") as f:
        ref = json.load(f)
    by_seed = {op["seed"]: op for op in ref["ops"]}
    if sorted(by_seed) != list(range(wl.pool)):
        raise ValueError(f"reference for {wl.name} does not cover its pool")
    ref["by_seed"] = by_seed
    return ref


def rounds(wl: Workload, ref: dict, seed: int):
    """Endless sequence of rounds, each a list of sample seeds, made from seed."""
    rng = np.random.default_rng(seed)
    if wl.scan:
        blocks = wl.pool // wl.round_size
        while True:
            for b in rng.permutation(blocks):
                yield [int(b) * wl.round_size + i for i in range(wl.round_size)]
    ranked = sorted(ref["ops"], key=lambda op: (op["evaluations"], op["seed"]))
    seeds = [op["seed"] for op in ranked]
    census = seeds[-GAP_CENSUS:]
    pairs = np.array(seeds[:-GAP_CENSUS]).reshape(-1, 2)
    while True:
        picked = pairs[np.arange(len(pairs)), rng.integers(2, size=len(pairs))]
        yield [int(s) for s in rng.permutation(np.concatenate([picked, census]))]


# ---------------------------------------------------------------------------
# Shared state and rounds
# ---------------------------------------------------------------------------

class State:
    """What a run builds once and shares across its ops."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.entry = liespec.entry_from_key(wl.group)
        self.config = egs_scan.DiamConfig()
        self.net = None

    def build(self) -> float:
        """Build the shared net where the workload needs one; seconds taken."""
        if self.entry.kind != "su2":
            return 0.0
        t = time.perf_counter()
        self.net = liespec.build_net(self.entry, self.config.net_size,
                                     self.config.knn, self.config.net_seed)
        return time.perf_counter() - t


@dataclass
class Round:
    seeds: list
    outputs: list    # one dict per op, in seed order
    latencies: list  # seconds per op
    elapsed: float


def _failed_output(seed: int, exc: Exception) -> dict:
    return {"seed": seed, "error": f"{type(exc).__name__}: {exc}"}


def _record_output(rec) -> dict:
    return {"seed": rec.seed, "lambda1": rec.lambda1,
            "certified": rec.lambda1_certified, "witness": rec.lambda1_witness,
            "diam": [rec.diam_lower, rec.diam_value, rec.diam_upper],
            "violations": rec.violated()}


def run_round(state: State, seeds: list, tracer=None) -> Round:
    """Run one round; spans are recorded when a tracer is given.

    An op that raises is recorded as failed and the round goes on.  A scan()
    call that raises fails all of its samples.
    """
    patched = tracer.patched(TRACE_TARGETS) if tracer else contextlib.nullcontext()
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    if state.wl.scan:
        t = time.perf_counter()
        try:
            with patched, span("egs_scan.scan"):
                records, _ = egs_scan.scan(
                    state.entry, len(seeds), LO, HI, state.config,
                    base_seed=seeds[0], jobs=1, net=state.net)
            outputs = [_record_output(r) for r in records]
        except Exception as exc:  # counted as failed ops; the run goes on
            outputs = [_failed_output(s, exc) for s in seeds]
        elapsed = time.perf_counter() - t
        return Round(seeds, outputs, [elapsed / len(seeds)] * len(seeds), elapsed)

    outputs, latencies = [], []
    t0 = time.perf_counter()
    with patched:
        for s in seeds:
            t = time.perf_counter()
            try:
                spec = metric_space.sample_metric(state.entry, LO, HI, s)
                res = rep_theory.lambda1_certified(state.entry, spec)
                out = {"seed": s, "lambda1": res.lambda1, "certified": res.certified,
                       "witness": res.witness, "diam": None, "violations": []}
            except Exception as exc:  # counted as a failed op; the run goes on
                out = _failed_output(s, exc)
            latencies.append(time.perf_counter() - t)
            outputs.append(out)
    return Round(seeds, outputs, latencies, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_output(ref: dict, out: dict) -> str | None:
    """Why an op failed against the reference, or None when it passed."""
    if out.get("error"):
        return out["error"]
    want = ref["by_seed"][out["seed"]]
    if not out["certified"]:
        return "lambda1 is not certified"
    if out["witness"] != want["witness"]:
        return f"witness {out['witness']} != reference {want['witness']}"
    if not _close(out["lambda1"], want["lambda1"], REF_RTOL):
        return f"lambda1 {out['lambda1']!r} != reference {want['lambda1']!r}"
    if (out["diam"] is None) != (want["diam"] is None):
        return "diameter presence differs from the reference"
    if out["diam"] is not None:
        for key, got, exp in zip(("lower", "value", "upper"), out["diam"], want["diam"]):
            if not _close(got, exp, REF_RTOL):
                return f"diam {key} {got!r} != reference {exp!r}"
    if out["violations"] != want["violations"]:
        return f"check flags violated {out['violations']} != reference {want['violations']}"
    return None


def truth_probes(state: State) -> list[dict]:
    """Closed-form checks on A = c*I: lambda1 values and diameter brackets."""
    entry, config = state.entry, state.config
    probes = []
    for c in PROBE_SCALES:
        spec = liespec.metric_from_matrix(c * np.eye(entry.dim))
        res = liespec.lambda1_certified(entry, spec)
        if entry.kind == "torus":
            lam_true = 4 * math.pi ** 2 * c * c
        else:  # su2 and su2 x su2: the spin-1/2 Casimir, 3, scaled by c^2
            lam_true = 3 * c * c
        probes.append({
            "probe": f"lambda1 c={c:g}", "truth": lam_true,
            "reported": [res.lambda1],
            "hit": res.certified and _close(res.lambda1, lam_true, TRUTH_RTOL)})
        if entry.kind == "su2":
            d = liespec.graph_diameter(entry, spec, state.net, eps_net=config.eps_net)
            d_true = math.pi / c
        elif entry.kind == "torus":
            d = liespec.torus_diameter(spec, grid_resolution=config.grid_resolution)
            d_true = math.sqrt(entry.dim) / (2 * c)
        else:
            continue  # no diameter estimator exists for products
        probes.append({
            "probe": f"diam c={c:g}", "truth": d_true,
            "reported": [d.lower, d.value, d.upper],
            "hit": (d.lower * (1 - TRUTH_RTOL) <= d_true <= d.upper * (1 + TRUTH_RTOL))})
    return probes


# ---------------------------------------------------------------------------
# Stage split of the certified gaps of a traced round
# ---------------------------------------------------------------------------

def replay_gaps(state: State, spans: list, tracer) -> tuple[int, list[str]]:
    """Re-run each gap of a traced round, given its spans, stage by stage.

    Per op: enumerate_irreps up to the certification window (the first
    Casimir value the certified run examined without evaluating), then
    assemble_minus_CA and lambda_min_hermitian on the first ``evaluations``
    irreps.  Returns the computed eig work, sum of dim^3 over the evaluated
    irreps, and the ops whose replay did not reproduce lambda1 and witness.
    """
    specs, results = {}, {}
    for rec in spans:
        if rec[0] == "metric_space.sample_metric":
            specs[rec[4]] = rec[5]
        elif rec[0] == "rep_theory.lambda1_certified":
            results[rec[4]] = rec[5]
    work, mismatches = 0, []
    for op in sorted(results):
        res, spec = results[op], specs[op]
        if res is None or not res.certified:  # failed ops are counted elsewhere
            continue
        tracer.new_op()
        with tracer.span("rep_theory.enumerate_irreps"):
            irreps = rep_theory.enumerate_irreps(state.entry, res.window)
        best, label = math.inf, ""
        for irrep in irreps[:res.evaluations]:
            with tracer.span("rep_theory.assemble_minus_CA"):
                M = rep_theory.assemble_minus_CA(irrep, spec)
            with tracer.span("rep_theory.lambda_min_hermitian"):
                lam = rep_theory.lambda_min_hermitian(M)
            work += irrep.dim ** 3
            if lam < best:
                best, label = lam, irrep.label
        if best != res.lambda1 or label != res.witness:
            mismatches.append(f"op {op}: replay gave {best!r} at {label}")
    tracer.end_op()
    return work, mismatches
