"""Ratio scans, randomized invariant verification, degeneration sweeps, reporting.

The central quantity is the homothety-invariant product
``lambda1 * diam^2``.  Scans sample seeded random metrics, compute certified
spectral gaps and diameter estimates, and record named check flags; reports
are emitted as CSV or JSON with identical field names.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
from dataclasses import dataclass, fields, is_dataclass
from types import MappingProxyType
from typing import ClassVar, Mapping, Optional, Sequence

import numpy as np

from .geometry import (DEFAULT_EPS_NET, DEFAULT_GRID_RESOLUTION, DEFAULT_KNN,
                       DEFAULT_NET_SIZE, DiameterEstimate, Net,
                       biinvariant_diameter, build_net, graph_diameter,
                       paper_diameter_bounds, torus_diameter)
from .lie_core import LieGroupCatalogEntry
from .metric_space import (MetricSpec, metric_from_matrix, random_rotation,
                           sample_metric)
from .rep_theory import (assemble_minus_CA, biinvariant_lambda1,
                         enumerate_irreps, lambda1_certified, spin_irrep)

__all__ = [
    "DiamConfig",
    "ScanRecord",
    "ScanSummary",
    "egs_ratio",
    "scan",
    "DegenerationReport",
    "degeneration_experiment",
    "PropertyReport",
    "property_suite",
    "scan_csv_text",
    "scan_to_json",
    "CHECK_NAMES",
]

LI_TOL = 1e-6
EXACT_TOL = 1e-9

# Defaults of scans and of the verification suite: the log-uniform sigma
# range, the number of trials and the node count of the suite's fixed net.
DEFAULT_SIGMA_LO = 0.2
DEFAULT_SIGMA_HI = 5.0
DEFAULT_TRIALS = 25
SUITE_NET_SIZE = 2000

# Version of every JSON report's layout, scan and CLI alike.
SCHEMA_VERSION = 1

CHECK_NAMES = ("li_ok", "simple_bounds_ok", "remark_diam_ok",
               "remark_lambda_ok", "urakawa_ok")

GOLDEN = (1 + math.sqrt(5)) / 2


@dataclass(frozen=True)
class DiamConfig:
    """The settings every diameter of a scan or experiment is read at.

    A read-only record with no field: each setting is a class constant, its
    estimator's default in ``geometry``.  It stays only because the benchmark
    reads these constants and passes ``DiamConfig()`` positionally.
    """

    net_size: ClassVar[int] = DEFAULT_NET_SIZE
    knn: ClassVar[int] = DEFAULT_KNN
    grid_resolution: ClassVar[int] = DEFAULT_GRID_RESOLUTION
    net_seed: ClassVar[int] = 0
    eps_net: ClassVar[float] = DEFAULT_EPS_NET  # the fixed net allowance


@dataclass(frozen=True)
class ScanRecord:
    seed: int
    group: str
    m: int
    sigma: tuple
    lambda1: float
    lambda1_certified: bool
    lambda1_witness: str
    diam_lower: float
    diam_value: float
    diam_upper: float
    diam_method: str
    ratio: float
    checks: tuple[tuple[str, bool], ...]

    def __post_init__(self):
        # A mapping or pairs in; (name, flag) pairs stored, so that a record
        # pickles and cannot be mutated.
        object.__setattr__(self, "checks", tuple(dict(self.checks).items()))

    def violated(self) -> list[str]:
        return [k for k, ok in self.checks if not ok]


@dataclass(frozen=True)
class ScanSummary:
    n_samples: int
    max_ratio: float
    argmax_seed: int
    argmax_sigma: tuple
    violation_counts: Mapping[str, int]  # read-only
    violations: tuple[tuple[int, str], ...]  # (seed, check name), enough to reproduce

    def __post_init__(self):
        object.__setattr__(self, "violation_counts",
                           MappingProxyType(dict(self.violation_counts)))
        object.__setattr__(self, "violations", tuple(map(tuple, self.violations)))


def _net_for(entry: LieGroupCatalogEntry, net: Optional[Net]) -> Optional[Net]:
    """``net``, else the default net on su2/so3; None elsewhere."""
    if net is None and entry.kind in ("su2", "so3"):
        net = build_net(entry)
    return net


def _compute_diameter(entry: LieGroupCatalogEntry, spec: MetricSpec,
                      net: Optional[Net]) -> DiameterEstimate:
    """The diameter by the one method the input allows.

    Homotheties A A^t = c^2 I (sigma_1 = sigma_m within 1e-12 relative) take
    the closed form d0 / c on every group, tori the lattice covering radius,
    su2/so3 the geodesic graph on ``net`` (the default net when None).
    """
    s1, sm = spec.sigma[0], spec.sigma[-1]
    if s1 - sm <= 1e-12 * s1:
        d0 = biinvariant_diameter(entry)
        return DiameterEstimate(value=d0.value / s1, lower=d0.value / s1,
                                upper=d0.value / sm, method=d0.method)
    if entry.kind == "torus":
        return torus_diameter(spec)
    if entry.kind in ("su2", "so3"):
        return graph_diameter(entry, spec, _net_for(entry, net))
    raise ValueError(f"no diameter estimator for {entry.name} off homotheties")


def _gap_checks(entry: LieGroupCatalogEntry, spec: MetricSpec, lam1: float) -> dict:
    """The paper's bounds on the gap: simple, Urakawa's trace and su2/so3 sigma_2."""
    lam_i = biinvariant_lambda1(entry)
    s1, sm = spec.sigma[0], spec.sigma[-1]
    s2 = spec.sigma[1] if spec.m > 1 else spec.sigma[0]
    tol = EXACT_TOL * max(1.0, lam_i * s1 * s1)
    checks = {
        "simple_bounds_ok": lam_i * sm * sm - tol <= lam1 <= lam_i * s1 * s1 + tol,
        "urakawa_ok": lam1 <= lam_i * float(np.trace(spec.AAt)) + tol,
        "remark_lambda_ok": True,
    }
    if entry.kind in ("su2", "so3"):
        c = 2 if entry.kind == "su2" else 4
        checks["remark_lambda_ok"] = c * s2 * s2 - tol < lam1 <= 8 * s2 * s2 + tol
    return checks


def _run_checks(entry: LieGroupCatalogEntry, spec: MetricSpec, lam1: float,
                diam: DiameterEstimate) -> dict:
    checks = _gap_checks(entry, spec, lam1)
    checks["li_ok"] = lam1 * diam.lower ** 2 >= math.pi ** 2 / 4 - LI_TOL
    checks["remark_diam_ok"] = True
    if entry.kind in ("su2", "so3"):
        b = paper_diameter_bounds(entry, spec)
        checks["remark_diam_ok"] = (
            diam.value >= b.lower * (1 - DEFAULT_EPS_NET)
            and diam.value <= b.upper * (1 + DEFAULT_EPS_NET))
    elif entry.kind == "torus":
        # Simple two-sided bound with the grid slack of the estimate.
        b = paper_diameter_bounds(entry, spec)
        slack = diam.upper - diam.value
        checks["remark_diam_ok"] = (
            diam.value >= b.lower - slack - EXACT_TOL
            and diam.value <= b.upper + EXACT_TOL * max(1.0, b.upper))
    return {k: bool(checks[k]) for k in CHECK_NAMES}


def egs_ratio(entry: LieGroupCatalogEntry, spec: MetricSpec,
              diam_config: DiamConfig = DiamConfig(), seed: int = 0,
              net: Optional[Net] = None) -> ScanRecord:
    """One ratio record: certified gap, diameter estimate, check flags.

    The diameter comes first, so a metric without an estimator fails before
    the gap is paid for.  Nothing reads ``diam_config``: it stays only for
    the benchmark's positional ``DiamConfig()``, which ROADMAP item 1 removes.
    """
    diam = _compute_diameter(entry, spec, net)
    res = lambda1_certified(entry, spec)
    checks = _run_checks(entry, spec, res.lambda1, diam)
    return ScanRecord(
        seed=seed, group=entry.name, m=entry.dim, sigma=tuple(float(s) for s in spec.sigma),
        lambda1=res.lambda1, lambda1_certified=res.certified, lambda1_witness=res.witness,
        diam_lower=diam.lower, diam_value=diam.value, diam_upper=diam.upper,
        diam_method=diam.method, ratio=res.lambda1 * diam.value ** 2, checks=checks)


def _sample_record(entry: LieGroupCatalogEntry, lo: float, hi: float,
                   net: Optional[Net], seed: int) -> ScanRecord:
    return egs_ratio(entry, sample_metric(entry, lo, hi, seed), seed=seed, net=net)


# Set once in each pool worker, so that the net crosses once per worker.
_WORKER: dict = {}


def _pool_init(sample) -> None:
    _WORKER["sample"] = sample


def _pool_sample(seed: int) -> ScanRecord:
    return _WORKER["sample"](seed)


def scan(entry: LieGroupCatalogEntry, n_samples: int, lo: float = DEFAULT_SIGMA_LO,
         hi: float = DEFAULT_SIGMA_HI, diam_config: DiamConfig = DiamConfig(),
         base_seed: int = 0, jobs: int = 1,
         net: Optional[Net] = None) -> tuple[list[ScanRecord], ScanSummary]:
    """Seeded scan over random metrics; per-sample seed = base_seed + index.

    Output is independent of ``jobs``: records are always ordered by index and
    aggregation is order-free.  At most min(jobs, n_samples, CPU count)
    worker processes run, all started at once.  A scan reads only its
    arguments, so threads may scan at once.  As in ``egs_ratio``, nothing
    reads ``diam_config``.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if jobs < 1:
        raise ValueError("need jobs >= 1")
    sample = functools.partial(_sample_record, entry, lo, hi, _net_for(entry, net))
    seeds = [base_seed + i for i in range(n_samples)]
    workers = min(jobs, n_samples, os.cpu_count() or 1)
    if workers == 1:
        records = list(map(sample, seeds))
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays the import
        with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init,
                                 initargs=(sample,)) as ex:
            records = list(ex.map(_pool_sample, seeds,
                                  chunksize=max(1, n_samples // (4 * workers))))
    violations = [(r.seed, name) for r in records for name in r.violated()]
    counts = {name: sum(1 for _, n in violations if n == name) for name in CHECK_NAMES}
    best = max(records, key=lambda r: r.ratio)
    summary = ScanSummary(
        n_samples=n_samples, max_ratio=best.ratio, argmax_seed=best.seed,
        argmax_sigma=best.sigma, violation_counts=counts, violations=violations)
    return records, summary


# ---------------------------------------------------------------------------
# Degeneration sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegenerationRow:
    s: float
    sigma: tuple
    lambda1: float
    lambda1_certified: bool
    diam_value: Optional[float]
    diam_lower: Optional[float]
    diam_upper: Optional[float]
    tracked: Mapping[str, float]  # read-only

    def __post_init__(self):
        object.__setattr__(self, "tracked", MappingProxyType(dict(self.tracked)))


@dataclass(frozen=True)
class DegenerationReport:
    kind: str
    group: str
    s_values: tuple
    rows: tuple[DegenerationRow, ...]
    monotone: Mapping[str, str]  # read-only: key -> 'increasing' | 'decreasing' | 'mixed'

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "monotone", MappingProxyType(dict(self.monotone)))


def _monotone_tag(values: Sequence[float]) -> str:
    diffs = np.diff(np.asarray(values, dtype=float))
    if np.all(diffs > 0):
        return "increasing"
    if np.all(diffs < 0):
        return "decreasing"
    return "mixed"


def two_generator_rotation_su2xsu2() -> np.ndarray:
    """Orthogonal P whose first two columns already bracket-generate su2+su2.

    Columns 1-2 span a generic two-generator pair (asymmetric mixing angles
    keep the pair out of every automorphism graph); the rest is a Gram-Schmidt
    completion.
    """
    beta = math.pi / 5
    y1 = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    y2 = np.array([0.0, math.cos(beta), 0.0, 0.0, math.sin(beta), 0.0])
    cols = [y1, y2]
    for j in range(6):
        e = np.zeros(6)
        e[j] = 1.0
        v = e - sum(np.dot(e, c) * c for c in cols)
        nrm = np.linalg.norm(v)
        if nrm > 1e-9:
            cols.append(v / nrm)
        if len(cols) == 6:
            break
    return np.stack(cols, axis=1)


def dense_line_rotation_t2() -> np.ndarray:
    """Rotation aligning the first torus direction with an irrational slope."""
    theta = math.atan2(1.0, GOLDEN)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


_OVER_SIGMA4 = {"lambda1_over_sigma4_sq": lambda s, sig, lam, d: lam / sig[3] ** 2}

# (kind, group) -> (metric matrix at s, diameter tracked?, tracked quantities
# in output order as name -> f(s, sigma, lambda1, diam)).
_SWEEPS = {
    ("shrink-transverse", "su2"): (
        lambda s: np.diag([1.0, s, s]), True,
        {"lambda1_over_sigma1_sq": lambda s, sig, lam, d: lam / sig[0] ** 2,
         "diam_times_sigma1": lambda s, sig, lam, d: d.value * sig[0],
         "lambda1_over_s_sq": lambda s, sig, lam, d: lam / s ** 2}),
    ("shrink-transverse", "su2xsu2"): (
        lambda s: np.diag([1.0, 1.0, 1.0, 1.0, s, s]), False, _OVER_SIGMA4),
    ("enlarge-generating", "su2xsu2"): (
        lambda s: two_generator_rotation_su2xsu2() @ np.diag([s, s, s, 1.0, 1.0, 1.0]),
        False, _OVER_SIGMA4),
    ("torus-dense-line", "t2"): (
        lambda s: dense_line_rotation_t2() @ np.diag([s, 1.0]), True,
        {"diam_times_sigma2": lambda s, sig, lam, d: d.value * sig[1]}),
}

DEGENERATION_KINDS = tuple(dict.fromkeys(kind for kind, _ in _SWEEPS))


def degeneration_experiment(entry: LieGroupCatalogEntry, kind: str,
                            s_values: Sequence[float]) -> DegenerationReport:
    """Sweep a one-parameter family of metrics and track the relevant product.

    shrink-transverse: directions transverse to a maximal-dimension subgroup
    get cheap (s down); the gap collapses and the diameter blows up.
    enlarge-generating: a bracket-generating pair gets expensive (s up) on
    su2 x su2; the gap divided by sigma_4^2 blows up.  torus-dense-line: the
    direction of a dense line gets expensive on T^2; diam * sigma_2 collapses.
    Diameters appear only where an estimator exists (graph for su2 on the
    default net, lattice for tori).
    """
    if kind not in DEGENERATION_KINDS:
        raise ValueError(f"unknown degeneration kind {kind!r}")
    s_values = tuple(float(s) for s in s_values)
    if not all(math.isfinite(s) and s > 0 for s in s_values):
        raise ValueError("s values must be finite and positive")
    if len(s_values) < 2 or np.any(np.diff(s_values) == 0):
        raise ValueError("need at least two distinct s values")
    if not (np.all(np.diff(s_values) > 0) or np.all(np.diff(s_values) < 0)):
        raise ValueError("s values must be monotone")

    sweep = _SWEEPS.get((kind, entry.name))
    if sweep is None:
        groups = " or ".join(g for k, g in _SWEEPS if k == kind)
        raise ValueError(f"{kind} runs on {groups}")
    make, want_diam, formulas = sweep

    net = _net_for(entry, None)  # one net for the whole sweep

    rows = []
    for s in s_values:
        spec = metric_from_matrix(make(s))
        res = lambda1_certified(entry, spec)
        diam = None
        if want_diam:
            diam = _compute_diameter(entry, spec, net)
        tracked = {key: f(s, spec.sigma, res.lambda1, diam) for key, f in formulas.items()}
        rows.append(DegenerationRow(
            s=s, sigma=tuple(float(x) for x in spec.sigma),
            lambda1=res.lambda1, lambda1_certified=res.certified,
            diam_value=None if diam is None else diam.value,
            diam_lower=None if diam is None else diam.lower,
            diam_upper=None if diam is None else diam.upper,
            tracked=tracked))
    monotone = {key: _monotone_tag([r.tracked[key] for r in rows])
                for key in formulas}
    return DegenerationReport(kind=kind, group=entry.name, s_values=s_values,
                              rows=rows, monotone=monotone)


# ---------------------------------------------------------------------------
# Randomized verification suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropertyCheck:
    name: str
    trials: int
    failures: tuple[Mapping, ...]  # read-only; one counterexample per failed trial

    def __post_init__(self):
        object.__setattr__(self, "failures",
                           tuple(MappingProxyType(dict(f)) for f in self.failures))


@dataclass(frozen=True)
class PropertyReport:
    group: str
    checks: tuple[PropertyCheck, ...]

    def __post_init__(self):
        object.__setattr__(self, "checks", tuple(self.checks))

    @property
    def all_passed(self) -> bool:
        return all(not c.failures for c in self.checks)


def _loewner_bump(spec: MetricSpec, rng: np.random.Generator) -> MetricSpec:
    """Metric Loewner-above spec: B B^t = A A^t + v v^t (PSD rank-one bump)."""
    v = rng.standard_normal(spec.m) * float(np.mean(spec.sigma))
    bbt = spec.AAt + np.outer(v, v)
    return metric_from_matrix(np.linalg.cholesky(bbt))


def property_suite(entry: LieGroupCatalogEntry, n_trials: int = DEFAULT_TRIALS,
                   seed: int = 0) -> PropertyReport:
    """Randomized checks of the structural identities behind the estimates.

    Covers: metric invariance under right orthogonal factors, Loewner
    monotonicity of lengths, spectral gaps and fixed-net diameters, the mixed
    Casimir assembly identity, the simple two-sided gap bounds, the trace
    bound, and gap homothety.  Failures carry the matrices needed to
    reproduce.  Each sampled metric's certified gap is computed once and
    shared by the checks that need it.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, fn):
        failures = []
        for t in range(n_trials):
            data = fn(t)
            if data is not None:
                failures.append(data)
        checks.append(PropertyCheck(name=name, trials=n_trials, failures=failures))

    specs = [sample_metric(entry, DEFAULT_SIGMA_LO, DEFAULT_SIGMA_HI,
                           seed=int(rng.integers(2 ** 31)))
             for _ in range(n_trials)]
    bumped = [_loewner_bump(s, rng) for s in specs]
    gaps = [lambda1_certified(entry, s).lambda1 for s in specs]

    def right_invariance(t):
        s = specs[t]
        R = random_rotation(entry.dim, rng)
        other = metric_from_matrix(s.A @ R)
        err = float(np.max(np.abs(other.gram - s.gram)))
        if err > 1e-9 * max(1.0, float(np.max(np.abs(s.gram)))):
            return {"A": s.A.tolist(), "R": R.tolist(), "err": err}
        return None
    record("metric_right_orthogonal_invariance", right_invariance)

    def length_monotonicity(t):
        a, b = specs[t], bumped[t]
        X = rng.standard_normal((20, entry.dim))
        qa = np.einsum("ni,ij,nj->n", X, a.gram, X)
        qb = np.einsum("ni,ij,nj->n", X, b.gram, X)
        if np.any(qa < qb - 1e-9 * np.maximum(1.0, qb)):
            return {"A": a.A.tolist(), "B": b.A.tolist()}
        return None
    record("loewner_length_monotonicity", length_monotonicity)

    def gap_monotonicity(t):
        a, b = specs[t], bumped[t]
        la = gaps[t]
        lb = lambda1_certified(entry, b).lambda1
        if la > lb + 1e-9 * max(1.0, lb):
            return {"A": a.A.tolist(), "B": b.A.tolist(), "la": la, "lb": lb}
        return None
    record("spectral_gap_loewner_monotonicity", gap_monotonicity)

    def mixed_casimir_identity(t):
        a, b = specs[t].A, bumped[t].A
        irreps = ([spin_irrep(1)] if entry.kind in ("su2", "so3")
                  else enumerate_irreps(entry, 100.0))
        irrep = irreps[min(t % 3, len(irreps) - 1)]
        lhs = assemble_minus_CA(irrep, metric_from_matrix(a @ b))
        ga = np.einsum("ki,kab->iab", a, irrep.generators)
        rhs = -np.einsum("ij,iab,jbc->ac", b @ b.T, ga, ga)
        rhs = 0.5 * (rhs + rhs.conj().T)
        err = float(np.max(np.abs(lhs - rhs)))
        if err > 1e-10 * max(1.0, float(np.max(np.abs(lhs)))):
            return {"A": a.tolist(), "B": b.tolist(), "err": err}
        return None
    record("mixed_casimir_assembly_identity", mixed_casimir_identity)

    if entry.kind in ("su2", "so3"):
        local_net = build_net(entry, SUITE_NET_SIZE)

        def diam_monotonicity(t):
            a, b = specs[t], bumped[t]
            da = graph_diameter(entry, a, local_net).value
            db = graph_diameter(entry, b, local_net).value
            if da < db - 1e-9 * max(1.0, db):
                return {"A": a.A.tolist(), "B": b.A.tolist(), "da": da, "db": db}
            return None
        record("diameter_loewner_monotonicity", diam_monotonicity)

    # The scan's own gap flags, read per sampled metric.
    flags = [_gap_checks(entry, s, lam) for s, lam in zip(specs, gaps)]
    for name, flag in (("spectral_simple_bounds", "simple_bounds_ok"),
                       ("trace_upper_bound", "urakawa_ok")):
        record(name, lambda t, flag=flag: None if flags[t][flag]
               else {"A": specs[t].A.tolist(), "lambda1": gaps[t]})

    def homothety(t):
        s, lam = specs[t], gaps[t]
        c = float(rng.uniform(0.5, 2.0))
        lam_t = lambda1_certified(entry, metric_from_matrix(c * s.A)).lambda1
        if abs(lam_t - c * c * lam) > 1e-9 * max(1.0, lam_t):
            return {"A": s.A.tolist(), "c": c}
        return None
    record("spectral_homothety", homothety)

    return PropertyReport(group=entry.name, checks=checks)


# ---------------------------------------------------------------------------
# CSV / JSON output
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def record_to_dict(rec: ScanRecord) -> dict:
    """The scan schema: CSV columns and JSON record keys, in order."""
    d = {"seed": rec.seed, "group": rec.group, "m": rec.m}
    for i, s in enumerate(rec.sigma):
        d[f"sigma_{i + 1}"] = s
    d.update(lambda1=rec.lambda1, lambda1_certified=rec.lambda1_certified,
             lambda1_witness=rec.lambda1_witness, diam_lower=rec.diam_lower,
             diam_value=rec.diam_value, diam_upper=rec.diam_upper,
             diam_method=rec.diam_method, ratio=rec.ratio)
    d.update(rec.checks)
    return d


def scan_csv_text(records: Sequence[ScanRecord]) -> str:
    if not records:
        raise ValueError("no records to write")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(record_to_dict(records[0]).keys())
    for rec in records:
        writer.writerow([_fmt(v) for v in record_to_dict(rec).values()])
    return buf.getvalue()


def _to_json_data(x):
    """A report as JSON-ready data, read from its dataclass fields.

    Dataclasses become dicts in field order, mappings (read-only ones too,
    which ``dataclasses.asdict`` cannot copy) become dicts, tuples lists.
    """
    if is_dataclass(x):
        return {f.name: _to_json_data(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, Mapping):
        return {k: _to_json_data(v) for k, v in x.items()}
    if isinstance(x, tuple):
        return [_to_json_data(v) for v in x]
    return x


def scan_to_json(records: Sequence[ScanRecord], summary: ScanSummary) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "records": [record_to_dict(r) for r in records],
        "summary": _to_json_data(summary),
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
