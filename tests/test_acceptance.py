"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.  The quaternion net used by the diameter criteria is the
documented default (20000 nodes, knn 12, seed 0) built once per session.
"""

import math
import time

import numpy as np
import pytest

import liespec as ls
from liespec.rep_theory import biinvariant_lambda1

TOL = 1e-9
PI2_4 = math.pi ** 2 / 4


def report(name, detail=""):
    print(f"\nACCEPTANCE {name}: PASS {detail}")


def test_criterion_1_su2_eigenvalue_constants(su2):
    start = time.monotonic()
    for seed in range(100):
        spec = ls.sample_metric(su2, 0.2, 5.0, seed=seed)
        res = ls.lambda1_certified(su2, spec)
        assert res.certified, f"seed {seed} uncertified"
        s2 = spec.sigma[1]
        assert res.lambda1 > 2 * s2 * s2 - TOL, f"seed {seed}: lower bound"
        assert res.lambda1 <= 8 * s2 * s2 + TOL, f"seed {seed}: upper bound"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report("1 (su2 gap constants)", f"100 metrics in {elapsed:.2f}s")


def test_criterion_2_so3_eigenvalue_constants(so3):
    res = ls.lambda1_certified(so3, ls.metric_from_matrix(np.eye(3)))
    assert abs(res.lambda1 - 8.0) <= TOL
    for seed in range(100):
        spec = ls.sample_metric(so3, 0.2, 5.0, seed=seed)
        res = ls.lambda1_certified(so3, spec)
        assert res.certified
        s2 = spec.sigma[1]
        assert res.lambda1 > 4 * s2 * s2 - TOL
        assert res.lambda1 <= 8 * s2 * s2 + TOL
    report("2 (so3 gap constants)", "identity gap exactly 8; 100 metrics")


def test_criterion_3_su2_diameter_constants(su2, big_net):
    start = time.monotonic()
    ident = ls.graph_diameter(su2, ls.metric_from_matrix(np.eye(3)), big_net)
    assert abs(ident.value - math.pi) / math.pi <= 0.05, "identity metric off by >5%"
    for seed in range(30):
        spec = ls.sample_metric(su2, 0.2, 5.0, seed=seed)
        est = ls.graph_diameter(su2, spec, big_net)
        s2 = spec.sigma[1]
        lo = math.pi / (2 * s2) * 0.90
        hi = math.pi / s2 * 1.10
        assert lo <= est.value <= hi, f"seed {seed}: {est.value} not in [{lo}, {hi}]"
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"runtime {elapsed:.1f}s exceeds 10min"
    report("3 (su2 diameter constants)",
           f"30 metrics on 20000-node net in {elapsed:.1f}s")


def test_criterion_4_torus_exactness(t2, t3, torus_gap):
    checked = 0
    for entry, res_grid in ((t2, 64), (t3, 32)):
        for seed in range(100):
            spec = ls.sample_metric(entry, 0.2, 5.0, seed=seed)
            enum = ls.lambda1_certified(entry, spec)
            assert enum.certified
            assert abs(enum.lambda1 - torus_gap(spec)) <= TOL
            diam = ls.torus_diameter(spec, grid_resolution=res_grid)
            assert enum.lambda1 * diam.lower ** 2 >= PI2_4 - 1e-6, \
                f"{entry.name} seed {seed}: Li violated"
            checked += 1
        ident = ls.torus_diameter(ls.metric_from_matrix(np.eye(entry.dim)),
                                  grid_resolution=res_grid)
        truth = math.sqrt(entry.dim) / 2
        assert ident.lower <= truth <= ident.upper
    assert checked == 200
    report("4 (torus exactness)",
           "200 metrics: gap enumeration == brute-force oracle; Li holds")


def test_criterion_5_monotonicity(su2, mid_net):
    rng = np.random.default_rng(505)
    for trial in range(200):
        a = ls.sample_metric(su2, 0.3, 3.0, seed=trial)
        v = rng.standard_normal(3) * float(np.mean(a.sigma))
        b = ls.metric_from_matrix(np.linalg.cholesky(a.AAt + np.outer(v, v)))
        la = ls.lambda1_certified(su2, a).lambda1
        lb = ls.lambda1_certified(su2, b).lambda1
        assert la <= lb + TOL * max(1.0, lb), f"trial {trial}: gap order"
        da = ls.graph_diameter(su2, a, mid_net).value
        db = ls.graph_diameter(su2, b, mid_net).value
        assert da >= db - TOL * max(1.0, db), f"trial {trial}: diameter order"
    report("5 (monotonicity)", "200 comparable pairs, gap and fixed-net diameter")


def test_criterion_6_algebraic_identities(su2):
    rng = np.random.default_rng(606)
    from liespec.metric_space import random_rotation
    A = rng.standard_normal((3, 3)) + 2 * np.eye(3)
    spec = ls.metric_from_matrix(A)
    for _ in range(50):
        R = random_rotation(3, rng)
        other = ls.metric_from_matrix(A @ R)
        scale = max(1.0, float(np.max(np.abs(spec.gram))))
        assert np.max(np.abs(other.gram - spec.gram)) <= TOL * scale

    for j in ("1/2", "1", "3/2"):
        irr = ls.spin_irrep(j)
        for trial in range(20):
            a = ls.sample_metric(su2, 0.3, 3.0, seed=trial).A
            b = ls.sample_metric(su2, 0.3, 3.0, seed=trial + 1000).A
            lhs = ls.assemble_minus_CA(irr, ls.metric_from_matrix(a @ b))
            ga = np.einsum("ki,kab->iab", a, irr.generators)
            rhs = -np.einsum("ij,iab,jbc->ac", b @ b.T, ga, ga)
            scale = max(1.0, float(np.max(np.abs(lhs))))
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    lam_i = biinvariant_lambda1(su2)
    for seed in range(100):
        spec = ls.sample_metric(su2, 0.2, 5.0, seed=seed)
        lam = ls.lambda1_certified(su2, spec).lambda1
        tr = float(np.trace(spec.AAt))
        assert lam <= lam_i * tr * (1 + TOL)
    report("6 (algebraic identities)",
           "50 orthogonal factors; mixed assembly in 3 spins; trace bound")


def test_criterion_7_restricted_spectrum(su2):
    from liespec.metric_space import random_rotation
    assert ls.lambda1_restricted(su2, np.eye(3), 2) == pytest.approx(8.0, abs=TOL)
    assert math.isinf(ls.lambda1_restricted(su2, np.eye(3), 3))
    rng = np.random.default_rng(707)
    for _ in range(50):
        P = random_rotation(3, rng)
        d = np.sort(rng.uniform(0.2, 5.0, 3))[::-1]
        spec = ls.metric_from_matrix(P @ np.diag(d))
        lam = ls.lambda1_certified(su2, spec).lambda1
        bound = ls.lambda1_restricted(su2, P, 2) * spec.sigma[1] ** 2
        assert lam <= bound + TOL * max(1.0, bound)
    report("7 (restricted spectrum)", "value 8 at k=2, infinite at k=3, 50 sandwiches")


def test_criterion_8_degeneration_trends(su2, t2):
    rep = ls.degeneration_experiment(su2, "shrink-transverse",
                                     [1.0, 0.5, 0.25, 0.125])
    lams = [r.lambda1 for r in rep.rows]
    assert all(b < a for a, b in zip(lams, lams[1:])), "gap not strictly decreasing"
    ratios = [r.tracked["lambda1_over_s_sq"] for r in rep.rows]
    assert abs(ratios[-1] / ratios[-2] - 1.0) < 0.25, "gap/s^2 not stabilising"
    diams = [r.diam_value for r in rep.rows]
    assert all(b > a for a, b in zip(diams, diams[1:])), "diameter not strictly increasing"

    rep = ls.degeneration_experiment(t2, "torus-dense-line", [1.0, 4.0, 16.0])
    tracked = [r.tracked["diam_times_sigma2"] for r in rep.rows]
    assert all(b < a for a, b in zip(tracked, tracked[1:])), \
        "diam*sigma_2 not strictly decreasing"
    report("8 (degeneration trends)",
           "su2 shrink sweep and t2 dense-line sweep both monotone")


def test_criterion_9_k_max_catalog(su2, su2xsu2):
    assert su2.k_max == 2
    for m in (1, 2, 3, 4):
        assert ls.torus_entry(m).k_max == m
    assert su2xsu2.k_max == 5
    assert ls.su_n_k_max(2) == 2
    ls.startup_self_test()
    report("9 (k_max catalog)", "table consistent; startup self-test green")
