"""Irrep catalog and spectral-gap computations against independent oracles."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import liespec as ls
from liespec import _lattice
from liespec import rep_theory
from liespec.metric_space import random_rotation
from liespec.rep_theory import FOUR_PI_SQ, _irrep_stream

# Closed-form gaps under the fixed normalisation, derived from the explicit
# two-candidate structure of the low spins: the spin-1/2 assembly is always
# Tr(A A^t) times the identity, and the spin-1 minimum is 4(sigma_2^2 +
# sigma_3^2); higher spins never undercut these.
def su2_gap_oracle(sigma):
    s1, s2, s3 = sigma
    return min(s1 * s1 + s2 * s2 + s3 * s3, 4 * (s2 * s2 + s3 * s3))


def so3_gap_oracle(sigma):
    _, s2, s3 = sigma
    return 4 * (s2 * s2 + s3 * s3)


# Reference implementations of the generator contractions: explicit Kronecker
# products and numpy's einsum loop over the generator index.
def kron_pair_generators(a, b):
    ia = np.eye(a.dim, dtype=complex)
    ib = np.eye(b.dim, dtype=complex)
    return np.concatenate([np.stack([np.kron(g, ib) for g in a.generators]),
                           np.stack([np.kron(ia, g) for g in b.generators])])


def pair_irrep(a, b):
    return ls.Irrep(label=f"pair({a.label},{b.label})", factors=(a, b))


def brute_pairs(left, right, cutoff):
    """(Casimir, label) of every pair with Casimir <= cutoff, in (Casimir, i, j) order.

    ``left`` and ``right`` are ascending (Casimir, label) lists, the trivial
    irrep first, that hold every irrep up to the cutoff.
    """
    cells = sorted((ca + cb, i, j, f"pair({a},{b})")
                   for i, (ca, a) in enumerate(left) for j, (cb, b) in enumerate(right)
                   if ca + cb <= cutoff)
    return [(cas, label) for cas, _, _, label in cells]


def assemble_reference(G, AAt):
    W = np.tensordot(AAt, G, axes=(1, 0))
    M = -np.einsum("iab,ibc->ac", G, W)
    return 0.5 * (M + M.conj().T)


def su2xsu2_gap_reference(spec, max_twice_spin=30):
    """Certified gap on su2 x su2 by the stop rule over Kronecker-built pairs.

    Pairs are walked in ascending Casimir order; the list is complete up to
    Casimir 4 j (j + 1) at 2 j = max_twice_spin, and the walk must stop below.
    Returns lambda1, the witness and the (label, value) of every pair walked.
    """
    spins = [ls.spin_irrep(Fraction(n, 2)) for n in range(max_twice_spin + 1)]
    pairs = sorted(((a.casimir + b.casimir, ia, ib)
                    for ia, a in enumerate(spins) for ib, b in enumerate(spins)
                    if ia or ib), key=lambda t: t[0])
    complete = spins[-1].casimir
    sm2 = spec.sigma[-1] ** 2
    best, witness, walked = math.inf, "", []
    for cas, ia, ib in pairs:
        assert cas <= complete
        if sm2 * cas > best:
            return best, witness, walked
        a, b = spins[ia], spins[ib]
        M = assemble_reference(kron_pair_generators(a, b), spec.AAt)
        lam = float(np.linalg.eigvalsh(M)[0])
        walked.append((f"pair({a.label},{b.label})", lam))
        if lam < best:
            witness, best = walked[-1]
    raise AssertionError("pair list too short for the stop rule")


def spin_walk_reference(entry, spec):
    """(lambda1, witness) of the su2/so3 gap by the dense stop-rule spin walk.

    Spins in ascending Casimir order, each assembled and solved in full,
    until sigma_m^2 times the next Casimir passes the running minimum; the
    first minimum wins.
    """
    step = Fraction(1, 2) if entry.kind == "su2" else Fraction(1)
    sm2 = spec.sigma[-1] ** 2
    best, witness, j = math.inf, "", step
    while True:
        irrep = ls.spin_irrep(j)
        if sm2 * irrep.casimir > best:
            return best, witness
        lam = ls.lambda_min_hermitian(ls.assemble_minus_CA(irrep, spec))
        if lam < best:
            best, witness = lam, irrep.label
        j += step


def unscreened_walk(entry, spec):
    """(lambda1, witness, certified) of a product gap by the stop-rule walk
    with ``lambda_min_hermitian`` on every irrep: no spin bounds, no Cholesky
    screen, strict ``<`` for the running minimum.
    """
    sm2 = spec.sigma[-1] ** 2
    best, witness = math.inf, ""
    for irrep in _irrep_stream(entry):
        if sm2 * irrep.casimir > best:
            return best, witness, True
        lam = ls.lambda_min_hermitian(ls.assemble_minus_CA(irrep, spec))
        if lam < best:
            best, witness = lam, irrep.label


def sequential_walk(entry, spec):
    """(lambda1, witness, window, evaluations) of a product gap by a plain
    sequential walk: pairs in stream order, the spin bounds built after the
    first irrep, the last Casimir they cannot exclude recomputed on each new
    minimum, and ``lambda_min_hermitian`` on every pair they do not exclude,
    with no Cholesky screen.
    """
    sm2 = spec.sigma[-1] ** 2
    best, witness, evals, bounds, last = math.inf, "", 0, None, math.inf
    for irrep in _irrep_stream(entry):
        if sm2 * irrep.casimir > best or irrep.casimir > last:
            return best, witness, irrep.casimir, evals
        evals += 1
        if bounds is not None and bounds.excludes(*irrep.factors, best):
            continue
        lam = ls.lambda_min_hermitian(ls.assemble_minus_CA(irrep, spec))
        if lam < best:
            best, witness = lam, irrep.label
            if evals == 1:
                bounds = rep_theory._pair_bounds(entry, spec, best)
            if bounds is not None:
                last = bounds.stop(best)


def pair_bounds_table_reference(entry, spec, lam):
    """(casimir, bound) of ``_PairBounds`` as the spin-bound docstring states
    it, split by split: each Schur split and its mirror from their own solve,
    the floors added one split at a time."""
    Q = spec.AAt
    Q11, Q12, Q22 = Q[:3, :3], Q[:3, 3:], Q[3:, 3:]
    theta = np.array(rep_theory._SPLIT_THETAS)[:, None, None]
    D = np.stack([
        np.concatenate([Q11 - Q12 @ np.linalg.solve(Q22, Q12.T) / (1.0 - theta), theta * Q11]),
        np.concatenate([theta * Q22, Q22 - Q12.T @ np.linalg.solve(Q11, Q12) / (1.0 - theta)])])
    R = np.repeat(Q[None], D.shape[1], axis=0)
    R[:, :3, :3] -= D[0]
    R[:, 3:, 3:] -= D[1]
    N = np.abs(Q).sum(1).max() + np.abs(D).sum(3).max(axis=(0, 2))
    keep = np.isfinite(R).all(axis=(1, 2)) & np.isfinite(N)
    s = np.maximum(0.0, -np.linalg.eigvalsh(R[keep])[:, 0]) + 2.0 ** -35 * N[keep]
    q = np.linalg.eigvalsh(D[:, keep])[..., ::-1]
    pd = np.all(q[..., 2] > 0, axis=0)  # positive definite before the lowering
    q = q[:, pd] - s[pd, None]
    sm2 = spec.sigma[-1] ** 2
    reach = math.sqrt(lam / sm2)
    q2, q3 = q[..., 1], q[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        # Concave blocks (q3 <= 0): F = lam at lam / w and w / -q3.
        w = q2 + np.sqrt(q2 * q2 + q3 * lam)
        extent = np.where(q3 > 0, np.minimum(lam / (2.0 * q2), np.sqrt(lam / q3)), lam / w)
        fits = np.all((q3 > 0) | ((q2 > 0) & (w / -q3 > 2.0 * reach)), axis=0)
    q = q[:, fits]
    rows, cols = (math.floor(min(t, reach)) + 2 for t in extent[:, fits].min(axis=1))
    n1, n2 = np.arange(rows, dtype=float), np.arange(cols, dtype=float)
    casimir = (n1 * (n1 + 2.0))[:, None] + (n2 * (n2 + 2.0))[None, :]
    bound = sm2 * casimir
    for q1, q2 in zip(q[0], q[1]):
        np.maximum(bound, rep_theory._spin_floor(n1, q1)[:, None]
                   + rep_theory._spin_floor(n2, q2)[None, :], out=bound)
    if entry.factors[0].kind == "so3":
        bound[1::2] = math.inf
    if entry.factors[1].kind == "so3":
        bound[:, 1::2] = math.inf
    return casimir, bound


def bookkeeping(res):
    return res.lambda1, res.witness, res.window, res.evaluations


def replayed_walk(entry, res, spec):
    """(lambda1, witness) from the first ``evaluations`` irreps below the
    window, each assembled afresh and solved."""
    best, witness = math.inf, ""
    for irrep in ls.enumerate_irreps(entry, res.window)[:res.evaluations]:
        lam = ls.lambda_min_hermitian(ls.assemble_minus_CA(irrep, spec))
        if lam < best:
            best, witness = lam, irrep.label
    return best, witness


@pytest.fixture
def spin_bound_skips(monkeypatch):
    """Labels of the pairs the spin bounds excluded from assembly."""
    skipped = []
    real = rep_theory._PairBounds.excludes

    def spy(self, a, b, lam):
        out = real(self, a, b, lam)
        if out:
            skipped.append(f"pair({a.label},{b.label})")
        return out

    monkeypatch.setattr(rep_theory._PairBounds, "excludes", spy)
    return skipped


@st.composite
def su2xsu2_metrics(draw):
    """Rotated metrics, homotheties c I, and block metrics whose two factors
    have one spectrum (exact ties between mirrored pairs, up to rounding) or
    spectra split by a relative 1e-15 to 1e-9."""
    kind = draw(st.sampled_from(["rotated", "scalar", "tie", "near-tie"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    log_sigma = st.floats(math.log(0.4), math.log(2.5))
    if kind == "scalar":
        return ls.metric_from_matrix(math.exp(draw(log_sigma)) * np.eye(6))
    if kind == "rotated":
        sigma = np.exp(draw(st.lists(log_sigma, min_size=6, max_size=6)))
        return ls.metric_from_matrix(random_rotation(6, rng) @ np.diag(sigma))
    block = np.diag(np.exp(draw(st.lists(log_sigma, min_size=3, max_size=3))))
    split = 0.0 if kind == "tie" else draw(st.sampled_from([1e-15, 1e-12, 1e-9]))
    A = np.zeros((6, 6))
    A[:3, :3] = random_rotation(3, rng) @ block
    A[3:, 3:] = (1.0 + split) * random_rotation(3, rng) @ block
    return ls.metric_from_matrix(A)


def hermitian_with_spectrum(lam, rng):
    """U diag(lam) U* for a random unitary U, and its largest |entry|, as
    ``_hermitian`` returns them."""
    d = len(lam)
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    U, _ = np.linalg.qr(X)
    return rep_theory._hermitian((U * lam) @ U.conj().T)


def rotated_metric(sigma, seed):
    return ls.metric_from_matrix(
        random_rotation(3, np.random.default_rng(seed)) @ np.diag(sigma))


def torus_gap_box_sweep(spec):
    """(lambda1, witness, window) of the torus gap by one sweep of a box.

    The box of radius sqrt((A A^t)_jj / sigma_m^2) holds every character that
    could beat the seed e_j, j the smallest diagonal entry; the seed stays
    unless strictly beaten, else the first minimiser in lexicographic order.
    """
    Q = spec.AAt
    sm2 = spec.sigma[-1] ** 2
    j0 = int(np.argmin(np.diag(Q)))
    lam, witness = FOUR_PI_SQ * float(Q[j0, j0]), np.eye(spec.m, dtype=np.int64)[j0]
    radius = int(math.sqrt(Q[j0, j0] / sm2 + 1e-12))
    pts = _lattice.integer_box(-radius, radius, spec.m)
    vals = FOUR_PI_SQ * np.einsum("ni,ij,nj->n", pts, Q, pts)
    vals[np.all(pts == 0, axis=1)] = np.inf
    i = int(np.argmin(vals))
    if vals[i] < lam:
        lam, witness = float(vals[i]), pts[i]
    window = FOUR_PI_SQ * (math.floor(lam / (FOUR_PI_SQ * sm2) + 1e-12) + 1)
    return lam, "char(" + ",".join(str(int(v)) for v in witness) + ")", window


def run_isolated(code, timeout=30):
    """Run code in a fresh interpreter with liespec importable.

    A call that never returns fails the test at the timeout instead of
    stalling the suite.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(ls.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    prelude = "import math\nimport numpy as np\nimport liespec as ls\n"
    return subprocess.run([sys.executable, "-c", prelude + code], capture_output=True,
                          text=True, env=env, timeout=timeout)


def frame_from(*columns):
    """An orthogonal matrix whose first len(columns) columns span the given
    vectors, in order (QR of the columns padded with the identity)."""
    cols = np.asarray(columns, dtype=float).T
    q, r = np.linalg.qr(np.hstack([cols, np.eye(cols.shape[0])]))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


@pytest.fixture
def kron_sums_calls(monkeypatch):
    """Factor labels of every pair stack built while the test runs."""
    calls = []
    real = rep_theory._kron_sums

    def spy(a, b):
        calls.append((a.label, b.label))
        return real(a, b)

    monkeypatch.setattr(rep_theory, "_kron_sums", spy)
    return calls


def fraction_spin(j):
    """(label, dim, Casimir, generator stack) of spin j, built in exact
    fractions: weights m = j, j - 1, ..., -j and ladder entries
    sqrt(j (j + 1) - m (m + 1))."""
    d = int(2 * j) + 1
    mvals = [j - i for i in range(d)]
    jz = np.diag([float(m) for m in mvals]).astype(complex)
    jp = np.zeros((d, d), dtype=complex)
    for i in range(1, d):
        m = mvals[i]
        jp[i - 1, i] = math.sqrt(float(j * (j + 1) - m * (m + 1)))
    jm = jp.conj().T
    jx = 0.5 * (jp + jm)
    jy = (jp - jm) / 2j
    G = np.stack([-2j * jx, -2j * jy, -2j * jz])
    return f"spin({j})", d, float(4 * j * (j + 1)), G


def spin_catalog(step, cutoff):
    """(Casimir, label) of spins 0, step, 2 step, ... up to the cutoff."""
    out, j = [], Fraction(0)
    while 4 * j * (j + 1) <= cutoff:
        out.append((float(4 * j * (j + 1)), f"spin({j})"))
        j += step
    return out


class TestIrreps:
    @pytest.mark.parametrize("j", ["1/2", "1", "3/2", "2", "5/2"])
    def test_spin_invariants(self, su2, j):
        irr = ls.spin_irrep(j)
        jf = Fraction(j)
        assert irr.dim == int(2 * jf) + 1
        assert abs(irr.casimir - float(4 * jf * (jf + 1))) < 1e-12
        irr.check_commutators(su2)
        G = irr.generators
        assert np.max(np.abs(G + np.conj(np.swapaxes(G, 1, 2)))) < 1e-12
        cas = -np.einsum("iab,ibc->ac", G, G)
        assert np.max(np.abs(cas - irr.casimir * np.eye(irr.dim))) < 1e-10

    def test_spin_irreps_shared(self):
        # One validated, immutable instance per spin.
        irr = ls.spin_irrep("3/2")
        assert ls.spin_irrep(Fraction(3, 2)) is irr
        assert ls.spin_irrep(1.5) is irr
        for bad in (-1 / 2, "1/3"):
            with pytest.raises(ValueError, match="nonnegative half-integer"):
                ls.spin_irrep(bad)
        with pytest.raises(ValueError):
            irr.generators[0, 0, 0] = 1.0

    def test_character_invariants(self, t2):
        irr = ls.character_irrep([2, -1])
        assert irr.dim == 1
        assert abs(irr.casimir - FOUR_PI_SQ * 5) < 1e-10
        irr.check_commutators(t2)

    def test_pair_invariants(self, su2xsu2):
        half, one = ls.spin_irrep("1/2"), ls.spin_irrep("1")
        stream = _irrep_stream(su2xsu2)
        pair = next(s for s in stream if s.dim == 6)
        pair.check_commutators(su2xsu2)
        assert abs(pair.casimir - (half.casimir + one.casimir)) < 1e-12

    def test_pair_generators_equal_kron(self):
        for ja, jb in (("0", "1/2"), ("1/2", "1"), ("3/2", "1"), ("2", "5/2"), ("9/2", "9/2")):
            a, b = ls.spin_irrep(ja), ls.spin_irrep(jb)
            pair = pair_irrep(a, b)
            assert pair.dim == a.dim * b.dim
            assert pair.casimir == a.casimir + b.casimir
            assert np.array_equal(pair.generators, kron_pair_generators(a, b))
            assert not pair.generators.flags.writeable
            with pytest.raises(ValueError):
                pair.generators[0, 0, 0] = 1.0

    def test_pair_stack_is_built_on_each_read_and_never_stored(self, kron_sums_calls):
        pair = pair_irrep(ls.spin_irrep("1/2"), ls.spin_irrep("1"))
        assert (pair.dim, kron_sums_calls) == (6, [])
        before = dict(pair.__dict__)
        assert np.array_equal(pair.generators, pair.generators)
        assert kron_sums_calls == [("spin(1/2)", "spin(1)")] * 2
        assert pair.__dict__ == before

    def test_a_pair_is_not_a_factor(self):
        a, b = ls.spin_irrep("1/2"), ls.spin_irrep("1")
        pair = pair_irrep(a, b)
        for factors in ((pair, a), (a, pair), (pair, pair)):
            with pytest.raises(ValueError, match="cannot be a pair"):
                ls.Irrep(label="x", factors=factors)

    def test_pair_takes_everything_from_its_factors(self):
        a, b = ls.spin_irrep("1/2"), ls.spin_irrep("1")
        ok = ls.Irrep(label="x", dim=6, casimir=a.casimir + b.casimir, factors=(a, b))
        assert np.array_equal(ok.generators, kron_pair_generators(a, b))
        for bad in ({"generators": kron_pair_generators(a, b)}, {"dim": 5},
                    {"casimir": a.casimir + b.casimir + 1e-9}):
            with pytest.raises(ValueError, match="come from the factors"):
                ls.Irrep(label="x", factors=(a, b), **bad)

    def test_product_stream_runs_no_casimir_check(self, su2xsu2, monkeypatch):
        list(itertools.islice(_irrep_stream(su2xsu2), 60))  # spin irreps cached
        calls = []
        real = rep_theory._contract

        def spy(G, W):
            calls.append(G.shape)
            return real(G, W)

        monkeypatch.setattr(rep_theory, "_contract", spy)
        got = list(itertools.islice(_irrep_stream(su2xsu2), 60))
        assert len(got) == 60 and max(p.dim for p in got) > 20
        assert calls == []

    def test_validation_rejects_non_anti_hermitian(self):
        # A non-unitary similarity keeps the Casimir scalar but breaks
        # anti-hermiticity, so only that check can reject it.
        G = ls.spin_irrep("1").generators
        S = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        bent = S @ G @ np.linalg.inv(S)
        with pytest.raises(ValueError, match="not anti-hermitian"):
            ls.Irrep(label="bent", dim=3, generators=bent, casimir=8.0)

    def test_validation_rejects_wrong_casimir(self):
        G = ls.spin_irrep("1").generators
        with pytest.raises(ValueError, match="Casimir does not act"):
            ls.Irrep(label="x", dim=3, generators=G, casimir=7.0)
        with pytest.raises(ValueError, match="Casimir does not act"):
            ls.Irrep(label="x", dim=6, generators=kron_pair_generators(
                ls.spin_irrep("1/2"), ls.spin_irrep("1")), casimir=8.0)

    def test_validation_rejects_wrong_shape(self):
        G = ls.spin_irrep("1").generators
        for gens, dim in ((G, 2), (G[:, :, :2], 3), (G[0], 3), (G[None], 3)):
            with pytest.raises(ValueError, match="wrong shape"):
                ls.Irrep(label="x", dim=dim, generators=gens, casimir=8.0)

    def test_enumerate_su2(self, su2):
        out = ls.enumerate_irreps(su2, 4.0)
        assert [i.label for i in out] == ["spin(1/2)"]
        assert abs(out[0].casimir - 3.0) < 1e-12
        out = ls.enumerate_irreps(su2, 16.0)
        assert [i.label for i in out] == ["spin(1/2)", "spin(1)", "spin(3/2)"]

    def test_enumerate_so3(self, so3):
        out = ls.enumerate_irreps(so3, 9.0)
        assert [i.label for i in out] == ["spin(1)"]
        assert abs(out[0].casimir - 8.0) < 1e-12

    def test_enumerate_torus_shell(self, t2):
        out = ls.enumerate_irreps(t2, FOUR_PI_SQ * 1.5)
        labels = sorted(i.label for i in out)
        assert labels == ["char(-1,0)", "char(0,-1)", "char(0,1)", "char(1,0)"]

    def test_enumerate_product_ascending(self, su2xsu2):
        out = ls.enumerate_irreps(su2xsu2, 12.0)
        cas = [i.casimir for i in out]
        assert cas == sorted(cas)
        assert np.allclose(cas, [3, 3, 6, 8, 8, 11, 11])

    def test_enumeration_is_ascending_and_complete(self, su2, t2):
        for entry, cutoff in ((su2, 120.0), (t2, FOUR_PI_SQ * 26)):
            out = ls.enumerate_irreps(entry, cutoff)
            cas = [i.casimir for i in out]
            assert cas == sorted(cas)
            assert all(c <= cutoff for c in cas)
        # torus completeness at |n|^2 <= 26 against direct counting
        pts = np.stack(np.meshgrid(np.arange(-6, 7), np.arange(-6, 7)),
                       axis=-1).reshape(-1, 2)
        expect = int(np.sum((pts ** 2).sum(axis=1) <= 26)) - 1
        assert len(ls.enumerate_irreps(t2, FOUR_PI_SQ * 26)) == expect

    @pytest.mark.parametrize("m, radius", [(1, 250), (2, 13), (3, 5), (4, 4)])
    def test_character_order(self, m, radius):
        # Brute force: the ball |n| <= radius, sorted by |n|^2 and then by n.
        ball = sorted((sum(x * x for x in n), n)
                      for n in itertools.product(range(-radius, radius + 1), repeat=m)
                      if 0 < sum(x * x for x in n) <= radius * radius)
        assert len(ball) >= 500
        got = ls.enumerate_irreps(ls.torus_entry(m), FOUR_PI_SQ * radius ** 2)
        assert [c.label for c in got] == ["char(" + ",".join(map(str, n)) + ")"
                                          for _, n in ball]
        assert [c.casimir for c in got] == [FOUR_PI_SQ * float(n2) for n2, _ in ball]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_torus_refuses_an_infinite_cutoff(self, m):
        # A torus lists the lattice points of a ball, which needs a radius.
        with pytest.raises(ValueError, match="finite Casimir cutoff"):
            _irrep_stream(ls.torus_entry(m))

    def test_product_tie_order(self, su2xsu2):
        # Pairs of equal Casimir come out by first-factor index, then by
        # second-factor index.
        cutoff = 400.0
        half = spin_catalog(Fraction(1, 2), cutoff)
        want = brute_pairs(half, half, cutoff)[1:201]
        assert want[-1][0] < cutoff
        got = [(i.casimir, i.label) for i in itertools.islice(_irrep_stream(su2xsu2), 200)]
        assert got == want

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, -math.inf])
    def test_nonpositive_cutoff_rejected(self, t2, cutoff):
        with pytest.raises(ValueError, match="cutoff must be positive"):
            ls.enumerate_irreps(t2, cutoff)

    @pytest.mark.parametrize("cutoff", ["math.inf", "math.nan"])
    def test_cutoff_that_is_not_finite_rejected(self, cutoff):
        # In a fresh interpreter: a list of the whole catalog never ends.
        out = run_isolated(
            "try:\n"
            f"    ls.enumerate_irreps(ls.entry_from_key('su2'), {cutoff})\n"
            "except ValueError:\n"
            "    print('refused')\n")
        assert out.returncode == 0, out.stderr
        assert out.stdout == "refused\n"

    def test_infinite_cutoff_refused_before_listing(self, monkeypatch):
        # A stream that fails at once, so a missed refusal cannot list forever.
        monkeypatch.setattr(rep_theory, "_irrep_stream",
                            lambda *args: pytest.fail("the catalog was listed"))
        with pytest.raises(ValueError, match="Casimir cutoff must be finite"):
            ls.enumerate_irreps(ls.entry_from_key("su2"), math.inf)

    @pytest.mark.parametrize("key", ["su2", "so3"])
    def test_spin_stream_matches_fraction_reference(self, key):
        # Twice-spins up to 40: labels, Casimirs and generator bytes as the
        # spins built in exact fractions give them.
        step = 1 if key == "su2" else 2
        got = list(itertools.islice(_irrep_stream(ls.entry_from_key(key)), 40 // step))
        want = [fraction_spin(Fraction(n, 2)) for n in range(step, 41, step)]
        assert [(i.label, i.dim, i.casimir) for i in got] == [w[:3] for w in want]
        for irrep, (*_, G) in zip(got, want):
            assert irrep.generators.tobytes() == G.tobytes()

    def test_nan_cutoff_rejected(self):
        out = run_isolated(
            "try:\n"
            "    ls.enumerate_irreps(ls.torus_entry(1), math.nan)\n"
            "except ValueError as e:\n"
            "    print(e)\n")
        assert out.returncode == 0, out.stderr
        assert "cutoff must be positive" in out.stdout


class TestAssembly:
    def test_identity_metric_gives_casimir_scalar(self, su2):
        spec = ls.metric_from_matrix(np.eye(3))
        for j in ("1/2", "1", "3/2"):
            irr = ls.spin_irrep(j)
            M = ls.assemble_minus_CA(irr, spec)
            assert np.allclose(M, irr.casimir * np.eye(irr.dim), atol=1e-10)

    def test_trace_identity(self, su2):
        # Cross generator traces vanish, so the trace reduces to the
        # diagonal of A A^t weighted by trace(-pi(X_j)^2).
        rng = np.random.default_rng(20)
        spec = ls.metric_from_matrix(rng.standard_normal((3, 3)) + 2 * np.eye(3))
        for j in ("1/2", "1", "2"):
            irr = ls.spin_irrep(j)
            M = ls.assemble_minus_CA(irr, spec)
            g2 = np.einsum("iab,iba->i", irr.generators, irr.generators)
            expect = float(np.real(np.sum(np.diag(spec.AAt) * (-g2))))
            assert abs(np.trace(M).real - expect) < 1e-9 * max(1.0, abs(expect))

    def test_psd(self, su2):
        rng = np.random.default_rng(21)
        for _ in range(10):
            spec = ls.sample_metric(su2, 0.2, 5.0, seed=int(rng.integers(1 << 30)))
            M = ls.assemble_minus_CA(ls.spin_irrep("3/2"), spec)
            assert ls.lambda_min_hermitian(M) >= -1e-10

    def test_mixed_assembly_identity(self, su2):
        # Assembling for a product AB equals contracting B B^t against the
        # A-transformed generators.
        rng = np.random.default_rng(22)
        for j in ("1/2", "1", "3/2"):
            irr = ls.spin_irrep(j)
            for _ in range(10):
                A = rng.standard_normal((3, 3)) + 2 * np.eye(3)
                B = rng.standard_normal((3, 3)) + 2 * np.eye(3)
                lhs = ls.assemble_minus_CA(irr, ls.metric_from_matrix(A @ B))
                GA = np.einsum("ki,kab->iab", A, irr.generators)
                rhs = -np.einsum("ij,iab,jbc->ac", B @ B.T, GA, GA)
                scale = max(1.0, float(np.max(np.abs(lhs))))
                assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    def test_matches_einsum_reference(self):
        rng = np.random.default_rng(28)
        spins = [ls.spin_irrep(j) for j in ("1/2", "1", "3/2", "2", "5/2")]
        pairs = [pair_irrep(ls.spin_irrep(a), ls.spin_irrep(b))
                 for a, b in (("0", "1"), ("1/2", "3/2"), ("2", "5/2"),
                              ("9/2", "9/2"), ("11/2", "9/2"))]
        assert max(p.dim for p in pairs) >= 100
        for irreps, m in ((spins, 3), (pairs, 6)):
            for _ in range(5):
                spec = ls.metric_from_matrix(rng.standard_normal((m, m)) + 2 * np.eye(m))
                for irr in irreps:
                    got = ls.assemble_minus_CA(irr, spec)
                    want = assemble_reference(irr.generators, spec.AAt)
                    scale = float(np.max(np.abs(want)))
                    assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_dimension_mismatch(self, t2):
        with pytest.raises(ValueError):
            ls.assemble_minus_CA(ls.spin_irrep("1/2"), ls.metric_from_matrix(np.eye(2)))
        with pytest.raises(ValueError):
            ls.assemble_minus_CA(pair_irrep(ls.spin_irrep("1/2"), ls.spin_irrep("1")),
                                 ls.metric_from_matrix(np.eye(3)))

    @staticmethod
    def assert_matches_stack_assembly(irrep, spec):
        got = ls.assemble_minus_CA(irrep, spec)
        a, b = irrep.factors
        want = assemble_reference(kron_pair_generators(a, b), spec.AAt)
        assert np.max(np.abs(got - want)) <= 1e-13 * float(np.max(np.abs(want)))

    def test_factor_path_matches_stack_assembly_su2xsu2(self, su2xsu2):
        # Both factors nontrivial, with and without an off-diagonal block Q12.
        rng = np.random.default_rng(29)
        pairs = [pair_irrep(ls.spin_irrep(a), ls.spin_irrep(b))
                 for a, b in (("1/2", "1/2"), ("1/2", "3/2"), ("3", "1"), ("7/2", "9/2"))]
        specs = [ls.metric_from_matrix(np.diag([3.0, 2.0, 1.0, 0.5, 0.25, 4.0]))]
        specs += [ls.metric_from_matrix(rng.standard_normal((6, 6)) + 2 * np.eye(6))
                  for _ in range(3)]
        specs += [ls.sample_metric(su2xsu2, 0.2, 5.0, seed=s) for s in (0, 13, 40)]
        for spec in specs:
            for pair in pairs:
                self.assert_matches_stack_assembly(pair, spec)

    def test_factor_path_matches_stack_assembly_su2_so3(self, su2, so3):
        entry = ls.product_entry([su2, so3])
        irreps = ls.enumerate_irreps(entry, 60.0)
        assert {f.label for irr in irreps for f in irr.factors} >= {"spin(1/2)", "spin(2)"}
        for seed in range(3):
            spec = ls.sample_metric(entry, 0.2, 5.0, seed=seed)
            for irr in irreps:
                self.assert_matches_stack_assembly(irr, spec)


class TestLambdaMinHermitian:
    def test_examples(self):
        assert ls.lambda_min_hermitian(np.eye(4)) == pytest.approx(1.0)
        assert ls.lambda_min_hermitian(np.diag([5.0, 2.0, 7.0])) == pytest.approx(2.0)

    def test_cubic_characteristic_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            M = 0.5 * (X + X.conj().T)
            # char poly x^3 + c2 x^2 + c1 x + c0 assembled from invariants
            tr = np.trace(M).real
            tr2 = np.trace(M @ M).real
            det = np.linalg.det(M).real
            roots = np.roots([1.0, -tr, 0.5 * (tr * tr - tr2), -det])
            assert ls.lambda_min_hermitian(M) == pytest.approx(
                float(np.min(roots.real)), abs=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            ls.lambda_min_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_entries_that_are_not_finite(self, bad):
        # max(1.0, nan) is 1.0, so only the raw entry scale shows a NaN.
        with pytest.raises(ValueError, match="overflows the float range"):
            ls.lambda_min_hermitian(np.array([[1.0, 0.0], [0.0, bad]]))

    def test_overflowing_gap_is_refused(self, su2, su2xsu2):
        for entry in (su2, su2xsu2):
            spec = ls.metric_from_matrix(1e154 * np.eye(entry.dim))
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match="overflows the float range"):
                    ls.lambda1_certified(entry, spec)

    def test_finite_pair_whose_symmetrisation_overflows_is_refused(self, su2xsu2):
        # 6.3e153 I: the first pair, 3 (A A^t) = 1.19e308 I, is finite, but
        # M + M^* is not, so the 2 * peak test refuses it.
        spec = ls.metric_from_matrix(6.3e153 * np.eye(6))
        first = ls.enumerate_irreps(su2xsu2, 3.0)[0]
        with np.errstate(over="ignore", invalid="ignore"):
            M = ls.assemble_minus_CA(first, spec)
            assert np.isfinite(M).all() and not math.isfinite(2.0 * float(np.abs(M).max()))
            with pytest.raises(ValueError, match="overflows the float range"):
                ls.lambda1_certified(su2xsu2, spec)


class TestCertifiedGap:
    def test_biinvariant_gap_is_certified_identity_gap(self, so3):
        for key in ("su2", "t1", "t2", "t3", "t4", "su2xsu2"):
            entry = ls.entry_from_key(key)
            res = ls.lambda1_certified(entry, ls.metric_from_matrix(np.eye(entry.dim)))
            assert ls.biinvariant_lambda1(entry) == res.lambda1, key
        res = ls.lambda1_certified(so3, ls.metric_from_matrix(np.eye(3)))
        assert ls.biinvariant_lambda1(so3) == 8.0 == pytest.approx(res.lambda1, rel=1e-14)

    def test_su2_identity(self, su2):
        res = ls.lambda1_certified(su2, ls.metric_from_matrix(np.eye(3)))
        assert res.certified
        assert res.lambda1 == pytest.approx(3.0, abs=1e-12)
        assert res.witness == "spin(1/2)"
        assert 2.0 < res.lambda1 <= 8.0

    def test_metric_of_another_dimension_rejected(self, su2):
        with pytest.raises(ValueError, match="^metric and group have different dimensions$"):
            ls.lambda1_certified(su2, ls.metric_from_matrix(np.eye(2)))

    def test_so3_identity(self, so3):
        res = ls.lambda1_certified(so3, ls.metric_from_matrix(np.eye(3)))
        assert res.certified
        assert res.lambda1 == pytest.approx(8.0, abs=1e-12)
        assert res.witness == "spin(1)"
        assert 4.0 < res.lambda1 <= 8.0

    def test_t2_identity(self, t2):
        res = ls.lambda1_certified(t2, ls.metric_from_matrix(np.eye(2)))
        assert res.certified
        assert res.lambda1 == pytest.approx(FOUR_PI_SQ, abs=1e-9)

    def test_su2_closed_form_oracle(self, su2):
        for seed in range(100):
            spec = ls.sample_metric(su2, 0.1, 10.0, seed=seed)
            res = ls.lambda1_certified(su2, spec)
            assert res.certified
            assert res.lambda1 == pytest.approx(su2_gap_oracle(spec.sigma), rel=1e-11)

    def test_so3_closed_form_oracle(self, so3):
        for seed in range(60):
            spec = ls.sample_metric(so3, 0.1, 10.0, seed=seed)
            res = ls.lambda1_certified(so3, spec)
            assert res.certified
            assert res.lambda1 == pytest.approx(so3_gap_oracle(spec.sigma), rel=1e-11)

    def test_certified_window_invariant(self, su2, so3, t2, su2xsu2, spin_bound_skips):
        # The window means one thing on every group: each irrep at or beyond
        # it lies strictly above lambda1, by the spin bound on su2 and so3,
        # the shell order on t2 and the factor spin bounds on su2xsu2, checked
        # up to Casimir 200 on su2 and so3 and 100 past the window on the
        # others.  So does each pair below the window that the spin bounds
        # kept from assembly.
        for entry in (su2, so3, t2, su2xsu2):
            for seed in range(20):
                spec = ls.sample_metric(entry, 0.2, 5.0, seed=seed)
                del spin_bound_skips[:]
                res = ls.lambda1_certified(entry, spec)
                assert res.certified
                if entry.kind in ("su2", "so3"):
                    assert res.window == {"su2": 15.0, "so3": 24.0}[entry.kind]
                    bound = 200.0
                else:
                    if entry.kind == "torus":  # sigma_m^2 times the window passes lambda1
                        assert res.window * spec.sigma[-1] ** 2 >= res.lambda1 - 1e-12
                    bound = res.window + 100.0
                later = [irrep for irrep in ls.enumerate_irreps(entry, bound)
                         if irrep.casimir >= res.window or irrep.label in spin_bound_skips]
                assert later
                if entry is su2xsu2 and seed == 0:
                    assert len(spin_bound_skips) > 10
                for irrep in later:
                    M = ls.assemble_minus_CA(irrep, spec)
                    assert ls.lambda_min_hermitian(M) > res.lambda1, \
                        (entry.kind, seed, irrep.label)

    @settings(max_examples=100, deadline=None)
    @given(spec=su2xsu2_metrics())
    @example(spec=ls.metric_from_matrix(np.eye(6)))
    @example(spec=ls.metric_from_matrix(np.diag([0.1, 1.0, 1.0, 1.0, 1.0, 1.0])))
    @example(spec=ls.metric_from_matrix(np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.1])))
    def test_screened_walk_matches_unscreened(self, su2xsu2, spec):
        # The spin bounds and the Cholesky screen only skip work where the
        # running minimum cannot move, so lambda1, the witness and ties match
        # the walk without them bit for bit.  The irreps below the window, the
        # skipped ones included, replay the gap: benchmark traces rely on it.
        res = ls.lambda1_certified(su2xsu2, spec)
        assert (res.lambda1, res.witness, res.certified) == unscreened_walk(su2xsu2, spec)
        assert replayed_walk(su2xsu2, res, spec) == (res.lambda1, res.witness)
        assert bookkeeping(res) == sequential_walk(su2xsu2, spec)

    def test_walk_bookkeeping_on_the_benchmark_pool(self, su2xsu2):
        # window and evaluations, not only lambda1 and the witness, are those
        # of the sequential walk on every su2xsu2 pool metric of perfbench;
        # its traced replay reads both.
        for seed in range(64):
            spec = ls.sample_metric(su2xsu2, 0.2, 5.0, seed=seed)
            res = ls.lambda1_certified(su2xsu2, spec)
            assert bookkeeping(res) == sequential_walk(su2xsu2, spec), seed

    @settings(max_examples=60, deadline=None)
    @given(log_sigma=st.lists(st.floats(math.log(0.2), math.log(5.0)),
                              min_size=3, max_size=3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_two_spins_match_spin_walk(self, su2, so3, log_sigma, seed):
        spec = rotated_metric(sorted(np.exp(log_sigma), reverse=True), seed)
        for entry in (su2, so3):
            res = ls.lambda1_certified(entry, spec)
            assert res.certified
            assert (res.lambda1, res.witness) == spin_walk_reference(entry, spec)

    @pytest.mark.parametrize("sigma", [(3.0, 1.0, 0.005), (1.0, 1.0, 1e-5),
                                       # q1 = 3 (q2 + q3): spin 1/2 and spin 1 tie
                                       (math.sqrt(12.0), math.sqrt(3.0), 1.0)])
    def test_thin_and_tied_metrics_certify(self, su2, so3, sigma):
        spec = rotated_metric(sigma, 1)
        for entry, oracle in ((su2, su2_gap_oracle), (so3, so3_gap_oracle)):
            res = ls.lambda1_certified(entry, spec)
            assert res.certified
            assert res.evaluations == (2 if entry is su2 else 1)
            assert res.lambda1 == pytest.approx(oracle(spec.sigma), rel=1e-11)
            assert res.witness in ("spin(1/2)", "spin(1)")

    def test_tie_goes_to_spin_half(self, su2, monkeypatch):
        monkeypatch.setattr(rep_theory, "lambda_min_hermitian", lambda M: 1.0)
        res = ls.lambda1_certified(su2, rotated_metric((2.0, 1.0, 0.5), 1))
        assert (res.lambda1, res.witness) == (1.0, "spin(1/2)")

    def test_product_gap(self, su2xsu2):
        res = ls.lambda1_certified(su2xsu2, ls.metric_from_matrix(np.eye(6)))
        assert res.certified
        assert res.lambda1 == pytest.approx(3.0, abs=1e-12)
        spec = ls.sample_metric(su2xsu2, 0.5, 2.0, seed=5)
        res = ls.lambda1_certified(su2xsu2, spec)
        assert res.certified
        lam_i = 3.0
        assert lam_i * spec.sigma[-1] ** 2 - 1e-9 <= res.lambda1
        assert res.lambda1 <= lam_i * spec.sigma[0] ** 2 + 1e-9


    def test_certified_gap_builds_no_pair_stack(self, su2xsu2, kron_sums_calls):
        spec = ls.sample_metric(su2xsu2, 0.2, 5.0, seed=5)
        res = ls.lambda1_certified(su2xsu2, spec)
        assert res.certified and res.evaluations > 20
        assert kron_sums_calls == []

    def test_skipped_pairs_build_no_irrep(self, su2xsu2, spin_bound_skips, monkeypatch):
        # The walk reads factor pairs: a pair the spin bounds skip costs no
        # Irrep, and an assembled one at most one.
        built, assembled = [], []
        post_init = rep_theory.Irrep.__post_init__
        assemble = rep_theory._pair_minus_CA

        def counting_post_init(irrep):
            post_init(irrep)
            if irrep.factors:
                built.append(irrep.label)

        def counting_assemble(a, b, *args):
            assembled.append(f"pair({a.label},{b.label})")
            return assemble(a, b, *args)

        spec = ls.sample_metric(su2xsu2, 0.2, 5.0, seed=5)
        monkeypatch.setattr(rep_theory.Irrep, "__post_init__", counting_post_init)
        monkeypatch.setattr(rep_theory, "_pair_minus_CA", counting_assemble)
        res = ls.lambda1_certified(su2xsu2, spec)
        assert spin_bound_skips and len(assembled) + len(spin_bound_skips) == res.evaluations
        assert not set(built) & set(spin_bound_skips)
        assert len(built) <= len(assembled)

    def test_product_matches_kron_einsum_reference(self, su2xsu2, spin_bound_skips):
        # Under the stop rule alone seeds 0-11 certify within 80 pairs; 13 and
        # 40 are the two costliest benchmark pool seeds (243 and 233 pairs, up
        # to dimension 156).  The walk goes through a prefix of those pairs,
        # and every reference pair it skipped or left past its window lies
        # above lambda1.
        for seed in (0, 4, 5, 11, 13, 40):
            spec = ls.sample_metric(su2xsu2, 0.2, 5.0, seed=seed)
            del spin_bound_skips[:]
            res = ls.lambda1_certified(su2xsu2, spec)
            lam, witness, walked = su2xsu2_gap_reference(spec)
            assert res.certified
            assert res.lambda1 == pytest.approx(lam, rel=1e-12)
            assert res.witness == witness
            assert res.evaluations <= len(walked)
            assert set(spin_bound_skips) <= {label for label, _ in walked[:res.evaluations]}
            for i, (label, value) in enumerate(walked):
                if label in spin_bound_skips or i >= res.evaluations:
                    assert value > lam * (1 + 1e-12), (seed, label)


class TestCholeskyScreen:
    @pytest.mark.parametrize("d", [2, 9, 50, 156])
    def test_never_accepts_below_and_accepts_clear_of_the_minimum(self, d):
        rng = np.random.default_rng(d)
        for lam in (1e-3, 0.37, 1.0, 2.5e4):
            rest = lam * np.exp(rng.uniform(0.0, math.log(10.0), d - 1))
            for ulps in (-4, -1, 0, 1, 4):
                low = lam + ulps * math.ulp(lam)
                H, peak = hermitian_with_spectrum(np.concatenate([[low], rest]), rng)
                if rep_theory._lies_above(H, peak, lam):
                    assert np.linalg.eigvalsh(H)[0] >= lam, (d, lam, ulps)
            H, peak = hermitian_with_spectrum(np.concatenate([[lam * (1 + 1e-8)], rest]), rng)
            assert rep_theory._lies_above(H, peak, lam), (d, lam)

    def test_first_irrep_is_never_screened(self):
        assert not rep_theory._lies_above(np.eye(3, dtype=complex), 1.0, math.inf)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda M: M.__setitem__((0, -1), np.inf), "overflows the float range"),
        (lambda M: M.__setitem__((0, -1), M[0, -1] + 1e3), "matrix is not hermitian"),
    ], ids=["overflow", "not-hermitian"])
    def test_refusals_come_before_the_screen(self, su2xsu2, monkeypatch, corrupt, message):
        # At sample seed 12 the first pair, pair(spin(0),spin(1/2)), gives 4.26
        # and the second, pair(spin(1/2),spin(0)), gives 14.5.  The spin bounds
        # put the second only above 1.14, so the walk assembles it; the screen
        # accepts it, and it reads only the lower triangle.
        spec = ls.sample_metric(su2xsu2, 0.2, 5.0, seed=12)
        first, second = ls.enumerate_irreps(su2xsu2, 3.0)
        lam = ls.lambda_min_hermitian(ls.assemble_minus_CA(first, spec))
        assert not rep_theory._pair_bounds(su2xsu2, spec, lam).excludes(*second.factors, lam)
        assert rep_theory._lies_above(
            *rep_theory._hermitian(ls.assemble_minus_CA(second, spec)), lam)
        real = rep_theory._pair_minus_CA
        pairs = []

        def bad_second_pair(a, b, *args):
            M = real(a, b, *args)
            pairs.append(f"pair({a.label},{b.label})")
            if len(pairs) == 2:
                M = M.copy()
                corrupt(M)
            return M

        monkeypatch.setattr(rep_theory, "_pair_minus_CA", bad_second_pair)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=message):
                ls.lambda1_certified(su2xsu2, spec)
        assert pairs == [first.label, second.label]


class TestSpinBounds:
    def test_spin_floor_is_exact_to_spin_one_and_a_floor_above(self):
        # Any symmetric block, indefinite ones included.
        rng = np.random.default_rng(3)
        n = np.arange(9)
        for _ in range(20):
            X = rng.standard_normal((3, 3))
            D = X + X.T + rng.uniform(-1.0, 3.0) * np.eye(3)
            floor = rep_theory._spin_floor(n, np.linalg.eigvalsh(D)[::-1])
            for twice, F in zip(n, floor):
                irrep = ls.spin_irrep(Fraction(int(twice), 2))
                lam = ls.lambda_min_hermitian(rep_theory._stack_minus_CA(irrep.generators, D))
                scale = 1e-12 * max(1.0, float(np.abs(D).max())) * (1 + irrep.casimir)
                if twice <= 2:
                    assert F == pytest.approx(lam, abs=scale), twice
                else:
                    assert F <= lam + scale, twice

    def test_spin_floor_moves_by_the_casimir(self):
        n = np.arange(9)
        q = np.array([3.0, 2.0, 0.5])
        casimir = n * (n + 2.0)
        assert np.allclose(rep_theory._spin_floor(n, q) - rep_theory._spin_floor(n, q - 0.25),
                           0.25 * casimir, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("kinds", [("su2", "so3"), ("so3", "su2"), ("so3", "so3")])
    def test_mixed_spin_factors_match_unscreened(self, kinds):
        entry = ls.product_entry([ls.entry_from_key(k) for k in kinds])
        skipped = 0
        for seed in range(8):
            spec = ls.sample_metric(entry, 0.2, 5.0, seed=seed)
            res = ls.lambda1_certified(entry, spec)
            assert (res.lambda1, res.witness, res.certified) == unscreened_walk(entry, spec)
            assert replayed_walk(entry, res, spec) == (res.lambda1, res.witness)
            bounds = rep_theory._pair_bounds(entry, spec, res.lambda1)
            skipped += sum(bounds.excludes(*irrep.factors, res.lambda1)
                           for irrep in ls.enumerate_irreps(entry, res.window))
        assert skipped > 0

    @pytest.mark.parametrize("kinds", [("su2", "su2"), ("su2", "so3"), ("so3", "so3")])
    def test_blocked_table_matches_split_by_split(self, kinds):
        # The blocked broadcasts take the same maximum over the same sums, so
        # the table is bit for bit the reference's, at the first minimum and
        # at a smaller one.
        entry = ls.product_entry([ls.entry_from_key(k) for k in kinds])
        first = ls.enumerate_irreps(entry, 3.0 if "su2" in kinds else 8.0)[0]
        for seed in range(64):
            spec = ls.sample_metric(entry, 0.2, 5.0, seed=seed)
            lam = ls.lambda_min_hermitian(ls.assemble_minus_CA(first, spec))
            for lam in (lam, 0.5 * lam):
                bounds = rep_theory._pair_bounds(entry, spec, lam)
                casimir, bound = pair_bounds_table_reference(entry, spec, lam)
                assert np.array_equal(bounds.casimir, casimir), seed
                assert np.array_equal(bounds.bound, bound), seed

    @pytest.mark.parametrize("t", [6e-6, 5e-6, 3e-6, 1e-7])
    def test_concave_blocks_keep_their_splits(self, su2xsu2, t):
        # On diag(1, 1, 1, 1, 1, t) lowering by 2^-35 N pushes the thin
        # block's q3 = t^2 below 0.  Its floor is then a concave parabola,
        # the split stays, and the table still matches the reference.
        for A in (np.diag([1.0] * 5 + [t]), np.diag([t] + [1.0] * 5)):
            spec = ls.metric_from_matrix(A)
            lam = 2.0 + t * t
            bounds = rep_theory._pair_bounds(su2xsu2, spec, lam)
            assert (bounds.q[..., 2] <= 0).any()
            casimir, bound = pair_bounds_table_reference(su2xsu2, spec, lam)
            assert np.array_equal(bounds.casimir, casimir)
            assert np.array_equal(bounds.bound, bound)

    @pytest.mark.parametrize("x", [1e-3, 3.2e-3])
    def test_concave_blocks_without_reach_are_dropped(self, su2xsu2, x):
        # On diag(1, 1, 1, 1, x, 1e-6) every lowered split of the thin block
        # is a concave parabola with q2 > 0.  At x = 1e-3 it never reaches
        # lam; at x = 3.2e-3 it falls back below lam short of twice S.  Such
        # a split bounds no pair past the table, so none is kept.
        spec = ls.metric_from_matrix(np.diag([1.0] * 4 + [x, 1e-6]))
        first = ls.enumerate_irreps(su2xsu2, 3.0)[0]
        lam = ls.lambda_min_hermitian(ls.assemble_minus_CA(first, spec))
        assert rep_theory._pair_bounds(su2xsu2, spec, lam) is None

    def test_thin_block_metrics_end(self):
        # Without the concave blocks no split was kept, and the stop rule
        # alone needed a Casimir near 2 / t^2: the walk did not end.
        out = run_isolated(
            "e = ls.entry_from_key('su2xsu2')\n"
            "for t in (6e-6, 5e-6, 3e-6, 1e-7):\n"
            "    for A in (np.diag([1.0] * 5 + [t]), np.diag([t] + [1.0] * 5)):\n"
            "        r = ls.lambda1_certified(e, ls.metric_from_matrix(A))\n"
            "        print(repr(r.lambda1 / (2 + t * t) - 1), r.witness, r.evaluations)\n")
        assert out.returncode == 0, out.stderr
        rows = [line.split() for line in out.stdout.splitlines()]
        assert [w for _, w, _ in rows] == ["pair(spin(0),spin(1/2))",
                                           "pair(spin(1/2),spin(0))"] * 4
        assert all(abs(float(rel)) <= 1e-15 and int(n) == 2 for rel, _, n in rows)

    @settings(max_examples=200, deadline=None)
    @given(q=st.lists(st.lists(st.floats(-2.0, 5.0), min_size=3, max_size=3),
                      min_size=1, max_size=4),
           n=st.integers(0, 16))
    def test_spin_minima_are_exact(self, q, n):
        # E against a dense eigensolve of -C_A on diag(q), blocks with q3 <= 0
        # included: the exact minimum, at or above the spin floor F, and F
        # up to spin 1, to rounding.
        q = -np.sort(-np.array(q), axis=1)  # descending
        E = rep_theory._spin_minima(n, q)
        F = rep_theory._spin_floor(np.array([n]), q)[:, 0]
        G = rep_theory._spin_irrep(n).generators
        for qk, e, f in zip(q, E, F):
            exact = np.linalg.eigvalsh(rep_theory._stack_minus_CA(G, np.diag(qk)))[0]
            scale = 1e-12 * max(1.0, float(np.abs(qk).max())) * (1.0 + n * (n + 2.0))
            assert abs(e - exact) <= scale, (qk, n)
            assert e >= f - scale, (qk, n)
        if n <= 2:
            assert np.allclose(E, F, rtol=1e-15, atol=1e-15)

    def test_exact_minima_pair_the_factors_split_by_split(self):
        # Two splits that favour opposite factors, under a table that
        # excludes nothing: a pair's bound is the larger E1 + E2 of one
        # split, not the larger E1 plus the larger E2, and spins up to 1
        # are left to the table.
        big, small = [4.0, 3.0, 2.0], [0.1, 0.1, 0.1]
        q = np.array([[big, small], [small, big]])  # (factor, split, 3)
        bounds = rep_theory._PairBounds(np.zeros((8, 8)), np.zeros((8, 8)), q)
        E1, E2 = rep_theory._spin_minima(3, q[0]), rep_theory._spin_minima(4, q[1])
        best = (E1 + E2).max()
        assert best < E1.max() + E2.max()
        a, b = rep_theory._spin_irrep(3), rep_theory._spin_irrep(4)
        assert bounds.excludes(a, b, best * (1 - 1e-12))
        assert not bounds.excludes(a, b, best)
        low = rep_theory._spin_irrep(2)
        assert not bounds.excludes(low, low, 0.0)

    def test_every_exclusion_lies_above_the_minimum(self, su2xsu2, monkeypatch):
        # Each pair that ``excludes`` skips, by the table or by the exact
        # minima, has an assembled minimum above the running minimum it was
        # tested against, and above the bound that skipped it (none for a
        # pair past the table); sample seeds past the benchmark pool.
        skipped = []
        real = rep_theory._PairBounds.excludes

        def spy(self, a, b, lam):
            out = real(self, a, b, lam)
            if out:
                rows, cols = self.bound.shape
                if a.dim > rows or b.dim > cols:
                    bound, table = -math.inf, True
                elif self.bound[a.dim - 1, b.dim - 1] > lam:
                    bound, table = self.bound[a.dim - 1, b.dim - 1], True
                else:
                    bound = (self._minima(0, a.dim - 1) + self._minima(1, b.dim - 1)).max()
                    table = False
                skipped.append((a, b, lam, bound, table))
            return out

        monkeypatch.setattr(rep_theory._PairBounds, "excludes", spy)
        exact = 0
        for seed in range(64, 112):
            spec = ls.sample_metric(su2xsu2, 0.2, 5.0, seed=seed)
            del skipped[:]
            ls.lambda1_certified(su2xsu2, spec)
            for a, b, lam, bound, table in skipped:
                M = ls.assemble_minus_CA(pair_irrep(a, b), spec)
                lm = ls.lambda_min_hermitian(M)
                assert lm > lam, (seed, a.label, b.label)
                assert bound <= lm * (1 + 1e-12), (seed, a.label, b.label)
                exact += not table
        assert exact > 100

    def test_exact_minima_cut_the_pool_screens(self, su2xsu2, monkeypatch):
        # The benchmark's 64 pool metrics: the exact minima leave at most 800
        # pairs to assemble and screen (1118 on the table alone), and the
        # walks end with the same lambda1, witness, window and evaluations as
        # with the refinement patched off.
        assembled = []
        real = rep_theory._pair_minus_CA
        monkeypatch.setattr(rep_theory, "_pair_minus_CA",
                            lambda a, b, *args: assembled.append(a) or real(a, b, *args))
        specs = [ls.sample_metric(su2xsu2, 0.2, 5.0, seed=s) for s in range(64)]
        sharp = [bookkeeping(ls.lambda1_certified(su2xsu2, spec)) for spec in specs]
        screened = len(assembled)
        monkeypatch.setattr(rep_theory, "_spin_minima", lambda n, q: np.full(len(q), -np.inf))
        del assembled[:]
        table = [bookkeeping(ls.lambda1_certified(su2xsu2, spec)) for spec in specs]
        assert sharp == table
        assert screened <= 800 < len(assembled)

    def test_table_memory(self, su2xsu2, monkeypatch):
        # The first minimum on this metric sizes a 2 x 95240 table.  Adding
        # the floors in blocks of at most _TABLE_CELLS sums, here one split
        # per block, peaks at about 7.4 MiB; building all sixteen split
        # tables before the maximum took 21.2 MiB.
        spec = ls.metric_from_matrix(np.diag([1.0] * 4 + [1.05e-5] * 2))
        firsts = []
        real = rep_theory._pair_bounds
        monkeypatch.setattr(rep_theory, "_pair_bounds",
                            lambda entry, spec, lam: firsts.append(lam) or real(entry, spec, lam))
        ls.lambda1_certified(su2xsu2, spec)
        tracemalloc.start()
        try:
            bounds = real(su2xsu2, spec, firsts[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bounds.bound.shape == (2, 95240)
        assert peak <= 10 * 2 ** 20

    def test_strongly_coupled_metric_keeps_no_split(self, su2xsu2):
        # enlarge-generating at s = 100: no Schur split stays positive
        # definite, so the stop rule alone ends the walk.
        from liespec.egs_scan import two_generator_rotation_su2xsu2
        spec = ls.metric_from_matrix(
            two_generator_rotation_su2xsu2() @ np.diag([100.0] * 3 + [1.0] * 3))
        first = ls.enumerate_irreps(su2xsu2, 3.0)[0]
        lam = ls.lambda_min_hermitian(ls.assemble_minus_CA(first, spec))
        assert rep_theory._pair_bounds(su2xsu2, spec, lam) is None

    def test_walk_without_spin_bounds_matches(self, su2xsu2, monkeypatch):
        # The benchmark's 64 su2xsu2 pool metrics, walked with and without
        # the spin bounds.
        specs = [ls.sample_metric(su2xsu2, 0.2, 5.0, seed=s) for s in range(64)]
        bounded = [ls.lambda1_certified(su2xsu2, spec) for spec in specs]
        monkeypatch.setattr(rep_theory, "_pair_bounds", lambda entry, spec, lam: None)
        plain = [ls.lambda1_certified(su2xsu2, spec) for spec in specs]
        assert [(r.lambda1, r.witness) for r in plain] == [(r.lambda1, r.witness)
                                                            for r in bounded]
        assert sum(r.evaluations for r in plain) > sum(r.evaluations for r in bounded)

    def test_table_past_the_cell_limit_gives_no_bounds(self, su2xsu2, monkeypatch):
        # The pool's largest table has 231 cells; at a limit of one cell
        # every table is refused, and the walk runs on the stop rule alone.
        specs = [ls.sample_metric(su2xsu2, 0.2, 5.0, seed=s) for s in range(16)]
        bounded = [ls.lambda1_certified(su2xsu2, spec) for spec in specs]
        monkeypatch.setattr(rep_theory, "_TABLE_CELLS", 1)
        assert rep_theory._pair_bounds(su2xsu2, specs[0], bounded[0].lambda1) is None
        plain = [ls.lambda1_certified(su2xsu2, spec) for spec in specs]
        assert [(r.lambda1, r.witness) for r in plain] == [(r.lambda1, r.witness)
                                                            for r in bounded]
        assert all(p.window >= b.window and p.evaluations >= b.evaluations
                   for p, b in zip(plain, bounded))
        assert plain[0].evaluations > bounded[0].evaluations

    def test_split_that_overflows_is_dropped(self, su2xsu2):
        # Q12 Q22^-1 Q21 / (1 - 0.99) overflows at theta = 0.99; the other
        # splits stay, and no bound is NaN.
        A = np.eye(6)
        A[:3, 3:] = 0.9 * np.eye(3)
        spec = ls.metric_from_matrix(2e153 * A)
        Q = spec.AAt
        with np.errstate(over="ignore"):
            P = Q[:3, 3:] @ np.linalg.solve(Q[3:, 3:], Q[3:, :3])
            assert not np.isfinite(P / (1 - 0.99)).all()
            res = ls.lambda1_certified(su2xsu2, spec)
            bounds = rep_theory._pair_bounds(su2xsu2, spec, res.lambda1)
        assert not np.isnan(bounds.bound).any()
        assert res.lambda1 == pytest.approx(1.2e307, rel=1e-12)
        assert res.witness == "pair(spin(0),spin(1/2))"
        assert (res.lambda1, res.witness, res.certified) == unscreened_walk(su2xsu2, spec)


class TestTorusGap:
    def test_examples(self, t2):
        res = ls.lambda1_certified(t2, ls.metric_from_matrix(np.eye(2)))
        assert res.lambda1 == pytest.approx(FOUR_PI_SQ, abs=1e-10)
        assert res.witness in ("char(1,0)", "char(-1,0)", "char(0,1)", "char(0,-1)")
        res = ls.lambda1_certified(t2, ls.metric_from_matrix(np.diag([10.0, 1.0])))
        assert res.lambda1 == pytest.approx(FOUR_PI_SQ, abs=1e-10)
        assert res.witness in ("char(0,1)", "char(0,-1)")

    def test_homothety(self, t2):
        base = ls.lambda1_certified(t2, ls.metric_from_matrix(np.eye(2))).lambda1
        for t in (0.5, 2.0, 7.0):
            scaled = ls.lambda1_certified(t2, ls.metric_from_matrix(t * np.eye(2))).lambda1
            assert scaled == pytest.approx(t * t * base, rel=1e-12)

    def test_bruteforce_oracle(self, t2, t3, torus_gap):
        for entry, n in ((t2, 40), (t3, 25), (ls.torus_entry(4), 15)):
            for seed in range(n):
                spec = ls.sample_metric(entry, 0.4, 2.5, seed=seed)
                got = ls.lambda1_certified(entry, spec).lambda1
                assert got == pytest.approx(torus_gap(spec), rel=1e-12)

    def test_agrees_with_certified_enumeration(self, t2, t3, torus_gap):
        # The ellipsoid walk against an exhaustive sweep of the whole box
        # that holds every minimiser.
        for entry in (t2, t3):
            for seed in range(50):
                spec = ls.sample_metric(entry, 0.2, 5.0, seed=seed)
                res = ls.lambda1_certified(entry, spec)
                assert res.certified
                assert abs(res.lambda1 - torus_gap(spec)) <= 1e-9

    def test_dimension_limit(self):
        with pytest.raises(ValueError):
            ls.lambda1_certified(ls.torus_entry(5), ls.metric_from_matrix(np.eye(5)))

    def test_overflowing_gap_is_refused(self, t2):
        with pytest.raises(ValueError, match="overflows the float range"):
            ls.lambda1_certified(t2, ls.metric_from_matrix(1e154 * np.eye(2)))

    def test_integer_box_matches_meshgrid(self):
        for radius in range(4):
            for m in range(1, 5):
                axes = [np.arange(-radius, radius + 1)] * m
                want = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
                got = _lattice.integer_box(-radius, radius, m)
                assert got.dtype == np.int64
                assert got.shape == want.shape and np.array_equal(got, want)

    def test_short_vectors_match_box(self):
        # Every nonzero point of a box that holds the ellipsoid, filtered by
        # the direct form, in the box's lexicographic order.  The bound sits
        # halfway between two distinct form values, far from the slack.
        rng = np.random.default_rng(30)
        for m in (1, 2, 3, 4):
            for _ in range(10):
                X = rng.standard_normal((m, m))
                Q = X @ X.T + 0.2 * np.eye(m)
                target = 2.5 * float(np.min(np.diag(Q)))
                radius = int(math.sqrt(target / np.linalg.eigvalsh(Q)[0])) + 1
                box = _lattice.integer_box(-radius, radius, m)
                box = box[np.any(box != 0, axis=1)]
                vals = np.einsum("ni,ij,nj->n", box, Q, box)
                bound = 0.5 * (vals[vals <= target].max() + vals[vals > target].min())
                got = _lattice.short_vectors(Q, bound)
                assert np.array_equal(got, box[vals <= bound])

    def test_selection_matches_box_sweep(self, t2, t3):
        # Seeds, and metrics with ties among minimisers: the seed character
        # stays unless strictly beaten, else the first minimiser in
        # lexicographic order wins.
        t4 = ls.torus_entry(4)
        hexagonal = np.array([[1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        specs = [(t2, ls.metric_from_matrix(hexagonal))]
        for entry, lo, hi, n in ((t2, 0.2, 5.0, 60), (t3, 0.2, 5.0, 40), (t4, 0.4, 2.5, 20)):
            m = entry.dim
            specs += [(entry, ls.sample_metric(entry, lo, hi, seed=s)) for s in range(n)]
            specs += [(entry, ls.metric_from_matrix(np.diag(d)))
                      for d in itertools.product((1.0, 2.0, 0.5), repeat=m)]
        for entry, spec in specs:
            res = ls.lambda1_certified(entry, spec)
            assert res.certified
            assert (res.lambda1, res.witness, res.window) == torus_gap_box_sweep(spec)

    def test_thin_t4_direction_certifies(self):
        # One direction 1000 times thinner than the rest: an isotropic search
        # box would hold 319^4 points, the ellipsoid holds 318.
        from liespec.metric_space import random_rotation
        R = random_rotation(4, np.random.default_rng(3))
        spec = ls.metric_from_matrix(R @ np.diag([30.0, 30.0, 30.0, 0.03]))
        res = ls.lambda1_certified(ls.torus_entry(4), spec)
        assert res.certified
        assert res.lambda1 == pytest.approx(685.8152360663768, rel=1e-12)
        assert res.witness == "char(-6,17,-11,-37)"


class TestInvariantDim:
    def test_cartan_line_parity(self):
        for j, expect in (("1/2", 0), ("1", 1), ("3/2", 0), ("2", 1)):
            irr = ls.spin_irrep(j)
            assert ls.invariant_dim(irr, [[0.0, 0.0, 1.0]]) == expect
        # any line is conjugate to the weight axis
        rng = np.random.default_rng(24)
        v = rng.standard_normal(3)
        assert ls.invariant_dim(ls.spin_irrep("1"), [v]) == 1

    def test_full_algebra_kills_nontrivial(self):
        assert ls.invariant_dim(ls.spin_irrep("1"), np.eye(3)) == 0
        assert ls.invariant_dim(ls.spin_irrep("0"), np.eye(3)) == 1

    def test_zero_subspace_rejected(self):
        with pytest.raises(ValueError):
            ls.invariant_dim(ls.spin_irrep("1"), np.zeros((1, 3)))
        with pytest.raises(ValueError, match="H must contain at least one vector"):
            ls.invariant_dim(ls.spin_irrep(1), np.zeros((0, 3)))

    def test_stack_that_vanishes_up_to_rounding_has_rank_zero(self):
        # On the line (1, 1)/sqrt 2 the character (1, -1) has the stack
        # 2 pi i (1 - 1)/sqrt 2, a few ulps instead of 0.
        line = [[1.0, 1.0]] / np.sqrt(2.0)
        assert ls.invariant_dim(ls.character_irrep((1, -1)), line) == 1
        assert ls.invariant_dim(ls.character_irrep((1, 1)), line) == 0


class TestRestrictedGap:
    def test_su2_examples(self, su2):
        assert ls.lambda1_restricted(su2, np.eye(3), 2) == pytest.approx(8.0)
        assert math.isinf(ls.lambda1_restricted(su2, np.eye(3), 3))
        assert ls.lambda1_restricted(su2, np.eye(3), 1) == pytest.approx(3.0)

    def test_any_line_gives_eight(self, su2):
        rng = np.random.default_rng(25)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert ls.lambda1_restricted(su2, q, 2) == pytest.approx(8.0)

    def test_sandwich(self, su2):
        # Certified gap of a sorted-presentation metric never exceeds the
        # restricted gap times sigma_k^2 at k = 2.
        rng = np.random.default_rng(26)
        for _ in range(25):
            from liespec.metric_space import random_rotation
            P = random_rotation(3, rng)
            d = np.sort(rng.uniform(0.3, 3.0, 3))[::-1]
            spec = ls.metric_from_matrix(P @ np.diag(d))
            lam = ls.lambda1_certified(su2, spec).lambda1
            bound = ls.lambda1_restricted(su2, P, 2) * spec.sigma[1] ** 2
            assert lam <= bound + 1e-9 * max(1.0, bound)

    def test_bad_k(self, su2):
        with pytest.raises(ValueError):
            ls.lambda1_restricted(su2, np.eye(3), 0)

    def test_block_frame_through_rounding(self, su2xsu2):
        # A line in the first factor leaves pair(spin(0),spin(1/2)), Casimir
        # 3, invariant.  Rotating the block frame away and back puts entries
        # of 1.3e-16 outside the block.
        rng = np.random.default_rng(0)
        B = np.zeros((6, 6))
        B[:3, :3], B[3:, 3:] = random_rotation(3, rng), random_rotation(3, rng)
        R = random_rotation(6, rng)
        P = (B @ R) @ R.T
        assert np.abs(P[3:, 0]).max() > 0.0
        assert ls.lambda1_restricted(su2xsu2, B, 2) == 3.0
        assert ls.lambda1_restricted(su2xsu2, P, 2) == 3.0

    @pytest.mark.parametrize("prefix", [
        [(1, 1)], [(1, 2)], [(3, -2)], [(1, 2, 3)], [(0, 0, 1)], [(2, -1, 1)],
        [(1, 2, 3), (1, 0, -1)], [(1, 1, 1, 1)], [(1, -2, 3, 1)],
        [(1, 1, 0, 0), (0, 1, 1, 1)],
    ], ids=str)
    def test_torus_rational_prefix_matches_brute_force(self, prefix):
        # The characters killed by a rational prefix are the integer n
        # orthogonal to its integer spanning vectors.
        m, k = len(prefix[0]), len(prefix) + 1
        radius = {2: 13, 3: 6, 4: 4}[m]
        want = min(sum(x * x for x in n)
                   for n in itertools.product(range(-radius, radius + 1), repeat=m)
                   if any(n) and all(np.dot(n, v) == 0 for v in prefix))
        got = ls.lambda1_restricted(ls.torus_entry(m), frame_from(*prefix), k)
        assert got == pytest.approx(FOUR_PI_SQ * want, rel=1e-12)

    def test_torus_dense_prefix_gives_up(self):
        # The golden line on t2 and (1, sqrt 2, sqrt 3) on t3 kill no
        # character: the search stops at its cutoff instead of running on.
        frames = [frame_from((1.0, (1.0 + math.sqrt(5.0)) / 2.0)).tolist(),
                  frame_from((1.0, math.sqrt(2.0), math.sqrt(3.0))).tolist()]
        out = run_isolated(
            f"for P in {frames!r}:\n"
            "    try:\n"
            "        ls.lambda1_restricted(ls.torus_entry(len(P)), np.array(P), 2)\n"
            "    except RuntimeError as exc:\n"
            "        print('gave up:', exc)\n")
        assert out.returncode == 0, out.stderr
        assert out.stdout.count("gave up: no invariant vector found below Casimir 1e+06") == 2


class TestSpectralBounds:
    def test_loewner_monotonicity(self, su2, t2):
        rng = np.random.default_rng(27)
        for entry in (su2, t2):
            for _ in range(25):
                a = ls.sample_metric(entry, 0.3, 3.0, seed=int(rng.integers(1 << 30)))
                v = rng.standard_normal(entry.dim)
                b = ls.metric_from_matrix(np.linalg.cholesky(a.AAt + np.outer(v, v)))
                la = ls.lambda1_certified(entry, a).lambda1
                lb = ls.lambda1_certified(entry, b).lambda1
                assert la <= lb + 1e-9 * max(1.0, lb)

    def test_simple_bounds_and_urakawa(self, su2, so3):
        for entry, lam_i in ((su2, 3.0), (so3, 8.0)):
            for seed in range(30):
                spec = ls.sample_metric(entry, 0.2, 5.0, seed=seed)
                lam = ls.lambda1_certified(entry, spec).lambda1
                s1, sm = spec.sigma[0], spec.sigma[-1]
                tol = 1e-9 * max(1.0, lam_i * s1 * s1)
                assert lam_i * sm * sm - tol <= lam <= lam_i * s1 * s1 + tol
                tr = float(np.trace(spec.AAt))
                assert lam <= lam_i * tr + tol
                assert s1 * s1 <= tr + tol  # the simple bound dominates the trace bound

    def test_homothety(self, su2):
        spec = ls.sample_metric(su2, 0.5, 2.0, seed=3)
        lam = ls.lambda1_certified(su2, spec).lambda1
        for t in (0.25, 4.0):
            lam_t = ls.lambda1_certified(
                su2, ls.metric_from_matrix(t * spec.A)).lambda1
            assert lam_t == pytest.approx(t * t * lam, rel=1e-9)
