"""Metric parameterisation, canonical form, Loewner order, samplers, matrix files."""

import io
import math
import warnings

import numpy as np
import pytest

import liespec as ls
from liespec.metric_space import parse_matrix_text, random_rotation


class TestMetricFromMatrix:
    def test_diagonal(self):
        spec = ls.metric_from_matrix(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(spec.sigma, [3.0, 2.0, 1.0])
        assert np.allclose(spec.P_sort, np.eye(3))
        assert np.allclose(spec.gram, np.diag([1 / 9, 1 / 4, 1.0]))

    def test_identity_keeps_basis_order(self):
        # Tied eigenvalues keep their column order, so P_sort is exactly I.
        for m in (3, 6):
            spec = ls.metric_from_matrix(np.eye(m))
            assert np.array_equal(spec.P_sort, np.eye(m))
            assert np.array_equal(spec.sigma, np.ones(m))

    def test_column_sign_convention(self):
        # The largest-magnitude entry of each P_sort column (the first on a
        # tie) is positive, and no entry is -0.
        rng = np.random.default_rng(4)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            spec = ls.metric_from_matrix(rng.standard_normal((m, m)) + 2 * np.eye(m))
            P = spec.P_sort
            lead = P[np.argmax(np.abs(P), axis=0), np.arange(m)]
            assert np.all(lead > 0)
            assert not np.any(np.signbit(P) & (P == 0))
            assert np.allclose(P @ np.diag(spec.sigma ** 2) @ P.T, spec.AAt)
        spec = ls.metric_from_matrix([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
        assert np.array_equal(spec.P_sort[:, 0], [0.0, 0.0, 1.0])
        assert not np.any(np.signbit(spec.P_sort[2]))
        # Both columns tie in magnitude; the first entry is the positive one.
        P = ls.metric_from_matrix(np.array([[2.0, 1.0], [1.0, 2.0]])).P_sort
        r = math.sqrt(0.5)
        assert np.allclose(P, [[r, r], [r, -r]], rtol=0, atol=1e-15)

    def test_tiny_offdiagonal_reconstruction(self):
        # Off-diagonal mass near the cancellation floor of a norm-difference
        # test must still be resolved by the eigendecomposition.
        rng = np.random.default_rng(2)
        sig = np.exp(rng.uniform(math.log(0.2), math.log(5.0), 3))
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        A = (q * np.sign(np.diag(r))) @ np.diag(np.sort(sig)[::-1])
        spec = ls.metric_from_matrix(A)
        recon = spec.P_sort @ np.diag(spec.sigma ** 2) @ spec.P_sort.T
        assert np.linalg.norm(spec.AAt - recon) <= 1e-12 * np.linalg.norm(spec.AAt)

    def test_singular_values_from_svd_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            A = rng.standard_normal((m, m))
            if abs(np.linalg.det(A)) < 1e-3:
                continue
            spec = ls.metric_from_matrix(A)
            assert np.allclose(spec.sigma, np.linalg.svd(A, compute_uv=False),
                               atol=1e-10)
            assert np.allclose(spec.gram @ spec.AAt, np.eye(m), atol=1e-9)

    def test_homothety(self):
        base = ls.metric_from_matrix(np.eye(3))
        scaled = ls.metric_from_matrix(2.5 * np.eye(3))
        assert np.allclose(scaled.gram, base.gram / 2.5 ** 2)
        assert np.allclose(scaled.sigma, 2.5 * base.sigma)

    def test_singular_rejected(self):
        with pytest.raises(ls.SingularMatrixError):
            ls.metric_from_matrix(np.diag([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("key, c", [("su2xsu2", 1e60), ("su2xsu2", 1e-60),
                                        ("su2", 1e-110), ("t4", 1e-90)])
    def test_extreme_homothety_accepted(self, key, c):
        # The singularity test is scale-free: det(c I) over- or underflows
        # here, det(I) does not.
        entry = ls.entry_from_key(key)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = ls.metric_from_matrix(c * np.eye(entry.dim))
            gap = ls.lambda1_certified(entry, spec).lambda1
        assert gap == pytest.approx(c * c * ls.biinvariant_lambda1(entry), rel=1e-12)
        with pytest.raises(ls.SingularMatrixError):
            ls.metric_from_matrix(c * np.diag([1.0] * (entry.dim - 1) + [1e-12]))

    def test_nan_rejected(self):
        with pytest.raises(ls.MatrixFormatError):
            ls.metric_from_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestCanonicalForm:
    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            A = rng.standard_normal((3, 3))
            if abs(np.linalg.det(A)) < 1e-3:
                continue
            spec = ls.metric_from_matrix(A)
            P, D = ls.canonical_form(spec)
            again = ls.metric_from_matrix(P @ D)
            scale = max(1.0, float(np.max(np.abs(spec.gram))))
            assert np.max(np.abs(again.gram - spec.gram)) <= 1e-9 * scale
            # sigma is presentation-free
            assert np.allclose(again.sigma, spec.sigma,
                               atol=1e-10 * max(1.0, spec.sigma[0]))

    def test_right_orthogonal_invariance(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4)) + 2 * np.eye(4)
        spec = ls.metric_from_matrix(A)
        for _ in range(50):
            R = random_rotation(4, rng)
            other = ls.metric_from_matrix(A @ R)
            assert np.max(np.abs(other.gram - spec.gram)) <= 1e-9

    def test_orthogonal_input_gives_identity_metric(self):
        rng = np.random.default_rng(6)
        R = random_rotation(3, rng)
        spec = ls.metric_from_matrix(R)
        assert np.allclose(spec.sigma, 1.0)
        assert np.allclose(spec.gram, np.eye(3), atol=1e-12)

    def test_repeated_sigma_consistent(self):
        # Ties make the sorting rotation non-unique; sigma itself must not
        # depend on the choice.
        spec = ls.metric_from_matrix(np.diag([2.0, 2.0, 1.0]))
        P, D = ls.canonical_form(spec)
        assert np.allclose(np.diag(D), [2.0, 2.0, 1.0])
        assert np.allclose(ls.metric_from_matrix(P @ D).sigma, spec.sigma)


class TestLoewner:
    def test_examples(self):
        a = ls.metric_from_matrix(np.eye(2))
        b = ls.metric_from_matrix(2 * np.eye(2))
        assert ls.loewner_leq(a, b)
        assert not ls.loewner_leq(b, a)
        c = ls.metric_from_matrix(np.diag([2.0, 1.0]))
        d = ls.metric_from_matrix(np.diag([1.0, 2.0]))
        assert not ls.loewner_leq(c, d)
        assert not ls.loewner_leq(d, c)

    def test_rank_one_bump(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            A = rng.standard_normal((3, 3)) + 2 * np.eye(3)
            v = rng.standard_normal(3)
            B = np.linalg.cholesky(A @ A.T + np.outer(v, v))
            assert ls.loewner_leq(ls.metric_from_matrix(A), ls.metric_from_matrix(B))

    def test_length_monotonicity(self):
        rng = np.random.default_rng(8)
        a = ls.metric_from_matrix(rng.standard_normal((3, 3)) + 2 * np.eye(3))
        v = rng.standard_normal(3)
        b = ls.metric_from_matrix(np.linalg.cholesky(a.AAt + np.outer(v, v)))
        X = rng.standard_normal((100, 3))
        qa = np.einsum("ni,ij,nj->n", X, a.gram, X)
        qb = np.einsum("ni,ij,nj->n", X, b.gram, X)
        assert np.all(qa >= qb - 1e-9 * np.maximum(1.0, qb))


class TestSampler:
    def test_deterministic(self, su2):
        a = ls.sample_metric(su2, 0.2, 5.0, seed=42)
        b = ls.sample_metric(su2, 0.2, 5.0, seed=42)
        assert np.array_equal(a.A, b.A)

    def test_degenerate_range(self, su2):
        spec = ls.sample_metric(su2, 1.0, 1.0, seed=0)
        assert np.allclose(spec.sigma, 1.0)
        assert np.allclose(spec.gram, np.eye(3), atol=1e-12)

    def test_sigma_spread_statistics(self, t2):
        ratios = [ls.sample_metric(t2, 0.1, 10.0, seed=s).sigma for s in range(10_000)]
        ratios = np.array([s[0] / s[1] for s in ratios])
        assert ratios.min() < 1.5
        assert ratios.max() > 30.0
        assert np.all(ratios >= 1.0)

    def test_invalid_range(self, su2):
        with pytest.raises(ValueError):
            ls.sample_metric(su2, 0.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            ls.sample_metric(su2, 2.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            ls.sample_metric(su2, 1.0, math.inf, seed=0)


class TestMatrixFiles:
    def test_roundtrip(self, tmp_path):
        A = np.array([[1.5, 0.25], [-0.75, 2.0]])
        path = tmp_path / "a.mat"
        ls.write_matrix(str(path), A)
        assert np.array_equal(ls.read_matrix(str(path)), A)

    def test_format(self):
        text = "2\n1 0\n0 1\n"
        assert np.array_equal(parse_matrix_text(text), np.eye(2))

    def test_rejects_nan_and_shape(self):
        with pytest.raises(ls.MatrixFormatError):
            parse_matrix_text("2\n1 nan\n0 1\n")
        with pytest.raises(ls.MatrixFormatError):
            parse_matrix_text("2\n1 0 0\n0 1 0\n")
        with pytest.raises(ls.MatrixFormatError):
            parse_matrix_text("3\n1 0\n0 1\n")
        with pytest.raises(ls.MatrixFormatError):
            parse_matrix_text("")

    def test_inline_format_and_size(self):
        assert np.array_equal(parse_matrix_text("1, 2 3,4", 2), [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(parse_matrix_text("2\n1 0\n0 1\n", 2), np.eye(2))
        for text, m in (("1,2,3", 2), ("1,2,3,4", None), ("1,inf,0,1", 2),
                        ("1,x,0,1", 2), ("2\n1 0\n0 1\n", 3)):
            with pytest.raises(ls.MatrixFormatError):
                parse_matrix_text(text, m)

    def test_write_to_stream(self):
        buf = io.StringIO()
        ls.write_matrix(buf, np.eye(2))
        assert buf.getvalue().splitlines()[0] == "2"
