"""Catalog, brackets, generated subalgebras, quaternion helpers."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

import liespec as ls
from liespec import lie_core
from liespec.lie_core import (RANK_TOL, _numerical_rank, prefix_subalgebra_dims, quat_conj,
                              quat_log, quat_mul, so3_representative)

# Spin-1/2 matrices built here from Pauli matrices, independent of the
# package's ladder construction; they realise the same bracket convention.
PAULI = [np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex)]
SPIN_HALF = [-1j * s for s in PAULI]


# The quaternion helpers in vector form, as they were before they were
# written component by component: the oracle for every bit they return.
def quat_mul_vector_form(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w = a[..., :1] * b[..., :1] - np.sum(a[..., 1:] * b[..., 1:], axis=-1, keepdims=True)
    v = (a[..., :1] * b[..., 1:] + b[..., :1] * a[..., 1:]
         + np.cross(a[..., 1:], b[..., 1:]))
    return np.concatenate([w, v], axis=-1)


def quat_conj_vector_form(q):
    q = np.asarray(q, dtype=float)
    return np.concatenate([q[..., :1], -q[..., 1:]], axis=-1)


def quat_log_vector_form(q, so3=False):
    q = so3_representative(q) if so3 else np.asarray(q, dtype=float)
    w = q[..., 0]
    u = q[..., 1:]
    s = np.linalg.norm(u, axis=-1)
    theta = np.arctan2(s, w)
    fac = np.where(s > 1e-15, theta / np.maximum(s, 1e-300), 0.0)
    v = fac[..., None] * u
    antipodal = (s <= 1e-15) & (w < 0)
    if np.any(antipodal):
        v[antipodal] = np.array([math.pi, 0.0, 0.0])
    return v


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# Components that hit the branches of the helpers: signed zeros, the unit
# real parts of the identity and the antipode, and |u| on either side of
# the 1e-15 cut of quat_log.
EDGE_COMPONENTS = (0.0, -0.0, 1.0, -1.0, 1e-15, -1e-15, math.nextafter(1e-15, 1.0),
                   math.nextafter(1e-15, 0.0), 6e-16, 1e-300, 0.5)
COMPONENTS = st.one_of(st.floats(-2.0, 2.0, allow_subnormal=False),
                       st.sampled_from(EDGE_COMPONENTS))


@st.composite
def quaternion_pairs(draw):
    """Two quaternion arrays of mutually broadcastable leading shapes."""
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=4))
    return tuple(draw(hnp.arrays(float, shape + (4,), elements=COMPONENTS))
                 for shape in shapes.input_shapes)


def exact_closure_dim(entry, vectors):
    """Bracket-closure dimension via exact rational row reduction."""
    c = entry.structure_constants

    def rref(rows):
        rows = [list(r) for r in rows]
        pivots = []
        col = 0
        r = 0
        while r < len(rows) and col < entry.dim:
            piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
            if piv is None:
                col += 1
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            lead = rows[r][col]
            rows[r] = [x / lead for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][col] != 0:
                    f = rows[i][col]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            pivots.append(col)
            r += 1
            col += 1
        return [row for row in rows if any(x != 0 for x in row)]

    basis = rref([[Fraction(x) for x in v] for v in vectors])
    while True:
        new = list(basis)
        for u in basis:
            for v in basis:
                br = [sum(u[i] * v[j] * Fraction(c[i, j, k]).limit_denominator()
                          for i in range(entry.dim) for j in range(entry.dim))
                      for k in range(entry.dim)]
                new.append(br)
        new = rref(new)
        if len(new) == len(basis):
            return len(basis)
        basis = new


def catalog_entries():
    su2, so3 = ls.su2_entry(), ls.so3_entry()
    return ([ls.torus_entry(m) for m in (1, 2, 3, 4)] + [su2, so3]
            + [ls.product_entry(f) for f in ([su2, su2], [su2, so3], [so3, su2], [so3, so3])])


class TestCatalog:
    def test_structure_invariants_hold(self):
        for entry in catalog_entries():
            c = entry.structure_constants
            assert c.shape == (entry.dim,) * 3 and not c.flags.writeable
            assert np.max(np.abs(c + np.swapaxes(c, 0, 1))) <= 1e-12
            assert np.max(np.abs(c + np.swapaxes(c, 1, 2))) <= 1e-12
            t = np.einsum("ijl,lkr->ijkr", c, c)
            jac = (t + np.einsum("jkl,lir->ijkr", c, c)
                   + np.einsum("kil,ljr->ijkr", c, c))
            assert np.max(np.abs(jac)) <= 1e-12

    def test_su2_constants_match_spin_half_commutators(self):
        # [S_i, S_j] = sum_k c_ij^k S_k in the independently built spin-1/2
        # matrices, and each factor of a product is an su2 block.
        for entry in (ls.su2_entry(), ls.so3_entry()):
            c = entry.structure_constants
            for i in range(3):
                for j in range(3):
                    comm = SPIN_HALF[i] @ SPIN_HALF[j] - SPIN_HALF[j] @ SPIN_HALF[i]
                    assert np.allclose(comm, sum(c[i, j, k] * SPIN_HALF[k] for k in range(3)),
                                       rtol=0, atol=1e-12)
        for entry in (e for e in catalog_entries() if e.kind == "product"):
            c = entry.structure_constants
            for block in (slice(0, 3), slice(3, 6)):
                assert np.array_equal(c[block, block, block], ls.su2_entry().structure_constants)
            c = c.copy()
            c[:3, :3, :3] = c[3:, 3:, 3:] = 0.0
            assert not np.any(c)

    def test_derived_fields_are_not_inputs(self, su2):
        with pytest.raises(TypeError):
            ls.LieGroupCatalogEntry("su2", 3, structure_constants=su2.structure_constants)
        with pytest.raises(TypeError):
            ls.LieGroupCatalogEntry("su2", 3, k_max=7)
        with pytest.raises(TypeError):
            ls.LieGroupCatalogEntry("torus", 3, (), 3)

    def test_kind_dim_and_factors_are_checked(self, su2):
        bad = [(("foo", 3), "unknown group kind"),
               (("torus", 0), "torus dimension must be >= 1"),
               (("su2", 4), "su2 has dimension 3, not 4"),
               (("so3", 6), "so3 has dimension 3, not 6"),
               (("product", 9, (su2, su2)), "product has dimension 6, not 9"),
               (("su2", 3, (su2,)), "only a product has factors"),
               (("torus", 3, (su2,)), "only a product has factors")]
        for args, message in bad:
            with pytest.raises(ValueError, match=message):
                ls.LieGroupCatalogEntry(*args)
        with pytest.raises(ValueError, match="torus dimension must be >= 1"):
            ls.torus_entry(0)

    def test_equal_entries_compare_and_hash_equal(self):
        for a, b in zip(catalog_entries(), catalog_entries()):
            assert a == b and hash(a) == hash(b)
        su2, so3 = ls.su2_entry(), ls.so3_entry()
        assert ls.product_entry([su2, so3]) != ls.product_entry([so3, su2])
        assert su2 != so3
        assert len(set(catalog_entries())) == 10

    def test_k_max_catalog(self, su2, so3, su2xsu2):
        assert su2.k_max == 2
        assert so3.k_max == 2
        assert su2xsu2.k_max == 5
        for m in (1, 2, 3, 4):
            assert ls.torus_entry(m).k_max == m
        assert ls.su_n_k_max(2) == 2
        assert ls.su_n_k_max(3) == 5

    def test_mixed_products_rejected(self):
        with pytest.raises(ValueError):
            ls.product_entry([ls.su2_entry(), ls.torus_entry(1)])

    def test_product_is_two_spin_factors_with_k_max_5(self):
        su2, so3 = ls.su2_entry(), ls.so3_entry()
        for factors in ([su2, su2], [su2, so3], [so3, su2], [so3, so3]):
            entry = ls.product_entry(factors)
            assert (entry.kind, entry.dim, entry.k_max) == ("product", 6, 5)
        for factors in ([su2, so3, su2], [ls.torus_entry(2), ls.torus_entry(1)],
                        [su2, ls.torus_entry(1)], [su2], []):
            with pytest.raises(ValueError, match="exactly two su2/so3 factors"):
                ls.product_entry(factors)
        with pytest.raises(TypeError):
            ls.product_entry([su2, so3], k_max=2)

    def test_hand_built_products_are_checked(self, su2, su2xsu2):
        with pytest.raises(ValueError, match="exactly two su2/so3 factors"):
            ls.LieGroupCatalogEntry("product", 9, (su2xsu2, su2))
        with pytest.raises(ValueError, match="exactly two su2/so3 factors"):
            ls.LieGroupCatalogEntry("product", 6, (su2, "su2"))
        assert ls.LieGroupCatalogEntry("product", 6, [su2, su2]) == su2xsu2

    def test_entry_from_key(self):
        assert ls.entry_from_key("t2").dim == 2
        assert ls.entry_from_key("t4").dim == 4
        assert ls.entry_from_key("su2xsu2").dim == 6
        # Only the tori the commands document; ``torus_entry`` builds any rank.
        for key in ("e8", "t0", "t5", "t200"):
            with pytest.raises(ValueError, match="unknown group key"):
                ls.entry_from_key(key)


class TestBracket:
    def test_su2_convention(self, su2):
        e = np.eye(3)
        assert np.allclose(ls.bracket(su2, e[0], e[1]), 2 * e[2])
        assert np.allclose(ls.bracket(su2, e[1], e[2]), 2 * e[0])
        assert np.allclose(ls.bracket(su2, e[2], e[0]), 2 * e[1])

    def test_matches_spin_half_commutators(self, su2):
        # The bracket must agree with matrix commutators in an independently
        # built faithful representation.
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y = rng.standard_normal((2, 3))
            mx = sum(a * g for a, g in zip(x, SPIN_HALF))
            my = sum(a * g for a, g in zip(y, SPIN_HALF))
            br = ls.bracket(su2, x, y)
            mbr = sum(a * g for a, g in zip(br, SPIN_HALF))
            assert np.allclose(mx @ my - my @ mx, mbr, atol=1e-12)

    def test_alternating_and_torus(self, su2, t3):
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((2, 3))
        assert np.allclose(ls.bracket(su2, x, x), 0.0)
        assert np.allclose(ls.bracket(t3, x, y), 0.0)

    def test_dimension_mismatch(self, su2):
        with pytest.raises(ValueError):
            ls.bracket(su2, np.ones(4), np.ones(3))


class TestGeneratedSubalgebra:
    def test_su2_dims(self, su2):
        e = np.eye(3)
        assert ls.generated_subalgebra(su2, [e[0]]).shape == (1, 3)
        assert ls.generated_subalgebra(su2, [e[0], e[1]]).shape == (3, 3)

    def test_matches_exact_closure(self, su2, su2xsu2):
        rng = np.random.default_rng(5)
        for entry in (su2, su2xsu2):
            for _ in range(10):
                k = int(rng.integers(1, 3))
                vecs = rng.integers(-2, 3, size=(k, entry.dim)).astype(float)
                if not np.any(vecs):
                    continue
                got = ls.generated_subalgebra(entry, vecs).shape[0]
                assert got == exact_closure_dim(entry, vecs)

    def test_torus_is_span(self, t3):
        rng = np.random.default_rng(6)
        vecs = rng.standard_normal((2, 3))
        assert ls.generated_subalgebra(t3, vecs).shape[0] == 2

    def test_closure_under_bracket(self, su2xsu2):
        rng = np.random.default_rng(7)
        basis = ls.generated_subalgebra(su2xsu2, rng.standard_normal((2, 6)))
        for u in basis:
            for v in basis:
                br = ls.bracket(su2xsu2, u, v)
                resid = br - basis.T @ (basis @ br)
                assert np.linalg.norm(resid) <= 1e-9 * max(1.0, np.linalg.norm(br))

    def test_monotone_in_generators(self, su2xsu2):
        rng = np.random.default_rng(8)
        for _ in range(20):
            big = rng.standard_normal((3, 6))
            small = big[:2]
            assert (ls.generated_subalgebra(su2xsu2, small).shape[0]
                    <= ls.generated_subalgebra(su2xsu2, big).shape[0])

    def test_empty_rejected(self, su2):
        with pytest.raises(ValueError):
            ls.generated_subalgebra(su2, [])


class TestNumericalRank:
    def test_empty_and_zero_have_rank_zero(self):
        assert _numerical_rank(np.zeros(0)) == 0
        assert _numerical_rank(np.zeros(3)) == 0

    def test_cut_is_strict_and_relative_to_the_largest(self):
        for top in (4.0, 1e-200, 1e200):
            cut = RANK_TOL * top
            s = np.array([top, np.nextafter(cut, np.inf), cut, np.nextafter(cut, 0.0), 0.0])
            assert _numerical_rank(s) == 2
            assert _numerical_rank(s[:1]) == 1

    def test_subalgebras_and_invariant_vectors_share_the_rule(self, su2, monkeypatch):
        # No singular value exceeds twice the largest, so every rank is 0.
        monkeypatch.setattr(lie_core, "RANK_TOL", 2.0)
        assert ls.generated_subalgebra(su2, np.eye(3)).shape == (0, 3)
        assert ls.invariant_dim(ls.spin_irrep(1), np.eye(3)) == 3


class TestBracketGenerating:
    def test_examples(self, su2, su2xsu2):
        e3, e6 = np.eye(3), np.eye(6)
        assert ls.is_bracket_generating(su2, [e3[0], e3[1]])
        assert not ls.is_bracket_generating(su2, [e3[2]])
        assert not ls.is_bracket_generating(su2xsu2, [e6[0], e6[1]])

    def test_random_generic_pairs_generate(self, su2):
        rng = np.random.default_rng(9)
        count = 0
        while count < 100:
            u, v = rng.standard_normal((2, 3))
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            if abs(u @ v) > 0.99:  # reject near-collinear samples
                continue
            count += 1
            assert ls.is_bracket_generating(su2, [u, v])


class TestEllIndex:
    def test_examples(self, su2, t3, su2xsu2):
        assert ls.ell_index(su2, np.eye(3)) == 2
        assert ls.ell_index(t3, np.eye(3)) == 3
        assert ls.ell_index(su2xsu2, np.eye(6)) == 5
        assert prefix_subalgebra_dims(su2xsu2, np.eye(6)) == [1, 3, 3, 4, 6, 6]

    def test_torus_any_rotation(self, t3):
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert ls.ell_index(t3, q) == 3

    def test_non_orthogonal_rejected(self, su2):
        with pytest.raises(ValueError):
            ls.ell_index(su2, np.diag([2.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="P must be orthogonal"):
            prefix_subalgebra_dims(su2, 2.0 * np.eye(3))

    def test_matches_first_generating_prefix(self, su2, t3, su2xsu2):
        # Reference: the loop that stops at the first bracket-generating
        # column prefix.
        def first_generating_prefix(entry, P):
            for k in range(1, entry.dim + 1):
                if ls.is_bracket_generating(entry, P[:, :k].T):
                    return k

        rng = np.random.default_rng(17)
        for entry in (su2, su2xsu2, t3):
            rotations = [np.eye(entry.dim)]
            rotations += [np.linalg.qr(rng.standard_normal((entry.dim,) * 2))[0]
                          for _ in range(20)]
            for P in rotations:
                assert ls.ell_index(entry, P) == first_generating_prefix(entry, P)

    def test_invariant_under_block_factor(self, su2xsu2):
        # Right-multiplying by blockdiag(Q1, 1, Q2) at the split index must
        # not change the index.
        rng = np.random.default_rng(11)
        P, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        k = ls.ell_index(su2xsu2, P)
        q1, _ = np.linalg.qr(rng.standard_normal((k - 1, k - 1)))
        q2, _ = np.linalg.qr(rng.standard_normal((6 - k, 6 - k)))
        Q = np.eye(6)
        Q[:k - 1, :k - 1] = q1
        Q[k:, k:] = q2
        assert ls.ell_index(su2xsu2, P @ Q) == k


class TestGroupArithmetic:
    def test_exp_log_roundtrip(self):
        # q = (cos|v|, sin|v| v/|v|) is the closed-form exp of v; SO(3) reads
        # -q as the same rotation.
        rng = np.random.default_rng(13)
        for so3, scale in ((False, 2.8), (True, 1.4)):
            v = rng.uniform(-1, 1, (25, 3))
            v *= rng.uniform(0.05, scale, (25, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
            t = np.linalg.norm(v, axis=1, keepdims=True)
            q = np.hstack([np.cos(t), np.sin(t) / t * v])
            back = quat_log(-q if so3 else q, so3=so3)
            assert np.allclose(back, v, rtol=0, atol=1e-10)

    def test_quaternion_helpers_broadcast(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((5, 4))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        prod = quat_mul(a, quat_conj(a))
        assert np.allclose(prod[:, 0], 1.0) and np.allclose(prod[:, 1:], 0.0)

    @given(pair=quaternion_pairs())
    @example(pair=(np.array([1.0, 0.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0, 0.0])))
    @example(pair=(np.array([[1.0, -0.0, -0.0, -0.0], [-0.0, -0.0, -0.0, -0.0]]),
                   np.array([[-0.0, 0.0, -0.0, 0.0], [-1.0, -0.0, 0.0, -0.0]])))
    @example(pair=(np.array([[-0.5, 1e-15, 0.0, 0.0], [-0.5, 6e-16, -6e-16, 6e-16]]),
                   np.array([[-1.0, math.nextafter(1e-15, 1.0), 0.0, 0.0]])))
    def test_helpers_match_the_vector_form_bit_for_bit(self, pair):
        a, b = pair
        assert same_bits(quat_mul(a, b), quat_mul_vector_form(a, b))
        assert same_bits(quat_mul(b, a), quat_mul_vector_form(b, a))
        for q in (a, b):
            assert same_bits(quat_conj(q), quat_conj_vector_form(q))
            for so3 in (False, True):
                assert same_bits(quat_log(q, so3=so3), quat_log_vector_form(q, so3=so3))

    def test_so3_stored_with_nonnegative_real_part(self):
        q = so3_representative(np.array([-1e-15, 0.6, 0.8, 0.0]))
        assert q[0] >= 0
        assert np.array_equal(q, [1e-15, -0.6, -0.8, 0.0])
        half_turn = so3_representative(np.array([0.0, -1.0, 0.0, 0.0]))
        assert half_turn.tolist() == [0.0, -1.0, 0.0, 0.0]
        assert not np.any(np.signbit(half_turn[[0, 2, 3]]))

