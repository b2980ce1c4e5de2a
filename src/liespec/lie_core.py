"""Catalog of supported compact groups: brackets, subalgebras, quaternions.

Every group is a `LieGroupCatalogEntry`: its kind, dimension and factors.
The structure constants of its Lie algebra in a fixed orthonormal basis, and
its k_max, are derived from the kind.  The catalog covers flat tori T^m, the
unit quaternions SU(2), the rotation group SO(3) (unit quaternions modulo
sign), and products of two SU(2)/SO(3) factors.

Conventions baked into the catalog:

* su(2) basis: [X1,X2] = 2*X3, [X2,X3] = 2*X1, [X3,X1] = 2*X2, i.e. the
  basis vectors act like the imaginary quaternion units i, j, k under the
  commutator.  The reference inner product makes {X1,X2,X3} orthonormal.
* Torus: exp(t*X_j) is the closed loop of period 1 in the j-th circle factor,
  so points are coordinate vectors in [0,1)^m.
* SO(3) shares the su(2) structure constants; points are unit quaternions
  with q and -q identified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "LieGroupCatalogEntry",
    "torus_entry",
    "su2_entry",
    "so3_entry",
    "product_entry",
    "entry_from_key",
    "su_n_k_max",
    "bracket",
    "generated_subalgebra",
    "is_bracket_generating",
    "ell_index",
    "quat_mul",
    "quat_conj",
    "quat_log",
    "so3_representative",
]

# Every rank decision (``_numerical_rank``) uses this relative singular-value cut.
RANK_TOL = 1e-9


def su_n_k_max(n: int) -> int:
    """Largest-proper-subgroup index for SU(n): n^2 - 2n + 2."""
    return n * n - 2 * n + 2


@dataclass(frozen=True)
class LieGroupCatalogEntry:
    """One supported group, fixed by its kind, dimension and factors.

    A torus of any rank ``dim >= 1``, su2 or so3 of dimension 3, or a
    product of two su2/so3 ``factors`` of dimension 6; anything else is
    refused.  ``structure_constants`` and ``k_max`` are derived from these
    three fields, so equal entries compare and hash equal, and an entry
    pickles as its three fields.
    """

    kind: str  # 'torus' | 'su2' | 'so3' | 'product'
    dim: int
    factors: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        expected = {"torus": self.dim, "su2": 3, "so3": 3, "product": 6}.get(self.kind)
        if expected is None:
            raise ValueError(f"unknown group kind: {self.kind!r}")
        if self.kind == "product":
            if len(self.factors) != 2 or not all(
                    isinstance(f, LieGroupCatalogEntry) and f.kind in ("su2", "so3")
                    for f in self.factors):
                raise ValueError("a product has exactly two su2/so3 factors")
        elif self.factors:
            raise ValueError(f"only a product has factors, not {self.kind}")
        if self.kind == "torus" and not self.dim >= 1:
            raise ValueError("torus dimension must be >= 1")
        if self.dim != expected:
            raise ValueError(f"{self.kind} has dimension {expected}, not {self.dim}")

    @property
    def structure_constants(self) -> np.ndarray:
        """``[i, j, k]`` is the coefficient of the k-th basis vector in [X_i, X_j].

        Zero for a torus, the su2 brackets for su2 and so3, and the factors'
        blocks on the diagonal for a product; read-only, built on each read.
        """
        m = self.dim
        c = np.zeros((m, m, m))
        if self.kind in ("su2", "so3"):
            for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                c[i, j, k] = 2.0
                c[j, i, k] = -2.0
        off = 0
        for f in self.factors:
            d = f.dim
            c[off:off + d, off:off + d, off:off + d] = f.structure_constants
            off += d
        c.flags.writeable = False
        return c

    @property
    def k_max(self) -> int:
        """1 plus the largest dimension of a proper closed subgroup."""
        return {"torus": self.dim, "product": 5}.get(self.kind, 2)

    @property
    def name(self) -> str:
        if self.kind == "torus":
            return f"t{self.dim}"
        if self.kind == "product":
            return "x".join(f.name for f in self.factors)
        return self.kind


def torus_entry(m: int) -> LieGroupCatalogEntry:
    return LieGroupCatalogEntry("torus", m)


def su2_entry() -> LieGroupCatalogEntry:
    return LieGroupCatalogEntry("su2", 3)


def so3_entry() -> LieGroupCatalogEntry:
    return LieGroupCatalogEntry("so3", 3)


def product_entry(factors: Sequence[LieGroupCatalogEntry]) -> LieGroupCatalogEntry:
    """Direct product of two su2/so3 factors, with k_max = 5.

    Anything else, tori and three or more factors included, is refused;
    ``torus_entry`` builds tori of any rank.
    """
    return LieGroupCatalogEntry("product", 6, tuple(factors))


def entry_from_key(key: str) -> LieGroupCatalogEntry:
    """Resolve a CLI-style group key: 't1' to 't4', 'su2', 'so3' or 'su2xsu2'."""
    key = key.strip().lower()
    if key == "su2":
        return su2_entry()
    if key == "so3":
        return so3_entry()
    if key == "su2xsu2":
        return product_entry([su2_entry(), su2_entry()])
    if key in ("t1", "t2", "t3", "t4"):
        return torus_entry(int(key[1:]))
    raise ValueError(f"unknown group key: {key!r}")


# ---------------------------------------------------------------------------
# Algebra operations
# ---------------------------------------------------------------------------

def bracket(entry: LieGroupCatalogEntry, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Lie bracket of coefficient vectors: [X, Y]_k = sum_ij X_i Y_j c_{ij}^k."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != (entry.dim,) or Y.shape != (entry.dim,):
        raise ValueError("bracket arguments must be m-vectors")
    return np.einsum("i,j,ijk->k", X, Y, entry.structure_constants)


def _numerical_rank(s: np.ndarray, scale: float = 0.0) -> int:
    """The count of singular values s (descending) above RANK_TOL times the larger of
    the largest and ``scale``, the size of the matrix if no entry had cancelled."""
    return int(np.sum(s > RANK_TOL * max(s[0] if s.size else 0.0, scale)))


def _orthonormal_rows(rows: np.ndarray) -> np.ndarray:
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[:_numerical_rank(s)]


def generated_subalgebra(entry: LieGroupCatalogEntry,
                         S: Sequence[np.ndarray]) -> np.ndarray:
    """Smallest subalgebra containing the span of S, as orthonormal rows.

    Its dimension is the row count.  Iteratively adjoins brackets of current
    basis pairs and re-orthonormalises until the rank stabilises.  Rank
    decisions use singular values above RANK_TOL relative to the largest.
    """
    rows = np.asarray(list(S), dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] != entry.dim:
        raise ValueError("S must be a nonempty list of m-vectors")
    basis = _orthonormal_rows(rows)
    while basis.shape[0] < entry.dim:
        n = basis.shape[0]
        brs = [bracket(entry, basis[i], basis[j])
               for i in range(n) for j in range(i + 1, n)]
        if not brs:
            break
        new = _orthonormal_rows(np.vstack([basis] + brs))
        if new.shape[0] == n:
            basis = new
            break
        basis = new
    return basis


def is_bracket_generating(entry: LieGroupCatalogEntry,
                          S: Sequence[np.ndarray]) -> bool:
    return generated_subalgebra(entry, S).shape[0] == entry.dim


def _orthogonal_matrix(entry: LieGroupCatalogEntry, P: np.ndarray) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    m = entry.dim
    if P.shape != (m, m) or np.max(np.abs(P.T @ P - np.eye(m))) > 1e-10:
        raise ValueError("P must be orthogonal")
    return P


def ell_index(entry: LieGroupCatalogEntry, P: np.ndarray) -> int:
    """Smallest k such that the first k rotated basis vectors generate.

    The rotated vectors are the columns of P.  For the abelian torus no proper
    prefix generates, so the index is always m (the full space).
    """
    return prefix_subalgebra_dims(entry, P).index(entry.dim) + 1


def prefix_subalgebra_dims(entry: LieGroupCatalogEntry, P: np.ndarray) -> list[int]:
    """Dimensions of the subalgebras generated by each column prefix of P."""
    P = _orthogonal_matrix(entry, P)
    return [generated_subalgebra(entry, P[:, :k].T).shape[0]
            for k in range(1, entry.dim + 1)]


# ---------------------------------------------------------------------------
# Quaternion helpers (broadcast over leading axes)
# ---------------------------------------------------------------------------

def _components(q: np.ndarray) -> list[np.ndarray]:
    q = np.asarray(q, dtype=float)
    return [q[..., i] for i in range(q.shape[-1])]


def _stack(parts: list[np.ndarray]) -> np.ndarray:
    """The components ``parts``, broadcast, on a last axis.

    Each component is stored contiguously, so it is written and read in
    order; the result is a view with the components last.
    """
    out = np.empty((len(parts),) + np.broadcast_shapes(*(p.shape for p in parts)))
    for i, part in enumerate(parts):
        out[i] = part
    return np.moveaxis(out, 0, -1)


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a b, broadcast over leading axes.

    Computed component by component as (a0 b0 - a.b, a0 b + b0 a + a x b),
    the dot product summed from +0 as ``np.sum`` sums (so a sum of negative
    zeros is +0) and the cross product in the order of ``np.cross``: every
    bit, signed zeros included, is that of the vector form written with
    those numpy calls.
    """
    a0, a1, a2, a3 = _components(a)
    b0, b1, b2, b3 = _components(b)
    return _stack([a0 * b0 - (((a1 * b1 + a2 * b2) + a3 * b3) + 0.0),
                   (a0 * b1 + b0 * a1) + (a2 * b3 - a3 * b2),
                   (a0 * b2 + b0 * a2) + (a3 * b1 - a1 * b3),
                   (a0 * b3 + b0 * a3) + (a1 * b2 - a2 * b1)])


def quat_conj(q: np.ndarray) -> np.ndarray:
    """Conjugate (q0, -q1, -q2, -q3), broadcast over leading axes."""
    q0, q1, q2, q3 = _components(q)
    return _stack([q0, -q1, -q2, -q3])


def so3_representative(q: np.ndarray) -> np.ndarray:
    """q or -q, whichever has real part >= 0: the one stored SO(3) sign."""
    q = np.asarray(q, dtype=float)
    return np.where(q[..., :1] < 0, -q, q)


def quat_log(q: np.ndarray, so3: bool = False) -> np.ndarray:
    """Principal logarithm of unit quaternions, broadcast over leading axes.

    Returns theta * u / |u| for q = (cos theta, sin theta * u / |u|), theta
    in [0, pi].  With ``so3`` the quaternions are taken modulo sign, so the
    representative with nonnegative real part is used and theta <= pi/2.  At
    the antipode every direction is a shortest branch; (pi, 0, 0) is returned.
    Computed component by component, with |u| summed in the order of
    ``np.linalg.norm``: every bit is that of the vector form, |u| from
    ``np.linalg.norm`` and the result ``fac[..., None] * q[..., 1:]``.
    """
    q = so3_representative(q) if so3 else np.asarray(q, dtype=float)
    w, x, y, z = _components(q)
    s = np.sqrt((x * x + y * y) + z * z)
    fac = np.where(s > 1e-15, np.arctan2(s, w) / np.maximum(s, 1e-300), 0.0)
    v = _stack([fac * x, fac * y, fac * z])
    antipodal = (s <= 1e-15) & (w < 0)
    if np.any(antipodal):
        v[antipodal] = np.array([math.pi, 0.0, 0.0])
    return v
