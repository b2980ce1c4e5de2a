"""Catalog of supported compact groups: brackets, subalgebras, quaternions.

Every group is described by a `LieGroupCatalogEntry` holding the structure
constants of its Lie algebra in a fixed orthonormal basis.  The catalog covers
flat tori T^m, the unit quaternions SU(2), the rotation group SO(3) (unit
quaternions modulo sign), and products of two SU(2)/SO(3) factors.

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

# Rank decisions in subalgebra closures use this relative singular-value cut.
RANK_TOL = 1e-9

_STRUCTURE_TOL = 1e-12


def su_n_k_max(n: int) -> int:
    """Largest-proper-subgroup index for SU(n): n^2 - 2n + 2."""
    return n * n - 2 * n + 2


@dataclass(frozen=True)
class LieGroupCatalogEntry:
    """One supported group: structure constants plus group-level metadata.

    ``structure_constants[i, j, k]`` is the coefficient of the k-th basis
    vector in [X_i, X_j].  ``k_max`` is 1 plus the largest dimension of a
    proper closed subgroup.
    """

    kind: str  # 'torus' | 'su2' | 'so3' | 'product'
    dim: int
    structure_constants: np.ndarray
    k_max: int
    factors: tuple = ()

    def __post_init__(self):
        c = np.asarray(self.structure_constants, dtype=float)
        if c.shape != (self.dim, self.dim, self.dim):
            raise ValueError("structure constant tensor has wrong shape")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "structure_constants", c)
        _validate_structure(self)

    @property
    def name(self) -> str:
        if self.kind == "torus":
            return f"t{self.dim}"
        if self.kind == "product":
            return "x".join(f.name for f in self.factors)
        return self.kind


def _validate_structure(entry: LieGroupCatalogEntry) -> None:
    c = entry.structure_constants
    m = entry.dim
    # Catalog consistency for the supported kinds, checked first: it is cheap.
    if entry.kind == "product" and (
            len(entry.factors) != 2 or any(f.kind not in ("su2", "so3") for f in entry.factors)):
        raise ValueError("a product has exactly two su2/so3 factors")
    expected = {"torus": m, "su2": 2, "so3": 2, "product": 5}.get(entry.kind)
    if expected is not None and entry.k_max != expected:
        raise ValueError(f"k_max={entry.k_max} inconsistent for {entry.kind}")
    if not np.all(np.isfinite(c)):
        raise ValueError("structure constants must be finite")
    catalog = _catalog_constants(entry)
    if catalog is not None and (catalog.shape != c.shape
                                or np.max(np.abs(c - catalog)) > _STRUCTURE_TOL):
        raise ValueError(f"structure constants do not match the {entry.kind} catalog")
    if np.max(np.abs(c + np.swapaxes(c, 0, 1))) > _STRUCTURE_TOL:
        raise ValueError("structure constants are not antisymmetric")
    # Jacobi identity: sum over cyclic permutations of c_{ij}^l c_{lk}^r.
    t = np.einsum("ijl,lkr->ijkr", c, c)
    jac = t + np.einsum("jkl,lir->ijkr", c, c) + np.einsum("kil,ljr->ijkr", c, c)
    if np.max(np.abs(jac)) > _STRUCTURE_TOL:
        raise ValueError("structure constants violate the Jacobi identity")
    # The reference inner product is Ad-invariant iff ad(X_i) is skew,
    # i.e. c_{ij}^k + c_{ik}^j = 0.
    if np.max(np.abs(c + np.swapaxes(c, 1, 2))) > _STRUCTURE_TOL:
        raise ValueError("reference inner product is not Ad-invariant")


def _su2_constants() -> np.ndarray:
    c = np.zeros((3, 3, 3))
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 2.0
        c[j, i, k] = -2.0
    return c


def _block_sum(factors: Sequence[LieGroupCatalogEntry]) -> np.ndarray:
    """Structure constants of a direct product: the factors' blocks on the diagonal."""
    m = sum(f.dim for f in factors)
    c = np.zeros((m, m, m))
    off = 0
    for f in factors:
        d = f.dim
        c[off:off + d, off:off + d, off:off + d] = f.structure_constants
        off += d
    return c


def _catalog_constants(entry: LieGroupCatalogEntry):
    """The structure constants the catalog fixes for the entry's kind, or None."""
    if entry.kind == "torus":
        return np.zeros((entry.dim,) * 3)
    if entry.kind in ("su2", "so3"):
        return _su2_constants()
    if entry.kind == "product":
        return _block_sum(entry.factors)
    return None


def torus_entry(m: int) -> LieGroupCatalogEntry:
    if m < 1:
        raise ValueError("torus dimension must be >= 1")
    return LieGroupCatalogEntry("torus", m, np.zeros((m, m, m)), k_max=m)


def su2_entry() -> LieGroupCatalogEntry:
    return LieGroupCatalogEntry("su2", 3, _su2_constants(), k_max=2)


def so3_entry() -> LieGroupCatalogEntry:
    return LieGroupCatalogEntry("so3", 3, _su2_constants(), k_max=2)


def product_entry(factors: Sequence[LieGroupCatalogEntry]) -> LieGroupCatalogEntry:
    """Direct product of two su2/so3 factors, with k_max = 5.

    Anything else, tori and three or more factors included, is refused where
    every catalog entry is checked; ``torus_entry`` builds tori of any rank.
    """
    factors = tuple(factors)
    c = _block_sum(factors)
    return LieGroupCatalogEntry("product", c.shape[0], c, k_max=5, factors=factors)


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


def _orthonormal_rows(rows: np.ndarray) -> np.ndarray:
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1])
    u, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, rows.shape[1]))
    r = int(np.sum(s > RANK_TOL * s[0]))
    return vh[:r]


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

def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w = a[..., :1] * b[..., :1] - np.sum(a[..., 1:] * b[..., 1:], axis=-1, keepdims=True)
    v = (a[..., :1] * b[..., 1:] + b[..., :1] * a[..., 1:]
         + np.cross(a[..., 1:], b[..., 1:]))
    return np.concatenate([w, v], axis=-1)


def quat_conj(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.concatenate([q[..., :1], -q[..., 1:]], axis=-1)


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
    """
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
