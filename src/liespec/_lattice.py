"""Small-dimension integer lattice helpers for quadratic forms.

Everything here works on Z^m equipped with a positive definite form Q: vector
norms are n^t Q n.  Dimensions stay tiny (m <= 4), so pairwise (Lagrange
style) greedy reduction is enough: it is Minkowski reduction for m <= 4
(Nguyen & Stehle, ACM TALG 2009).  ``short_vectors`` walks only the lattice
points inside an ellipsoid (Fincke & Pohst, Math. Comp. 44, 1985) over the
reduced basis; ``integer_box`` lists every integer point of a coordinate
box, the one box enumeration of the package.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["greedy_reduce", "integer_box", "short_vectors"]

# Relative slack on the short_vectors bound: a point whose form value exceeds
# the bound by less than this is still returned, so rounding in the walk never
# drops a point that the direct form puts at or below the bound.
_SHORT_RTOL = 1e-9


def greedy_reduce(Q: np.ndarray) -> np.ndarray:
    """Unimodular U such that U^t Q U is pairwise-reduced with sorted diagonal.

    Repeated Lagrange steps: shave each basis vector by rounded projections on
    the others and keep the basis sorted by norm.  Terminates because every
    accepted step strictly decreases a basis norm.
    """
    Q = np.asarray(Q, dtype=float)
    m = Q.shape[0]
    U = np.eye(m, dtype=np.int64)

    def form(u, v):
        return float(u @ Q @ v)

    while True:
        changed = False
        order = np.argsort([form(U[:, j], U[:, j]) for j in range(m)], kind="stable")
        U = U[:, order]
        for j in range(1, m):
            for i in range(j):
                denom = form(U[:, i], U[:, i])
                if denom <= 0.0:
                    continue
                mu = round(form(U[:, j], U[:, i]) / denom)
                if mu != 0:
                    new = U[:, j] - mu * U[:, i]
                    if form(new, new) < form(U[:, j], U[:, j]) * (1 - 1e-15):
                        U[:, j] = new
                        changed = True
        if not changed:
            return U


def integer_box(lo: int, hi: int, m: int) -> np.ndarray:
    """All integer vectors with coordinates in [lo, hi], shape (N, m), int64,
    in lexicographic order (the last coordinate varies fastest)."""
    return np.indices((hi - lo + 1,) * m, dtype=np.int64).reshape(m, -1).T + lo


def short_vectors(Q: np.ndarray, bound: float) -> np.ndarray:
    """Every nonzero integer n with n^t Q n <= bound, shape (N, m), sorted
    lexicographically.

    Fincke-Pohst enumeration over the ``greedy_reduce`` basis: with
    U^t Q U = R^t R (R upper triangular) the form splits into one square per
    coordinate, so each coordinate, last first, ranges over the integers that
    keep the partial sum within the bound.  Only points inside the ellipsoid,
    and their prefixes, are visited.  The bound carries the relative slack
    ``_SHORT_RTOL``.
    """
    Q = np.asarray(Q, dtype=float)
    m = Q.shape[0]
    U = greedy_reduce(Q)
    R = np.linalg.cholesky(U.T @ Q @ U).T
    diag = np.diag(R)
    mu = R / diag[:, None]
    found: list[tuple[int, ...]] = []
    k = [0] * m

    def walk(i: int, budget: float) -> None:
        centre = -sum(mu[i, j] * k[j] for j in range(i + 1, m))
        half = math.sqrt(budget) / diag[i]
        for v in range(math.ceil(centre - half), math.floor(centre + half) + 1):
            k[i] = v
            rest = budget - (diag[i] * (v - centre)) ** 2
            if rest < 0.0:  # rounding at the ends of the range
                continue
            if i:
                walk(i - 1, rest)
            else:
                found.append(tuple(k))

    walk(m - 1, bound * (1.0 + _SHORT_RTOL))
    pts = np.array(found, dtype=np.int64).reshape(-1, m) @ U.T
    pts = pts[np.any(pts != 0, axis=1)]
    return pts[np.lexsort(pts.T[::-1])]
