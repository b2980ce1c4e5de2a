"""Small-dimension integer lattice helpers for quadratic forms.

Everything here works on Z^m equipped with a positive definite form Q: vector
norms are n^t Q n.  Dimensions stay tiny (m <= 4), so pairwise (Lagrange
style) greedy reduction is enough to make enumeration boxes small.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["greedy_reduce", "enumerate_box", "box_chunks"]

# Most rows box_chunks puts in one chunk.
_CHUNK_POINTS = 2_000_000


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


def enumerate_box(radius: int, m: int) -> np.ndarray:
    """All integer vectors with coordinates in [-radius, radius], shape (N, m)."""
    axes = [np.arange(-radius, radius + 1, dtype=np.int64)] * m
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def box_chunks(radius: int, m: int):
    """Yield ``enumerate_box(radius, m)`` in order, in chunks of at most
    ``_CHUNK_POINTS`` rows.

    A box too large for one chunk is sliced along its first axis, and each
    slice along the next, until a slice fits: every chunk is one fixed prefix
    of leading coordinates over the same enumerated tail box, so the chunks
    concatenate to the box in lexicographic order.  The tail keeps at least
    one axis, so a chunk exceeds the limit only when 2 * radius + 1 does.
    """
    side = 2 * radius + 1
    lead = 0
    while lead < m - 1 and side ** (m - lead) > _CHUNK_POINTS:
        lead += 1
    tail = enumerate_box(radius, m - lead)
    for prefix in itertools.product(range(-radius, radius + 1), repeat=lead):
        chunk = np.empty((tail.shape[0], m), dtype=np.int64)
        chunk[:, :lead] = prefix
        chunk[:, lead:] = tail
        yield chunk
