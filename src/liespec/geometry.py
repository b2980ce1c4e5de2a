"""Diameter computation and estimation.

Flat tori get grid maxima of the covering radius with a Lipschitz upper end
(not exact: a grid can miss the deep hole), bi-invariant metrics get closed
forms, and generic left-invariant metrics on SU(2)/SO(3) get shortest-path
estimates on a k-nearest-neighbour net of unit quaternions.  Edge weights use
the first-order left-trivialised length |log(p^-1 q)|_g, which is exact for
bi-invariant metrics along one-parameter subgroups and accurate to O(mesh^2)
per edge otherwise; the fixed net allowance of 10% (``DEFAULT_EPS_NET``)
absorbs the discretisation bias.

``build_net`` does all the work that depends only on the net, once: the knn
search (a k-d tree) and the straightened two-hop graph, stored once as the
upper triangle of a CSR structure whose entries line up with the edge logs.
Every graph is scipy sparse algebra on the knn adjacency: a sum with the
transpose, a product, and a transpose, which scipy returns with sorted rows.
The nodes after the identity follow a 4-D Morton curve, so that the
neighbours of a node mostly have nearby ids.  The default net (20000 nodes,
knn 12) takes about 0.12 s to build (0.3 s for the first build in a
process, which also imports scipy) and peaks at 22.5 MiB traced, so nets
are not cached across runs.  Each metric then pays for one weight per edge
and one undirected Dijkstra over the upper edges, about 13 ms.

The torus grid sweep reduces the metric form once per call and keeps only
the closest-vector polish offsets that can beat the origin in the reduced
basis (27 of 125 at t3 in the median).  It covers half the grid: Z^m = -Z^m,
so a grid point and its mirror are equally far from the lattice.  It
screens one point of each block of 4^m grid points, then, in chunks with
one matmul against the kept offsets, the points of the blocks that could
hold a near-max point: the distance to the lattice is 1-Lipschitz, so a
block whose representative lies further below the maximum than the block
is wide is skipped.  It then re-scores every point within a relative 1e-9
of the screened maximum, and its mirror, with the direct form.  Mirrors
tie only in exact arithmetic, and the refinement pass is not
mirror-symmetric, so the re-score keeps the argmax, and every reported
figure, that of a full direct sweep.  t3 at grid 64 takes about 1.1 ms
(mean over ``sample_metric`` seeds 0-255; median 0.96 ms).  All timings are
one BLAS thread on a 2-core AMD EPYC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, NamedTuple

import numpy as np

from . import _lattice
from .lie_core import (LieGroupCatalogEntry, quat_conj, quat_log, quat_mul,
                       so3_representative)
from .metric_space import MetricSpec

__all__ = [
    "DiameterEstimate",
    "PaperBounds",
    "Net",
    "torus_diameter",
    "biinvariant_diameter",
    "build_net",
    "graph_diameter",
    "paper_diameter_bounds",
]

DEFAULT_NET_SIZE = 20_000
DEFAULT_KNN = 12
DEFAULT_EPS_NET = 0.10
DEFAULT_GRID_RESOLUTION = 64
# Largest torus grid, grid_resolution ** m points, that torus_diameter sweeps.
MAX_GRID_POINTS = 1 << 24
# Torus sweeps screen this many grid points per matmul, then re-score exactly
# every point whose screened squared distance is within _SCREEN_RTOL of the
# screened maximum.
_SWEEP_CHUNK = 8192
_SCREEN_RTOL = 1e-9
# The coarse sweep screens one representative per block of _BLOCK grid points
# per axis, then only the blocks whose Lipschitz bound reaches the maximum.
_BLOCK = 4
# Closest-vector polish box [-2, 2]^m around the Babai point, both sweeps,
# of which ``_reduce`` keeps the offsets that can beat the origin: those
# whose lower bound lies within _KEEP_EPS machine epsilons of it.
_POLISH_RADIUS = 2
_KEEP_EPS = 1024


@dataclass(frozen=True)
class DiameterEstimate:
    """Point estimate with a bracket and the method that produced it.

    Graph-based values over-approximate each pairwise distance but only see
    net nodes, so they carry the documented net allowance on the lower side.
    ``params`` may be given as a mapping or as pairs; it is stored as a tuple
    of ``(key, value)`` pairs, so ``dict(est.params)`` reads it back.
    """

    value: float
    lower: float
    upper: float
    method: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self):
        if not (self.lower <= self.value <= self.upper):
            raise ValueError("need lower <= value <= upper")
        object.__setattr__(self, "params", tuple(dict(self.params).items()))


@dataclass(frozen=True)
class PaperBounds:
    """Tagged two-sided diameter bounds evaluated from closed-form constants."""

    lower: float
    upper: float
    lower_source: str
    upper_source: str


# ---------------------------------------------------------------------------
# Flat torus: covering radius of Z^m under the metric Gram form
# ---------------------------------------------------------------------------

class _Reduced(NamedTuple):
    """A gram form reduced once for every closest-vector pass of a sweep.

    ``U`` is the ``greedy_reduce`` basis as floats, ``to_basis`` its inverse,
    which takes a point to reduced coordinates, ``Qp = U^t gram U`` the
    reduced form, and ``offsets`` the polish offsets kept from the
    [-2, 2]^m box (as floats, the origin among them).
    """

    U: np.ndarray
    to_basis: np.ndarray
    Qp: np.ndarray
    offsets: np.ndarray


def _reduce(gram: np.ndarray) -> _Reduced:
    """Reduce gram and keep the polish offsets that can beat the origin.

    After rounding, the reduced coordinates E of a point lie in
    [-1/2, 1/2]^m.  For an offset o let c = o'Qp o and
    reach = max(sum_i |(o'Qp)_i|, sum_i |(Qp o)_i|).  Both the screen term
    c - 2 o'Qp E and the direct-form excess |E - o|^2 - |E|^2 =
    c - o'Qp E - E'Qp o are at least c - reach exactly, whichever side of
    the stored, not quite symmetric, Qp they take.  An offset is kept when

        c - reach <= _KEEP_EPS eps (c + reach + q),   q = sum |Qp_ij|.

    Why a dropped offset never wins.  Let u = eps / 2 be the unit roundoff.
    With |E| <= 1/2 and |o| <= 2 entrywise, |E - o| <= 5/2; products with
    an entry of o are exact, and a sum of k terms errs by at most k u times
    the sum of their absolute values.  At m = 3, the worst case:

    * Screen.  The origin's row computes to zero exactly.  Row o is
      fl(fl(P E) + fl(c)) with P = -2 fl(o'Qp): P E errs by at most
      (3m - 2) u 2q = 14 u q and fl(c) by m^2 u 4q = 36 u q, and the last
      rounding keeps the sign.  So the row computes above
      c - reach - 50 u q.
    * Direct form.  fl(E - o) errs by u |E - o| per entry and the einsum
      adds m^2 terms of two products each, so fl(|E - o|^2) errs by at
      most (m^2 + 3) u (25/4) q = 75 u q and fl(|E|^2) by
      (m^2 + 1) u q / 4 = 2.5 u q: their computed difference is above
      c - reach - 78 u q.
    * The test.  Its fl(c) errs by 36 u q, its reach by (2m - 2) u 2q =
      8 u q, and its difference by u (c + reach).

    So a dropped offset has an exact c - reach above the margin less
    44 u q + u (c + reach), and it computes strictly above the origin in
    both forms once c - reach exceeds 78 u q.  The margin must thus cover
    122 u q + u (c + reach), below 64 eps (c + reach + q); it keeps a
    factor 16 over that, away from underflow.  Every minimum, and every
    figure built on one, is then that of the whole box.  A dropped offset
    is also strictly farther than the origin in exact arithmetic, so the
    kept offsets hold a closest lattice vector whenever the whole box
    does.  In a reduced basis the t3 pool metrics keep 27 of the 125
    offsets in the median, 35 at most.
    """
    U = _lattice.greedy_reduce(gram).astype(float)
    Qp = U.T @ gram @ U
    box = _lattice.integer_box(-_POLISH_RADIUS, _POLISH_RADIUS, gram.shape[0]).astype(float)
    c = np.einsum("ki,ij,kj->k", box, Qp, box)
    reach = np.maximum(np.abs(box @ Qp).sum(axis=1), np.abs(box @ Qp.T).sum(axis=1))
    q = float(np.abs(Qp).sum())
    keep = c - reach <= _KEEP_EPS * np.finfo(float).eps * (c + reach + q)
    return _Reduced(U, np.linalg.inv(U), Qp, box[keep])


def _closest_lattice_distances(points: np.ndarray, reduced: _Reduced) -> np.ndarray:
    """Distance of each point to Z^m under the form that ``reduced`` reduces.

    Works in a greedy-reduced basis: round to the nearest basis combination
    (Babai) and polish over the offsets that ``_reduce`` keeps of a
    [-2, 2]^m coefficient box, which is reliable for the reduced bases
    arising at m <= 3.  Each offset is its own direct-form pass over the
    points: an einsum over all offsets at once rounds differently and moves
    some distances by an ulp.
    """
    U, _, Qp, offsets = reduced
    T = np.linalg.solve(U, points.T).T
    E = T - np.rint(T)
    best = np.full(points.shape[0], np.inf)
    for off in offsets:
        D = E - off
        vals = np.einsum("ni,ij,nj->n", D, Qp, D)
        np.minimum(best, vals, out=best)
    return np.sqrt(np.maximum(best, 0.0))


def _screen(reduced: _Reduced):
    """Squared distances to Z^m for many points, all kept offsets at once.

    Same reduced basis and offsets as ``_closest_lattice_distances``, with
    |E - o|^2 = E'QE - 2E'Qo + o'Qo expanded so that a block of points costs
    one matmul against every offset.  The expansion rounds differently from
    the direct form, so its values only screen candidates for an exact
    re-score.
    """
    _, to_basis, Qp, offsets = reduced
    P = -2.0 * offsets @ Qp
    c = np.einsum("ki,ij,kj->k", offsets, Qp, offsets)[:, None]

    def sq_distances(points: np.ndarray) -> np.ndarray:
        E = to_basis @ points.T
        E -= np.rint(E)
        S = P @ E
        S += c
        return S.min(axis=0) + ((Qp @ E) * E).sum(axis=0)

    return sq_distances


def _near_max(sq: np.ndarray) -> np.ndarray:
    """Indices whose screened value is within the screen tolerance of the max."""
    return np.flatnonzero(sq >= (1.0 - _SCREEN_RTOL) * sq.max())


def _coarse_argmax(reduced: _Reduced, sq_distances, res: int):
    """First farthest grid point i/res in flat-index order, and its distance.

    Z^m = -Z^m, so point i/res ties with its mirror (-i mod res)/res.  Every
    point or its mirror has a leading coordinate of at most res/2, so only
    that half of the grid, a prefix of the flat order, takes part.  The half
    grid is cut into blocks of ``_BLOCK`` points per axis (edge blocks may be
    partial).  One representative per block, its second point along each
    axis or its only one, is screened first; the points of a block are
    screened only if the block can hold a point within ``_SCREEN_RTOL`` of
    the screened maximum.  The points so found, the maximum among them, and
    so the near-max points and their mirrors re-scored with the direct form,
    are exactly those of a screen of the whole half grid.

    Why no such point is lost.  Let T = ``to_basis`` and Q = ``Qp`` as
    ``reduced`` holds them, in floating point, and let psi(y) be the squared
    distance from y to Z^m under the symmetric part of Q.  As everywhere in
    the torus code, the polish box around rint(y) holds a closest lattice
    vector, and so do the offsets ``_reduce`` keeps of it, since each one
    dropped lies strictly farther than the origin; so the screen s(x)
    evaluates psi(fl(T x)), and sqrt(psi) is 1-Lipschitz in that form.
    With eps the machine epsilon, q = sum |Q_ij|, t = ||T||_inf and
    a = sum |Q_ij - Q_ji|, set

        delta = a + 4096 eps q (1 + t)^2.

    * Screen.  After rounding, |E| <= 1/2 and every kept offset has
      |o| <= 2 entrywise, so the three expanded terms are at most q/4, 2q
      and 4q in absolute value.
      Writing the cross term as -2 o'QE errs by o'(Q' - Q)E, at most a, and
      each term takes at most m^2 + 2 roundings, so
      |s(x) - psi(fl(T x))| <= a + 4 (m^2 + 2) eps q.
    * Points.  x = fl(i/res) and fl(T x) = T i/res + eta with
      |eta|_inf <= (m + 2) eps t / 2, in whatever batch x is screened; so
      two points lie apart in the form by at most their exact offset plus
      (m + 2) eps t sqrt(q), and one point screened twice differs by
      O(eps t q), far below delta.
    * Slack.  Every point of a block is rep + c/res with c in
      {-1, 0, 1, 2}^m.  ``slack`` is the largest computed |T c|_Q / res over
      those c.  The computed T c errs by at most m eps t entrywise and its
      form value by at most (m^2 + 2) eps (2 t)^2 q / 2, so the exact slack
      exceeds ``slack`` by at most
      (2 t sqrt((m^2 + 2) eps q) + m eps t sqrt(q)) / res + 2 eps slack.
      With res >= 4, this and the point term stay far below
      sqrt(delta) >= 64 sqrt(eps q) (1 + t).
    * So a point x in the block of representative r has
      s(x) <= (sqrt(s(r) + delta) + slack + sqrt(delta))^2 + delta, while
      the screened maximum S of the half grid is at least the largest
      representative value R minus 2 delta.  A block is screened when
      (sqrt(s(r) + delta) + slack + sqrt(delta))^2 + 4 delta >=
      (1 - _SCREEN_RTOL) R, which every block holding a point with
      s(x) >= (1 - _SCREEN_RTOL) S meets: the fourth delta covers the
      rounding of both sides, which are below q (1 + t)^2.

    At grid 64 the t3 pool metrics (``sample_metric`` seeds 0-255) screen
    2-58% of the half grid, 8% in the median, representatives included.
    """
    _, to_basis, Qp, _ = reduced
    m = Qp.shape[0]
    shape = (res,) * m
    half = np.array((res // 2 + 1,) + shape[1:])
    blocks = tuple(-(-half // _BLOCK))
    steps = _lattice.integer_box(0, _BLOCK - 1, m)

    def coords(flat):
        return np.stack(np.unravel_index(flat, shape), axis=1)

    def origins(ids):
        return np.stack(np.unravel_index(ids, blocks), axis=1) * _BLOCK

    eps = np.finfo(float).eps
    q = float(np.abs(Qp).sum())
    t = float(np.abs(to_basis).sum(axis=1).max())
    delta = float(np.abs(Qp - Qp.T).sum()) + 4096 * eps * q * (1 + t) ** 2
    c = (steps - 1) @ to_basis.T
    slack = math.sqrt(float(np.max(np.einsum("ki,ij,kj->k", c, Qp, c)))) / res

    n_blocks = math.prod(blocks)
    rep_sq = np.empty(n_blocks)
    for start in range(0, n_blocks, _SWEEP_CHUNK):
        ids = np.arange(start, min(start + _SWEEP_CHUNK, n_blocks))
        rep_sq[ids] = sq_distances(np.minimum(origins(ids) + 1, half - 1) / res)
    reach = np.sqrt(rep_sq + delta) + (slack + math.sqrt(delta))
    kept = np.flatnonzero(reach * reach + 4 * delta
                          >= (1.0 - _SCREEN_RTOL) * rep_sq.max())

    # Screen the kept blocks a chunk at a time, keeping only the points that
    # may still lie within the tolerance of the final maximum.
    top = -np.inf
    found, found_sq = [], []
    per_chunk = _SWEEP_CHUNK // _BLOCK ** m
    for start in range(0, kept.size, per_chunk):
        idx = (origins(kept[start:start + per_chunk])[:, None, :] + steps).reshape(-1, m)
        idx = idx[np.all(idx < half, axis=1)]
        sq = sq_distances(idx / res)
        top = max(top, float(sq.max()))
        near = sq >= (1.0 - _SCREEN_RTOL) * top
        found.append(np.ravel_multi_index(idx[near].T, shape))
        found_sq.append(sq[near])
    near = np.concatenate(found)[_near_max(np.concatenate(found_sq))]
    mirrors = np.ravel_multi_index((-coords(near) % res).T, shape)
    pts = coords(np.union1d(near, mirrors)) / res
    dists = _closest_lattice_distances(pts, reduced)
    k = int(np.argmax(dists))
    return pts[k], float(dists[k])


def torus_diameter(spec: MetricSpec, grid_resolution: int = DEFAULT_GRID_RESOLUTION) -> DiameterEstimate:
    """Covering radius of Z^m under the metric Gram form, bracketed.

    Grid maximum plus one local refinement pass around the argmax; the upper
    bound adds the exact worst-case distance from a torus point to the grid
    (the distance function to the lattice is 1-Lipschitz in the metric norm).

    The form is reduced once per call, and both sweeps polish over the
    offsets ``_reduce`` keeps, which give the minima of the whole box.
    Both sweeps screen with the expanded form and re-score every point within
    ``_SCREEN_RTOL`` of the screened maximum with the direct form, then take
    the first maximum.  The coarse sweep covers half the grid and re-scores
    the near-max points together with their mirrors: mirrors tie exactly in
    theory, the refinement grid is not mirror-symmetric, and only the direct
    form breaks such ties the way the full-grid sweep does.  It screens one
    representative per block of grid points first, and then only the blocks
    whose Lipschitz bound, the same one as behind ``upper``, reaches the
    screened maximum; the margin of that bound covers the rounding of the
    screen and of the bound itself, so the re-scored points, and every
    reported figure, are those of a screen of the whole half grid.
    """
    m = spec.m
    if m > 3:
        raise ValueError("torus covering radius is limited to m <= 3")
    if grid_resolution < 4:
        raise ValueError("grid resolution too small")
    if grid_resolution ** m > MAX_GRID_POINTS:
        raise ValueError(f"grid resolution {grid_resolution} gives more than "
                         f"{MAX_GRID_POINTS} grid points at m = {m}")
    gram = spec.gram
    reduced = _reduce(gram)
    sq_distances = _screen(reduced)
    x0, coarse = _coarse_argmax(reduced, sq_distances, grid_resolution)

    # Refinement: finer sweep of the cell around the argmax.
    h = 1.0 / grid_resolution
    local = _lattice.integer_box(0, 16, m) / 17 * (2 * h) - h + x0
    near = _near_max(sq_distances(local))
    ld = _closest_lattice_distances(local[near], reduced)
    value = max(coarse, float(np.max(ld)))

    corners = _lattice.integer_box(-1, 1, m).astype(float) * (0.5 * h)
    slack = math.sqrt(max(float(c @ gram @ c) for c in corners))
    upper = coarse + slack
    return DiameterEstimate(
        value=value, lower=value, upper=upper, method="TorusCoveringRadius",
        params={"grid_resolution": grid_resolution})


# ---------------------------------------------------------------------------
# Bi-invariant closed forms
# ---------------------------------------------------------------------------

def biinvariant_diameter(entry: LieGroupCatalogEntry) -> DiameterEstimate:
    """Exact diameter of the reference bi-invariant metric."""
    if entry.kind == "su2":
        value = math.pi
    elif entry.kind == "so3":
        value = math.pi / 2
    elif entry.kind == "torus":
        value = math.sqrt(entry.dim) / 2
    else:
        value = math.sqrt(sum(biinvariant_diameter(f).value ** 2 for f in entry.factors))
    return DiameterEstimate(value=value, lower=value, upper=value,
                            method="BiInvariantClosedForm")


# ---------------------------------------------------------------------------
# Quaternion nets
# ---------------------------------------------------------------------------

# Edges per chunk when weighing the edge logs; bounds the temporaries of
# each metric.
_LOG_CHUNK = 1 << 16
# Edges per chunk of the quaternion products behind the edge logs; bounds
# their temporaries, about 160 bytes an edge, which would otherwise set the
# peak memory of a build.
_QUAT_CHUNK = 1 << 14


@dataclass(frozen=True)
class Net:
    """k-nearest-neighbour graph on seeded unit quaternions, ready for paths.

    Node 0 is the identity, and the other nodes follow a 4-D Morton curve.
    ``rows``/``cols`` (rows < cols, row-major) is the symmetrised knn
    adjacency.  Shortest paths run over the straightened graph: the
    adjacency plus every two-hop shortcut, each edge stored once as the
    upper triangle of a CSR structure for undirected Dijkstra.  Row i's
    later neighbours are ``edge_cols[indptr[i]:indptr[i + 1]]`` (ascending,
    all above i), so the edges (row < col) run in row-major order and an
    edge's id e is its position.  ``edge_logs[e]`` is log(p^-1 q) for edge e
    from p to q; reversing an edge only flips the sign of the log, so a
    metric supplies one weight per edge, which serves both directions.
    ``knn`` and ``seed`` are the build arguments.
    Every array is read-only; the index arrays are int32.
    """

    kind: str
    nodes: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    indptr: np.ndarray
    edge_cols: np.ndarray
    edge_logs: np.ndarray
    knn: int
    seed: int

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def __reduce__(self):
        # Through the constructor, so that unpickled arrays are read-only too.
        return Net, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


def _edge_logs(kind: str, nodes: np.ndarray, rows: np.ndarray,
               cols: np.ndarray) -> np.ndarray:
    logs = np.empty((rows.size, 3))
    for start in range(0, rows.size, _QUAT_CHUNK):
        r, c = rows[start:start + _QUAT_CHUNK], cols[start:start + _QUAT_CHUNK]
        rel = quat_mul(quat_conj(nodes[r]), nodes[c])
        logs[start:start + r.size] = quat_log(rel, so3=kind == "so3")
    return logs


def _knn_adjacency(kind: str, nodes: np.ndarray, k: int):
    """Symmetrised k-nearest-neighbour adjacency, a boolean CSR matrix.

    Chordal distance in R^4 is monotone in the geodesic angle on S^3, so a
    k-d tree over the nodes finds the geodesic neighbours of SU(2).  On SO(3)
    q and -q are one point: the tree holds both signs and indices reduce
    mod n.  Column 0 of a query is the node itself.
    """
    from scipy.sparse import csr_matrix
    from scipy.spatial import cKDTree  # deferred: ~50 ms that only nets pay

    n = nodes.shape[0]
    points = np.vstack([nodes, -nodes]) if kind == "so3" else nodes
    idx = cKDTree(points).query(nodes, k=k + 1)[1]
    query = csr_matrix((np.ones(n * k, dtype=bool), idx[:, 1:].ravel() % n,
                        np.arange(0, n * k + 1, k)), shape=(n, n))
    return query + query.T


def _morton_order(points: np.ndarray) -> np.ndarray:
    """Order of points of [-1, 1]^4 along a 4-D Morton (Z-order) curve.

    Each coordinate is cut into 2^16 cells, and a point's code takes bit b
    of the cell number along axis a to bit 4 b + a, so points close in the
    order lie close in space.  Equal codes keep their draw order.
    """
    cells = np.minimum(((points + 1.0) * (1 << 15)).astype(np.uint64), (1 << 16) - 1)
    code = np.zeros(points.shape[0], dtype=np.uint64)
    for bit in range(16):
        for axis in range(4):
            code |= ((cells[:, axis] >> bit) & 1) << (4 * bit + axis)
    return np.argsort(code, kind="stable")


def build_net(entry: LieGroupCatalogEntry, n_nodes: int = DEFAULT_NET_SIZE,
              knn: int = DEFAULT_KNN, seed: int = 0) -> Net:
    """Seeded random net on SU(2) or SO(3) with symmetrised knn adjacency.

    The identity is always node 0, and the other nodes follow in the order
    of a 4-D Morton curve, so that neighbours mostly have nearby ids and the
    k-d tree, the sparse products and each metric's weights and Dijkstra read
    memory in order.  It needs 6 <= knn < n_nodes, and a disconnected knn
    graph is refused, both with ``ValueError``.  Everything that depends
    only on the net, the straightened edges with their logs included, is
    computed here once, so each metric pays for its edge weights and one
    Dijkstra only.

    Shortest paths on the raw knn graph overshoot by several percent because
    edge directions are quantised; admitting neighbour-of-neighbour hops (each
    still an exactly weighted one-parameter arc) removes most of that bias
    while keeping every path admissible.  The straightened graph is the
    pattern of ``sym @ sym + sym`` for the knn adjacency ``sym``, summed in
    int8 as 1 on the square plus 2 on ``sym``, so that a knn edge holds 2
    or 3 and any other edge 1.  The pattern is symmetric, so its transpose,
    which scipy converts to CSR with every row sorted, is the same pattern
    sorted.  Its upper entries are the edges in row-major order, their row
    counts give ``indptr``, and the marked ones are ``rows``/``cols``.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    if entry.kind not in ("su2", "so3"):
        raise ValueError("nets are only built on su2/so3")
    if n_nodes < 100:
        raise ValueError("need at least 100 nodes")
    if not 6 <= knn < n_nodes:
        raise ValueError(f"need 6 <= knn < n_nodes, got knn={knn} for {n_nodes} nodes")
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n_nodes - 1, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    if entry.kind == "so3":
        pts = so3_representative(pts)
    nodes = np.vstack([np.array([1.0, 0.0, 0.0, 0.0]), pts[_morton_order(pts)]])
    del pts

    n = nodes.shape[0]
    sym = _knn_adjacency(entry.kind, nodes, knn)
    ncomp, _ = connected_components(sym, directed=False)
    if ncomp != 1:
        raise ValueError(f"knn graph of the net has {ncomp} components; "
                         "raise the net size or knn")
    square = sym @ sym
    two = (csr_matrix((np.ones(square.nnz, dtype=np.int8), square.indices, square.indptr),
                      shape=(n, n))
           + csr_matrix((np.full(sym.nnz, 2, dtype=np.int8), sym.indices, sym.indptr),
                        shape=(n, n)))
    del sym, square
    two = two.T.tocsr()
    entry_rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(two.indptr))
    upper = two.indices > entry_rows
    edge_rows, edge_cols = entry_rows[upper], two.indices[upper]
    knn_edge = two.data[upper] >= 2
    rows, cols = edge_rows[knn_edge], edge_cols[knn_edge]
    # The pattern and its masks go before the logs are taken, where the
    # temporaries of a build peak.
    del two, entry_rows, upper, knn_edge
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(edge_rows, minlength=n), out=indptr[1:])
    edge_logs = _edge_logs(entry.kind, nodes, edge_rows, edge_cols)
    return Net(kind=entry.kind, nodes=nodes, rows=rows, cols=cols,
               indptr=indptr, edge_cols=edge_cols,
               edge_logs=edge_logs, knn=knn, seed=seed)


def _edge_weights(net: Net, spec: MetricSpec) -> np.ndarray:
    """Metric length |log(p^-1 q)|_g of each upper edge of the net.

    In the metric's principal frame |v|_g = |diag(1 / sigma) P_sort^t v|, so
    nothing is factored here and a chunk of edges costs one 3 x 3 by 3 x chunk
    GEMM and a column sum of squares.
    """
    lt = (spec.P_sort / spec.sigma).T
    w = np.empty(net.edge_logs.shape[0])
    for start in range(0, w.size, _LOG_CHUNK):
        y = lt @ net.edge_logs[start:start + _LOG_CHUNK].T
        np.square(y, out=y)
        np.sqrt(y.sum(axis=0), out=w[start:start + y.shape[1]])
    return w


def graph_diameter(entry: LieGroupCatalogEntry, spec: MetricSpec, net: Net,
                   eps_net: float = DEFAULT_EPS_NET) -> DiameterEstimate:
    """Shortest-path diameter estimate from the identity on a fixed net.

    Paths run over the straightened edge set of the net; per-edge weights are
    exact metric norms of the connecting logs, so for a Loewner-larger metric
    every edge weight dominates and so does the estimate.  Each edge is
    stored once, and undirected Dijkstra walks it both ways with its one
    weight.  The lower bound applies the documented net allowance
    ``eps_net``, which must lie in [0, 1).
    """
    if entry.kind != net.kind:
        raise ValueError("net was built for a different group")
    if not 0.0 <= eps_net < 1.0:
        raise ValueError(f"eps_net must be in [0, 1), got {eps_net}")
    if spec.m != 3:
        raise ValueError("graph diameter expects a 3-dimensional metric")
    # A fresh CSR matrix over the net's read-only structure, never modified.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    g = csr_matrix((_edge_weights(net, spec), net.edge_cols, net.indptr),
                   shape=(net.n_nodes, net.n_nodes))
    dist = dijkstra(g, directed=False, indices=0)
    if not np.all(np.isfinite(dist)):
        raise AssertionError("net is not connected")
    value = float(np.max(dist))
    return DiameterEstimate(
        value=value, lower=value * (1.0 - eps_net), upper=value,
        method="GeodesicGraph",
        params={"net_size": net.n_nodes, "knn": net.knn, "eps_net": eps_net,
                "seed": net.seed})


# ---------------------------------------------------------------------------
# Closed-form two-sided bounds
# ---------------------------------------------------------------------------

def paper_diameter_bounds(entry: LieGroupCatalogEntry, spec: MetricSpec) -> PaperBounds:
    """Evaluate the sharpest closed-form diameter bounds known per group."""
    sigma = spec.sigma
    if entry.kind == "su2":
        return PaperBounds(
            lower=math.pi / (2 * sigma[1]), upper=math.pi / sigma[1],
            lower_source="su2 constant pi/2 over sigma_2",
            upper_source="su2 constant pi over sigma_2")
    if entry.kind == "so3":
        return PaperBounds(
            lower=math.pi / (2 * sigma[1]), upper=math.sqrt(3) * math.pi / (2 * sigma[1]),
            lower_source="so3 constant pi/2 over sigma_2",
            upper_source="so3 constant sqrt(3)pi/2 over sigma_2")
    d0 = biinvariant_diameter(entry).value
    return PaperBounds(
        lower=d0 / sigma[0], upper=d0 / sigma[-1],
        lower_source="bi-invariant diameter over sigma_1",
        upper_source="bi-invariant diameter over sigma_m")
