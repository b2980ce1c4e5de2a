"""Diameter estimators: covering radii, closed forms, geodesic graphs."""

import dataclasses
import importlib
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csr_matrix, triu
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

import liespec as ls
from liespec import _lattice, geometry
from liespec.geometry import (DiameterEstimate, _closest_lattice_distances,
                               _edge_weights)
from liespec.lie_core import quat_conj, quat_log, quat_mul, so3_representative
from liespec.metric_space import random_rotation


# FCC-type lattice: its Voronoi cell has many vertices at the covering
# radius, so many grid points tie for the maximum.
FCC = np.sqrt(0.5) * np.array([[1.0, 1.0, -1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, 1.0]])
# Scale parameters with sigma_1 / sigma_3 = 1e6.
ANISOTROPIC_SIGMAS = [(1.0, 1e-3, 1e-6), (1e3, 1.0, 1e-3), (1.0, 1.0, 1e-6),
                      (1e6, 1.0, 1.0), (5.0, 0.2, 5e-6)]
# Hexagonal lattice basis: every Voronoi vertex of the plane lattice ties.
HEX = np.array([[1.0, 0.5], [0.0, math.sqrt(3) / 2]])


def grid_points(res, m):
    """The grid points i/res of [0, 1)^m in flat-index order."""
    return _lattice.integer_box(0, res - 1, m) / res


def bruteforce_lattice_distance(gram, points, radius=12):
    box = _lattice.integer_box(-radius, radius, gram.shape[0]).astype(float)
    diffs = points[:, None, :] - box[None, :, :]
    vals = np.einsum("pni,ij,pnj->pn", diffs, gram, diffs)
    return np.sqrt(np.min(vals, axis=1))


def check_kept_offsets(gram, rng):
    """The offsets ``_reduce`` keeps give the screen and the direct form of
    the whole [-2, 2]^m polish box bit for bit, and the distances of a
    brute-force search over the reduced basis."""
    m = gram.shape[0]
    reduced = geometry._reduce(gram)
    whole = reduced._replace(
        offsets=_lattice.integer_box(-geometry._POLISH_RADIUS, geometry._POLISH_RADIUS,
                                     m).astype(float))
    assert np.any(np.all(reduced.offsets == 0, axis=1))
    assert len(reduced.offsets) <= 5 ** m
    pts = np.vstack([rng.uniform(-1.0, 2.0, (100, m)), grid_points(4, m)])
    kept_sq = geometry._screen(reduced)(pts)
    assert kept_sq.tobytes() == geometry._screen(whole)(pts).tobytes()
    got = _closest_lattice_distances(pts, reduced)
    assert got.tobytes() == _closest_lattice_distances(pts, whole).tobytes()
    T = np.linalg.solve(reduced.U, pts.T).T
    ref = bruteforce_lattice_distance(reduced.Qp, T - np.rint(T), radius=6)
    assert np.max(np.abs(got - ref)) <= 1e-10


def torus_diameter_reference(spec, res):
    """(lower, value, upper) from a full-grid direct sweep."""
    m, gram = spec.m, spec.gram
    reduced = geometry._reduce(gram)
    pts = grid_points(res, m)
    dists = _closest_lattice_distances(pts, reduced)
    i0 = int(np.argmax(dists))
    coarse = float(dists[i0])
    h = 1.0 / res
    local = grid_points(17, m) * (2 * h) - h + pts[i0]
    ld = _closest_lattice_distances(local, reduced)
    value = max(coarse, float(np.max(ld)))
    corners = _lattice.integer_box(-1, 1, m).astype(float) * (0.5 * h)
    upper = coarse + math.sqrt(max(float(c @ gram @ c) for c in corners))
    return value, value, upper


def half_grid_candidates(gram, res):
    """Flat indices of the near-max points of a screen of the whole half
    grid and of their mirrors, ascending."""
    sq_distances = geometry._screen(geometry._reduce(gram))
    shape = (res,) * gram.shape[0]
    idx = np.stack(np.unravel_index(np.arange((res // 2 + 1) * res ** (len(shape) - 1)),
                                    shape), axis=1)
    sq = np.concatenate([sq_distances(idx[i:i + 8192] / res)
                         for i in range(0, len(idx), 8192)])
    near = np.flatnonzero(sq >= (1.0 - geometry._SCREEN_RTOL) * sq.max())
    return np.union1d(near, np.ravel_multi_index((-idx[near] % res).T, shape))


def dense_knn_reference(kind, nodes, k):
    """knn pairs (rows < cols) from dense geodesic angles."""
    n = nodes.shape[0]
    dots = nodes @ nodes.T
    if kind == "so3":
        dots = np.abs(dots)
    d = np.arccos(np.clip(dots, -1.0, 1.0))
    np.fill_diagonal(d, np.inf)
    idx = np.argpartition(d, k, axis=1)[:, :k]
    own = np.repeat(np.arange(n), k)
    pairs = np.unique(np.minimum(own, idx.ravel()) * n + np.maximum(own, idx.ravel()))
    return pairs // n, pairs % n


def straightened_reference(kind, nodes, rows, cols):
    """Straightened edges (rows < cols, row-major) of the knn pairs
    ``rows``/``cols`` and their logs."""
    n = nodes.shape[0]
    one = csr_matrix((np.ones(rows.size, dtype=bool), (rows, cols)), shape=(n, n))
    sym = one + one.T
    two = (sym @ sym + sym).tocoo()
    keep = two.row < two.col
    rows, cols = two.row[keep].astype(np.int64), two.col[keep].astype(np.int64)
    order = np.argsort(rows * n + cols)
    rows, cols = rows[order], cols[order]
    return rows, cols, quat_log(quat_mul(quat_conj(nodes[rows]), nodes[cols]),
                                so3=kind == "so3")


def reference_edges(net):
    """Straightened edges of the net's knn pairs and their logs."""
    return straightened_reference(net.kind, net.nodes, net.rows, net.cols)


def reference_symmetric(n, rows, cols, w):
    """Undirected edges stored in both directions, built afresh, sorted rows."""
    g = csr_matrix((np.concatenate([w, w]),
                    (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
                   shape=(n, n))
    g.sort_indices()
    return g


def reference_distances(n, rows, cols, w):
    """Dijkstra from node 0 on a graph built afresh from undirected edges."""
    return dijkstra(reference_symmetric(n, rows, cols, w), directed=True, indices=0)


def net_edge_rows(net):
    """Row of each edge of the net's upper CSR, in id order."""
    return np.repeat(np.arange(net.n_nodes), np.diff(net.indptr))


def check_upper_layout(net):
    """``indptr``/``edge_cols`` as documented: int32, each edge once with
    row < col, row-major and sorted within each row, the knn pairs among
    the edges, and ``edge_logs[e]`` the log of edge e."""
    assert (net.rows.dtype == net.cols.dtype == net.indptr.dtype
            == net.edge_cols.dtype == np.int32)
    assert net.indptr[0] == 0
    assert net.indptr[-1] == net.edge_cols.size == net.edge_logs.shape[0]
    edge_rows = net_edge_rows(net)
    assert np.all(edge_rows < net.edge_cols)
    # Row-major and sorted within each row: the flat keys ascend strictly.
    keys = edge_rows * net.n_nodes + net.edge_cols
    assert np.all(np.diff(keys) > 0)
    assert np.all(np.isin(net.rows.astype(np.int64) * net.n_nodes + net.cols, keys))
    ref = quat_log(quat_mul(quat_conj(net.nodes[edge_rows]), net.nodes[net.edge_cols]),
                   so3=net.kind == "so3")
    assert np.max(np.abs(net.edge_logs - ref)) <= 1e-12


def draw_order_knn(kind, n, knn, seed):
    """The nodes of a net in the order they are drawn, and their knn pairs
    (rows < cols, row-major) from a k-d tree: what a net must match
    up to the order of its nodes."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n - 1, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    nodes = np.vstack([np.array([1.0, 0.0, 0.0, 0.0]), pts])
    if kind == "so3":
        nodes = so3_representative(nodes)
    points = np.vstack([nodes, -nodes]) if kind == "so3" else nodes
    idx = cKDTree(points).query(nodes, k=knn + 1)[1]
    own, other = np.repeat(np.arange(n), knn), idx[:, 1:].ravel() % n
    pairs = np.unique(np.minimum(own, other) * n + np.maximum(own, other))
    return nodes, pairs // n, pairs % n


def node_permutation(net, nodes):
    """The permutation ``perm`` with ``net.nodes == nodes[perm]``."""
    drawn, built = np.lexsort(nodes.T[::-1]), np.lexsort(net.nodes.T[::-1])
    assert np.array_equal(nodes[drawn], net.nodes[built])
    perm = np.empty(net.n_nodes, dtype=np.int64)
    perm[built] = drawn
    return perm


def graph_diameter_reference(net, spec):
    """Diameter with quadratic-form edge weights."""
    rows, cols, logs = reference_edges(net)
    w = np.sqrt(np.einsum("ei,ij,ej->e", logs, spec.gram, logs))
    return float(np.max(reference_distances(net.n_nodes, rows, cols, w)))


class TestTorusDiameter:
    def test_square_tori(self, t2, t3):
        for m in (2, 3):
            est = ls.torus_diameter(ls.metric_from_matrix(np.eye(m)),
                                    grid_resolution=32)
            truth = math.sqrt(m) / 2
            assert est.lower <= truth <= est.upper
            assert est.value == pytest.approx(truth, rel=5e-3)
            assert est.method == "TorusCoveringRadius"

    def test_homothety(self):
        base = ls.torus_diameter(ls.metric_from_matrix(np.eye(2))).value
        for t in (0.5, 4.0):
            val = ls.torus_diameter(ls.metric_from_matrix(t * np.eye(2))).value
            assert val == pytest.approx(base / t, rel=1e-12)

    def test_closest_point_matches_bruteforce(self):
        rng = np.random.default_rng(30)
        for m in (2, 3):
            for _ in range(8):
                sig = np.exp(rng.uniform(math.log(0.1), math.log(10), m))
                q, _ = np.linalg.qr(rng.standard_normal((m, m)))
                gram = ls.metric_from_matrix(q @ np.diag(sig)).gram
                pts = rng.uniform(0, 1, (40, m))
                got = _closest_lattice_distances(pts, geometry._reduce(gram))
                ref = bruteforce_lattice_distance(gram, pts, radius=14)
                assert np.max(np.abs(got - ref)) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    @example(m=3, seed=406)  # sigma (765, 2.95e-3, 2.76e-3): conditioned, not singular
    def test_kept_offsets_match_the_whole_box(self, m, seed):
        rng = np.random.default_rng(seed)
        sig = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), m))
        A = random_rotation(m, rng) @ np.diag(sig) @ random_rotation(m, rng)
        check_kept_offsets(ls.metric_from_matrix(A).gram, rng)

    @pytest.mark.parametrize("A", [FCC, np.linalg.inv(FCC).T, HEX, np.eye(3),
                                   np.eye(2), np.eye(1)],
                             ids=["fcc", "fcc-dual", "hex", "t3-id", "t2-id", "t1-id"])
    def test_kept_offsets_match_the_whole_box_on_ties(self, A):
        check_kept_offsets(ls.metric_from_matrix(A).gram, np.random.default_rng(32))

    def test_reduces_once_per_call(self, t3, monkeypatch):
        calls = []
        reduce = _lattice.greedy_reduce

        def counting_reduce(Q):
            calls.append(Q)
            return reduce(Q)

        monkeypatch.setattr(_lattice, "greedy_reduce", counting_reduce)
        ls.torus_diameter(ls.sample_metric(t3, 0.2, 5.0, seed=0))
        assert len(calls) == 1

    def test_li_inequality_on_random_metrics(self, t2, torus_gap):
        for seed in range(25):
            spec = ls.sample_metric(t2, 0.2, 5.0, seed=seed)
            lam = ls.lambda1_certified(t2, spec).lambda1
            assert abs(lam - torus_gap(spec)) <= 1e-9
            est = ls.torus_diameter(spec)
            assert lam * est.lower ** 2 >= math.pi ** 2 / 4 - 1e-6

    def test_dimension_limit(self):
        with pytest.raises(ValueError):
            ls.torus_diameter(ls.metric_from_matrix(np.eye(4)))

    def test_grid_too_coarse(self):
        with pytest.raises(ValueError, match="grid resolution too small"):
            ls.torus_diameter(ls.metric_from_matrix(np.eye(3)), grid_resolution=3)

    def test_grid_point_cap(self):
        with pytest.raises(ValueError, match="grid points"):
            ls.torus_diameter(ls.metric_from_matrix(np.eye(2)), grid_resolution=5000)

    def test_pinned_grid_37(self):
        # An odd grid misses the deep hole (1/2, 1/2, 1/2): the value reads
        # below the covering radius sqrt(1/9 + 1/4 + 1) / 2 = 0.583333333333
        # that grid 64 hits, and the upper end holds it.
        est = ls.torus_diameter(ls.metric_from_matrix(np.diag([3.0, 2.0, 1.0])),
                                grid_resolution=37)
        assert [f"{x:.12g}" for x in (est.value, est.lower, est.upper)] == [
            "0.582405935347", "0.582405935347", "0.583333333333"]

    def test_matches_full_grid_sweep(self):
        # t3 seeds 14 and 34 (full-grid screen) and 215 (half-grid screen
        # without re-scoring) pick a different grid maximum than the direct
        # sweep unless near-max points and their mirrors are re-scored.
        cases = [(3, 64, seed) for seed in (14, 34, 215)]
        rng = np.random.default_rng(31)
        for m in (1, 2, 3):
            for res in (7, 33, 64):
                n = 3 if (m, res) == (3, 64) else 8
                cases += [(m, res, int(s)) for s in rng.integers(1 << 30, size=n)]
        for m, res, seed in cases:
            spec = ls.sample_metric(ls.torus_entry(m), 0.2, 5.0, seed=seed)
            est = ls.torus_diameter(spec, grid_resolution=res)
            ref = torus_diameter_reference(spec, res)
            assert np.allclose([est.lower, est.value, est.upper], ref,
                               rtol=1e-12, atol=0), (m, res, seed)

    @pytest.mark.parametrize("A", [FCC, np.diag([3.0, 2.0, 1.0]),
                                   np.diag([5.0, 0.2, 1.0]), np.eye(3),
                                   np.diag([1.0, 7.0]), np.eye(1)],
                             ids=["fcc", "diag321", "diag5-0.2-1", "t3-id",
                                  "t2-diag17", "t1"])
    def test_matches_full_grid_sweep_on_ties(self, A):
        # Symmetric lattices put many grid points at the maximum, so the
        # block pruning must keep every one of them for the first maximum
        # to stay that of the full sweep.
        spec = ls.metric_from_matrix(A)
        for res in (4, 5, 6, 7, 9, 37, 64):
            est = ls.torus_diameter(spec, grid_resolution=res)
            ref = torus_diameter_reference(spec, res)
            assert np.allclose([est.lower, est.value, est.upper], ref,
                               rtol=1e-12, atol=0), res

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 3), res=st.integers(4, 40),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_full_grid_sweep_property(self, m, res, seed):
        spec = ls.sample_metric(ls.torus_entry(m), 0.2, 5.0, seed=seed)
        est = ls.torus_diameter(spec, grid_resolution=res)
        ref = torus_diameter_reference(spec, res)
        assert np.allclose([est.lower, est.value, est.upper], ref,
                           rtol=1e-12, atol=0)

    def test_rescores_the_points_of_a_whole_half_grid_screen(self, monkeypatch):
        # The pruning may only skip work: the points re-scored with the
        # direct form are the near-max points of a screen of every point of
        # the half grid, and their mirrors.
        rescored = []
        direct = geometry._closest_lattice_distances

        def recording(points, reduced):
            rescored.append(points)
            return direct(points, reduced)

        monkeypatch.setattr(geometry, "_closest_lattice_distances", recording)
        res = 64
        cases = [(2, seed) for seed in range(100)] + [(3, seed) for seed in range(12)]
        for m, seed in cases:
            spec = ls.sample_metric(ls.torus_entry(m), 0.2, 5.0, seed=seed)
            rescored.clear()
            ls.torus_diameter(spec, grid_resolution=res)
            shape = (res,) * m
            got = np.ravel_multi_index(np.rint(rescored[0] * res).astype(int).T, shape)
            assert np.array_equal(got, half_grid_candidates(spec.gram, res)), (m, seed)

    def test_sweep_screens_few_points(self, t3, monkeypatch):
        # The Lipschitz bound rules out most blocks of the half grid, which
        # has 33 * 64 * 64 = 135168 points at grid 64; representatives and
        # the refinement pass are counted too.
        screened = []
        screen = geometry._screen

        def counting_screen(reduced):
            sq_distances = screen(reduced)

            def counted(points):
                screened.append(len(points))
                return sq_distances(points)

            return counted

        monkeypatch.setattr(geometry, "_screen", counting_screen)
        ls.torus_diameter(ls.sample_metric(t3, 0.2, 5.0, seed=0), grid_resolution=64)
        assert sum(screened) < 0.35 * 135168

    def test_sweep_memory(self, t3):
        # A full-grid sweep peaks at 34 MiB on these calls and a screen of
        # the whole half grid at 9.7 MiB.  The pruned sweep against the
        # offsets kept of the polish box peaks at 3.25 MiB at seed 0, the
        # worst over seeds 0-255, mostly one chunk's offsets-by-points block.
        for seed in (0, 215):
            spec = ls.sample_metric(t3, 0.2, 5.0, seed=seed)
            tracemalloc.start()
            try:
                ls.torus_diameter(spec, grid_resolution=64)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 5 * 2 ** 20, seed


class TestBiInvariant:
    def test_closed_forms(self, su2, so3, t3, su2xsu2):
        assert ls.biinvariant_diameter(su2).value == pytest.approx(math.pi)
        so3_diam = ls.biinvariant_diameter(so3).value
        assert so3_diam == pytest.approx(math.pi / 2)
        assert math.pi / 2 <= so3_diam <= math.sqrt(3) * math.pi / 2
        assert ls.biinvariant_diameter(t3).value == pytest.approx(math.sqrt(3) / 2)
        assert ls.biinvariant_diameter(su2xsu2).value == pytest.approx(
            math.pi * math.sqrt(2))


class TestNet:
    def test_deterministic(self, su2):
        a = ls.build_net(su2, 500, 8, seed=3)
        b = ls.build_net(su2, 500, 8, seed=3)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)

    def test_identity_is_node_zero(self, small_net):
        assert np.allclose(small_net.nodes[0], [1.0, 0.0, 0.0, 0.0])

    def test_edges_are_undirected_unique(self, small_net):
        assert np.all(small_net.rows < small_net.cols)
        enc = small_net.rows * small_net.n_nodes + small_net.cols
        assert np.unique(enc).size == enc.size

    def test_edge_logs_are_exact_distances(self, su2, small_net):
        rows, cols = net_edge_rows(small_net), small_net.edge_cols
        w = np.linalg.norm(small_net.edge_logs, axis=1)
        p, q = small_net.nodes[rows], small_net.nodes[cols]
        ref = np.arccos(np.clip(np.einsum("ni,ni->n", p, q), -1, 1))
        assert np.max(np.abs(w - ref)) < 1e-12

    def test_so3_nodes_nonnegative_real_part(self, so3):
        # Reference: the earlier rule, which multiplied each node by the sign
        # of its real part (a zero real part counting as positive).
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((499, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        draw = np.vstack([np.array([1.0, 0.0, 0.0, 0.0]), pts])
        lead = draw[:, :1].copy()
        lead[lead == 0] = 1.0
        net = ls.build_net(so3, 500, 8, seed=4)
        assert np.all(net.nodes[:, 0] >= 0)
        # The same nodes, the identity first and the others in Morton order.
        assert node_permutation(net, draw * np.sign(lead))[0] == 0

    def test_nodes_follow_a_morton_curve(self, su2, so3):
        for entry in (su2, so3):
            net = ls.build_net(entry, 500, 8, seed=5)
            assert np.array_equal(net.nodes[0], [1.0, 0.0, 0.0, 0.0])
            # 2^16 cells per coordinate; a code takes bit b of coordinate a
            # to bit 4 b + a.
            cells = np.minimum(((net.nodes[1:] + 1.0) * 2 ** 15).astype(np.int64),
                               2 ** 16 - 1)
            codes = [sum(((int(c[a]) >> b) & 1) << (4 * b + a)
                         for b in range(16) for a in range(4)) for c in cells]
            assert codes == sorted(codes)

    def test_so3_net_respects_identification(self, so3):
        net = ls.build_net(so3, 500, 8, seed=1)
        assert np.all(np.linalg.norm(net.edge_logs, axis=1) <= math.pi / 2 + 1e-12)

    def test_parameter_validation(self, su2, t2):
        with pytest.raises(ValueError):
            ls.build_net(su2, 50, 12, seed=0)
        with pytest.raises(ValueError):
            ls.build_net(su2, 500, 3, seed=0)
        with pytest.raises(ValueError):
            ls.build_net(t2, 500, 8, seed=0)

    def test_knn_must_be_below_net_size(self, su2):
        # Each node has at most n - 1 neighbours, so a Net never reports a
        # knn it could not use.
        for knn in (100, 200):
            with pytest.raises(ValueError, match="knn < n_nodes"):
                ls.build_net(su2, 100, knn, seed=0)
        assert ls.build_net(su2, 100, 99, seed=0).knn == 99

    def test_disconnected_knn_graph_refused(self, su2, disconnected_knn):
        with pytest.raises(ValueError, match="2 components"):
            ls.build_net(su2, 200, 6, seed=0)

    def test_knn_matches_dense_reference(self, su2, so3):
        for entry in (su2, so3):
            for seed in range(3):
                net = ls.build_net(entry, 2000, 12, seed=seed)
                rows, cols = dense_knn_reference(entry.kind, net.nodes, 12)
                assert np.array_equal(net.rows, rows)
                assert np.array_equal(net.cols, cols)

    def test_straightened_edges_match_reference(self, small_net, so3_small_net):
        # The upper triangle of the reference edges plus their transpose,
        # exactly: sorted within each row and without a diagonal.
        for net in (small_net, so3_small_net):
            rows, cols, _ = reference_edges(net)
            ref = triu(reference_symmetric(net.n_nodes, rows, cols, np.ones(rows.size)),
                       k=1, format="csr")
            ref.sort_indices()
            assert np.array_equal(net.indptr, ref.indptr)
            assert np.array_equal(net.edge_cols, ref.indices)
            check_upper_layout(net)

    def test_edge_ids_are_upper_positions(self, small_net, so3_small_net):
        # Ids number the edges in row-major order, and each log is that of
        # the reference edge with its id.
        for net in (small_net, so3_small_net):
            ref_rows, ref_cols, ref_logs = reference_edges(net)
            assert np.array_equal(net_edge_rows(net), ref_rows)
            assert np.array_equal(net.edge_cols, ref_cols)
            assert np.max(np.abs(net.edge_logs - ref_logs)) <= 1e-12

    @pytest.mark.parametrize("kind", ["su2", "so3"])
    @pytest.mark.parametrize("n_nodes, knn, seed", [
        (20000, 12, 0), (2000, 12, 3), (500, 8, 1),
        (100, 99, 2), (100, 60, 2), (150, 6, 2), (300, 40, 2)])
    def test_matches_the_draw_order_construction(self, kind, n_nodes, knn, seed):
        # Relabelled to the drawn order, a net has the same knn pairs and
        # straightened edges as the drawn nodes, and each log is that of
        # its edge, negated where the relabelling reverses the edge.  The knn
        # adjacency arrives with unsorted rows, nearly full near knn = n, and
        # on so3 from queries over both signs of every node.
        net = ls.build_net(ls.entry_from_key(kind), n_nodes, knn, seed)
        nodes, rows, cols = draw_order_knn(kind, n_nodes, knn, seed)
        perm = node_permutation(net, nodes)
        assert perm[0] == 0
        label = np.argsort(perm)

        def relabelled(rows, cols):
            """Flat keys of the pairs in net labels, each as row < col, and
            whether the relabelling reverses it."""
            r, c = label[rows], label[cols]
            return np.minimum(r, c) * n_nodes + np.maximum(r, c), r > c

        keys, _ = relabelled(rows, cols)
        assert np.array_equal(net.rows.astype(np.int64) * n_nodes + net.cols, np.sort(keys))
        ref_rows, ref_cols, ref_logs = straightened_reference(kind, nodes, rows, cols)
        keys, reversed_ = relabelled(ref_rows, ref_cols)
        order = np.argsort(keys)
        assert np.array_equal(net_edge_rows(net) * n_nodes + net.edge_cols, keys[order])
        logs = ref_logs[order]
        assert np.array_equal(net.edge_logs, np.where(reversed_[order, None], -logs, logs))
        check_upper_layout(net)

    def test_build_memory(self, su2):
        # The default net's build peaks at about 22.5 MiB, in the log pass,
        # while the upper edges are held; the sorted pattern and its masks
        # are released before it.  Storing every edge in both directions,
        # with a map from each entry to its upper edge, peaked at 31.6 MiB,
        # and log chunks of 2^16 edges instead of 2^14 added 7 MiB more.
        tracemalloc.start()
        try:
            ls.build_net(su2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 26 * 2 ** 20

    def test_default_net_footprint(self, big_net):
        # Each edge is stored once: the default su2 net's arrays total
        # 17.65 MiB, 24.48 MiB with every edge in both directions and a map
        # from each entry to its upper edge.  ``scan --jobs`` ships them to
        # every worker.
        arrays = [v for v in vars(big_net).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) <= 18 * 2 ** 20

    def test_arrays_are_read_only(self, small_net):
        with pytest.raises(ValueError):
            small_net.nodes[0, 0] = 0.5
        with pytest.raises(ValueError):
            small_net.edge_logs[0, 0] = 0.5
        arrays = [v for v in vars(small_net).values() if isinstance(v, np.ndarray)]
        assert not any(a.flags.writeable for a in arrays)
        # Every other field is an immutable scalar, so nothing can be mutated.
        assert all(isinstance(v, (np.ndarray, str, int, float))
                   for v in vars(small_net).values())


def test_arrays_stay_read_only_after_pickling(su2):
    """``scan --jobs`` pickles the entry, the metric and the net wherever
    workers are spawned rather than forked."""
    spec, net = ls.metric_from_matrix(np.eye(3)), ls.build_net(su2, 200, 8)
    back_entry, back_spec, back_net = pickle.loads(pickle.dumps((su2, spec, net)))
    assert back_entry == su2
    assert not back_entry.structure_constants.flags.writeable
    for obj, back in ((spec, back_spec), (net, back_net)):
        for f in dataclasses.fields(obj):
            a, b = getattr(obj, f.name), getattr(back, f.name)
            if isinstance(a, np.ndarray):
                assert b.dtype == a.dtype and np.array_equal(a, b) and not b.flags.writeable
            else:
                assert a == b


class TestGraphDiameter:
    def test_biinvariant_reference(self, su2, mid_net):
        est = ls.graph_diameter(su2, ls.metric_from_matrix(np.eye(3)), mid_net)
        assert abs(est.value - math.pi) / math.pi < 0.05
        assert est.lower <= est.value <= est.upper
        assert est.lower == pytest.approx(est.value * 0.9)
        assert (dict(est.params)["knn"], dict(est.params)["seed"]) == (12, 0)

    def test_pinned_so3_small_net(self, so3, so3_small_net):
        est = ls.graph_diameter(so3, ls.metric_from_matrix(np.diag([3.0, 2.0, 1.0])),
                                so3_small_net)
        assert f"{est.value:.12g}" == "1.1006487511"

    def test_homothety_exact_on_fixed_net(self, su2, small_net):
        base = ls.graph_diameter(su2, ls.metric_from_matrix(np.eye(3)), small_net)
        for t in (0.25, 3.0):
            est = ls.graph_diameter(su2, ls.metric_from_matrix(t * np.eye(3)), small_net)
            assert est.value == pytest.approx(base.value / t, rel=1e-9)

    def test_loewner_monotonicity_exact(self, su2, small_net):
        rng = np.random.default_rng(31)
        for _ in range(15):
            a = ls.sample_metric(su2, 0.3, 3.0, seed=int(rng.integers(1 << 30)))
            v = rng.standard_normal(3)
            b = ls.metric_from_matrix(np.linalg.cholesky(a.AAt + np.outer(v, v)))
            da = ls.graph_diameter(su2, a, small_net).value
            db = ls.graph_diameter(su2, b, small_net).value
            assert da >= db - 1e-9 * max(1.0, db)

    def test_shrink_direction_strictly_increases(self, su2, small_net):
        values = [ls.graph_diameter(su2, ls.metric_from_matrix(np.diag([1.0, s, s])),
                                    small_net).value
                  for s in (1.0, 0.5, 0.25, 0.125)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_matches_reference_weights(self, su2, so3, small_net):
        so3_net = ls.build_net(so3, 2000, 12, seed=0)
        rng = np.random.default_rng(0)
        # sigma_1 / sigma_3 = 1e6, where a Cholesky factor of gram is
        # ill-conditioned.
        thin = [ls.metric_from_matrix(random_rotation(3, rng) @ np.diag(sig)
                                      @ random_rotation(3, rng))
                for sig in ANISOTROPIC_SIGMAS]
        for entry, net in ((su2, small_net), (so3, so3_net)):
            specs = [ls.sample_metric(entry, 0.2, 5.0, seed=seed) for seed in range(20)]
            for spec in specs + thin:
                est = ls.graph_diameter(entry, spec, net)
                assert est.value == pytest.approx(graph_diameter_reference(net, spec),
                                                  rel=1e-12)

    @pytest.mark.parametrize("sigma", ANISOTROPIC_SIGMAS)
    def test_weights_match_exact_under_anisotropy(self, small_net, sigma):
        # |v|_g^2 = v^t (A A^t)^-1 v for the stored A and logs, in exact
        # rational arithmetic (the adjugate over the determinant).  The
        # weight's condition number in A is sigma_1 / sigma_3, so a backward
        # stable double computation is good to about eps * sigma_1 / sigma_3
        # relative and no better.  Weighing with a Cholesky factor of gram
        # misses by 1.7e-6 to 6.2e-5 relative on these metrics.
        rng = np.random.default_rng(1)
        A = random_rotation(3, rng) @ np.diag(sigma) @ random_rotation(3, rng)
        spec = ls.metric_from_matrix(A)
        idx = np.linspace(0, small_net.edge_logs.shape[0] - 1, 300).astype(int)
        w = _edge_weights(small_net, spec)[idx]
        a = [[Fraction(x) for x in row] for row in A.tolist()]
        g = [[sum(a[i][k] * a[j][k] for k in range(3)) for j in range(3)] for i in range(3)]
        adj = [[g[(j + 1) % 3][(i + 1) % 3] * g[(j + 2) % 3][(i + 2) % 3]
                - g[(j + 1) % 3][(i + 2) % 3] * g[(j + 2) % 3][(i + 1) % 3]
                for j in range(3)] for i in range(3)]
        det = sum(g[0][k] * adj[k][0] for k in range(3))
        exact = []
        for v in small_net.edge_logs[idx].tolist():
            v = [Fraction(x) for x in v]
            q = sum(v[i] * adj[i][j] * v[j] for i in range(3) for j in range(3)) / det
            exact.append(math.sqrt(q))
        tol = 2 * np.finfo(float).eps * max(sigma) / min(sigma)
        assert np.allclose(w, exact, rtol=tol, atol=0.0)

    def test_matches_fresh_symmetric_graph(self, su2, so3, small_net, so3_small_net,
                                           big_net):
        # Directed Dijkstra on the upper edges and their transpose, built
        # afresh with the same weights, must give the diameter bit for bit,
        # on the default net too and on a rotated metric with sigma_1 /
        # sigma_3 = 25.
        rng = np.random.default_rng(2)
        rotated = ls.metric_from_matrix(random_rotation(3, rng) @ np.diag([5.0, 1.0, 0.2])
                                        @ random_rotation(3, rng))
        for entry, net, n_seeds in ((su2, small_net, 20), (so3, so3_small_net, 20),
                                    (su2, big_net, 4)):
            rows, cols, _ = reference_edges(net)
            specs = [ls.sample_metric(entry, 0.2, 5.0, seed=seed) for seed in range(n_seeds)]
            for spec in specs + [rotated]:
                est = ls.graph_diameter(entry, spec, net)
                dist = reference_distances(net.n_nodes, rows, cols, _edge_weights(net, spec))
                assert est.value == float(np.max(dist))

    def test_call_memory(self, su2, big_net):
        # On the default net a call allocates about 11.6 MiB: the weights of
        # the upper edges and the transpose that undirected Dijkstra reads
        # beside them.  Gathering the weights into both directions for a
        # directed Dijkstra took 14.8 MiB, and weighing the logs in one
        # product rather than in chunks 25.3 MiB.
        spec = ls.sample_metric(su2, 0.2, 5.0, seed=0)
        tracemalloc.start()
        try:
            ls.graph_diameter(su2, spec, big_net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 13 * 2 ** 20

    def test_eps_net_outside_unit_interval_rejected(self, su2, small_net):
        spec = ls.metric_from_matrix(np.diag([3.0, 2.0, 1.0]))
        for eps in (2.0, 1.0, -1.0, -1e-12, math.nan):
            with pytest.raises(ValueError, match=r"eps_net must be in \[0, 1\)"):
                ls.graph_diameter(su2, spec, small_net, eps_net=eps)
        assert ls.graph_diameter(su2, spec, small_net, eps_net=0.0).lower > 0

    def test_wrong_group_rejected(self, so3, small_net):
        with pytest.raises(ValueError):
            ls.graph_diameter(so3, ls.metric_from_matrix(np.eye(3)), small_net)

    def test_metric_of_another_dimension_rejected(self, su2, small_net):
        with pytest.raises(ValueError, match="^graph diameter expects a 3-dimensional metric$"):
            ls.graph_diameter(su2, ls.metric_from_matrix(np.eye(2)), small_net)


class TestClosedFormBounds:
    def test_su2_so3(self, su2, so3):
        spec = ls.metric_from_matrix(np.eye(3))
        b = ls.paper_diameter_bounds(su2, spec)
        assert (b.lower, b.upper) == pytest.approx((math.pi / 2, math.pi))
        b = ls.paper_diameter_bounds(so3, spec)
        assert (b.lower, b.upper) == pytest.approx(
            (math.pi / 2, math.sqrt(3) * math.pi / 2))

    def test_sigma2_scaling(self, su2):
        spec = ls.metric_from_matrix(np.diag([4.0, 2.0, 1.0]))
        b = ls.paper_diameter_bounds(su2, spec)
        assert b.lower == pytest.approx(math.pi / 4)
        assert b.upper == pytest.approx(math.pi / 2)

    def test_torus_uses_exact_reference_diameter(self, t2):
        spec = ls.metric_from_matrix(np.eye(2))
        b = ls.paper_diameter_bounds(t2, spec)
        assert b.lower == pytest.approx(math.sqrt(2) / 2)
        assert b.upper == pytest.approx(math.sqrt(2) / 2)

    def test_bracket_contains_estimates(self, su2, mid_net):
        for seed in range(5):
            spec = ls.sample_metric(su2, 0.3, 3.0, seed=seed)
            est = ls.graph_diameter(su2, spec, mid_net)
            b = ls.paper_diameter_bounds(su2, spec)
            assert b.lower * 0.9 <= est.value <= b.upper * 1.1


class TestDiameterEstimateInvariant:
    def test_bracket_ordering_enforced(self):
        with pytest.raises(ValueError):
            DiameterEstimate(value=1.0, lower=2.0, upper=3.0, method="x")

    def test_params_frozen_and_picklable(self):
        est = ls.torus_diameter(ls.metric_from_matrix(np.eye(2)), grid_resolution=16)
        assert est.params == (("grid_resolution", 16),)
        with pytest.raises(TypeError):
            est.params["grid_resolution"] = 32
        with pytest.raises(dataclasses.FrozenInstanceError):
            est.params = ()
        back = pickle.loads(pickle.dumps(est))
        assert back.params == est.params
        assert back.value == est.value


def test_import_defers_scipy_spatial():
    """Only net code pays for importing the k-d tree and the sparse graphs,
    and only a scan with a worker pool for the process pool."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ls.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = """
import sys, numpy as np, liespec
liespec.startup_self_test()
t2 = liespec.torus_entry(2)
spec = liespec.metric_from_matrix(np.diag([2.0, 1.0]))
liespec.lambda1_certified(t2, spec)
liespec.torus_diameter(spec)
print([name in sys.modules
       for name in ("scipy.spatial", "scipy.sparse", "concurrent.futures")])
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env, timeout=60)
    assert out.stdout.strip() == "[False, False, False]"


@pytest.mark.parametrize("module", ["lie_core", "metric_space", "rep_theory",
                                    "geometry", "egs_scan", "_lattice"])
def test_all_names_resolve(module):
    """Every name a module exports exists, so a star import succeeds."""
    mod = importlib.import_module(f"liespec.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    exec(f"from liespec.{module} import *", {})
