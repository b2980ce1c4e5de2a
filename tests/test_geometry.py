"""Diameter estimators: covering radii, closed forms, geodesic graphs."""

import dataclasses
import importlib
import math
import os
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

import liespec as ls
from liespec import _lattice
from liespec.geometry import DiameterEstimate, _closest_lattice_distances, _grid_points
from liespec.lie_core import quat_conj, quat_log, quat_mul


def bruteforce_lattice_distance(gram, points, radius=12):
    box = _lattice.enumerate_box(radius, gram.shape[0]).astype(float)
    diffs = points[:, None, :] - box[None, :, :]
    vals = np.einsum("pni,ij,pnj->pn", diffs, gram, diffs)
    return np.sqrt(np.min(vals, axis=1))


def torus_diameter_reference(spec, res):
    """(lower, value, upper, farthest point) from a full-grid direct sweep."""
    m, gram = spec.m, spec.gram
    pts = _grid_points(res, m)
    dists = _closest_lattice_distances(gram, pts)
    i0 = int(np.argmax(dists))
    coarse = float(dists[i0])
    h = 1.0 / res
    local = _grid_points(17, m) * (2 * h) - h + pts[i0]
    ld = _closest_lattice_distances(gram, local)
    j0 = int(np.argmax(ld))
    value = max(coarse, float(ld[j0]))
    best_x = local[j0] if ld[j0] >= coarse else pts[i0]
    corners = _lattice.enumerate_box(1, m).astype(float) * (0.5 * h)
    upper = coarse + math.sqrt(max(float(c @ gram @ c) for c in corners))
    return value, value, upper, np.mod(best_x, 1.0)


def dense_knn_reference(kind, nodes, k):
    """knn pairs (rows < cols) and mesh from dense geodesic angles."""
    n = nodes.shape[0]
    dots = nodes @ nodes.T
    if kind == "so3":
        dots = np.abs(dots)
    d = np.arccos(np.clip(dots, -1.0, 1.0))
    np.fill_diagonal(d, np.inf)
    idx = np.argpartition(d, k, axis=1)[:, :k]
    mesh = float(np.max(np.min(np.take_along_axis(d, idx, axis=1), axis=1)))
    own = np.repeat(np.arange(n), k)
    pairs = np.unique(np.minimum(own, idx.ravel()) * n + np.maximum(own, idx.ravel()))
    return pairs // n, pairs % n, mesh


def reference_edges(net):
    """Straightened edges (rows < cols, row-major) and their logs."""
    n = net.n_nodes
    one = csr_matrix((np.ones(net.rows.size, dtype=bool), (net.rows, net.cols)),
                     shape=(n, n))
    sym = one + one.T
    two = (sym @ sym + sym).tocoo()
    keep = two.row < two.col
    rows, cols = two.row[keep].astype(np.int64), two.col[keep].astype(np.int64)
    order = np.argsort(rows * n + cols)
    rows, cols = rows[order], cols[order]
    return rows, cols, quat_log(quat_mul(quat_conj(net.nodes[rows]), net.nodes[cols]),
                                so3=net.kind == "so3")


def reference_distances(n, rows, cols, w):
    """Dijkstra from node 0 on a graph built afresh from undirected edges."""
    g = csr_matrix((np.concatenate([w, w]),
                    (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
                   shape=(n, n))
    return dijkstra(g, directed=True, indices=0)


def net_edge_rows(net):
    """Row of each straightened edge, read off the net's upper CSR."""
    return np.repeat(np.arange(net.n_nodes), np.diff(net.indptr))


def symmetric_dijkstra_reference(net, spec):
    """(distances, farthest node) from directed Dijkstra on the symmetric graph.

    Every edge is stored in both directions and carries graph_diameter's own
    Cholesky weight, so the distances must match it bit for bit.
    """
    y = net.edge_logs @ np.linalg.cholesky(spec.gram)
    w = np.sqrt(np.einsum("ei,ei->e", y, y))
    upper = csr_matrix((w, net.edge_cols, net.indptr), shape=(net.n_nodes, net.n_nodes))
    both = (upper + upper.T).tocsr()
    both.sort_indices()
    dist = dijkstra(both, directed=True, indices=0)
    return dist, int(np.argmax(dist))


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

    def test_deep_hole_witness(self):
        est = ls.torus_diameter(ls.metric_from_matrix(np.eye(2)))
        assert np.allclose(np.sort(est.farthest_point.data), [0.5, 0.5], atol=0.02)

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
                got = _closest_lattice_distances(gram, pts)
                ref = bruteforce_lattice_distance(gram, pts, radius=14)
                assert np.max(np.abs(got - ref)) <= 1e-10

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

    def test_grid_point_cap(self):
        with pytest.raises(ValueError, match="grid points"):
            ls.torus_diameter(ls.metric_from_matrix(np.eye(2)), grid_resolution=5000)

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
            *ref, ref_x = torus_diameter_reference(spec, res)
            assert np.allclose([est.lower, est.value, est.upper], ref,
                               rtol=1e-12, atol=0), (m, res, seed)
            assert np.allclose(est.farthest_point.data, ref_x, rtol=0, atol=1e-12)

    def test_sweep_memory(self, t3):
        # A full-grid sweep peaks at 34 MiB on this call; the chunked half-grid
        # sweep at about 10 MiB, mostly one chunk's offsets-by-points block.
        spec = ls.sample_metric(t3, 0.2, 5.0, seed=0)
        tracemalloc.start()
        try:
            ls.torus_diameter(spec, grid_resolution=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20


class TestBiInvariant:
    def test_closed_forms(self, su2, so3, t3, su2xsu2):
        assert ls.biinvariant_diameter(su2).value == pytest.approx(math.pi)
        so3_diam = ls.biinvariant_diameter(so3).value
        assert so3_diam == pytest.approx(math.pi / 2)
        assert math.pi / 2 <= so3_diam <= math.sqrt(3) * math.pi / 2
        assert ls.biinvariant_diameter(t3).value == pytest.approx(math.sqrt(3) / 2)
        assert ls.biinvariant_diameter(su2xsu2).value == pytest.approx(
            math.pi * math.sqrt(2))

    def test_witness_attains_value(self, su2, so3, t3):
        for entry in (su2, so3, t3):
            est = ls.biinvariant_diameter(entry)
            assert ls.biinvariant_distance(entry, est.farthest_point) == pytest.approx(
                est.value, abs=1e-12)

    def test_distance_examples(self, su2, so3, t2):
        assert ls.biinvariant_distance(su2, ls.identity_element(su2)) == 0.0
        a = ls.group_exp(su2, np.array([0.0, 0.3, 0.0]))
        assert ls.biinvariant_distance(su2, a) == pytest.approx(0.3)
        b = ls.group_exp(so3, np.array([0.0, 2.0, 0.0]))  # past the half turn
        assert ls.biinvariant_distance(so3, b) == pytest.approx(math.pi - 2.0)
        c = ls.GroupElement("torus", np.array([0.75, 0.0]))
        assert ls.biinvariant_distance(t2, c) == pytest.approx(0.25)


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

    def test_mesh_decreases_with_size(self, su2):
        coarse = ls.build_net(su2, 500, 8, seed=0)
        fine = ls.build_net(su2, 4000, 8, seed=0)
        assert fine.mesh < coarse.mesh

    def test_edge_logs_are_exact_distances(self, su2, small_net):
        w = np.linalg.norm(small_net.edge_logs, axis=1)
        p = small_net.nodes[net_edge_rows(small_net)]
        q = small_net.nodes[small_net.edge_cols]
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
        assert np.array_equal(net.nodes, draw * np.sign(lead))

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
                rows, cols, mesh = dense_knn_reference(entry.kind, net.nodes, 12)
                assert np.array_equal(net.rows, rows)
                assert np.array_equal(net.cols, cols)
                assert net.mesh == pytest.approx(mesh, rel=1e-12)

    def test_straightened_edges_match_reference(self, small_net):
        rows, cols, logs = reference_edges(small_net)
        assert np.array_equal(net_edge_rows(small_net), rows)
        assert np.array_equal(small_net.edge_cols, cols)
        assert np.array_equal(small_net.edge_logs, logs)

    def test_edges_are_one_upper_csr(self, small_net):
        net = small_net
        rows = net_edge_rows(net)
        assert net.indptr.size == net.n_nodes + 1 and net.indptr[0] == 0
        assert net.indptr[-1] == net.edge_cols.size == net.edge_logs.shape[0]
        assert np.all(rows < net.edge_cols)
        # Row-major and sorted within each row: the flat keys ascend strictly.
        assert np.all(np.diff(rows * net.n_nodes + net.edge_cols) > 0)

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


class TestGraphDiameter:
    def test_biinvariant_reference(self, su2, mid_net):
        est = ls.graph_diameter(su2, ls.metric_from_matrix(np.eye(3)), mid_net)
        assert abs(est.value - math.pi) / math.pi < 0.05
        assert est.lower <= est.value <= est.upper
        assert est.lower == pytest.approx(est.value * 0.9)
        assert (dict(est.params)["knn"], dict(est.params)["seed"]) == (12, 0)

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
        for entry, net in ((su2, small_net), (so3, so3_net)):
            for seed in range(20):
                spec = ls.sample_metric(entry, 0.2, 5.0, seed=seed)
                est = ls.graph_diameter(entry, spec, net)
                assert est.value == pytest.approx(graph_diameter_reference(net, spec),
                                                  rel=1e-12)

    def test_undirected_read_matches_symmetric_graph(self, su2, so3, small_net):
        so3_net = ls.build_net(so3, 2000, 12, seed=0)
        for entry, net in ((su2, small_net), (so3, so3_net)):
            for seed in range(20):
                spec = ls.sample_metric(entry, 0.2, 5.0, seed=seed)
                est = ls.graph_diameter(entry, spec, net)
                dist, far = symmetric_dijkstra_reference(net, spec)
                assert est.value == float(dist[far])
                assert np.array_equal(est.farthest_point.data, net.nodes[far])

    def test_eps_net_outside_unit_interval_rejected(self, su2, small_net):
        spec = ls.metric_from_matrix(np.diag([3.0, 2.0, 1.0]))
        for eps in (2.0, 1.0, -1.0, -1e-12, math.nan):
            with pytest.raises(ValueError, match=r"eps_net must be in \[0, 1\)"):
                ls.graph_diameter(su2, spec, small_net, eps_net=eps)
        assert ls.graph_diameter(su2, spec, small_net, eps_net=0.0).lower > 0

    def test_wrong_group_rejected(self, so3, small_net):
        with pytest.raises(ValueError):
            ls.graph_diameter(so3, ls.metric_from_matrix(np.eye(3)), small_net)


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
    """Only net code pays for importing the k-d tree and the sparse graphs."""
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
print([name in sys.modules for name in ("scipy.spatial", "scipy.sparse")])
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env, timeout=60)
    assert out.stdout.strip() == "[False, False]"


@pytest.mark.parametrize("module", ["lie_core", "metric_space", "rep_theory",
                                    "geometry", "egs_scan", "_lattice"])
def test_all_names_resolve(module):
    """Every name a module exports exists, so a star import succeeds."""
    mod = importlib.import_module(f"liespec.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    exec(f"from liespec.{module} import *", {})
