import dataclasses
import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix

import liespec as ls


@pytest.fixture(scope="session")
def su2():
    return ls.su2_entry()


@pytest.fixture(scope="session")
def so3():
    return ls.so3_entry()


@pytest.fixture(scope="session")
def t2():
    return ls.torus_entry(2)


@pytest.fixture(scope="session")
def t3():
    return ls.torus_entry(3)


@pytest.fixture(scope="session")
def su2xsu2():
    return ls.product_entry([ls.su2_entry(), ls.su2_entry()])


@pytest.fixture(scope="session")
def small_net(su2):
    """2000-node net, enough for mechanics tests (not for tight brackets)."""
    return ls.build_net(su2, 2000, 12, seed=0)


@pytest.fixture(scope="session")
def so3_small_net(so3):
    """2000-node so3 net, the so3 counterpart of small_net."""
    return ls.build_net(so3, 2000, 12, seed=0)


@pytest.fixture(scope="session")
def mid_net(su2):
    """4000-node net for monotonicity sweeps at moderate cost."""
    return ls.build_net(su2, 4000, 12, seed=0)


@pytest.fixture(scope="session")
def big_net(su2):
    """The documented default net (20000 nodes, knn 12, seed 0)."""
    return ls.build_net(su2, 20000, 12, seed=0)


@pytest.fixture
def disconnected_knn(monkeypatch):
    """Makes every net's knn graph two chains, split at the middle node."""
    def two_chains(kind, nodes, k):
        n = nodes.shape[0]
        rows = np.array([i for i in range(n - 1) if i != n // 2 - 1])
        chains = csr_matrix((np.ones(rows.size, dtype=bool), (rows, rows + 1)),
                            shape=(n, n))
        return chains + chains.T
    monkeypatch.setattr(ls.geometry, "_knn_adjacency", two_chains)


@pytest.fixture
def inflated_gaps(monkeypatch):
    """Makes every gap the verification suite computes 1000 times too large."""
    def inflated(*args, **kwargs):
        res = ls.lambda1_certified(*args, **kwargs)
        return dataclasses.replace(res, lambda1=1000 * res.lambda1)
    monkeypatch.setattr(ls.egs_scan, "lambda1_certified", inflated)


def identity_spec(m):
    return ls.metric_from_matrix(np.eye(m))


def torus_gap_bruteforce(spec):
    """4 pi^2 min n^t (A A^t) n over nonzero integer n, by exhaustive sweep.

    A minimiser satisfies lambda_min |n|^2 <= n^t (A A^t) n <= min_j (A A^t)_jj,
    so the box of that radius holds it.
    """
    AAt = spec.AAt
    radius = int(math.sqrt(np.min(np.diag(AAt)) / np.linalg.eigvalsh(AAt)[0]))
    grids = np.meshgrid(*([np.arange(-radius, radius + 1)] * spec.m), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    pts = pts[np.any(pts != 0, axis=1)]
    vals = np.einsum("ni,ij,nj->n", pts, AAt, pts)
    return 4 * math.pi ** 2 * float(np.min(vals))


@pytest.fixture(scope="session")
def torus_gap():
    """The brute-force torus gap oracle, for tests in any module."""
    return torus_gap_bruteforce
