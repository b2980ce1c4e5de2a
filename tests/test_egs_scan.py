"""Ratio records, scans, degeneration sweeps, verification suite, reporting."""

import concurrent.futures
import dataclasses
import json
import math
import os
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import liespec as ls
from liespec import egs_scan
from liespec.egs_scan import (CHECK_NAMES, DiamConfig, egs_ratio,
                              property_suite, record_to_dict, scan,
                              scan_csv_text, scan_to_json)
from liespec.rep_theory import biinvariant_lambda1


def test_net_allowance_is_a_constant():
    # Not a field: a config cannot set it, and it reads the fixed 10%.
    with pytest.raises(TypeError):
        DiamConfig(eps_net=0.2)
    assert DiamConfig().eps_net == 0.1
    assert "eps_net" not in [f.name for f in dataclasses.fields(DiamConfig)]


def test_net_seed_is_a_constant():
    # Every net a config describes is the seed-0 net for its size and knn.
    with pytest.raises(TypeError):
        DiamConfig(net_seed=1)
    assert DiamConfig().net_seed == 0
    assert [f.name for f in dataclasses.fields(DiamConfig)] == []


def test_knn_and_grid_are_constants():
    # A scan record is its inputs: no config reads another net size, knn or
    # torus grid.
    with pytest.raises(TypeError):
        DiamConfig(knn=8)
    with pytest.raises(TypeError):
        DiamConfig(grid_resolution=32)
    with pytest.raises(TypeError):
        DiamConfig(net_size=2000)
    assert (DiamConfig().knn, DiamConfig().grid_resolution) == (12, 64)
    assert DiamConfig().net_size == 20000


class TestEgsRatio:
    def test_su2_identity(self, su2, small_net):
        rec = egs_ratio(su2, ls.metric_from_matrix(np.eye(3)), net=small_net)
        assert rec.lambda1 == pytest.approx(3.0, abs=1e-12)
        assert math.pi / 2 * 0.95 <= rec.diam_value <= math.pi * 1.05
        assert rec.ratio == pytest.approx(3.0 * rec.diam_value ** 2)
        assert all(dict(rec.checks)[k] for k in CHECK_NAMES)

    def test_t2_identity_ratio(self, t2):
        rec = egs_ratio(t2, ls.metric_from_matrix(np.eye(2)))
        assert rec.ratio == pytest.approx(2 * math.pi ** 2, rel=5e-3)
        assert dict(rec.checks)["li_ok"]

    def test_homothety_invariance(self, t2, su2, small_net):
        base = egs_ratio(t2, ls.metric_from_matrix(np.eye(2)))
        scaled = egs_ratio(t2, ls.metric_from_matrix(3.0 * np.eye(2)))
        assert scaled.ratio == pytest.approx(base.ratio, rel=1e-9)
        a = ls.sample_metric(su2, 0.5, 2.0, seed=11)
        ra = egs_ratio(su2, a, net=small_net)
        rb = egs_ratio(su2, ls.metric_from_matrix(2.0 * a.A), net=small_net)
        assert rb.ratio == pytest.approx(ra.ratio, rel=1e-9)

    def test_checks_frozen_and_picklable(self, t2):
        rec = egs_ratio(t2, ls.metric_from_matrix(np.eye(2)))
        assert [k for k, _ in rec.checks] == list(CHECK_NAMES)
        with pytest.raises(TypeError):
            rec.checks["li_ok"] = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.checks = ()
        assert pickle.loads(pickle.dumps(rec)) == rec

    def test_no_estimator_for_products(self, su2xsu2):
        skew = ls.metric_from_matrix(np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match="no diameter estimator"):
            egs_ratio(su2xsu2, skew)

    @pytest.mark.parametrize("key, ratio", [
        ("su2", 3.0), ("so3", 2.0), ("t1", 1.0), ("t2", 2.0), ("t3", 3.0),
        ("t4", 4.0), ("su2xsu2", 6.0)])
    def test_homothety_closed_form(self, key, ratio):
        # A = c I: the bi-invariant diameter d0 scaled by 1/c on every group.
        entry = ls.entry_from_key(key)
        d0 = ls.biinvariant_diameter(entry).value
        for c in (0.5, 2.0):
            rec = egs_ratio(entry, ls.metric_from_matrix(c * np.eye(entry.dim)))
            assert rec.diam_method == "BiInvariantClosedForm"
            assert rec.diam_value == rec.diam_lower == rec.diam_upper == d0 / c
            assert rec.ratio == pytest.approx(ratio * math.pi ** 2, rel=1e-12)
            assert rec.violated() == []

    def test_identity_gap(self, su2, so3, t2, su2xsu2):
        assert biinvariant_lambda1(su2) == pytest.approx(3.0)
        assert biinvariant_lambda1(so3) == pytest.approx(8.0)
        assert biinvariant_lambda1(t2) == pytest.approx(4 * math.pi ** 2)
        assert biinvariant_lambda1(su2xsu2) == pytest.approx(3.0)


class TestScan:
    def test_single_sample_matches_ratio(self, t2):
        recs, summary = scan(t2, 1, lo=0.5, hi=2.0, base_seed=7)
        direct = egs_ratio(t2, ls.sample_metric(t2, 0.5, 2.0, seed=7), seed=7)
        assert recs[0] == direct
        assert summary.n_samples == 1

    def test_deterministic_csv(self, t2):
        a, _ = scan(t2, 20, lo=0.1, hi=10.0, base_seed=0)
        b, _ = scan(t2, 20, lo=0.1, hi=10.0, base_seed=0)
        assert scan_csv_text(a) == scan_csv_text(b)

    def test_parallel_equals_serial(self, t2):
        a, sa = scan(t2, 16, lo=0.2, hi=5.0, base_seed=3, jobs=1)
        b, sb = scan(t2, 16, lo=0.2, hi=5.0, base_seed=3, jobs=2)
        assert scan_csv_text(a) == scan_csv_text(b)
        assert sa.violation_counts == sb.violation_counts

    def test_concurrent_scans_read_only_their_own_inputs(self, monkeypatch):
        # Each thread waits at its first sample until the other has started
        # its scan, so both scans run with the other's inputs live.
        barrier = threading.Barrier(2)
        started = threading.local()
        real = egs_scan.sample_metric

        def sample_metric(*args):
            if not getattr(started, "flag", False):
                started.flag = True
                barrier.wait(timeout=30)
            return real(*args)

        monkeypatch.setattr(egs_scan, "sample_metric", sample_metric)
        keys = ("t1", "t2")
        with ThreadPoolExecutor(max_workers=2) as ex:
            futures = [ex.submit(scan, ls.entry_from_key(k), 40) for k in keys]
            results = [f.result(timeout=120)[0] for f in futures]
        for key, recs in zip(keys, results):
            assert [r.group for r in recs] == [key] * 40
            assert [r.seed for r in recs] == list(range(40))

    def test_t2_no_violations(self, t2):
        recs, summary = scan(t2, 1000, lo=0.1, hi=10.0, base_seed=0)
        assert sum(summary.violation_counts.values()) == 0
        assert math.isfinite(summary.max_ratio)
        assert summary.argmax_seed in {r.seed for r in recs}

    def test_su2_scan_checks(self, su2, mid_net):
        recs, summary = scan(su2, 25, lo=0.2, hi=5.0, base_seed=0, net=mid_net)
        assert summary.violation_counts["remark_lambda_ok"] == 0
        assert summary.violation_counts["remark_diam_ok"] == 0
        assert summary.violation_counts["urakawa_ok"] == 0

    def test_sample_seeds_offset(self, t2):
        recs, _ = scan(t2, 3, base_seed=100)
        assert [r.seed for r in recs] == [100, 101, 102]

    def test_rejects_empty(self, t2):
        with pytest.raises(ValueError):
            scan(t2, 0)

    def test_workers_capped_by_samples(self, t2, monkeypatch):
        # A process pool starts all its workers at the first submit, so a
        # huge --jobs must never reach it.  The fake runs the pool in process.
        requested = []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                requested.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, seeds, chunksize):
                return map(fn, seeds)

        # scan imports the pool class only when it starts a pool.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(egs_scan, "_WORKER", {})
        serial, _ = scan(t2, 3, jobs=1)
        assert requested == []
        pooled, _ = scan(t2, 3, jobs=10_000)
        assert requested == [3]
        assert scan_csv_text(pooled) == scan_csv_text(serial)

    def test_rejects_jobs_below_one(self, t2):
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="need jobs >= 1"):
                scan(t2, 2, jobs=jobs)


class TestDegeneration:
    def test_su2_shrink_transverse(self, su2):
        rep = ls.degeneration_experiment(su2, "shrink-transverse",
                                         [1.0, 0.5, 0.25, 0.125])
        lams = [r.lambda1 for r in rep.rows]
        diams = [r.diam_value for r in rep.rows]
        assert all(b < a for a, b in zip(lams, lams[1:]))
        assert all(b > a for a, b in zip(diams, diams[1:]))
        assert rep.monotone["lambda1_over_sigma1_sq"] == "decreasing"
        assert rep.monotone["diam_times_sigma1"] == "increasing"
        ratios = [r.tracked["lambda1_over_s_sq"] for r in rep.rows]
        assert abs(ratios[-1] / ratios[-2] - 1.0) < 0.25

    def test_torus_dense_line(self, t2):
        rep = ls.degeneration_experiment(t2, "torus-dense-line", [1.0, 4.0, 16.0])
        tracked = [r.tracked["diam_times_sigma2"] for r in rep.rows]
        assert all(b < a for a, b in zip(tracked, tracked[1:]))
        assert rep.monotone["diam_times_sigma2"] == "decreasing"
        assert all(r.lambda1_certified for r in rep.rows)

    def test_product_sweeps(self, su2xsu2):
        rep = ls.degeneration_experiment(su2xsu2, "enlarge-generating",
                                         [1.0, 2.0, 4.0])
        tracked = [r.tracked["lambda1_over_sigma4_sq"] for r in rep.rows]
        assert all(b > a for a, b in zip(tracked, tracked[1:]))
        assert all(r.diam_value is None for r in rep.rows)  # no 6-dim estimator
        rep = ls.degeneration_experiment(su2xsu2, "shrink-transverse",
                                         [1.0, 0.5, 0.25])
        lams = [r.lambda1 for r in rep.rows]
        assert all(b < a for a, b in zip(lams, lams[1:]))

    def test_validation(self, su2, so3, t2, t3, su2xsu2):
        with pytest.raises(ValueError):
            ls.degeneration_experiment(su2, "no-such-kind", [1.0, 0.5])
        for entry, kind, groups in ((t2, "shrink-transverse", "su2 or su2xsu2"),
                                    (so3, "shrink-transverse", "su2 or su2xsu2"),
                                    (t2, "enlarge-generating", "su2xsu2"),
                                    (t3, "torus-dense-line", "t2")):
            with pytest.raises(ValueError, match=f"^{kind} runs on {groups}$"):
                ls.degeneration_experiment(entry, kind, [1.0, 2.0])
        with pytest.raises(ValueError):
            ls.degeneration_experiment(su2, "shrink-transverse", [1.0, 1.0])
        with pytest.raises(ValueError):
            ls.degeneration_experiment(su2xsu2, "enlarge-generating", [1.0])
        with pytest.raises(ValueError, match="^s values must be monotone$"):
            ls.degeneration_experiment(t2, "torus-dense-line", [1.0, 0.5, 2.0])

    def test_monotone_tags(self):
        assert egs_scan._monotone_tag([1.0, 2.0, 4.0]) == "increasing"
        assert egs_scan._monotone_tag([4.0, 2.0, 1.0]) == "decreasing"
        assert egs_scan._monotone_tag([1.0, 2.0, 1.0]) == "mixed"

    def test_s_values_finite_and_positive(self, t2):
        for s_values in ([1.0, -1.0], [1.0, math.nan], [1.0, 0.0], [math.inf, 1.0],
                         [-4.0, -1.0]):
            with pytest.raises(ValueError, match="^s values must be finite and positive$"):
                ls.degeneration_experiment(t2, "torus-dense-line", s_values)


class TestPropertySuite:
    def test_torus_all_pass(self, t2):
        rep = property_suite(t2, n_trials=8, seed=0)
        assert rep.all_passed
        names = [c.name for c in rep.checks]
        assert "metric_right_orthogonal_invariance" in names
        assert "spectral_gap_loewner_monotonicity" in names
        assert "mixed_casimir_assembly_identity" in names

    @pytest.mark.parametrize("key", ["su2", "so3"])
    def test_all_pass_on_own_net(self, key, monkeypatch):
        # The suite reads its fixed-net diameters on one net of its own size.
        sizes = []

        def counted(entry, n_nodes, *args):
            sizes.append(n_nodes)
            return ls.build_net(entry, n_nodes, *args)
        monkeypatch.setattr(egs_scan, "build_net", counted)
        rep = property_suite(ls.entry_from_key(key), n_trials=6, seed=1)
        assert rep.all_passed
        assert any(c.name == "diameter_loewner_monotonicity" for c in rep.checks)
        assert sizes == [egs_scan.SUITE_NET_SIZE] == [2000]

    def test_one_gap_per_metric(self, t2, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return ls.lambda1_certified(*args, **kwargs)
        monkeypatch.setattr(egs_scan, "lambda1_certified", counted)
        property_suite(t2, n_trials=4, seed=0)
        assert len(calls) == 3 * 4

    def test_failures_carry_the_counterexample(self, t2, inflated_gaps):
        # The two bound checks read the scan's gap flags; a gap above
        # lambda1(id) * sigma_1^2 breaks the simple bound on every trial.
        rep = property_suite(t2, n_trials=3, seed=0)
        assert not rep.all_passed
        bounds = next(c for c in rep.checks if c.name == "spectral_simple_bounds")
        assert len(bounds.failures) == 3
        for f in bounds.failures:
            assert set(f) == {"A", "lambda1"}
            s1 = ls.metric_from_matrix(np.array(f["A"])).sigma[0]
            assert f["lambda1"] > biinvariant_lambda1(t2) * s1 ** 2

    def test_zero_trials_rejected(self, t2):
        with pytest.raises(ValueError):
            property_suite(t2, n_trials=0)

    def test_circle_all_pass(self):
        # t1 has two characters below Casimir 100, fewer than the three
        # irreps the mixed Casimir check cycles through.
        assert property_suite(ls.torus_entry(1), n_trials=3).all_passed


class TestReporting:
    def test_csv_column_order(self, t2):
        recs, _ = scan(t2, 2)
        header = scan_csv_text(recs).splitlines()[0].split(",")
        assert header == ["seed", "group", "m", "sigma_1", "sigma_2", "lambda1",
                          "lambda1_certified", "lambda1_witness", "diam_lower",
                          "diam_value", "diam_upper", "diam_method", "ratio",
                          *CHECK_NAMES]

    def test_json_mirror(self, t2):
        recs, summary = scan(t2, 3)
        payload = json.loads(scan_to_json(recs, summary))
        assert payload["schema_version"] == 1
        assert len(payload["records"]) == 3
        rec = payload["records"][0]
        assert list(rec) == scan_csv_text(recs).splitlines()[0].split(",")
        assert rec == record_to_dict(recs[0])

    def test_no_records_refused(self):
        with pytest.raises(ValueError, match="no records to write"):
            scan_csv_text([])

    def test_record_flags_reproducible(self, t2):
        recs, summary = scan(t2, 5, base_seed=40)
        for rec in recs:
            assert rec.ratio > 0
            li = rec.lambda1 * rec.diam_lower ** 2 >= math.pi ** 2 / 4 - 1e-6
            assert dict(rec.checks)["li_ok"] == li


class TestReportsImmutable:
    """Report containers refuse mutation, so a report cannot change after the fact."""

    def test_scan_summary(self, t2):
        _, summary = scan(t2, 3)
        with pytest.raises(TypeError):
            summary.violation_counts["li_ok"] = 1
        with pytest.raises(AttributeError):
            summary.violations.append((0, "li_ok"))

    def test_degeneration_report(self, t2):
        rep = ls.degeneration_experiment(t2, "torus-dense-line", [1.0, 4.0])
        with pytest.raises(AttributeError):
            rep.rows.append(rep.rows[0])
        with pytest.raises(TypeError):
            rep.rows[0].tracked["diam_times_sigma2"] = 0.0
        with pytest.raises(TypeError):
            rep.monotone["diam_times_sigma2"] = "mixed"

    def test_property_report(self, t2):
        rep = property_suite(t2, n_trials=2, seed=0)
        with pytest.raises(AttributeError):
            rep.checks.append(rep.checks[0])
        with pytest.raises(AttributeError):
            rep.checks[0].failures.append({"A": []})
        assert rep.all_passed
        check = egs_scan.PropertyCheck(name="c", trials=1, failures=[{"A": [[1.0]]}])
        with pytest.raises(TypeError):
            check.failures[0]["A"] = [[2.0]]
        with pytest.raises(TypeError):
            check.failures[0]["A"][0][0] = 5.0
        assert egs_scan._to_json_data(check) == {
            "name": "c", "trials": 1, "failures": [{"A": [[1.0]]}]}
