"""Command-line interface: dispatch, formats, exit codes."""

import csv
import json
import math
import os
import re
import warnings

import numpy as np
import pytest

import liespec as ls
from liespec import egs_scan
from liespec.cli import build_parser, main
from liespec.metric_space import random_rotation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ("sigma", "--group", "su2", "--seed", "1"),
    ("lambda1", "--group", "su2", "--seed", "1"),
    ("ell", "--group", "su2", "--seed", "1"),
    ("sigma", "--group", "su2", "--format", "csv"),
    ("lambda1", "--group", "su2", "--format", "csv"),
    ("diam", "--group", "su2", "--format", "csv"),
    ("ell", "--group", "su2", "--format", "csv"),
    ("degenerate", "--group", "t2", "--kind", "torus-dense-line",
     "--s-values", "1,4", "--format", "csv"),
    ("verify", "--group", "t2", "--format", "csv"),
    ("scan", "--group", "t2", "--samples", "1", "--format", "table"),
])
def test_options_without_effect_rejected(argv):
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    assert e.value.code == 2


@pytest.mark.parametrize("argv", [
    ("scan", "--group", "t2", "--samples", "3", "--grid-resolution", "32"),
    ("scan", "--group", "t2", "--samples", "3", "--grid-resolution", "32",
     "--format", "json"),
    ("verify", "--group", "t2", "--trials", "2"),
    ("verify", "--group", "t2", "--trials", "2", "--format", "json"),
])
def test_out_file_matches_stdout(capsys, tmp_path, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "out.txt"
    code, printed, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0 and printed == ""
    assert path.read_bytes() == out.encode("utf-8")


NET_SCOPE = "acts only on su2/so3 metrics that are not homotheties"
GRID_SCOPE = "acts only on torus metrics that are not homotheties"


@pytest.mark.parametrize("command, net_scope, grid_scope", [
    ("diam", NET_SCOPE, GRID_SCOPE),
    ("scan", NET_SCOPE, GRID_SCOPE),
    ("degenerate", "acts only with --group su2 --kind shrink-transverse",
     "acts only with --group t2 --kind torus-dense-line"),
])
def test_help_says_where_estimator_flags_act(capsys, monkeypatch, command, net_scope,
                                             grid_scope):
    monkeypatch.setenv("COLUMNS", "1000")  # no wrapping, which may split at a hyphen
    with pytest.raises(SystemExit) as e:
        main([command, "--help"])
    assert e.value.code == 0
    options = " ".join(capsys.readouterr().out.split()).split("options:", 1)[1]
    # Each entry reads "--flag METAVAR help"; a help text may name other
    # flags, but never followed by a metavar.
    helps = dict(re.findall(r"(--[a-z-]+) [A-Z_]+ (.*?)(?= --[a-z-]+ [A-Z_{]|$)", options))
    for flag in ("--seed", "--net-size", "--knn", "--eps-net"):
        assert helps[flag].endswith(net_scope), flag
    assert helps["--grid-resolution"].endswith(grid_scope)


@pytest.mark.parametrize("argv, message", [
    (("diam", "--group", "su2", "--matrix", "3,0,0,0,2,0,0,0,1", "--net-size", "500",
      "--eps-net", "2"), "eps_net must be in [0, 1)"),
    (("scan", "--group", "t2", "--samples", "2", "--jobs", "0"), "need jobs >= 1"),
    (("degenerate", "--group", "t2", "--kind", "torus-dense-line", "--s-values", "1,-1"),
     "s values must be finite and positive"),
    (("diam", "--group", "su2", "--matrix", "3,0,0,0,2,0,0,0,1", "--net-size", "100",
      "--knn", "200"), "need 6 <= knn < n_nodes"),
    # Scales whose A A^t double precision cannot hold.
    (("sigma", "--group", "su2", "--matrix", "1e160,0,0,0,1e160,0,0,0,1e160"),
     "A A^t overflows double precision"),
    (("diam", "--group", "su2", "--matrix", "1e160,0,0,0,1e160,0,0,0,1e160"),
     "A A^t overflows double precision"),
    (("lambda1", "--group", "t2", "--matrix", "1e160,0,0,1e160"),
     "A A^t overflows double precision"),
    (("diam", "--group", "su2", "--matrix", "1e-160,0,0,0,1e-160,0,0,0,1e-160"),
     "below the smallest normal double"),
    (("lambda1", "--group", "su2", "--matrix", "1e-160,0,0,0,1e-160,0,0,0,1e-160"),
     "below the smallest normal double"),
    (("diam", "--group", "t2", "--matrix", "1e-160,0,0,2e-160"),
     "below the smallest normal double"),
    # Scales whose A A^t fits but whose spectral gap does not.
    (("lambda1", "--group", "su2", "--matrix", "1e154,0,0,0,1e154,0,0,0,1e154"),
     "overflows the float range"),
    (("lambda1", "--group", "t2", "--matrix", "1e154,0,0,1e154"),
     "overflows the float range"),
    (("lambda1", "--group", "su2xsu2",
      "--matrix", ",".join(f"{v:g}" for v in (1e154 * np.eye(6)).ravel())),
     "overflows the float range"),
    (("ell", "--group", "su2", "--rotation", "1,0,0,0,2,0,0,0,1"), "P must be orthogonal"),
])
def test_out_of_range_inputs_exit_2(capsys, argv, message):
    # A refusal is its error line alone, with no numpy warning before it.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


class TestSigma:
    def test_inline_matrix(self, capsys):
        code, out, _ = run(capsys, "sigma", "--group", "su2",
                           "--matrix", "3,0,0,0,2,0,0,0,1")
        assert code == 0
        assert "sigma= 3 2 1" in out

    def test_no_negative_zero(self, capsys):
        code, out, _ = run(capsys, "sigma", "--group", "su2",
                           "--matrix", "1,2,0,0,1,0,0,0,3")
        assert code == 0
        assert "-0" not in out.split()
        assert "   1  0  0" in out.splitlines()

    def test_large_scale_without_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "sigma", "--group", "su2",
                                 "--matrix", "1e80,0,0,0,1e80,0,0,0,1e80")
        assert code == 0 and err == ""
        assert "sigma= 1e+80 1e+80 1e+80" in out

    def test_file_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "a.mat"
        ls.write_matrix(str(path), np.diag([3.0, 2.0, 1.0]))
        code, out, _ = run(capsys, "sigma", "--group", "su2", "--matrix", str(path))
        assert code == 0
        assert "sigma= 3 2 1" in out

    def test_singular_matrix_exit_2(self, capsys):
        code, _, err = run(capsys, "sigma", "--group", "su2",
                           "--matrix", "1,0,0,0,1,0,0,0,0")
        assert code == 2
        assert "singular" in err

    def test_unknown_group_exit_2(self, capsys):
        code, _, err = run(capsys, "sigma", "--group", "g2")
        assert code == 2

    def test_wrong_entry_count_exit_2(self, capsys):
        code, _, _ = run(capsys, "sigma", "--group", "su2", "--matrix", "1,2,3")
        assert code == 2

    def test_unreadable_matrix_path_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "sigma", "--group", "su2", "--matrix", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ")

    def test_unwritable_out_path_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "sigma", "--group", "su2",
                           "--out", str(tmp_path / "missing" / "x.txt"))
        assert code == 2
        assert err.startswith("error: ")


class TestLambda1:
    def test_su2_identity(self, capsys):
        code, out, _ = run(capsys, "lambda1", "--group", "su2")
        assert code == 0
        assert "lambda1=3 witness=spin(1/2) certified=true" in out

    def test_so3_identity(self, capsys):
        code, out, _ = run(capsys, "lambda1", "--group", "so3")
        assert code == 0
        assert "lambda1=8 witness=spin(1) certified=true" in out

    def test_t2_identity_json(self, capsys):
        code, out, _ = run(capsys, "lambda1", "--group", "t2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["lambda1"] == pytest.approx(4 * math.pi ** 2)

    def test_infinite_window_cap_certifies(self, capsys):
        for group in ("t2", "su2"):
            code, out, _ = run(capsys, "lambda1", "--group", group, "--window-cap", "inf")
            assert code == 0
            assert "certified=true" in out

    def test_nan_window_cap_exit_2(self, capsys):
        for group in ("t2", "su2", "su2xsu2"):
            for cap in ("nan", "-1", "0"):
                code, out, err = run(capsys, "lambda1", "--group", group,
                                     "--window-cap", cap)
                assert code == 2, (group, cap)
                assert out == ""
                assert err.startswith("error: window cap must be positive")

    def test_window_cap_leaves_torus_certified(self, capsys):
        # The torus gap is an exact ellipsoid enumeration and the su2/so3 gap
        # reads spin 1/2 and spin 1; the cap limits product walks only.
        for group in ("t2", "su2", "so3"):
            code, out, _ = run(capsys, "lambda1", "--group", group, "--window-cap", "1")
            assert code == 0, group
            assert "certified=true" in out

    def test_window_cap_exit_3(self, capsys):
        code, _, err = run(capsys, "lambda1", "--group", "su2xsu2",
                           "--matrix", "1,0,0,0,0,0,0,1,0,0,0,0,0,0,1,0,0,0,"
                                       "0,0,0,1,0,0,0,0,0,0,1,0,0,0,0,0,0,0.2",
                           "--window-cap", "10")
        assert code == 3
        assert "uncertified" in err


# Metrics that are not homotheties, so that diam reaches the estimators.
SU2_SKEW = "3,0,0,0,2,0,0,0,1"
T2_SKEW = "1,0,0,2"


class TestDiam:
    def test_t2_lattice(self, capsys):
        code, out, _ = run(capsys, "diam", "--group", "t2", "--matrix", T2_SKEW)
        assert code == 0
        # gram = diag(1, 1/4): the covering radius of the rectangular lattice.
        assert f"diam={math.sqrt(1.25) / 2:.12g} " in out
        assert "method=TorusCoveringRadius" in out

    def test_bounds_tagged(self, capsys):
        code, out, _ = run(capsys, "diam", "--group", "su2", "--method", "bounds")
        assert code == 0
        assert "diam_lower=1.57079632679" in out
        assert "diam_upper=3.14159265359" in out
        assert "sigma_2" in out

    def test_biinv(self, capsys):
        code, out, _ = run(capsys, "diam", "--group", "so3")
        assert code == 0
        assert "method=BiInvariantClosedForm" in out
        code, out, _ = run(capsys, "diam", "--group", "su2xsu2", "--format", "json")
        assert code == 0
        est = json.loads(out)
        assert est["method"] == "BiInvariantClosedForm"
        assert est["value"] == est["lower"] == est["upper"] == math.sqrt(2) * math.pi

    def test_biinv_homothety(self, capsys):
        code, out, _ = run(capsys, "diam", "--group", "su2",
                           "--matrix", "2,0,0,0,2,0,0,0,2", "--format", "json")
        assert code == 0
        est = json.loads(out)
        assert est["value"] == est["lower"] == est["upper"] == math.pi / 2

    def test_graph_small_net(self, capsys):
        code, out, _ = run(capsys, "diam", "--group", "su2", "--matrix", SU2_SKEW,
                           "--net-size", "500", "--knn", "8")
        assert code == 0
        assert "method=GeodesicGraph" in out

    def test_disconnected_net_exit_2(self, capsys, disconnected_knn):
        code, out, err = run(capsys, "diam", "--group", "su2",
                             "--matrix", "1,0,0,0,2,0,0,0,3", "--net-size", "200")
        assert code == 2
        assert out == ""
        assert "2 components" in err

    def test_json_params_keys(self, capsys):
        code, out, _ = run(capsys, "diam", "--group", "su2", "--matrix", SU2_SKEW,
                           "--net-size", "500", "--knn", "8", "--format", "json")
        assert code == 0
        params = json.loads(out)["params"]
        assert params == {"net_size": 500, "knn": 8, "eps_net": 0.1, "seed": 0}
        code, out, _ = run(capsys, "diam", "--group", "t2", "--matrix", T2_SKEW,
                           "--grid-resolution", "16", "--format", "json")
        assert json.loads(out)["params"] == {"grid_resolution": 16}

    def test_oversized_grid_exit_2(self, capsys):
        code, _, err = run(capsys, "diam", "--group", "t2", "--matrix", T2_SKEW,
                           "--grid-resolution", "100000")
        assert code == 2
        assert "grid points" in err


class TestEll:
    def test_examples(self, capsys, tmp_path):
        for group, expect in (("su2", 2), ("t3", 3), ("su2xsu2", 5)):
            code, out, _ = run(capsys, "ell", "--group", group)
            assert code == 0
            assert f"ell={expect}" in out
        # Rotated frames, read from files: a generic rotation of su2 needs
        # two directions, a torus always all three, and the two-generator
        # frame of su2xsu2 only its first two.
        R = random_rotation(3, np.random.default_rng(1))
        for group, P, lines in (
                ("su2", R, ["ell=2", "prefix_dims= 1 3 3"]),
                ("t3", R, ["ell=3", "prefix_dims= 1 2 3"]),
                ("su2xsu2", egs_scan.two_generator_rotation_su2xsu2(),
                 ["ell=2", "prefix_dims= 1 6 6 6 6 6"])):
            path = tmp_path / f"{group}.mat"
            ls.write_matrix(str(path), P)
            code, out, _ = run(capsys, "ell", "--group", group, "--rotation", str(path))
            assert code == 0
            assert out.splitlines() == lines

    def test_prefix_dims_printed(self, capsys):
        code, out, _ = run(capsys, "ell", "--group", "su2xsu2")
        assert "prefix_dims= 1 3 3 4 6 6" in out


class TestScan:
    def test_csv_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan", "--group", "t2", "--samples", "10",
                         "--sigma-lo", "0.1", "--sigma-hi", "10",
                         "--grid-resolution", "32", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("seed,group,m,sigma_1,sigma_2,lambda1")
        assert len([ln for ln in lines if ln and not ln.startswith("#")]) == 11
        assert all(",false" not in ln for ln in lines[1:])  # no check violations

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(capsys, "scan", "--group", "t2", "--samples", "5",
                "--grid-resolution", "32", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "scan", "--group", "t2", "--samples", "3",
                           "--grid-resolution", "32", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert len(payload["records"]) == 3

    def test_pinned_t2_output(self, capsys):
        """Default t2 scan against output checked in with the format.

        Floats are compared at rtol 1e-12, not bytewise, because LAPACK
        rounding differs across CPUs; every other field must match exactly.
        """
        path = os.path.join(os.path.dirname(__file__), "data", "scan_t2.csv")
        with open(path, encoding="utf-8") as f:
            want = f.read().splitlines()
        code, out, _ = run(capsys, "scan", "--group", "t2", "--samples", "30")
        assert code == 0
        got = out.splitlines()
        assert len(got) == len(want)
        assert got[0] == want[0]
        header = want[0].split(",")
        floats = {"sigma_1", "sigma_2", "lambda1", "diam_lower", "diam_value",
                  "diam_upper", "ratio"}
        for g, w in zip(csv.reader(got[1:-1]), csv.reader(want[1:-1])):
            assert len(g) == len(w) == len(header)
            for name, a, b in zip(header, g, w):
                if name in floats:
                    assert float(a) == pytest.approx(float(b), rel=1e-12, abs=0), name
                else:
                    assert a == b, name
        g_tail, w_tail = got[-1].split(), want[-1].split()
        assert g_tail[0] == w_tail[0] == "#"
        assert float(g_tail[1].split("=")[1]) == pytest.approx(
            float(w_tail[1].split("=")[1]), rel=1e-12, abs=0)
        assert g_tail[2:] == w_tail[2:]

    def test_infinite_sigma_range_exit_2(self, capsys):
        code, out, err = run(capsys, "scan", "--group", "t2", "--samples", "2",
                             "--sigma-lo", "inf", "--sigma-hi", "inf")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_no_estimator_exits_before_the_gap(self, capsys, monkeypatch):
        def gap(*args, **kwargs):
            raise AssertionError("the gap was computed")
        monkeypatch.setattr(egs_scan, "lambda1_certified", gap)
        code, out, err = run(capsys, "scan", "--group", "su2xsu2", "--samples", "1",
                             "--seed", "13")
        assert code == 2
        assert out == ""
        assert "no diameter estimator for su2xsu2" in err


class TestDegenerate:
    def test_su2_table(self, capsys):
        code, out, _ = run(capsys, "degenerate", "--group", "su2",
                           "--kind", "shrink-transverse",
                           "--s-values", "1,0.5,0.25",
                           "--net-size", "500", "--knn", "8")
        assert code == 0
        assert "monotone[lambda1_over_sigma1_sq]=decreasing" in out
        assert "monotone[diam_times_sigma1]=increasing" in out

    def test_incompatible_kind_exit_2(self, capsys):
        code, _, _ = run(capsys, "degenerate", "--group", "t3",
                         "--kind", "torus-dense-line", "--s-values", "1,4")
        assert code == 2

    def test_kind_choices_come_from_the_sweep_table(self, capsys):
        code, _, err = run(capsys, "degenerate", "--group", "so3",
                           "--kind", "shrink-transverse", "--s-values", "1,0.5")
        assert code == 2
        assert err == "error: shrink-transverse runs on su2 or su2xsu2\n"
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        kind = next(a for a in sub.choices["degenerate"]._actions if a.dest == "kind")
        assert tuple(kind.choices) == egs_scan.DEGENERATION_KINDS


class TestVerify:
    def test_torus_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--group", "t2", "--trials", "5")
        assert code == 0
        assert "all_passed=true" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--group", "t2", "--trials", "3",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert payload["schema_version"] == 1

    def test_failures_reported(self, capsys, inflated_gaps):
        code, out, _ = run(capsys, "verify", "--group", "t2", "--trials", "2")
        assert code == 3
        assert "spectral_simple_bounds: FAIL(2)" in out
        assert "  counterexample: {'A': [[" in out
        assert out.endswith("all_passed=false\n")
        code, out, _ = run(capsys, "verify", "--group", "t2", "--trials", "2",
                           "--format", "json")
        assert code == 3
        payload = json.loads(out)
        assert payload["all_passed"] is False
        bounds = next(c for c in payload["checks"] if c["name"] == "spectral_simple_bounds")
        assert [sorted(f) for f in bounds["failures"]] == [["A", "lambda1"]] * 2
