"""Command-line interface: dispatch, formats, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
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


def run_isolated(*argv, timeout=30):
    """The CLI in a fresh interpreter: a run that never returns fails the
    test at the timeout instead of stalling the suite."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ls.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "liespec.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=timeout)


@pytest.mark.parametrize("argv", [
    ("sigma", "--group", "su2", "--seed", "1"),
    ("lambda1", "--group", "su2", "--seed", "1"),
    ("ell", "--group", "su2", "--seed", "1"),
    # Every net is seeded 0, so --seed has nothing to seed on these two.
    ("diam", "--group", "su2", "--seed", "1"),
    ("degenerate", "--group", "su2", "--kind", "shrink-transverse",
     "--s-values", "1,0.5", "--seed", "1"),
    ("sigma", "--group", "su2", "--format", "csv"),
    ("lambda1", "--group", "su2", "--format", "csv"),
    ("diam", "--group", "su2", "--format", "csv"),
    ("ell", "--group", "su2", "--format", "csv"),
    ("degenerate", "--group", "t2", "--kind", "torus-dense-line",
     "--s-values", "1,4", "--format", "csv"),
    ("verify", "--group", "t2", "--format", "csv"),
    ("scan", "--group", "t2", "--samples", "1", "--format", "table"),
    # Every gap is certified, so no walk takes a Casimir cap.
    ("lambda1", "--group", "su2xsu2", "--window-cap", "10"),
    # The estimators run at fixed settings, so a scan record is its inputs.
    *[(command, *args, flag, value)
      for command, *args in (("diam", "--group", "su2"),
                             ("scan", "--group", "su2", "--samples", "1"),
                             ("degenerate", "--group", "su2", "--kind", "shrink-transverse",
                              "--s-values", "1,0.5"))
      for flag, value in (("--net-size", "500"), ("--knn", "8"),
                          ("--grid-resolution", "32"))],
])
def test_options_without_effect_rejected(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    assert e.value.code == 2
    assert argv[-2] in capsys.readouterr().err  # the refusal names the option


@pytest.mark.parametrize("argv", [
    ("scan", "--group", "t2", "--samples", "3"),
    ("scan", "--group", "t2", "--samples", "3", "--format", "json"),
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


@pytest.mark.parametrize("group", ["su2", "so3"])
def test_scan_record_reproduces_from_its_seed(capsys, group):
    # The net does not depend on the base seed, so sample seed 7 reads the
    # same record in a scan from seed 5 as in a scan from seed 7.
    code, out, _ = run(capsys, "scan", "--group", group, "--seed", "5", "--samples", "3")
    assert code == 0
    code, alone, _ = run(capsys, "scan", "--group", group, "--seed", "7", "--samples", "1")
    assert code == 0
    third = out.splitlines()[3]
    assert third.startswith("7,") and third == alone.splitlines()[1]


@pytest.mark.parametrize("argv", [
    ("diam", "--group", "su2", "--matrix", "3,0,0,0,2,0,0,0,1"),
    ("scan", "--group", "su2", "--samples", "1"),
    ("degenerate", "--group", "su2", "--kind", "shrink-transverse", "--s-values", "1"),
])
def test_net_allowance_is_not_an_option(capsys, argv):
    # The allowance is the fixed DEFAULT_EPS_NET, 10%.
    with pytest.raises(SystemExit) as e:
        main([*argv, "--eps-net", "0.1"])
    assert e.value.code == 2
    assert "unrecognized arguments: --eps-net 0.1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("scan", "--group", "t2", "--samples", "0"), "need at least one sample"),
    (("scan", "--group", "t2", "--samples", "2", "--jobs", "0"), "need jobs >= 1"),
    (("degenerate", "--group", "t2", "--kind", "torus-dense-line", "--s-values", "1,-1"),
     "s values must be finite and positive"),
    (("degenerate", "--group", "t2", "--kind", "torus-dense-line", "--s-values", "1"),
     "need at least two distinct s values"),
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
    # A path that names no file is reported as one, not as bad inline text.
    (("lambda1", "--group", "su2", "--matrix", "no-such-dir/missing.txt"),
     "error: no such matrix file: 'no-such-dir/missing.txt'"),
    (("ell", "--group", "su2", "--rotation", "no-such-dir/missing.txt"),
     "error: no such matrix file: 'no-such-dir/missing.txt'"),
    (("lambda1", "--group", "su2", "--matrix", "1,2"), "error: need 9 entries, got 2"),
    # The first pair, 3 (A A^t) = 1.19e308 I, is finite, but M + M^* would overflow.
    (("lambda1", "--group", "su2xsu2", "--matrix",
      ",".join(f"{v:g}" for v in (6.3e153 * np.eye(6)).ravel())),
     "error: the spectral operator overflows the float range; rescale the metric"),
    # Only the tori t1..t4 that the help names: a larger one would first ask
    # for its N^4 Jacobi check.
    (("sigma", "--group", "t5"), "error: unknown group key: 't5'"),
])
def test_out_of_range_inputs_exit_2(capsys, argv, message):
    # A refusal is its error line alone, with no numpy warning before it.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
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

    def test_thin_direction_from_file(self, capsys, tmp_path):
        # sigma_3 = 1e-6 against sigma_1 = 1e3: sigma_3^2 = 1e-12 is a normal
        # double, so the metric is accepted and sigma_3 read from the SVD.
        rng = np.random.default_rng(0)
        R1, R2 = random_rotation(3, rng), random_rotation(3, rng)
        path = tmp_path / "thin.mat"
        ls.write_matrix(str(path), R1 @ np.diag([1e3, 1e3, 1e-6]) @ R2)
        code, out, err = run(capsys, "sigma", "--group", "su2", "--matrix", str(path))
        assert code == 0 and err == ""
        sigma = [float(x) for x in out.splitlines()[1].split()[1:]]
        assert sigma[:2] == [1e3, 1e3]
        assert sigma[2] == pytest.approx(1e-6, rel=1e-6)

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

    @pytest.mark.parametrize("diag, expect", [
        # One thin direction: the spin bounds settle the gap in two pairs.
        ([1e-5] + [1.0] * 5, "lambda1=2.0000000001 witness=pair(spin(1/2),spin(0)) "),
        ([1.0] * 5 + [1e-5], "lambda1=2.0000000001 witness=pair(spin(0),spin(1/2)) "),
        # Near the top of the float range: pair(spin(1/2),spin(0)) is bounded
        # away, so no operator whose entries overflow is ever assembled.
        ([1e153] * 5 + [1e152], "lambda1=2.01e+306 witness=pair(spin(0),spin(1/2)) "),
    ])
    def test_su2xsu2_certified_by_spin_bounds(self, diag, expect):
        proc = run_isolated("lambda1", "--group", "su2xsu2", "--matrix",
                            ",".join(f"{v:g}" for v in np.diag(diag).ravel()))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert expect + "certified=true" in proc.stdout
        assert proc.stdout.rstrip().endswith(" evaluations=2")

    def test_t2_identity_json(self, capsys):
        code, out, _ = run(capsys, "lambda1", "--group", "t2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["lambda1"] == pytest.approx(4 * math.pi ** 2)


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

    def test_graph_default_net(self, capsys):
        code, out, _ = run(capsys, "diam", "--group", "su2", "--matrix", SU2_SKEW)
        assert code == 0
        assert out == ("diam=1.23331320362 lower=1.10998188325 upper=1.23331320362 "
                       "method=GeodesicGraph\n")

    def test_disconnected_net_exit_2(self, capsys, disconnected_knn):
        code, out, err = run(capsys, "diam", "--group", "su2",
                             "--matrix", "1,0,0,0,2,0,0,0,3")
        assert code == 2
        assert out == ""
        assert "2 components" in err

    def test_json_params_keys(self, capsys):
        code, out, _ = run(capsys, "diam", "--group", "su2", "--matrix", SU2_SKEW,
                           "--format", "json")
        assert code == 0
        params = json.loads(out)["params"]
        assert params == {"net_size": 20000, "knn": 12, "eps_net": 0.1, "seed": 0}
        code, out, _ = run(capsys, "diam", "--group", "t2", "--matrix", T2_SKEW,
                           "--format", "json")
        assert json.loads(out)["params"] == {"grid_resolution": 64}


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
                         "--sigma-lo", "0.1", "--sigma-hi", "10", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("seed,group,m,sigma_1,sigma_2,lambda1")
        assert len([ln for ln in lines if ln and not ln.startswith("#")]) == 11
        assert all(",false" not in ln for ln in lines[1:])  # no check violations

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(capsys, "scan", "--group", "t2", "--samples", "5", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "scan", "--group", "t2", "--samples", "3",
                           "--format", "json")
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
                           "--s-values", "1,0.5,0.25")
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
