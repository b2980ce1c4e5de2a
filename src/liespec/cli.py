"""Command-line front end.

Subcommands map one-to-one onto library operations: ``sigma`` (metric scale
parameters), ``lambda1`` (certified spectral gap), ``diam`` (diameter
estimates), ``ell`` (bracket-generating index), ``scan`` (ratio scans),
``degenerate`` (degeneration sweeps), ``verify`` (randomized invariant checks).

Exit codes: 0 success, 2 input validation failure (including unreadable,
missing or unwritable paths, non-finite values and metrics whose spectral
operator overflows), 3 a ``verify`` run with a failed check.  Every
``lambda1`` result is certified.  An internal failure (a broken ``scan
--jobs`` worker pool, say) is not caught and ends in a traceback, exit 1.  All
randomness sits behind explicit seeds (default 0).  The diameter estimators
run at their defaults in ``geometry`` (a 20000-node net with knn 12, seeded
0, and the torus grid 64), so a scan record is its inputs alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from . import startup_self_test
from .egs_scan import (DEFAULT_SIGMA_HI, DEFAULT_SIGMA_LO, DEFAULT_TRIALS,
                       DEGENERATION_KINDS, SCHEMA_VERSION, _compute_diameter,
                       _to_json_data, degeneration_experiment, property_suite,
                       scan, scan_csv_text, scan_to_json)
from .geometry import paper_diameter_bounds
from .lie_core import (LieGroupCatalogEntry, ell_index, entry_from_key,
                       prefix_subalgebra_dims)
from .metric_space import (MatrixFormatError, SingularMatrixError,
                           metric_from_matrix, parse_matrix_text, read_matrix)
from .rep_theory import lambda1_certified


def _matrix_arg(entry: LieGroupCatalogEntry, text: Optional[str]) -> np.ndarray:
    """The identity when the flag is absent, else a matrix file or inline text.

    Text that names no file and is not numbers is taken for a mistyped path.
    """
    if text is None:
        return np.eye(entry.dim)
    if os.path.exists(text):
        return read_matrix(text, entry.dim)
    try:
        return parse_matrix_text(text, entry.dim)
    except MatrixFormatError as e:
        if isinstance(e.__cause__, ValueError):  # raised where float() failed
            raise MatrixFormatError(f"no such matrix file: {text!r} "
                                    "(nor is it inline matrix entries)") from None
        raise


def _write(args, text: str) -> None:
    """The one output writer: the ``--out`` file when given, else stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, payload: dict, table_lines: list[str]) -> None:
    if args.format == "json":
        text = json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2)
    else:
        text = "\n".join(table_lines)
    _write(args, text + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_sigma(entry: LieGroupCatalogEntry, args) -> int:
    spec = metric_from_matrix(_matrix_arg(entry, args.matrix))
    sig = " ".join(f"{s:.12g}" for s in spec.sigma)
    lines = [f"m={entry.dim}", f"sigma= {sig}", "P_sort="]
    lines += ["  " + " ".join(f"{x: .12g}" for x in row) for row in spec.P_sort]
    _emit(args, {"m": entry.dim, "sigma": list(map(float, spec.sigma)),
                 "P_sort": spec.P_sort.tolist()}, lines)
    return 0


def _cmd_lambda1(entry: LieGroupCatalogEntry, args) -> int:
    spec = metric_from_matrix(_matrix_arg(entry, args.matrix))
    res = lambda1_certified(entry, spec)
    lines = [f"lambda1={res.lambda1:.12g} witness={res.witness} certified=true",
             f"window={res.window:.12g} evaluations={res.evaluations}"]
    _emit(args, _to_json_data(res), lines)
    return 0


def _cmd_diam(entry: LieGroupCatalogEntry, args) -> int:
    spec = metric_from_matrix(_matrix_arg(entry, args.matrix))
    if args.method == "bounds":
        b = paper_diameter_bounds(entry, spec)
        lines = [f"diam_lower={b.lower:.12g} ({b.lower_source})",
                 f"diam_upper={b.upper:.12g} ({b.upper_source})"]
        _emit(args, {"method": "PaperBounds", "lower": b.lower, "upper": b.upper,
                     "lower_source": b.lower_source, "upper_source": b.upper_source},
              lines)
        return 0
    est = _compute_diameter(entry, spec, net=None)
    lines = [f"diam={est.value:.12g} lower={est.lower:.12g} upper={est.upper:.12g} "
             f"method={est.method}"]
    _emit(args, {"method": est.method, "value": est.value, "lower": est.lower,
                 "upper": est.upper, "params": dict(est.params)}, lines)
    return 0


def _cmd_ell(entry: LieGroupCatalogEntry, args) -> int:
    P = _matrix_arg(entry, args.rotation)
    ell = ell_index(entry, P)
    dims = prefix_subalgebra_dims(entry, P)
    lines = [f"ell={ell}",
             "prefix_dims= " + " ".join(str(d) for d in dims)]
    _emit(args, {"ell": ell, "prefix_dims": dims}, lines)
    return 0


def _cmd_scan(entry: LieGroupCatalogEntry, args) -> int:
    records, summary = scan(entry, args.samples, lo=args.sigma_lo, hi=args.sigma_hi,
                            base_seed=args.seed, jobs=args.jobs)
    if args.format == "json":
        text = scan_to_json(records, summary)
    else:
        text = scan_csv_text(records)
        viol = sum(summary.violation_counts.values())
        text += (f"# max_ratio={summary.max_ratio:.17g} argmax_seed={summary.argmax_seed}"
                 f" violations={viol}\n")
    _write(args, text)
    return 0


def _cmd_degenerate(entry: LieGroupCatalogEntry, args) -> int:
    s_values = [float(t) for t in args.s_values.replace(",", " ").split()]
    report = degeneration_experiment(entry, args.kind, s_values)
    lines = [f"kind={report.kind} group={report.group}"]
    keys = list(report.rows[0].tracked.keys())
    header = "s sigma lambda1 diam " + " ".join(keys)
    lines.append(header)
    for row in report.rows:
        diam = "-" if row.diam_value is None else f"{row.diam_value:.6g}"
        sig = ",".join(f"{x:.4g}" for x in row.sigma)
        tr = " ".join(f"{row.tracked[k]:.6g}" for k in keys)
        lines.append(f"{row.s:g} {sig} {row.lambda1:.6g} {diam} {tr}")
    lines += [f"monotone[{k}]={v}" for k, v in report.monotone.items()]
    _emit(args, _to_json_data(report), lines)
    return 0


def _cmd_verify(entry: LieGroupCatalogEntry, args) -> int:
    report = property_suite(entry, n_trials=args.trials, seed=args.seed)
    lines = [f"group={report.group} trials={args.trials}"]
    for c in report.checks:
        status = "pass" if not c.failures else f"FAIL({len(c.failures)})"
        lines.append(f"{c.name}: {status}")
        for f in c.failures[:3]:
            lines.append(f"  counterexample: {f}")
    lines.append("all_passed=" + ("true" if report.all_passed else "false"))
    _emit(args, {**_to_json_data(report), "all_passed": report.all_passed}, lines)
    return 0 if report.all_passed else 3


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="liespec",
        description="Spectral gaps and diameters of left-invariant metrics "
                    "on compact Lie groups (t1..t4, su2, so3, su2xsu2).")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, matrix=True, seed=None, formats=("table", "json")):
        p.add_argument("--group", required=True,
                       help="group key: t1..t4, su2, so3, su2xsu2")
        if matrix:
            p.add_argument("--matrix", default=None,
                           help="row-major entries (comma/space separated) or a "
                                "matrix file path; defaults to the identity")
        if seed:
            p.add_argument("--seed", type=int, default=0, help=seed)
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("sigma", help="metric scale parameters")
    common(p)
    p.set_defaults(fn=_cmd_sigma)

    p = sub.add_parser("lambda1", help="certified spectral gap")
    common(p)
    p.set_defaults(fn=_cmd_lambda1)

    p = sub.add_parser("diam", help="diameter estimate")
    common(p)
    p.add_argument("--method", choices=("auto", "bounds"), default="auto",
                   help="auto: the estimate the metric allows; bounds: the "
                        "closed-form interval")
    p.set_defaults(fn=_cmd_diam)

    p = sub.add_parser("ell", help="bracket-generating index of a rotation")
    common(p, matrix=False)
    p.add_argument("--rotation", default=None,
                   help="orthogonal matrix (inline or file); defaults to identity")
    p.set_defaults(fn=_cmd_ell)

    p = sub.add_parser("scan", help="seeded random ratio scan (CSV/JSON)")
    common(p, matrix=False, formats=("csv", "json"),
           seed="base seed: sample i uses seed + i")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--sigma-lo", type=float, default=DEFAULT_SIGMA_LO)
    p.add_argument("--sigma-hi", type=float, default=DEFAULT_SIGMA_HI)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, capped at the sample and CPU counts; "
                        "the output does not depend on it")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("degenerate", help="degeneration sweep")
    common(p, matrix=False)
    p.add_argument("--kind", required=True, choices=DEGENERATION_KINDS)
    p.add_argument("--s-values", required=True, help="comma separated list")
    p.set_defaults(fn=_cmd_degenerate)

    p = sub.add_parser("verify", help="randomized verification suite")
    common(p, matrix=False, seed="seed of the sampled metrics")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.set_defaults(fn=_cmd_verify)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        startup_self_test()
        return args.fn(entry_from_key(args.group), args)
    except (MatrixFormatError, SingularMatrixError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
