"""Command-line surface: analyze, paper-check, sweep, kernel."""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import replace
from fractions import Fraction

from . import debranges, dirichlet
from .errors import CdspError, ParseError, PolicyError
from .measure import measure_from_turns, parse_measure, parse_turns
from .policy import NumericPolicy
from .report import (PipelineResult, analyze, reference_checks,
                     report_to_json)


def _read_text(path: str, error, what: str) -> str:
    """Contents of a named input file; an unreadable file raises ``error``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} file {path!r}: "
                    f"{getattr(exc, 'strerror', None) or exc}") from exc


def _load_measure_arg(arg: str) -> str:
    if arg.startswith("@"):
        return _read_text(arg[1:], ParseError, "measure")
    return arg


def _policy_file(arg) -> NumericPolicy:
    """The policy of ``--policy @file.json``, or the default one."""
    if not arg:
        return NumericPolicy()
    return NumericPolicy.from_json(_read_text(arg.lstrip("@"), PolicyError, "policy"))


def _emit(text: str, out_path) -> bool:
    """Write ``text`` to ``out_path`` or stdout; an unwritable path prints
    one error line and returns False."""
    if not text.endswith("\n"):
        text += "\n"
    if not out_path:
        sys.stdout.write(text)
        return True
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error [{type(exc).__name__}]: cannot write output file {out_path!r}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def cmd_analyze(args) -> int:
    overrides = {"l_max": args.lmax, "N_trunc": args.ntrunc}
    policy = replace(_policy_file(args.policy),
                     **{k: v for k, v in overrides.items() if v is not None})
    rep = analyze(_load_measure_arg(args.measure), policy,
                  with_oracle=args.oracle, exhaustive_psd=args.exhaustive_psd,
                  full=args.full)
    return 0 if _emit(report_to_json(rep), args.out) else 2


def cmd_paper_check(args) -> int:
    rep = reference_checks(rotation_turns=args.rotate, weights=args.weights)
    if not _emit(report_to_json(rep), args.out):
        return 2
    for it in rep["items"]:
        print(f"{it['status']:>15}  {it['name']}", file=sys.stderr)
    return 0 if rep["all_passed"] else 1


def _sweep_cell(cell):
    theta2, theta3, w1, w2, w3 = cell
    row = {"theta2": str(theta2), "theta3": str(theta3),
           "w1": w1, "w2": w2, "w3": w3,
           "max_offdiag_norm": "", "verdict": "", "error": ""}
    try:
        res = PipelineResult(measure_from_turns([Fraction(0), theta2, theta3], [w1, w2, w3]),
                             NumericPolicy())
        row["max_offdiag_norm"] = f"{res.verdict.max_offdiag_norm:.12e}"
        row["verdict"] = res.verdict.decision
    except CdspError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


SWEEP_COLUMNS = ["theta2", "theta3", "w1", "w2", "w3",
                 "max_offdiag_norm", "verdict", "error"]


def run_sweep(grid: int, weights) -> list:
    """One row per (theta2, theta3) pair on an equi-spaced rational grid of
    the given size; degenerate cells carry their error in-row."""
    w1, w2, w3 = weights
    return [_sweep_cell((Fraction(i, grid + 1), Fraction(j, grid + 1),
                         w1, w2, w3))
            for i in range(1, grid + 1) for j in range(1, grid + 1)]


def cmd_sweep(args) -> int:
    rows = run_sweep(args.grid, args.weights)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    if not _emit(buf.getvalue(), args.out):
        return 2
    flagged = [r for r in rows if r["verdict"] == "SubnormalNumeric"]
    for r in flagged:
        print(f"FLAG: SubnormalNumeric at theta2={r['theta2']} "
              f"theta3={r['theta3']}", file=sys.stderr)
    return 0


def cmd_kernel(args) -> int:
    z, lam = args.z, args.lam
    res = PipelineResult(parse_measure(_load_measure_arg(args.measure)),
                         _policy_file(args.policy))
    kt = dirichlet.kernel_omu(res.dd, z, lam)
    kp = dirichlet.kernel_perp(res.dd, z, lam)
    kb = debranges.kernel_KB(res.dd, res.hf, z, lam)
    out = {"z": z, "lam": lam, "K_subspace": kt, "K_complement": kp,
           "K_full": kt + kp, "K_B": kb, "difference": abs(kt + kp - kb)}
    return 0 if _emit(report_to_json(out), args.out) else 2


def _arg_type(parse, expected: str):
    """argparse type that reads a value with ``parse``; a ValueError (or
    ZeroDivisionError, from Fraction) becomes ``expected <expected>, got '<text>'``."""
    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
    return convert


def _disc_point(text: str) -> complex:
    re_s, im_s = text.split(",")
    z = complex(float(re_s), float(im_s))
    if not abs(z) < 1:  # written so that a NaN coordinate fails the test too
        raise ValueError(text)
    return z


def _three_weights(text: str) -> tuple:
    w1, w2, w3 = map(float, text.split(","))
    return w1, w2, w3


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(text)
    return n


# syntax and the argument's own domain; NumericPolicy bounds the integers
# that set its fields, as it does a policy file's
_POINT = _arg_type(_disc_point, "'re,im' inside the unit disc")
_WEIGHTS = _arg_type(_three_weights, "three comma-separated numbers")
_GRID = _arg_type(_positive_int, "a positive integer")
_TURNS = _arg_type(parse_turns, "a rational number of turns")
_INT = _arg_type(int, "an integer")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cdsp",
        description="Decide (numerically) whether the Cauchy dual of the "
                    "shift on a weighted Dirichlet space is subnormal.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, policy=False, fields=False):
        # only analyze and kernel run the pipeline under a chosen policy, and
        # only analyze sets single fields of it; paper-check and sweep always
        # use the default one
        if policy:
            p.add_argument("--policy", help="@file.json numeric policy")
        if fields:
            p.add_argument("--lmax", type=_INT, help="positivity probe depth")
            p.add_argument("--ntrunc", type=_INT, help="truncation size for probes")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("analyze", help="full pipeline on one measure")
    p.add_argument("--measure", "-m", required=True,
                   help="inline 't1,t2,...:w1,w2,...' or @file.json")
    p.add_argument("--oracle", action="store_true",
                   help="also run the operator-level cross-check")
    p.add_argument("--exhaustive-psd", action="store_true",
                   help="do not short-circuit positivity probes")
    p.add_argument("--full", action="store_true",
                   help="also report the Gram matrix D, its inverse B and the "
                        "Hermitian form (C and P)")
    common(p, policy=True, fields=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("paper-check",
                       help="regression-check the closed-form constants of "
                            "the three equi-spaced atom example")
    p.add_argument("--rotate", type=_TURNS,
                   help="rotate the measure by this many turns")
    p.add_argument("--weights", type=_WEIGHTS,
                   help="comma-separated weights (default 1,1,1)")
    common(p)
    p.set_defaults(func=cmd_paper_check)

    p = sub.add_parser("sweep", help="grid sweep over three-atom configurations")
    p.add_argument("--grid", type=_GRID, default=12, help="angle grid size")
    p.add_argument("--weights", type=_WEIGHTS, default=(1.0, 1.0, 1.0),
                   help="w1,w2,w3 (default 1,1,1)")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("kernel", help="evaluate the reproducing kernels at a pair")
    p.add_argument("--measure", "-m", required=True)
    p.add_argument("--z", required=True, type=_POINT,
                   help="re,im of the first point")
    p.add_argument("--lam", required=True, type=_POINT,
                   help="re,im of the second point")
    common(p, policy=True)
    p.set_defaults(func=cmd_kernel)
    return ap


def main(argv=None) -> int:
    """Run one subcommand; a pipeline error prints one line
    ``error [<type>]: <message>`` and exits 2."""
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except CdspError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
