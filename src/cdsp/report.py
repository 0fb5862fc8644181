"""Pipeline orchestration and JSON report assembly."""

from __future__ import annotations

import json
import time
from dataclasses import replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from typing import Optional

import numpy as np

from . import debranges, dirichlet, fejer, oracle, verdict as vd
from .errors import CdspError, IdentityResidual
from .measure import Measure, measure_from_turns, parse_measure, rotate_measure
from .policy import NumericPolicy

# the layouts of the analysis report and of the paper-check document
SCHEMA_VERSION = 4
CHECKS_SCHEMA_VERSION = 1


def measure_json(m: Measure) -> dict:
    """The measure as a document that ``parse_measure`` reads back exactly."""
    return {"atoms": [{"turns": str(t), "weight": wt} if t is not None
                      else {"point": pt, "weight": wt}
                      for pt, wt, t in zip(m.points.tolist(), m.weights.tolist(), m.turns)]}


class PipelineResult:
    """Bundle of every intermediate artifact of one analysis run.

    Construction runs the stages through the verdict (and the oracle when
    asked); the Hermitian form ``hf`` (C and P) is built on first read, so a
    verdict-only caller (the default report included) neither pays for it
    nor loses its verdict when building it fails."""

    def __init__(self, m: Measure, policy: NumericPolicy,
                 with_oracle: bool = False, exhaustive_psd: bool = False):
        t0 = time.perf_counter()
        self.measure = m
        self.policy = policy
        self.fr = fejer.factorize(m)
        self.identity_residual = fejer.verify_identity(m, self.fr)
        if not self.identity_residual <= policy.identity_tol:
            raise IdentityResidual(self.identity_residual, policy.identity_tol)
        self.dd = dirichlet.build_dirichlet(m, self.fr)
        S = debranges.eval_S(self.dd, self.fr.alphas, self.fr.alphas)
        self.verdict = vd.decide(self.fr, S, policy, exhaustive_psd=exhaustive_psd)
        self.oracle_report = None
        if with_oracle:
            self.oracle_report = run_oracle(m, policy)
        self.elapsed = time.perf_counter() - t0

    @cached_property
    def hf(self) -> debranges.HermForm:
        return debranges.extract_C(self.dd)


# Agler orders B_1..B_ORACLE_ORDERS that the oracle reads, of the shift and of its dual
ORACLE_ORDERS = 8


def run_oracle(m: Measure, policy: NumericPolicy) -> dict:
    """The ``oracle`` section: the deterministic Agler forms of the Cauchy
    dual (``oracle.bn_dual_probe``) and, as a check of the model, those of
    the shift on the same span E_s, which ``bn_dual_probe`` reads in the
    dual's eigen-solve as the slides G[j:j+s, j:j+s] of the Gram."""
    N = policy.oracle_N
    probe = oracle.bn_dual_probe(m, ORACLE_ORDERS, N)
    lam = probe["shift_eig"]
    return {
        "N": N,
        "two_isometry_defect": float(np.max(np.abs(lam[1]))),
        "max_bn_form": float(np.max(lam)),
        "dual_norm": oracle.dual_norm(probe["model"]),
        "dual_probe_most_negative": probe["most_negative"],
        "dual_probe_witness": probe["witness"],
        "truncation_caution": probe["truncation_caution"],
    }


def analyze(measure_spec: str, policy: Optional[NumericPolicy] = None,
            with_oracle: bool = False, exhaustive_psd: bool = False,
            full: bool = False) -> dict:
    policy = policy or NumericPolicy()
    m = parse_measure(measure_spec)
    res = PipelineResult(m, policy, with_oracle, exhaustive_psd)
    return build_report(res, full)


def build_report(res: PipelineResult, full: bool = False) -> dict:
    """The report of one analysis; complex values stay Python ``complex``
    until ``report_to_json`` spells them.  Only a ``full`` report carries
    the Gram matrix D and its inverse B in ``gram``, and reads ``res.hf``
    for the ``hermitian_form`` section (C and P); when building C fails,
    that section is null and ``hermitian_form_error`` names the error, so
    the verdict is still reported."""
    v = res.verdict
    gram, hf = {}, {}
    if full:
        gram = {"D": res.dd.D.tolist(), "B": res.dd.B.tolist()}
        try:
            hf = {"hermitian_form": {"C": res.hf.C.tolist(), "P": res.hf.P.tolist()}}
        except CdspError as exc:
            hf = {"hermitian_form": None,
                  "hermitian_form_error": f"{type(exc).__name__}: {exc}"}
    rep = {
        "schema": SCHEMA_VERSION,
        "measure": measure_json(res.measure),
        "factorization": {
            "alphas": res.fr.alphas.tolist(),
            "d": res.fr.d,
            "identity_residual": res.identity_residual,
        },
        "gram": {**gram, "asymmetry": res.dd.gram_asymmetry},
        **hf,
        "S": {
            "diagonal": v.S.diagonal().real.tolist(),
            "offdiagonal": [
                {"r": ev.r, "t": ev.t, "value": ev.S_rt,
                 "normalized": ev.normalized, "premise_ok": ev.premise_ok}
                for ev in v.pair_evidence
            ],
        },
        "verdict": {
            "decision": v.decision,
            "max_offdiag_norm": v.max_offdiag_norm,
            "psd_probes": [
                {"l": p.l, "N": p.N, "min_eig": p.min_eig, "trace": p.trace}
                for p in v.psd_probes
            ],
        },
        "policy": res.policy.to_dict(),
    }
    if res.oracle_report is not None:
        rep["oracle"] = res.oracle_report
    rep["timings"] = {"total_s": res.elapsed}
    return rep


def report_to_json(rep: dict) -> str:
    """The text of ``json.dumps(rep, indent=2, default=complex_parts)``,
    byte for byte: a ``complex`` (``np.complex128`` included) is written as
    ``{"re": z.real, "im": z.imag}``.

    CPython 3.10/3.11 run the pure-Python encoder whenever ``indent`` is
    set; this writer builds the same text from whole strings per container,
    and spells a list whose members share one shape from one cached
    template. Dict keys must be ``str``; any other value json cannot encode
    raises TypeError.
    """
    return _text(rep, "")


def complex_parts(z) -> dict:
    """The JSON object that stands for a complex number; the ``default``
    hook of ``json.dumps`` for reports, so any other type raises TypeError."""
    if not isinstance(z, complex):
        raise TypeError(f"Object of type {type(z).__name__} is not JSON serializable")
    return {"re": z.real, "im": z.imag}


_float_repr = float.__repr__
# the text of a leaf of each exact type, a float only when finite;
# subclasses (an int subclass may override __repr__) are not leaves
_WORDS = {float: _float_repr, int: int.__repr__, str: _json_str,
          bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}
# the shape of a complex leaf: the record complex_parts(z) spells
_COMPLEX = (('"re": ', float), ('"im": ', float))


def _finite(values) -> bool:
    """Whether every float or complex in ``values`` is finite: a NaN or
    infinite member (or an overflowing sum) makes their sum non-finite."""
    s = sum(values)
    return s - s == 0.0


def _block(members: list, pad: str, brackets: str) -> str:
    """Text of a container whose members' texts are ``members``."""
    if not members:
        return brackets
    inner = pad + "  "
    body = (",\n" + inner).join(members)
    # one f-string copies the body, megabytes at large k, only once
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}"


@lru_cache(maxsize=128)
def _template(shape: tuple, pad: str) -> str:
    """Text of a value of ``shape`` at indent ``pad``: its members' (prefix,
    leaf type) pairs, the prefix a flat record's '"key": ' or empty in a
    list.  A float or int leaf is a ``%r`` slot, a complex one the two of
    ``_COMPLEX`` and any other a ``%s`` slot for its text."""
    inner = pad + "  "
    return _block([prefix.replace("%", "%%")
                   + (_template(_COMPLEX, inner) if kind is complex
                      else "%r" if kind is float or kind is int else "%s")
                   for prefix, kind in shape], pad, "{}" if shape[0][0] else "[]")


def _run(v, pad: str) -> Optional[str]:
    """Text of a list whose members share one shape: finite exact
    ``complex`` values (one template for the list), equal-length lists of
    them, or flat dicts with one key order and one exact leaf type per key
    (one template per member); None for any other list."""
    kinds = set(map(type, v))
    head = kinds.pop() if len(kinds) == 1 else None
    if head is complex or head is list:
        rows = v if head is list else [v]
        n = len(rows[0])
        members = list(chain.from_iterable(v)) if head is list else v
        if (not n or set(map(len, rows)) != {n}
                or set(map(type, members)) != {complex} or not _finite(members)):
            return None
        shape, parts = (("", complex),) * n, np.array(v, dtype=complex).view(float).tolist()
        if head is complex:
            return _template(shape, pad) % tuple(parts)
        slots = map(tuple, parts)
    elif head is dict:
        key_orders = set(map(tuple, v))
        if len(key_orders) != 1 or () in key_orders:
            return None
        shape, columns = [], []
        # columns are lists, not the tuples of zip(*records): CPython 3.11
        # never reuses a freed 20-member tuple, so the 20-record runs of
        # k = 5 would grow the process by up to 2000 of them (368 KB)
        for key in key_orders.pop():
            col = list(map(itemgetter(key), v))
            kind = set(map(type, col))
            kind = kind.pop() if len(kind) == 1 else None
            if kind is complex and _finite(col):
                columns += [[z.real for z in col], [z.imag for z in col]]
            elif kind is int or kind is float and _finite(col):
                columns.append(col)
            elif kind in _WORDS and kind is not float:
                columns.append(map(_WORDS[kind], col))
            else:
                return None
            shape.append((_json_str(key) + ": ", kind))
        shape, slots = tuple(shape), zip(*columns)
    else:
        return None
    member = _template(shape, pad + "  ")
    return _block([member % s for s in slots], pad, "[]")


def _text(v, pad: str) -> str:
    t = type(v)
    if t in _WORDS and (t is not float or v - v == 0.0):
        return _WORDS[t](v)
    if t is complex and v - v == 0.0:
        return _template(_COMPLEX, pad) % (v.real, v.imag)
    # finite floats, the bulk of a report outside templates, need no call
    inner = pad + "  "
    if t is dict:
        return _block([_json_str(key) + ": " + (_float_repr(x) if type(x) is float
                                                and x - x == 0.0 else _text(x, inner))
                       for key, x in v.items()], pad, "{}")
    if t is list or t is tuple:
        return _run(v, pad) or _block([_float_repr(x) if type(x) is float and x - x == 0.0
                                       else _text(x, inner) for x in v], pad, "[]")
    # the rare rest (NaN and infinite floats, np.complex128, subclasses) goes
    # to the stdlib encoder
    return json.dumps(v, indent=2, default=complex_parts).replace("\n", "\n" + pad)


# ---------------------------------------------------------------------------
# regression checks of the closed-form constants for the equi-spaced
# three-point unit-weight measure (the rank-3 counter-example)
# ---------------------------------------------------------------------------

# the items that compare the pipeline with the closed forms, in report order;
# they need unit weights
CLOSED_FORM_ITEMS = (
    "trig_coefficients", "alpha_cubed", "d_times_b", "outer_derivative_modulus",
    "gram_entries", "gram_determinant", "inverse_gram", "S_closed_form_coefficients",
    "cross_identity_x(x+1)", "cross_identity_x(x-1)", "offdiag_quadratic_nonroot",
)


def _circulant(first_row) -> np.ndarray:
    """The matrix whose row i is ``first_row`` shifted right by i."""
    row = np.asarray(first_row, dtype=complex)
    return np.array([np.roll(row, i) for i in range(len(row))])


def closed_form_constants() -> dict:
    """Exact reference constants for the three-equi-spaced-atoms example,
    derived by rationalization: b = (11 + 3 sqrt 13)/2, x = (sqrt 13 - 1)/2.

    Also the paper's displayed objects as arrays, for the atoms 0, 1/3, 2/3
    in that order: the Laurent coefficients ``T`` of T (m = -3..3), the Gram
    matrix ``D``, its inverse ``B`` and the coefficient matrix ``C`` of S.
    """
    b = (11.0 + 3.0 * np.sqrt(13.0)) / 2.0
    x = (np.sqrt(13.0) - 1.0) / 2.0
    w = complex(-0.5, np.sqrt(3.0) / 2.0)
    s = 1.0 / (w - 1.0)
    sc = np.conj(s)
    det_D = x * (x * x - 1.0)
    S_coeffs = ((1.0 - b) + 3.0 * b / (x + 1.0),
                3.0 * b / (x * (x + 1.0)),
                3.0 * b / (x * (x - 1.0)))
    return {
        "b": b,
        "alpha": b ** (1.0 / 3.0),
        "d": 1.0 / b,
        "x": x,
        "w": w,
        "s": s,
        "det_D": det_D,
        "S_coeffs": S_coeffs,
        "T": np.array([-1.0, 0.0, 0.0, 11.0, 0.0, 0.0, -1.0]),
        "D": _circulant([x, s, sc]),
        "B": _circulant([x * x - 1.0 / 3.0, sc ** 2 - x * s, s ** 2 - x * sc]) / det_D,
        "C": np.diag(S_coeffs[::-1]),
    }


def _max_dev(got, want) -> float:
    """Largest modulus of ``got - want``, entry by entry."""
    return float(np.max(np.abs(np.subtract(got, want))))


def _check(name: str, ok, detail: str) -> dict:
    return {"name": name, "status": "PASS" if ok else "FAIL", "detail": detail}


def reference_checks(rotation_turns=None, weights=None) -> dict:
    """Named pass/fail items for every displayed constant of the
    three-point construction; closed-form items are skipped when the
    weights deviate from unit."""
    unit_weights = weights is None or all(abs(c - 1.0) < 1e-15 for c in weights)
    m = measure_from_turns([Fraction(0), Fraction(1, 3), Fraction(2, 3)],
                           [1.0, 1.0, 1.0] if weights is None else weights)
    phase = 1.0 + 0.0j
    if rotation_turns is not None:
        m = rotate_measure(m, Fraction(rotation_turns))
        t = Fraction(rotation_turns) % 1  # exact, so a huge turn count still fits a float
        phase = complex(np.cos(2 * np.pi * float(t)), np.sin(2 * np.pi * float(t)))
    policy = NumericPolicy()
    # no residual ends the run: the other items still read the factorization,
    # and the identity item compares the residual with policy.identity_tol
    res = PipelineResult(m, replace(policy, identity_tol=np.inf))
    fr, dd, hf = res.fr, res.dd, res.hf

    if unit_weights:
        ref = closed_form_constants()
        b, x = ref["b"], ref["x"]
        c3, c2, c1 = ref["S_coeffs"]
        trig = fejer.build_trig(m)
        # rotation by phi multiplies t_m by conj(phase)^m and each alpha_j by
        # phase; the atoms keep their cyclic order, so D, B and C do not change
        T_ref = ref["T"] * np.conj(phase) ** np.arange(-3, 4)
        cubes = (fr.alphas * np.conj(phase)) ** 3
        O_mod = np.abs(dd.fprime_at_zeta)
        detD = float(np.prod(np.linalg.eigvalsh(dd.D)))
        # the quadratic in Y = alpha^2 conj(w) does not vanish
        Y = ref["alpha"] ** 2 * np.conj(ref["w"])
        S_Y = abs(Y * (c3 * Y ** 2 + c2 * Y + c1))
        checks = [
            (_max_dev(trig.t, T_ref) < 1e-12,
             f"t0={trig.coeff(0)}, t3={trig.coeff(3) * phase ** 3}"),
            (_max_dev(cubes, b) < 1e-10 * b, f"alpha^3={np.sort(cubes)[0]}"),
            (abs(fr.d * b - 1.0) < 1e-10, f"d*b={fr.d * b}"),
            (_max_dev(O_mod, 1.0) < 1e-10, f"|O'|={O_mod.tolist()}"),
            (_max_dev(dd.D, ref["D"]) < 1e-10, f"diag={dd.D.diagonal().tolist()}"),
            (abs(detD - ref["det_D"]) < 1e-9 * abs(ref["det_D"]), f"det={detD}"),
            (_max_dev(dd.B, ref["B"]) < 1e-9, ""),
            (_max_dev(hf.C, ref["C"]) < 1e-8 * min(ref["S_coeffs"]),
             f"C_diag={tuple(hf.C.diagonal().real[::-1].tolist())}"),
            (abs(x * (x + 1.0) - 3.0) < 1e-10, ""),
            (abs(x * (x - 1.0) - (4.0 - np.sqrt(13.0))) < 1e-10, ""),
            (S_Y > 1e-2, f"|S|={S_Y}"),
        ]
        items = [_check(name, ok, detail)
                 for name, (ok, detail) in zip(CLOSED_FORM_ITEMS, checks)]
    else:
        items = [{"name": name, "status": "NOT-APPLICABLE", "detail": ""}
                 for name in CLOSED_FORM_ITEMS]

    # pipeline-level items, valid for any weights
    items.append(_check("factorization_identity", res.identity_residual <= policy.identity_tol,
                        f"residual={res.identity_residual}"))
    items.append(_check("verdict_not_subnormal", res.verdict.decision == vd.NOT_SUBNORMAL,
                        res.verdict.decision))
    return {
        "schema": CHECKS_SCHEMA_VERSION,
        "measure": measure_json(m),
        "items": items,
        "all_passed": all(it["status"] != "FAIL" for it in items),
        "policy": policy.to_dict(),
    }
