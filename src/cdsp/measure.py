"""Finitely supported positive measures on the unit circle.

A measure mu = sum_j c_j delta_{zeta_j} is held as two read-only arrays,
the atoms zeta and the weights c, plus each atom's exact angle in turns
when it has one, so that roots of unity stay exact under rotation:
cancellations like 1 + w + w^2 = 0 must hold to machine precision
downstream.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import ParseError, ValidationError

MIN_CHORDAL_DISTANCE = 1e-9

# Fraction builds 10**exponent for a decimal exponent.  Past this one no
# nonzero value has a numerator and denominator that str() writes (4300
# digits each by default), so such a value is refused before the power is built.
MAX_TURNS_EXPONENT = 10_000


# exact values for the common roots of unity used throughout, keyed by
# (numerator, denominator) of the turns reduced mod 1
_EXACT_UNITS = {
    (0, 1): 1 + 0j,
    (1, 2): -1 + 0j,
    (1, 4): 1j,
    (3, 4): -1j,
}


def _unit_from_turns(t: Fraction) -> complex:
    # t mod 1 is (n mod d) / d, still in lowest terms, and its float is the
    # correctly rounded quotient that float(Fraction) returns
    n, d = t.numerator % t.denominator, t.denominator
    unit = _EXACT_UNITS.get((n, d))
    if unit is not None:
        return unit
    ang = 2.0 * math.pi * (n / d)
    return complex(math.cos(ang), math.sin(ang))


@dataclass(frozen=True, eq=False)
class Measure:
    """The atoms ``points`` (complex) and their ``weights`` (float) as
    read-only 1-D arrays, and ``turns``: per atom its exact angle in turns,
    or None for an atom given by an angle or a point.  Built by
    ``parse_measure`` and ``rotate_measure``, which validate it."""
    points: np.ndarray
    weights: np.ndarray
    turns: tuple[Optional[Fraction], ...]

    @property
    def k(self) -> int:
        return len(self.points)


def _measure(points: list, weights: list, turns: list) -> Measure:
    """The measure of parsed atoms after its checks, in this order: each
    weight finite, then positive, atom by atom; the first coincident pair
    i < j; each exact turns value one that str(), which the report spells
    it with, can write.  Plain loops: at k = 3 a numpy call per check would
    cost several times as much."""
    if not points:
        raise ValidationError("measure needs at least one atom")
    for wt in weights:
        if not math.isfinite(wt):
            raise ValidationError(f"non-finite weight {wt}")
        if not (wt > 0):
            raise ValidationError(f"nonpositive weight {wt}")
    for i, p in enumerate(points):
        for j in range(i + 1, len(points)):
            if abs(p - points[j]) <= MIN_CHORDAL_DISTANCE:
                raise ValidationError(f"atoms {i} and {j} coincide")
    for j, t in enumerate(turns):
        try:
            str(t)
        except ValueError as exc:
            raise ParseError(f"turns value of atom {j} has too many digits to write back") from exc
    pts = np.array(points, dtype=complex)
    wts = np.array(weights, dtype=float)
    pts.flags.writeable = wts.flags.writeable = False
    return Measure(pts, wts, tuple(turns))


def _on_circle(value: complex) -> complex:
    """An atom given by an angle or a point, checked to lie on the circle."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValidationError("non-finite circle point")
    if abs(abs(value) - 1.0) > 1e-12:
        raise ValidationError(f"point {value} is off the unit circle")
    return value


def parse_turns(text: str) -> Fraction:
    """A number of turns as ``Fraction`` reads it ('1/7', '0.25', '1e-3').  A
    malformed value, or a decimal exponent beyond MAX_TURNS_EXPONENT, raises
    ValueError or ZeroDivisionError, which each caller words."""
    _, e, exponent = text.lower().rpartition("e")
    if e and abs(int(exponent)) > MAX_TURNS_EXPONENT:
        raise ValueError(f"decimal exponent beyond {MAX_TURNS_EXPONENT}")
    return Fraction(text)


def _parse_turn(tok: str) -> Fraction:
    try:
        return parse_turns(tok.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad turns value {tok!r}") from exc


def parse_measure(spec: str) -> Measure:
    """Parse either the inline "t1,t2,...:w1,w2,..." syntax (turns as
    rationals) or a JSON measure document."""
    spec = spec.strip()
    if spec.startswith("{"):
        return _parse_json(spec)
    if ":" not in spec:
        raise ParseError("inline measure must look like 'turns:weights'")
    turns_part, weights_part = spec.split(":", 1)
    turns = [_parse_turn(t) for t in turns_part.split(",") if t.strip() != ""]
    return measure_from_turns(turns, [w for w in weights_part.split(",") if w.strip() != ""])


def measure_from_turns(turns: list, weights) -> Measure:
    """The measure with atoms at the exact angles ``turns`` (``Fraction``) and
    ``weights`` (numbers or their text), checked as an inline measure is."""
    try:
        weights = [float(w) for w in weights]
    except ValueError as exc:
        raise ParseError("bad weight") from exc
    if len(turns) != len(weights):
        raise ParseError("turns and weights must have equal length")
    return _measure([_unit_from_turns(t) for t in turns], weights, turns)


def _number(value, what: str) -> float:
    # float(True) is 1.0, but JSON true is not a number
    if isinstance(value, bool):
        raise ParseError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what} must be a number, got {value!r}") from exc


def _parse_json(text: str) -> Measure:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc)) from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("atoms"), list):
        raise ParseError("JSON measure document needs an 'atoms' list")
    points, weights, turns = [], [], []
    for entry in doc["atoms"]:
        if not isinstance(entry, dict):
            raise ParseError(f"atom must be a JSON object, got {entry!r}")
        if "weight" not in entry:
            raise ParseError("atom without weight")
        weights.append(_number(entry["weight"], "weight"))
        t = None
        if "turns" in entry:
            t = _parse_turn(str(entry["turns"]))
            pt = _unit_from_turns(t)
        elif "angle" in entry:
            pt = _on_circle(cmath.exp(1j * _number(entry["angle"], "angle")))
        elif "point" in entry:
            pc = entry["point"]
            if not isinstance(pc, dict) or not {"re", "im"} <= pc.keys():
                raise ParseError("point needs 're' and 'im'")
            pt = _on_circle(complex(_number(pc["re"], "point re"),
                                    _number(pc["im"], "point im")))
        else:
            raise ParseError("atom needs one of turns / angle / point")
        points.append(pt)
        turns.append(t)
    return _measure(points, weights, turns)


def rotate_measure(m: Measure, phase_turns) -> Measure:
    """Multiply every atom by exp(2*pi*i*phase); weights unchanged.  Exact
    angles stay exact when the phase is rational."""
    phase_turns = Fraction(phase_turns)
    points, turns = [], []
    for pt, t in zip(m.points.tolist(), m.turns):
        if t is None:
            pt = _on_circle(pt * _unit_from_turns(phase_turns))
        else:
            t += phase_turns
            pt = _unit_from_turns(t)
        points.append(pt)
        turns.append(t)
    return _measure(points, m.weights.tolist(), turns)
