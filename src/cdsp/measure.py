"""Finitely supported positive measures on the unit circle.

Atoms carry an optional exact rational angle (in turns) so that roots of
unity stay exact under rotation: cancellations like 1 + w + w^2 = 0 must
hold to machine precision downstream.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ParseError, ValidationError

MIN_CHORDAL_DISTANCE = 1e-9


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


@dataclass(frozen=True)
class CirclePoint:
    value: complex
    exact_turns: Optional[Fraction] = None

    def __post_init__(self):
        if not (math.isfinite(self.value.real) and math.isfinite(self.value.imag)):
            raise ValidationError("non-finite circle point")
        if abs(abs(self.value) - 1.0) > 1e-12:
            raise ValidationError(f"point {self.value} is off the unit circle")
        if self.exact_turns is not None:
            if abs(self.value - _unit_from_turns(self.exact_turns)) > 1e-15 * 4:
                raise ValidationError("value inconsistent with exact_turns")

    @classmethod
    def from_turns(cls, t) -> "CirclePoint":
        # the value is derived from t here, so __post_init__'s check against
        # t (which would derive it a second time) is skipped: a unit from
        # _unit_from_turns is finite and on the circle by construction
        t = Fraction(t)
        pt = object.__new__(cls)
        object.__setattr__(pt, "value", _unit_from_turns(t))
        object.__setattr__(pt, "exact_turns", t)
        return pt

    @classmethod
    def from_angle(cls, radians: float) -> "CirclePoint":
        return cls(cmath.exp(1j * radians), None)


@dataclass(frozen=True)
class Measure:
    atoms: tuple  # of (CirclePoint, float)

    def __post_init__(self):
        if len(self.atoms) < 1:
            raise ValidationError("measure needs at least one atom")
        for pt, wt in self.atoms:
            if not math.isfinite(wt):
                raise ValidationError(f"non-finite weight {wt}")
            if not (wt > 0):
                raise ValidationError(f"nonpositive weight {wt}")
        pts = [pt.value for pt, _ in self.atoms]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if abs(pts[i] - pts[j]) <= MIN_CHORDAL_DISTANCE:
                    raise ValidationError(f"atoms {i} and {j} coincide")

    @property
    def k(self) -> int:
        return len(self.atoms)

    @property
    def points(self):
        return [pt.value for pt, _ in self.atoms]

    @property
    def weights(self):
        return [wt for _, wt in self.atoms]


def _parse_turn(tok: str) -> Fraction:
    try:
        return Fraction(tok.strip())
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
    try:
        weights = [float(w) for w in weights_part.split(",") if w.strip() != ""]
    except ValueError as exc:
        raise ParseError("bad weight") from exc
    if len(turns) != len(weights) or not turns:
        raise ParseError("turns and weights must have equal nonzero length")
    atoms = tuple((CirclePoint.from_turns(t), w) for t, w in zip(turns, weights))
    return Measure(atoms)


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
    atoms = []
    for entry in doc["atoms"]:
        if not isinstance(entry, dict):
            raise ParseError(f"atom must be a JSON object, got {entry!r}")
        if "weight" not in entry:
            raise ParseError("atom without weight")
        wt = _number(entry["weight"], "weight")
        if "turns" in entry:
            pt = CirclePoint.from_turns(_parse_turn(str(entry["turns"])))
        elif "angle" in entry:
            pt = CirclePoint.from_angle(_number(entry["angle"], "angle"))
        elif "point" in entry:
            pc = entry["point"]
            if not isinstance(pc, dict) or not {"re", "im"} <= pc.keys():
                raise ParseError("point needs 're' and 'im'")
            pt = CirclePoint(complex(_number(pc["re"], "point re"),
                                     _number(pc["im"], "point im")))
        else:
            raise ParseError("atom needs one of turns / angle / point")
        atoms.append((pt, wt))
    return Measure(tuple(atoms))


def rotate_measure(m: Measure, phase_turns) -> Measure:
    """Multiply every atom by exp(2*pi*i*phase); weights unchanged.  Exact
    angles stay exact when the phase is rational."""
    phase_turns = Fraction(phase_turns)
    atoms = []
    for pt, wt in m.atoms:
        if pt.exact_turns is not None:
            new = CirclePoint.from_turns(pt.exact_turns + phase_turns)
        else:
            new = CirclePoint(pt.value * _unit_from_turns(phase_turns))
        atoms.append((new, wt))
    return Measure(tuple(atoms))
