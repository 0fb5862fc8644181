import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cdsp import measure as measure_mod
from cdsp import measure_from_turns, parse_measure, rotate_measure
from cdsp.errors import ParseError, ValidationError
from cdsp.measure import MAX_TURNS_EXPONENT, MIN_CHORDAL_DISTANCE, _unit_from_turns, parse_turns
from cdsp.report import measure_json, report_to_json


class TestParse:
    def test_three_equi_spaced(self):
        m = parse_measure("0,1/3,2/3 : 1,1,1")
        w = np.exp(2j * np.pi / 3)
        assert m.k == 3
        assert sorted(m.weights) == [1, 1, 1]
        got = sorted(m.points, key=np.angle)
        assert np.allclose(got, sorted([1, w, w ** 2], key=np.angle), atol=1e-15)

    def test_single_atom(self):
        m = parse_measure("0 : 1")
        assert m.k == 1 and m.points[0] == 1.0

    def test_antipodal(self):
        m = parse_measure("0,1/2:1,1")
        assert sorted(p.real for p in m.points) == [-1.0, 1.0]

    def test_json_form(self):
        m = parse_measure('{"atoms": [{"turns": "1/4", "weight": 2.0},'
                          ' {"point": {"re": 1, "im": 0}, "weight": 1}]}')
        assert m.k == 2
        assert 1j in m.points

    def test_json_roundtrip(self):
        # the report's measure section is itself a measure document
        for spec in ("0,1/3,2/3:1,2,0.5",
                     '{"atoms": [{"angle": 0.3, "weight": 2.0}, {"turns": "1/2", "weight": 1}]}'):
            m = parse_measure(spec)
            text = report_to_json(measure_json(m))
            m2 = parse_measure(text)
            assert report_to_json(measure_json(m2)) == text, spec
            assert m.points.tobytes() == m2.points.tobytes(), spec
            assert m.weights.tolist() == m2.weights.tolist(), spec

    @pytest.mark.parametrize("bad", ["", "0", "0:1:2x", "a,b:1,1", "0,1/3:1"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_measure(bad)

    @pytest.mark.parametrize("spec", [":", " : ", '{"atoms": []}', None])
    def test_empty_measure_is_a_validation_error(self, spec):
        # one check, in _measure, whatever form the measure comes in
        with pytest.raises(ValidationError, match="^measure needs at least one atom$"):
            measure_from_turns([], []) if spec is None else parse_measure(spec)

    def test_unequal_lengths_are_a_parse_error(self):
        with pytest.raises(ParseError, match="^turns and weights must have equal length$"):
            measure_from_turns([Fraction(0)], [1.0, 2.0])

    @pytest.mark.parametrize("doc", [
        {"atoms": [{"turns": "0", "weight": "x"}]},
        {"atoms": [{"angle": "a", "weight": 1}]},
        {"atoms": [{"point": {"re": "a", "im": 0}, "weight": 1}]},
        {"atoms": [{"point": [1, 0], "weight": 1}]},
        {"atoms": [1, 2]},
        {"atoms": 5},
    ])
    def test_malformed_json_fields(self, doc):
        with pytest.raises(ParseError):
            parse_measure(json.dumps(doc))

    # each document is a valid measure once the boolean is read as 1.0 / 0.0
    # (weight false aside, which would be a nonpositive weight)
    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("atom", [
        lambda b: {"turns": "0", "weight": b},
        lambda b: {"angle": b, "weight": 1},
        lambda b: {"point": {"re": b, "im": 0 if b else 1}, "weight": 1},
        lambda b: {"point": {"re": 0 if b else 1, "im": b}, "weight": 1},
    ], ids=["weight", "angle", "point-re", "point-im"])
    def test_json_booleans_are_not_numbers(self, atom, flag):
        doc = {"atoms": [atom(flag), {"turns": "1/3", "weight": 1},
                         {"turns": "2/3", "weight": 1}]}
        with pytest.raises(ParseError, match="must be a number"):
            parse_measure(json.dumps(doc))

    def test_duplicate_points(self):
        with pytest.raises(ValidationError):
            parse_measure("0,0:1,1")

    def test_nonpositive_weight(self):
        with pytest.raises(ValidationError):
            parse_measure("0,1/2:1,0")

    @pytest.mark.parametrize("weight", ["inf", "nan"])
    def test_non_finite_weight(self, weight):
        with pytest.raises(ValidationError, match="non-finite weight"):
            parse_measure(f"0,1/3,2/3:1,1,{weight}")

    def test_off_circle_point(self):
        doc = {"atoms": [{"point": {"re": 0.5, "im": 0.5}, "weight": 1}]}
        with pytest.raises(ValidationError, match=r"point \(0.5\+0.5j\) is off the unit circle"):
            parse_measure(json.dumps(doc))

    def test_arrays_are_read_only(self):
        m = parse_measure("0,1/3,2/3:1,2,0.5")
        assert m.points.dtype == complex and m.weights.dtype == float
        with pytest.raises(ValueError):
            m.points[0] = 0
        with pytest.raises(ValueError):
            m.weights[0] = 1
        assert m.turns == (Fraction(0), Fraction(1, 3), Fraction(2, 3))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_json_roundtrip_over_mixed_atoms(self, data):
        # turns, weights and points come back bit for bit: the report writes
        # an atom given by an angle or a point as its point
        atoms = []
        for kind in data.draw(st.lists(st.sampled_from(["turns", "angle", "point"]),
                                       min_size=1, max_size=8)):
            wt = data.draw(st.floats(1e-3, 1e3))
            if kind == "turns":
                t = Fraction(data.draw(st.integers(-2000, 2000)), data.draw(st.integers(1, 997)))
                atoms.append({"turns": str(t), "weight": wt})
            else:
                a = data.draw(st.floats(-10.0, 10.0))
                atoms.append({"angle": a, "weight": wt} if kind == "angle"
                             else {"point": {"re": math.cos(a), "im": math.sin(a)}, "weight": wt})
        try:
            m = parse_measure(json.dumps({"atoms": atoms}))
        except ValidationError:
            assume(False)
        m2 = parse_measure(report_to_json(measure_json(m)))
        assert m2.turns == m.turns
        assert m2.weights.tobytes() == m.weights.tobytes()
        assert m2.points.tobytes() == m.points.tobytes()
        for pt, t in zip(m.points.tolist(), m.turns):
            assert t is None or pt == _unit_from_turns(t)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_first_coincident_pair_is_named(self, data):
        k = data.draw(st.integers(3, 64))
        planted = data.draw(st.integers(1, 2))
        n = data.draw(st.lists(st.integers(0, 996), min_size=k - planted, max_size=k - planted,
                               unique=True))
        atoms = [{"turns": f"{x}/997", "weight": 1.0} for x in n]
        # point atoms within about 1e-9 of one of the turns atoms, at any
        # position; with two, row-major and column-major loops can disagree
        for _ in range(planted):
            a = (2 * math.pi * data.draw(st.sampled_from(n)) / 997
                 + data.draw(st.floats(-1.2e-9, 1.2e-9)))
            atoms.insert(data.draw(st.integers(0, len(atoms))),
                         {"point": {"re": math.cos(a), "im": math.sin(a)}, "weight": 1.0})
        points = [_unit_from_turns(Fraction(at["turns"])) if "turns" in at
                  else complex(at["point"]["re"], at["point"]["im"]) for at in atoms]
        want = next(((i, j) for i in range(k) for j in range(i + 1, k)
                     if abs(points[i] - points[j]) <= MIN_CHORDAL_DISTANCE), None)
        doc = json.dumps({"atoms": atoms})
        if want is None:
            assert parse_measure(doc).k == k
        else:
            with pytest.raises(ValidationError, match=f"^atoms {want[0]} and {want[1]} coincide$"):
                parse_measure(doc)

    @pytest.mark.parametrize("spec", ["1e5000:1", "1e-5000:1", "1/2,1e5000:1,1",
                                      '{"atoms": [{"turns": "1e5000", "weight": 1}]}'])
    def test_oversize_turns_is_a_parse_error(self, spec):
        with pytest.raises(ParseError, match="has too many digits to write back"):
            parse_measure(spec)

    def test_large_turns_still_write(self):
        m = parse_measure("1e4000,1/2:1,1")
        assert parse_measure(json.dumps(measure_json(m))).turns == m.turns

    def test_exponent_past_bound_is_refused_before_expansion(self, monkeypatch):
        with pytest.raises(ParseError, match="bad turns value"):
            parse_measure(f"0,1e{MAX_TURNS_EXPONENT + 1}:1,1")

        def no_fraction(text):
            raise AssertionError(f"Fraction({text!r}) built")

        monkeypatch.setattr(measure_mod, "Fraction", no_fraction)
        for text in (f"1e{MAX_TURNS_EXPONENT + 1}", f" -2.5E-{MAX_TURNS_EXPONENT + 1} "):
            with pytest.raises(ValueError, match="decimal exponent"):
                parse_turns(text)


class TestRotate:
    def test_equi_spaced_invariant_support(self):
        m = parse_measure("0,1/3,2/3:1,1,1")
        r = rotate_measure(m, Fraction(1, 3))
        assert np.allclose(sorted(m.points, key=np.angle),
                           sorted(r.points, key=np.angle), atol=1e-15)

    def test_half_turn(self):
        m = parse_measure("0:1")
        assert rotate_measure(m, Fraction(1, 2)).points[0] == -1.0

    def test_quarter_turn_pair(self):
        m = parse_measure("0,1/4:1,1")
        r = rotate_measure(m, Fraction(1, 4))
        assert set(np.round(r.points, 12)) == {1j, -1 + 0j}

    def test_preserves_weights(self):
        m = parse_measure("0,1/3,2/3:3,1,2")
        r = rotate_measure(m, Fraction(1, 7))
        assert sorted(r.weights) == sorted(m.weights)
        assert r.k == m.k

    def test_oversize_rotated_turns_is_a_parse_error(self):
        m = parse_measure('{"atoms": [{"angle": 0.5, "weight": 1}, {"turns": "1/3", "weight": 1}]}')
        with pytest.raises(ParseError, match="turns value of atom 1 has too many digits"):
            rotate_measure(m, Fraction("1e-5000"))

    def test_irrational_point_rotation(self):
        m = parse_measure('{"atoms": [{"angle": 0.5, "weight": 1}]}')
        r = rotate_measure(m, Fraction(1, 2))
        assert abs(r.points[0] + m.points[0]) < 1e-15


def fraction_unit_from_turns(t):
    """_unit_from_turns as first written: reduce t mod 1 as a Fraction."""
    t = t - math.floor(t)
    table = {Fraction(0): 1 + 0j, Fraction(1, 2): -1 + 0j,
             Fraction(1, 4): 1j, Fraction(3, 4): -1j}
    if t in table:
        return table[t]
    ang = 2.0 * math.pi * float(t)
    return complex(math.cos(ang), math.sin(ang))


class TestUnitFromTurns:
    def test_equals_fraction_reduction(self):
        rng = np.random.default_rng(4)
        turns = [Fraction(n, d) for d in (1, 2, 3, 4, 7, 8, 997) for n in range(-17, 18)]
        turns += [Fraction(int(n), int(d)) for n, d in zip(rng.integers(-10 ** 9, 10 ** 9, 400),
                                                          rng.integers(1, 10 ** 6, 400))]
        turns += [Fraction(10 ** 40 + 1, 4), Fraction(-(10 ** 40) - 3, 4)]
        for t in turns:
            # repr tells -0.0 from 0.0
            assert repr(_unit_from_turns(t)) == repr(fraction_unit_from_turns(t)), t


class TestFromTurns:
    def test_one_unit_per_exact_atom(self, monkeypatch):
        calls = []

        def spy(t):
            calls.append(t)
            return _unit_from_turns(t)

        monkeypatch.setattr(measure_mod, "_unit_from_turns", spy)
        m = parse_measure("0,1/8,1/4,3/8,1/2,5/8,3/4,7/8:1,1,1,1,1,1,1,1")
        assert len(calls) == m.k == 8
