"""The report writer: ``report_to_json`` spells ``json.dumps(v, indent=2)``."""

import json
from collections import OrderedDict, namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdsp import NumericPolicy, debranges, parse_measure, report
from cdsp.errors import NotPSD
from cdsp.report import PipelineResult, analyze, report_to_json
from conftest import equi_spaced, seeded_measure

SPECIAL_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                  5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                  1.7976931348623157e308, 0.1, 1e16, 1e-5]

floats = (st.floats(allow_nan=True, allow_infinity=True)
          | st.sampled_from(SPECIAL_FLOATS))
scalars = (floats
           | floats.map(np.float64)
           | st.integers()
           | st.booleans()
           | st.none()
           | st.text())
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=40)


def re_im(z):
    """The ``default`` hook under which json.dumps spells a complex value."""
    return {"re": z.real, "im": z.imag}


class TestWriter:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(json_values)
    def test_equals_json_dumps(self, value):
        assert report_to_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        {}, [], (), {"": []}, [[], {}, ()],
        {"quote\"back\\slash": "tab\tnew\nline", "é ünï ∑ 𝔇": "\x00\x1f "},
        [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e308, -1e308],
        [np.float64(0.1), np.float64("nan"), np.float64(-0.0), np.float64("-inf")],
        [True, False, None, 0, -1, 2 ** 70],
    ], ids=["empty-dict", "empty-list", "empty-tuple", "empty-key", "empty-nested",
            "escapes", "floats", "np-float64", "int-bool-none"])
    def test_edge_values(self, value):
        assert report_to_json(value) == json.dumps(value, indent=2)

    def test_subclasses_are_written_as_their_base_type(self):
        class Count(int):
            def __repr__(self):
                return "Count()"

        class Label(str):
            pass

        Pair = namedtuple("Pair", "a b")
        value = OrderedDict(n=Count(3), s=Label("x"), p=Pair(1.5, [Pair(-0.0, None)]))
        assert report_to_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("bad", [np.int64(3), {1, 2}], ids=["np-int64", "set"])
    def test_rejects_what_json_rejects(self, bad):
        for value in (bad, [1.0, bad], {"a": {"b": bad}}):
            with pytest.raises(TypeError):
                json.dumps(value, indent=2)
            with pytest.raises(TypeError):
                report_to_json(value)
            with pytest.raises(TypeError):
                json.dumps(value, indent=2, default=report.complex_parts)

    def test_keys_must_be_str(self):
        with pytest.raises(TypeError):
            report_to_json({1: 2.0})


# complex values: an exact complex with finite parts is spelled from the
# template, any other (np.complex128, a NaN or infinite part) as a dict
complex_values = (st.builds(complex, floats, floats)
                  | st.builds(lambda re, im: np.complex128(complex(re, im)), floats, floats))
nested_complex_values = st.recursive(
    complex_values | floats,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.sampled_from(["re", "im", "value", "z"]),
                                     inner, max_size=3)),
    max_leaves=20)


class TestComplexValues:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(nested_complex_values)
    def test_equals_json_dumps_with_hook(self, value):
        want = json.dumps(value, indent=2, default=re_im)
        assert report_to_json(value) == want
        assert json.dumps(value, indent=2, default=report.complex_parts) == want

    @pytest.mark.parametrize("value", [
        1.5 - 0.25j, complex(-0.0, -0.0), complex(0.0, -0.0),
        complex(float("nan"), 1.0), complex(1.0, float("-inf")), complex(float("inf"), 0.0),
        np.complex128(0.1 + 0.2j), np.complex128(complex(float("nan"), -0.0)),
    ], ids=["plain", "negative-zeros", "negative-zero-im", "nan-re", "-inf-im", "inf-re",
            "np-complex128", "np-complex128-nan"])
    def test_single_values(self, value):
        for wrapped in (value, [value], {"value": value}, [[value, value]]):
            assert report_to_json(wrapped) == json.dumps(wrapped, indent=2, default=re_im)


# dicts of two keys, {"re": float, "im": float} included, are containers
# like any other and take the general path
class Half(float):
    pass


complex_parts = (floats | floats.map(np.float64) | floats.map(Half)
                 | st.integers() | st.booleans() | st.none())
two_key_dicts = (st.fixed_dictionaries({"re": complex_parts, "im": complex_parts})
                 | st.fixed_dictionaries({"im": complex_parts, "re": complex_parts})
                 | st.dictionaries(st.sampled_from(["re", "im", "r", "t", "value", "Re"]),
                                   complex_parts, min_size=2, max_size=2))
nested_complex = st.recursive(
    two_key_dicts,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.sampled_from(["re", "im", "value", "z"]),
                                     inner, max_size=3)),
    max_leaves=20)


class TestComplexTemplate:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(nested_complex)
    def test_equals_json_dumps(self, value):
        assert report_to_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        {"re": 1.5, "im": -0.25},
        {"im": -0.25, "re": 1.5},
        {"re": 1, "im": 2}, {"re": True, "im": False}, {"re": None, "im": 0.5},
        {"re": np.float64(0.1), "im": 0.2}, {"re": 0.1, "im": np.float64(0.2)},
        {"re": Half(0.5), "im": 1.0},
        {"re": float("nan"), "im": 0.0}, {"re": 0.0, "im": float("nan")},
        {"re": float("inf"), "im": 1.0}, {"re": 1.0, "im": float("-inf")},
        {"re": -0.0, "im": -0.0},
        {"re": 1.0, "x": 2.0}, {"r": 1.0, "im": 2.0}, {"a": 1.0, "b": 2.0},
        {"re": 1.0, "im": 2.0, "abs": 3.0}, {"re": 1.0},
        {"re": [1.0], "im": {"re": 1.0, "im": 2.0}},
    ], ids=["plain", "im-first", "ints", "bools", "none", "np-float64-re",
            "np-float64-im", "float-subclass", "nan-re", "nan-im", "inf-re", "-inf-im",
            "negative-zero", "other-second-key", "other-first-key", "other-keys",
            "three-keys", "one-key", "containers"])
    def test_single_dicts(self, value):
        for wrapped in (value, [value], {"value": value}):
            assert report_to_json(wrapped) == json.dumps(wrapped, indent=2)

    def test_nested_at_several_depths(self):
        z = {"re": 0.1, "im": -2e-300}
        value = {"a": z, "rows": [[z, z], [z, {"im": 1.0, "re": 2.0}]],
                 "deep": [{"x": [[{"value": z}]]}], "bad": [{"re": float("nan"), "im": 1.0}]}
        assert report_to_json(value) == json.dumps(value, indent=2)


# runs of same-shaped flat records and arrays of complex are spelled from
# cached templates; one deviating member sends the whole list to the general
# path, so each case below must still read as json.dumps reads it
class Count(int):
    def __repr__(self):
        return "Count()"


finite = st.floats(allow_nan=False, allow_infinity=False)
finite_complex = st.builds(complex, finite, finite)
RECORD_KINDS = {
    "float": finite, "int": st.integers(), "bool": st.booleans(), "none": st.none(),
    "str": st.text(max_size=4), "complex": finite_complex,
}
# values that differ from any template kind, or from the column they land in
deviant_values = st.sampled_from([
    True, False, 0, 1, Count(3), Half(0.5), float("nan"), float("inf"), float("-inf"),
    np.float64(0.5), None, 'q"u\\o\te\n%s é', complex(float("nan"), 0.0),
    complex(1.0, float("-inf")), np.complex128(1 - 2j), 1.5, [1.0], {"re": 1.0},
])
record_keys = st.sampled_from(["r", "t", "value", "re", "im", "%s", "%%r", 'q"', "é", ""])


@st.composite
def record_runs(draw):
    """A list of flat dicts with one key order and one kind per key, and at
    most one record that differs by key order, a missing key or one value."""
    keys = draw(st.lists(record_keys | st.text(max_size=3), min_size=1, max_size=4,
                         unique=True))
    kinds = [draw(st.sampled_from(sorted(RECORD_KINDS))) for _ in keys]
    run = [{key: draw(RECORD_KINDS[kind]) for key, kind in zip(keys, kinds)}
           for _ in range(draw(st.integers(1, 5)))]
    i = draw(st.integers(0, len(run) - 1))
    key = draw(st.sampled_from(keys))
    deviation = draw(st.sampled_from(["none", "order", "missing", "value"]))
    if deviation == "order":
        run[i] = dict(reversed(run[i].items()))
    elif deviation == "missing":
        del run[i][key]
    elif deviation == "value":
        run[i][key] = draw(deviant_values)
    return run


@st.composite
def complex_arrays(draw):
    """A list of exact finite complex values, or a list of such lists, with
    at most one deviation: a ragged or empty row, or one member that is not
    an exact finite complex."""
    rows = draw(st.integers(0, 4))
    n = draw(st.integers(0 if rows else 1, 4))
    grid = [[draw(finite_complex) for _ in range(n)] for _ in range(max(rows, 1))]
    deviation = draw(st.sampled_from(["none", "ragged", "empty-row", "member"]))
    i = draw(st.integers(0, len(grid) - 1))
    if deviation == "ragged":
        grid[i].append(draw(finite_complex))
    elif deviation == "empty-row":
        grid[i] = []
    elif deviation == "member" and grid[i]:
        grid[i][draw(st.integers(0, len(grid[i]) - 1))] = draw(
            deviant_values | st.builds(np.complex128, finite_complex))
    return grid if rows else grid[0]


nested_runs = st.recursive(
    record_runs() | complex_arrays(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(record_keys, inner, max_size=3)),
    max_leaves=8)


class TestTemplatePaths:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(record_runs())
    def test_record_runs(self, value):
        assert report_to_json(value) == json.dumps(value, indent=2, default=re_im)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(complex_arrays())
    def test_complex_arrays(self, value):
        assert report_to_json(value) == json.dumps(value, indent=2, default=re_im)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(nested_runs)
    def test_nested(self, value):
        assert report_to_json(value) == json.dumps(value, indent=2, default=re_im)

    @pytest.mark.parametrize("second", [
        {"r": 1, "v": 0.5, "ok": True},
        {"v": 0.5, "r": 1, "ok": True},
        {"r": True, "v": 0.5, "ok": True},
        {"r": 1, "v": 0.5, "ok": 1},
        {"r": Count(1), "v": 0.5, "ok": True},
        {"r": 1, "v": Half(0.5), "ok": True},
        {"r": 1, "v": float("nan"), "ok": True},
        {"r": 1, "v": float("-inf"), "ok": True},
        {"r": 1, "v": np.float64(0.5), "ok": True},
        {"r": 1, "v": None, "ok": True},
        {"r": 1, "v": 'q"\\\n\t%s', "ok": True},
        {"r": 1, "v": 0.5},
        {"r": 1, "v": 0.5, "ok": True, "x": None},
        {"r": 1, "v": [0.5], "ok": True},
        OrderedDict(r=1, v=0.5, ok=True),
    ], ids=["same", "key-order", "bool-for-int", "int-for-bool", "int-subclass",
            "float-subclass", "nan", "-inf", "np-float64", "none", "escaped-str",
            "missing-key", "extra-key", "nested-list", "dict-subclass"])
    def test_record_run_with_one_deviating_record(self, second):
        for value in ([{"r": 0, "v": -0.0, "ok": False}, second],
                      [second, {"r": 0, "v": 1e-300, "ok": False}]):
            assert report_to_json(value) == json.dumps(value, indent=2, default=re_im)

    @pytest.mark.parametrize("value", [
        [{"%s": 1.0, 'a"\\b': "%r", "n": None, "z": 1 - 2j}] * 3,
        [{"n": None}, {"n": None}],
        [{"b": True}, {"b": False}],
        [{}, {}],
        [{"z": complex(0.0, float("nan"))}, {"z": 1j}],
        [{"x": 1e308}, {"x": 1e308}],
    ], ids=["escaped-keys", "all-none", "bools", "empty-records", "complex-nan",
            "sum-overflows"])
    def test_record_run_edges(self, value):
        assert report_to_json(value) == json.dumps(value, indent=2, default=re_im)

    def test_record_keys_must_be_str(self):
        with pytest.raises(TypeError):
            report_to_json([{1: 2.0}, {1: 3.0}])

    @pytest.mark.parametrize("value", [[{None: 2.0}, {None: 3.0}], [{"a": 1j, None: 2j}] * 2])
    def test_record_key_none_is_not_a_list(self, value):
        with pytest.raises(TypeError):
            report_to_json(value)

    @pytest.mark.parametrize("value", [
        [[1 + 2j, -0.0 - 0.0j], [3j, 4.0 + 0j]],
        [[1 + 2j, 3j], [4 + 0j]],
        [[1 + 2j], []],
        [[], []],
        [[1 + 2j, complex(float("nan"), 0.0)], [3j, 4j]],
        [[1 + 2j, complex(0.0, float("inf"))], [3j, 4j]],
        [[1 + 2j, np.complex128(2j)], [3j, 4j]],
        [[1 + 2j, 0.5], [3j, 4j]],
        [[1 + 2j, 3j], (4j, 5j)],
        [[1e308 + 0j, 1e308 + 0j]],
        [1 + 2j, [3j]],
        [1 + 2j, complex(float("-inf"), 1.0), 3j],
        (1 + 2j, 3j),
    ], ids=["rectangular", "ragged", "one-empty-row", "empty-rows", "nan-part",
            "inf-part", "np-complex128", "float-member", "tuple-row", "sum-overflows",
            "mixed-depth", "vector-inf", "tuple-vector"])
    def test_complex_grid_edges(self, value):
        for wrapped in (value, [value], {"D": value, "B": [value, value]}):
            assert report_to_json(wrapped) == json.dumps(wrapped, indent=2, default=re_im)


# turns, angle and point atoms: the report writes the last two as their
# points, so its atom records mix shapes and carry complex values
MIXED_ATOMS = json.dumps({"atoms": [
    {"turns": "1/7", "weight": 2.0}, {"angle": 1.3, "weight": 0.5},
    {"point": {"re": -0.28, "im": 0.96}, "weight": 3}, {"angle": -2.5, "weight": 1.25}]})


@pytest.mark.parametrize("spec, kwargs", [
    ("0,1/3,2/3:1,1,1", {"with_oracle": True, "exhaustive_psd": True}),
    ("0,1/2:1,1", {}),
    (equi_spaced(8), {}),
    (equi_spaced(16), {}),
    (equi_spaced(32), {}),
    (equi_spaced(10), {}),
    (seeded_measure(7, 7), {}),
    (seeded_measure(11, 8), {}),
    (MIXED_ATOMS, {"with_oracle": True}),
], ids=["ref3-oracle-exhaustive", "antipodal", "equi8", "equi16", "equi32", "equi10",
        "random7", "random8", "mixed-atoms"])
def test_pipeline_report_is_json_dumps(spec, kwargs):
    # the full report, whose sections are the default report's and C and P;
    # C and P must be built, so their text is compared too
    rep = analyze(spec, full=True, **kwargs)
    assert rep["hermitian_form"] is not None
    assert "hermitian_form_error" not in rep
    assert report_to_json(rep) == json.dumps(rep, indent=2, default=re_im)


class TestHermitianFormOnFirstRead:
    def test_built_once_on_first_read(self, monkeypatch):
        calls = []
        extract_C = debranges.extract_C

        def spy(dd):
            calls.append(dd)
            return extract_C(dd)

        monkeypatch.setattr(debranges, "extract_C", spy)
        res = PipelineResult(parse_measure("0,1/3,2/3:1,1,1"), NumericPolicy())
        assert calls == []
        hf = res.hf
        assert len(calls) == 1 and calls[0] is res.dd
        assert res.hf is hf
        assert len(calls) == 1

    # the roots are accurate only to 5e-11 (c = 5) or 1.5e-9 (c = 20) relative
    # at these k, which leaves C indefinite; S at the roots still decides
    @pytest.mark.parametrize("c, k", [(5, 128), (20, 96)])
    def test_failing_C_keeps_the_verdict(self, c, k):
        res = PipelineResult(parse_measure(equi_spaced(k, c)), NumericPolicy())
        assert res.verdict.decision == "NotSubnormal"
        with pytest.raises(NotPSD) as exc:
            res.hf
        assert exc.value.index == k - 1 and exc.value.pivot < 0


class TestReferenceChecks:
    def test_text_ignores_numpy_print_options(self):
        want = report_to_json(report.reference_checks())
        with np.printoptions(precision=3):
            assert report_to_json(report.reference_checks()) == want

    def test_closed_form_arrays(self):
        ref = report.closed_form_constants()
        assert np.abs(ref["B"] @ ref["D"] - np.eye(3)).max() < 1e-14
        assert np.array_equal(ref["D"], ref["D"].conj().T)
        assert ref["C"].diagonal().tolist() == list(ref["S_coeffs"][::-1])
        assert ref["T"].tolist() == [-1, 0, 0, 11, 0, 0, -1]
