import csv
import io
import json
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from cdsp import fejer, report
from cdsp.cli import SWEEP_COLUMNS, main, run_sweep
from cdsp.errors import PolicyError
from cdsp.policy import NumericPolicy


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def usage_error(capsys, *argv):
    """stderr of a command line that argparse rejects with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestAnalyze:
    def test_three_point_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "-m", "0,1/3,2/3:1,1,1")
        assert code == 0
        rep = json.loads(out)
        assert rep["schema"] == 1
        assert rep["verdict"]["decision"] == "NotSubnormal"
        assert rep["verdict"]["max_offdiag_norm"] == pytest.approx(0.182, abs=2e-3)
        assert len(rep["factorization"]["alphas"]) == 3
        assert rep["factorization"]["identity_residual"] <= 1e-9
        assert {"measure", "gram", "hermitian_form", "S", "policy",
                "timings"} <= set(rep)

    def test_antipodal_subnormal(self, capsys):
        code, out, _ = run(capsys, "analyze", "--measure", "0,1/2:1,1")
        assert code == 0
        assert json.loads(out)["verdict"]["decision"] == "SubnormalNumeric"

    # equal-weight antipodal atoms: the zero test proves subnormality
    # (max_offdiag_norm about 1e-15), while rounding that grows with l lets a
    # probe violate; the two routes disagree, so neither decides
    @pytest.mark.parametrize("argv", [("0,1/2:0.01,0.01",), ("0,1/2:0.003,0.003",),
                                      ("0,1/2:0.001,0.001",),
                                      ("0,1/2:1,1", "--lmax", "100"),
                                      ("1/8,5/8:0.5,0.5", "--lmax", "64")])
    def test_disagreeing_routes_are_inconclusive(self, capsys, argv):
        code, out, _ = run(capsys, "analyze", "-m", *argv)
        assert code == 0
        rep = json.loads(out)
        v, tol = rep["verdict"], rep["policy"]["psd_tol"]
        assert v["max_offdiag_norm"] <= rep["policy"]["zero_accept"]
        assert any(p["min_eig"] < -tol * abs(p["trace"]) for p in v["psd_probes"])
        assert v["decision"] == "Inconclusive"

    # gamma^l leaves the float range near l = 1187 and 6488
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [("0,1/2:0.01,0.01", "--lmax", "1500"),
                                      ("0,1/3,2/3:1,1,1", "--lmax", "7000", "--ntrunc", "8")])
    def test_overflowing_probe_is_ill_conditioned(self, capsys, argv):
        code, out, err = run(capsys, "analyze", "-m", *argv, "--exhaustive-psd")
        assert code == 2 and out == ""
        assert re.fullmatch(r"error \[IllConditioned\]: probe order l = \d+: "
                            r"moment truncation is not finite [^\n]*\n", err)

    def test_oracle_section(self, capsys):
        code, out, _ = run(capsys, "analyze", "-m", "0:1", "--oracle")
        rep = json.loads(out)
        assert code == 0
        assert rep["oracle"]["two_isometry_defect"] <= 1e-10
        assert rep["oracle"]["dual_norm"] == pytest.approx(1.0, abs=1e-8)

    def test_measure_from_file(self, capsys, tmp_path):
        doc = {"atoms": [{"turns": "0", "weight": 1.0},
                         {"turns": "1/2", "weight": 1.0}]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "analyze", "-m", f"@{path}")
        assert code == 0
        assert json.loads(out)["verdict"]["decision"] == "SubnormalNumeric"

    def test_out_flag_writes_file(self, capsys, tmp_path):
        dest = tmp_path / "rep.json"
        code, out, _ = run(capsys, "analyze", "-m", "0:1", "--out", str(dest))
        assert code == 0 and out == ""
        text = dest.read_bytes().decode("utf-8")
        assert json.loads(text)["schema"] == 1
        # the file holds the stdout text byte for byte, up to the run's own time
        code, out, _ = run(capsys, "analyze", "-m", "0:1")
        assert code == 0

        def untimed(s):
            return re.sub(r'"total_s": [^\n]*', '"total_s": 0', s)
        assert text.endswith("}\n") and untimed(text) == untimed(out)

    def test_policy_file_and_overrides(self, capsys, tmp_path):
        pol = tmp_path / "p.json"
        pol.write_text(json.dumps(NumericPolicy(l_max=3).to_dict()))
        code, out, _ = run(capsys, "analyze", "-m", "0,1/2:1,1",
                           "--policy", f"@{pol}", "--ntrunc", "16")
        rep = json.loads(out)
        assert code == 0
        assert rep["policy"]["l_max"] == 3
        assert rep["policy"]["N_trunc"] == 16

    def test_invalid_measure_exit_code(self, capsys):
        code, out, err = run(capsys, "analyze", "-m", "0,0:1,1")
        assert code == 2
        assert "ValidationError" in err

    def test_infinite_weight_is_invalid(self, capsys):
        code, out, err = run(capsys, "analyze", "-m", "0,1/3,2/3:1,1,inf")
        assert code == 2 and out == ""
        assert "error [ValidationError]: non-finite weight inf" in err

    @pytest.mark.parametrize("flag", ["--lmax", "--ntrunc"])
    @pytest.mark.parametrize("value", ["0", "-3", "x"])
    def test_probe_sizes_must_be_positive(self, capsys, flag, value):
        err = usage_error(capsys, "analyze", "-m", "0,1/3,2/3:1,1,1", flag, value)
        assert f"argument {flag}: expected a positive integer, got '{value}'" in err

    @pytest.mark.parametrize("value", ["-5", "x", "1.5"])
    def test_seed_must_be_nonnegative(self, capsys, value):
        err = usage_error(capsys, "analyze", "-m", "0,1/3,2/3:1,1,1", "--oracle",
                          "--seed", value)
        assert f"argument --seed: expected a non-negative integer, got '{value}'" in err

    def test_smallest_oracle_policy_runs(self, capsys, tmp_path):
        pol = tmp_path / "p.json"
        pol.write_text(json.dumps({"oracle_N": 9}))
        code, out, _ = run(capsys, "analyze", "-m", "0,1/3,2/3:1,1,1", "--oracle",
                           "--policy", f"@{pol}", "--seed", "0")
        assert code == 0
        rep = json.loads(out)
        assert rep["oracle"]["N"] == 9 and rep["policy"]["seed"] == 0

    @pytest.mark.parametrize("doc, key", [({"l_max": 3, "lmax": 4}, "'lmax'"),
                                          ({"N_trunc": 0}, "N_trunc"),
                                          ({"l_max": 2.5}, "l_max"),
                                          ({"seed": -1}, "seed"),
                                          ({"oracle_N": 8}, "oracle_N"),
                                          ({"oracle_N": 3}, "oracle_N"),
                                          ({"oracle_N": 64.5}, "oracle_N"),
                                          ({"N_trunc": 1025}, "N_trunc"),
                                          ({"N_trunc": 100000}, "N_trunc"),
                                          ({"oracle_N": 1025}, "oracle_N"),
                                          ({"oracle_N": 100000}, "oracle_N"),
                                          ({"psd_tol": "abc"}, "psd_tol"),
                                          ({"zero_accept": None}, "zero_accept"),
                                          ({"identity_tol": [1]}, "identity_tol"),
                                          ({"l_max": True}, "l_max")])
    def test_bad_policy_file_names_key(self, capsys, tmp_path, doc, key):
        pol = tmp_path / "p.json"
        pol.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", "-m", "0:1", "--policy", f"@{pol}")
        assert code == 2 and out == ""
        assert "error [PolicyError]:" in err and key in err

    def test_huge_truncation_is_a_policy_error(self, capsys):
        # an N x N truncation this size would not fit in memory
        code, out, err = run(capsys, "analyze", "-m", "0,1/3,2/3:1,1,1",
                             "--ntrunc", "100000")
        assert code == 2 and out == ""
        assert "error [PolicyError]: N_trunc must be an integer <= 1024, got 100000" in err

    def test_identity_tolerance_is_enforced(self, capsys, tmp_path):
        pol = tmp_path / "p.json"
        pol.write_text(json.dumps({"identity_tol": 1e-30}))
        code, out, err = run(capsys, "analyze", "-m", "0,1/3,2/3:1,1,1",
                             "--policy", f"@{pol}")
        assert code == 2 and out == ""
        assert "error [IdentityResidual]:" in err and "1e-30" in err

    def test_missing_measure_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "analyze", "-m", f"@{tmp_path / 'none.json'}")
        assert code == 2 and out == ""
        assert "error [ParseError]: cannot read measure file" in err

    def test_missing_policy_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "analyze", "-m", "0:1",
                             "--policy", f"@{tmp_path / 'none.json'}")
        assert code == 2 and out == ""
        assert "error [PolicyError]: cannot read policy file" in err

    @pytest.mark.parametrize("atoms", [[{"turns": "0", "weight": "x"}],
                                       [{"angle": "a", "weight": 1}],
                                       [{"point": {"re": 1, "im": "b"}, "weight": 1}],
                                       [1, 2]])
    def test_malformed_json_measure_exit_code(self, capsys, atoms):
        code, out, err = run(capsys, "analyze", "-m", json.dumps({"atoms": atoms}))
        assert code == 2 and out == ""
        assert "error [ParseError]:" in err

    def test_boolean_weight_exit_code(self, capsys):
        doc = {"atoms": [{"turns": "0", "weight": True}, {"turns": "1/3", "weight": 1},
                         {"turns": "2/3", "weight": 1}]}
        code, out, err = run(capsys, "analyze", "-m", json.dumps(doc))
        assert code == 2 and out == ""
        assert "error [ParseError]: weight must be a number, got True" in err

    def test_byte_stable_modulo_timings(self, capsys):
        reps = []
        for _ in range(2):
            _, out, _ = run(capsys, "analyze", "-m", "0,1/3,2/3:1,1,1",
                            "--seed", "7")
            rep = json.loads(out)
            rep.pop("timings")
            reps.append(json.dumps(rep, sort_keys=True))
        assert reps[0] == reps[1]


@pytest.mark.parametrize("argv", [
    ("analyze", "-m", "0,1/3,2/3:1,1,1", "--oracle"),
    ("paper-check",),
    ("kernel", "-m", "0,1/3,2/3:1,1,1", "--z", "0.3,0.1", "--lam=-0.2,0.4"),
], ids=["analyze", "paper-check", "kernel"])
def test_prints_json_dumps_indent_2_text(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ("analyze", "-m", "0,1/3,2/3:1,1,1"),
    ("paper-check",),
    ("sweep", "--grid", "2"),
    ("kernel", "-m", "0,1/3,2/3:1,1,1", "--z", "0.3,0.1", "--lam=-0.2,0.4"),
], ids=["analyze", "paper-check", "sweep", "kernel"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_is_an_error_line(capsys, tmp_path, argv, target):
    # exit 2, not paper-check's 1 for a failed check, and no traceback
    dest = tmp_path / "none" / "x.out" if target == "missing-dir" else tmp_path
    code, out, err = run(capsys, *argv, "--out", str(dest))
    assert code == 2 and out == ""
    assert err.startswith("error [") and "Traceback" not in err
    assert f"cannot write output file {str(dest)!r}" in err
    assert err.count("\n") == 1


_U = np.exp(1j * np.array([0.0, 1e-8, 0.0]))


def _after_pipeline(change):
    """A patch under which paper-check's pipeline result gets the attributes
    that ``change(result)`` returns."""
    def patch(monkeypatch):
        class Perturbed(report.PipelineResult):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.__dict__.update(change(self))
        monkeypatch.setattr(report, "PipelineResult", Perturbed)
    return patch


def _perturbed_trig(monkeypatch):
    build = fejer.build_trig
    monkeypatch.setattr(fejer, "build_trig", lambda m: replace(build(m), t=build(m).t + 1e-9))


class TestPaperCheck:
    def test_default_all_pass(self, capsys):
        code, out, err = run(capsys, "paper-check")
        assert code == 0
        rep = json.loads(out)
        assert rep["all_passed"] is True
        assert len(rep["items"]) == 13
        assert all(it["status"] == "PASS" for it in rep["items"])
        assert err.count("PASS") == 13

    def test_rotation_invariant(self, capsys):
        for turns in ("1/7", "2/5", "-5/11", "1e400"):
            code, out, _ = run(capsys, "paper-check", f"--rotate={turns}")
            assert code == 0, turns
            items = json.loads(out)["items"]
            assert len(items) == 13
            assert all(it["status"] == "PASS" for it in items), turns

    @pytest.mark.parametrize("patch, failing", [
        (_perturbed_trig, {"trig_coefficients"}),
        (_after_pipeline(lambda res: {"fr": replace(res.fr, alphas=res.fr.alphas * (1 + 1e-9))}),
         {"alpha_cubed"}),
        (_after_pipeline(lambda res: {"fr": replace(res.fr, d=res.fr.d * (1 + 1e-9))}),
         {"d_times_b"}),
        (_after_pipeline(lambda res: {"dd": replace(
            res.dd, fprime_at_zeta=res.dd.fprime_at_zeta * (1 + 1e-9))}),
         {"outer_derivative_modulus"}),
        # a unitary similarity: new off-diagonal phases, the same determinant
        (_after_pipeline(lambda res: {"dd": replace(res.dd, D=res.dd.D * np.outer(_U, _U.conj()))}),
         {"gram_entries"}),
        (_after_pipeline(lambda res: {"dd": replace(res.dd, B=res.dd.B * (1 + 1e-8))}),
         {"inverse_gram"}),
        (_after_pipeline(lambda res: {"hf": replace(res.hf, C=res.hf.C + np.diag([0, 0, 1e-6]))}),
         {"S_closed_form_coefficients"}),
        # the conjugate Gram matrix and its inverse: the same entries, transposed
        (_after_pipeline(lambda res: {"dd": replace(res.dd, D=res.dd.D.T, B=res.dd.B.T)}),
         {"gram_entries", "inverse_gram"}),
        (_after_pipeline(lambda res: {"identity_residual": 1e-6}), {"factorization_identity"}),
        (_after_pipeline(lambda res: {"verdict": replace(res.verdict, decision="Inconclusive")}),
         {"verdict_not_subnormal"}),
    ], ids=["trig", "alpha", "d", "O-prime", "D", "B", "C", "D.T-B.T", "residual", "decision"])
    def test_perturbed_object_fails_its_item(self, capsys, monkeypatch, patch, failing):
        patch(monkeypatch)
        code, out, _ = run(capsys, "paper-check")
        assert code == 1
        items = json.loads(out)["items"]
        assert len(items) == 13
        assert {it["name"] for it in items if it["status"] == "FAIL"} == failing
        assert all(it["status"] == "PASS" for it in items if it["name"] not in failing)

    def test_non_unit_weights_skip_closed_forms(self, capsys):
        code, out, _ = run(capsys, "paper-check", "--weights", "1,2,0.5")
        assert code == 0
        rep = json.loads(out)
        statuses = {it["name"]: it["status"] for it in rep["items"]}
        assert statuses["alpha_cubed"] == "NOT-APPLICABLE"
        assert statuses["factorization_identity"] == "PASS"
        assert statuses["verdict_not_subnormal"] == "PASS"

    def test_identity_failure_is_reported(self, capsys, monkeypatch):
        from cdsp import fejer
        monkeypatch.setattr(fejer, "verify_identity", lambda m, fr: 1e-6)
        code, out, err = run(capsys, "paper-check")
        assert code == 1
        items = {it["name"]: it for it in json.loads(out)["items"]}
        assert len(items) == 13
        assert items["factorization_identity"]["status"] == "FAIL"
        assert items["factorization_identity"]["detail"] == "residual=1e-06"
        assert all(it["status"] == "PASS" for name, it in items.items()
                   if name != "factorization_identity")
        assert "FAIL  factorization_identity" in err

    def test_invalid_weights_exit_code(self, capsys):
        # exit 1 means a failed regression check; invalid input is exit 2
        code, out, err = run(capsys, "paper-check", "--weights", "0,1,1")
        assert code == 2 and out == ""
        assert "error [ValidationError]: nonpositive weight" in err

    def test_malformed_weights_name_argument(self, capsys):
        err = usage_error(capsys, "paper-check", "--weights", "a,1,1")
        assert "argument --weights: expected comma-separated numbers, got 'a,1,1'" in err

    @pytest.mark.parametrize("turns", ["abc", "1/0", "nan", "inf"])
    def test_malformed_rotation_names_argument(self, capsys, turns):
        # a usage error (exit 2), not a failed regression check (exit 1)
        err = usage_error(capsys, "paper-check", f"--rotate={turns}")
        assert f"argument --rotate: expected a rational number of turns, got '{turns}'" in err

    @pytest.mark.parametrize("turns", ["1e400", "100000000000000000000001/7"])
    def test_rotation_by_many_turns(self, capsys, turns):
        # the phase is taken modulo one turn, exactly, before it becomes a float
        code, out, _ = run(capsys, "paper-check", "--rotate", turns)
        assert code == 0
        assert json.loads(out)["all_passed"] is True

    @pytest.mark.parametrize("argv", [("--policy", "@p.json"), ("--seed", "7"),
                                      ("--lmax", "1"), ("--ntrunc", "8")])
    def test_takes_no_policy_options(self, capsys, argv):
        # paper-check always runs under the default policy
        err = usage_error(capsys, "paper-check", *argv)
        assert f"unrecognized arguments: {' '.join(argv)}" in err


class TestSweep:
    def test_csv_shape_and_columns(self, capsys):
        code, out, _ = run(capsys, "sweep", "--grid", "3")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert list(rows[0].keys()) == SWEEP_COLUMNS
        assert len(rows) == 9

    def test_coincident_atoms_error_in_row(self, capsys):
        code, out, _ = run(capsys, "sweep", "--grid", "3")
        rows = list(csv.DictReader(io.StringIO(out)))
        bad = [r for r in rows if r["theta2"] == r["theta3"]]
        assert bad and all(r["error"] and not r["verdict"] for r in bad)
        good = [r for r in rows if r["theta2"] != r["theta3"]]
        assert good and all(r["verdict"] and not r["error"] for r in good)

    def test_equi_spaced_cell_matches_reference(self):
        rows = run_sweep(2, (1.0, 1.0, 1.0))
        cell = next(r for r in rows
                    if {r["theta2"], r["theta3"]} == {"1/3", "2/3"})
        assert cell["verdict"] == "NotSubnormal"
        assert float(cell["max_offdiag_norm"]) == pytest.approx(0.182, abs=2e-3)

    def test_bad_weight_count(self, capsys):
        code, _, err = run(capsys, "sweep", "--grid", "2", "--weights", "1,2")
        assert code == 2 and "three weights" in err

    def test_malformed_weights_name_argument(self, capsys):
        err = usage_error(capsys, "sweep", "--grid", "2", "--weights", "a,1,1")
        assert "argument --weights: expected comma-separated numbers, got 'a,1,1'" in err

    def test_empty_grid_names_argument(self, capsys):
        err = usage_error(capsys, "sweep", "--grid", "0")
        assert "argument --grid: expected a positive integer, got '0'" in err

    @pytest.mark.parametrize("argv", [("--workers", "2"), ("--lmax", "1"),
                                      ("--policy", "@p.json"), ("--seed", "7"),
                                      ("--ntrunc", "8")])
    def test_rejects_removed_options(self, capsys, argv):
        # sweep runs serially under the default policy
        err = usage_error(capsys, "sweep", "--grid", "2", *argv)
        assert f"unrecognized arguments: {' '.join(argv)}" in err


class TestKernel:
    def test_values_and_consistency(self, capsys):
        code, out, _ = run(capsys, "kernel", "-m", "0,1/3,2/3:1,1,1",
                           "--z", "0.3,0.1", "--lam=-0.2,0.4")
        assert code == 0
        rep = json.loads(out)
        full = complex(rep["K_full"]["re"], rep["K_full"]["im"])
        parts = (complex(rep["K_subspace"]["re"], rep["K_subspace"]["im"])
                 + complex(rep["K_complement"]["re"], rep["K_complement"]["im"]))
        assert full == pytest.approx(parts, rel=1e-12)
        assert rep["difference"] <= 1e-9

    def test_rejects_points_outside_disc(self, capsys):
        code, _, err = run(capsys, "kernel", "-m", "0:1",
                           "--z", "1.5,0.0", "--lam", "0.1,0.0")
        assert code == 2 and "|z| < 1" in err

    def test_missing_measure_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "kernel", "-m", f"@{tmp_path / 'none.json'}",
                             "--z", "0.3,0.1", "--lam", "0,0")
        assert code == 2 and out == ""
        assert "error [ParseError]: cannot read measure file" in err

    @pytest.mark.parametrize("z, lam", [("nan,0", "0,0"), ("0,0", "0,inf")])
    def test_rejects_non_finite_points(self, capsys, z, lam):
        code, out, err = run(capsys, "kernel", "-m", "0,1/3,2/3:1,1,1",
                             "--z", z, "--lam", lam)
        assert code == 2 and out == ""
        assert "|z| < 1" in err

    @pytest.mark.parametrize("z, lam, bad", [("0.3", "0,0", "--z"),
                                             ("0.3,0.1", "x,0", "--lam"),
                                             ("0.3,0.1", "0,0,0", "--lam")])
    def test_malformed_point_names_argument(self, capsys, z, lam, bad):
        with pytest.raises(SystemExit) as exc:
            main(["kernel", "-m", "0,1/3,2/3:1,1,1", "--z", z, "--lam", lam])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument {bad}: expected 're,im'" in err


class TestPolicy:
    def test_unknown_key(self):
        with pytest.raises(PolicyError, match="unknown policy key 'lmax'"):
            NumericPolicy.from_dict({"lmax": 3})

    @pytest.mark.parametrize("text", ["[1, 2]", "{l_max: 3}"])
    def test_not_a_json_object(self, text):
        with pytest.raises(PolicyError):
            NumericPolicy.from_json(text)

    def test_largest_sizes_accepted(self):
        pol = NumericPolicy(N_trunc=1024, oracle_N=1024)
        assert (pol.N_trunc, pol.oracle_N) == (1024, 1024)

    def test_round_trip(self):
        pol = NumericPolicy(l_max=3, N_trunc=16)
        assert NumericPolicy.from_json(json.dumps(pol.to_dict())) == pol
