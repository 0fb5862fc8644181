import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings

from cdsp import (NumericPolicy, PipelineResult, build_dirichlet, factorize, parse_measure,
                  verify_identity)
from cdsp import numerics as nx
from cdsp.debranges import eval_S, eval_schur, extract_C, factor_P, kernel_KB
from cdsp.dirichlet import OuterData, kernel_full
from cdsp.errors import CdspError, IllConditioned, NotPSD
from cdsp.report import analyze
import mpref
from conftest import SPECS, S_at, equi_spaced, random_measures, seeded_measure


def eval_S_from_P(P: np.ndarray, z, u):
    """S from its factor: sum over the rows p_r of P of p_r(z) conj(p_r(u))."""
    k = P.shape[0]
    zp = np.array([np.asarray(z, dtype=complex) ** m for m in range(1, k + 1)])
    up = np.array([np.asarray(u, dtype=complex) ** m for m in range(1, k + 1)])
    pz = np.tensordot(P, zp, axes=(1, 0))
    pu = np.tensordot(P, up, axes=(1, 0))
    return np.sum(pz * np.conj(pu), axis=0)


def schur_sup_bound(dd, hf, radius: float = 0.999, n: int = 512) -> float:
    """Sampled sup of ||B(z)|| on the circle of the given radius."""
    zs = radius * np.exp(2j * np.pi * np.arange(n) / n)
    vals = [np.sqrt(np.sum(np.abs(eval_schur(dd, hf, z)) ** 2)) for z in zs]
    return float(np.max(vals))


class TestEvalS:
    def test_vanishes_on_diagonal_u_zero(self, pipes):
        for pipe in pipes.values():
            for z in (0.3, -0.5 + 0.2j, 1.7 - 0.4j):
                assert abs(S_at(pipe.dd, z, 0.0)) < 1e-9

    def test_hermitian_symmetry(self, pipes):
        rng = np.random.default_rng(8)
        for pipe in pipes.values():
            for _ in range(10):
                z, u = [complex(*rng.uniform(-2, 2, 2)) for _ in range(2)]
                assert S_at(pipe.dd, z, u) == pytest.approx(
                    np.conj(S_at(pipe.dd, u, z)), abs=1e-8)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(random_measures())
    @example(SPECS["three_point"])
    def test_matches_high_precision_on_random_measures(self, spec):
        try:
            m = parse_measure(spec)
            fr = factorize(m)
            dd = build_dirichlet(m, fr)
        except CdspError:
            assume(False)
        disc = np.array([0.0, 0.5, -0.3 + 0.6j, 0.7j - 0.2])
        # the root pairs, a grid in the disc and one pair with u outside it
        for zs, us in ((fr.alphas, fr.alphas), (disc, disc), ([0.3 + 0.4j], [-1.2 + 0.1j])):
            got = eval_S(dd, zs, us)
            want = mpref.eval_S_mp(dd, fr.d, zs, us)
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("k", [16, 32, 64])
    def test_matches_high_precision_equi_spaced(self, k):
        # the pipeline's two grids, the exterior roots and the DFT nodes of
        # extract_C, read at 4 x 4 of their pairs; at the roots the terms of S
        # cancel, and the matrix form measures 7.5e-12 of max|S| at k = 64
        m = parse_measure(equi_spaced(k))
        fr = factorize(m)
        dd = build_dirichlet(m, fr)
        nodes = np.exp(2j * np.pi * np.arange(k) / k + 0.37j)
        idx = [0, 1, k // 3, k - 1]
        for pts in (fr.alphas, nodes):
            got = eval_S(dd, pts, pts)[np.ix_(idx, idx)]
            sub = pts[idx]
            want = mpref.eval_S_mp(dd, fr.d, sub, sub)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_array_broadcast_matches_scalars(self, three_point):
        # the len(z) x len(u) grid against its entries one pair at a time
        zs = np.array([0.2 + 0.1j, 1.5, -0.7j])
        us = np.array([0.4, -0.3 + 0.2j])
        grid = eval_S(three_point.dd, zs, us)
        assert grid.shape == (3, 2)
        for i, z in enumerate(zs):
            for j, u in enumerate(us):
                assert grid[i, j] == pytest.approx(
                    S_at(three_point.dd, z, u), rel=1e-12)

    def test_one_parts_call_for_one_point_set(self, three_point, monkeypatch):
        calls = []
        parts = OuterData.parts

        def spy(self, z):
            calls.append(z)
            return parts(self, z)

        monkeypatch.setattr(OuterData, "parts", spy)
        z = three_point.fr.alphas
        eval_S(three_point.dd, z, z)
        assert len(calls) == 1
        eval_S(three_point.dd, z, z.copy())
        assert len(calls) == 3

    @pytest.mark.parametrize("spec", [SPECS["three_point"], equi_spaced(8), equi_spaced(64)]
                             + [seeded_measure(k, k) for k in range(2, 9)],
                             ids=["ref3", "equi8", "equi64"]
                             + [f"random{k}" for k in range(2, 9)])
    def test_reused_parts_are_bit_identical(self, spec):
        m = parse_measure(spec)
        fr = factorize(m)
        dd = build_dirichlet(m, fr)
        nodes = np.exp(2j * np.pi * np.arange(m.k) / m.k + 0.37j)
        for z in (fr.alphas, nodes):
            assert np.array_equal(eval_S(dd, z, z), eval_S(dd, z, z.copy()))


class TestExtractC:
    def test_coefficients_reproduce_S(self, pipes):
        rng = np.random.default_rng(17)
        for pipe in pipes.values():
            k = pipe.measure.k
            for _ in range(8):
                z, u = [complex(*rng.uniform(-1.5, 1.5, 2)) for _ in range(2)]
                zp = np.array([z ** m for m in range(1, k + 1)])
                up = np.array([u ** m for m in range(1, k + 1)])
                via_C = zp @ pipe.hf.C @ np.conj(up)
                assert via_C == pytest.approx(S_at(pipe.dd, z, u), abs=1e-8)

    def test_hermitian_coefficient_matrix(self, pipes):
        for pipe in pipes.values():
            C = pipe.hf.C
            assert np.linalg.norm(C - C.conj().T) < 1e-10

    @pytest.mark.parametrize("spec", [equi_spaced(8), seeded_measure(1, 6),
                                      seeded_measure(2, 8)],
                             ids=["equi8", "random6", "random8"])
    def test_matches_high_precision_dft(self, spec):
        m = parse_measure(spec)
        fr = factorize(m)
        dd = build_dirichlet(m, fr)
        want = mpref.dft_C_mp(dd, fr.d)
        got = extract_C(dd).C
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    # a non-Hermitian W makes S(u, z) != conj S(z, u), so S on the grid is
    # not Hermitian and no Hermitian C refits it
    def test_non_hermitian_S_is_rejected(self, three_point):
        dd = three_point.dd
        extract_C(dd)
        E = np.triu(np.ones((3, 3)), 1)
        with pytest.raises(IllConditioned, match="coefficient refit residual too large"):
            extract_C(replace(dd, W=dd.W + 1e-3 * E))

    # the full report builds C and P, so extract_C's check and factor_P run;
    # a failing C would leave hermitian_form null and name the error
    @pytest.mark.parametrize("k", [29, 33, 38, 48, 64])
    def test_large_equi_spaced_decides(self, k):
        rep = analyze(equi_spaced(k), full=True)
        assert rep["verdict"]["decision"] == "NotSubnormal"
        assert rep["hermitian_form"] is not None
        assert "hermitian_form_error" not in rep

    # the explicit k = 13 and 16 examples have cond(C) of 1.5e10 and 6e8, so a
    # coefficient error near 1e-10 max|C| already drives a Cholesky pivot negative
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(random_measures(k_max=16, k_min=9))
    @example("17/997,98/997,134/997,266/997,359/997,487/997,575/997,656/997,709/997,"
             "907/997,925/997,943/997,972/997:"
             "2.32,0.94,3.18,0.77,0.51,0.32,3.35,2.83,2.73,3.67,2.89,0.4,0.52")
    @example("24/997,90/997,106/997,136/997,155/997,278/997,331/997,408/997,476/997,"
             "492/997,640/997,659/997,728/997,824/997,861/997,981/997:"
             "2.5,3,1.09,2.91,3.95,1.27,2.13,2.29,3.58,1.53,1.98,3.43,3.07,1.55,3.91,3.72")
    def test_random_measures_are_never_not_psd(self, spec):
        try:
            PipelineResult(parse_measure(spec), NumericPolicy()).hf
        except NotPSD as exc:
            pytest.fail(f"{spec}: {exc}")


def traced_peak(f, *args) -> int:
    """Peak bytes that Python and numpy allocate during f(*args)."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_peaks_at_equi_spaced_128(self):
        # O(k^2) arrays and O(k) omit-one products per point: about 2 to 3 MB
        # each at k = 128, where (points, k, k) temporaries took 33 to 134 MB
        m = parse_measure(equi_spaced(128))
        fr = factorize(m)
        dd = build_dirichlet(m, fr)
        peaks = {"verify_identity": traced_peak(verify_identity, m, fr),
                 "build_dirichlet": traced_peak(build_dirichlet, m, fr),
                 "eval_S": traced_peak(eval_S, dd, fr.alphas, fr.alphas),
                 "extract_C": traced_peak(extract_C, dd)}
        assert max(peaks.values()) < 16 * 2 ** 20, peaks


class TestFactorP:
    def test_upper_triangular_nonnegative_diagonal(self, pipes):
        for pipe in pipes.values():
            P = pipe.hf.P
            assert np.allclose(P, np.triu(P))
            assert np.all(np.diag(P).real >= 0)
            assert np.max(np.abs(np.diag(P).imag)) < 1e-14

    def test_reconstructs_conjugate_coefficients(self, pipes):
        for pipe in pipes.values():
            P, C = pipe.hf.P, pipe.hf.C
            assert (np.linalg.norm(P.conj().T @ P - np.conj(C))
                    <= 1e-10 * max(np.linalg.norm(C), 1.0))

    def test_eval_from_factor_matches_direct(self, pipes):
        rng = np.random.default_rng(23)
        for pipe in pipes.values():
            for _ in range(6):
                z, u = [complex(*rng.uniform(-1.2, 1.2, 2)) for _ in range(2)]
                assert eval_S_from_P(pipe.hf.P, z, u) == pytest.approx(
                    S_at(pipe.dd, z, u), abs=1e-8)

    @staticmethod
    def assert_matches_clamped_loop(C):
        want = nx.cholesky_herm(np.conj(C))
        assert np.max(np.abs(factor_P(C) - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("spec", [SPECS["three_point"], equi_spaced(16), equi_spaced(128)],
                             ids=["ref3", "equi16", "equi128"])
    def test_lapack_matches_clamped_loop(self, spec):
        m = parse_measure(spec)
        self.assert_matches_clamped_loop(extract_C(build_dirichlet(m, factorize(m))).C)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(random_measures(k_max=8))
    def test_lapack_matches_clamped_loop_on_random_measures(self, spec):
        try:
            m = parse_measure(spec)
            C = extract_C(build_dirichlet(m, factorize(m))).C
        except CdspError:
            assume(False)
        self.assert_matches_clamped_loop(C)

    def test_no_loop_for_definite_C(self, three_point, monkeypatch):
        calls = []
        monkeypatch.setattr(nx, "cholesky_herm", lambda M: calls.append(M))
        P = factor_P(three_point.hf.C)
        assert calls == []
        assert np.array_equal(P, three_point.hf.P)

    # LAPACK rejects the rank-one C; it factors diag(1, 1e-16), but its
    # second pivot squared lies under the clamp threshold 1e-14 * trace
    @pytest.mark.parametrize("C", [
        np.outer([1.0, 2.0 - 1j, 0.5j], [1.0, 2.0 + 1j, -0.5j]),
        np.diag([1.0, 1e-16]).astype(complex),
    ], ids=["rank_one", "tiny_pivot"])
    def test_semidefinite_C_takes_the_clamped_factor(self, C):
        want = nx.cholesky_herm(np.conj(C))
        assert np.array_equal(factor_P(C), want)
        assert np.count_nonzero(np.diag(want)) == 1

    def test_indefinite_C_raises(self):
        with pytest.raises(NotPSD):
            factor_P(np.array([[1.0, 2.0j], [-2.0j, 1.0]]))


class TestSchur:
    def test_vanishes_at_origin(self, pipes):
        for pipe in pipes.values():
            assert np.max(np.abs(eval_schur(pipe.dd, pipe.hf, 0.0))) < 1e-14

    def test_contractive_in_disc(self, pipes):
        for pipe in pipes.values():
            assert schur_sup_bound(pipe.dd, pipe.hf) <= 1.0 + 1e-9

    def test_kernel_at_origin_is_one(self, pipes):
        for pipe in pipes.values():
            for z in (0.3, -0.4 + 0.2j):
                assert kernel_KB(pipe.dd, pipe.hf, z, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_kernel_matches_full_reproducing_kernel(self, pipes):
        rng = np.random.default_rng(31)
        for pipe in pipes.values():
            for _ in range(10):
                z, lam = [complex(*rng.uniform(-0.55, 0.55, 2)) for _ in range(2)]
                assert kernel_KB(pipe.dd, pipe.hf, z, lam) == pytest.approx(
                    kernel_full(pipe.dd, z, lam), abs=1e-9)

    def test_kernel_psd_on_samples(self, pipes):
        rng = np.random.default_rng(37)
        for pipe in pipes.values():
            zs = [complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(7)]
            K = np.array([[kernel_KB(pipe.dd, pipe.hf, a, b) for b in zs] for a in zs])
            assert np.min(np.linalg.eigvalsh(0.5 * (K + K.conj().T))) >= -1e-9
