from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdsp import (NumericPolicy, PipelineResult, build_trig, factorize, parse_measure,
                  rotate_measure, verify_identity)
from cdsp.errors import IdentityResidual, RootOnCircle
from cdsp.fejer import omit_one
from conftest import equi_spaced


def nearest_gap(got, want):
    """Largest relative distance from a root in ``want`` to its nearest in ``got``."""
    gaps = np.abs(want[:, None] - got[None, :]).min(axis=1) / np.abs(want)
    return float(gaps.max())


def sampled_coefficients(m, k):
    """Independent oracle: evaluate the defining product-sum directly on
    circle samples and recover Laurent coefficients by DFT."""
    n = 4 * k + 5
    zs = np.exp(2j * np.pi * np.arange(n) / n)
    pts, wts = m.points, m.weights
    vals = np.zeros(n)
    for idx, z in enumerate(zs):
        full = np.prod([abs(z - zeta) ** 2 for zeta in pts])
        rest = sum(c * np.prod([abs(z - pts[i]) ** 2
                                for i in range(len(pts)) if i != j])
                   for j, c in enumerate(wts))
        vals[idx] = full + rest
    coeffs = {}
    for mm in range(-k, k + 1):
        coeffs[mm] = np.mean(vals * np.exp(-2j * np.pi * mm * np.arange(n) / n))
    return coeffs


class TestBuildTrig:
    def test_single_atom(self):
        t = build_trig(parse_measure("0:1"))
        assert t.coeff(0) == pytest.approx(3.0, abs=1e-12)
        assert t.coeff(1) == pytest.approx(-1.0, abs=1e-12)
        assert t.coeff(-1) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("spec", ["0,1/3,2/3:1,1,1", "0:1", "0,1/4:2,0.5",
                                      "0,1/5,1/2:1,3,0.25"])
    def test_matches_sampling_oracle(self, spec):
        m = parse_measure(spec)
        t = build_trig(m)
        oracle = sampled_coefficients(m, m.k)
        for mm in range(-m.k, m.k + 1):
            assert t.coeff(mm) == pytest.approx(oracle[mm], abs=1e-10)

    def test_hermitian_symmetry_and_positivity(self):
        m = parse_measure("0,1/6,1/2:2,1,0.3")
        t = build_trig(m)
        for mm in range(1, m.k + 1):
            assert t.coeff(-mm) == pytest.approx(np.conj(t.coeff(mm)), abs=1e-12)
        zs = np.exp(2j * np.pi * np.arange(64) / 64)
        vals = sum(t.coeff(mm) * zs ** mm for mm in range(-m.k, m.k + 1))
        assert np.max(np.abs(vals.imag)) < 1e-10
        assert np.min(vals.real) > 0


class TestFactorize:
    def test_single_atom(self):
        fr = factorize(parse_measure("0:1"))
        assert fr.alphas[0] == pytest.approx((3 + np.sqrt(5)) / 2, rel=1e-10)
        assert fr.d == pytest.approx((3 - np.sqrt(5)) / 2, rel=1e-10)

    def test_exactly_k_exterior_roots(self):
        for spec in ("0:1", "0,1/2:1,1", "0,1/3,2/3:1,1,1", "0,1/5,1/2:1,2,3"):
            m = parse_measure(spec)
            fr = factorize(m)
            assert len(fr.alphas) == m.k
            assert np.min(np.abs(fr.alphas)) > 1 + 1e-8
            assert fr.d > 0

    def test_rotation_equivariance(self):
        m = parse_measure("0,1/3,2/3:1,2,0.5")
        fr = factorize(m)
        phase = np.exp(2j * np.pi / 7)
        fr_rot = factorize(rotate_measure(m, Fraction(1, 7)))
        rotated = sorted(fr.alphas * phase, key=np.angle)
        got = sorted(fr_rot.alphas, key=np.angle)
        assert np.allclose(rotated, got, atol=1e-9)
        assert fr_rot.d == pytest.approx(fr.d, rel=1e-9)

    def test_root_on_circle_rejected(self):
        # weight 1e-14 puts the roots of |z-1|^2 + 1e-14 about 1e-7 either side of the circle
        with pytest.raises(RootOnCircle):
            factorize(parse_measure("0:1e-14"))


class TestEquiSpaced:
    @pytest.mark.parametrize("k", range(3, 25))
    def test_decides_not_subnormal(self, k):
        res = PipelineResult(parse_measure(equi_spaced(k)), NumericPolicy())
        assert res.verdict.decision == "NotSubnormal"
        assert res.identity_residual <= 1e-12

    @pytest.mark.parametrize("k", [96, 128, 256])
    def test_decides_not_subnormal_at_large_k(self, k):
        res = PipelineResult(parse_measure(equi_spaced(k)), NumericPolicy())
        assert res.verdict.decision == "NotSubnormal"
        # C and P, built on first read, must factor at these k too
        assert res.hf.P.shape == (k, k)

    @pytest.mark.parametrize("k", [2, 3, 6, 8, 12])
    def test_sorted_by_angle_from_zero(self, k):
        # alpha_j = alpha_0 e^{2 pi i j/k}: signed-zero imaginary parts must not
        # move the root at angle pi (or 0) to the other end of the order
        alphas = factorize(parse_measure(equi_spaced(k))).alphas
        want = abs(alphas[0]) * np.exp(2j * np.pi * np.arange(k) / k)
        assert np.allclose(alphas, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [16, 24])
    def test_rotation_equivariance(self, k):
        m = parse_measure(equi_spaced(k))
        fr = factorize(m)
        fr_rot = factorize(rotate_measure(m, Fraction(1, 7 * k)))
        rotated = fr.alphas * np.exp(2j * np.pi / (7 * k))
        assert nearest_gap(fr_rot.alphas, rotated) <= 1e-9
        assert nearest_gap(rotated, fr_rot.alphas) <= 1e-9
        assert fr_rot.d == pytest.approx(fr.d, rel=1e-9)


def masked_omit_one(x):
    """prod_{l != j} x[..., l] through a (..., k, k) array with ones on the
    diagonal, as trig_values and OuterData.parts first formed it."""
    k = x.shape[-1]
    return np.prod(np.where(np.eye(k, dtype=bool), 1.0, x[..., None, :]), axis=-1)


# entries of modulus in [1/4, 4] or exactly zero: no product of up to 12 of
# them under- or overflows, so the two orders of multiplication differ by
# rounding alone and agree on every exact zero
_entry = st.one_of(st.just(0.0), st.floats(0.25, 4.0), st.floats(-4.0, -0.25))


class TestOmitOne:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 12).flatmap(lambda k: st.lists(
        st.lists(st.tuples(_entry, _entry), min_size=k, max_size=k),
        min_size=1, max_size=4)))
    def test_matches_masked_product(self, rows):
        x = np.array([[complex(a, b) for a, b in row] for row in rows])
        got, want = omit_one(x), masked_omit_one(x)
        assert got.shape == want.shape == x.shape
        assert np.array_equal(got == 0, want == 0)
        assert np.allclose(got, want, rtol=1e-14, atol=0)
        real = omit_one(x.real)
        assert real.dtype == np.float64
        assert np.allclose(real, masked_omit_one(x.real), rtol=1e-14, atol=0)


class TestVerifyIdentity:
    def test_three_point(self):
        m = parse_measure("0,1/3,2/3:1,1,1")
        fr = factorize(m)
        assert verify_identity(m, fr) <= 1e-9

    def test_single_atom(self):
        m = parse_measure("0:1")
        fr = factorize(m)
        assert verify_identity(m, fr) <= 1e-12

    def test_detects_corrupted_constant(self):
        from cdsp.fejer import FejerRiesz
        m = parse_measure("0:1")
        fr = factorize(m)
        bad = FejerRiesz(fr.alphas, fr.d * 1.01)
        assert verify_identity(m, bad) > 5e-3

    def test_finite_at_the_atoms(self):
        from cdsp.fejer import trig_values
        m = parse_measure("0,1/4,1/2:1,2,0.5")
        # at an atom only the term that omits it survives: c_j prod_{i != j} |zeta_j - zeta_i|^2
        assert trig_values(m, np.array(m.points)) == pytest.approx([8.0, 8.0, 4.0], rel=1e-14)

    def test_residual_over_tolerance_is_typed(self):
        m = parse_measure("0,1/3,2/3:1,1,1")
        with pytest.raises(IdentityResidual) as exc:
            PipelineResult(m, NumericPolicy(identity_tol=1e-30))
        assert exc.value.tol == 1e-30
        assert exc.value.residual == verify_identity(m, factorize(m))
