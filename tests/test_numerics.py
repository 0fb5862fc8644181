import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdsp import numerics as nx
from cdsp.errors import NotARoot, NotPSD, Singular
from cdsp.report import closed_form_constants

B = closed_form_constants()["b"]


class TestRoots:
    def test_quadratic(self):
        r = np.sort(nx.poly_roots(np.array([1, -3, 1], dtype=complex)).real)
        assert r == pytest.approx([(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2])

    def test_degree_six_cube_pair(self):
        p = np.array([1, 0, 0, -11, 0, 0, 1], dtype=complex)
        roots = nx.poly_roots(p)
        cubes = np.sort(np.round(roots ** 3, 8).real)
        inner = (11 - 3 * np.sqrt(13)) / 2
        assert np.allclose(cubes[:3], inner, atol=1e-7)
        assert np.allclose(cubes[3:], B, atol=1e-6)

    def test_linear(self):
        assert nx.poly_roots(np.array([-2.5j, 1.0])) == pytest.approx([2.5j])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(
        st.tuples(st.floats(0.2, 5.0), st.floats(0, 2 * np.pi)),
        min_size=1, max_size=12))
    def test_recovers_constructed_roots(self, polar):
        from hypothesis import assume
        roots = np.array([r * np.exp(1j * t) for r, t in polar])
        if len(roots) > 1:
            diff = np.abs(roots[:, None] - roots[None, :]) + np.eye(len(roots))
            assume(np.min(diff) > 0.05)  # well-separated: conditioning stays sane
        p = np.poly(roots)[::-1]
        got = nx.poly_roots(p)
        # match greedily; clustered roots may swap, so compare as multisets
        rem = list(got)
        for r in roots:
            i = int(np.argmin([abs(r - g) for g in rem]))
            assert abs(r - rem[i]) <= 1e-6 * max(abs(r), 1.0)
            rem.pop(i)


class TestSyntheticDivision:
    def test_cyclotomic(self):
        q = nx.synthetic_division(np.array([-1, 0, 0, 1], dtype=complex), 1.0)
        assert np.allclose(q, [1, 1, 1])

    def test_factor_pair(self):
        root = (3 + np.sqrt(5)) / 2
        q = nx.synthetic_division(np.array([1, -3, 1], dtype=complex), root)
        assert np.allclose(q, [-(3 - np.sqrt(5)) / 2, 1])

    def test_difference_of_cubes(self):
        a = 2.2177857
        q = nx.synthetic_division(np.array([-a ** 3, 0, 0, 1], dtype=complex), a)
        assert np.allclose(q, [a * a, a, 1])

    def test_not_a_root(self):
        with pytest.raises(NotARoot):
            nx.synthetic_division(np.array([1, 0, 1], dtype=complex), 0.5)


class TestCholesky:
    def test_identity(self):
        assert np.allclose(nx.cholesky_herm(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        U = nx.cholesky_herm(np.diag([4.0, 9.0]))
        assert np.allclose(U, np.diag([2.0, 3.0]))

    def test_rank_one(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        M = np.outer(v, v.conj())
        U = nx.cholesky_herm(M)
        assert np.allclose(U, np.triu(U))
        assert np.count_nonzero(np.abs(U).sum(axis=1) > 1e-12) == 1
        assert np.linalg.norm(U.conj().T @ U - M) <= 1e-12 * np.linalg.norm(M)

    def test_reconstruction_random_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            M = A @ A.conj().T
            U = nx.cholesky_herm(M)
            assert (np.linalg.norm(U.conj().T @ U - M)
                    <= 1e-10 * np.linalg.norm(M))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD) as exc:
            nx.cholesky_herm(np.diag([1.0, -1.0]))
        assert (exc.value.pivot, exc.value.index) == (-1.0, 1)
        assert str(exc.value) == "pivot -1.000e+00 at index 1"


def loop_cholesky(M):
    """cholesky_herm as first written: one np.vdot per entry below the pivot."""
    A = np.array(M, dtype=complex)
    A = 0.5 * (A + A.conj().T)
    n = A.shape[0]
    tr = max(float(np.trace(A).real), float(np.max(np.abs(A))), 1e-300)
    L = np.zeros((n, n), dtype=complex)
    for j in range(n):
        d = A[j, j].real - float(np.sum(np.abs(L[j, :j]) ** 2))
        if d <= 1e-14 * tr:
            continue
        L[j, j] = np.sqrt(d)
        for i in range(j + 1, n):
            L[i, j] = (A[i, j] - np.vdot(L[j, :j], L[i, :j])) / L[j, j]
    return L.conj().T


class TestCholeskyIsLoop:
    # the column-wise product sums each entry in another order than np.vdot
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 16])
    def test_random_full_rank(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(4):
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            M = A @ A.conj().T
            U, want = nx.cholesky_herm(M), loop_cholesky(M)
            assert np.max(np.abs(U - want)) <= 1e-12 * np.max(np.abs(want))

    def test_clamped_pivot_in_the_middle(self):
        rng = np.random.default_rng(2)
        B = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
        B[:, 2] = (0.5 - 1j) * B[:, 0] + 2.0 * B[:, 1]
        M = B.conj().T @ B
        U, want = nx.cholesky_herm(M), loop_cholesky(M)
        assert np.count_nonzero(U[2]) == 0 == np.count_nonzero(want[2])
        assert np.all(np.abs(np.diag(U))[[0, 1, 3, 4]] > 0)
        assert np.max(np.abs(U - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("spec", [
        "0,1/8,1/4,3/8,1/2,5/8,3/4,7/8:1,1,1,1,1,1,1,1",
        "43/997,134/997,328/997,504/997,616/997,783/997,837/997,858/997"
        ":1.12577,0.354755,0.389151,1.04199,1.20987,0.893792,1.54,3.8548",
    ], ids=["equi8", "random8"])
    def test_factor_P(self, spec):
        from cdsp import build_dirichlet, extract_C, factorize, parse_measure
        m = parse_measure(spec)
        hf = extract_C(build_dirichlet(m, factorize(m)))
        want = loop_cholesky(np.conj(hf.C))
        assert np.max(np.abs(hf.P - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("k", range(5, 9))
    def test_factor_P_seeded_random(self, k):
        from cdsp import build_dirichlet, extract_C, factorize, parse_measure
        from cdsp.errors import CdspError
        rng = np.random.default_rng(k)
        checked = 0
        for _ in range(40):
            n = np.sort(rng.choice(997, size=k, replace=False))
            gaps = np.diff(np.r_[n, n[0] + 997]) / 997
            if 2.0 * np.sin(np.pi * gaps.min()) < 0.1:
                continue
            w = rng.uniform(0.25, 4.0, k)
            m = parse_measure(",".join(f"{x}/997" for x in n) + ":"
                              + ",".join(repr(float(x)) for x in w))
            try:
                hf = extract_C(build_dirichlet(m, factorize(m)))
            except CdspError:
                continue
            want = loop_cholesky(np.conj(hf.C))
            assert np.max(np.abs(hf.P - want)) <= 1e-10 * np.max(np.abs(want))
            checked += 1
            if checked == 3:
                break
        assert checked == 3


class TestSolveLinear:
    def test_identity_system(self):
        rhs = np.arange(6, dtype=complex).reshape(3, 2)
        assert np.allclose(nx.solve_linear(np.eye(3), rhs), rhs)

    def test_diagonal(self):
        X = nx.solve_linear(np.diag([2.0, 4.0]), np.eye(2))
        assert np.allclose(X, np.diag([0.5, 0.25]))

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        X = nx.solve_linear(M, np.eye(7))
        assert np.linalg.norm(M @ X - np.eye(7)) <= 1e-9

    def test_singular(self):
        with pytest.raises(Singular):
            nx.solve_linear(np.zeros((2, 2)), np.eye(2))
