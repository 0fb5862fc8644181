import numpy as np
import pytest
from hypothesis import assume, strategies as st

from cdsp import NumericPolicy, build_dirichlet, eval_S, extract_C, factorize, parse_measure
from cdsp.oracle import agler_forms, norm_sq, whiten
from cdsp.report import closed_form_constants


class Pipe:
    def __init__(self, spec):
        self.measure = parse_measure(spec)
        self.fr = factorize(self.measure)
        self.dd = build_dirichlet(self.measure, self.fr)
        self.hf = extract_C(self.dd)


SPECS = {
    "three_point": "0,1/3,2/3:1,1,1",
    "single": "0:1",
    "antipodal": "0,1/2:1,1",
    "quarter": "0,1/4:1,1",
}


@pytest.fixture(scope="session")
def pipes():
    return {name: Pipe(spec) for name, spec in SPECS.items()}


@pytest.fixture(scope="session")
def three_point(pipes):
    return pipes["three_point"]


@pytest.fixture(scope="session")
def policy():
    return NumericPolicy()


# closed-form constants for the equi-spaced three-point unit-weight case
_REF = closed_form_constants()
B_CONST = _REF["b"]
W_CONST = _REF["w"]


def S_at(dd, z, u) -> complex:
    """S(z, u) at one pair of points: the 1 x 1 grid of eval_S."""
    return complex(eval_S(dd, [z], [u])[0, 0])


def shift(v):
    """M_z on coefficient columns: every coefficient moves up by one."""
    out = np.zeros_like(v)
    out[1:] = v[:-1]
    return out


def dual_step(mm):
    """T (T^*T)^{-1} as a step for orbit_norms: the product with
    cauchy_dual_matrix(mm), applied to a vector or block w through the rank-k
    defect with two (N - 1) x k products.  Like the matrix, it ignores w's
    top coefficient."""
    U, c, HiU = mm.defect
    cUh = c[:, None] * U.conj().T

    def step(w):
        out = np.empty(w.shape, dtype=complex)
        out[0] = 0.0
        np.subtract(w[:-1], HiU @ (cUh @ w[:-1]), out=out[1:])
        return out

    return step


def orbit_norms(mm, v, n, step):
    """[||v||^2, ||T v||^2, ..., ||T^n v||^2] with T applied by ``step``;
    one norm_sq per power, of a vector or of a whole block (whose "norms"
    are Gram matrices)."""
    norms = [norm_sq(mm, v)]
    w = v
    for _ in range(n):
        w = step(w)
        norms.append(norm_sq(mm, w))
    return norms


def agler_eigs(forms):
    """Eigenvalues lam[..., n - 1, :] (ascending) of each B_n, n >= 1,
    relative to forms[..., 0, :, :]: one batched eigvalsh of whiten's
    matrices, as bn_dual_probe reads them."""
    return np.linalg.eigvalsh(whiten(forms)[1])


def bn_form(mm, n, v) -> float:
    """<B_n(M_z) v, v> on the monomial model ``mm``; v keeps its top n
    coefficients zero, so that the shift stays inside the model."""
    assert not np.any(v[mm.N - n:])
    return agler_forms(orbit_norms(mm, v, n, shift))[n]


def equi_spaced(k, weight=1):
    """k atoms of one weight (unit by default) at the k-th roots of unity."""
    return ",".join(f"{i}/{k}" for i in range(k)) + ":" + ",".join([str(weight)] * k)


def seeded_measure(seed, k, log_weights=False):
    """k atoms at n/997 turns with chords >= 0.1, weights in [0.25, 4]: uniform
    and written in full, or log-uniform and written to 6 digits.  ``seed`` may
    be a generator, which the draw moves on."""
    rng = np.random.default_rng(seed)
    while True:
        n = np.sort(rng.choice(997, size=k, replace=False))
        gaps = np.diff(np.r_[n, n[0] + 997]) / 997
        if 2.0 * np.sin(np.pi * gaps.min()) >= 0.1:
            break
    if log_weights:
        w = [f"{x:.6g}" for x in np.exp(rng.uniform(np.log(0.25), np.log(4.0), k))]
    else:
        w = [repr(float(x)) for x in rng.uniform(0.25, 4.0, k)]
    return ",".join(f"{x}/997" for x in n) + ":" + ",".join(w)


@st.composite
def random_measures(draw, k_max=5, k_min=2):
    """k = k_min..k_max atoms at n/997 turns, chords >= 0.1, weights in [0.25, 4]."""
    k = draw(st.integers(k_min, k_max))
    n = sorted(draw(st.lists(st.integers(0, 996), min_size=k, max_size=k, unique=True)))
    gaps = np.diff(n + [n[0] + 997]) / 997
    assume(2.0 * np.sin(np.pi * gaps.min()) >= 0.1)
    w = draw(st.lists(st.floats(0.25, 4.0), min_size=k, max_size=k))
    return ",".join(f"{x}/997" for x in n) + ":" + ",".join(repr(x) for x in w)


def gram_quadrature(m, N, n_rad=64, angle_factor=48.0, min_angle=256):
    """Gram matrix by direct quadrature of the weighted area integral:
    Gauss-Legendre in radius, trapezoid in angle.

    The harmonic weight concentrates in a band of width ~(1-r) around each
    atom, so the angular point count per ring scales like 1/(1-r); a fixed
    angular grid cannot resolve the outermost rings.
    """
    xs, ws = np.polynomial.legendre.leggauss(n_rad)
    rs = 0.5 * (xs + 1.0)
    wr = 0.5 * ws
    pts = np.array(m.points, dtype=complex)
    wts = np.array(m.weights, dtype=float)
    kmax = N - 1
    # ring-wise Fourier coefficients of the weight, c[k] for k = -(N-1)..N-1
    four = np.zeros((n_rad, 2 * kmax + 1), dtype=complex)
    for i, r in enumerate(rs):
        M = int(max(min_angle, np.ceil(angle_factor / (1.0 - r))))
        th = 2.0 * np.pi * np.arange(M) / M
        z = r * np.exp(1j * th)
        P = np.zeros(M)
        for zeta, c in zip(pts, wts):
            P += c * (1.0 - r * r) / np.abs(z - zeta) ** 2
        spec = np.fft.fft(P)
        for k in range(-kmax, kmax + 1):
            four[i, k + kmax] = (2.0 * np.pi / M) * spec[-k % M]
    G = np.eye(N, dtype=complex)
    for n in range(1, N):
        for mm in range(1, N):
            k = n - mm
            radial = np.sum(wr * rs ** (n + mm - 1) * four[:, k + kmax])
            G[mm, n] += (n * mm / np.pi) * radial
    return 0.5 * (G + G.conj().T)
