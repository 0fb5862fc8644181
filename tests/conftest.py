import numpy as np
import pytest
from hypothesis import assume, strategies as st

from cdsp import NumericPolicy, build_dirichlet, extract_C, factorize, parse_measure
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
ALPHA_CONST = _REF["alpha"]
X_CONST = _REF["x"]
W_CONST = _REF["w"]


@st.composite
def random_measures(draw, k_max=5):
    """k = 2..k_max atoms at n/997 turns, chords >= 0.1, weights in [0.25, 4]."""
    k = draw(st.integers(2, k_max))
    n = sorted(draw(st.lists(st.integers(0, 996), min_size=k, max_size=k, unique=True)))
    gaps = np.diff(n + [n[0] + 997]) / 997
    assume(2.0 * np.sin(np.pi * gaps.min()) >= 0.1)
    w = draw(st.lists(st.floats(0.25, 4.0), min_size=k, max_size=k))
    return ",".join(f"{x}/997" for x in n) + ":" + ",".join(repr(x) for x in w)
