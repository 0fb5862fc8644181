import pytest

from cdsp import (NumericPolicy, build_dirichlet, build_trig, extract_C,
                  factorize, parse_measure)
from cdsp.report import closed_form_constants


class Pipe:
    def __init__(self, spec):
        self.measure = parse_measure(spec)
        self.trig = build_trig(self.measure)
        self.fr = factorize(self.trig)
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
