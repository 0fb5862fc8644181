"""Numeric tolerance policy shared across the pipeline."""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, fields, replace

from .errors import PolicyError


MAX_N = 1024
MAX_L = 10_000


@dataclass(frozen=True)
class NumericPolicy:
    root_tol: float = 1e-12
    identity_tol: float = 1e-9
    zero_accept: float = 1e-7
    zero_reject: float = 1e-4
    psd_tol: float = 1e-8
    l_max: int = 16
    N_trunc: int = 64
    oracle_N: int = 64
    seed: int = 20240901

    def __post_init__(self):
        # bool is an int subclass, so JSON true/false would pass as 1/0
        for name in ("root_tol", "identity_tol", "zero_accept", "zero_reject", "psd_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
                raise PolicyError(f"{name} must be a positive real number, got {value!r}")
        if not self.zero_accept < self.zero_reject:
            raise PolicyError("zero_accept must be below zero_reject")
        # oracle_N >= 9: the oracle's span E_s, s <= oracle_N - 8, must be nonempty
        # and leave 8 coefficients for the shift's 8 steps; seed is read by nothing;
        # N_trunc, oracle_N <= MAX_N keep the probe and oracle matrices to tens of MB;
        # l_max <= MAX_L bounds the exhaustive probe loop, one N_trunc-sized
        # eigenproblem per order, to a few seconds at the default N_trunc
        for name, low, high in (("l_max", 1, MAX_L), ("N_trunc", 1, MAX_N),
                                ("oracle_N", 9, MAX_N), ("seed", 0, None)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise PolicyError(f"{name} must be an integer >= {low}, got {value!r}")
            if high is not None and value > high:
                raise PolicyError(f"{name} must be an integer <= {high}, got {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NumericPolicy":
        if not isinstance(d, dict):
            raise PolicyError("a policy must be a JSON object")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise PolicyError(f"unknown policy key {unknown[0]!r}")
        return replace(cls(), **d)

    @classmethod
    def from_json(cls, text: str) -> "NumericPolicy":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PolicyError(f"policy is not JSON: {exc}") from exc
        return cls.from_dict(doc)
