"""Numerical toolkit for the Cauchy dual subnormality question on weighted
Dirichlet spaces with finitely supported circle measures."""

from .measure import Measure, measure_from_turns, parse_measure, rotate_measure
from .policy import NumericPolicy
from .fejer import TrigPoly, FejerRiesz, build_trig, factorize, verify_identity
from .dirichlet import (DirichletData, OuterData, build_dirichlet, build_outer,
                        kernel_full, kernel_omu, kernel_perp)
from .debranges import (HermForm, eval_S, eval_schur, extract_C, factor_P,
                        kernel_KB)
from .verdict import (PairEvidence, PsdProbe, Verdict, decide,
                      moment_truncation, offdiag_sums, psd_search)
from .report import PipelineResult, analyze, reference_checks

__all__ = [
    "Measure", "measure_from_turns", "parse_measure", "rotate_measure",
    "NumericPolicy",
    "TrigPoly", "FejerRiesz", "build_trig", "factorize", "verify_identity",
    "DirichletData", "OuterData", "build_dirichlet", "build_outer",
    "kernel_full", "kernel_omu", "kernel_perp",
    "HermForm", "eval_S", "eval_schur", "extract_C", "factor_P",
    "kernel_KB",
    "PairEvidence", "PsdProbe", "Verdict", "decide", "moment_truncation",
    "offdiag_sums", "psd_search",
    "PipelineResult", "analyze", "reference_checks",
]

__version__ = "0.1.0"
