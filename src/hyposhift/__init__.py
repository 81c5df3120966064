"""Finite-truncation models of hyponormal shift operators.

Weighted-shift models stored as their weight band, with O(n) banded
resolvent, determinant and trace kernels and exact infinite-model
self-commutator data, the disc-automorphism action on a shift, the rank-one
determining determinant, trace-formula checks, and principal-function
estimation by winding number, together with a batch CLI that emits structured
verification reports.  The dense general-matrix algebra that the banded
kernels are checked against lives with the tests, as their oracle.
"""
from . import (
    errors,
    homogeneity,
    mobius,
    principal,
    reporting,
    shifts,
    traceforms,
)

__all__ = [
    "errors",
    "homogeneity",
    "mobius",
    "principal",
    "reporting",
    "shifts",
    "traceforms",
]
