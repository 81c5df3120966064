"""Finite-truncation models of hyponormal shift operators.

Dense complex matrix calculus, weighted-shift models with O(n) banded
resolvent and trace kernels and exact infinite-model self-commutator data,
disc-automorphism actions, determinant and trace-formula machinery, and
principal-function estimation by winding number, together with a batch CLI
that emits structured verification reports.
"""
from . import (
    determinants,
    errors,
    homogeneity,
    linalg,
    mobius,
    principal,
    reporting,
    shifts,
    traceforms,
)

__all__ = [
    "determinants",
    "errors",
    "homogeneity",
    "linalg",
    "mobius",
    "principal",
    "reporting",
    "shifts",
    "traceforms",
]
