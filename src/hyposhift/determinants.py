"""The rank-one determining determinant of a weighted shift.

A shift whose infinite self-commutator is the rank-one x (x) x has the
determining determinant 1 - <(T* - conj(w))^{-1} x, (T* - conj(z))^{-1} x>.
It never forms a matrix: both resolvent vectors are O(n) back-substitutions on
the weight band (shifts.adjoint_resolvent_solve).

The determinant of the finite multiplicative commutator is identically 1 by
multiplicativity, so the determining determinant has to be computed through
the rank-one perturbation, never through finite products; the dense tripwire
that shows the collapse lives with the test oracles.
"""
from __future__ import annotations

import numpy as np

from .errors import NotRankOne, SpectrumHit
from .shifts import (
    KIND_RATIONAL, WeightSequence, adjoint_resolvent_solve, exact_commutator_diagonal,
)


def check_rank_one(model: WeightSequence) -> None:
    """NotRankOne unless [T*, T] of the infinite model is w_0^2 e_0 (x) e_0.

    Decided from the model alone, whatever the truncation.  The rational
    family's weights strictly increase, so its entry w_1^2 - w_0^2 is
    positive.  A table's entries w_k^2 - w_{k-1}^2 are 0 from two past its
    end on, where both weights are the declared limit, so the exact diagonal
    over the table, plus the one entry past it when a limit is declared,
    decides; each of its entries past the first must be at most 1e-14.
    """
    if model.kind != KIND_RATIONAL:
        diag = exact_commutator_diagonal(model, len(model.table) + (model.limit is not None))
        if np.max(np.abs(diag[1:]), initial=0.0) <= 1e-14:
            return
    raise NotRankOne("infinite-model self-commutator is not rank one")


def determining_det(model: WeightSequence, x: np.ndarray, z: complex, w: complex, n: int) -> complex:
    """1 - <(T* - conj(w))^{-1} x, (T* - conj(z))^{-1} x> on the n-truncation.

    Only models whose infinite self-commutator is rank one (constant weights,
    [T*, T] = w_0^2 e_0 (x) e_0) are admitted; z, w must lie outside the closed
    disc of radius ||T||.
    """
    if abs(z) <= model.sup or abs(w) <= model.sup:
        raise SpectrumHit(f"|z| and |w| must exceed {model.sup}")
    check_rank_one(model)
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (n,):
        raise ValueError(f"x must have shape ({n},), got {x.shape}")
    u_w = adjoint_resolvent_solve(model, w, x)
    u_z = adjoint_resolvent_solve(model, z, x)
    return 1.0 - complex(np.vdot(u_z, u_w))
