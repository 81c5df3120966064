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
from .shifts import WeightSequence, adjoint_resolvent_solve


def determining_det(model: WeightSequence, x: np.ndarray, z: complex, w: complex, n: int) -> complex:
    """1 - <(T* - conj(w))^{-1} x, (T* - conj(z))^{-1} x> on the n-truncation.

    Only models whose infinite self-commutator is rank one (model.rank_one:
    constant weights, [T*, T] = w_0^2 e_0 (x) e_0) are admitted; z, w must lie
    outside the closed disc of radius ||T|| (_admit).
    """
    _admit(model, (("z", z), ("w", w)))
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (n,):
        raise ValueError(f"x must have shape ({n},), got {x.shape}")
    u_w = adjoint_resolvent_solve(model, w, x)
    u_z = adjoint_resolvent_solve(model, z, x)
    return 1.0 - complex(np.vdot(u_z, u_w))


def _admit(model: WeightSequence, named_points) -> None:
    """The determining determinant's domain, for (name, point) pairs: SpectrumHit
    for the first point with |point| <= sup w_k, then NotRankOne unless the
    model's infinite self-commutator is rank one."""
    for name, point in named_points:
        if abs(point) <= model.sup:
            raise SpectrumHit(f"|{name}| must exceed sup w_k = {model.sup}, got {abs(point)}")
    if not model.rank_one:
        raise NotRankOne("infinite-model self-commutator is not rank one")
