"""Energy and momentum functionals, and their closed forms on kink data."""

from __future__ import annotations

import math

from .grids import FieldState, Model, ParameterError, derivative, quadrature

__all__ = ["energy", "momentum", "manifold_momentum", "kink_profile_momentum"]


def energy(state: FieldState, model: Model) -> float:
    """Total energy (1/2) int (u_x^2 + v^2) + int V(u) by trapezoid quadrature.

    The integral stops at the grid ends: a density that has not decayed there
    (radiation reaching the box ends, say) is truncated without notice.
    """
    ux = derivative(state.u, state.grid)
    density = 0.5 * (ux ** 2 + state.v ** 2) + model.potential(state.u)
    return quadrature(density, state.grid)


def momentum(state: FieldState) -> float:
    """Momentum (1/2) int u_t u_x dx by trapezoid quadrature."""
    ux = derivative(state.u, state.grid)
    return 0.5 * quadrature(state.v * ux, state.grid)


def _offset_multiplier(delta: float) -> float:
    """The transform multiplier 1 + delta, which must be positive."""
    a = 1.0 + delta
    if not a > 0:
        raise ParameterError(f"need 1 + delta > 0, got delta = {delta}")
    return a


def manifold_momentum(delta: float) -> float:
    """Momentum of kink data built from the vacuum with multiplier 1 + delta.

    Closed form 2 (1/(1+delta) - (1+delta)); zero exactly at delta = 0 and of
    sign opposite to delta.
    """
    a = _offset_multiplier(delta)
    return 2.0 * (1.0 / a - a)


def kink_profile_momentum(beta: float) -> float:
    """Momentum -4 beta / sqrt(1 - beta^2) of the moving kink profile."""
    if not abs(beta) < 1:
        raise ParameterError(f"|beta| < 1 required, got {beta}")
    return -4.0 * beta / math.sqrt(1.0 - beta ** 2)
