"""Kink-shift tracking and the decay diagnostics built on it.

A state near the kink family is decomposed as field = Q(.; beta, beta t + rho)
plus a remainder orthogonal to the family's translation direction; rho(t) is
tracked through an evolution by warm-started Newton solves.  The remaining
functions measure the weighted-norm inequalities that control |rho'| and the
second remainder component, and classify whether rho settles.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grids import (
    FieldState,
    ParameterError,
    PerturbationPair,
    SolverError,
    derivative,
    local_energy_norm,
    quadrature,
)
from .solutions import KinkParams, kink_profile

__all__ = [
    "TubeExitError",
    "ModulationRecord",
    "solve_shift",
    "decompose",
    "track_modulation",
    "rho_rate_check",
    "stilde_bound_check",
    "convergence_classifier",
]

log = logging.getLogger("sglab.modulation")


class TubeExitError(SolverError):
    """The state left the neighborhood of the kink family during tracking."""


@dataclass
class ModulationRecord:
    """One tracked snapshot: shift, its rate, and norm diagnostics."""

    t: float
    rho: float
    rho_rate: Optional[float] = None
    ortho_residual: float = 0.0
    lhs_rate: Optional[float] = None
    rhs_bound: Optional[float] = None
    local_norms: dict = field(default_factory=dict)


def _family_mismatch(state: FieldState, beta: float, rho: float):
    """Orthogonality functional and its rho-derivative at shift rho."""
    grid = state.grid
    x = grid.x
    center = beta * state.t + rho
    prof = kink_profile(KinkParams(beta, center))
    du = state.u - prof.q(x)
    dv = state.v - prof.q_t(x)
    q_x, q_tx = prof.q_x(x), prof.q_tx(x)
    value = quadrature(du * q_x + dv * q_tx, grid)
    dvalue = quadrature(q_x ** 2 + q_tx ** 2
                        - du * prof.q_xx(x) - dv * prof.q_txx(x), grid)
    return value, dvalue


def solve_shift(state: FieldState, beta: float, rho_guess: float = 0.0, *,
                tol: float = 1e-10, max_iter: int = 50,
                tube_radius: float = 0.5) -> float:
    """Newton-solve the shift rho that makes the remainder orthogonal to the
    kink's translation direction.

    Divergence (or a remainder larger than `tube_radius` at the root) raises
    TubeExitError, mirroring the exit-time mechanism of orbital tracking.
    """
    if not abs(beta) < 1:
        raise ParameterError(f"|beta| < 1 required, got {beta}")
    rho = float(rho_guess)
    span = state.grid.x_max - state.grid.x_min
    for _ in range(max_iter):
        value, dvalue = _family_mismatch(state, beta, rho)
        if abs(value) <= tol:
            prof = kink_profile(KinkParams(beta, beta * state.t + rho))
            dist = local_energy_norm(PerturbationPair(
                state.grid, state.u - prof.q(state.grid.x),
                state.v - prof.q_t(state.grid.x)))
            if dist > tube_radius:
                raise TubeExitError(
                    f"remainder norm {dist:.3f} exceeds the tube radius {tube_radius}")
            return rho
        if abs(dvalue) < 1e-12 or not math.isfinite(value):
            raise TubeExitError("shift solve lost its nondegeneracy")
        step = value / dvalue
        if abs(step) > 0.5 * span:
            raise TubeExitError(f"shift solve diverged (step {step:.3g})")
        rho -= step
    raise TubeExitError(f"shift solve: no convergence after {max_iter} iterations")


def decompose(state: FieldState, beta: float, rho: float) -> PerturbationPair:
    """Remainder (u, s) = field minus the kink profile at shift rho.

    With rho from solve_shift the remainder is orthogonal to the translation
    direction to solver tolerance; reconstruction Q + u reproduces the field
    bitwise on the nodes.
    """
    x = state.grid.x
    prof = kink_profile(KinkParams(beta, beta * state.t + rho))
    return PerturbationPair(state.grid, state.u - prof.q(x), state.v - prof.q_t(x))


def track_modulation(traj, beta: float, rho0: float = 0.0,
                     intervals=((-5.0, 5.0),), tube_radius: float = 0.5) -> list:
    """Track the shift along a trajectory, warm-starting each solve.

    Returns one ModulationRecord per snapshot with rho, the orthogonality
    residual, local remainder norms on the given intervals, and centered
    rho-rate estimates filled in afterwards.  Tracking stops early (with the
    records so far) if the state exits the tube, and logs a warning on the
    ``sglab.modulation`` logger with the snapshot time and the reason.
    """
    records = []
    rho = rho0
    for i in range(len(traj)):
        state = traj.state(i)
        try:
            rho = solve_shift(state, beta, rho_guess=rho, tube_radius=tube_radius)
        except TubeExitError as exc:
            log.warning("tracking stopped at t = %.6g after %d of %d snapshots: %s",
                        state.t, len(records), len(traj), exc)
            break
        value, _ = _family_mismatch(state, beta, rho)
        pair = decompose(state, beta, rho)
        norms = {iv: local_energy_norm(pair, iv) for iv in intervals}
        records.append(ModulationRecord(t=state.t, rho=rho,
                                        ortho_residual=abs(value),
                                        local_norms=norms))
    for k in range(len(records)):
        lo = max(0, k - 1)
        hi = min(len(records) - 1, k + 1)
        if hi > lo:
            records[k].rho_rate = ((records[hi].rho - records[lo].rho)
                                   / (records[hi].t - records[lo].t))
        else:
            records[k].rho_rate = 0.0
        records[k].lhs_rate = abs(records[k].rho_rate)
    return records


def rho_rate_check(records, zero_pairs, eps: float = 0.1, kink_pairs=None) -> dict:
    """Measure the weighted inequalities bounding |rho'|.

    ``zero_pairs[k]`` is the vacuum-side (y, v) snapshot matching
    ``records[k]``; when ``kink_pairs`` (the kink-side remainders) are supplied
    the intermediate bounds involving the remainder itself are measured too.
    Fills lhs_rate/rhs_bound on the records and returns the max ratios; a pure
    diagnostic, nothing is asserted.
    """
    if len(zero_pairs) != len(records):
        raise ParameterError("zero_pairs must align with records")
    ratios_main, ratios_mixed, ratios_grad, ratios_local = [], [], [], []
    for k, rec in enumerate(records):
        pair = zero_pairs[k]
        grid = pair.grid
        x = grid.x
        y, v = pair.first, pair.second
        y_x = derivative(y, grid)
        dist = np.abs(x - rec.rho)
        w_minus = np.exp(-(1.0 - eps) * dist)
        rhs = float(quadrature(w_minus * (v ** 2 + y ** 2 + y_x ** 2), grid))
        rec.rhs_bound = rhs
        lhs = rec.lhs_rate if rec.lhs_rate is not None else 0.0
        if rhs > 0:
            ratios_main.append(lhs / rhs)
        if kink_pairs is not None:
            kp = kink_pairs[k]
            u, s = kp.first, kp.second
            u_x = derivative(u, kp.grid)
            w_plus = np.exp(-(1.0 + eps) * dist)
            rhs_mixed = (float(quadrature(w_plus * (u ** 2 + u_x ** 2), grid))
                         + float(quadrature(w_minus * (y ** 2 + y_x ** 2), grid)))
            if rhs_mixed > 0:
                ratios_mixed.append(lhs / rhs_mixed)
            lhs_grad = float(quadrature(w_plus * u_x ** 2, grid))
            rhs_grad = float(quadrature(w_plus * (u ** 2 + y ** 2 + v ** 2), grid))
            if rhs_grad > 0:
                ratios_grad.append(lhs_grad / rhs_grad)
            sech_p = (1.0 / np.cosh(x - rec.rho)) ** (1.0 + eps)
            sech_m = (1.0 / np.cosh(x - rec.rho)) ** (1.0 - eps)
            lhs_loc = float(quadrature(u ** 2 * sech_p, grid))
            rhs_loc = float(quadrature((y ** 2 + y_x ** 2 + v ** 2) * sech_m, grid))
            if rhs_loc > 0:
                ratios_local.append(lhs_loc / rhs_loc)
    out = {
        "eps": eps,
        "max_rate_ratio": max(ratios_main, default=0.0),
        "rate_ratios": ratios_main,
    }
    if kink_pairs is not None:
        out["max_mixed_ratio"] = max(ratios_mixed, default=0.0)
        out["max_gradient_ratio"] = max(ratios_grad, default=0.0)
        out["max_local_ratio"] = max(ratios_local, default=0.0)
    return out


def stilde_bound_check(pair: PerturbationPair, y_v: PerturbationPair,
                       rho: float = 0.0) -> dict:
    """Verify the transform identity expressing the remainder's second
    component from the vacuum side, and measure the pointwise bound
    |s| <= C (|y_x| + |y|).

    Both pairs must come from the same snapshot of a static-kink-frame run,
    linked by the transform at parameter 1; a large identity residual signals
    that the two sides are out of sync.
    """
    if pair.grid != y_v.grid:
        raise ParameterError("pairs must share a grid")
    grid = pair.grid
    x = grid.x
    u, s = pair.first, pair.second
    y, v = y_v.first, y_v.second
    prof = kink_profile(KinkParams(0.0, rho))
    y_x = derivative(y, grid)
    predicted = y_x - 2.0 * (prof.cos_half_tilde(x) * np.sin(0.5 * u)
                             + prof.sin_half_tilde(x) * np.cos(0.5 * u)) * np.sin(0.5 * y)
    identity_residual = float(np.max(np.abs(s - predicted)))
    denom = np.abs(y_x) + np.abs(y)
    mask = denom > 1e-10 * max(1.0, float(denom.max()))
    constant = float(np.max(np.abs(s[mask]) / denom[mask])) if mask.any() else 0.0
    return {"identity_residual": identity_residual, "bound_constant": constant}


def convergence_classifier(records, tv_threshold: float = 1e-3) -> dict:
    """Classify the tracked shift: settled to a limit, or still excursive.

    ``bounded-converging`` is declared when the total variation of rho over the
    last quarter of the run is below the threshold; otherwise the record times
    where |rho| reached a new maximum are reported.  The local-norm series ride
    along for decay inspection either way.
    """
    if not records:
        raise ParameterError("no records to classify")
    rhos = np.array([r.rho for r in records])
    times = np.array([r.t for r in records])
    q = max(2, len(records) // 4)
    tail = rhos[-q:]
    tv = float(np.sum(np.abs(np.diff(tail))))
    local_series = {}
    for iv in records[0].local_norms:
        local_series[iv] = np.array([r.local_norms[iv] for r in records])
    out = {"total_variation_tail": tv, "local_norms": local_series, "times": times}
    if tv < tv_threshold:
        out["kind"] = "bounded-converging"
        out["rho_bar"] = float(np.mean(tail))
    else:
        out["kind"] = "excursion"
        running = np.maximum.accumulate(np.abs(rhos))
        new_max = np.abs(rhos) >= running - 1e-15
        out["excursion_times"] = times[new_max]
    return out
