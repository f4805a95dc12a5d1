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
from dataclasses import dataclass

import numpy as np

from .backlund import tilde_residual
from .grids import (
    FieldState,
    ParameterError,
    PerturbationPair,
    SINE_GORDON,
    SolverError,
    WeightSpec,
    derivative,
    local_energy_norm,
    quadrature,
    weighted_norm_sq,
)
from .solutions import KinkParams

__all__ = [
    "TubeExitError",
    "ModulationRecord",
    "track_modulation",
    "rho_rate_check",
    "stilde_bound_check",
    "convergence_classifier",
]

log = logging.getLogger("sglab.modulation")

# the largest local energy norm of the remainder the tracker follows
TUBE_RADIUS = 0.5


class TubeExitError(SolverError):
    """The state left the neighborhood of the kink family during tracking."""


@dataclass(frozen=True)
class ModulationRecord:
    """One tracked snapshot: shift, its rate, and norm diagnostics."""

    t: float
    rho: float
    rho_rate: float
    ortho_residual: float = 0.0
    local_norm: float = math.nan


def _mismatch(state: FieldState, slopes, beta: float, rho: float):
    """Orthogonality functional at shift rho, its rho-derivative and the
    remainder (du, dv) = (u - Q, v - Q_t), for the kink ``KinkParams(beta,
    rho).at(t)``.

    The value is int (du Q_x + dv Q_tx) dx.  Its rho-derivative, integrated
    by parts with du_x + Q_x = u_x, is int (u_x Q_x + v_x Q_tx) dx, where
    `slopes` is (u_x, v_x), the state's ``derivative`` taken once per snapshot.
    """
    grid, x = state.grid, state.grid.x
    p = KinkParams(beta, rho).at(state.t)
    q_x, q_tx = p.q_x(x), p.q_tx(x)
    du, dv = state.u - p.q(x), state.v - p.q_t(x)
    value = quadrature(du * q_x + dv * q_tx, grid)
    dvalue = quadrature(slopes[0] * q_x + slopes[1] * q_tx, grid)
    return value, dvalue, du, dv


def _fit_shift(state, beta, rho_guess):
    """Newton-solve the shift rho that makes the remainder orthogonal to the
    kink's translation direction, starting from `rho_guess`.

    Returns rho, the converged orthogonality value and the remainder pair, so
    a caller needs no further profile evaluation.  Newton stops at
    |value| <= 1e-10 and gives up after 50 iterations; divergence, or a
    remainder larger than TUBE_RADIUS at the root, raises TubeExitError,
    the exit-time mechanism of orbital tracking."""
    rho = float(rho_guess)
    grid = state.grid
    span = grid.x_max - grid.x_min
    slopes = derivative(state.u, grid), derivative(state.v, grid)
    for _ in range(50):
        value, dvalue, du, dv = _mismatch(state, slopes, beta, rho)
        if abs(value) <= 1e-10:
            pair = PerturbationPair(grid, du, dv)
            dist = local_energy_norm(pair)
            if dist > TUBE_RADIUS:
                raise TubeExitError(
                    f"remainder norm {dist:.3f} exceeds the tube radius {TUBE_RADIUS}")
            return rho, value, pair
        if abs(dvalue) < 1e-12 or not math.isfinite(value):
            raise TubeExitError("shift solve lost its nondegeneracy")
        step = value / dvalue
        if abs(step) > 0.5 * span:
            raise TubeExitError(f"shift solve diverged (step {step:.3g})")
        rho -= step
    raise TubeExitError("shift solve: no convergence after 50 iterations")


def _field_start(state: FieldState, beta: float) -> float:
    """The shift a run without a frame starts from: where the field first
    crosses pi, interpolated linearly between the two nodes that bracket it,
    minus beta t; 0.0 for a field that never crosses pi."""
    d = state.u - np.pi
    below = d < 0
    (hits,) = np.nonzero(below[:-1] != below[1:])
    if hits.size == 0:
        return 0.0
    j = hits[0]
    x = state.grid.x
    return float(x[j] + (x[j + 1] - x[j]) * d[j] / (d[j] - d[j + 1]) - beta * state.t)


def track_modulation(traj, beta: float, interval=(-5.0, 5.0)) -> list:
    """Track the shift, warm-starting each solve from the last.

    The first solve starts at the frame's center x0 or, without a frame, at
    the first snapshot's pi crossing minus beta t0 (0 if the field never
    crosses pi).

    Returns one ModulationRecord per snapshot with rho, the orthogonality
    residual, the local remainder norm on `interval`, and the rho rate
    centered over its tracked neighbours.  Tracking stops early (with the
    records so far) if the state exits the tube, and logs a warning on the
    ``sglab.modulation`` logger with the snapshot time and the reason.  The
    fitted family is the sine-Gordon kink, so a run of another model raises
    ``ParameterError``.
    """
    if traj.model != SINE_GORDON:
        raise ParameterError(f"the tracker fits the sine-Gordon kink; "
                             f"it cannot track a {traj.model.kind} run")
    fits = []  # (t, rho, |orthogonality value|, local norm) per tracked snapshot
    rho = traj.background.x0 if traj.background is not None else None
    for i in range(len(traj)):
        state = traj.state(i)
        if rho is None:
            rho = _field_start(state, beta)
        try:
            rho, value, pair = _fit_shift(state, beta, rho)
        except TubeExitError as exc:
            log.warning("tracking stopped at t = %.6g after %d of %d snapshots: %s",
                        state.t, len(fits), len(traj), exc)
            break
        fits.append((state.t, rho, abs(value), local_energy_norm(pair, interval)))
    records = []
    for k, (t, rho, value, norm) in enumerate(fits):
        lo, hi = max(0, k - 1), min(len(fits) - 1, k + 1)
        rate = (fits[hi][1] - fits[lo][1]) / (fits[hi][0] - fits[lo][0]) if hi > lo else 0.0
        records.append(ModulationRecord(t, rho, rate, value, norm))
    return records


def rho_rate_check(records, zero_pairs, eps: float = 0.1) -> dict:
    """Measure the weighted inequality bounding |rho'|.

    ``zero_pairs[k]`` is the vacuum-side (y, v) snapshot matching
    ``records[k]``; its bound is ``weighted_norm_sq`` with weight
    e^{-(1 - eps)|x - rho|}, so eps must be below 1.  The pointwise inequality
    means something only while its right side is above the late-time
    measurement floor, so each ratio divides |rho_rate| by the bound floored
    at 1e-3 of the bound's peak over the run; a run whose bounds are all 0
    has no ratios.  Returns the bounds, the ratios and their max; a pure
    diagnostic, nothing is asserted.
    """
    if not -np.inf < eps < 1:
        raise ParameterError(f"eps must be finite and below 1, got {eps}")
    if len(zero_pairs) != len(records):
        raise ParameterError("zero_pairs must align with records")
    bounds = [float(weighted_norm_sq(pair, WeightSpec(1.0 - eps, rec.rho)))
              for rec, pair in zip(records, zero_pairs)]
    floor = 1e-3 * max(bounds, default=0.0)
    ratios = ([abs(rec.rho_rate) / max(rhs, floor) for rec, rhs in zip(records, bounds)]
              if floor > 0 else [])
    return {"bounds": bounds, "max_rate_ratio": max(ratios, default=0.0), "rate_ratios": ratios}


def stilde_bound_check(pair: PerturbationPair, y_v: PerturbationPair) -> dict:
    """Verify the transform identity expressing the remainder's second
    component from the vacuum side, and measure the pointwise bound
    |s| <= C (|y_x| + |y|).  The identity residual is max |F2| of
    ``tilde_residual`` around the static kink: s minus the s that (u, y)
    predict at parameter 1.

    Both pairs must come from the same snapshot of a run in the static kink
    frame (kink centered at 0), linked by the transform at parameter 1; a
    large identity residual signals that the two sides are out of sync.
    """
    if pair.grid != y_v.grid:
        raise ParameterError("pairs must share a grid")
    _, f2 = tilde_residual(pair, y_v, 0.0)
    identity_residual = float(np.max(np.abs(f2)))
    s, y = pair.second, y_v.first
    y_x = derivative(y, pair.grid)
    denom = np.abs(y_x) + np.abs(y)
    mask = denom > 1e-10 * max(1.0, float(denom.max()))
    constant = float(np.max(np.abs(s[mask]) / denom[mask])) if mask.any() else 0.0
    return {"identity_residual": identity_residual, "bound_constant": constant}


def convergence_classifier(records) -> dict:
    """Classify the tracked shift: settled to a limit, or still excursive.

    ``bounded-converging`` is declared when the total variation of rho over the
    last quarter of the run is below 1e-3, and ``excursion`` otherwise.
    Returns the kind, that tail variation and, for a settled shift, its tail
    mean ``rho_bar``.  Fewer than two records show no settling, so they
    raise ``ParameterError``.
    """
    if len(records) < 2:
        raise ParameterError(f"the classifier needs at least two records, got {len(records)}")
    rhos = np.array([r.rho for r in records])
    q = max(2, len(records) // 4)
    tail = rhos[-q:]
    tv = float(np.sum(np.abs(np.diff(tail))))
    out = {"total_variation_tail": tv}
    if tv < 1e-3:
        out["kind"] = "bounded-converging"
        out["rho_bar"] = float(np.mean(tail))
    else:
        out["kind"] = "excursion"
    return out
