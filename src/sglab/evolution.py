"""Conservative leapfrog evolution for the scalar field models.

Full fields evolve with their end values held fixed (all catalogued data is
flat at the truncated boundaries); runs around a kink evolve the perturbation
in the background frame with zero Dirichlet ends, which keeps topological
sectors exact.  The scheme is leapfrog in drift-kick form, carrying
p = dt v at half steps: symplectic, second order, and time-reversible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grids import (
    ContractError,
    FieldState,
    GridSpec,
    Model,
    ParameterError,
    SINE_GORDON,
    PerturbationPair,
    energy,
    momentum,
    parity_check,
)
from .grids import _CFL, _centre_rule, _half_grid, _second_difference  # the scheme's lattice
from .solutions import KinkParams

__all__ = ["KinkFrame", "EvolveConfig", "Trajectory", "evolve"]


#: a background kink frame, static for beta = 0 and translating otherwise
KinkFrame = KinkParams


@dataclass(frozen=True)
class EvolveConfig:
    """Evolution parameters.  CFL requires dt <= grids._CFL h on the run grid;
    a run takes ceil(t_end / dt) equal steps, so none is longer than dt."""

    dt: float
    t_end: float
    background: Optional[KinkFrame] = None
    snapshot_every: float = 0.5

    def __post_init__(self):
        for name in ("dt", "t_end", "snapshot_every"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ParameterError(f"{name} must be a finite real number, got {value!r}")
        if not self.dt > 0:
            raise ParameterError("dt must be positive")
        if not self.t_end >= 0:
            raise ParameterError("t_end must be nonnegative")
        if not self.snapshot_every > 0:
            raise ParameterError("snapshot_every must be positive")


@dataclass
class Trajectory:
    """Snapshots (t, u, v) of the evolved variable plus running conservation logs.

    For background runs the evolved variable is the perturbation; ``state(i)``
    reconstructs the full field.
    """

    grid: GridSpec
    model: Model
    background: Optional[KinkFrame]
    times: list = field(default_factory=list)
    u_snaps: list = field(default_factory=list)
    v_snaps: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    momenta: list = field(default_factory=list)
    _fixed_fields: Optional[tuple] = field(default=None, init=False, repr=False)

    def background_fields(self, t: float) -> tuple:
        """Read-only (Q, Q_t) of the background on the grid at time t: zeros
        without a frame.  A static frame and a plain run evaluate them once
        per trajectory; a moving frame evaluates them on every call."""
        if self._fixed_fields is not None:
            return self._fixed_fields
        frame, x = self.background, self.grid.x
        if frame is None:
            fields = np.zeros_like(x), np.zeros_like(x)
        else:
            kink = frame.at(t)
            fields = kink.q(x), kink.q_t(x)
        for arr in fields:
            arr.setflags(write=False)
        if frame is None or frame.beta == 0:
            self._fixed_fields = fields
        return fields

    def state(self, i: int) -> FieldState:
        """Full field at snapshot i (background added back when present)."""
        t = self.times[i]
        q, q_t = self.background_fields(t)
        return FieldState(t, self.grid, self.u_snaps[i] + q, self.v_snaps[i] + q_t)

    def perturbation(self, i: int) -> PerturbationPair:
        return PerturbationPair(self.grid, self.u_snaps[i], self.v_snaps[i])

    def __len__(self) -> int:
        return len(self.times)


def _half_sin(u, out, work):
    """Write t = tan(u/2) into ``work`` and half of sin u, t / (1 + t^2), into
    ``out``; callers fold the factor 2 into the scale they apply anyway.

    On an AVX-512 Xeon with numpy 2.4, float64 ``np.sin`` costs more as |u|
    grows (about 8, 12 to 14 and 17 to 19 ns per point for u uniform in
    [-a, a] at a = 0.05, 1 and 3), while ``np.tan`` plus four cheap ufuncs
    costs 5 to 6 ns at each of them.  Without AVX-512 numpy's ``np.tan`` has
    no fast loop, and this form is slower than ``np.sin`` (ROADMAP, closed
    items).  The form holds for every finite u (u/2 is never exactly an odd
    multiple of pi/2 in floating point), is bitwise odd and keeps the sign of
    zero.
    """
    np.multiply(u, 0.5, work)
    np.tan(work, work)
    np.multiply(work, work, out)
    out += 1.0
    np.divide(work, out, out)
    return out


def _kink_frame_force(sin_q2, cos_q2, u, out, work):
    """Given the kink's terms scaled by 2c, sin_q2 = 2c sin Q and
    cos_q2 = 2c cos Q, write c times the sine-Gordon force on a perturbation
    u of the kink Q, sin(Q + u) - sin Q = sin Q (cos u - 1) + cos Q sin u,
    into ``out``; ``work`` is a scratch array of u's shape.

    With t = tan(u/2), cos u - 1 = -t sin u, so the force is
    (sin u / 2)(2 cos Q - t 2 sin Q): one transcendental per point, exactly
    zero at u = 0, no cancellation of cos u - 1 for small u, and odd parity
    of u around the kink kept.
    """
    _half_sin(u, out, work)
    work *= sin_q2
    np.subtract(cos_q2, work, work)
    out *= work
    return out


def _kept_parity(u, v, grid: GridSpec, frame) -> Optional[float]:
    """The sign s with (u, v)(-x) = s (u, v)(x) that the run keeps, -1.0 for
    odd and +1.0 for even, or None.

    Both models' N are odd in u, so a plain run keeps either parity; in a
    static frame centred at 0, sin Q is odd and cos Q even, so only an odd
    perturbation stays odd.  The state has a parity when its defect
    (``parity_check``) is at most 1e-12 max(1, max|u|, max|v|)."""
    if not grid.is_symmetric() or (frame is not None and (frame.beta != 0 or frame.x0 != 0)):
        return None
    tol = 1e-12 * max(1.0, float(np.max(np.abs(u))), float(np.max(np.abs(v))))
    parities = ((-1.0, "odd"),) if frame is not None else ((-1.0, "odd"), (1.0, "even"))
    for sign, kind in parities:
        if max(parity_check(u, grid, kind), parity_check(v, grid, kind)) <= tol:
            return sign
    return None


def evolve(initial: FieldState, model: Model, cfg: EvolveConfig) -> Trajectory:
    """Integrate the field (or its perturbation around a kink frame) to t_end.

    ``initial`` is always the full field; with a background the perturbation
    u = field - kink is evolved with the exact background force and zero
    Dirichlet ends, and snapshots record the perturbation.  A frame carries
    the sine-Gordon kink, so other models refuse one.  The force terms sin Q
    and cos Q come from the kink's closed form: once for a static frame, and
    on every step for a translating one.  The step loop allocates no array,
    and v is formed from p = dt v only at snapshots.

    A run that keeps the parity of the evolved (u, v) integrates only the
    nodes x >= 0 and mirrors them into each snapshot.  It needs a symmetric
    grid, no frame or a static one centred at 0, and (u, v) odd, or even
    without a frame, to within 1e-12 max(1, max|u|, max|v|).  Its first
    snapshot then holds the mirrored state, which differs from the input by
    at most the input's parity defect.  Every other run integrates the whole
    grid.
    """
    grid = initial.grid
    h = grid.h
    if cfg.dt > _CFL * h + 1e-15:
        raise ParameterError(f"CFL violation: dt = {cfg.dt} > {_CFL} h = {_CFL * h:.6g}")
    frame = cfg.background
    if frame is not None and model != SINE_GORDON:
        raise ParameterError(f"a kink frame carries the sine-Gordon kink; "
                             f"it cannot be the background of a {model.kind} run")
    # rounded up, so no step outgrows the checked dt; 1e-9 absorbs round-off
    n_steps = max(1, math.ceil(cfg.t_end / cfg.dt - 1e-9)) if cfg.t_end > 0 else 0
    dt = cfg.t_end / n_steps if n_steps else cfg.dt
    snap_stride = max(1, int(round(cfg.snapshot_every / dt))) if n_steps else 1

    t0 = initial.t
    traj = Trajectory(grid, model, frame)
    # subtracting the plain run's zero background (+0.0) copies u and v bitwise
    q0, q0_t = traj.background_fields(t0)
    u = initial.u - q0
    v = initial.v - q0_t
    # a run keeping a parity holds only the half grid's nodes: the last u.size of the grid
    sign = _kept_parity(u, v, grid, frame)
    if sign is not None:
        u, v = _half_grid(u, sign), _half_grid(v, sign)
    m = grid.n_points // 2
    # node m, or m + 1 on the half grid (an odd run's centre never moves), probed for
    # blow-up on every step
    probe = m if sign is None else 2
    dt2 = dt * dt
    lap_scale = dt2 / h ** 2
    # the sine-Gordon forces are built from half of sin u
    force_scale = 2.0 * dt2 if model == SINE_GORDON else dt2
    moving = frame is not None and frame.beta != 0
    plain_sine = frame is None and model == SINE_GORDON
    # interior views: the end values of u stay fixed and those of v are zeroed
    u_in, v_in = u[1:-1], v[1:-1]
    x_in = grid.x[-u.size:][1:-1]
    # every buffer of the step is allocated here, so the loop allocates no
    # array: the C heap may hand a freed temporary back to the kernel, and
    # the next step would page-fault it in again
    p = np.empty_like(u_in)
    acc = np.empty_like(u_in)
    force = np.empty_like(u_in)
    work = np.empty_like(u_in)
    slope = np.empty(u.size - 1)
    if frame is not None:
        terms = frame.at(t0).sin_cos_q(x_in, (np.empty_like(u_in), np.empty_like(u_in)), work)
        if not moving:
            # scaled once, these terms give the static frame's dt^2 N
            for term in terms:
                term *= force_scale

    def accelerate(t):
        # acc = dt^2 (u_xx - N), built in place; out= by position is the cheapest call
        _second_difference(u, slope, acc)
        np.multiply(acc, lap_scale, acc)
        if plain_sine:
            _half_sin(u_in, force, work)
        elif frame is None:
            model.nonlinearity(u_in, out=force)
        else:
            if moving:
                frame.at(t).sin_cos_q(x_in, terms, work)
            _kink_frame_force(*terms, u_in, force, work)
        if frame is None or moving:
            np.multiply(force, force_scale, force)
        np.subtract(acc, force, acc)

    def full_grid(a):
        # a copy of the working array on the whole grid, the nodes x < 0
        # mirrored from x > 0 with the sign of the parity
        if sign is None:
            return a.copy()
        out = np.empty(grid.n_points)
        out[m:] = a[-m - 1:]
        np.multiply(a[:-m - 1:-1], sign, out[:m])
        return out

    def record(t):
        traj.times.append(t)
        traj.u_snaps.append(full_grid(u))
        traj.v_snaps.append(full_grid(v))
        full = traj.state(len(traj) - 1)
        traj.energies.append(energy(full, model))
        traj.momenta.append(momentum(full))

    record(t0)
    v[0] = 0.0
    v[-1] = 0.0
    # p = dt v at the half step: dt v + acc/2 to start, then u += p and
    # p += acc per step; v = (p + acc/2) / dt is formed only to record it
    accelerate(t0)
    np.multiply(acc, 0.5, p)
    np.multiply(v_in, dt, work)
    p += work
    for step in range(1, n_steps + 1):
        u_in += p
        if sign is not None:
            _centre_rule(u, sign)
        t = t0 + step * dt
        accelerate(t)
        if not math.isfinite(u[probe]):
            raise ContractError(f"evolution became non-finite at t = {t:.6g}")
        if step % snap_stride == 0 or step == n_steps:
            if not np.all(np.isfinite(u)):
                raise ContractError(f"evolution became non-finite at t = {t:.6g}")
            np.multiply(acc, 0.5, v_in)
            v_in += p
            v_in /= dt
            record(t)
        p += acc
    return traj
