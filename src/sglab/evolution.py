"""Conservative leapfrog evolution for the scalar field models.

Full fields evolve with their end values held fixed (all catalogued data is
flat at the truncated boundaries); runs around a kink evolve the perturbation
in the background frame with zero Dirichlet ends, which keeps topological
sectors exact.  The scheme is kick-drift-kick leapfrog: symplectic, second
order, and time-reversible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .conserved import energy, momentum
from .grids import (
    ContractError,
    FieldState,
    GridSpec,
    Model,
    ParameterError,
    SINE_GORDON,
    PerturbationPair,
)
from .solutions import KinkParams

__all__ = ["KinkFrame", "EvolveConfig", "Trajectory", "evolve"]


#: a background kink frame, static for beta = 0 and translating otherwise
KinkFrame = KinkParams


@dataclass(frozen=True)
class EvolveConfig:
    """Evolution parameters.  CFL requires dt <= 0.9 h on the run grid."""

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


def _kink_frame_force(sin_q, cos_q, u, out, work):
    """The sine-Gordon force on a perturbation u of the kink Q,
    sin(Q + u) - sin Q = sin Q (cos u - 1) + cos Q sin u, written into ``out``;
    ``work`` is a scratch array of u's shape.

    One transcendental, t = tan(u/2): then sin u = 2t / (1 + t^2) and
    cos u - 1 = -t sin u, so the force is sin u (cos Q - t sin Q).  This holds
    for every finite u (u/2 is never exactly an odd multiple of pi/2 in
    floating point), is exactly zero at u = 0, avoids the cancellation of
    cos u - 1 for small u, and keeps odd parity of u around the kink.
    """
    np.multiply(u, 0.5, out=work)
    np.tan(work, out=work)
    np.multiply(work, work, out=out)
    out += 1.0
    np.divide(work, out, out=out)
    out *= 2.0
    work *= sin_q
    np.subtract(cos_q, work, out=work)
    out *= work
    return out


def evolve(initial: FieldState, model: Model, cfg: EvolveConfig) -> Trajectory:
    """Integrate the field (or its perturbation around a kink frame) to t_end.

    ``initial`` is always the full field; with a background the perturbation
    u = field - kink is evolved with the exact background force and zero
    Dirichlet ends, and snapshots record the perturbation.  A frame carries
    the sine-Gordon kink, so other models refuse one.  The force terms sin Q
    and cos Q come from the kink's closed form: once for a static frame, and
    on every step for a translating one.  The step loop allocates no array.
    """
    grid = initial.grid
    h = grid.h
    if cfg.dt > 0.9 * h + 1e-15:
        raise ParameterError(f"CFL violation: dt = {cfg.dt} > 0.9 h = {0.9 * h:.6g}")
    frame = cfg.background
    if frame is not None and model != SINE_GORDON:
        raise ParameterError(f"a kink frame carries the sine-Gordon kink; "
                             f"it cannot be the background of a {model.kind} run")
    n_steps = max(1, int(round(cfg.t_end / cfg.dt))) if cfg.t_end > 0 else 0
    dt = cfg.t_end / n_steps if n_steps else cfg.dt
    snap_stride = max(1, int(round(cfg.snapshot_every / dt))) if n_steps else 1

    t0 = initial.t
    traj = Trajectory(grid, model, frame)
    # subtracting the plain run's zero background (+0.0) copies u and v bitwise
    q0, q0_t = traj.background_fields(t0)
    u = initial.u - q0
    v = initial.v - q0_t
    inv_h2 = 1.0 / h ** 2
    half_dt = 0.5 * dt
    # interior views: the end values of u stay fixed and those of v are zeroed
    u_in, v_in = u[1:-1], v[1:-1]
    x_in = grid.x[1:-1]
    # every buffer of the step is allocated here, so the loop allocates no
    # array: the C heap may hand a freed temporary back to the kernel, and
    # the next step would page-fault it in again
    kick = np.empty_like(u_in)
    force = np.empty_like(u_in)
    work = np.empty_like(u_in)
    if frame is not None:
        terms = frame.at(t0).sin_cos_q(x_in, (np.empty_like(u_in), np.empty_like(u_in)), work)

    def half_kick(t):
        # kick = a dt/2 with a = u_xx - force, built in place with the
        # operations of (u[2:] - 2 u + u[:-2]) / h^2 - force in the same order
        np.multiply(u_in, 2.0, out=kick)
        np.subtract(u[2:], kick, out=kick)
        np.add(kick, u[:-2], out=kick)
        np.multiply(kick, inv_h2, out=kick)
        if frame is None:
            model.nonlinearity(u_in, out=force)
        else:
            if frame.beta != 0:
                frame.at(t).sin_cos_q(x_in, terms, work)
            _kink_frame_force(*terms, u_in, force, work)
        np.subtract(kick, force, out=kick)
        np.multiply(kick, half_dt, out=kick)

    def record(t):
        traj.times.append(t)
        traj.u_snaps.append(u.copy())
        traj.v_snaps.append(v.copy())
        # a plain run's u + 0.0 would turn -0.0 entries into +0.0
        q, q_t = traj.background_fields(t)
        full = FieldState(t, grid, *((u, v) if frame is None else (u + q, v + q_t)))
        traj.energies.append(energy(full, model))
        traj.momenta.append(momentum(full))

    record(t0)
    half_kick(t0)
    t = t0
    # a step's closing kick and the next step's opening kick share one a
    for step in range(1, n_steps + 1):
        v_in += kick
        np.multiply(v_in, dt, out=work)
        u_in += work
        t = t0 + step * dt
        half_kick(t)
        v_in += kick
        v[0] = 0.0
        v[-1] = 0.0
        if not math.isfinite(u[grid.n_points // 2]):
            raise ContractError(f"evolution became non-finite at t = {t:.6g}")
        if step % snap_stride == 0 or step == n_steps:
            if not np.all(np.isfinite(u)):
                raise ContractError(f"evolution became non-finite at t = {t:.6g}")
            record(t)
    return traj

