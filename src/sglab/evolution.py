"""Conservative leapfrog evolution for the scalar field models.

Full fields evolve with their end values held fixed (all catalogued data is
flat at the truncated boundaries); runs around a kink evolve the perturbation
in the background frame with zero Dirichlet ends, which keeps topological
sectors exact.  The scheme is kick-drift-kick leapfrog: symplectic, second
order, and time-reversible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grids import (
    ContractError,
    FieldState,
    GridSpec,
    Model,
    ParameterError,
    PerturbationPair,
    derivative,
    local_energy_norm,
    quadrature,
    weighted_norm_sq,
    WeightSpec,
)
from .solutions import KinkParams, kink_profile

__all__ = ["KinkFrame", "EvolveConfig", "Trajectory", "evolve", "evolve_probe"]


@dataclass(frozen=True)
class KinkFrame:
    """Background kink frame: static for beta = 0, translating otherwise."""

    beta: float = 0.0
    x0: float = 0.0

    def center(self, t: float) -> float:
        return self.x0 + self.beta * t


@dataclass(frozen=True)
class EvolveConfig:
    """Evolution parameters.  CFL requires dt <= 0.9 h on the run grid."""

    dt: float
    t_end: float
    background: Optional[KinkFrame] = None
    snapshot_every: float = 0.5

    def __post_init__(self):
        if not self.dt > 0:
            raise ParameterError("dt must be positive")
        if self.t_end < 0:
            raise ParameterError("t_end must be nonnegative")


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

    def background_field(self, t: float) -> np.ndarray:
        if self.background is None:
            return np.zeros(self.grid.n_points)
        prof = kink_profile(KinkParams(self.background.beta, self.background.center(t)))
        return prof.q(self.grid.x)

    def background_field_t(self, t: float) -> np.ndarray:
        if self.background is None:
            return np.zeros(self.grid.n_points)
        prof = kink_profile(KinkParams(self.background.beta, self.background.center(t)))
        return prof.q_t(self.grid.x)

    def state(self, i: int) -> FieldState:
        """Full field at snapshot i (background added back when present)."""
        t = self.times[i]
        return FieldState(t, self.grid,
                          self.u_snaps[i] + self.background_field(t),
                          self.v_snaps[i] + self.background_field_t(t))

    def perturbation(self, i: int) -> PerturbationPair:
        return PerturbationPair(self.grid, self.u_snaps[i], self.v_snaps[i])

    def __len__(self) -> int:
        return len(self.times)


def _full_energy_momentum(grid, model, u, v):
    ux = derivative(u, grid)
    e = quadrature(0.5 * (ux ** 2 + v ** 2) + model.potential(u), grid)
    p = 0.5 * quadrature(v * ux, grid)
    return e, p


def evolve(initial: FieldState, model: Model, cfg: EvolveConfig) -> Trajectory:
    """Integrate the field (or its perturbation around a kink frame) to t_end.

    ``initial`` is always the full field; with a background the perturbation
    u = field - kink is evolved with the exact background force and zero
    Dirichlet ends, and snapshots record the perturbation.  A static frame's
    background force terms are computed once; a translating frame's are
    evaluated each step from the kink's closed-form sin Q and cos Q.
    """
    grid = initial.grid
    h = grid.h
    if cfg.dt > 0.9 * h + 1e-15:
        raise ParameterError(f"CFL violation: dt = {cfg.dt} > 0.9 h = {0.9 * h:.6g}")
    n_steps = max(1, int(round(cfg.t_end / cfg.dt))) if cfg.t_end > 0 else 0
    dt = cfg.t_end / n_steps if n_steps else cfg.dt
    snap_stride = max(1, int(round(cfg.snapshot_every / dt))) if n_steps else 1

    t0 = initial.t
    frame = cfg.background
    if frame is not None:
        prof0 = kink_profile(KinkParams(frame.beta, frame.center(t0)))
        u = initial.u - prof0.q(grid.x)
        v = initial.v - prof0.q_t(grid.x)
    else:
        u = initial.u.copy()
        v = initial.v.copy()
    inv_h2 = 1.0 / h ** 2
    half_dt = 0.5 * dt
    # interior views: the end values of u stay fixed and those of a are zero
    a = np.zeros_like(u)
    u_in, v_in, a_in = u[1:-1], v[1:-1], a[1:-1]
    x_in = grid.x[1:-1]
    force = np.empty_like(u_in)
    work = np.empty_like(u_in)
    if frame is not None and frame.beta == 0:
        static_terms = model.background_terms(prof0.q(x_in))

    def background_terms(t):
        if frame.beta == 0:
            return static_terms
        prof = kink_profile(KinkParams(frame.beta, frame.center(t)))
        if model.kind == "sine-gordon":
            return prof.sin_cos_q(x_in)
        return model.background_terms(prof.q(x_in))

    def accel(t):
        # a = u_xx - force, built in place with the operations of
        # (u[2:] - 2 u + u[:-2]) / h^2 - force in the same order
        np.multiply(u_in, 2.0, out=a_in)
        np.subtract(u[2:], a_in, out=a_in)
        np.add(a_in, u[:-2], out=a_in)
        np.multiply(a_in, inv_h2, out=a_in)
        if frame is None:
            np.subtract(a_in, model.nonlinearity(u_in), out=a_in)
        else:
            np.subtract(a_in, model.force_from_terms(background_terms(t), u_in, force, work),
                        out=a_in)

    traj = Trajectory(grid, model, frame)

    def record(t):
        traj.times.append(t)
        traj.u_snaps.append(u.copy())
        traj.v_snaps.append(v.copy())
        if frame is None:
            full_u, full_v = u, v
        else:
            full_u = u + traj.background_field(t)
            full_v = v + traj.background_field_t(t)
        e, p = _full_energy_momentum(grid, model, full_u, full_v)
        traj.energies.append(e)
        traj.momenta.append(p)

    record(t0)
    accel(t0)
    t = t0
    for step in range(1, n_steps + 1):
        np.multiply(a_in, half_dt, out=work)
        v_in += work
        np.multiply(v_in, dt, out=work)
        u_in += work
        t = t0 + step * dt
        accel(t)
        np.multiply(a_in, half_dt, out=work)
        v_in += work
        v[0] = 0.0
        v[-1] = 0.0
        if not np.isfinite(u[grid.n_points // 2]):
            raise ContractError(f"evolution became non-finite at t = {t:.6g}")
        if step % snap_stride == 0 or step == n_steps:
            if not np.all(np.isfinite(u)):
                raise ContractError(f"evolution became non-finite at t = {t:.6g}")
            record(t)
    return traj


def evolve_probe(initial: FieldState, model: Model, cfg: EvolveConfig, probes):
    """Evolve and evaluate probes at every snapshot.

    Probes are ("energy",), ("momentum",), ("local_energy_norm", (a, b)),
    ("weighted_norm", rate) or ("modulation", beta); the result maps each probe
    name to its time series, always including "t".  The modulation probe is
    resolved through the modulation tracker.
    """
    traj = evolve(initial, model, cfg)
    out = {"t": np.array(traj.times)}
    for probe in probes:
        kind = probe[0]
        if kind == "energy":
            out["energy"] = np.array(traj.energies)
        elif kind == "momentum":
            out["momentum"] = np.array(traj.momenta)
        elif kind == "local_energy_norm":
            interval = probe[1]
            vals = []
            for i in range(len(traj)):
                pair = PerturbationPair(traj.grid, traj.u_snaps[i], traj.v_snaps[i])
                vals.append(local_energy_norm(pair, interval))
            out[f"local_norm[{interval[0]:g},{interval[1]:g}]"] = np.array(vals)
        elif kind == "weighted_norm":
            rate = probe[1]
            vals = []
            for i in range(len(traj)):
                pair = PerturbationPair(traj.grid, traj.u_snaps[i], traj.v_snaps[i])
                vals.append(weighted_norm_sq(pair, WeightSpec(rate)))
            out[f"weighted_norm[{rate:g}]"] = np.array(vals)
        elif kind == "modulation":
            from .modulation import track_modulation

            beta = probe[1]
            records = track_modulation(traj, beta)
            out["rho"] = np.array([r.rho for r in records])
            out["rho_rate"] = np.array([r.rho_rate for r in records])
            out["ortho_residual"] = np.array([r.ortho_residual for r in records])
        else:
            raise ParameterError(f"unknown probe {probe!r}")
    return out, traj
