"""Uniform spatial grids, quadrature, discrete derivatives, norms, energy and
momentum, parity tools.

Everything downstream (samplers, Backlund solvers, the evolver) works on the
same uniform-grid substrate defined here, so that discrete conservation and
round-trip statements are clean.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParameterError",
    "ContractError",
    "SolverError",
    "GridSpec",
    "FieldState",
    "PerturbationPair",
    "Model",
    "SINE_GORDON",
    "PHI4",
    "WeightSpec",
    "quadrature",
    "derivative",
    "pde_residual",
    "weighted_norm_sq",
    "local_energy_norm",
    "energy",
    "momentum",
    "parity_check",
]


class ParameterError(ValueError):
    """A constructor or operation received an out-of-range parameter."""


class ContractError(ValueError):
    """Inputs violate a documented precondition (shape, parity, grid)."""


class SolverError(RuntimeError):
    """An iterative solve failed to converge.

    Carries the residual history so callers can report what happened.
    """

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [x_min, x_max] with n_points nodes (both ends included)."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not all(isinstance(v, numbers.Real) for v in (self.x_min, self.x_max)):
            raise ParameterError(f"x_min and x_max must be real numbers, "
                                 f"got {self.x_min!r} and {self.x_max!r}")
        if not isinstance(self.n_points, numbers.Integral):
            raise ParameterError(f"n_points must be an integer, got {self.n_points!r}")
        if not 0 < self.x_max - self.x_min < np.inf:  # false for a non-finite end too
            raise ParameterError(f"need 0 < x_max - x_min < inf, got [{self.x_min}, {self.x_max}]")
        if self.n_points < 3:
            raise ParameterError(f"need n_points >= 3, got {self.n_points}")
        object.__setattr__(self, "_x", np.linspace(self.x_min, self.x_max, self.n_points))

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def x(self) -> np.ndarray:
        return self._x

    def is_symmetric(self) -> bool:
        """True when the grid is mirror-symmetric about 0 (to 1e-12) with a node at 0."""
        return abs(self.x_min + self.x_max) <= 1e-12 and self.n_points % 2 == 1

    def require_symmetric(self):
        if not self.is_symmetric():
            raise ContractError(
                f"operation needs a symmetric grid with odd n_points; "
                f"got [{self.x_min}, {self.x_max}] with n={self.n_points}"
            )

    def refined(self, factor: int = 2) -> "GridSpec":
        """Same span with spacing divided by `factor` (node set includes the old one)."""
        return GridSpec(self.x_min, self.x_max, factor * (self.n_points - 1) + 1)


def _as_field(values, grid: GridSpec, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (grid.n_points,):
        raise ContractError(f"{name} has shape {arr.shape}, expected ({grid.n_points},)")
    return arr


@dataclass
class FieldState:
    """A wave-equation state (u, v) = (field, time derivative) at time t."""

    t: float
    grid: GridSpec
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = _as_field(self.u, self.grid, "u")
        self.v = _as_field(self.v, self.grid, "v")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise ContractError("FieldState entries must be finite")


@dataclass
class PerturbationPair:
    """A (first, second) pair of grid functions: a perturbation and its time
    derivative.  The transform maps that need a parity check it themselves."""

    grid: GridSpec
    first: np.ndarray
    second: np.ndarray

    def __post_init__(self):
        self.first = _as_field(self.first, self.grid, "first")
        self.second = _as_field(self.second, self.grid, "second")


@dataclass(frozen=True)
class Model:
    """Scalar field model on the line: u_tt - u_xx + N(u) = 0."""

    kind: str  # "sine-gordon" or "phi4"

    def __post_init__(self):
        if self.kind not in ("sine-gordon", "phi4"):
            raise ParameterError(f"unknown model {self.kind!r}")

    def nonlinearity(self, u, out=None):
        """N(u): sin(u) for sine-Gordon, -u + u^3 for phi^4, written into
        ``out`` (allocated when None) with the operations of u * u * u - u."""
        if self.kind == "sine-gordon":
            return np.sin(u, out=out)
        out = np.multiply(u, u, out=out)
        out *= u
        out -= u
        return out

    def potential(self, u):
        """Potential density V with V' = N and V = 0 at the vacua."""
        if self.kind == "sine-gordon":
            return 1.0 - np.cos(u)
        return 0.25 * (1.0 - u * u) ** 2


SINE_GORDON = Model("sine-gordon")
PHI4 = Model("phi4")


@dataclass(frozen=True)
class WeightSpec:
    """Exponential weight e^{-rate |x - center|} used in local-decay integrals."""

    rate: float
    center: float = 0.0

    def __post_init__(self):
        if not 0 < self.rate < np.inf:
            raise ParameterError(f"weight rate must be positive and finite, got {self.rate}")
        if not np.isfinite(self.center):
            raise ParameterError(f"weight center must be finite, got {self.center}")

    def values(self, x):
        return np.exp(-self.rate * np.abs(x - self.center))


def _trapezoid(f: np.ndarray, h: float) -> float:
    """Trapezoid-rule integral of the samples f at spacing h."""
    return h * (f.sum() - 0.5 * (f[0] + f[-1]))


def _running_trapezoid(f: np.ndarray, h: float) -> np.ndarray:
    """Running trapezoid integral of the samples f at spacing h; entry i is
    the integral from the first sample to the i-th."""
    out = np.empty_like(f)
    out[0] = 0.0
    np.cumsum(0.5 * h * (f[1:] + f[:-1]), out=out[1:])
    return out


def quadrature(values, grid: GridSpec) -> float:
    """Trapezoid-rule integral over the grid; exact for piecewise-linear data."""
    return _trapezoid(_as_field(values, grid, "values"), grid.h)


def second_derivative(values, grid: GridSpec) -> np.ndarray:
    """Second derivative: centered inside, one-sided second order at the ends,
    whose four-point stencils need n_points >= 4."""
    if grid.n_points < 4:
        raise ContractError(f"second derivative needs n_points >= 4, got {grid.n_points}")
    f = _as_field(values, grid, "values")
    h2 = grid.h ** 2
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h2
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h2
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h2
    return out


def _time_difference(sampler, t: float, grid: GridSpec, dt: float) -> tuple:
    """(u, u_tt) of a sampler at time t on the grid, u_tt the centered
    difference (u(t + dt) - 2 u(t) + u(t - dt)) / dt^2; every sample must be finite."""
    if not dt > 0:
        raise ParameterError("dt must be positive")
    x = grid.x
    u_m, u_0, u_p = (np.asarray(sampler.value(s, x), dtype=float) for s in (t - dt, t, t + dt))
    for arr in (u_m, u_0, u_p):
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise ContractError(f"non-finite sample at node {bad} (x={x[bad]:.6g})")
    return u_0, (u_p - 2.0 * u_0 + u_m) / dt ** 2


def pde_residual(sampler, model: Model, t: float, grid: GridSpec, dt: float) -> np.ndarray:
    """Residual u_tt - u_xx + N(u) of a sampler, per node.

    u_tt comes from a centered difference of the sampler in time with step dt,
    u_xx from centered space differences; for an exact solution the max residual
    is O(dt^2 + h^2).
    """
    u_0, u_tt = _time_difference(sampler, t, grid, dt)
    return u_tt - second_derivative(u_0, grid) + model.nonlinearity(u_0)


def weighted_norm_sq(pair: PerturbationPair, w: WeightSpec) -> float:
    """Integral of e^{-rate|x-center|} (first_x^2 + first^2 + second^2)."""
    fx = derivative(pair.first, pair.grid)
    density = w.values(pair.grid.x) * (fx ** 2 + pair.first ** 2 + pair.second ** 2)
    return quadrature(density, pair.grid)


def _interval_slice(grid: GridSpec, interval) -> slice:
    a, b = float(interval[0]), float(interval[1])
    if a > b:
        raise ContractError(f"empty interval [{a}, {b}]")
    if a < grid.x_min - 1e-12 or b > grid.x_max + 1e-12:
        raise ContractError(f"interval [{a}, {b}] outside grid span [{grid.x_min}, {grid.x_max}]")
    i0 = int(np.searchsorted(grid.x, a - 1e-12, side="left"))
    i1 = int(np.searchsorted(grid.x, b + 1e-12, side="right"))
    if i1 - i0 < 2:
        raise ContractError(f"interval [{a}, {b}] contains fewer than two grid nodes")
    return slice(i0, i1)


def local_energy_norm(pair: PerturbationPair, interval=None) -> float:
    """H^1 x L^2 norm of the pair restricted to `interval` (whole grid if None).

    The first-component derivative is formed on the full grid before
    restriction, and the integral uses the grid nodes inside the interval.
    """
    grid = pair.grid
    fx = derivative(pair.first, grid)
    density = fx ** 2 + pair.first ** 2 + pair.second ** 2
    if interval is not None:
        density = density[_interval_slice(grid, interval)]
    total = _trapezoid(density, grid.h)
    return float(np.sqrt(max(total, 0.0)))


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


def parity_check(values, grid: GridSpec, kind: str) -> float:
    """Max node-wise defect from odd/even symmetry on a symmetric grid.

    Returns max_i |f(x_i) - f(-x_i)| for kind="even" and
    max_i |f(x_i) + f(-x_i)| for kind="odd".
    """
    grid.require_symmetric()
    f = _as_field(values, grid, "values")
    if kind == "even":
        return float(np.max(np.abs(f - f[::-1])))
    if kind == "odd":
        return float(np.max(np.abs(f + f[::-1])))
    raise ParameterError(f"parity kind must be 'odd' or 'even', got {kind!r}")


# --- the scheme's 3-point lattice: `derivative`'s end rows, which the transform
# solves meet, and the evolver's CFL factor, second difference and centre rule

_CFL = 0.9  # the largest dt / h the leapfrog step accepts


def derivative(values, grid: GridSpec) -> np.ndarray:
    """First derivative: centered second order inside, one-sided second order at ends."""
    f = _as_field(values, grid, "values")
    h = grid.h
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return out


def _fix_boundary_rows(w, r, c, h):
    """Set w[0] and w[-1], given the rest of w, so that derivative(w) + c w = r holds
    in ``derivative``'s one-sided end rows; the transform solves' trapezoid relations
    miss them, leaving a boundary layer that slows Newton for slowly decaying data."""
    w[0] = (r[0] - (4.0 * w[1] - w[2]) / (2.0 * h)) / (-3.0 / (2.0 * h) + c[0])
    w[-1] = (r[-1] + (4.0 * w[-2] - w[-3]) / (2.0 * h)) / (3.0 / (2.0 * h) + c[-1])


def _second_difference(u, slope, out):
    """Write the forward slopes u[j+1] - u[j] into ``slope`` and their
    differences, h^2 u_xx at the interior nodes, into ``out``; allocates nothing."""
    np.subtract(u[1:], u[:-1], slope)
    np.subtract(slope[1:], slope[:-1], out)


def _half_grid(a, sign):
    """A copy of the nodes of the full-grid ``a`` that a run keeping the parity
    ``sign`` holds, from the ghost node m - 1 left of the centre m, with an odd
    run's centre set to 0 and ``_centre_rule`` applied."""
    m = a.size // 2
    u = a[m - 1:].copy()
    if sign < 0:
        u[1] = 0.0
    return _centre_rule(u, sign)


def _centre_rule(u, sign):
    """Apply the half grid's centre rule to u, as runs do after each drift; returns u.
    The ghost node left of the centre m mirrors node m + 1 with the parity's sign, so
    h^2 u_xx at m is 2 (u[m+1] - u[m]) for an even run and 0 for an odd one, whose
    centre, with N(0) = 0, then stays exactly 0."""
    u[0] = sign * u[2]
    return u
