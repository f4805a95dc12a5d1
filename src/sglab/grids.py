"""Uniform spatial grids, quadrature, discrete derivatives, norms, parity tools.

Everything downstream (samplers, Backlund solvers, the evolver) works on the
same uniform-grid substrate defined here, so that discrete conservation and
round-trip statements are clean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    "DEFAULT_GRID",
    "quadrature",
    "cumulative_quadrature",
    "derivative",
    "second_derivative",
    "dirichlet_second_derivative",
    "pde_residual",
    "weighted_norm_sq",
    "local_energy_norm",
    "pair_norm",
    "parity_check",
]

PARITY_TAGS = ("odd-odd", "odd-even", "even-even", "even-odd", "none")


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
        if not self.x_min < self.x_max:
            raise ParameterError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_points < 3:
            raise ParameterError(f"need n_points >= 3, got {self.n_points}")
        object.__setattr__(self, "_x", np.linspace(self.x_min, self.x_max, self.n_points))

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def x(self) -> np.ndarray:
        return self._x

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        """True when the grid is mirror-symmetric about 0 with a node at 0."""
        return abs(self.x_min + self.x_max) <= tol and self.n_points % 2 == 1

    def require_symmetric(self):
        if not self.is_symmetric():
            raise ContractError(
                f"operation needs a symmetric grid with odd n_points; "
                f"got [{self.x_min}, {self.x_max}] with n={self.n_points}"
            )

    def refined(self, factor: int = 2) -> "GridSpec":
        """Same span with spacing divided by `factor` (node set includes the old one)."""
        return GridSpec(self.x_min, self.x_max, factor * (self.n_points - 1) + 1)


#: Default working grid: h = 0.02 on [-40, 40], symmetric with a node at 0.
DEFAULT_GRID = GridSpec(-40.0, 40.0, 4001)


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

    def copy(self) -> "FieldState":
        return FieldState(self.t, self.grid, self.u.copy(), self.v.copy())


@dataclass
class PerturbationPair:
    """A (first, second) pair of grid functions with a declared spatial parity.

    The tag is one of ``odd-odd``, ``odd-even``, ``even-even``, ``even-odd`` or
    ``none``; a non-``none`` tag is verified on construction against
    ``parity_tol`` (absolute, node-wise).
    """

    grid: GridSpec
    first: np.ndarray
    second: np.ndarray
    parity_tag: str = "none"
    parity_tol: float = 1e-9

    def __post_init__(self):
        self.first = _as_field(self.first, self.grid, "first")
        self.second = _as_field(self.second, self.grid, "second")
        if self.parity_tag not in PARITY_TAGS:
            raise ParameterError(f"unknown parity tag {self.parity_tag!r}")
        if self.parity_tag != "none":
            kinds = self.parity_tag.split("-")
            for values, kind, name in ((self.first, kinds[0], "first"),
                                       (self.second, kinds[1], "second")):
                defect = parity_check(values, self.grid, kind)
                if defect > self.parity_tol:
                    raise ContractError(
                        f"{name} component fails {kind} parity: defect {defect:.3e} "
                        f"> {self.parity_tol:.1e}"
                    )


@dataclass(frozen=True)
class Model:
    """Scalar field model on the line: u_tt - u_xx + N(u) = 0."""

    kind: str  # "sine-gordon" or "phi4"

    def __post_init__(self):
        if self.kind not in ("sine-gordon", "phi4"):
            raise ParameterError(f"unknown model {self.kind!r}")

    def nonlinearity(self, u):
        """N(u): sin(u) for sine-Gordon, -u + u^3 for phi^4."""
        if self.kind == "sine-gordon":
            return np.sin(u)
        return u * u * u - u

    def potential(self, u):
        """Potential density V with V' = N and V = 0 at the vacua."""
        if self.kind == "sine-gordon":
            return 1.0 - np.cos(u)
        return 0.25 * (1.0 - u * u) ** 2

    def perturbation_force(self, background, u):
        """N(background + u) - N(background), written to stay exact for u = 0.

        For sine-Gordon this is sin(Q)(cos u - 1) + cos(Q) sin u, which is the
        form that keeps odd parity of u manifestly preserved around a kink.
        """
        return self.force_from_terms(self.background_terms(background), u)

    def background_terms(self, background) -> tuple:
        """The factors of the perturbation force that depend on the background Q
        alone: (sin Q, cos Q) for sine-Gordon, (3 Q^2 - 1, 3 Q) for phi^4.

        A caller whose background does not change computes them once.
        """
        if self.kind == "sine-gordon":
            return np.sin(background), np.cos(background)
        q3 = 3.0 * background
        return q3 * background - 1.0, q3

    def force_from_terms(self, terms, u, out=None, work=None):
        """``perturbation_force`` from precomputed ``background_terms``.

        The result is written into ``out`` (allocated when None); ``work`` is a
        scratch array of the same shape.  The operations are those of the
        expanded formula in the same order, so the values are bitwise equal.
        """
        u = np.asarray(u, dtype=float)
        if out is None:
            out = np.empty(np.broadcast_shapes(u.shape, np.shape(terms[0])))
        if work is None:
            work = np.empty_like(out)
        if self.kind == "sine-gordon":
            sin_q, cos_q = terms
            np.cos(u, out=out)
            out -= 1.0
            out *= sin_q
            np.sin(u, out=work)
            work *= cos_q
            out += work
            return out
        linear, quadratic = terms
        np.multiply(linear, u, out=out)
        np.multiply(quadratic, u, out=work)
        work *= u
        out += work
        np.power(u, 3, out=work)
        out += work
        return out


SINE_GORDON = Model("sine-gordon")
PHI4 = Model("phi4")


@dataclass(frozen=True)
class WeightSpec:
    """Exponential weight e^{-rate |x - center|} used in local-decay integrals."""

    rate: float
    center: float = 0.0

    def __post_init__(self):
        if not self.rate > 0:
            raise ParameterError(f"weight rate must be positive, got {self.rate}")

    def values(self, x):
        return np.exp(-self.rate * np.abs(x - self.center))


def quadrature(values, grid: GridSpec) -> float:
    """Trapezoid-rule integral over the grid; exact for piecewise-linear data."""
    arr = _as_field(values, grid, "values")
    return grid.h * (arr.sum() - 0.5 * (arr[0] + arr[-1]))


def cumulative_quadrature(values, grid: GridSpec) -> np.ndarray:
    """Running trapezoid integral from x_min; entry i is the integral up to x_i."""
    arr = _as_field(values, grid, "values")
    out = np.empty_like(arr)
    out[0] = 0.0
    np.cumsum(0.5 * grid.h * (arr[1:] + arr[:-1]), out=out[1:])
    return out


def derivative(values, grid: GridSpec) -> np.ndarray:
    """First derivative: centered second order inside, one-sided second order at ends."""
    f = _as_field(values, grid, "values")
    h = grid.h
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return out


def second_derivative(values, grid: GridSpec) -> np.ndarray:
    """Second derivative: centered inside, one-sided second order at the ends."""
    f = _as_field(values, grid, "values")
    h2 = grid.h ** 2
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h2
    if grid.n_points >= 4:
        out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h2
        out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h2
    else:
        out[0] = out[1]
        out[-1] = out[1]
    return out


def dirichlet_second_derivative(values, grid: GridSpec) -> np.ndarray:
    """Second derivative with zero ghost values outside the grid (Dirichlet closure)."""
    f = _as_field(values, grid, "values")
    h2 = grid.h ** 2
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h2
    out[0] = (f[1] - 2.0 * f[0]) / h2
    out[-1] = (f[-2] - 2.0 * f[-1]) / h2
    return out


def pde_residual(sampler, model: Model, t: float, grid: GridSpec, dt: float) -> np.ndarray:
    """Residual u_tt - u_xx + N(u) of a sampler, per node.

    u_tt comes from a centered difference of the sampler in time with step dt,
    u_xx from centered space differences; for an exact solution the max residual
    is O(dt^2 + h^2).
    """
    if not dt > 0:
        raise ParameterError("dt must be positive")
    x = grid.x
    u_m = np.asarray(sampler.value(t - dt, x), dtype=float)
    u_0 = np.asarray(sampler.value(t, x), dtype=float)
    u_p = np.asarray(sampler.value(t + dt, x), dtype=float)
    for arr in (u_m, u_0, u_p):
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise ContractError(f"non-finite sample at node {bad} (x={x[bad]:.6g})")
    u_tt = (u_p - 2.0 * u_0 + u_m) / dt ** 2
    u_xx = second_derivative(u_0, grid)
    return u_tt - u_xx + model.nonlinearity(u_0)


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
    if interval is None:
        total = quadrature(density, grid)
    else:
        sl = _interval_slice(grid, interval)
        sub = density[sl]
        total = grid.h * (sub.sum() - 0.5 * (sub[0] + sub[-1]))
    return float(np.sqrt(max(total, 0.0)))


def pair_norm(pair: PerturbationPair) -> float:
    """Full-line H^1 x L^2 norm of the pair."""
    return local_energy_norm(pair, None)


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
