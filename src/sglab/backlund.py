"""Backlund residual functionals and the lifting/descent solvers.

The first-order transform links two solutions phi (vacuum side) and psi (kink
side) through a parameter a.  Every map solves it around one background: the
kink or the wobbler on the kink side, the vacuum or the breather on the vacuum
side, and the multiplier a.  Two damped Newton solvers act on a background;
their linear steps are the exact integrating-factor solves of the equations
linearized at the current iterate:

* the kink-side solver integrates the growing factor outward from the
  center, so every kernel ratio stays <= 1;
* the vacuum-side solver integrates the decaying factor inward from the
  boundaries, after checking the compatibility integral that parity must
  annihilate.

The public maps check the parity of what enters and the solvers check the
parity of what leaves, so each map's contract holds both ways.  Background
profiles always enter residuals through their analytic derivatives; only the
unknown perturbations are differentiated discretely.  This keeps fixed points
of the solvers exact at the discrete level, so forward and backward maps
invert each other to solver tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grids import (
    ContractError,
    FieldState,
    GridSpec,
    PerturbationPair,
    SolverError,
    _fix_boundary_rows,
    _running_trapezoid,
    _trapezoid,
    derivative,
    local_energy_norm,
    momentum,
    parity_check,
    quadrature,
)
from .solutions import (
    KinkParams,
    SolutionSampler,
    WobblerParams,
    _offset_multiplier,
    breather,
    wobbler,
)

__all__ = [
    "LiftReport",
    "bt_pair_residual",
    "tilde_residual",
    "construct_manifold_data",
    "lift_zero_to_kink",
    "descend_kink_to_zero",
    "lift_breather_to_wobbler",
    "descend_wobbler_to_breather",
    "lift_with_orthogonality",
    "zero_momentum_manifold_data",
]

_MAX_LOG_SPAN = 600.0  # integrating factors stay inside double range below this
_TOL = 1e-11  # Newton residual every map converges to
_MAX_ITER = 50  # Newton iterations a solve may take to reach _TOL
_PARITY_TOL = 1e-9  # input parity defect the maps accept
_RESULT_PARITY_TOL = 1e-8  # parity defect of the results the maps guarantee
_COMPAT_TOL = 1e-10  # compatibility integral the vacuum-side solves accept


@dataclass
class LiftReport:
    """Outcome of a lifting/descent solve."""

    result: PerturbationPair
    iterations: int
    final_residual: float
    parity: Optional[str]  # "odd-odd", "odd-even" or "even-even" as checked; None unchecked
    residual_history: list = field(default_factory=list)
    ortho_residual: Optional[float] = None


# --- the transform background -------------------------------------------------

def _read_only(*arrays) -> tuple:
    """The arrays, copied as read-only rows of one block.  A kept background
    then pins one heap allocation, not one per array: with one per array the
    heap stayed too fragmented for a later 800001-point array to reuse."""
    block = np.array(arrays)
    block.flags.writeable = False
    return tuple(block)


@functools.lru_cache(maxsize=1)
def _kink_fields(grid: GridSpec, kinkp: KinkParams) -> tuple:
    """(Q - pi, Q_x, Q_t) of the kink on the grid, read-only.  A round trip
    solves twice around one background, so the last one asked for is kept."""
    x = grid.x
    return _read_only(kinkp.q(x) - np.pi, kinkp.q_x(x), kinkp.q_t(x))


@functools.lru_cache(maxsize=1)
def _wobbler_fields(grid: GridSpec, beta: float, t: float) -> tuple:
    """(W - pi, W_x, W_t, B, B_x, B_t) of the wobbler and the breather at
    time t, read-only; the last one asked for is kept."""
    w_u, w_x, w_t = wobbler(WobblerParams(beta)).fields(grid, t)
    return _read_only(w_u - np.pi, w_x, w_t, *breather(beta).fields(grid, t))


@dataclass(frozen=True)
class _Background:
    """One background of the transform: the kink side (Psi - pi, Psi_x, Psi_t),
    the vacuum side (Phi, Phi_x, Phi_t), all analytic, and the multiplier a.

    Perturbations (u, s) ride on the kink side and (y, v) on the vacuum side,
    with discrete u_x, y_x.  With p = (Psi + u + Phi + y)/2 and
    m = (Psi + u - Phi - y)/2 the residuals are

        F1 = Psi_x + u_x - Phi_t - v - cos(p)/a - a cos(m)
        F2 = Psi_t + s - Phi_x - y_x - cos(p)/a + a cos(m)

    and they linearize with two coefficients:

        coeff       = sin(p)/(2a) + (a/2) sin(m):  dF1/du = d/dx + coeff,
                                                   dF2/dy = -(d/dx - coeff)
        cross_coeff = sin(p)/(2a) - (a/2) sin(m):  dF2/du = dF1/dy = cross_coeff

    ``_Angles`` evaluates the trig terms.
    """

    psi: np.ndarray
    psi_x: np.ndarray
    psi_t: np.ndarray
    phi: object  # an array, or the scalar 0.0 for the vacuum
    phi_x: object
    phi_t: object
    a: float

    @classmethod
    def kink(cls, grid: GridSpec, a: float, kinkp: KinkParams = KinkParams()) -> "_Background":
        """The kink `kinkp` (static by default) over the vacuum, with multiplier a."""
        return cls(*_kink_fields(grid, kinkp), 0.0, 0.0, 0.0, a)

    @classmethod
    def wobbler(cls, grid: GridSpec, beta: float, t: float) -> "_Background":
        """The wobbler over the breather at time t, with multiplier 1."""
        return cls(*_wobbler_fields(grid, beta, t), 1.0)


class _Angles:
    """The trig terms of a background's residuals for one solve, whose
    unknown w is u (kink side, sign +1, y fixed) or y (vacuum side, sign -1,
    u fixed).

    The half-angles are p = P + w/2 and m = M + sign w/2, with P and M fixed
    for the solve, so their sines and cosines are taken once.  With
    (c, s) = (cos(w/2), sin(w/2)) from ``half``, angle addition makes each
    term c f + s g, with f and g fixed:

        plus        = cos(p)/a + a cos(m)  (F1 = Psi_x + u_x - Phi_t - v - plus)
        minus       = cos(p)/a - a cos(m)  (F2 = Psi_t + s - Phi_x - y_x - minus)
        coeff       = sin(p)/(2a) + (a/2) sin(m)
        cross_coeff = sin(p)/(2a) - (a/2) sin(m)

    Taking a sin M times sign gives both sides the same sums and differences
    of the fixed terms; on the vacuum side coeff and cross_coeff trade them.
    """

    def __init__(self, bg: _Background, fixed, sign: int):
        if sign > 0:
            kink_side, vacuum_side = bg.psi, bg.phi + fixed
        else:
            kink_side, vacuum_side = bg.psi + fixed, bg.phi
        p0 = 0.5 * (kink_side + vacuum_side)
        m0 = 0.5 * (kink_side - vacuum_side)
        cos_p, sin_p = np.cos(p0) / bg.a, np.sin(p0) / bg.a
        cos_m, sin_m = bg.a * np.cos(m0), sign * bg.a * np.sin(m0)
        cos_sum, cos_diff = cos_p + cos_m, cos_p - cos_m
        sin_sum, sin_diff = sin_p + sin_m, sin_p - sin_m
        self._plus = (cos_sum, -sin_sum)
        self._minus = (cos_diff, -sin_diff)
        coeff, cross = (0.5 * sin_sum, 0.5 * cos_sum), (0.5 * sin_diff, 0.5 * cos_diff)
        self._coeff, self._cross_coeff = (coeff, cross) if sign > 0 else (cross, coeff)

    @staticmethod
    def half(w) -> tuple:
        """(cos(w/2), sin(w/2)) from one tan, as in ``evolution._half_sin``:
        with t = tan(w/4) and d = 2/(1 + t^2) they are d - 1 and t d."""
        t = np.tan(0.25 * w)
        d = 2.0 / (1.0 + t * t)
        return d - 1.0, t * d

    @staticmethod
    def _at(terms, half):
        (f, g), (c, s) = terms, half
        return c * f + s * g

    def plus(self, half):
        return self._at(self._plus, half)

    def minus(self, half):
        return self._at(self._minus, half)

    def coeff(self, half):
        return self._at(self._coeff, half)

    def cross_coeff(self, half):
        return self._at(self._cross_coeff, half)


def _pair_residual(bg: _Background, u_s: PerturbationPair, y_v: PerturbationPair) -> tuple:
    grid, y = u_s.grid, y_v.first
    angles, f1, _ = _kink_side(bg, grid, y, y_v.second)
    r1, half = f1(u_s.first)
    return r1, bg.psi_t - bg.phi_x - derivative(y, grid) + u_s.second - angles.minus(half)


def tilde_residual(utilde_stilde: PerturbationPair, y_v: PerturbationPair,
                   delta: float) -> tuple:
    """Transform residuals (F1, F2) for given perturbation pairs around the
    static kink, with the kink-side maps' multiplier 1 + delta."""
    if utilde_stilde.grid != y_v.grid:
        raise ContractError("tilde_residual needs matching grids")
    bg = _Background.kink(utilde_stilde.grid, _offset_multiplier(delta))
    return _pair_residual(bg, utilde_stilde, y_v)


def bt_pair_residual(phi: SolutionSampler, psi: SolutionSampler, a: float, t: float,
                     grid: GridSpec) -> tuple:
    """Transform residuals (F1, F2) for two samplers, using analytic derivatives.

    phi is the vacuum-side solution, psi the kink-side solution:

        F1 = psi_u_x - phi_v - (1/a) sin((psi_u + phi_u)/2) - a sin((psi_u - phi_u)/2)
        F2 = psi_v - phi_u_x - (1/a) sin((psi_u + phi_u)/2) + a sin((psi_u - phi_u)/2)

    evaluated as ``_Background``'s cosine form with Psi - pi in place of psi_u,
    at zero perturbation.  This is the exact-identity evaluation: for a genuine
    transform pair the residuals are at round-off level independent of the
    grid spacing.
    """
    psi_u, psi_x, psi_t = psi.fields(grid, t)
    bg = _Background(psi_u - np.pi, psi_x, psi_t, *phi.fields(grid, t), a)
    zero = PerturbationPair(grid, np.zeros(grid.n_points), np.zeros(grid.n_points))
    return _pair_residual(bg, zero, zero)


# --- integrating-factor linear solves ----------------------------------------

def _log_factor(c, grid, m):
    """lw = int_{x_m}^x c, the log of the integrating factor for coefficient c."""
    lw = _running_trapezoid(c, grid.h)
    lw -= lw[m]
    span = float(np.max(lw) - np.min(lw))
    if span > _MAX_LOG_SPAN:
        raise SolverError(
            f"integrating factor spans e^{span:.0f}; domain too wide for this solve"
        )
    return lw


def _sweep(f, factor, h):
    """The running trapezoid integral of factor * f from index 0, divided by
    factor; callers pass factor = e^{e} with e shifted to at most 0, and
    _MAX_LOG_SPAN keeps e >= -600, so every factor stays bounded."""
    return _running_trapezoid(f * factor, h) / factor


def _solve_outward(c, f, grid, m):
    """Solve w' + c w = f with w(x_m) = 0, integrating outward from m.

    w(x) = e^{-lw(x)} int_{x_m}^x e^{lw} f with lw = int_{x_m}^x c; computed
    per half with the maximum log subtracted so every factor stays bounded.
    """
    h = grid.h
    lw = _log_factor(c, grid, m)
    w = np.empty_like(f)
    # right half (center .. right boundary)
    lwr = lw[m:]
    w[m:] = _sweep(f[m:], np.exp(lwr - lwr.max()), h)
    # left half, reversed so index 0 is the center
    lwl = lw[:m + 1][::-1]
    w[:m + 1] = (-_sweep(f[:m + 1][::-1], np.exp(lwl - lwl.max()), h))[::-1]
    _fix_boundary_rows(w, f, c, h)
    return w


def _solve_inward(c, f, grid, m):
    """Solve w' - c w = f where e^{-lw}, lw = int_{x_m}^x c, decays at both ends.

    w(x) = e^{lw(x)} int_{-inf}^x e^{-lw} f, integrated inward from each
    boundary; requires the compatibility integral int e^{-lw} f = 0, which is
    checked against _COMPAT_TOL (in the max-normalized weight) before
    integrating.
    """
    h = grid.h
    lw = _log_factor(c, grid, m)
    base = lw.min()
    weight = np.exp(-(lw - base))
    total = _trapezoid(weight * f, h)
    if abs(total) > _COMPAT_TOL:
        raise ContractError(
            f"compatibility integral {total:.3e} exceeds {_COMPAT_TOL:.1e}; "
            f"inputs have lost the required parity"
        )
    w = np.empty_like(f)
    # left half: accumulate from the left boundary
    w[:m + 1] = _sweep(f[:m + 1], weight[:m + 1], h)
    # right half: accumulate from the right boundary, reversed
    w[m:] = (-_sweep(f[m:][::-1], weight[m:][::-1], h))[::-1]
    _fix_boundary_rows(w, f, -c, h)
    return w


def _newton(residual_fn, step_fn, n):
    """Damped Newton from u = 0 with integrating-factor linear solves.

    ``residual_fn(u)`` returns the residual and the half-angle trig of u
    (``_Angles.half``); ``step_fn(half, r)`` returns the correction for
    residual r, re-linearizing with the trig of the current iterate.  Steps
    are halved (up to 6 times) whenever the residual would grow.  The one
    success is max|r| <= _TOL: a residual that is still above it after
    _MAX_ITER iterations, or that turns non-finite, raises ``SolverError``
    with the residual history.

    Returns (u, half, iterations, residual, history), where half is the trig
    of u and history holds the residual before the first and after every
    iteration.
    """
    u = np.zeros(n)
    r, half = residual_fn(u)
    rmax = float(np.max(np.abs(r)))
    history = [rmax]
    while not rmax <= _TOL:  # a NaN residual enters too, and raises
        if not math.isfinite(rmax):
            raise SolverError("residual became non-finite", history)
        if len(history) > _MAX_ITER:
            raise SolverError(
                f"no convergence after {_MAX_ITER} iterations (residual {rmax:.3e})", history)
        delta = step_fn(half, r)
        lam = 1.0
        for _ in range(6):
            u_new = u + lam * delta
            r_new, half_new = residual_fn(u_new)
            r_new_max = float(np.max(np.abs(r_new)))
            if r_new_max < rmax or not math.isfinite(r_new_max):
                break
            lam *= 0.5
        u, r, half, rmax = u_new, r_new, half_new, r_new_max
        history.append(rmax)
    return u, half, len(history) - 1, rmax, history


def _center_index(grid: GridSpec, center: float = 0.0) -> int:
    return int(np.argmin(np.abs(grid.x - center)))


def _require_parity(values, grid, kind, what, tol=None):
    """Return `values` as a float array, raising unless it has parity `kind`
    to `tol` (default: _PARITY_TOL as it is at the call)."""
    values = np.asarray(values, dtype=float)
    tol = _PARITY_TOL if tol is None else tol
    defect = parity_check(values, grid, kind)
    if not defect <= tol:  # a NaN defect fails too
        raise ContractError(f"{what} must be {kind} (defect {defect:.3e} > {tol:.1e})")
    return values


# --- the two Newton solvers -----------------------------------------------------

def _kink_side(bg: _Background, grid: GridSpec, y, v) -> tuple:
    """(angles, f1, read_s) of a kink-side solve for u given (y, v): its
    ``_Angles``, F1 as a function of u returning (F1, the trig of u), and the
    read-off s = -F2(u, 0, y, y_x) from the trig of u."""
    angles = _Angles(bg, y, 1)
    f1_fixed = bg.psi_x - bg.phi_t - v  # the terms of F1 that do not move with u
    f2_fixed = bg.psi_t - bg.phi_x - derivative(y, grid)

    def f1(u):
        half = angles.half(u)
        return f1_fixed + derivative(u, grid) - angles.plus(half), half

    def read_s(half):
        return angles.minus(half) - f2_fixed

    return angles, f1, read_s


def _solve_kink_side(bg: _Background, grid: GridSpec, y, v, parity: str) -> LiftReport:
    """Solve F1 = 0 for the kink-side u given (y, v), then read off
    s = -F2(u, 0, y, y_x); the result (u, s) must have `parity`.

    Each Newton step integrates the growing factor exp(int coeff) outward from
    the center node.
    """
    m = _center_index(grid)
    angles, f1, read_s = _kink_side(bg, grid, y, v)

    def step(half, r):
        return -_solve_outward(angles.coeff(half), r, grid, m)

    u, half, iters, rmax, history = _newton(f1, step, grid.n_points)
    s = read_s(half)
    for values, kind, what in zip((u, s), parity.split("-"), ("u", "s")):
        _require_parity(values, grid, kind, what, _RESULT_PARITY_TOL)
    return LiftReport(PerturbationPair(grid, u, s), iters, rmax, parity, history)


def _solve_vacuum_side(bg: _Background, grid: GridSpec, u, s) -> LiftReport:
    """Solve F2 = 0 for the vacuum-side y given (u, s), then read off
    v = F1(u, u_x, y, 0); the result (y, v) must be (even, even).

    Each Newton step integrates the decaying factor exp(-int coeff) inward
    from the boundaries, after checking the compatibility integral.
    """
    m = _center_index(grid)
    angles = _Angles(bg, u, -1)
    f2_fixed = bg.psi_t + s - bg.phi_x  # the terms of F2 that do not move with y

    def residual(y):
        half = angles.half(y)
        return f2_fixed - derivative(y, grid) - angles.minus(half), half

    def step(half, r):
        return _solve_inward(angles.coeff(half), r, grid, m)

    y, half, iters, rmax, history = _newton(residual, step, grid.n_points)
    v = bg.psi_x + derivative(u, grid) - bg.phi_t - angles.plus(half)
    _require_parity(y, grid, "even", "y", _RESULT_PARITY_TOL)
    _require_parity(v, grid, "even", "v", _RESULT_PARITY_TOL)
    return LiftReport(PerturbationPair(grid, y, v), iters, rmax, "even-even", history)


# --- the kink-side maps -------------------------------------------------------

def construct_manifold_data(grid: GridSpec, y0, v0, delta: float) -> LiftReport:
    """Map (y0 odd, v0 even, delta) near the vacuum to the unique (odd, even)
    kink-side data solving the transform with multiplier 1 + delta."""
    y0 = _require_parity(y0, grid, "odd", "y0")
    v0 = _require_parity(v0, grid, "even", "v0")
    guard = local_energy_norm(PerturbationPair(grid, y0, v0))
    if guard >= 0.5:
        raise ContractError(f"input norm {guard:.3f} >= 0.5; outside the solvable ball")
    mult = _offset_multiplier(delta)
    return _solve_kink_side(_Background.kink(grid, mult), grid, y0, v0, "odd-even")


def lift_zero_to_kink(grid: GridSpec, y, v) -> LiftReport:
    """Map a small (even, even) vacuum perturbation to the unique (odd, odd)
    perturbation of the static kink (transform parameter fixed at 1)."""
    y = _require_parity(y, grid, "even", "y")
    v = _require_parity(v, grid, "even", "v")
    return _solve_kink_side(_Background.kink(grid, 1.0), grid, y, v, "odd-odd")


def descend_kink_to_zero(grid: GridSpec, u, s) -> LiftReport:
    """Map a small (odd, odd) perturbation of the static kink to the unique
    (even, even) vacuum perturbation (transform parameter 1).

    Solves the second transform equation for y with the decaying integrating
    factor sech x, integrating inward; the compatibility integral vanishes by
    parity and is checked.
    """
    u = _require_parity(u, grid, "odd", "u")
    s = _require_parity(s, grid, "odd", "s")
    return _solve_vacuum_side(_Background.kink(grid, 1.0), grid, u, s)


# --- the wobbler-side maps ----------------------------------------------------

def lift_breather_to_wobbler(grid: GridSpec, y, v, beta: float, t: float) -> LiftReport:
    """Map a small (even, even) breather perturbation to the unique (odd, odd)
    wobbler perturbation at time t.

    The integrating factor has no closed form; its logarithm is accumulated by
    trapezoid quadrature of sin(W_tilde/2) cos(B/2) and applied in log form.
    """
    y = _require_parity(y, grid, "even", "y")
    v = _require_parity(v, grid, "even", "v")
    return _solve_kink_side(_Background.wobbler(grid, beta, t), grid, y, v, "odd-odd")


def descend_wobbler_to_breather(grid: GridSpec, u, s, beta: float, t: float) -> LiftReport:
    """Map a small (odd, odd) wobbler perturbation to the unique (even, even)
    breather perturbation at time t.

    The decaying integrating factor is integrated inward from the boundaries;
    a compatibility integral above _COMPAT_TOL signals parity corruption of
    the inputs and raises.
    """
    u = _require_parity(u, grid, "odd", "u")
    s = _require_parity(s, grid, "odd", "s")
    return _solve_vacuum_side(_Background.wobbler(grid, beta, t), grid, u, s)


# --- lifting with an orthogonality constraint ----------------------------------

def lift_with_orthogonality(grid: GridSpec, y, v, delta: float, beta: float,
                            rho: float, t: float) -> LiftReport:
    """Solve the kink-centered transform around the moving kink at center
    beta*t + rho, fixing the free integration constant by orthogonality.

    The solution family of the first transform equation is one-dimensional:
    its linearization w' + coeff w = f has the decaying kernel e^{-int coeff}.
    One Newton solve appends the constraint g(u) = int (u Q_x + s Q_tx) dx,
    with s = -F2(u, 0, y, y_x), to the residual F1.  Each bordered step adds
    to the pinned kink-side step the multiple of the kernel that makes the
    linearized g zero, and no kernel while that is already at most _TOL.
    """
    kinkp = KinkParams(beta, rho).at(t)
    mult = _offset_multiplier(delta)
    y, v = np.asarray(y, dtype=float), np.asarray(v, dtype=float)
    center = kinkp.x0
    if not grid.x_min < center < grid.x_max:
        raise ContractError(f"kink center {center:.3f} outside the grid")
    m = _center_index(grid, center)
    q_x, q_tx = kinkp.q_x(grid.x), kinkp.q_tx(grid.x)
    norm_sq = quadrature(q_x ** 2 + q_tx ** 2, grid)
    if norm_sq < 1e-8:
        raise SolverError("orthogonality normalization is ill-conditioned")
    angles, f1, read_s = _kink_side(_Background.kink(grid, mult, kinkp), grid, y, v)

    def g(u, s):
        return quadrature(u * q_x + s * q_tx, grid)

    def residual(u):
        r, half = f1(u)
        return np.append(r, g(u, read_s(half))), half

    def step(half, r):
        c = angles.coeff(half)
        w = -_solve_outward(c, r[:-1], grid, m)
        dg = q_x - angles.cross_coeff(half) * q_tx  # dg.z = int z dg, as ds/du = -cross_coeff
        g_lin = r[-1] + quadrature(w * dg, grid)
        if abs(g_lin) <= _TOL:
            return w
        kernel = np.exp(-_log_factor(c, grid, m))
        slope = quadrature(kernel * dg, grid)
        if abs(slope) < 1e-10:
            raise SolverError("orthogonality constraint is degenerate")
        return w - (g_lin / slope) * kernel

    u, half, iters, rmax, history = _newton(residual, step, grid.n_points)
    s = read_s(half)
    return LiftReport(PerturbationPair(grid, u, s), iters, rmax, None, history, g(u, s))


def zero_momentum_manifold_data(grid: GridSpec, y0):
    """Kink-side data for (y0, 0) with exactly zero discrete momentum.

    The construction at offset delta = 0 has zero momentum in the continuum;
    on the grid a residue of order h^2 survives, which would mask the
    quadratic smallness of the tracked shift rate.  A scalar Newton iteration
    on delta (slope -4 at delta = 0) removes it; after 12 steps with
    |P| > 1e-12 it raises ``SolverError`` with the momentum of each step.

    Returns (LiftReport, delta).
    """
    y0 = np.asarray(y0, dtype=float)
    q = KinkParams().q(grid.x)
    zero = np.zeros_like(y0)
    delta = 0.0
    history = []
    for _ in range(12):
        rep = construct_manifold_data(grid, y0, zero, delta)
        p = momentum(FieldState(0.0, grid, q + rep.result.first, rep.result.second))
        history.append(p)
        if abs(p) <= 1e-12:
            return rep, delta
        delta += p / 4.0
    raise SolverError(f"momentum {p:.3e} still above 1e-12 after 12 offset steps", history)

