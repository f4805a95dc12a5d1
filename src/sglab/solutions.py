"""Closed-form solutions and linear modes, packaged as samplers.

Every sampler is a pure map (t, x) -> value with analytic time derivative and,
where a closed form is printed below, an analytic space derivative as well.
Hyperbolic products that would overflow in double precision are evaluated from
log-magnitudes with shared max-subtraction, so samplers are total on R^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grids import FieldState, GridSpec, ParameterError

__all__ = [
    "SolutionSampler",
    "KinkParams",
    "WobblerParams",
    "ThreeSolitonParams",
    "KinkProfile",
    "kink",
    "kink_profile",
    "breather",
    "breather_half_angle",
    "wobbler",
    "wobbler_half_angle",
    "wobbler_arg_form_gap",
    "two_kink",
    "three_soliton",
    "phi4_kink",
    "linear_mode",
    "LINEAR_MODE_NAMES",
    "boost",
    "zero_sampler",
]

_LOG2 = math.log(2.0)


def _sech(x):
    # 1/cosh overflows to 0 cleanly past |x| ~ 710; suppress the spurious warning
    with np.errstate(over="ignore"):
        return 1.0 / np.cosh(x)


def _arctan_exp(a):
    """arctan(e^a), evaluated without overflow for large |a|."""
    a = np.asarray(a, dtype=float)
    small = np.arctan(np.exp(-np.abs(a)))
    return np.where(a > 0, 0.5 * np.pi - small, small)


def _log_cosh(u):
    au = np.abs(u)
    return au + np.log1p(np.exp(-2.0 * au)) - _LOG2


# --- log-scaled numbers -----------------------------------------------------
# A value y is carried as (lg, frac) with y = frac * e^lg and |frac| = O(1).
# Sums use shared max-subtraction; this keeps cosh/sinh products finite for
# arbitrarily large arguments.

def _sc_cosh(u):
    au = np.abs(u)
    return au, 0.5 * (1.0 + np.exp(-2.0 * au))


def _sc_sinh(u):
    au = np.abs(u)
    return au, np.sign(u) * 0.5 * (1.0 - np.exp(-2.0 * au))


def _sc_const(c, like):
    return np.zeros_like(like), np.broadcast_to(np.asarray(c, dtype=float), np.shape(like)).copy()


def _sc_mul(*terms):
    lg = sum(t[0] for t in terms)
    frac = terms[0][1]
    for t in terms[1:]:
        frac = frac * t[1]
    return lg, frac


def _sc_add(*terms):
    lg_max = terms[0][0]
    for t in terms[1:]:
        lg_max = np.maximum(lg_max, t[0])
    total = sum(t[1] * np.exp(t[0] - lg_max) for t in terms)
    return lg_max, total


def _sc_ratio(num, den):
    """num/den of two scaled numbers, as a plain float array (may overflow to inf)."""
    lg = num[0] - den[0]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return (num[1] / den[1]) * np.exp(lg)


def _sc_arctan_of_ratio(num, den):
    """arctan(num/den) for scaled numbers, stable when the ratio is huge."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = num[0] - den[0] + np.log(np.abs(num[1])) - np.log(np.abs(den[1]))
    sign = np.sign(num[1]) * np.sign(den[1])
    lg = np.where(np.isnan(lg), -np.inf, lg)
    inner = np.arctan(np.exp(-np.abs(lg)))
    return np.where(lg > 0, sign * (0.5 * np.pi - inner), sign * inner)


# --- sampler type -----------------------------------------------------------

@dataclass(frozen=True)
class SolutionSampler:
    """Pure evaluator of a space-time function and its time derivative.

    ``dvalue_dx`` is present whenever a closed-form space derivative exists;
    consumers fall back to finite differences when it is None.
    """

    label: str
    value: Callable
    dvalue_dt: Callable
    dvalue_dx: Optional[Callable] = None

    def sample(self, grid: GridSpec, t: float) -> FieldState:
        x = grid.x
        return FieldState(t, grid, np.asarray(self.value(t, x), dtype=float),
                          np.asarray(self.dvalue_dt(t, x), dtype=float))


def zero_sampler() -> SolutionSampler:
    z = lambda t, x: np.zeros_like(np.asarray(x, dtype=float))
    return SolutionSampler("zero", z, z, z)


# --- kinks ------------------------------------------------------------------

@dataclass(frozen=True)
class KinkParams:
    """Speed and shift of a sine-Gordon kink; |beta| < 1."""

    beta: float = 0.0
    x0: float = 0.0

    def __post_init__(self):
        if not abs(self.beta) < 1:
            raise ParameterError(f"kink speed must satisfy |beta| < 1, got {self.beta}")

    @property
    def gamma(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.beta ** 2)


def kink(p: KinkParams) -> SolutionSampler:
    """Moving kink 4 arctan(e^{gamma (x - beta t + x0)}), an exact solution."""
    g, b, x0 = p.gamma, p.beta, p.x0

    def value(t, x):
        return 4.0 * _arctan_exp(g * (np.asarray(x, dtype=float) - b * t + x0))

    def d_dt(t, x):
        return -2.0 * b * g * _sech(g * (np.asarray(x, dtype=float) - b * t + x0))

    def d_dx(t, x):
        return 2.0 * g * _sech(g * (np.asarray(x, dtype=float) - b * t + x0))

    return SolutionSampler(f"kink(beta={b}, x0={x0})", value, d_dt, d_dx)


@dataclass(frozen=True)
class KinkProfile:
    """Static-in-time kink profile family centered at x0, with speed tag beta.

    Q(x) = 4 arctan(e^{gamma (x - x0)}),  Q_x = 2 gamma sech(gamma (x - x0)),
    Q_t = -2 beta gamma sech(gamma (x - x0)).  The shifted profile
    Q - pi is odd about the center, and its half-angle satisfies
    sin((Q - pi)/2) = tanh(gamma (x - x0)), cos((Q - pi)/2) = sech(gamma (x - x0)).
    """

    beta: float
    x0: float
    gamma: float

    def _arg(self, x):
        return self.gamma * (np.asarray(x, dtype=float) - self.x0)

    def q(self, x):
        return 4.0 * _arctan_exp(self._arg(x))

    def q_tilde(self, x):
        return self.q(x) - np.pi

    def q_x(self, x):
        return 2.0 * self.gamma * _sech(self._arg(x))

    def q_t(self, x):
        return -2.0 * self.beta * self.gamma * _sech(self._arg(x))

    def q_tx(self, x):
        a = self._arg(x)
        return 2.0 * self.beta * self.gamma ** 2 * _sech(a) * np.tanh(a)

    def q_xx(self, x):
        a = self._arg(x)
        return -2.0 * self.gamma ** 2 * _sech(a) * np.tanh(a)

    def q_txx(self, x):
        a = self._arg(x)
        return 2.0 * self.beta * self.gamma ** 3 * _sech(a) * (1.0 - 2.0 * np.tanh(a) ** 2)

    def sin_cos_q(self, x):
        """(sin Q, cos Q) in closed form, (-2 sech tanh, 1 - 2 sech^2), with no arctan."""
        a = self._arg(x)
        s = _sech(a)
        return -2.0 * s * np.tanh(a), 1.0 - 2.0 * s * s

    def sin_half_tilde(self, x):
        return np.tanh(self._arg(x))

    def cos_half_tilde(self, x):
        return _sech(self._arg(x))


def kink_profile(p: KinkParams) -> KinkProfile:
    """Profile family (Q, Q_x, Q_t) centered at p.x0 for speed tag p.beta."""
    return KinkProfile(p.beta, p.x0, p.gamma)


# --- breather ---------------------------------------------------------------

def _check_breather_beta(beta):
    if beta == 0 or not abs(beta) < 1:
        raise ParameterError(f"breather frequency needs 0 < |beta| < 1, got {beta}")


def breather(beta: float) -> SolutionSampler:
    """Even, time-periodic breather 4 arctan(beta sin(alpha t)/(alpha cosh(beta x)))."""
    _check_breather_beta(beta)
    alpha = math.sqrt(1.0 - beta ** 2)

    def value(t, x):
        return 4.0 * np.arctan((beta / alpha) * np.sin(alpha * t) * _sech(beta * np.asarray(x, dtype=float)))

    def d_dt(t, x):
        s = _sech(beta * np.asarray(x, dtype=float))
        den = alpha ** 2 + (beta * np.sin(alpha * t) * s) ** 2
        return 4.0 * alpha ** 2 * beta * np.cos(alpha * t) * s / den

    def d_dx(t, x):
        xb = beta * np.asarray(x, dtype=float)
        s = _sech(xb)
        den = alpha ** 2 + (beta * np.sin(alpha * t) * s) ** 2
        return -4.0 * alpha * beta ** 2 * np.sin(alpha * t) * np.tanh(xb) * s / den

    return SolutionSampler(f"breather(beta={beta})", value, d_dt, d_dx)


def breather_half_angle(beta: float, t, x):
    """(sin(B/2), cos(B/2)) for the breather, from its closed form."""
    _check_breather_beta(beta)
    alpha = math.sqrt(1.0 - beta ** 2)
    s = _sech(beta * np.asarray(x, dtype=float))
    p = beta * np.sin(alpha * t) * s
    den = alpha ** 2 + p * p
    return 2.0 * alpha * p / den, (alpha ** 2 - p * p) / den


# --- wobbling kink ----------------------------------------------------------

@dataclass(frozen=True)
class WobblerParams:
    """Internal frequency parameter of the wobbling kink; beta = 0 is the plain kink."""

    beta: float

    def __post_init__(self):
        if not abs(self.beta) < 1:
            raise ParameterError(f"wobbler parameter needs |beta| < 1, got {self.beta}")

    @property
    def alpha(self) -> float:
        return math.sqrt(1.0 - self.beta ** 2)


def _wobbler_gh(beta: float, t, x):
    """Numerator/denominator data of the wobbler's arctan part and derivatives.

    All six functions are returned pre-multiplied by sech(x) sech(beta x), which
    cancels in every quotient used below and keeps them bounded on all of R.
    """
    alpha = math.sqrt(1.0 - beta ** 2)
    x = np.asarray(x, dtype=float)
    tx, tbx = np.tanh(x), np.tanh(beta * x)
    sx, sbx = _sech(x), _sech(beta * x)
    c = np.cos(alpha * t)
    s = np.sin(alpha * t)
    g = beta * (tx * c * sbx - sx * tbx)
    h = 1.0 - beta * tx * tbx - beta * c * sx * sbx
    g_t = -alpha * beta * tx * sbx * s
    h_t = alpha * beta * s * sx * sbx
    g_x = beta * (c * sbx - beta * sx)
    h_x = alpha ** 2 * tx
    return g, h, g_t, h_t, g_x, h_x


def wobbler(p: WobblerParams) -> SolutionSampler:
    """Wobbling kink: the static kink plus an odd, time-periodic, localized part.

    Evaluated as Q(x) + 4 angle(h, g) through a two-argument arctangent of the
    single-valued perturbation form, which avoids branch jumps of the principal
    arctan; h > 0 for |beta| < 1 so the angle itself is already principal.
    """
    beta = p.beta
    base = kink(KinkParams(0.0, 0.0))

    def value(t, x):
        g, h, *_ = _wobbler_gh(beta, t, x)
        return base.value(t, x) + 4.0 * np.arctan2(g, h)

    def d_dt(t, x):
        g, h, g_t, h_t, _, _ = _wobbler_gh(beta, t, x)
        return 4.0 * (g_t * h - g * h_t) / (g * g + h * h)

    def d_dx(t, x):
        g, h, _, _, g_x, h_x = _wobbler_gh(beta, t, x)
        return 2.0 * _sech(np.asarray(x, dtype=float)) + 4.0 * (g_x * h - g * h_x) / (g * g + h * h)

    return SolutionSampler(f"wobbler(beta={beta})", value, d_dt, d_dx)


def wobbler_half_angle(beta: float, t, x):
    """(sin(W_tilde/2), cos(W_tilde/2)) for W_tilde = wobbler - pi."""
    x = np.asarray(x, dtype=float)
    g, h, *_ = _wobbler_gh(beta, t, x)
    den = g * g + h * h
    tx, sx = np.tanh(x), _sech(x)
    sin_half = ((h * h - g * g) * tx + 2.0 * g * h * sx) / den
    cos_half = ((h * h - g * g) * sx - 2.0 * g * h * tx) / den
    return sin_half, cos_half


def wobbler_arg_form_gap(beta: float, t, x) -> float:
    """Max distance (mod 2pi) between the two printed wobbler forms.

    Compares the perturbation form Q + 4 angle(h, g) against the direct
    4 Arg(U + iV) complex-argument form (principal branch) at the given sample
    points; the two agree up to multiples of 2pi, and this diagnostic records
    the defect from the nearest multiple.
    """
    x = np.asarray(x, dtype=float)
    alpha = math.sqrt(1.0 - beta ** 2)
    c = np.cos(alpha * t)
    # U = cosh(bx) + b sinh(bx) - b e^x cos(at)
    # V = e^x cosh(bx) - b e^x sinh(bx) - b cos(at)
    # both scaled by e^{-|x|} sech(bx), which keeps them finite and preserves the angle
    scale_pos = np.exp(x - np.abs(x))
    scale_zero = np.exp(-np.abs(x))
    sbx, tbx = _sech(beta * x), np.tanh(beta * x)
    U = scale_zero * (1.0 + beta * tbx) - beta * scale_pos * c * sbx
    V = scale_pos * (1.0 - beta * tbx) - beta * scale_zero * c * sbx
    direct = 4.0 * np.arctan2(V, U)
    g, h, *_ = _wobbler_gh(beta, t, x)
    pert = 4.0 * _arctan_exp(x) + 4.0 * np.arctan2(g, h)
    diff = pert - direct
    k = np.round(diff / (2.0 * np.pi))
    return float(np.max(np.abs(diff - 2.0 * np.pi * k)))


# --- two-kink ---------------------------------------------------------------

def two_kink(beta: float) -> SolutionSampler:
    """Elastic two-kink collision 4 arctan(beta sinh(gamma x)/cosh(gamma beta t)).

    Odd in x, even in t, with limits -2 pi and 2 pi at x -> -/+ infinity for
    beta > 0.
    """
    if beta == 0 or not abs(beta) < 1:
        raise ParameterError(f"two-kink speed needs 0 < |beta| < 1, got {beta}")
    gamma = 1.0 / math.sqrt(1.0 - beta ** 2)

    def value(t, x):
        x = np.asarray(x, dtype=float)
        num = _sc_mul(_sc_const(beta, x), _sc_sinh(gamma * x))
        den = _sc_cosh(gamma * beta * t + np.zeros_like(x))
        return 4.0 * _sc_arctan_of_ratio(num, den)

    def d_dt(t, x):
        x = np.asarray(x, dtype=float)
        tt = gamma * beta * t + np.zeros_like(x)
        num = _sc_mul(_sc_const(-4.0 * gamma * beta ** 2, x), _sc_sinh(gamma * x), _sc_sinh(tt))
        den = _sc_add(_sc_mul(_sc_cosh(tt), _sc_cosh(tt)),
                      _sc_mul(_sc_const(beta ** 2, x), _sc_sinh(gamma * x), _sc_sinh(gamma * x)))
        return _sc_ratio(num, den)

    def d_dx(t, x):
        x = np.asarray(x, dtype=float)
        tt = gamma * beta * t + np.zeros_like(x)
        num = _sc_mul(_sc_const(4.0 * gamma * beta, x), _sc_cosh(gamma * x), _sc_cosh(tt))
        den = _sc_add(_sc_mul(_sc_cosh(tt), _sc_cosh(tt)),
                      _sc_mul(_sc_const(beta ** 2, x), _sc_sinh(gamma * x), _sc_sinh(gamma * x)))
        return _sc_ratio(num, den)

    return SolutionSampler(f"two_kink(beta={beta})", value, d_dt, d_dx)


# --- three-soliton (kink + attached moving breather) ------------------------

@dataclass(frozen=True)
class ThreeSolitonParams:
    """Frequency beta and translation speed v of the kink-plus-breather family."""

    beta: float
    v: float

    def __post_init__(self):
        if not abs(self.beta) < 1:
            raise ParameterError(f"three-soliton frequency needs |beta| < 1, got {self.beta}")
        if not abs(self.v) < 1:
            raise ParameterError(f"three-soliton speed needs |v| < 1, got {self.v}")

    @property
    def a_v(self) -> float:
        return math.sqrt((1.0 + self.v) / (1.0 - self.v))

    @property
    def alpha(self) -> float:
        return math.sqrt(1.0 - self.beta ** 2)

    @property
    def gamma_v(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.v ** 2)


def _three_soliton_parts(p: ThreeSolitonParams, t, x):
    """Scaled numerator P, denominator A2 of the arctan argument, and their
    time derivatives; the arctan argument is (beta/alpha) P / A2."""
    x = np.asarray(x, dtype=float)
    b, v = p.beta, p.v
    a_v, alpha, g = p.a_v, p.alpha, p.gamma_v
    phase = g * alpha * (t - v * x)
    sin_p, cos_p = np.sin(phase), np.cos(phase)
    w = g * b * (t * v - x)

    c1 = a_v ** 2 - 1.0
    c2 = 2.0 * a_v * alpha
    P = _sc_add(_sc_mul(_sc_const(c1, x), _sc_cosh(x), _sc_const(sin_p, x)),
                _sc_mul(_sc_const(-c2, x), _sc_const(cos_p, x), _sc_sinh(x)),
                _sc_mul(_sc_const(-c2, x), _sc_sinh(w)))
    P_t = _sc_add(_sc_mul(_sc_const(c1 * g * alpha, x), _sc_cosh(x), _sc_const(cos_p, x)),
                  _sc_mul(_sc_const(c2 * g * alpha, x), _sc_const(sin_p, x), _sc_sinh(x)),
                  _sc_mul(_sc_const(-c2 * g * b * v, x), _sc_cosh(w)))

    # combining the translation factors through cosh(wt -+ wx) = cosh(w) removes
    # an exact cancellation of the leading exponentials at large |x|
    d1 = 2.0 * a_v * b
    d2 = 1.0 + a_v ** 2
    A2 = _sc_add(_sc_mul(_sc_const(-d1, x), _sc_const(cos_p, x)),
                 _sc_mul(_sc_const(d2, x), _sc_cosh(x), _sc_cosh(w)),
                 _sc_mul(_sc_const(d1, x), _sc_sinh(x), _sc_sinh(w)))
    gvb = g * v * b
    A2_t = _sc_add(_sc_mul(_sc_const(d1 * g * alpha, x), _sc_const(sin_p, x)),
                   _sc_mul(_sc_const(d2 * gvb, x), _sc_cosh(x), _sc_sinh(w)),
                   _sc_mul(_sc_const(d1 * gvb, x), _sc_sinh(x), _sc_cosh(w)))
    return P, P_t, A2, A2_t


def three_soliton(p: ThreeSolitonParams) -> SolutionSampler:
    """Kink with an attached breather moving at speed v; v = 0 is the wobbler."""
    base = kink(KinkParams(0.0, 0.0))
    r = p.beta / p.alpha

    def value(t, x):
        P, _, A2, _ = _three_soliton_parts(p, t, x)
        return base.value(t, x) - 4.0 * _sc_arctan_of_ratio(_sc_mul(_sc_const(r, np.asarray(x, dtype=float)), P), A2)

    def d_dt(t, x):
        x = np.asarray(x, dtype=float)
        P, P_t, A2, A2_t = _three_soliton_parts(p, t, x)
        num = _sc_add(_sc_mul(P_t, A2), _sc_mul(_sc_const(-1.0, x), P, A2_t))
        den = _sc_add(_sc_mul(A2, A2), _sc_mul(_sc_const(r * r, x), P, P))
        return -4.0 * r * _sc_ratio(num, den)

    return SolutionSampler(f"three_soliton(beta={p.beta}, v={p.v})", value, d_dt, None)


# --- phi^4 kink -------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def phi4_kink() -> SolutionSampler:
    """Static phi^4 kink H(x) = tanh(x/sqrt(2)); H' = (1 - H^2)/sqrt(2)."""

    def value(t, x):
        return np.tanh(np.asarray(x, dtype=float) / _SQRT2)

    def d_dt(t, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def d_dx(t, x):
        return _sech(np.asarray(x, dtype=float) / _SQRT2) ** 2 / _SQRT2

    return SolutionSampler("phi4_kink", value, d_dt, d_dx)


# --- linear modes -----------------------------------------------------------

_OMEGA_INTERNAL = math.sqrt(1.5)
_SQRT3 = math.sqrt(3.0)


def _mode(label, f, ft, fx):
    return SolutionSampler(label, f, ft, fx)


def _tanh_s(x):
    return np.tanh(np.asarray(x, dtype=float) / _SQRT2)


def _sech_s(x):
    return _sech(np.asarray(x, dtype=float) / _SQRT2)


def _resonance_profile(x):
    """Even zero-energy profile 1 - (3/2) sech^2(x/sqrt 2) of the phi^4 operator."""
    return 1.0 - 1.5 * _sech_s(x) ** 2


def _y1(x):
    return _sech_s(x) * _tanh_s(x)


def _y0(x):
    return -(1.0 / _SQRT3) * _sech_s(x)


LINEAR_MODE_NAMES = (
    "L", "M", "L-alt", "M-alt",
    "Y0", "Y1", "Y1-sin-pair",
    "L4", "M4", "L4-alt", "M4-alt",
    "M4-complex", "N4-plus", "N4-minus",
)


def linear_mode(name: str):
    """Closed-form linear modes around the kinks and the vacua.

    Real modes return one sampler.  ``Y1-sin-pair`` returns the oscillating
    internal-mode pair (two samplers).  Complex modes return a (real part,
    imaginary part) tuple of samplers.
    """
    x_ = lambda x: np.asarray(x, dtype=float)
    if name == "L":
        return _mode("L", lambda t, x: np.tanh(x_(x)) * np.cos(t),
                     lambda t, x: -np.tanh(x_(x)) * np.sin(t),
                     lambda t, x: _sech(x_(x)) ** 2 * np.cos(t))
    if name == "M":
        return _mode("M", lambda t, x: np.full_like(x_(x), np.sin(t)),
                     lambda t, x: np.full_like(x_(x), np.cos(t)),
                     lambda t, x: np.zeros_like(x_(x)))
    if name == "L-alt":
        return _mode("L-alt", lambda t, x: -np.tanh(x_(x)) * np.sin(t),
                     lambda t, x: -np.tanh(x_(x)) * np.cos(t),
                     lambda t, x: -_sech(x_(x)) ** 2 * np.sin(t))
    if name == "M-alt":
        return _mode("M-alt", lambda t, x: np.full_like(x_(x), np.cos(t)),
                     lambda t, x: np.full_like(x_(x), -np.sin(t)),
                     lambda t, x: np.zeros_like(x_(x)))
    if name == "Y0":
        return _mode("Y0", lambda t, x: _y0(x),
                     lambda t, x: np.zeros_like(x_(x)),
                     lambda t, x: (1.0 / _SQRT3 / _SQRT2) * _sech_s(x) * _tanh_s(x))
    if name == "Y1":
        return _mode("Y1", lambda t, x: _y1(x),
                     lambda t, x: np.zeros_like(x_(x)),
                     lambda t, x: (1.0 / _SQRT2) * _sech_s(x) * (1.0 - 2.0 * _tanh_s(x) ** 2))
    if name == "Y1-sin-pair":
        w = _OMEGA_INTERNAL
        first = _mode("Y1-sin", lambda t, x: _y1(x) * np.sin(w * t),
                      lambda t, x: w * _y1(x) * np.cos(w * t),
                      lambda t, x: (1.0 / _SQRT2) * _sech_s(x) * (1.0 - 2.0 * _tanh_s(x) ** 2) * np.sin(w * t))
        second = _mode("Y0-cos", lambda t, x: _y0(x) * np.cos(w * t),
                       lambda t, x: -w * _y0(x) * np.sin(w * t),
                       lambda t, x: (1.0 / _SQRT3 / _SQRT2) * _sech_s(x) * _tanh_s(x) * np.cos(w * t))
        return first, second
    if name == "L4":
        return _mode("L4", lambda t, x: -_resonance_profile(x) * np.sin(_SQRT2 * t),
                     lambda t, x: -_SQRT2 * _resonance_profile(x) * np.cos(_SQRT2 * t),
                     lambda t, x: -(3.0 / _SQRT2) * _sech_s(x) ** 2 * _tanh_s(x) * np.sin(_SQRT2 * t))
    if name == "M4":
        return _mode("M4", lambda t, x: _tanh_s(x) * np.cos(_SQRT2 * t),
                     lambda t, x: -_SQRT2 * _tanh_s(x) * np.sin(_SQRT2 * t),
                     lambda t, x: (1.0 / _SQRT2) * _sech_s(x) ** 2 * np.cos(_SQRT2 * t))
    if name == "L4-alt":
        return _mode("L4-alt", lambda t, x: -_resonance_profile(x) * np.cos(_SQRT2 * t),
                     lambda t, x: _SQRT2 * _resonance_profile(x) * np.sin(_SQRT2 * t),
                     lambda t, x: -(3.0 / _SQRT2) * _sech_s(x) ** 2 * _tanh_s(x) * np.cos(_SQRT2 * t))
    if name == "M4-alt":
        return _mode("M4-alt", lambda t, x: -_tanh_s(x) * np.sin(_SQRT2 * t),
                     lambda t, x: -_SQRT2 * _tanh_s(x) * np.cos(_SQRT2 * t),
                     lambda t, x: -(1.0 / _SQRT2) * _sech_s(x) ** 2 * np.sin(_SQRT2 * t))
    if name == "M4-complex":
        re = _mode("M4-re", lambda t, x: _tanh_s(x) * np.cos(_SQRT2 * t),
                   lambda t, x: -_SQRT2 * _tanh_s(x) * np.sin(_SQRT2 * t),
                   lambda t, x: (1.0 / _SQRT2) * _sech_s(x) ** 2 * np.cos(_SQRT2 * t))
        im = _mode("M4-im", lambda t, x: _tanh_s(x) * np.sin(_SQRT2 * t),
                   lambda t, x: _SQRT2 * _tanh_s(x) * np.cos(_SQRT2 * t),
                   lambda t, x: (1.0 / _SQRT2) * _sech_s(x) ** 2 * np.sin(_SQRT2 * t))
        return re, im
    if name in ("N4-plus", "N4-minus"):
        # N4 = -i (2 +/- sqrt 3) e^{i sqrt 2 t}: constant in space
        amp = 2.0 + _SQRT3 if name == "N4-plus" else 2.0 - _SQRT3
        re = _mode("N4-re", lambda t, x: np.full_like(x_(x), amp * np.sin(_SQRT2 * t)),
                   lambda t, x: np.full_like(x_(x), amp * _SQRT2 * np.cos(_SQRT2 * t)),
                   lambda t, x: np.zeros_like(x_(x)))
        im = _mode("N4-im", lambda t, x: np.full_like(x_(x), -amp * np.cos(_SQRT2 * t)),
                   lambda t, x: np.full_like(x_(x), amp * _SQRT2 * np.sin(_SQRT2 * t)),
                   lambda t, x: np.zeros_like(x_(x)))
        return re, im
    raise ParameterError(f"unknown linear mode {name!r}; known: {LINEAR_MODE_NAMES}")


# --- Lorentz boost ----------------------------------------------------------

def boost(sampler: SolutionSampler, beta: float) -> SolutionSampler:
    """Lorentz boost (t, x) -> (gamma (t - beta x), gamma (x - beta t)).

    Needs the sampler's analytic space derivative for the boosted time
    derivative.
    """
    if not abs(beta) < 1:
        raise ParameterError(f"boost speed needs |beta| < 1, got {beta}")
    if sampler.dvalue_dx is None:
        raise ParameterError(f"boost of {sampler.label!r} needs an analytic space derivative")
    gamma = 1.0 / math.sqrt(1.0 - beta ** 2)

    def new_coords(t, x):
        x = np.asarray(x, dtype=float)
        return gamma * (t - beta * x), gamma * (x - beta * t)

    def value(t, x):
        tp, xp = new_coords(t, x)
        return sampler.value(tp, xp)

    def d_dt(t, x):
        tp, xp = new_coords(t, x)
        return gamma * (sampler.dvalue_dt(tp, xp) - beta * sampler.dvalue_dx(tp, xp))

    def d_dx(t, x):
        tp, xp = new_coords(t, x)
        return gamma * (sampler.dvalue_dx(tp, xp) - beta * sampler.dvalue_dt(tp, xp))

    return SolutionSampler(f"boost({sampler.label}, beta={beta})", value, d_dt, d_dx)
