"""Closed-form solutions and linear modes, packaged as samplers.

Every sampler is a pure map (t, x) -> value with analytic time derivative and,
where a closed form is printed below, an analytic space derivative as well.
Where cosh and sinh overflow, each formula is multiplied by one common factor
that cancels in its quotients: sech(x) sech(beta x) (wobbler), e^{-max(|X|, |T|)}
(two-kink), e^{-|x| - |w|} (three-soliton), so samplers are total on R^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grids import FieldState, GridSpec, ParameterError, derivative

__all__ = [
    "SolutionSampler",
    "KinkParams",
    "multiplier_from_speed",
    "final_speed_from_delta",
    "manifold_momentum",
    "kink_profile_momentum",
    "final_speed_from_momentum",
    "WobblerParams",
    "ThreeSolitonParams",
    "kink",
    "kink_profile",
    "breather",
    "wobbler",
    "two_kink",
    "three_soliton",
    "phi4_kink",
    "linear_mode",
    "zero_sampler",
]


def _sech(x):
    # 1/cosh overflows to 0 cleanly past |x| ~ 710; suppress the spurious warning
    with np.errstate(over="ignore"):
        return 1.0 / np.cosh(x)


def _arctan_exp(a):
    """arctan(e^a), evaluated without overflow for large |a|."""
    a = np.asarray(a, dtype=float)
    small = np.arctan(np.exp(-np.abs(a)))
    return np.where(a > 0, 0.5 * np.pi - small, small)


# cosh(u) e^{-|u|} in [1/2, 1] and sinh(u) e^{-|u|} in (-1/2, 1/2), bitwise odd
def _ch(u):
    return 0.5 * (1.0 + np.exp(-2.0 * np.abs(u)))


def _sh(u):
    return np.copysign(0.5 * -np.expm1(-2.0 * np.abs(u)), u)


# --- sampler type -----------------------------------------------------------

@dataclass(frozen=True)
class SolutionSampler:
    """Pure evaluator of a space-time function and its time derivative.

    ``dvalue_dx`` is present whenever a closed-form space derivative exists.
    Code outside this module reads a sampler through ``sample`` or ``fields``,
    never through the derivative callables.
    """

    value: Callable
    dvalue_dt: Callable
    dvalue_dx: Optional[Callable] = None

    def sample(self, grid: GridSpec, t: float) -> FieldState:
        x = grid.x
        return FieldState(t, grid, np.asarray(self.value(t, x), dtype=float),
                          np.asarray(self.dvalue_dt(t, x), dtype=float))

    def fields(self, grid: GridSpec, t: float) -> tuple:
        """(u, u_x, u_t) at time t on the grid as float arrays; u_x is the
        closed form when there is one and ``derivative(u, grid)`` otherwise."""
        x = grid.x
        u = np.asarray(self.value(t, x), dtype=float)
        u_x = (derivative(u, grid) if self.dvalue_dx is None
               else np.asarray(self.dvalue_dx(t, x), dtype=float))
        return u, u_x, np.asarray(self.dvalue_dt(t, x), dtype=float)


def zero_sampler() -> SolutionSampler:
    z = lambda t, x: np.zeros_like(np.asarray(x, dtype=float))
    return SolutionSampler(z, z, z)


# --- kinks ------------------------------------------------------------------

@dataclass(frozen=True)
class KinkParams:
    """The sine-Gordon kink of speed beta centered at x0 (|beta| < 1); the one
    place the kink's closed forms are written.

    Q(x) = 4 arctan(e^{gamma (x - x0)}),  Q_x = 2 gamma sech(gamma (x - x0)),
    Q_t = -2 beta gamma sech(gamma (x - x0)).  The shifted profile
    Q - pi is odd about the center, and its half-angle satisfies
    sin((Q - pi)/2) = tanh(gamma (x - x0)), cos((Q - pi)/2) = sech(gamma (x - x0)).
    """

    beta: float = 0.0
    x0: float = 0.0

    def __post_init__(self):
        if not abs(self.beta) < 1:
            raise ParameterError(f"kink speed must satisfy |beta| < 1, got {self.beta}")

    @property
    def gamma(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.beta ** 2)

    def at(self, t: float) -> "KinkParams":
        """The kink at time t: centered at x0 + beta t, so x0 is the center at t = 0."""
        return KinkParams(self.beta, self.x0 + self.beta * t)

    def _arg(self, x):
        return self.gamma * (np.asarray(x, dtype=float) - self.x0)

    def q(self, x):
        return 4.0 * _arctan_exp(self._arg(x))

    def q_x(self, x):
        return 2.0 * self.gamma * _sech(self._arg(x))

    def q_t(self, x):
        return -2.0 * self.beta * self.gamma * _sech(self._arg(x))

    def q_tx(self, x):
        a = self._arg(x)
        return 2.0 * self.beta * self.gamma ** 2 * _sech(a) * np.tanh(a)

    def sin_cos_q(self, x, out, work):
        """(sin Q, cos Q) in closed form, (-2 sech tanh, 1 - 2 sech^2), with no arctan.

        The pair is written into ``out``, a pair of arrays of x's shape, and
        ``work`` is a scratch array of that shape, so the call allocates nothing.
        """
        sin_q, cos_q = out
        np.subtract(x, self.x0, out=work)
        work *= self.gamma  # a
        np.tanh(work, out=sin_q)
        with np.errstate(over="ignore"):  # as in _sech
            np.cosh(work, out=cos_q)
        np.divide(1.0, cos_q, out=work)  # s = sech a
        np.multiply(work, -2.0, out=cos_q)
        sin_q *= cos_q
        np.multiply(work, 2.0, out=cos_q)
        cos_q *= work
        np.subtract(1.0, cos_q, out=cos_q)
        return out


def multiplier_from_speed(beta: float) -> float:
    """The transform multiplier a = sqrt((1 + beta)/(1 - beta)) of the kink
    with speed beta; ``final_speed_from_delta`` inverts it."""
    beta = KinkParams(beta).beta
    return math.sqrt((1.0 + beta) / (1.0 - beta))


def _offset_multiplier(delta: float) -> float:
    """The transform multiplier 1 + delta, which must be positive."""
    a = 1.0 + delta
    if not a > 0:
        raise ParameterError(f"need 1 + delta > 0, got delta = {delta}")
    return a


def final_speed_from_delta(delta: float) -> float:
    """The speed whose transform parameter is 1 + delta."""
    a = min(_offset_multiplier(delta), 2.0 ** 27)  # the quotient is 1.0 from 2^27 on
    return (a * a - 1.0) / (a * a + 1.0)


def manifold_momentum(delta: float) -> float:
    """Momentum of kink data built from the vacuum with multiplier 1 + delta.

    Closed form 2 (1/(1+delta) - (1+delta)); zero exactly at delta = 0 and of
    sign opposite to delta.
    """
    a = _offset_multiplier(delta)
    return 2.0 * (1.0 / a - a)


def kink_profile_momentum(beta: float) -> float:
    """Momentum -4 beta / sqrt(1 - beta^2) of the moving kink profile."""
    beta = KinkParams(beta).beta
    return -4.0 * beta / math.sqrt(1.0 - beta ** 2)


def final_speed_from_momentum(P: float) -> float:
    """The unique beta with -4 beta / sqrt(1 - beta^2) = P."""
    return -P / math.hypot(P, 4.0)


def kink(p: KinkParams) -> SolutionSampler:
    """Moving kink 4 arctan(e^{gamma (x - x0 - beta t)}), an exact solution:
    the profile ``p.at(t)`` at each time t."""
    return SolutionSampler(lambda t, x: p.at(t).q(x), lambda t, x: p.at(t).q_t(x),
                           lambda t, x: p.at(t).q_x(x))


def kink_profile(p: KinkParams) -> KinkParams:
    """The kink p itself: ``KinkParams`` carries the closed forms (Q, Q_x, Q_t)."""
    return p


# --- breather ---------------------------------------------------------------

def breather(beta: float) -> SolutionSampler:
    """Even, time-periodic breather 4 arctan(beta sin(alpha t)/(alpha cosh(beta x)))."""
    if beta == 0 or not abs(beta) < 1:
        raise ParameterError(f"breather frequency needs 0 < |beta| < 1, got {beta}")
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

    return SolutionSampler(value, d_dt, d_dx)


# --- wobbling kink ----------------------------------------------------------

@dataclass(frozen=True)
class WobblerParams:
    """Internal frequency parameter of the wobbling kink; beta = 0 is the plain kink."""

    beta: float

    def __post_init__(self):
        if not abs(self.beta) < 1:
            raise ParameterError(f"wobbler parameter needs |beta| < 1, got {self.beta}")


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
    base = KinkParams()

    def value(t, x):
        g, h, *_ = _wobbler_gh(beta, t, x)
        return base.q(x) + 4.0 * np.arctan2(g, h)

    def d_dt(t, x):
        g, h, g_t, h_t, _, _ = _wobbler_gh(beta, t, x)
        return 4.0 * (g_t * h - g * h_t) / (g * g + h * h)

    def d_dx(t, x):
        g, h, _, _, g_x, h_x = _wobbler_gh(beta, t, x)
        return base.q_x(x) + 4.0 * (g_x * h - g * h_x) / (g * g + h * h)

    return SolutionSampler(value, d_dt, d_dx)


# --- two-kink ---------------------------------------------------------------

def two_kink(beta: float) -> SolutionSampler:
    """Elastic two-kink collision 4 arctan(beta sinh(gamma x)/cosh(gamma beta t)).

    Odd in x, even in t, with limits -2 pi and 2 pi at x -> -/+ infinity for
    beta > 0.
    """
    if beta == 0 or not abs(beta) < 1:
        raise ParameterError(f"two-kink speed needs 0 < |beta| < 1, got {beta}")
    gamma = 1.0 / math.sqrt(1.0 - beta ** 2)

    def parts(t, x):
        """(sinh X, cosh X, sinh T, cosh T) for X = gamma x and T = gamma beta t,
        each times e^{-max(|X|, |T|)}, which cancels in every quotient below."""
        X, T = gamma * np.asarray(x, dtype=float), gamma * beta * t
        gap = np.abs(X) - np.abs(T)
        e_x, e_t = np.exp(-np.maximum(-gap, 0.0)), np.exp(-np.maximum(gap, 0.0))
        return _sh(X) * e_x, _ch(X) * e_x, _sh(T) * e_t, _ch(T) * e_t

    def value(t, x):
        sh_x, _, _, ch_t = parts(t, x)
        return 4.0 * np.arctan2(beta * sh_x, ch_t)

    def d_dt(t, x):
        sh_x, _, sh_t, ch_t = parts(t, x)
        return -4.0 * gamma * beta ** 2 * sh_x * sh_t / (ch_t * ch_t + beta ** 2 * sh_x * sh_x)

    def d_dx(t, x):
        sh_x, ch_x, _, ch_t = parts(t, x)
        return 4.0 * gamma * beta * ch_x * ch_t / (ch_t * ch_t + beta ** 2 * sh_x * sh_x)

    return SolutionSampler(value, d_dt, d_dx)


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
        return multiplier_from_speed(self.v)

    @property
    def alpha(self) -> float:
        return math.sqrt(1.0 - self.beta ** 2)

    @property
    def gamma_v(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.v ** 2)


def _three_soliton_parts(p: ThreeSolitonParams, t, x):
    """Numerator P, denominator A2 of the arctan argument (beta/alpha) P / A2,
    and their time derivatives, each times e^{-|x| - |w|}."""
    x = np.asarray(x, dtype=float)
    b, v, a_v, alpha, g = p.beta, p.v, p.a_v, p.alpha, p.gamma_v
    phase = g * alpha * (t - v * x)
    sin_p, cos_p = np.sin(phase), np.cos(phase)
    w = g * b * (t * v - x)
    e_x, e_w = np.exp(-np.abs(x)), np.exp(-np.abs(w))
    ch_x, sh_x, ch_w, sh_w = _ch(x), _sh(x), _ch(w), _sh(w)

    c1, c2 = a_v ** 2 - 1.0, 2.0 * a_v * alpha
    P = (c1 * sin_p * ch_x - c2 * cos_p * sh_x) * e_w - c2 * sh_w * e_x
    P_t = g * alpha * (c1 * cos_p * ch_x + c2 * sin_p * sh_x) * e_w - c2 * g * b * v * ch_w * e_x

    # combining the translation factors through cosh(wt -+ wx) = cosh(w) removes
    # an exact cancellation of the leading exponentials at large |x|
    d1, d2 = 2.0 * a_v * b, 1.0 + a_v ** 2
    A2 = -d1 * cos_p * e_x * e_w + d2 * ch_x * ch_w + d1 * sh_x * sh_w
    A2_t = d1 * g * alpha * sin_p * e_x * e_w + g * v * b * (d2 * ch_x * sh_w + d1 * sh_x * ch_w)
    return P, P_t, A2, A2_t


def three_soliton(p: ThreeSolitonParams) -> SolutionSampler:
    """Kink with an attached breather moving at speed v; v = 0 is the wobbler.

    A2 >= (d2 - |d1|) cosh x cosh w > 0 with d2 = 1 + a_v^2 > 2 a_v |beta| = |d1|,
    so the two-argument arctangent is the principal arctan of the quotient.
    """
    base = KinkParams()
    r = p.beta / p.alpha

    def value(t, x):
        P, _, A2, _ = _three_soliton_parts(p, t, x)
        return base.q(x) - 4.0 * np.arctan2(r * P, A2)

    def d_dt(t, x):
        P, P_t, A2, A2_t = _three_soliton_parts(p, t, x)
        return -4.0 * r * (P_t * A2 - P * A2_t) / (A2 * A2 + r * r * P * P)

    return SolutionSampler(value, d_dt, None)


# --- phi^4 kink -------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def _tanh_s(x):
    return np.tanh(np.asarray(x, dtype=float) / _SQRT2)


def _sech_s(x):
    return _sech(np.asarray(x, dtype=float) / _SQRT2)


def _h_slope(x):
    return _sech_s(x) ** 2 / _SQRT2


def phi4_kink() -> SolutionSampler:
    """Static phi^4 kink H(x) = tanh(x/sqrt(2)); H' = (1 - H^2)/sqrt(2)."""
    return SolutionSampler(lambda t, x: _tanh_s(x),
                           lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
                           lambda t, x: _h_slope(x))


# --- linear modes -----------------------------------------------------------

_OMEGA_INTERNAL = math.sqrt(1.5)
_SQRT3 = math.sqrt(3.0)


def _quarter(k, s):
    """cos(s - k pi/2) exactly: cos s, sin s, -cos s, -sin s for k = 0, 1, 2, 3."""
    c = np.sin(s) if k % 2 else np.cos(s)
    return -c if k % 4 >= 2 else c


# profile p and its derivative p_x; 1 - (3/2) sech^2(x/sqrt 2) is the even
# zero-energy resonance of the phi^4 operator
_MODE_PROFILES = {
    "tanh": (np.tanh, lambda x: _sech(x) ** 2),
    "one": (np.ones_like, np.zeros_like),
    "Y0": (lambda x: -(1.0 / _SQRT3) * _sech_s(x),
           lambda x: (1.0 / _SQRT3 / _SQRT2) * _sech_s(x) * _tanh_s(x)),
    "Y1": (lambda x: _sech_s(x) * _tanh_s(x),
           lambda x: (1.0 / _SQRT2) * _sech_s(x) * (1.0 - 2.0 * _tanh_s(x) ** 2)),
    # the kink slopes 2 sech x and H' = sech^2(x/sqrt 2)/sqrt 2: the zero modes
    "Q-slope": (KinkParams().q_x, lambda x: -2.0 * np.tanh(x) * _sech(x)),
    "H-slope": (_h_slope, lambda x: -_tanh_s(x) * _sech_s(x) ** 2),
    "resonance": (lambda x: 1.0 - 1.5 * _sech_s(x) ** 2,
                  lambda x: (3.0 / _SQRT2) * _sech_s(x) ** 2 * _tanh_s(x)),
    "tanh_s": (_tanh_s, _h_slope),
    # N4 = -i (2 +/- sqrt 3) e^{i sqrt 2 t}: constant in space
    "N4-plus": (lambda x: np.full_like(x, 2.0 + _SQRT3), np.zeros_like),
    "N4-minus": (lambda x: np.full_like(x, 2.0 - _SQRT3), np.zeros_like),
}

# mode name -> components (profile, omega, k), each p(x) cos(omega t - k pi/2)
_LINEAR_MODES = {
    "L": (("tanh", 1.0, 0),),
    "M": (("one", 1.0, 1),),
    "L-alt": (("tanh", 1.0, 3),),
    "M-alt": (("one", 1.0, 0),),
    "Y0": (("Y0", 0.0, 0),),
    "Y1": (("Y1", 0.0, 0),),
    "Q-slope": (("Q-slope", 0.0, 0),),
    "H-slope": (("H-slope", 0.0, 0),),
    "Y1-sin-pair": (("Y1", _OMEGA_INTERNAL, 1), ("Y0", _OMEGA_INTERNAL, 0)),
    "Y1-cos-pair": (("Y1", _OMEGA_INTERNAL, 0), ("Y0", _OMEGA_INTERNAL, 3)),
    "L4": (("resonance", _SQRT2, 3),),
    "M4": (("tanh_s", _SQRT2, 0),),
    "L4-alt": (("resonance", _SQRT2, 2),),
    "M4-alt": (("tanh_s", _SQRT2, 3),),
    "M4-complex": (("tanh_s", _SQRT2, 0), ("tanh_s", _SQRT2, 1)),
    "N4-plus": (("N4-plus", _SQRT2, 1), ("N4-plus", _SQRT2, 2)),
    "N4-minus": (("N4-minus", _SQRT2, 1), ("N4-minus", _SQRT2, 2)),
}

LINEAR_MODE_NAMES = tuple(_LINEAR_MODES)


def _table_mode(profile, omega, k):
    p, p_x = _MODE_PROFILES[profile]
    x_ = lambda x: np.asarray(x, dtype=float)
    return SolutionSampler(lambda t, x: p(x_(x)) * _quarter(k, omega * t),
                           lambda t, x: (omega * p(x_(x))) * _quarter(k - 1, omega * t),
                           lambda t, x: p_x(x_(x)) * _quarter(k, omega * t))


def linear_mode(name: str):
    """Closed-form linear modes around the kinks and the vacua.

    Real modes return one sampler.  ``Y1-sin-pair`` (Y1 sin wt with Y0 cos wt)
    and ``Y1-cos-pair`` (Y1 cos wt with -Y0 sin wt) return the oscillating
    internal-mode pair (two samplers).  Complex modes return a (real part,
    imaginary part) tuple of samplers.
    """
    if name not in _LINEAR_MODES:
        raise ParameterError(f"unknown linear mode {name!r}; known: {LINEAR_MODE_NAMES}")
    modes = tuple(_table_mode(*row) for row in _LINEAR_MODES[name])
    return modes[0] if len(modes) == 1 else modes
