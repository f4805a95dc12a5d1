import ast
from pathlib import Path

import numpy as np
import pytest

import sglab
from sglab.grids import (GridSpec, PHI4, SINE_GORDON, ParameterError, derivative, parity_check,
                         pde_residual)
from sglab.solutions import (
    KinkParams,
    LINEAR_MODE_NAMES,
    ThreeSolitonParams,
    SolutionSampler,
    WobblerParams,
    breather,
    kink,
    kink_profile,
    linear_mode,
    phi4_kink,
    three_soliton,
    two_kink,
    wobbler,
)

BETA_GAMMA_CASES = [(0.0, 1.0), (0.6, 1.25), (-0.8, 5.0 / 3.0)]

# (t, x) pairs on both sides of the float64 overflow of cosh (|u| > 710),
# with every sign, and with |x| and |t| past it together
_BIG = (0.0, 3.0, 300.0, 711.0, 1000.0, 2000.0, 1e5)
EXTREME_POINTS = [(st * t, sx * x) for t in _BIG for x in _BIG
                  for st in (1.0, -1.0) for sx in (1.0, -1.0)]


def fd_time_derivative(sampler, t, x, eps=1e-5):
    return (np.asarray(sampler.value(t + eps, x)) - np.asarray(sampler.value(t - eps, x))) / (2 * eps)


def fd_space_derivative(sampler, t, x, eps=1e-5):
    return (np.asarray(sampler.value(t, x + eps)) - np.asarray(sampler.value(t, x - eps))) / (2 * eps)


def boost(sampler, beta):
    """Lorentz boost (t, x) -> (gamma (t - beta x), gamma (x - beta t))."""
    gamma = 1.0 / np.sqrt(1.0 - beta ** 2)
    at = lambda t, x: (gamma * (t - beta * x), gamma * (x - beta * t))
    d_t, d_x = sampler.dvalue_dt, sampler.dvalue_dx
    return SolutionSampler(
        lambda t, x: sampler.value(*at(t, x)),
        lambda t, x: gamma * (d_t(*at(t, x)) - beta * d_x(*at(t, x))),
        lambda t, x: gamma * (d_x(*at(t, x)) - beta * d_t(*at(t, x))))


def wobbler_arg_form_gap(beta, t, x):
    """Max distance (mod 2 pi) from the wobbler sampler, Q + 4 angle(h, g), to
    the direct form 4 Arg(U + iV) with U = cosh(bx) + b sinh(bx) - b e^x cos(at)
    and V = e^x cosh(bx) - b e^x sinh(bx) - b cos(at), both scaled by
    e^{-|x|} sech(bx) to stay finite."""
    c = np.cos(np.sqrt(1.0 - beta ** 2) * t)
    sbx, tbx = 1.0 / np.cosh(beta * x), np.tanh(beta * x)
    pos, zero = np.exp(x - np.abs(x)), np.exp(-np.abs(x))
    direct = 4.0 * np.arctan2(pos * (1.0 - beta * tbx) - beta * zero * c * sbx,
                              zero * (1.0 + beta * tbx) - beta * pos * c * sbx)
    diff = np.asarray(wobbler(WobblerParams(beta)).value(t, x)) - direct
    return np.max(np.abs(diff - 2.0 * np.pi * np.round(diff / (2.0 * np.pi))))


class TestKink:
    def test_center_value_is_pi(self):
        s = kink(KinkParams(0.0, 0.0))
        assert s.value(3.7, 0.0) == pytest.approx(np.pi, abs=1e-15)

    def test_connects_zero_to_two_pi(self):
        s = kink(KinkParams(0.0, 0.0))
        assert s.value(0.0, -400.0) == pytest.approx(0.0, abs=1e-12)
        assert s.value(0.0, 400.0) == pytest.approx(2 * np.pi, abs=1e-12)

    def test_slope_two_at_center(self):
        s = kink(KinkParams(0.0, 0.0))
        assert s.dvalue_dx(0.0, 0.0) == pytest.approx(2.0, abs=1e-14)

    def test_time_derivative_at_center(self):
        s = kink(KinkParams(0.6, 0.0))
        assert s.dvalue_dt(0.0, 0.0) == pytest.approx(-1.5, abs=1e-14)

    def test_speed_bound(self):
        with pytest.raises(ParameterError):
            KinkParams(1.0)

    @pytest.mark.parametrize("beta", [0.0, 0.3])
    @pytest.mark.parametrize("x0", [0.0, 0.3])
    def test_is_the_profile_at_the_moving_center(self, grid40, beta, x0):
        # x0 is the center at t = 0 for kink() as for KinkParams.at and a frame
        s = kink(KinkParams(beta, x0))
        for t in (0.0, 0.7, -1.3, 5.0):
            prof = KinkParams(beta, x0 + beta * t)
            assert KinkParams(beta, x0).at(t) == prof
            assert np.array_equal(s.value(t, grid40.x), prof.q(grid40.x))
            assert np.array_equal(s.dvalue_dt(t, grid40.x), prof.q_t(grid40.x))
            assert np.array_equal(s.dvalue_dx(t, grid40.x), prof.q_x(grid40.x))
            assert s.value(t, x0 + beta * t) == pytest.approx(np.pi, abs=1e-15)

    def test_derivative_channels(self, grid40):
        s = kink(KinkParams(0.6, 0.3))
        assert np.max(np.abs(fd_time_derivative(s, 0.8, grid40.x) - s.dvalue_dt(0.8, grid40.x))) < 1e-9
        assert np.max(np.abs(fd_space_derivative(s, 0.8, grid40.x) - s.dvalue_dx(0.8, grid40.x))) < 1e-9


class TestKinkProfile:
    def test_half_angle_identities(self, grid40):
        x = grid40.x
        p = KinkParams(0.0, 0.0)
        assert np.max(np.abs(np.sin((p.q(x) - np.pi) / 2) - np.tanh(x))) < 1e-13
        assert np.max(np.abs(np.cos((p.q(x) - np.pi) / 2) - 1 / np.cosh(x))) < 1e-13

    def test_parity(self, grid40):
        p = KinkParams(0.0, 0.0)
        assert parity_check(p.q(grid40.x) - np.pi, grid40, "odd") < 1e-12
        assert parity_check(p.q_x(grid40.x), grid40, "even") < 1e-12

    @pytest.mark.parametrize("beta,gamma", BETA_GAMMA_CASES)
    def test_time_derivative_peak(self, beta, gamma):
        p = KinkParams(beta, 0.0)
        assert p.q_t(0.0) == pytest.approx(-2 * beta * gamma, abs=1e-12)
        assert p.q_x(0.0) == pytest.approx(2 * gamma, abs=1e-12)

    def test_profile_derivatives_consistent(self, grid40):
        # q_x and q_tx against differences in x, q_t and q_tx against
        # differences in t of the moving kink p.at(t)
        x = grid40.x
        p = KinkParams(0.4, 0.7)
        eps = 1e-5
        fd = (p.q(x + eps) - p.q(x - eps)) / (2 * eps)
        assert np.max(np.abs(fd - p.q_x(x))) < 1e-9
        fd2 = (p.at(eps).q(x) - p.at(-eps).q(x)) / (2 * eps)
        assert np.max(np.abs(fd2 - p.q_t(x))) < 1e-9
        fd3 = (p.q_t(x + eps) - p.q_t(x - eps)) / (2 * eps)
        assert np.max(np.abs(fd3 - p.q_tx(x))) < 1e-8
        fd4 = (p.at(eps).q_x(x) - p.at(-eps).q_x(x)) / (2 * eps)
        assert np.max(np.abs(fd4 - p.q_tx(x))) < 1e-8

    def test_one_kink_type(self):
        # the profile and the evolver's frame are the kink parameters themselves
        from sglab.evolution import KinkFrame
        p = KinkParams(0.2, 0.1)
        assert kink_profile(p) is p
        assert KinkFrame is KinkParams


class TestBreather:
    def test_zero_at_t0(self, grid40):
        assert np.max(np.abs(breather(0.5).value(0.0, grid40.x))) == 0.0

    def test_peak_value(self):
        beta = 0.6
        alpha = np.sqrt(1 - beta ** 2)
        s = breather(beta)
        assert s.value(np.pi / (2 * alpha), 0.0) == pytest.approx(4 * np.arctan(0.75), abs=1e-14)

    def test_periodicity(self, grid40):
        beta = 0.5
        alpha = np.sqrt(1 - beta ** 2)
        s = breather(beta)
        d = np.abs(np.asarray(s.value(1.1 + 2 * np.pi / alpha, grid40.x))
                   - np.asarray(s.value(1.1, grid40.x)))
        assert np.max(d) < 1e-13

    def test_even_in_space(self, grid40):
        assert parity_check(np.asarray(breather(0.5).value(1.3, grid40.x)), grid40, "even") < 1e-14

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            breather(0.0)
        with pytest.raises(ParameterError):
            breather(1.0)

    def test_derivative_channels(self, grid40):
        s = breather(0.5)
        assert np.max(np.abs(fd_time_derivative(s, 0.8, grid40.x) - s.dvalue_dt(0.8, grid40.x))) < 1e-9
        assert np.max(np.abs(fd_space_derivative(s, 0.8, grid40.x) - s.dvalue_dx(0.8, grid40.x))) < 1e-9


class TestWobbler:
    def test_reduces_to_kink_at_zero(self, grid40):
        w = wobbler(WobblerParams(0.0))
        k = kink(KinkParams(0.0, 0.0))
        assert np.max(np.abs(np.asarray(w.value(1.3, grid40.x))
                             - np.asarray(k.value(1.3, grid40.x)))) == 0.0

    @pytest.mark.parametrize("t", [0.0, 1.0, 2.7, 10.0])
    def test_perturbation_is_odd_odd(self, grid40, t):
        w = wobbler(WobblerParams(0.5))
        k = kink(KinkParams(0.0, 0.0))
        du = np.asarray(w.value(t, grid40.x)) - np.asarray(k.value(t, grid40.x))
        assert parity_check(du, grid40, "odd") < 1e-9
        assert parity_check(np.asarray(w.dvalue_dt(t, grid40.x)), grid40, "odd") < 1e-9

    def test_residual_refines(self, grid40):
        w = wobbler(WobblerParams(0.5))
        r1 = np.max(np.abs(pde_residual(w, SINE_GORDON, 0.7, grid40, 0.02)))
        r2 = np.max(np.abs(pde_residual(w, SINE_GORDON, 0.7, grid40.refined(2), 0.01)))
        assert r1 / r2 == pytest.approx(4.0, rel=0.15)

    @pytest.mark.parametrize("t", [0.0, 1.3])
    def test_complex_argument_form_agrees_mod_2pi(self, grid40, t):
        # the single-valued perturbation form is authoritative; the direct
        # principal-branch complex-argument form matches it up to 2 pi jumps
        assert wobbler_arg_form_gap(0.5, t, grid40.x) < 1e-10

    def test_derivative_channels(self, grid40):
        s = wobbler(WobblerParams(0.5))
        assert np.max(np.abs(fd_time_derivative(s, 0.8, grid40.x) - s.dvalue_dt(0.8, grid40.x))) < 1e-9
        assert np.max(np.abs(fd_space_derivative(s, 0.8, grid40.x) - s.dvalue_dx(0.8, grid40.x))) < 1e-9

    def test_large_argument_is_finite(self):
        w = wobbler(WobblerParams(0.5))
        big = np.array([-2000.0, -500.0, 500.0, 2000.0])
        assert np.all(np.isfinite(w.value(3.0, big)))
        assert np.all(np.isfinite(w.dvalue_dt(3.0, big)))


class TestTwoKink:
    def test_limits(self):
        s = two_kink(0.5)
        assert s.value(0.0, -500.0) == pytest.approx(-2 * np.pi, abs=1e-12)
        assert s.value(0.0, 500.0) == pytest.approx(2 * np.pi, abs=1e-12)

    def test_odd_in_x_even_in_t(self, grid40):
        s = two_kink(0.5)
        assert parity_check(np.asarray(s.value(1.3, grid40.x)), grid40, "odd") < 1e-12
        d = np.asarray(s.value(1.3, grid40.x)) - np.asarray(s.value(-1.3, grid40.x))
        assert np.max(np.abs(d)) == 0.0

    def test_residual_refines(self, grid40):
        s = two_kink(0.5)
        r1 = np.max(np.abs(pde_residual(s, SINE_GORDON, 0.7, grid40, 0.02)))
        r2 = np.max(np.abs(pde_residual(s, SINE_GORDON, 0.7, grid40.refined(2), 0.01)))
        assert r1 / r2 == pytest.approx(4.0, rel=0.15)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            two_kink(0.0)

    def test_derivative_channels(self, grid40):
        s = two_kink(0.5)
        assert np.max(np.abs(fd_time_derivative(s, 0.8, grid40.x) - s.dvalue_dt(0.8, grid40.x))) < 1e-9
        assert np.max(np.abs(fd_space_derivative(s, 0.8, grid40.x) - s.dvalue_dx(0.8, grid40.x))) < 1e-9

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, -0.6])
    @pytest.mark.parametrize("t", [0.0, 0.7, -3.0, 12.0])
    def test_matches_the_unscaled_formulas(self, grid40, beta, t):
        # np.sinh and np.cosh stay finite on [-40, 40], so the closed forms can
        # be written without the common factor
        gamma = 1.0 / np.sqrt(1.0 - beta ** 2)
        X, T = gamma * grid40.x, gamma * beta * t
        den = np.cosh(T) ** 2 + beta ** 2 * np.sinh(X) ** 2
        s = two_kink(beta)
        for got, ref in ((s.value(t, grid40.x), 4.0 * np.arctan(beta * np.sinh(X) / np.cosh(T))),
                         (s.dvalue_dt(t, grid40.x),
                          -4.0 * gamma * beta ** 2 * np.sinh(X) * np.sinh(T) / den),
                         (s.dvalue_dx(t, grid40.x),
                          4.0 * gamma * beta * np.cosh(X) * np.cosh(T) / den)):
            assert np.max(np.abs(got - ref)) < 1e-13

    def test_large_argument_is_finite(self):
        t, x = np.array(EXTREME_POINTS).T
        for beta in (0.5, 0.9, -0.9):
            s = two_kink(beta)
            for channel in (s.value, s.dvalue_dt, s.dvalue_dx):
                assert np.all(np.isfinite(channel(t, x)))
            # odd in x and even in t, bitwise, however large the arguments
            assert np.array_equal(s.value(t, -x), -s.value(t, x))
            assert np.array_equal(s.value(-t, x), s.value(t, x))


class TestThreeSoliton:
    def test_equals_wobbler_at_zero_speed(self, grid40):
        s = three_soliton(ThreeSolitonParams(0.5, 0.0))
        w = wobbler(WobblerParams(0.5))
        for t in (0.0, 1.3, 5.0):
            assert np.max(np.abs(np.asarray(s.value(t, grid40.x))
                                 - np.asarray(w.value(t, grid40.x)))) < 1e-13
            assert np.max(np.abs(np.asarray(s.dvalue_dt(t, grid40.x))
                                 - np.asarray(w.dvalue_dt(t, grid40.x)))) < 1e-13

    def test_monotone_limit_to_wobbler(self, grid40):
        w = wobbler(WobblerParams(0.5))
        gaps = []
        for v in (0.1, 0.01, 0.001):
            s = three_soliton(ThreeSolitonParams(0.5, v))
            gaps.append(np.max(np.abs(np.asarray(s.value(0.7, grid40.x))
                                      - np.asarray(w.value(0.7, grid40.x)))))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_perturbation_odd_at_t0(self, grid40):
        s = three_soliton(ThreeSolitonParams(0.5, 0.4))
        k = kink(KinkParams(0.0, 0.0))
        du = np.asarray(s.value(0.0, grid40.x)) - np.asarray(k.value(0.0, grid40.x))
        assert parity_check(du, grid40, "odd") < 1e-12

    def test_residual_refines(self, grid40):
        s = three_soliton(ThreeSolitonParams(0.5, 0.4))
        r1 = np.max(np.abs(pde_residual(s, SINE_GORDON, 0.7, grid40, 0.02)))
        r2 = np.max(np.abs(pde_residual(s, SINE_GORDON, 0.7, grid40.refined(2), 0.01)))
        assert r1 / r2 == pytest.approx(4.0, rel=0.15)

    def test_time_derivative_channel(self, grid40):
        s = three_soliton(ThreeSolitonParams(0.5, 0.4))
        assert np.max(np.abs(fd_time_derivative(s, 0.8, grid40.x)
                             - s.dvalue_dt(0.8, grid40.x))) < 1e-8

    def test_fields_fall_back_to_the_grid_derivative(self, grid40):
        # the family has no closed-form u_x, so fields differentiates u on the grid
        u, u_x, _ = three_soliton(ThreeSolitonParams(0.5, 0.4)).fields(grid40, 0.7)
        assert np.array_equal(u_x, derivative(u, grid40))

    @pytest.mark.parametrize("beta,v", [(0.5, 0.0), (0.5, 0.4), (0.7, 0.6), (-0.9, -0.6)])
    @pytest.mark.parametrize("t", [0.0, 0.7, -3.0, 12.0])
    def test_matches_the_unscaled_formulas(self, grid40, beta, v, t):
        p = ThreeSolitonParams(beta, v)
        a_v, alpha, g = p.a_v, p.alpha, p.gamma_v
        x = grid40.x
        phase = g * alpha * (t - v * x)
        w = g * beta * (t * v - x)
        P = ((a_v ** 2 - 1.0) * np.cosh(x) * np.sin(phase)
             - 2.0 * a_v * alpha * (np.cos(phase) * np.sinh(x) + np.sinh(w)))
        A2 = 2.0 * a_v * beta * (np.sinh(x) * np.sinh(w) - np.cos(phase)) \
            + (1.0 + a_v ** 2) * np.cosh(x) * np.cosh(w)
        ref = KinkParams().q(x) - 4.0 * np.arctan(beta / alpha * P / A2)
        assert np.max(np.abs(three_soliton(p).value(t, x) - ref)) < 1e-13

    def test_large_argument_is_finite(self):
        t, x = np.array(EXTREME_POINTS).T
        for beta, v in ((0.5, 0.0), (0.7, 0.6), (-0.9, -0.6), (0.9, 0.9)):
            s = three_soliton(ThreeSolitonParams(beta, v))
            assert np.all(np.isfinite(s.value(t, x)))
            assert np.all(np.isfinite(s.dvalue_dt(t, x)))

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            ThreeSolitonParams(1.5, 0.0)
        with pytest.raises(ParameterError):
            ThreeSolitonParams(0.5, -1.0)


class TestPhi4Kink:
    def test_values(self):
        s = phi4_kink()
        assert s.value(0.0, 0.0) == 0.0
        assert s.value(0.0, 500.0) == pytest.approx(1.0, abs=1e-12)
        assert s.value(0.0, -500.0) == pytest.approx(-1.0, abs=1e-12)

    def test_slope_at_center(self):
        assert phi4_kink().dvalue_dx(0.0, 0.0) == pytest.approx(1 / np.sqrt(2), abs=1e-14)

    def test_derivative_identity(self, grid40):
        # H' = (1 - H^2)/sqrt(2)
        s = phi4_kink()
        h = np.asarray(s.value(0.0, grid40.x))
        assert np.max(np.abs(np.asarray(s.dvalue_dx(0.0, grid40.x))
                             - (1 - h ** 2) / np.sqrt(2))) < 1e-14

    def test_static_residual_refines(self, grid40):
        # spatial differencing leaves the usual O(h^2) floor even for the
        # exact static solution; it vanishes under refinement at order 2
        s = phi4_kink()
        r1 = np.max(np.abs(pde_residual(s, PHI4, 0.0, grid40, 0.02)))
        r2 = np.max(np.abs(pde_residual(s, PHI4, 0.0, grid40.refined(2), 0.01)))
        assert r1 / r2 == pytest.approx(4.0, rel=0.1)
        assert r2 < 1e-5


class TestLinearModes:
    def test_l_and_m_values(self, grid40):
        L = linear_mode("L")
        M = linear_mode("M")
        assert np.max(np.abs(np.asarray(L.value(0.0, grid40.x)) - np.tanh(grid40.x))) == 0.0
        assert np.max(np.abs(np.asarray(M.value(0.0, grid40.x)))) == 0.0

    def test_y1_odd_with_known_peak(self):
        y1 = linear_mode("Y1")
        g = GridSpec(-10.0, 10.0, 20001)
        vals = np.asarray(y1.value(0.0, g.x))
        assert parity_check(vals, g, "odd") < 1e-14
        # peak where (sech u tanh u)' = 0, i.e. tanh^2(u) = 1/2
        x_star = np.sqrt(2) * np.arctanh(1 / np.sqrt(2))
        assert g.x[np.argmax(vals)] == pytest.approx(x_star, abs=2 * g.h)
        assert abs(np.asarray(y1.dvalue_dx(0.0, np.array([x_star])))[0]) < 1e-12

    def test_l4_vanishes_at_t0(self, grid40):
        L4 = linear_mode("L4")
        assert np.max(np.abs(np.asarray(L4.value(0.0, grid40.x)))) == 0.0

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            linear_mode("Z9")

    @pytest.mark.parametrize("name", LINEAR_MODE_NAMES)
    def test_all_modes_time_derivatives(self, name, grid40):
        modes = linear_mode(name)
        if not isinstance(modes, tuple):
            modes = (modes,)
        for s in modes:
            d = np.max(np.abs(fd_time_derivative(s, 0.9, grid40.x) - s.dvalue_dt(0.9, grid40.x)))
            assert d < 1e-9

    @pytest.mark.parametrize("name", LINEAR_MODE_NAMES)
    def test_all_modes_space_derivatives(self, name, grid40):
        modes = linear_mode(name)
        if not isinstance(modes, tuple):
            modes = (modes,)
        for s in modes:
            d = np.max(np.abs(fd_space_derivative(s, 0.9, grid40.x) - s.dvalue_dx(0.9, grid40.x)))
            assert d < 1e-9


class TestBoost:
    def test_boosted_static_kink_is_moving_kink(self, grid40):
        boosted = boost(kink(KinkParams(0.0, 0.0)), 0.6)
        moving = kink(KinkParams(0.6, 0.0))
        for t in (0.0, 2.0):
            assert np.max(np.abs(np.asarray(boosted.value(t, grid40.x))
                                 - np.asarray(moving.value(t, grid40.x)))) < 1e-12
            assert np.max(np.abs(np.asarray(boosted.dvalue_dt(t, grid40.x))
                                 - np.asarray(moving.dvalue_dt(t, grid40.x)))) < 1e-12

    def test_boosted_solution_still_solves(self, grid40):
        boosted = boost(breather(0.5), 0.3)
        r = np.max(np.abs(pde_residual(boosted, SINE_GORDON, 0.7, grid40, 0.01)))
        assert r < 5e-4


def test_only_solutions_reads_sampler_derivatives():
    # every other module reads a sampler through SolutionSampler.fields or
    # .sample, so the closed-form-or-grid choice for u_x is written once
    readers = {path.name for path in Path(sglab.__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr in ("dvalue_dt", "dvalue_dx")}
    assert readers == {"solutions.py"}
