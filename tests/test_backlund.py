import importlib
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sglab
from sglab import backlund
from sglab.backlund import (
    _Angles,
    _Background,
    _pair_residual,
    bt_pair_residual,
    construct_manifold_data,
    descend_kink_to_zero,
    descend_wobbler_to_breather,
    lift_breather_to_wobbler,
    lift_with_orthogonality,
    lift_zero_to_kink,
    tilde_residual,
    zero_momentum_manifold_data,
)
from sglab.grids import (
    ContractError,
    FieldState,
    GridSpec,
    ParameterError,
    PerturbationPair,
    SINE_GORDON,
    SolverError,
    derivative,
    momentum,
    parity_check,
    quadrature,
)
from sglab.inputs import smooth_random
from sglab.solutions import (
    KinkParams,
    WobblerParams,
    breather,
    final_speed_from_delta,
    final_speed_from_momentum,
    kink,
    kink_profile_momentum,
    manifold_momentum,
    multiplier_from_speed,
    wobbler,
    zero_sampler,
)


def zeros_like_grid(grid):
    return np.zeros(grid.n_points)


def direct_terms(bg, u, y):
    """plus, minus, coeff and cross_coeff straight from the half-angles of
    ``_Background``'s docstring."""
    p = 0.5 * (bg.psi + u + bg.phi + y)
    m = 0.5 * (bg.psi + u - bg.phi - y)
    a = bg.a
    return {"plus": np.cos(p) / a + a * np.cos(m),
            "minus": np.cos(p) / a - a * np.cos(m),
            "coeff": np.sin(p) / (2 * a) + (a / 2) * np.sin(m),
            "cross_coeff": np.sin(p) / (2 * a) - (a / 2) * np.sin(m)}


def direct_f1(bg, u, u_x, y, v):
    return bg.psi_x + u_x - bg.phi_t - v - direct_terms(bg, u, y)["plus"]


def direct_f2(bg, u, s, y, y_x):
    return bg.psi_t + s - bg.phi_x - y_x - direct_terms(bg, u, y)["minus"]


class TestMultiplierFromSpeed:
    def test_value(self):
        assert multiplier_from_speed(0.6) == pytest.approx(2.0, abs=1e-14)

    @given(beta=st.floats(-0.999, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_through_final_speed(self, beta):
        delta = multiplier_from_speed(beta) - 1.0
        assert final_speed_from_delta(delta) == pytest.approx(beta, abs=1e-14)

    @pytest.mark.parametrize("beta", [1.0, -1.0, 1.5, math.nan])
    def test_speed_outside_the_unit_interval_rejected(self, beta):
        # all three refuse by the one |beta| < 1 rule in KinkParams
        for refuse in (multiplier_from_speed, KinkParams, kink_profile_momentum):
            with pytest.raises(ParameterError, match="beta"):
                refuse(beta)


class TestBtResidual:
    def test_non_pair_has_large_residual(self, grid40):
        # regression fixture, pinned from this configuration
        f1, f2 = bt_pair_residual(breather(0.5), kink(KinkParams(0.0)), 1.0, 1.0, grid40)
        worst = max(np.max(np.abs(f1)), np.max(np.abs(f2)))
        assert worst > 0.1
        assert worst == pytest.approx(1.4899394297332722, abs=1e-9)

    def test_pair_residual_uses_analytic_derivatives(self, grid40):
        f1, f2 = bt_pair_residual(zero_sampler(), kink(KinkParams(0.5, 0.0)),
                                  multiplier_from_speed(0.5), 0.0, grid40)
        assert np.max(np.abs(f1)) < 1e-13
        assert np.max(np.abs(f2)) < 1e-13


class TestTildeResidual:
    def test_zero_perturbations_at_zero_offset(self, grid40):
        z = PerturbationPair(grid40, zeros_like_grid(grid40), zeros_like_grid(grid40))
        f1, f2 = tilde_residual(z, z, 0.0)
        assert np.max(np.abs(f1)) < 1e-13
        assert np.max(np.abs(f2)) < 1e-13

    def test_parity_odd_even_inputs(self, grid40):
        # (odd, even) on both sides makes both residuals even
        x = grid40.x
        us = PerturbationPair(grid40, 0.05 * np.tanh(x) * np.exp(-(x / 3) ** 2),
                              0.03 * np.exp(-(x / 2) ** 2))
        yv = PerturbationPair(grid40, 0.04 * np.tanh(x) * np.exp(-(x / 2.5) ** 2),
                              0.02 * np.exp(-(x / 2.2) ** 2))
        f1, f2 = tilde_residual(us, yv, 0.1)
        assert parity_check(f1, grid40, "even") < 1e-12
        assert parity_check(f2, grid40, "even") < 1e-12

    def test_parity_mixed_inputs(self, grid40):
        # (odd, odd) kink side against (even, even) vacuum side:
        # first residual even, second odd
        x = grid40.x
        us = PerturbationPair(grid40, 0.05 * np.tanh(x) * np.exp(-(x / 3) ** 2),
                              0.03 * np.tanh(x) * np.exp(-(x / 2) ** 2))
        yv = PerturbationPair(grid40, 0.04 * np.exp(-(x / 2.5) ** 2),
                              0.02 * np.exp(-(x / 2.2) ** 2))
        f1, f2 = tilde_residual(us, yv, 0.0)
        assert parity_check(f1, grid40, "even") < 1e-12
        assert parity_check(f2, grid40, "odd") < 1e-12

    def test_offset_guard(self, grid40):
        z = PerturbationPair(grid40, zeros_like_grid(grid40), zeros_like_grid(grid40))
        with pytest.raises(ParameterError):
            tilde_residual(z, z, -1.0)

    def test_half_angle_boundary_decay(self, grid40):
        # cos((Q_tilde + u +/- y)/2) decays at the grid ends for decaying data
        x = grid40.x
        u0 = 0.05 * np.tanh(x) * np.exp(-(x / 3) ** 2)
        y0 = 0.04 * np.tanh(x) * np.exp(-(x / 2.5) ** 2)
        qt = KinkParams(0.0, 0.0).q(x) - np.pi
        for sign in (1.0, -1.0):
            vals = np.cos(0.5 * (qt + u0 + sign * y0))
            assert max(abs(vals[0]), abs(vals[-1])) < 1e-6
            assert parity_check(vals, grid40, "even") < 1e-12


class TestBackgroundMemo:
    # each background's closed forms are kept for the next solve around it
    def test_equal_grids_share_read_only_arrays(self):
        first, second = GridSpec(-40.0, 40.0, 4001), GridSpec(-40.0, 40.0, 4001)
        assert first is not second
        for make in (lambda g, a: _Background.kink(g, a, KinkParams(0.3, 0.5)),
                     lambda g, a: _Background.wobbler(g, 0.4, 1.1)):
            one, other = make(first, 1.0), make(second, 1.3)
            arrays = [name for name in ("psi", "psi_x", "psi_t", "phi", "phi_x", "phi_t")
                      if isinstance(getattr(one, name), np.ndarray)]
            assert len(arrays) in (3, 6)
            for name in arrays:
                assert getattr(one, name) is getattr(other, name)
                with pytest.raises(ValueError, match="read-only"):
                    getattr(one, name)[0] = 0.0

    @pytest.mark.parametrize("maps", [(lift_zero_to_kink, descend_kink_to_zero),
                                      (lambda g, y, v: lift_breather_to_wobbler(g, y, v, 0.4, 1.1),
                                       lambda g, u, s: descend_wobbler_to_breather(g, u, s,
                                                                                   0.4, 1.1))],
                             ids=["kink", "wobbler"])
    def test_solve_after_cache_clear_equals_a_memo_hit(self, grid40, rng, maps):
        lift, descend = maps
        y = smooth_random(grid40, "even", 0.05, rng)
        v = smooth_random(grid40, "even", 0.05, rng)
        lift(grid40, y, v)
        hit = lift(grid40, y, v).result
        backlund._kink_fields.cache_clear()
        backlund._wobbler_fields.cache_clear()
        fresh = lift(grid40, y, v).result
        assert fresh.first.tobytes() == hit.first.tobytes()
        assert fresh.second.tobytes() == hit.second.tobytes()
        down = descend(grid40, hit.first, hit.second).result
        backlund._kink_fields.cache_clear()
        backlund._wobbler_fields.cache_clear()
        fresh = descend(grid40, hit.first, hit.second).result
        assert fresh.first.tobytes() == down.first.tobytes()
        assert fresh.second.tobytes() == down.second.tobytes()

    def test_each_helper_holds_one_entry(self):
        for size in (4001, 801, 4001):
            grid = GridSpec(-40.0, 40.0, size)
            _Background.kink(grid, 1.0)
            _Background.kink(grid, 1.0, KinkParams(0.3, 0.5))
            _Background.wobbler(grid, 0.4, 1.1)
            _Background.wobbler(grid, 0.4, -1.1)
        for helper in (backlund._kink_fields, backlund._wobbler_fields):
            assert helper.cache_info().maxsize == 1
            assert helper.cache_info().currsize == 1


class TestManifoldConstructor:
    def test_zero_maps_to_zero(self, grid40):
        rep = construct_manifold_data(grid40, zeros_like_grid(grid40),
                                      zeros_like_grid(grid40), 0.0)
        assert np.max(np.abs(rep.result.first)) <= 1e-12
        assert np.max(np.abs(rep.result.second)) <= 1e-12

    @pytest.mark.parametrize("beta", [0.1, 0.2])
    def test_kink_family_shift_identity(self, beta):
        # the offset a(beta) - 1 with no perturbation reproduces the
        # moving-kink profile relative to the static one
        g = GridSpec(-40.0, 40.0, 400001)
        delta = multiplier_from_speed(beta) - 1.0
        rep = construct_manifold_data(g, np.zeros(g.n_points), np.zeros(g.n_points), delta)
        pb = KinkParams(beta, 0.0)
        p0 = KinkParams(0.0, 0.0)
        assert np.max(np.abs(rep.result.first - (pb.q(g.x) - p0.q(g.x)))) < 1e-8
        assert np.max(np.abs(rep.result.second - pb.q_t(g.x))) < 1e-8

    def test_momentum_identity(self):
        g = GridSpec(-40.0, 40.0, 48001)
        y0 = 0.05 / np.cosh(g.x) * np.tanh(g.x)
        rep = construct_manifold_data(g, y0, np.zeros(g.n_points), 0.1)
        p0 = KinkParams(0.0, 0.0)
        state = FieldState(0.0, g, p0.q(g.x) + rep.result.first, rep.result.second)
        assert momentum(state) == pytest.approx(manifold_momentum(0.1), abs=1e-6)

    def test_output_parity_contract(self, grid40, rng):
        y0 = smooth_random(grid40, "odd", 0.06, rng)
        v0 = smooth_random(grid40, "even", 0.04, rng)
        rep = construct_manifold_data(grid40, y0, v0, 0.05)
        assert parity_check(rep.result.first, grid40, "odd") < 1e-9
        assert parity_check(rep.result.second, grid40, "even") < 1e-9

    def test_exact_residual_no_worse_than_reported(self, grid40, rng):
        y0 = smooth_random(grid40, "odd", 0.06, rng)
        v0 = smooth_random(grid40, "even", 0.04, rng)
        rep = construct_manifold_data(grid40, y0, v0, 0.05)
        f1, f2 = tilde_residual(rep.result, PerturbationPair(grid40, y0, v0), 0.05)
        worst = max(np.max(np.abs(f1)), np.max(np.abs(f2)))
        assert worst <= rep.final_residual + 1e-15

    def test_norm_guard(self, grid40):
        big = 0.9 * np.tanh(grid40.x) * np.exp(-(grid40.x / 3) ** 2)
        with pytest.raises(ContractError, match="0.5"):
            construct_manifold_data(grid40, big, zeros_like_grid(grid40), 0.0)

    def test_input_parity_guard(self, grid40):
        even = np.exp(-(grid40.x / 3) ** 2)
        with pytest.raises(ContractError, match="odd"):
            construct_manifold_data(grid40, even, zeros_like_grid(grid40), 0.0)

    def test_nan_input_fails_the_parity_contract(self, grid40):
        y = zeros_like_grid(grid40)
        y[100] = np.nan
        with pytest.raises(ContractError, match="even"):
            lift_zero_to_kink(grid40, y, zeros_like_grid(grid40))

    def test_zero_momentum_projection(self, grid40, rng):
        y0 = smooth_random(grid40, "odd", 0.05, rng)
        rep, delta = zero_momentum_manifold_data(grid40, y0)
        p0 = KinkParams(0.0, 0.0)
        state = FieldState(0.0, grid40, p0.q(grid40.x) + rep.result.first, rep.result.second)
        assert abs(momentum(state)) < 1e-12
        assert abs(delta) < 1e-4

    def test_zero_momentum_failure_is_a_solver_error(self, grid40, rng, monkeypatch):
        # a momentum that never drops to 1e-12 ends in an error carrying the
        # momentum of each of the 12 offset steps, not in data one step behind
        monkeypatch.setattr(backlund, "momentum", lambda state: 1e-6)
        with pytest.raises(SolverError) as err:
            zero_momentum_manifold_data(grid40, smooth_random(grid40, "odd", 0.05, rng))
        assert err.value.residual_history == [1e-6] * 12


class TestZeroKinkMaps:
    def test_zero_fixed_points(self, grid40):
        z = zeros_like_grid(grid40)
        assert np.max(np.abs(lift_zero_to_kink(grid40, z, z).result.first)) == 0.0
        assert np.max(np.abs(descend_kink_to_zero(grid40, z, z).result.first)) < 1e-14

    def test_breather_data_lifts_to_wobbler(self):
        # the closed-form image of breather data is the wobbler perturbation
        g = GridSpec(-40.0, 40.0, 80001)
        beta, t = 0.1, 0.7
        b = breather(beta)
        w = wobbler(WobblerParams(beta))
        k0 = kink(KinkParams(0.0, 0.0))
        rep = lift_zero_to_kink(g, np.asarray(b.value(t, g.x)), np.asarray(b.dvalue_dt(t, g.x)))
        assert np.max(np.abs(rep.result.first
                             - (np.asarray(w.value(t, g.x)) - np.asarray(k0.value(t, g.x))))) < 1e-7
        assert np.max(np.abs(rep.result.second - np.asarray(w.dvalue_dt(t, g.x)))) < 1e-7
        assert parity_check(rep.result.first, g, "odd") < 1e-9
        assert parity_check(rep.result.second, g, "odd") < 1e-9

    def test_wobbler_data_descends_to_breather(self):
        g = GridSpec(-40.0, 40.0, 160001)
        beta, t = 0.1, 0.0
        w = wobbler(WobblerParams(beta))
        k0 = kink(KinkParams(0.0, 0.0))
        b = breather(beta)
        u = np.asarray(w.value(t, g.x)) - np.asarray(k0.value(t, g.x))
        s = np.asarray(w.dvalue_dt(t, g.x))
        rep = descend_kink_to_zero(g, u, s)
        assert np.max(np.abs(rep.result.first - np.asarray(b.value(t, g.x)))) < 1e-7
        assert np.max(np.abs(rep.result.second - np.asarray(b.dvalue_dt(t, g.x)))) < 1e-7

    def test_round_trips(self, grid40):
        rng = np.random.default_rng(7)
        for _ in range(5):
            y = smooth_random(grid40, "even", 0.05, rng)
            v = smooth_random(grid40, "even", 0.05, rng)
            rep = lift_zero_to_kink(grid40, y, v)
            back = descend_kink_to_zero(grid40, rep.result.first, rep.result.second)
            assert np.max(np.abs(back.result.first - y)) < 1e-8
            assert np.max(np.abs(back.result.second - v)) < 1e-8

    def test_lift_commutes_with_evolution(self, grid40):
        # lifting evolved vacuum data agrees with evolving the lifted data
        from sglab.evolution import EvolveConfig, KinkFrame, evolve

        rng = np.random.default_rng(5)
        y = smooth_random(grid40, "even", 0.04, rng)
        v = smooth_random(grid40, "even", 0.04, rng)
        T = 2.0
        vac = evolve(FieldState(0.0, grid40, y, v), SINE_GORDON,
                     EvolveConfig(dt=0.005, t_end=T, snapshot_every=T))
        lift_after = lift_zero_to_kink(grid40, vac.u_snaps[-1], vac.v_snaps[-1])
        first = lift_zero_to_kink(grid40, y, v)
        prof = KinkParams(0.0, 0.0)
        state = FieldState(0.0, grid40, prof.q(grid40.x) + first.result.first,
                           first.result.second)
        kinkrun = evolve(state, SINE_GORDON,
                         EvolveConfig(dt=0.005, t_end=T, background=KinkFrame(),
                                      snapshot_every=T))
        assert np.max(np.abs(lift_after.result.first - kinkrun.u_snaps[-1])) < 1e-5
        assert np.max(np.abs(lift_after.result.second - kinkrun.v_snaps[-1])) < 1e-5

    def test_parity_guard(self, grid40):
        odd = np.tanh(grid40.x) * np.exp(-(grid40.x / 3) ** 2)
        with pytest.raises(ContractError):
            lift_zero_to_kink(grid40, odd, zeros_like_grid(grid40))
        even = np.exp(-(grid40.x / 3) ** 2)
        with pytest.raises(ContractError):
            descend_kink_to_zero(grid40, even, zeros_like_grid(grid40))

    def test_result_parity_verified(self, grid40, monkeypatch):
        # a kink 1e-3 off center lifts an even input to a u that is not odd:
        # the map's output check refuses what its contract does not cover
        kink_at = _Background.kink
        monkeypatch.setattr(_Background, "kink", staticmethod(
            lambda grid, a: kink_at(grid, a, KinkParams(0.0, 1e-3))))
        y = 0.05 * np.exp(-(grid40.x / 3) ** 2)
        with pytest.raises(ContractError, match="u must be odd"):
            lift_zero_to_kink(grid40, y, zeros_like_grid(grid40))

    def test_nonconvergence_reports_history(self, grid40, monkeypatch):
        # one module cap holds for every solve
        monkeypatch.setattr(backlund, "_MAX_ITER", 4)
        wild = 3.0 * np.exp(-(grid40.x / 2) ** 2)
        with pytest.raises(SolverError, match="after 4 iterations") as err:
            lift_zero_to_kink(grid40, wild, zeros_like_grid(grid40))
        assert len(err.value.residual_history) == 5

    def test_residual_short_of_tol_raises(self, grid40, rng, monkeypatch):
        y = smooth_random(grid40, "even", 0.04, rng)
        v = smooth_random(grid40, "even", 0.04, rng)
        assert lift_zero_to_kink(grid40, y, v).final_residual <= backlund._TOL
        # a Newton target below round-off: no residual the solve reaches is
        # accepted, so it raises with the history of every iteration
        monkeypatch.setattr(backlund, "_TOL", 1e-16)
        with pytest.raises(SolverError, match="no convergence") as err:
            lift_zero_to_kink(grid40, y, v)
        history = err.value.residual_history
        assert len(history) == backlund._MAX_ITER + 1
        assert 1e-16 < history[-1] <= 1e-10


class TestWobblerMaps:
    def test_zero_fixed_points(self, grid40):
        z = zeros_like_grid(grid40)
        rep = lift_breather_to_wobbler(grid40, z, z, 0.4, 1.1)
        assert np.max(np.abs(rep.result.first)) < 1e-14
        rep = descend_wobbler_to_breather(grid40, z, z, 0.4, 1.1)
        assert np.max(np.abs(rep.result.first)) < 1e-14

    def test_family_difference_oracle_lift(self):
        # both sides of the map are available in closed form
        g = GridSpec(-40.0, 40.0, 64001)
        beta, bp, t = 0.3, 0.31, 1.0
        b1, b2 = breather(beta), breather(bp)
        w1, w2 = wobbler(WobblerParams(beta)), wobbler(WobblerParams(bp))
        y = np.asarray(b2.value(t, g.x)) - np.asarray(b1.value(t, g.x))
        v = np.asarray(b2.dvalue_dt(t, g.x)) - np.asarray(b1.dvalue_dt(t, g.x))
        rep = lift_breather_to_wobbler(g, y, v, beta, t)
        du = np.asarray(w2.value(t, g.x)) - np.asarray(w1.value(t, g.x))
        ds = np.asarray(w2.dvalue_dt(t, g.x)) - np.asarray(w1.dvalue_dt(t, g.x))
        assert np.max(np.abs(rep.result.first - du)) < 1e-6
        assert np.max(np.abs(rep.result.second - ds)) < 1e-6

    def test_family_difference_oracle_descend(self):
        # the inward integration truncates the tails at the grid ends, so the
        # domain must be wide for the slow e^{-beta |x|} decay of these inputs
        g = GridSpec(-60.0, 60.0, 96001)
        beta, bp, t = 0.3, 0.31, 1.0
        b1, b2 = breather(beta), breather(bp)
        w1, w2 = wobbler(WobblerParams(beta)), wobbler(WobblerParams(bp))
        u = np.asarray(w2.value(t, g.x)) - np.asarray(w1.value(t, g.x))
        s = np.asarray(w2.dvalue_dt(t, g.x)) - np.asarray(w1.dvalue_dt(t, g.x))
        rep = descend_wobbler_to_breather(g, u, s, beta, t)
        y = np.asarray(b2.value(t, g.x)) - np.asarray(b1.value(t, g.x))
        v = np.asarray(b2.dvalue_dt(t, g.x)) - np.asarray(b1.dvalue_dt(t, g.x))
        assert np.max(np.abs(rep.result.first - y)) < 1e-6
        assert np.max(np.abs(rep.result.second - v)) < 1e-6

    def test_round_trips(self, grid40):
        rng = np.random.default_rng(9)
        for _ in range(5):
            y = smooth_random(grid40, "even", 0.04, rng)
            v = smooth_random(grid40, "even", 0.04, rng)
            rep = lift_breather_to_wobbler(grid40, y, v, 0.4, 1.1)
            back = descend_wobbler_to_breather(grid40, rep.result.first,
                                               rep.result.second, 0.4, 1.1)
            assert np.max(np.abs(back.result.first - y)) < 1e-7
            assert np.max(np.abs(back.result.second - v)) < 1e-7

    def test_l2_gain_constant(self, grid40):
        # the lift's output is L^2-bounded by its effective linear data;
        # the measured constant stays well under 10 across a seeded suite
        rng = np.random.default_rng(11)
        z = zeros_like_grid(grid40)
        worst = 0.0
        for _ in range(20):
            y = smooth_random(grid40, "even", 0.04, rng)
            v = smooth_random(grid40, "even", 0.04, rng)
            rep = lift_breather_to_wobbler(grid40, y, v, 0.4, 1.1)
            f = direct_f1(_Background.wobbler(grid40, 0.4, 1.1), z, z, y, v)
            gain = math.sqrt(quadrature(rep.result.first ** 2, grid40)
                             / quadrature(f ** 2, grid40))
            worst = max(worst, gain)
        assert worst <= 10.0

    def test_exact_residual_no_worse_than_reported(self, grid40, rng):
        y = smooth_random(grid40, "even", 0.04, rng)
        v = smooth_random(grid40, "even", 0.04, rng)
        rep = lift_breather_to_wobbler(grid40, y, v, 0.4, 1.1)
        f1, f2 = _pair_residual(_Background.wobbler(grid40, 0.4, 1.1), rep.result,
                                PerturbationPair(grid40, y, v))
        assert max(np.max(np.abs(f1)), np.max(np.abs(f2))) <= rep.final_residual + 1e-15

    @pytest.mark.parametrize("descend,compat_tol", [
        (lambda g, u, s: descend_wobbler_to_breather(g, u, s, 0.4, 1.1), 1e-12),
        (descend_kink_to_zero, backlund._COMPAT_TOL),
    ], ids=["wobbler", "kink"])
    def test_compatibility_violation_signals_parity_loss(self, grid40, monkeypatch, descend,
                                                         compat_tol):
        # a parity defect under a looser parity check must still fail the
        # compatibility integral
        monkeypatch.setattr(backlund, "_PARITY_TOL", 1e-6)
        monkeypatch.setattr(backlund, "_COMPAT_TOL", compat_tol)
        u = 0.02 * np.tanh(grid40.x) * np.exp(-(grid40.x / 3) ** 2)
        s = u.copy()
        s += 1e-7 * np.exp(-((grid40.x - 1) / 2) ** 2)  # break oddness slightly
        with pytest.raises(ContractError, match="compatibility integral"):
            descend(grid40, u, s)

    def test_beta_guard(self, grid40):
        z = zeros_like_grid(grid40)
        with pytest.raises(ParameterError):
            lift_breather_to_wobbler(grid40, z, z, 0.0, 0.0)


class TestOrthogonalLift:
    def test_zero_input(self, grid40):
        z = zeros_like_grid(grid40)
        rep = lift_with_orthogonality(grid40, z, z, 0.0, 0.0, 0.0, 0.0)
        assert np.max(np.abs(rep.result.first)) == 0.0
        assert rep.ortho_residual == 0.0

    def test_odd_even_inputs_need_no_correction(self, grid40, rng):
        # with (odd, even) data the lifted first component is odd, so the
        # orthogonality holds with center constant exactly zero and the
        # solution coincides with the plain constructor
        y0 = smooth_random(grid40, "odd", 0.05, rng)
        v0 = smooth_random(grid40, "even", 0.03, rng)
        rep = lift_with_orthogonality(grid40, y0, v0, 0.1, 0.0, 0.0, 0.0)
        base = construct_manifold_data(grid40, y0, v0, 0.1)
        assert np.max(np.abs(rep.result.first - base.result.first)) == 0.0
        assert abs(rep.result.first[grid40.n_points // 2]) == 0.0
        assert abs(rep.ortho_residual) < 1e-10

    def test_general_inputs_are_constrained(self, grid40, rng):
        y = smooth_random(grid40, "odd", 0.05, rng)
        v = smooth_random(grid40, "odd", 0.03, rng)
        rep = lift_with_orthogonality(grid40, y, v, 0.0, 0.0, 0.0, 0.0)
        assert abs(rep.ortho_residual) < 1e-10
        assert rep.final_residual < 1e-9
        # the constraint genuinely acted: the center value moved off zero
        assert abs(rep.result.first[grid40.n_points // 2]) > 1e-6

    def test_initial_time_consistency_with_constructor(self):
        # at t = 0 the constrained lift around the matched moving kink equals
        # the static construction re-centered on that kink
        g = GridSpec(-40.0, 40.0, 80001)
        delta = 0.1
        beta = final_speed_from_delta(delta)
        y0 = 0.05 * np.tanh(g.x) * np.exp(-(g.x / 2.5) ** 2)
        base = construct_manifold_data(g, y0, np.zeros(g.n_points), delta)
        rep = lift_with_orthogonality(g, y0, np.zeros(g.n_points), delta, beta, 0.0, 0.0)
        p0 = KinkParams(0.0, 0.0)
        pb = KinkParams(beta, 0.0)
        u_expected = p0.q(g.x) - pb.q(g.x) + base.result.first
        s_expected = -pb.q_t(g.x) + base.result.second
        assert np.max(np.abs(rep.result.first - u_expected)) < 1e-7
        assert np.max(np.abs(rep.result.second - s_expected)) < 1e-7
        assert abs(rep.ortho_residual) < 1e-10

    def test_center_outside_grid(self, grid40):
        z = zeros_like_grid(grid40)
        with pytest.raises(ContractError):
            lift_with_orthogonality(grid40, z, z, 0.0, 0.9, 0.0, 100.0)

    @pytest.mark.parametrize("delta", [-0.2, 0.0, 0.1])
    @pytest.mark.parametrize("beta", [-0.3, 0.0, 0.3])
    def test_is_one_newton_solve(self, grid40, rng, beta, delta):
        # the constraint is one more equation of a single Newton solve, so the
        # history covers every counted iteration and the reported residual
        # bounds F1 as well as the constraint
        y = smooth_random(grid40, "odd", 0.05, rng)
        v = smooth_random(grid40, "odd", 0.03, rng)
        rep = lift_with_orthogonality(grid40, y, v, delta, beta, 0.0, 0.7)
        assert rep.iterations == len(rep.residual_history) - 1
        assert abs(rep.ortho_residual) <= 1e-10
        u = rep.result.first
        bg = _Background.kink(grid40, 1.0 + delta, KinkParams(beta, 0.0).at(0.7))
        f1 = _pair_residual(bg, rep.result, PerturbationPair(grid40, y, v))[0]
        assert np.max(np.abs(f1)) <= rep.final_residual
        # the solver's evaluation is the docstring's F1 to round-off
        # (measured: at most 8.9e-16)
        assert np.max(np.abs(f1 - direct_f1(bg, u, derivative(u, grid40), y, v))) <= 1e-14

    def test_cross_coeff_is_the_mixed_derivative(self, grid40, rng):
        # the bordered step differentiates s = -F2 in u: dF2/du = dF1/dy
        bg = _Background.kink(grid40, 1.1, KinkParams(0.3, 0.5))
        u = smooth_random(grid40, "odd", 0.3, rng)
        y = smooth_random(grid40, "even", 0.3, rng)
        eps = 1e-6
        df2_du = (direct_f2(bg, u + eps, 0.0, y, 0.0)
                  - direct_f2(bg, u - eps, 0.0, y, 0.0)) / (2 * eps)
        df1_dy = (direct_f1(bg, u, 0.0, y + eps, 0.0)
                  - direct_f1(bg, u, 0.0, y - eps, 0.0)) / (2 * eps)
        cross = _Angles(bg, y, 1).cross_coeff(_Angles.half(u))
        assert np.max(np.abs(df2_du - cross)) < 1e-8
        assert np.max(np.abs(df1_dy - cross)) < 1e-8


@pytest.mark.parametrize("background", ["moving kink", "wobbler"])
@pytest.mark.parametrize("sign", [1, -1], ids=["kink side", "vacuum side"])
def test_angle_addition_is_the_direct_half_angle_form(grid40, rng, background, sign):
    # each solve takes the trig of its fixed half-angles once and one tan per
    # iterate w; the terms must be the docstring's direct formulas for w up to 3
    # (measured: at most 1.1e-15)
    bg = (_Background.kink(grid40, 1.3, KinkParams(0.3, 0.5)) if background == "moving kink"
          else _Background.wobbler(grid40, 0.4, 1.1))
    w = smooth_random(grid40, "odd", 3.0, rng)
    fixed = smooth_random(grid40, "even", 0.3, rng)
    angles = _Angles(bg, fixed, sign)
    half = _Angles.half(w)
    u, y = (w, fixed) if sign > 0 else (fixed, w)
    for name, expected in direct_terms(bg, u, y).items():
        assert np.max(np.abs(getattr(angles, name)(half) - expected)) <= 1e-14, name


def _map_reports(grid, rng):
    """The report of each of the seven maps."""
    y, v = smooth_random(grid, "even", 0.05, rng), smooth_random(grid, "even", 0.04, rng)
    y0 = smooth_random(grid, "odd", 0.05, rng)
    up = lift_zero_to_kink(grid, y, v)
    wob = lift_breather_to_wobbler(grid, y, v, 0.3, 0.7)
    return {
        "zero-to-kink": up,
        "kink-to-zero": descend_kink_to_zero(grid, up.result.first, up.result.second),
        "breather-to-wobbler": wob,
        "wobbler-to-breather": descend_wobbler_to_breather(grid, wob.result.first,
                                                           wob.result.second, 0.3, 0.7),
        "manifold": construct_manifold_data(grid, y0, v, 0.1),
        "zero-momentum": zero_momentum_manifold_data(grid, y0)[0],
        "orthogonal": lift_with_orthogonality(grid, y0, y, 0.1, 0.3, 0.2, 0.7),
    }


@pytest.mark.parametrize("name", ["zero-to-kink", "kink-to-zero", "breather-to-wobbler",
                                  "wobbler-to-breather", "manifold", "zero-momentum",
                                  "orthogonal"])
def test_iterations_count_the_reported_history(grid40, rng, name):
    # every map succeeds by one rule: its reported residual is at most _TOL
    rep = _map_reports(grid40, rng)[name]
    assert rep.final_residual <= backlund._TOL
    assert rep.iterations == len(rep.residual_history) - 1


class TestFinalSpeeds:
    def test_zero_momentum_is_at_rest(self):
        assert final_speed_from_momentum(0.0) == 0.0

    def test_momentum_minus_three(self):
        # -4 beta/sqrt(1-beta^2) = -3 at beta = 0.6
        assert final_speed_from_momentum(-3.0) == pytest.approx(0.6, abs=1e-15)

    def test_delta_views(self):
        assert final_speed_from_delta(0.0) == 0.0
        assert final_speed_from_delta(1.0) == pytest.approx(0.6, abs=1e-15)
        with pytest.raises(ParameterError):
            final_speed_from_delta(-1.5)

    @pytest.mark.parametrize("beta", [0.1, -0.1, 0.5, -0.5])
    def test_round_trip_with_profile_momentum(self, beta):
        g = GridSpec(-60.0, 60.0, 400001)
        state = kink(KinkParams(beta)).sample(g, 0.0)
        assert final_speed_from_momentum(momentum(state)) == pytest.approx(beta, abs=1e-8)

    def test_no_overflow_at_huge_multiplier_or_momentum(self):
        # a * a and P * P overflow past about 1.3e154; both maps stay at +/-1
        assert final_speed_from_delta(1e155) == 1.0
        assert final_speed_from_momentum(-2e155) == 1.0
        assert final_speed_from_momentum(2e155) == -1.0
        assert final_speed_from_momentum(manifold_momentum(1e155)) == 1.0

    @given(delta=st.floats(-0.9, 9.0))
    @settings(max_examples=60, deadline=None)
    def test_speed_definitions_agree(self, delta):
        gap = abs(final_speed_from_delta(delta)
                  - final_speed_from_momentum(manifold_momentum(delta)))
        assert gap < 1e-12


# the keyword options (parameters with a default) of every function and method
# named without a leading underscore in src/sglab/*.py: each is passed by a
# test or the CLI, a knob that no caller sets is a literal instead, and a new
# option must be added here
_OPTIONS = {
    "_Background.kink": {"kinkp"},
    "main": {"argv"},
    "GridSpec.refined": {"factor"},
    "Model.nonlinearity": {"out"},
    "local_energy_norm": {"interval"},
    "track_modulation": {"interval"},
    "rho_rate_check": {"eps"},
    "ReportBundle.check": {"expected", "larger_ok"},
}


def _public_functions():
    """(name, function) for the module functions and class methods of every
    sglab module, methods named Class.method, private classes included."""
    found = {}
    for path in sorted(Path(sglab.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"sglab.{path.stem}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                members = {name: obj}
            elif inspect.isclass(obj):
                members = {f"{name}.{attr}": getattr(member, "__func__", member)
                           for attr, member in vars(obj).items() if not attr.startswith("_")}
            else:
                continue
            for key, func in members.items():
                if inspect.isfunction(func):
                    assert key not in found, f"two public functions named {key}"
                    found[key] = func
    return found


_PUBLIC_FUNCTIONS = _public_functions()


@pytest.mark.parametrize("name", list(_PUBLIC_FUNCTIONS))
def test_solver_options_are_the_ones_callers_set(name):
    params = inspect.signature(_PUBLIC_FUNCTIONS[name]).parameters.values()
    assert {p.name for p in params if p.default is not p.empty} == _OPTIONS.get(name, set())


def test_options_pin_names_live_functions():
    assert set(_OPTIONS) <= set(_PUBLIC_FUNCTIONS)
    assert sum(map(len, _OPTIONS.values())) == 9
