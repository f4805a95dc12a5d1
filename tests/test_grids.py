import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sglab.grids import (
    ContractError,
    FieldState,
    GridSpec,
    Model,
    ParameterError,
    PerturbationPair,
    PHI4,
    SINE_GORDON,
    WeightSpec,
    _BLOCK,
    _fix_boundary_rows,
    _second_difference,
    derivative,
    energy,
    local_energy_norm,
    momentum,
    parity_check,
    pde_residual,
    quadrature,
    second_derivative,
    weighted_norm_sq,
)
from sglab.evolution import _kink_frame_force
from sglab.solutions import KinkParams, kink, zero_sampler


def kink_terms(x):
    """The evolver's force terms (sin Q, cos Q) of the kink at 0, in closed form."""
    return KinkParams().sin_cos_q(x, (np.empty_like(x), np.empty_like(x)), np.empty_like(x))


def kink_frame_force(terms, u):
    """sin(Q + u) - sin Q: the evolver's helper takes the terms scaled by 2c
    and returns c times the force."""
    return _kink_frame_force(*(2.0 * term for term in terms), u, np.empty_like(u),
                             np.empty_like(u))


class TestGridSpec:
    def test_spacing(self):
        g = GridSpec(-40.0, 40.0, 4001)
        assert g.h == pytest.approx(0.02)
        assert g.x[0] == -40.0 and g.x[-1] == 40.0
        assert g.is_symmetric()

    def test_invalid(self):
        with pytest.raises(ParameterError):
            GridSpec(1.0, -1.0, 11)
        with pytest.raises(ParameterError):
            GridSpec(-1.0, 1.0, 2)
        # JSON configs and saved pairs can carry strings or non-integer counts
        for bad in (("-1", 1.0, 11), (-1.0, 1.0, "11"), (-1.0, 1.0, 11.0)):
            with pytest.raises(ParameterError):
                GridSpec(*bad)
        # a non-finite end, or finite ends whose span overflows, would give
        # NaN nodes and an infinite spacing
        for bad in ((-np.inf, 0.0, 5), (0.0, np.inf, 5), (-np.inf, np.inf, 5),
                    (-1e308, 1e308, 5)):
            with pytest.raises(ParameterError, match="need 0 < x_max - x_min < inf"):
                GridSpec(*bad)

    def test_asymmetric_grid_rejected_for_parity(self):
        g = GridSpec(-1.0, 2.0, 7)
        with pytest.raises(ContractError):
            parity_check(np.zeros(7), g, "odd")
        # even node count has no node at zero
        g2 = GridSpec(-1.0, 1.0, 10)
        with pytest.raises(ContractError):
            parity_check(np.zeros(10), g2, "even")


class TestQuadrature:
    def test_constant_exact(self):
        g = GridSpec(-1.0, 1.0, 17)
        assert quadrature(np.ones(17), g) == pytest.approx(2.0, abs=1e-15)

    def test_odd_cubic_cancels(self):
        g = GridSpec(-3.0, 3.0, 601)
        assert quadrature(g.x ** 3, g) == pytest.approx(0.0, abs=1e-12)

    def test_sech_squared_against_antiderivative(self):
        # oracle: d/dx tanh = sech^2, so the integral is tanh(30) - tanh(-30)
        g = GridSpec(-30.0, 30.0, 6001)
        exact = np.tanh(30.0) - np.tanh(-30.0)
        assert quadrature(1.0 / np.cosh(g.x) ** 2, g) == pytest.approx(exact, abs=1e-10)
        assert exact == pytest.approx(2.0, abs=1e-15)

    def test_length_mismatch(self):
        g = GridSpec(-1.0, 1.0, 11)
        with pytest.raises(ContractError):
            quadrature(np.ones(10), g)

    @given(a=st.floats(-5, 5), b=st.floats(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b):
        g = GridSpec(-2.0, 2.0, 41)
        f = np.sin(g.x)
        h = np.cos(3 * g.x)
        lhs = quadrature(a * f + b * h, g)
        rhs = a * quadrature(f, g) + b * quadrature(h, g)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_translation_covariance(self):
        # compactly supported bump shifted by a whole number of cells
        g = GridSpec(-10.0, 10.0, 2001)
        bump = np.exp(-np.clip((g.x / 0.5) ** 2, 0, 500))
        shift = 100  # cells
        shifted = np.roll(bump, shift)
        shifted[:shift] = 0.0
        assert quadrature(shifted, g) == pytest.approx(quadrature(bump, g), abs=1e-13)


class TestDerivative:
    def test_linear_exact(self):
        g = GridSpec(-2.0, 3.0, 101)
        assert np.allclose(derivative(1.75 * g.x, g), 1.75, atol=1e-12)

    def test_constant_zero(self):
        g = GridSpec(-2.0, 3.0, 101)
        assert np.allclose(derivative(np.full(101, 4.2), g), 0.0, atol=1e-12)

    def test_sin_second_order(self):
        errs = []
        for n in (101, 201):
            g = GridSpec(-3.0, 3.0, n)
            errs.append(np.max(np.abs(derivative(np.sin(g.x), g) - np.cos(g.x))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)

    def test_second_difference_second_order(self):
        # the evolver's Laplacian: the second difference of the forward slopes
        # over h^2 approximates -sin x on the interior nodes with order 2
        errs = []
        for n in (101, 201, 401):
            g = GridSpec(-3.0, 3.0, n)
            slope, out = np.empty(n - 1), np.empty(n - 2)
            _second_difference(np.sin(g.x), slope, out)
            np.testing.assert_array_equal(slope, np.diff(np.sin(g.x)))
            errs.append(np.max(np.abs(out / g.h ** 2 + np.sin(g.x[1:-1]))))
        for coarse, fine in zip(errs, errs[1:]):
            assert np.log2(coarse / fine) == pytest.approx(2.0, abs=0.1)

    def test_end_row_solve_meets_the_derivative_end_rows(self, rng):
        # after the solve, derivative(w) + c w equals r in both end rows to
        # round-off, whatever the interior of w holds
        g = GridSpec(-5.0, 7.0, 61)
        for _ in range(5):
            w, c, r = (rng.normal(size=g.n_points) for _ in range(3))
            interior = w[1:-1].copy()
            _fix_boundary_rows(w, r, c, g.h)
            np.testing.assert_array_equal(w[1:-1], interior)
            lhs = derivative(w, g) + c * w
            scale = np.abs(r).max() + np.abs(w).max() / g.h
            assert abs(lhs[0] - r[0]) <= 1e-13 * scale
            assert abs(lhs[-1] - r[-1]) <= 1e-13 * scale

    def test_second_derivative_second_order(self):
        errs = []
        for n in (101, 201):
            g = GridSpec(-3.0, 3.0, n)
            errs.append(np.max(np.abs(second_derivative(np.sin(g.x), g) + np.sin(g.x))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


class TestPdeResidual:
    def test_zero_solution_exact(self, grid40):
        res = pde_residual(zero_sampler(), SINE_GORDON, 0.3, grid40, 0.01)
        assert np.max(np.abs(res)) == 0.0

    def test_static_kink_quarters_under_halving(self, grid40):
        s = kink(KinkParams(0.0))
        r1 = np.max(np.abs(pde_residual(s, SINE_GORDON, 0.0, grid40, 0.02)))
        r2 = np.max(np.abs(pde_residual(s, SINE_GORDON, 0.0, grid40.refined(2), 0.01)))
        assert r1 / r2 == pytest.approx(4.0, rel=0.1)

    def test_breather_refines(self, grid40):
        from sglab.solutions import breather

        s = breather(0.5)
        r1 = np.max(np.abs(pde_residual(s, SINE_GORDON, 0.7, grid40, 0.02)))
        r2 = np.max(np.abs(pde_residual(s, SINE_GORDON, 0.7, grid40.refined(2), 0.01)))
        assert r2 < r1 / 3.5

    def test_nonfinite_sample_reported(self, grid40):
        from sglab.solutions import SolutionSampler

        bad = SolutionSampler(
            lambda t, x: np.where(np.abs(x) < 0.01, np.nan, 0.0),
            lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        )
        with pytest.raises(ContractError, match="node"):
            pde_residual(bad, SINE_GORDON, 0.0, grid40, 0.01)


class TestNorms:
    def test_zero_pair(self, grid40):
        pair = PerturbationPair(grid40, np.zeros(4001), np.zeros(4001))
        assert weighted_norm_sq(pair, WeightSpec(1.0)) == 0.0
        assert local_energy_norm(pair, (-1.0, 1.0)) == 0.0

    def test_weighted_norm_matches_fine_oracle(self):
        # oracle: the same integral on a 16x finer grid
        vals = []
        for n in (2001, 32001):
            g = GridSpec(-20.0, 20.0, n)
            pair = PerturbationPair(g, 1.0 / np.cosh(g.x), np.zeros(n))
            vals.append(weighted_norm_sq(pair, WeightSpec(1.0)))
        assert vals[0] > 0
        assert vals[0] == pytest.approx(vals[1], rel=1e-5)

    def test_weighted_norm_translation(self):
        g = GridSpec(-20.0, 20.0, 4001)
        bump = np.exp(-np.clip((g.x / 0.5) ** 2, 0, 500))
        pair = PerturbationPair(g, bump, bump)
        shifted = np.roll(bump, 300)
        shifted[:300] = 0.0
        pair2 = PerturbationPair(g, shifted, shifted)
        w1 = weighted_norm_sq(pair, WeightSpec(0.7, center=0.0))
        w2 = weighted_norm_sq(pair2, WeightSpec(0.7, center=300 * g.h))
        assert w1 == pytest.approx(w2, rel=1e-9)

    def test_local_energy_norm_against_fine_grid(self):
        # the discrete-derivative term carries an O(h^2) offset the stated
        # tolerances absorb
        vals = []
        for n in (2001, 32001):
            g = GridSpec(-20.0, 20.0, n)
            pair = PerturbationPair(g, 1.0 / np.cosh(g.x), np.zeros(n))
            vals.append(local_energy_norm(pair, (-1.0, 1.0)))
        assert vals[0] == pytest.approx(vals[1], rel=1e-3)

    def test_nested_intervals_monotone(self, grid40):
        pair = PerturbationPair(grid40, 1.0 / np.cosh(grid40.x), np.zeros(4001))
        inner = local_energy_norm(pair, (-1.0, 1.0))
        outer = local_energy_norm(pair, (-5.0, 5.0))
        assert inner <= outer

    def test_interval_outside_grid(self, grid40):
        pair = PerturbationPair(grid40, np.zeros(4001), np.zeros(4001))
        with pytest.raises(ContractError):
            local_energy_norm(pair, (-100.0, 0.0))


def bits(value):
    """The bytes of a float or float array, so that == compares bitwise."""
    return np.asarray(value, dtype=float).tobytes()


def textbook_derivative(f, h):
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return out


def textbook_quadrature(f, h):
    return h * (f.sum() - 0.5 * (f[0] + f[-1]))


class TestFunctionalsInPlace:
    """The functionals build their density in ``derivative``'s array, a block
    at a time; each must equal the whole-array numpy expression bit for bit."""

    N = 3 * _BLOCK + 7  # three full blocks and a partial one

    @pytest.fixture()
    def fields(self, rng):
        grid = GridSpec(-30.0, 30.0, self.N)
        u, v = 2.0 * rng.standard_normal((2, self.N))
        return grid, u, v

    def test_derivative(self, fields):
        grid, u, _ = fields
        assert bits(derivative(u, grid)) == bits(textbook_derivative(u, grid.h))

    @pytest.mark.parametrize("model, potential", [
        (SINE_GORDON, lambda u: 1.0 - np.cos(u)),
        (PHI4, lambda u: 0.25 * (1.0 - u * u) ** 2),
    ])
    def test_energy(self, fields, model, potential):
        grid, u, v = fields
        ux = textbook_derivative(u, grid.h)
        density = 0.5 * (ux ** 2 + v ** 2) + potential(u)
        assert bits(energy(FieldState(0.0, grid, u, v), model)) == bits(
            textbook_quadrature(density, grid.h))

    def test_momentum(self, fields):
        grid, u, v = fields
        ux = textbook_derivative(u, grid.h)
        assert bits(momentum(FieldState(0.0, grid, u, v))) == bits(
            0.5 * textbook_quadrature(v * ux, grid.h))

    @pytest.mark.parametrize("interval", [None, (-7.3, 21.0)])
    def test_local_energy_norm(self, fields, interval):
        grid, u, v = fields
        density = textbook_derivative(u, grid.h) ** 2 + u ** 2 + v ** 2
        if interval is not None:
            inside = (grid.x >= interval[0]) & (grid.x <= interval[1])
            density = density[inside]
        expected = np.sqrt(textbook_quadrature(density, grid.h))
        assert bits(local_energy_norm(PerturbationPair(grid, u, v), interval)) == bits(expected)

    def test_weighted_norm_sq(self, fields):
        grid, u, v = fields
        w = WeightSpec(0.4, center=-2.5)
        weight = np.exp(-w.rate * np.abs(grid.x - w.center))
        density = weight * (textbook_derivative(u, grid.h) ** 2 + u ** 2 + v ** 2)
        assert bits(weighted_norm_sq(PerturbationPair(grid, u, v), w)) == bits(
            textbook_quadrature(density, grid.h))

    def test_inputs_are_not_modified(self, fields):
        grid, u, v = fields
        u0, v0 = u.copy(), v.copy()
        state, pair = FieldState(0.0, grid, u, v), PerturbationPair(grid, u, v)
        derivative(u, grid)
        energy(state, SINE_GORDON)
        energy(state, PHI4)
        momentum(state)
        local_energy_norm(pair, (-1.0, 1.0))
        weighted_norm_sq(pair, WeightSpec(1.0))
        parity_check(u, grid, "odd")
        assert bits(u) == bits(u0) and bits(v) == bits(v0)


N_PEAK = 200001


def peak_arrays(call):
    """tracemalloc's peak during call(), in arrays of N_PEAK floats."""
    call()  # a first call pays any one-time allocation
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (8 * N_PEAK)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["energy", "momentum", "q", "q_t"])
def test_large_grid_kernels_hold_one_grid_array(name):
    # each works inside the one array it allocates, derivative's or the kink's
    # argument, with at most a bool mask (q) or block-sized temporaries beside it
    grid = GridSpec(-40.0, 40.0, N_PEAK)
    state = kink(KinkParams(0.3)).sample(grid, 0.0)
    p = KinkParams(0.3)
    call = {"energy": lambda: energy(state, SINE_GORDON), "momentum": lambda: momentum(state),
            "q": lambda: p.q(grid.x), "q_t": lambda: p.q_t(grid.x)}[name]
    assert peak_arrays(call) <= 1.25


class TestParity:
    def test_tanh_is_odd(self, grid40):
        assert parity_check(np.tanh(grid40.x), grid40, "odd") < 1e-12

    def test_sech_is_even(self, grid40):
        assert parity_check(1.0 / np.cosh(grid40.x), grid40, "even") < 1e-12

    def test_defects_are_the_whole_array_expressions(self, rng):
        g = GridSpec(-5.0, 5.0, 1001)
        f = rng.standard_normal(1001)
        assert bits(parity_check(f, g, "even")) == bits(np.max(np.abs(f - f[::-1])))
        assert bits(parity_check(f, g, "odd")) == bits(np.max(np.abs(f + f[::-1])))

    def test_sech_odd_defect_is_two(self, grid40):
        assert parity_check(1.0 / np.cosh(grid40.x), grid40, "odd") == pytest.approx(2.0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_no_field_is_both(self, seed):
        g = GridSpec(-5.0, 5.0, 101)
        values = np.random.default_rng(seed).normal(size=101)
        if np.max(np.abs(values)) > 0:
            assert parity_check(values, g, "odd") + parity_check(values, g, "even") > 0


class TestModel:
    def test_nonlinearities(self):
        u = np.array([0.0, 0.5, -1.2])
        assert np.allclose(SINE_GORDON.nonlinearity(u), np.sin(u))
        assert np.allclose(PHI4.nonlinearity(u), u ** 3 - u)

    def test_nonlinearity_writes_into_out(self, rng):
        u = rng.standard_normal(1001)
        for model, ref in ((SINE_GORDON, np.sin(u)), (PHI4, u * u * u - u)):
            buf = np.empty_like(u)
            assert model.nonlinearity(u, out=buf) is buf
            assert np.array_equal(buf, ref)
            assert np.array_equal(model.nonlinearity(u), ref)

    def test_potentials_vanish_at_vacua(self):
        assert SINE_GORDON.potential(np.array([0.0, 2 * np.pi]))[0] == 0.0
        assert np.allclose(PHI4.potential(np.array([1.0, -1.0])), 0.0)

    def test_potential_derivative_is_nonlinearity(self):
        u = np.linspace(-2, 2, 2001)
        for model in (SINE_GORDON, PHI4):
            dv = np.gradient(model.potential(u), u)
            assert np.allclose(dv[5:-5], model.nonlinearity(u)[5:-5], atol=5e-6)

    def test_perturbation_force_vanishes_at_zero(self, grid40):
        assert np.all(kink_frame_force(kink_terms(grid40.x), np.zeros(4001)) == 0.0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double has no more precision than float64 here")
    @pytest.mark.parametrize("amplitude,center", [
        (1e-6, 0.0), (1e-3, 0.0), (1.0, 0.0), (3.0, 0.0), (10.0, 0.0),
        (1e-6, np.pi), (1e-6, -np.pi)])
    def test_half_angle_force_against_long_double(self, grid40, amplitude, center):
        # Reference: sin Q (cos u - 1) + cos Q sin u in long double from the same
        # float64 sin Q and cos Q.  Its cos u - 1 is taken as -2 sin^2(u/2):
        # computed directly it cancels to ~1e-19/|u| relative even in long
        # double, about 3e-14 at |u| ~ 1e-6, too close to the bound.
        terms = kink_terms(grid40.x)
        u = center + amplitude * np.random.default_rng(11).uniform(-1.0, 1.0, grid40.n_points)
        got = kink_frame_force(terms, u)
        sin_q, cos_q = (np.asarray(t, dtype=np.longdouble) for t in terms)
        ul = u.astype(np.longdouble)
        ref = sin_q * (-2.0 * np.sin(0.5 * ul) ** 2) + cos_q * np.sin(ul)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("amplitude", [1e-6, 1e-3, 1.0, 3.0, 10.0])
    def test_force_keeps_odd_parity_around_kink(self, grid40, amplitude):
        # the defect comes from sin Q, which is not bitwise odd about the kink
        w = amplitude * np.random.default_rng(12).uniform(-1.0, 1.0, grid40.n_points)
        u = 0.5 * (w - w[::-1])
        force = kink_frame_force(kink_terms(grid40.x), u)
        assert parity_check(force, grid40, "odd") <= 1e-13

    def test_unknown_model(self):
        with pytest.raises(ParameterError):
            Model("cubic")


def test_field_state_validation(grid40):
    with pytest.raises(ContractError):
        FieldState(0.0, grid40, np.zeros(11), np.zeros(4001))
    bad = np.zeros(4001)
    bad[7] = np.inf
    with pytest.raises(ContractError):
        FieldState(0.0, grid40, bad, np.zeros(4001))


def test_weight_spec_positive_rate():
    with pytest.raises(ParameterError):
        WeightSpec(0.0)
    # an infinite rate gives inf * 0 = NaN at the centre; a non-finite centre
    # gives NaN or 0 everywhere
    with pytest.raises(ParameterError, match="weight rate"):
        WeightSpec(np.inf)
    for center in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError, match="weight center"):
            WeightSpec(1.0, center)
