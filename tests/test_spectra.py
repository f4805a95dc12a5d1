import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sglab

from sglab.grids import ContractError, GridSpec, quadrature
from sglab.solutions import SolutionSampler, linear_mode, zero_sampler
from sglab.spectra import (
    discrete_spectrum,
    kink_phi4_dual_operator,
    kink_phi4_operator,
    kink_sg_operator,
    lbt_residual_phi4,
    lbt_residual_phi4_dual,
    lbt_residual_sg,
)
from wave_checks import apply_operator, wave_residual

SQRT2 = math.sqrt(2.0)


def sech(x):
    return 1.0 / np.cosh(x)


def kink_slope_sampler():
    """The static sine-Gordon kink's translation mode 2 sech x."""
    return SolutionSampler(
        lambda t, x: 2.0 * sech(np.asarray(x, dtype=float)),
        lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        lambda t, x: -2.0 * sech(np.asarray(x, dtype=float)) * np.tanh(np.asarray(x, dtype=float)),
    )


def phi4_slope_sampler():
    def slope(t, x):
        x = np.asarray(x, dtype=float)
        return sech(x / SQRT2) ** 2 / SQRT2

    def slope_x(t, x):
        x = np.asarray(x, dtype=float)
        return -np.tanh(x / SQRT2) * sech(x / SQRT2) ** 2

    return SolutionSampler(slope, lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
                           slope_x)


class TestApplyOperator:
    def test_kernel_of_sg_operator(self, grid30):
        r = apply_operator(kink_sg_operator(), 2.0 * sech(grid30.x), grid30)
        assert np.max(np.abs(r[5:-5])) < 5e-4

    def test_phi4_internal_mode_eigenvalue(self, grid30):
        y1 = sech(grid30.x / SQRT2) * np.tanh(grid30.x / SQRT2)
        r = apply_operator(kink_phi4_operator(), y1, grid30) - 1.5 * y1
        assert np.max(np.abs(r[5:-5])) < 5e-4

    def test_phi4_even_threshold_resonance(self, grid30):
        f = 1.0 - 1.5 * sech(grid30.x / SQRT2) ** 2
        r = apply_operator(kink_phi4_operator(), f, grid30) - 2.0 * f
        # Dirichlet closure corrupts the non-decaying profile near the ends only
        assert np.max(np.abs(r[5:-5])) < 5e-4


class TestDiscreteSpectrum:
    def test_sg_kink_has_only_the_kernel(self, grid30):
        pairs = discrete_spectrum(kink_sg_operator(), grid30)
        assert len(pairs) == 1
        value, vector = pairs[0]
        assert abs(value) < 1e-4
        ground = sech(grid30.x)
        ground /= math.sqrt(quadrature(ground ** 2, grid30))
        assert abs(quadrature(vector * ground, grid30)) > 1 - 1e-6

    def test_phi4_kink_has_kernel_and_internal_mode(self, grid30):
        pairs = discrete_spectrum(kink_phi4_operator(), grid30)
        assert [round(v, 3) for v, _ in pairs] == [0.0, 1.5]
        assert abs(pairs[1][0] - 1.5) < 2e-3
        y1 = sech(grid30.x / SQRT2) * np.tanh(grid30.x / SQRT2)
        y1 /= math.sqrt(quadrature(y1 ** 2, grid30))
        assert abs(quadrature(pairs[1][1] * y1, grid30)) > 1 - 1e-5

    def test_phi4_dual_has_no_kernel(self, grid30):
        pairs = discrete_spectrum(kink_phi4_dual_operator(), grid30)
        assert len(pairs) == 1
        assert abs(pairs[0][0] - 1.5) < 2e-3
        # nothing anywhere near zero
        low = [v for v, _ in pairs if -0.1 <= v <= 1.3]
        assert low == []
        ground = sech(grid30.x / SQRT2)
        ground /= math.sqrt(quadrature(ground ** 2, grid30))
        assert abs(quadrature(pairs[0][1] * ground, grid30)) > 1 - 1e-5

    def test_eigenvalue_converges_at_order_two(self):
        errs = []
        for n in (2001, 4001, 8001):
            g = GridSpec(-30.0, 30.0, n)
            vals = [v for v, _ in discrete_spectrum(kink_phi4_operator(), g)]
            errs.append(abs(vals[-1] - 1.5))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 1.9

    def test_grid_requirements(self):
        with pytest.raises(ContractError):
            discrete_spectrum(kink_sg_operator(), GridSpec(-30.0, 30.0, 501))
        with pytest.raises(ContractError):
            discrete_spectrum(kink_sg_operator(), GridSpec(-5.0, 30.0, 4001))

    def test_threshold_check(self):
        # a domain too small for the potential to flatten is rejected
        with pytest.raises(ContractError):
            discrete_spectrum(kink_sg_operator(), GridSpec(-4.0, 4.0, 2001))


def test_resonances_are_not_normalizable():
    # discrete L^2 norms grow like sqrt(length) under domain doubling
    for profile in (lambda x: np.tanh(x), lambda x: 1.0 - 1.5 * sech(x / SQRT2) ** 2):
        norms = []
        for L in (20.0, 40.0, 80.0):
            g = GridSpec(-L, L, int(100 * L) + 1)
            norms.append(math.sqrt(quadrature(profile(g.x) ** 2, g)))
        ratios = [norms[1] / norms[0], norms[2] / norms[1]]
        for r in ratios:
            assert r == pytest.approx(math.sqrt(2.0), rel=0.05)


class TestLinearTransformSG:
    def test_kink_slope_pair(self, grid30):
        e1, e2 = lbt_residual_sg(kink_slope_sampler(), zero_sampler(), 0.3, grid30)
        assert np.max(np.abs(e1)) < 1e-13
        assert np.max(np.abs(e2)) < 1e-13

    @pytest.mark.parametrize("t", [0.0, 0.9])
    def test_resonance_pair(self, grid30, t):
        e1, e2 = lbt_residual_sg(linear_mode("L"), linear_mode("M"), t, grid30)
        assert np.max(np.abs(e1)) < 1e-13
        assert np.max(np.abs(e2)) < 1e-13

    def test_time_shifted_variant(self, grid30):
        e1, e2 = lbt_residual_sg(linear_mode("L-alt"), linear_mode("M-alt"), 0.7, grid30)
        assert np.max(np.abs(e1)) < 1e-13
        assert np.max(np.abs(e2)) < 1e-13

    def test_grid_derivative_fallback_is_second_order(self, grid30):
        # without its closed-form u_x, L is differentiated on the grid: the
        # residual becomes O(h^2) (4.7e-5 at n = 4001) instead of round-off
        closed = linear_mode("L")
        fallback = dataclasses.replace(closed, dvalue_dx=None)

        def worst(phi, grid):
            return max(float(np.max(np.abs(e)))
                       for e in lbt_residual_sg(phi, linear_mode("M"), 0.9, grid))

        coarse, fine = (worst(fallback, g) for g in (grid30, grid30.refined(2)))
        assert math.log2(coarse / fine) >= 1.9
        assert coarse > 1e-6
        assert worst(closed, grid30) < 1e-13 and worst(closed, grid30.refined(2)) < 1e-13


class TestLinearTransformPhi4:
    def test_kink_slope_pair(self, grid30):
        e1, e2 = lbt_residual_phi4(phi4_slope_sampler(), zero_sampler(), 0.3, grid30)
        assert np.max(np.abs(e1)) < 1e-13
        assert np.max(np.abs(e2)) < 1e-13

    def test_internal_mode_pair(self, grid30):
        phi, psi = linear_mode("Y1-sin-pair")
        e1, e2 = lbt_residual_phi4(phi, psi, 0.9, grid30)
        assert np.max(np.abs(e1)) < 1e-13
        assert np.max(np.abs(e2)) < 1e-13

    @pytest.mark.parametrize("pair", [("L4", "M4"), ("L4-alt", "M4-alt")])
    def test_resonance_pairs(self, grid30, pair):
        e1, e2 = lbt_residual_phi4(linear_mode(pair[0]), linear_mode(pair[1]), 0.9, grid30)
        assert np.max(np.abs(e1)) < 1e-13
        assert np.max(np.abs(e2)) < 1e-13


class TestDualTransform:
    @pytest.mark.parametrize("sign,name", [(1, "N4-plus"), (-1, "N4-minus")])
    def test_matching_sign_pairs(self, grid30, sign, name):
        (a1, b1), (a2, b2) = lbt_residual_phi4_dual(
            linear_mode("M4-complex"), linear_mode(name), sign, 0.9, grid30)
        assert max(np.max(np.abs(v)) for v in (a1, b1, a2, b2)) < 1e-12

    def test_mismatched_sign_regression_value(self, grid30):
        # pinned once from this exact configuration; any change flags a
        # formula regression
        (a1, b1), (a2, b2) = lbt_residual_phi4_dual(
            linear_mode("M4-complex"), linear_mode("N4-plus"), -1, 0.9, grid30)
        worst = max(np.max(np.abs(v)) for v in (a1, b1, a2, b2))
        assert worst > 0.1
        assert worst == pytest.approx(8.738697857239321, abs=1e-9)

    def test_zero_pair(self, grid30):
        z = (zero_sampler(), zero_sampler())
        (a1, b1), (a2, b2) = lbt_residual_phi4_dual(z, z, 1, 0.9, grid30)
        assert max(np.max(np.abs(v)) for v in (a1, b1, a2, b2)) == 0.0


class TestWaveResidual:
    def test_sg_resonance_against_kink_operator(self):
        g = GridSpec(-30.0, 30.0, 30001)
        r = wave_residual(linear_mode("L"), kink_sg_operator(), 0.9, g, 1e-3)
        assert np.max(np.abs(r[5:-5])) < 5e-6

    def test_flat_mass_one(self):
        g = GridSpec(-30.0, 30.0, 30001)
        r = wave_residual(linear_mode("M"), 1.0, 0.9, g, 1e-3)
        assert np.max(np.abs(r[5:-5])) < 5e-6

    def test_flat_mass_two_for_dual_mode(self):
        g = GridSpec(-30.0, 30.0, 30001)
        re, im = linear_mode("N4-plus")
        for s in (re, im):
            r = wave_residual(s, 2.0, 0.9, g, 5e-4)
            assert np.max(np.abs(r[5:-5])) < 5e-6

    def test_transform_implies_second_order(self, grid30, rng):
        # pairs built from transform solutions keep small wave residuals; the
        # converse direction is not asserted
        combos = rng.normal(size=(10, 3))
        L, M = linear_mode("L"), linear_mode("M")
        La, Ma = linear_mode("L-alt"), linear_mode("M-alt")
        Qs = kink_slope_sampler()
        g = GridSpec(-30.0, 30.0, 12001)
        for a, b, c in combos:
            phi = SolutionSampler(
                lambda t, x, a=a, b=b, c=c: a * np.asarray(L.value(t, x)) + b * np.asarray(La.value(t, x)) + c * np.asarray(Qs.value(t, x)),
                lambda t, x, a=a, b=b, c=c: a * np.asarray(L.dvalue_dt(t, x)) + b * np.asarray(La.dvalue_dt(t, x)) + c * np.asarray(Qs.dvalue_dt(t, x)),
                lambda t, x, a=a, b=b, c=c: a * np.asarray(L.dvalue_dx(t, x)) + b * np.asarray(La.dvalue_dx(t, x)) + c * np.asarray(Qs.dvalue_dx(t, x)),
            )
            psi = SolutionSampler(
                lambda t, x, a=a, b=b: a * np.asarray(M.value(t, x)) + b * np.asarray(Ma.value(t, x)),
                lambda t, x, a=a, b=b: a * np.asarray(M.dvalue_dt(t, x)) + b * np.asarray(Ma.dvalue_dt(t, x)),
                lambda t, x, a=a, b=b: a * np.asarray(M.dvalue_dx(t, x)) + b * np.asarray(Ma.dvalue_dx(t, x)),
            )
            e1, e2 = lbt_residual_sg(phi, psi, 0.6, g)
            lbt = max(np.max(np.abs(e1)), np.max(np.abs(e2)))
            assert lbt < 1e-12
            w1 = wave_residual(phi, kink_sg_operator(), 0.6, g, 1e-3)
            w2 = wave_residual(psi, 1.0, 0.6, g, 1e-3)
            floor = 1e-4 * max(1.0, abs(a) + abs(b) + abs(c))
            assert np.max(np.abs(w1[5:-5])) < floor
            assert np.max(np.abs(w2[5:-5])) < floor


def test_package_import_defers_scipy_to_the_first_spectrum():
    # import sglab costs a numpy import plus little more: scipy loads with the
    # first spectrum solve, and no command loads a process pool
    src = str(Path(sglab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    script = (
        "import json, sys, sglab, sglab.cli\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')"
        " or m == 'concurrent.futures.process')\n"
        "spec = sglab.discrete_spectrum(sglab.kink_sg_operator(),"
        " sglab.GridSpec(-30.0, 30.0, 4001))\n"
        "print(json.dumps({'loaded': loaded, 'eigenvalues': [float(v) for v, _ in spec]}))\n")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    result = json.loads(out.stdout)
    assert result["loaded"] == []
    (kernel,) = result["eigenvalues"]
    assert abs(kernel) < 2e-3
