import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sglab.grids import (
    FieldState,
    GridSpec,
    ParameterError,
    PHI4,
    SINE_GORDON,
    energy,
    momentum,
)
from sglab.solutions import (
    KinkParams,
    breather,
    kink,
    kink_profile_momentum,
    manifold_momentum,
    phi4_kink,
)


def test_zero_state_has_zero_energy(grid40):
    st = FieldState(0.0, grid40, np.zeros(4001), np.zeros(4001))
    assert energy(st, SINE_GORDON) == 0.0
    assert momentum(st) == 0.0


def test_static_kink_energy_is_eight():
    # derivation: density = (1/2) Q_x^2 + (1 - cos Q) = 4 sech^2 x, integral 8;
    # the fine grid puts the second-order derivative floor below 1e-8
    g = GridSpec(-40.0, 40.0, 800001)
    st = kink(KinkParams(0.0)).sample(g, 0.0)
    assert energy(st, SINE_GORDON) == pytest.approx(8.0, abs=1e-8)


def test_phi4_kink_energy_closed_form():
    # density = (1/2) sech^4(x/sqrt 2), integral 2 sqrt(2)/3
    g = GridSpec(-40.0, 40.0, 400001)
    st = phi4_kink().sample(g, 0.0)
    assert energy(st, PHI4) == pytest.approx(2 * np.sqrt(2) / 3, abs=1e-8)


def test_momentum_vanishes_without_velocity(grid40):
    st = FieldState(0.0, grid40, np.tanh(grid40.x), np.zeros(4001))
    assert momentum(st) == 0.0


def test_moving_kink_momentum_closed_form():
    g = GridSpec(-40.0, 40.0, 800001)
    st = kink(KinkParams(0.6)).sample(g, 0.0)
    assert momentum(st) == pytest.approx(kink_profile_momentum(0.6), abs=1e-8)
    assert kink_profile_momentum(0.6) == pytest.approx(-3.0, abs=1e-14)


def test_breather_momentum_zero_at_t0(grid40):
    st = breather(0.5).sample(grid40, 0.0)
    assert momentum(st) == 0.0


class TestManifoldMomentum:
    def test_zero_at_zero(self):
        assert manifold_momentum(0.0) == 0.0

    def test_delta_one(self):
        assert manifold_momentum(1.0) == pytest.approx(-3.0, abs=1e-15)

    def test_sign_opposite_to_delta(self):
        assert manifold_momentum(0.3) < 0 < manifold_momentum(-0.3)

    def test_parameter_error(self):
        with pytest.raises(ParameterError):
            manifold_momentum(-1.0)

    @given(delta=st.floats(-0.9, 9.0))
    @settings(max_examples=50, deadline=None)
    def test_antisymmetric_under_inversion(self, delta):
        a = 1.0 + delta
        assert manifold_momentum(1.0 / a - 1.0) == pytest.approx(
            -manifold_momentum(delta), rel=1e-12, abs=1e-12)


def test_energy_is_silent_on_nondecaying_boundary(grid40):
    # evolve logs every snapshot through energy, and radiation reaching the
    # box ends must not turn each log entry into a warning
    st = FieldState(0.0, grid40, np.sin(grid40.x), np.zeros(4001))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(energy(st, SINE_GORDON))
