"""Exact symmetries of the lab, each checked on a small run.

The reflection R(u, v)(x) = (-u(-x), -v(-x)) maps the static kink frame onto
itself, so a manifold run from vacuum data -y0 is the reflection of the run
from y0, and its shift rho is the negative.  That makes rho odd in the noise
size eta: the shift rate has no eta^2 term.

The transform maps commute with reflection composed with time reversal: the
static kink keeps it, and the wobbler at -t and the breather at -t are the
reflected wobbler and breather at t.  On (even, even) vacuum data and
(odd, odd) kink data it flips the sign of y and of s, and leaves u and v.
"""

import numpy as np
import pytest

from sglab.backlund import (
    descend_kink_to_zero,
    descend_wobbler_to_breather,
    lift_breather_to_wobbler,
    lift_zero_to_kink,
)
from sglab.experiments import manifold_run
from sglab.grids import GridSpec
from sglab.inputs import smooth_random


@pytest.fixture(scope="module")
def mirrored_manifold_runs():
    grid = GridSpec(-40.0, 40.0, 4001)
    shape = smooth_random(grid, "odd", 1.0, np.random.default_rng(1))
    return [manifold_run(grid, eta * shape, 0.01, 20.0, 0.5, (-5.0, 5.0))
            for eta in (0.08, -0.08)]


def test_manifold_runs_at_opposite_eta_are_reflections(mirrored_manifold_runs):
    (plus, plus_records), (minus, minus_records) = mirrored_manifold_runs
    assert len(plus_records) == len(minus_records) == len(plus) == 41
    assert [r.t for r in plus_records] == [r.t for r in minus_records]

    def worst(values):
        return max(abs(v) for v in values)

    # measured: max |rho(eta) + rho(-eta)| = 4.3e-14 against max |rho| = 8.3e-5,
    # and 2.2e-15 against 1.0e-5 for the rate
    rho_scale = worst(r.rho for r in plus_records)
    assert worst(p.rho + m.rho for p, m in zip(plus_records, minus_records)) <= 5e-9 * rho_scale
    rate_scale = worst(r.rho_rate for r in plus_records)
    assert (worst(p.rho_rate + m.rho_rate for p, m in zip(plus_records, minus_records))
            <= 2e-9 * rate_scale)
    # measured: max |u+(x) + u-(-x)| = 8.6e-14 against max |u+| = 0.065, and
    # 4.8e-14 against 0.16 for v
    for plus_snaps, minus_snaps, bound in ((plus.u_snaps, minus.u_snaps, 1.5e-11),
                                           (plus.v_snaps, minus.v_snaps, 3e-12)):
        scale = worst(float(np.max(np.abs(s))) for s in plus_snaps)
        gap = worst(float(np.max(np.abs(p + m[::-1]))) for p, m in zip(plus_snaps, minus_snaps))
        assert gap <= bound * scale


_BETA, _T = 0.4, 1.1
_LIFTS = {
    "kink": lambda grid, y, v, t: lift_zero_to_kink(grid, y, v),
    "wobbler": lambda grid, y, v, t: lift_breather_to_wobbler(grid, y, v, _BETA, t),
}
_DESCENTS = {
    "kink": lambda grid, u, s, t: descend_kink_to_zero(grid, u, s),
    "wobbler": lambda grid, u, s, t: descend_wobbler_to_breather(grid, u, s, _BETA, t),
}


@pytest.fixture(scope="module")
def vacuum_pair():
    grid = GridSpec(-40.0, 40.0, 4001)
    rng = np.random.default_rng(1)
    return (grid, smooth_random(grid, "even", 0.05, rng), smooth_random(grid, "even", 0.05, rng))


def _gap(a, b):
    return float(np.max(np.abs(a - b)))


@pytest.mark.parametrize("background", ["kink", "wobbler"])
def test_transform_maps_commute_with_reflected_time_reversal(vacuum_pair, background):
    # lift(-y, v) at -t is (u, -s), and descend(u, -s) at -t is (-y, v).
    # measured: exactly 0 for all four maps (4.4e-16 at most before every
    # solve took one evaluation path), against max |s| = 0.03 to 0.06; the
    # bound is 10 round-off units of that scale
    grid, y, v = vacuum_pair
    lift, descend = _LIFTS[background], _DESCENTS[background]
    up = lift(grid, y, v, _T).result
    mirrored = lift(grid, -y, v, -_T).result
    bound = 10 * np.finfo(float).eps * float(np.max(np.abs(up.second)))
    assert _gap(mirrored.first, up.first) <= bound
    assert _gap(mirrored.second, -up.second) <= bound
    down = descend(grid, up.first, up.second, _T).result
    mirrored = descend(grid, up.first, -up.second, -_T).result
    assert _gap(mirrored.first, -down.first) <= bound
    assert _gap(mirrored.second, down.second) <= bound
