"""Exact symmetries of the lab, each checked on a small run.

The reflection R(u, v)(x) = (-u(-x), -v(-x)) maps the static kink frame onto
itself, so a manifold run from vacuum data -y0 is the reflection of the run
from y0, and its shift rho is the negative.  That makes rho odd in the noise
size eta: the shift rate has no eta^2 term.

The transform maps commute with reflection composed with time reversal: the
static kink keeps it, and the wobbler at -t and the breather at -t are the
reflected wobbler and breather at t.  On (even, even) vacuum data and
(odd, odd) kink data it flips the sign of y and of s, and leaves u and v.

The evolver itself commutes with R, in the static kink frame and in plain
sine-Gordon and phi^4 runs, and it is time-reversible: a run from (u, -v)
at its end returns to (u, -v) at its start, a moving frame run back at the
opposite speed.  These runs start from data of mixed parity, so they
integrate the whole grid.
"""

import numpy as np
import pytest

from sglab.backlund import (
    descend_kink_to_zero,
    descend_wobbler_to_breather,
    lift_breather_to_wobbler,
    lift_zero_to_kink,
)
from sglab.evolution import EvolveConfig, evolve
from sglab.experiments import manifold_run
from sglab.grids import PHI4, SINE_GORDON, FieldState, GridSpec, parity_check
from sglab.inputs import smooth_random
from sglab.solutions import KinkParams, phi4_kink


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


@pytest.fixture(scope="module")
def mixed_data():
    # an odd plus an even part: no parity, so no run takes the half grid
    grid = GridSpec(-40.0, 40.0, 4001)
    rng = np.random.default_rng(3)
    du, dv = (smooth_random(grid, "odd", 0.05, rng) + smooth_random(grid, "even", 0.03, rng)
              for _ in range(2))
    assert min(parity_check(du, grid, kind) for kind in ("odd", "even")) > 1e-3
    return grid, du, dv


# (model, frame, field) of the state each case perturbs; all are static
_BACKGROUNDS = {
    "static-frame": lambda x: (SINE_GORDON, KinkParams(), KinkParams().q(x)),
    "plain-sine-gordon": lambda x: (SINE_GORDON, None, np.zeros_like(x)),
    "phi4-kink": lambda x: (PHI4, None, phi4_kink().value(0.0, x)),
}


def _relative_gap(snaps, expected):
    return (max(_gap(a, b) for a, b in zip(snaps, expected))
            / max(float(np.max(np.abs(b))) for b in expected))


# bounds on the relative gaps (u, v), each about 10 times the measured gap:
# static frame 1.8e-14 / 5.6e-13, plain sine-Gordon exactly 0 (bound 10
# round-off units), phi^4 kink 7.1e-15 / 5.9e-12
_REFLECTION_BOUNDS = {"static-frame": (2e-13, 6e-12), "plain-sine-gordon": (2.2e-15, 2.2e-15),
                      "phi4-kink": (7e-14, 6e-11)}


@pytest.mark.parametrize("case", list(_REFLECTION_BOUNDS))
def test_evolve_commutes_with_reflection(mixed_data, case):
    # R(u, v)(x) = (-u(-x), -v(-x)) of the evolved variable: the perturbation
    # in the kink frame, the field in a plain run (R keeps the vacuum and the
    # odd phi^4 kink)
    grid, du, dv = mixed_data
    model, frame, base = _BACKGROUNDS[case](grid.x)
    cfg = EvolveConfig(0.01, 20.0, background=frame)
    plus = evolve(FieldState(0.0, grid, base + du, dv), model, cfg)
    minus = evolve(FieldState(0.0, grid, base - du[::-1], -dv[::-1]), model, cfg)
    assert len(plus) == len(minus) == 41
    bound_u, bound_v = _REFLECTION_BOUNDS[case]
    for mirrored, snaps, bound in ((minus.u_snaps, plus.u_snaps, bound_u),
                                   (minus.v_snaps, plus.v_snaps, bound_v)):
        assert _relative_gap(mirrored, [-s[::-1] for s in snaps]) <= bound


# bounds on the relative gaps (u, v) after T = 10 and back, each about 10
# times the measured gap: static frame 8.7e-15 / 6.3e-13, plain sine-Gordon
# 1.8e-15 / 1.1e-13, phi^4 kink 5.1e-15 / 5.6e-12, moving frame 6.9e-15 / 6.3e-13
_REVERSAL_BOUNDS = {"static-frame": (9e-14, 6e-12), "plain-sine-gordon": (2e-14, 1e-12),
                    "phi4-kink": (5e-14, 6e-11), "moving-frame": (7e-14, 6e-12)}


@pytest.mark.parametrize("case", list(_REVERSAL_BOUNDS))
def test_evolve_is_time_reversible(mixed_data, case):
    # the kink KinkParams(beta, x0) at time T is KinkParams(-beta, x0 + 2 beta T)
    # at time T, so the run back starts there at time T
    grid, du, dv = mixed_data
    x, T = grid.x, 10.0
    if case == "moving-frame":
        beta, x0 = 0.3, -0.5
        model, frame = SINE_GORDON, KinkParams(beta, x0)
        back_frame = KinkParams(-beta, x0 + 2 * beta * T)
        start = FieldState(0.0, grid, frame.q(x) + du, frame.q_t(x) + dv)
    else:
        model, frame, base = _BACKGROUNDS[case](x)
        back_frame = frame
        start = FieldState(0.0, grid, base + du, dv)
    forward = evolve(start, model, EvolveConfig(0.01, T, background=frame))
    end = forward.state(-1)
    back = evolve(FieldState(T, grid, end.u, -end.v), model,
                  EvolveConfig(0.01, T, background=back_frame))
    assert back.times[-1] == 2 * T
    bound_u, bound_v = _REVERSAL_BOUNDS[case]
    assert _relative_gap([back.u_snaps[-1]], [forward.u_snaps[0]]) <= bound_u
    assert _relative_gap([back.v_snaps[-1]], [-forward.v_snaps[0]]) <= bound_v
