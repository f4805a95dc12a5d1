import numpy as np
import pytest

from sglab.grids import ParameterError, parity_check
from sglab.inputs import load_pair, named_pair, save_pair, smooth_random


def test_smooth_random_parity_and_amplitude(grid40, rng):
    odd = smooth_random(grid40, "odd", 0.07, rng)
    even = smooth_random(grid40, "even", 0.07, rng)
    assert parity_check(odd, grid40, "odd") < 1e-12
    assert parity_check(even, grid40, "even") < 1e-12
    assert np.max(np.abs(odd)) == pytest.approx(0.07)
    assert np.max(np.abs(even)) == pytest.approx(0.07)
    with pytest.raises(ParameterError):
        smooth_random(grid40, "sideways", 0.1, rng)


def test_named_generators(grid40):
    for name in ("zero", "even-bump", "odd-bump", "random-even", "random-odd",
                 "breather-state", "wobbler-perturbation"):
        pair = named_pair(name, grid40, amplitude=0.05, beta=0.4, t=0.9, seed=3)
        assert pair.grid == grid40
    with pytest.raises(ParameterError):
        named_pair("nonsense", grid40, amplitude=0.05, beta=0.5, t=0.0, seed=0)


def test_named_generator_is_seeded(grid40):
    a, b, c = (named_pair("random-odd", grid40, amplitude=0.05, beta=0.5, t=0.0, seed=seed)
               for seed in (5, 5, 6))
    assert np.array_equal(a.first, b.first)
    assert not np.array_equal(a.first, c.first)


def test_save_load_round_trip(tmp_path, grid40, rng):
    pair = named_pair("random-even", grid40, amplitude=0.05, beta=0.5, t=0.0, seed=1)
    path = tmp_path / "pair.json"
    save_pair(path, pair)
    loaded = load_pair(path)
    assert loaded.grid == grid40
    assert np.array_equal(loaded.first, pair.first)
    assert np.array_equal(loaded.second, pair.second)


def test_probe_modulation_channel(grid40):
    from sglab.backlund import zero_momentum_manifold_data
    from sglab.evolution import EvolveConfig, KinkFrame, evolve
    from sglab.grids import FieldState, SINE_GORDON
    from sglab.modulation import track_modulation
    from sglab.solutions import KinkParams

    y0 = 0.04 * np.tanh(grid40.x) * np.exp(-((grid40.x / 2.5) ** 2))
    rep, _ = zero_momentum_manifold_data(grid40, y0)
    prof = KinkParams(0.0)
    st = FieldState(0.0, grid40, prof.q(grid40.x) + rep.result.first, rep.result.second)
    traj = evolve(st, SINE_GORDON, EvolveConfig(dt=0.01, t_end=3.0, background=KinkFrame(),
                                                snapshot_every=1.0))
    records = track_modulation(traj, 0.0)
    assert len(records) == len(traj)
    assert max(r.ortho_residual for r in records) < 1e-8
