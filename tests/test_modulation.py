import numpy as np
import pytest

from sglab.backlund import lift_zero_to_kink, zero_momentum_manifold_data
from sglab.evolution import EvolveConfig, KinkFrame, evolve
from sglab.grids import (
    FieldState,
    GridSpec,
    ParameterError,
    PerturbationPair,
    SINE_GORDON,
)
from sglab.inputs import smooth_random
from sglab.modulation import (
    TubeExitError,
    convergence_classifier,
    decompose,
    rho_rate_check,
    solve_shift,
    stilde_bound_check,
    track_modulation,
)
from sglab.solutions import (
    KinkParams,
    ThreeSolitonParams,
    WobblerParams,
    kink,
    kink_profile,
    three_soliton,
    wobbler,
)


def manifold_state(grid, y0):
    rep, _ = zero_momentum_manifold_data(grid, y0)
    prof = kink_profile(KinkParams(0.0))
    return FieldState(0.0, grid, prof.q(grid.x) + rep.result.first, rep.result.second)


class TestSolveShift:
    def test_exact_shifted_kink(self, grid40):
        prof = kink_profile(KinkParams(0.0, 0.37))
        st = FieldState(0.0, grid40, prof.q(grid40.x), prof.q_t(grid40.x))
        assert solve_shift(st, 0.0) == pytest.approx(0.37, abs=1e-9)

    def test_odd_perturbation_keeps_zero_shift(self, grid40):
        prof = kink_profile(KinkParams(0.0))
        u0 = 0.05 * np.tanh(grid40.x) * np.exp(-((grid40.x / 3) ** 2))
        st = FieldState(0.0, grid40, prof.q(grid40.x) + u0, np.zeros(grid40.n_points))
        for guess in (-0.2, 0.0, 0.4):
            assert abs(solve_shift(st, 0.0, rho_guess=guess)) < 1e-9

    def test_translation_equivariance(self, grid40):
        x = grid40.x
        shift = 1.3
        prof = kink_profile(KinkParams(0.0, shift))
        u = 0.05 * np.tanh(x - shift) * np.exp(-(((x - shift) / 3) ** 2))
        st = FieldState(0.0, grid40, prof.q(x) + u, np.zeros(grid40.n_points))
        assert solve_shift(st, 0.0, rho_guess=1.0) == pytest.approx(shift, abs=1e-9)

    def test_tube_exit_raises(self, grid40):
        st = FieldState(0.0, grid40, np.zeros(grid40.n_points), np.zeros(grid40.n_points))
        with pytest.raises(TubeExitError):
            solve_shift(st, 0.0)

    def test_speed_guard(self, grid40):
        st = kink(KinkParams(0.0)).sample(grid40, 0.0)
        with pytest.raises(ParameterError):
            solve_shift(st, 1.5)


class TestDecompose:
    def test_exact_kink_gives_zero_pair(self, grid40):
        prof = kink_profile(KinkParams(0.0, 0.2))
        st = FieldState(0.0, grid40, prof.q(grid40.x), prof.q_t(grid40.x))
        pair = decompose(st, 0.0, 0.2)
        assert np.max(np.abs(pair.first)) == 0.0
        assert np.max(np.abs(pair.second)) == 0.0

    def test_wobbler_decomposes_at_zero_shift(self, grid40):
        beta = 0.1
        w = wobbler(WobblerParams(beta))
        st = w.sample(grid40, 0.0)
        rho = solve_shift(st, 0.0, tube_radius=3.0)
        assert abs(rho) < 1e-9
        pair = decompose(st, 0.0, rho)
        k0 = kink(KinkParams(0.0))
        assert np.max(np.abs(pair.first
                             - (np.asarray(w.value(0.0, grid40.x))
                                - np.asarray(k0.value(0.0, grid40.x))))) < 1e-12
        assert np.max(np.abs(pair.second - np.asarray(w.dvalue_dt(0.0, grid40.x)))) < 1e-12

    def test_reconstruction_is_bitwise(self, grid40, rng):
        st = manifold_state(grid40, smooth_random(grid40, "odd", 0.05, rng))
        rho = solve_shift(st, 0.0)
        pair = decompose(st, 0.0, rho)
        prof = kink_profile(KinkParams(0.0, rho))
        assert np.all(prof.q(grid40.x) + pair.first == st.u)


@pytest.fixture(scope="module")
def tracked_run():
    grid = GridSpec(-40.0, 40.0, 4001)
    rng = np.random.default_rng(2)
    y0 = smooth_random(grid, "odd", 0.05, rng)
    st = manifold_state(grid, y0)
    traj = evolve(st, SINE_GORDON,
                  EvolveConfig(dt=0.01, t_end=30.0, background=KinkFrame(),
                               snapshot_every=0.5))
    records = track_modulation(traj, 0.0)
    vacuum = evolve(FieldState(0.0, grid, y0, np.zeros(grid.n_points)),
                    SINE_GORDON,
                    EvolveConfig(dt=0.01, t_end=30.0, snapshot_every=0.5))
    return grid, traj, records, vacuum


class TestTracking:
    def test_orthogonality_every_snapshot(self, tracked_run):
        _, _, records, _ = tracked_run
        assert max(r.ortho_residual for r in records) < 1e-8

    def test_rates_filled(self, tracked_run):
        _, _, records, _ = tracked_run
        assert all(r.rho_rate is not None for r in records)

    def test_rate_bound_ratios(self, tracked_run):
        grid, traj, records, vacuum = tracked_run
        zero_pairs = [PerturbationPair(grid, vacuum.u_snaps[i], vacuum.v_snaps[i])
                      for i in range(len(records))]
        kink_pairs = [PerturbationPair(grid, traj.u_snaps[i], traj.v_snaps[i])
                      for i in range(len(records))]
        report = rho_rate_check(records, zero_pairs, 0.1, kink_pairs)
        # regression bounds: the measured ratios are far below these pins
        assert report["max_rate_ratio"] < 5.0
        assert report["max_mixed_ratio"] < 5.0
        assert report["max_gradient_ratio"] < 5.0
        assert report["max_local_ratio"] < 5.0
        assert all(r.rhs_bound is not None for r in records)

    def test_rate_scaling_is_superlinear(self):
        # the quadratic upper bound is respected with room to spare: the
        # measured exponent for manifold data exceeds 2 (the acceptance suite
        # exercises the literal 2 +/- 0.3 band and documents the excess)
        grid = GridSpec(-40.0, 40.0, 12001)
        rng = np.random.default_rng(1)
        shape = smooth_random(grid, "odd", 1.0, rng)
        peaks = []
        etas = (0.02, 0.04, 0.08)
        for eta in etas:
            st = manifold_state(grid, eta * shape)
            traj = evolve(st, SINE_GORDON,
                          EvolveConfig(dt=0.005, t_end=30.0, background=KinkFrame(),
                                       snapshot_every=0.5))
            records = track_modulation(traj, 0.0)
            peaks.append(max(abs(r.rho_rate) for r in records))
        slope = np.polyfit(np.log(etas), np.log(peaks), 1)[0]
        assert slope > 1.7

    def test_tube_exit_shortens_run_and_warns(self, caplog):
        # a strong velocity kick beside the kink creates a kink-antikink pair;
        # the remainder norm grows from 6.7 past the tube radius 8 at t = 1.5
        grid = GridSpec(-20.0, 20.0, 2001)
        x = grid.x
        st = FieldState(0.0, grid, kink_profile(KinkParams(0.0)).q(x),
                        6.0 * np.exp(-(x - 3.0) ** 2))
        traj = evolve(st, SINE_GORDON,
                      EvolveConfig(dt=0.01, t_end=5.0, background=KinkFrame(),
                                   snapshot_every=0.5))
        with caplog.at_level("WARNING", logger="sglab.modulation"):
            records = track_modulation(traj, 0.0, tube_radius=8.0)
        assert type(records) is list
        assert 0 < len(records) < len(traj)
        assert records[-1].t < 1.5
        (warning,) = [r for r in caplog.records if r.name == "sglab.modulation"]
        assert warning.levelname == "WARNING"
        assert "t = 1.5" in warning.getMessage()
        assert "tube radius" in warning.getMessage()


def test_rate_check_zero_run(grid40):
    # an unperturbed run has both sides of every rate bound identically zero
    from sglab.modulation import ModulationRecord

    records = [ModulationRecord(t=float(k), rho=0.0, rho_rate=0.0, lhs_rate=0.0)
               for k in range(5)]
    zero = PerturbationPair(grid40, np.zeros(grid40.n_points), np.zeros(grid40.n_points))
    out = rho_rate_check(records, [zero] * 5, 0.1)
    assert out["max_rate_ratio"] == 0.0
    assert all(r.rhs_bound == 0.0 for r in records)


class TestSecondComponentIdentity:
    def test_zero_pairs(self, grid40):
        z = PerturbationPair(grid40, np.zeros(grid40.n_points), np.zeros(grid40.n_points))
        out = stilde_bound_check(z, z)
        assert out["identity_residual"] == 0.0
        assert out["bound_constant"] == 0.0

    def test_lifted_data_satisfies_identity(self, grid40, rng):
        y = smooth_random(grid40, "even", 0.05, rng)
        v = smooth_random(grid40, "even", 0.03, rng)
        rep = lift_zero_to_kink(grid40, y, v)
        out = stilde_bound_check(rep.result, PerturbationPair(grid40, y, v))
        assert out["identity_residual"] < 1e-8

    def test_bound_constant_across_suite(self, grid40):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(10):
            y = smooth_random(grid40, "even", 0.05, rng)
            v = smooth_random(grid40, "even", 0.05, rng)
            rep = lift_zero_to_kink(grid40, y, v)
            out = stilde_bound_check(rep.result, PerturbationPair(grid40, y, v))
            assert out["identity_residual"] < 1e-8
            worst = max(worst, out["bound_constant"])
        assert worst <= 3.0

    def test_desynchronized_pairs_flagged(self, grid40, rng):
        y = smooth_random(grid40, "even", 0.05, rng)
        v = smooth_random(grid40, "even", 0.03, rng)
        rep = lift_zero_to_kink(grid40, y, v)
        wrong = PerturbationPair(grid40, np.roll(y, 3), v)
        out = stilde_bound_check(rep.result, wrong)
        assert out["identity_residual"] > 1e-4


class TestClassifier:
    def test_symmetric_run_converges_to_zero(self, grid40, rng):
        from sglab.solutions import kink_profile

        # odd-odd data keeps the shift pinned at zero for all time
        prof = kink_profile(KinkParams(0.0))
        u0 = smooth_random(grid40, "odd", 0.04, rng)
        v0 = smooth_random(grid40, "odd", 0.04, rng)
        st = FieldState(0.0, grid40, prof.q(grid40.x) + u0, v0)
        traj = evolve(st, SINE_GORDON,
                      EvolveConfig(dt=0.01, t_end=30.0, background=KinkFrame(),
                                   snapshot_every=0.5))
        records = track_modulation(traj, 0.0)
        out = convergence_classifier(records)
        assert out["kind"] == "bounded-converging"
        assert abs(out["rho_bar"]) < 1e-8

    def test_moving_family_reports_excursion(self, grid40):
        # the kink-plus-moving-breather data carries momentum and shifts the
        # kink position during the collision
        s = three_soliton(ThreeSolitonParams(0.5, 0.4))
        st = s.sample(grid40, -20.0)
        st = FieldState(0.0, grid40, st.u, st.v)
        traj = evolve(st, SINE_GORDON,
                      EvolveConfig(dt=0.01, t_end=40.0, background=KinkFrame(),
                                   snapshot_every=0.5))
        records = track_modulation(traj, 0.0, tube_radius=5.0)
        out = convergence_classifier(records)
        spread = max(r.rho for r in records) - min(r.rho for r in records)
        assert spread > 0.05
        assert out["kind"] == "excursion" or abs(out.get("rho_bar", 0.0)) > 0.01

    def test_empty_records_rejected(self):
        with pytest.raises(ParameterError):
            convergence_classifier([])
