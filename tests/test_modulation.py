import numpy as np
import pytest

from sglab.backlund import lift_zero_to_kink, zero_momentum_manifold_data
from sglab.evolution import EvolveConfig, KinkFrame, evolve
from sglab import modulation
from sglab.experiments import manifold_run
from sglab.grids import (
    FieldState,
    GridSpec,
    ParameterError,
    PerturbationPair,
    PHI4,
    SINE_GORDON,
    WeightSpec,
    derivative,
    quadrature,
    weighted_norm_sq,
)
from sglab.inputs import smooth_random
from sglab.modulation import (
    TubeExitError,
    _fit_shift,
    _mismatch,
    convergence_classifier,
    rho_rate_check,
    stilde_bound_check,
    track_modulation,
)
from sglab.solutions import (
    KinkParams,
    ThreeSolitonParams,
    WobblerParams,
    kink,
    phi4_kink,
    three_soliton,
    wobbler,
)


class TestSolveShift:
    def test_exact_shifted_kink(self, grid40):
        prof = KinkParams(0.0, 0.37)
        st = FieldState(0.0, grid40, prof.q(grid40.x), prof.q_t(grid40.x))
        assert _fit_shift(st, 0.0, 0.0)[0] == pytest.approx(0.37, abs=1e-9)

    def test_odd_perturbation_keeps_zero_shift(self, grid40):
        prof = KinkParams(0.0)
        u0 = 0.05 * np.tanh(grid40.x) * np.exp(-((grid40.x / 3) ** 2))
        st = FieldState(0.0, grid40, prof.q(grid40.x) + u0, np.zeros(grid40.n_points))
        for guess in (-0.2, 0.0, 0.4):
            assert abs(_fit_shift(st, 0.0, guess)[0]) < 1e-9

    def test_translation_equivariance(self, grid40):
        x = grid40.x
        shift = 1.3
        prof = KinkParams(0.0, shift)
        u = 0.05 * np.tanh(x - shift) * np.exp(-(((x - shift) / 3) ** 2))
        st = FieldState(0.0, grid40, prof.q(x) + u, np.zeros(grid40.n_points))
        assert _fit_shift(st, 0.0, 1.0)[0] == pytest.approx(shift, abs=1e-9)

    def test_tube_exit_raises(self, grid40):
        st = FieldState(0.0, grid40, np.zeros(grid40.n_points), np.zeros(grid40.n_points))
        with pytest.raises(TubeExitError):
            _fit_shift(st, 0.0, 0.0)

    def test_speed_guard(self, grid40):
        st = kink(KinkParams(0.0)).sample(grid40, 0.0)
        with pytest.raises(ParameterError):
            _fit_shift(st, 1.5, 0.0)


    @pytest.mark.parametrize("beta,t,rho", [(0.0, 0.0, 0.2), (0.3, 1.5, -0.4)])
    def test_mismatch_matches_profile_methods(self, beta, t, rho):
        # value and remainder are KinkParams' closed forms, bitwise; the Newton
        # slope is the rho-derivative integrated by parts, int (u_x q_x + v_x q_tx).
        # Against the central difference in rho it differs at O(h^2): measured
        # 8.3e-5, 2.1e-5, 5.2e-6 relative at n = 2001, 4001, 8001 for beta = 0,
        # and 9.9e-5, 2.5e-5, 6.2e-6 for beta = 0.3; order 2.00
        prof = KinkParams(beta, rho).at(t)
        gaps = []
        for n in (2001, 4001, 8001):
            grid = GridSpec(-40.0, 40.0, n)
            x = grid.x
            rng = np.random.default_rng(7)
            st = FieldState(t, grid, prof.q(x) + smooth_random(grid, "odd", 0.05, rng),
                            prof.q_t(x) + smooth_random(grid, "even", 0.05, rng))
            slopes = derivative(st.u, grid), derivative(st.v, grid)
            du, dv = st.u - prof.q(x), st.v - prof.q_t(x)
            value, dvalue, got_du, got_dv = _mismatch(st, slopes, beta, rho)
            assert value == quadrature(du * prof.q_x(x) + dv * prof.q_tx(x), grid)
            assert np.array_equal(got_du, du) and np.array_equal(got_dv, dv)
            assert dvalue == quadrature(slopes[0] * prof.q_x(x) + slopes[1] * prof.q_tx(x), grid)
            eps = 1e-5
            fd = (_mismatch(st, slopes, beta, rho + eps)[0]
                  - _mismatch(st, slopes, beta, rho - eps)[0]) / (2 * eps)
            gaps.append(abs(dvalue - fd) / abs(fd))
        orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
        assert np.all(np.abs(orders - 2.0) <= 0.05), orders


class TestDecompose:
    # the remainder is the pair the tracker records: ``_fit_shift``'s, at its root
    def test_exact_kink_gives_zero_pair(self, grid40):
        prof = KinkParams(0.0, 0.2)
        st = FieldState(0.0, grid40, prof.q(grid40.x), prof.q_t(grid40.x))
        rho, _, pair = _fit_shift(st, 0.0, 0.2)
        assert rho == 0.2
        assert np.max(np.abs(pair.first)) == 0.0
        assert np.max(np.abs(pair.second)) == 0.0

    def test_wobbler_decomposes_at_zero_shift(self, grid40, monkeypatch):
        # the wobbler's remainder norm, 1.84, lies outside the stock tube
        monkeypatch.setattr(modulation, "TUBE_RADIUS", 3.0)
        beta = 0.1
        w = wobbler(WobblerParams(beta))
        st = w.sample(grid40, 0.0)
        rho, _, pair = _fit_shift(st, 0.0, 0.0)
        assert abs(rho) < 1e-9
        k0 = kink(KinkParams(0.0))
        assert np.max(np.abs(pair.first
                             - (np.asarray(w.value(0.0, grid40.x))
                                - np.asarray(k0.value(0.0, grid40.x))))) < 1e-12
        assert np.max(np.abs(pair.second - np.asarray(w.dvalue_dt(0.0, grid40.x)))) < 1e-12

    def test_reconstruction_is_bitwise(self, grid40, rng):
        rep, _ = zero_momentum_manifold_data(grid40, smooth_random(grid40, "odd", 0.05, rng))
        st = FieldState(0.0, grid40, KinkParams(0.0).q(grid40.x)
                        + rep.result.first, rep.result.second)
        rho, _, pair = _fit_shift(st, 0.0, 0.0)
        prof = KinkParams(0.0, rho)
        assert np.all(prof.q(grid40.x) + pair.first == st.u)


@pytest.fixture(scope="module")
def tracked_run():
    grid = GridSpec(-40.0, 40.0, 4001)
    rng = np.random.default_rng(2)
    y0 = smooth_random(grid, "odd", 0.05, rng)
    traj, records = manifold_run(grid, y0, 0.01, 30.0, 0.5, (-5.0, 5.0))
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
        grid, _, records, vacuum = tracked_run
        zero_pairs = [PerturbationPair(grid, vacuum.u_snaps[i], vacuum.v_snaps[i])
                      for i in range(len(records))]
        report = rho_rate_check(records, zero_pairs, 0.1)
        # regression bound: the measured ratio is far below this pin
        assert report["max_rate_ratio"] < 5.0
        assert len(report["bounds"]) == len(records) and min(report["bounds"]) > 0

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
            _, records = manifold_run(grid, eta * shape, 0.005, 30.0, 0.5, (-5.0, 5.0))
            peaks.append(max(abs(r.rho_rate) for r in records))
        slope = np.polyfit(np.log(etas), np.log(peaks), 1)[0]
        assert slope > 1.7

    def test_tube_exit_shortens_run_and_warns(self, caplog, monkeypatch):
        # a strong velocity kick beside the kink creates a kink-antikink pair;
        # the remainder norm grows from 6.7 past the tube radius 8 at t = 1.5
        grid = GridSpec(-20.0, 20.0, 2001)
        x = grid.x
        st = FieldState(0.0, grid, KinkParams(0.0).q(x),
                        6.0 * np.exp(-(x - 3.0) ** 2))
        traj = evolve(st, SINE_GORDON,
                      EvolveConfig(dt=0.01, t_end=5.0, background=KinkFrame(),
                                   snapshot_every=0.5))
        monkeypatch.setattr(modulation, "TUBE_RADIUS", 8.0)
        with caplog.at_level("WARNING", logger="sglab.modulation"):
            records = track_modulation(traj, 0.0)
        assert type(records) is list
        assert 0 < len(records) < len(traj)
        assert records[-1].t < 1.5
        (warning,) = [r for r in caplog.records if r.name == "sglab.modulation"]
        assert warning.levelname == "WARNING"
        assert "t = 1.5" in warning.getMessage()
        assert "tube radius" in warning.getMessage()


def test_tracker_stops_when_the_shift_solve_diverges(caplog):
    # a kink at x0 = 10 in the static frame: the first shift solve starts at
    # the frame's centre 0, far outside the kink's slope, and steps off the grid
    grid = GridSpec(-20.0, 20.0, 801)
    traj = evolve(kink(KinkParams(0.0, 10.0)).sample(grid, 0.0), SINE_GORDON,
                  EvolveConfig(dt=0.02, t_end=1.0, background=KinkFrame()))
    with caplog.at_level("WARNING", logger="sglab.modulation"):
        records = track_modulation(traj, 0.0)
    assert records == []
    (warning,) = [r for r in caplog.records if r.name == "sglab.modulation"]
    assert "after 0 of 3 snapshots: shift solve diverged" in warning.getMessage()


@pytest.mark.parametrize("beta", [0.0, 0.3])
@pytest.mark.parametrize("x0", [-5.0, -3.0, 2.0, 3.0, 5.0])
def test_tracker_follows_its_frames_own_kink_off_center(grid40, x0, beta):
    # the first shift solve starts at the frame's center; from rho = 0 it
    # diverged for |x0| >= 3 and tracked none of the snapshots
    p = KinkParams(beta, x0)
    traj = evolve(kink(p).sample(grid40, 0.0), SINE_GORDON,
                  EvolveConfig(0.005, 1.0, background=p))
    records = track_modulation(traj, beta)
    assert len(records) == len(traj) == 3
    assert all(abs(r.rho - x0) < 1e-9 for r in records)


@pytest.mark.parametrize("x0", [-5.0, 0.0, 3.0])
def test_tracker_starts_a_run_without_a_frame_at_the_pi_crossing(grid40, x0):
    # without a frame the first solve starts where the field crosses pi; from
    # rho = 0 it diverged for |x0| >= 3 and tracked none of the snapshots
    traj = evolve(kink(KinkParams(0.0, x0)).sample(grid40, 0.0), SINE_GORDON,
                  EvolveConfig(0.005, 1.0))
    records = track_modulation(traj, 0.0)
    assert len(records) == len(traj) == 3
    assert all(abs(r.rho - x0) < 1e-9 for r in records)


def test_tracker_refuses_other_models():
    # the fitted family is the sine-Gordon kink; a phi^4 kink run used to
    # end as a tube exit at t = 0 with no records
    grid = GridSpec(-20.0, 20.0, 801)
    traj = evolve(phi4_kink().sample(grid, 0.0), PHI4, EvolveConfig(dt=0.02, t_end=1.0))
    with pytest.raises(ParameterError, match="sine-Gordon"):
        track_modulation(traj, 0.0)


def test_rate_check_zero_run(grid40):
    # an unperturbed run has both sides of every rate bound identically zero
    from sglab.modulation import ModulationRecord

    records = [ModulationRecord(t=float(k), rho=0.0, rho_rate=0.0)
               for k in range(5)]
    zero = PerturbationPair(grid40, np.zeros(grid40.n_points), np.zeros(grid40.n_points))
    out = rho_rate_check(records, [zero] * 5, 0.1)
    assert out["max_rate_ratio"] == 0.0
    assert out["bounds"] == [0.0] * 5 and out["rate_ratios"] == []


def test_rate_check_bound_is_the_weighted_norm(grid40):
    # the bound is weighted_norm_sq with rate 1 - eps about the record's rho,
    # so an eps >= 1, which would make the weight grow, is refused
    from sglab.modulation import ModulationRecord

    bump = np.exp(-grid40.x ** 2)
    pair = PerturbationPair(grid40, 0.05 * bump, 0.02 * bump)
    record = ModulationRecord(t=0.0, rho=0.3, rho_rate=1e-4)
    out = rho_rate_check([record], [pair], 0.1)
    assert out["bounds"] == [weighted_norm_sq(pair, WeightSpec(0.9, 0.3))]
    # the refusal names eps, with records or without
    for eps in (1.0, 2.0, np.inf, -np.inf, np.nan):
        for recs, pairs in (([record], [pair]), ([], [])):
            with pytest.raises(ParameterError, match="eps must be finite and below 1"):
                rho_rate_check(recs, pairs, eps)


def test_rate_check_floors_the_bound_at_a_thousandth_of_its_peak(grid40):
    # a bound below 1e-3 of the run's peak bound is replaced by that floor
    from sglab.modulation import ModulationRecord

    bump = np.exp(-grid40.x ** 2)
    pairs = [PerturbationPair(grid40, scale * 0.05 * bump, scale * 0.02 * bump)
             for scale in (1.0, 1e-3)]
    records = [ModulationRecord(t=float(k), rho=0.0, rho_rate=1e-4) for k in range(2)]
    out = rho_rate_check(records, pairs)
    peak = out["bounds"][0]
    assert out["bounds"][1] < 1e-3 * peak
    assert out["rate_ratios"] == [1e-4 / peak, 1e-4 / (1e-3 * peak)]
    assert out["max_rate_ratio"] == 1e-4 / (1e-3 * peak)


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
        # odd-odd data keeps the shift pinned at zero for all time
        prof = KinkParams(0.0)
        u0 = smooth_random(grid40, "odd", 0.04, rng)
        v0 = smooth_random(grid40, "odd", 0.04, rng)
        st = FieldState(0.0, grid40, prof.q(grid40.x) + u0, v0)
        traj = evolve(st, SINE_GORDON,
                      EvolveConfig(dt=0.01, t_end=30.0, background=KinkFrame(),
                                   snapshot_every=0.5))
        records = track_modulation(traj, 0.0)
        out = convergence_classifier(records)
        assert set(out) == {"kind", "total_variation_tail", "rho_bar"}
        assert out["kind"] == "bounded-converging"
        assert abs(out["rho_bar"]) < 1e-8

    def test_moving_family_reports_excursion(self, grid40, monkeypatch):
        # the kink-plus-moving-breather data carries momentum and shifts the
        # kink position during the collision
        s = three_soliton(ThreeSolitonParams(0.5, 0.4))
        st = s.sample(grid40, -20.0)
        st = FieldState(0.0, grid40, st.u, st.v)
        traj = evolve(st, SINE_GORDON,
                      EvolveConfig(dt=0.01, t_end=40.0, background=KinkFrame(),
                                   snapshot_every=0.5))
        monkeypatch.setattr(modulation, "TUBE_RADIUS", 5.0)
        records = track_modulation(traj, 0.0)
        out = convergence_classifier(records)
        spread = max(r.rho for r in records) - min(r.rho for r in records)
        assert spread > 0.05
        assert out["kind"] == "excursion" or abs(out.get("rho_bar", 0.0)) > 0.01

    def test_empty_records_rejected(self):
        with pytest.raises(ParameterError):
            convergence_classifier([])
        # one record shows nothing settling
        with pytest.raises(ParameterError, match="at least two records"):
            convergence_classifier([modulation.ModulationRecord(0.0, 0.3, 0.0)])
