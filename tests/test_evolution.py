import numpy as np
import pytest

from sglab.cli import cmd_evolve
from sglab.conserved import energy, momentum
from sglab.evolution import EvolveConfig, KinkFrame, _kink_frame_force, evolve
from sglab.grids import (
    ContractError,
    FieldState,
    GridSpec,
    ParameterError,
    PerturbationPair,
    PHI4,
    SINE_GORDON,
    derivative,
    local_energy_norm,
    parity_check,
    quadrature,
)
from sglab.inputs import smooth_random
from sglab.modulation import track_modulation
from sglab.solutions import (
    KinkParams,
    ThreeSolitonParams,
    WobblerParams,
    breather,
    kink,
    phi4_kink,
    three_soliton,
    two_kink,
    wobbler,
)


def pair_distance(grid, u1, v1, u2, v2):
    return local_energy_norm(PerturbationPair(grid, u1 - u2, v1 - v2))


def test_cfl_violation_refused(grid40):
    st = kink(KinkParams(0.0)).sample(grid40, 0.0)
    with pytest.raises(ParameterError, match="CFL"):
        evolve(st, SINE_GORDON, EvolveConfig(dt=0.05, t_end=1.0))


@pytest.mark.parametrize("times", [{"t_end": np.inf}, {"t_end": 1.0, "snapshot_every": np.inf},
                                   {"t_end": np.nan}, {"t_end": 1.0, "dt": np.inf}])
def test_times_must_be_finite(times):
    # an infinite t_end or snapshot_every once overflowed int(round(...)) in evolve
    with pytest.raises(ParameterError, match="finite"):
        EvolveConfig(**{"dt": 0.01, **times})


def test_static_kink_is_stationary(grid40):
    st = kink(KinkParams(0.0)).sample(grid40, 0.0)
    traj = evolve(st, SINE_GORDON, EvolveConfig(dt=0.015, t_end=20.0,
                                                background=KinkFrame()))
    d = pair_distance(grid40, traj.u_snaps[-1], traj.v_snaps[-1],
                      traj.u_snaps[0], traj.v_snaps[0])
    assert d < 1e-6


def test_moving_frame_tracks_offset_kink(grid40):
    # a kink shifted relative to the frame center exercises genuine dynamics
    beta = 0.3
    moving = kink(KinkParams(beta, -0.5))
    st = moving.sample(grid40, 0.0)
    traj = evolve(st, SINE_GORDON, EvolveConfig(dt=0.01, t_end=10.0,
                                                background=KinkFrame(beta=beta)))
    t_end = traj.times[-1]
    q, q_t = traj.background_fields(t_end)
    u_exact = np.asarray(moving.value(t_end, grid40.x)) - q
    v_exact = np.asarray(moving.dvalue_dt(t_end, grid40.x)) - q_t
    d = pair_distance(grid40, traj.u_snaps[-1], traj.v_snaps[-1], u_exact, v_exact)
    assert d < 5e-3


class TestConservation:
    CASES = [
        ("kink", lambda: kink(KinkParams(0.0)), SINE_GORDON, KinkFrame()),
        ("breather", lambda: breather(0.5), SINE_GORDON, None),
        ("two-kink", lambda: two_kink(0.2), SINE_GORDON, None),
        ("phi4-kink", lambda: phi4_kink(), PHI4, None),
    ]

    @pytest.mark.parametrize("name,make,model,frame", CASES,
                             ids=[c[0] for c in CASES])
    def test_energy_drift_small(self, grid40, name, make, model, frame):
        st = make().sample(grid40, 0.0)
        traj = evolve(st, model, EvolveConfig(dt=0.005, t_end=20.0, background=frame))
        e = np.array(traj.energies)
        assert np.max(np.abs(e - e[0])) / max(abs(e[0]), 1e-12) < 1e-5

    def test_momentum_drift_small(self, grid40):
        st = breather(0.5).sample(grid40, 0.0)
        traj = evolve(st, SINE_GORDON, EvolveConfig(dt=0.005, t_end=20.0))
        assert np.max(np.abs(np.array(traj.momenta))) < 1e-10

    @pytest.mark.parametrize("name,make,model,frame", [
        ("breather", lambda: breather(0.5), SINE_GORDON, None),
        ("wobbler", lambda: wobbler(WobblerParams(0.5)), SINE_GORDON, KinkFrame()),
    ], ids=["breather", "wobbler"])
    def test_pinned_default_resolution_drift(self, grid40, name, make, model, frame):
        # at h = 0.02, dt = 0.015 the second-order scheme floor for the
        # oscillatory solutions measures ~5e-5 over T = 50; the documented
        # 1e-5 bound needs the refined resolution used in the acceptance suite
        st = make().sample(grid40, 0.0)
        traj = evolve(st, model, EvolveConfig(dt=0.015, t_end=50.0, background=frame))
        e = np.array(traj.energies)
        drift = np.max(np.abs(e - e[0])) / abs(e[0])
        assert drift < 1e-4


def test_time_reversal_round_trip():
    grid = GridSpec(-60.0, 60.0, 6001)
    st = breather(0.5).sample(grid, 0.0)
    forward = evolve(st, SINE_GORDON, EvolveConfig(dt=0.01, t_end=10.0))
    flipped = FieldState(0.0, grid, forward.u_snaps[-1], -forward.v_snaps[-1])
    back = evolve(flipped, SINE_GORDON, EvolveConfig(dt=0.01, t_end=10.0))
    assert np.max(np.abs(back.u_snaps[-1] - st.u)) < 1e-9
    assert np.max(np.abs(back.v_snaps[-1] + st.v)) < 1e-9


def test_breather_returns_after_one_period():
    grid = GridSpec(-40.0, 40.0, 8001)
    beta = 0.5
    period = 2 * np.pi / np.sqrt(1 - beta ** 2)
    st = breather(beta).sample(grid, 0.0)
    traj = evolve(st, SINE_GORDON, EvolveConfig(dt=0.005, t_end=period))
    d = pair_distance(grid, traj.u_snaps[-1], traj.v_snaps[-1], st.u, st.v)
    assert d < 1e-4


class TestParityPreservation:
    def test_odd_odd_around_kink(self, grid40, rng):
        prof = KinkParams(0.0)
        u0 = smooth_random(grid40, "odd", 0.02, rng)
        v0 = smooth_random(grid40, "odd", 0.02, rng)
        st = FieldState(0.0, grid40, prof.q(grid40.x) + u0, v0)
        traj = evolve(st, SINE_GORDON, EvolveConfig(dt=0.01, t_end=30.0,
                                                    background=KinkFrame()))
        worst = max(max(parity_check(traj.u_snaps[i], grid40, "odd"),
                        parity_check(traj.v_snaps[i], grid40, "odd"))
                    for i in range(len(traj)))
        assert worst < 1e-6

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_parities_around_zero(self, grid40, rng, parity):
        u0 = smooth_random(grid40, parity, 0.05, rng)
        v0 = smooth_random(grid40, parity, 0.05, rng)
        st = FieldState(0.0, grid40, u0, v0)
        traj = evolve(st, SINE_GORDON, EvolveConfig(dt=0.01, t_end=30.0))
        worst = max(max(parity_check(traj.u_snaps[i], grid40, parity),
                        parity_check(traj.v_snaps[i], grid40, parity))
                    for i in range(len(traj)))
        assert worst < 1e-6


def test_convergence_order_against_wobbler():
    w = wobbler(WobblerParams(0.5))
    errs = []
    for n, dt in ((751, 0.072), (1501, 0.036), (3001, 0.018)):
        g = GridSpec(-30.0, 30.0, n)
        traj = evolve(w.sample(g, 0.0), SINE_GORDON,
                      EvolveConfig(dt=dt, t_end=5.0, background=KinkFrame()))
        t_end = traj.times[-1]
        q, q_t = traj.background_fields(t_end)
        u_exact = np.asarray(w.value(t_end, g.x)) - q
        v_exact = np.asarray(w.dvalue_dt(t_end, g.x)) - q_t
        errs.append(pair_distance(g, traj.u_snaps[-1], traj.v_snaps[-1], u_exact, v_exact))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_three_soliton_evolves_consistently(grid40):
    s = three_soliton(ThreeSolitonParams(0.5, 0.2))
    st = s.sample(grid40, 0.0)
    traj = evolve(st, SINE_GORDON, EvolveConfig(dt=0.01, t_end=5.0,
                                                background=KinkFrame()))
    t_end = traj.times[-1]
    q, q_t = traj.background_fields(t_end)
    u_exact = np.asarray(s.value(t_end, grid40.x)) - q
    v_exact = np.asarray(s.dvalue_dt(t_end, grid40.x)) - q_t
    d = pair_distance(grid40, traj.u_snaps[-1], traj.v_snaps[-1], u_exact, v_exact)
    assert d < 5e-3


def test_nonfinite_state_aborts_with_time_stamp():
    g = GridSpec(-10.0, 10.0, 501)
    huge = FieldState(0.0, g, np.zeros(501), 1e150 * np.exp(-g.x ** 2))
    with np.errstate(all="ignore"), pytest.raises(ContractError, match="t ="):
        evolve(huge, PHI4, EvolveConfig(dt=0.01, t_end=2.0))


def test_probe_energy_constant_for_kink(grid40):
    st = kink(KinkParams(0.0)).sample(grid40, 0.0)
    traj = evolve(st, SINE_GORDON, EvolveConfig(dt=0.01, t_end=5.0, background=KinkFrame(),
                                                snapshot_every=1.0))
    energies = np.array(traj.energies)
    assert np.max(np.abs(energies - energies[0])) < 1e-10


def test_probe_modulation_is_padded_after_tube_exit():
    # a kink moving at 0.2 in the static frame starts outside the tracker's
    # tube, so no snapshot is tracked and every rho row is nan padding
    grid = {"x_min": -20.0, "x_max": 20.0, "n_points": 2001}
    st = kink(KinkParams(0.2)).sample(GridSpec(-20.0, 20.0, 2001), 0.0)
    traj = evolve(st, SINE_GORDON, EvolveConfig(dt=0.01, t_end=4.0, background=KinkFrame()))
    assert len(traj) == 9 and track_modulation(traj, 0.0) == []
    bundle = cmd_evolve({"solution": "kink", "params": {"beta": 0.2}, "grid": grid,
                         "background": {}, "track_modulation": True,
                         "t_end": 4.0, "dt": 0.01}, 1.0)
    header, rows = bundle.tables["run"]
    assert len(rows) == 9
    for key in ("rho", "rho_rate"):
        column = np.array([row[header.index(key)] for row in rows])
        assert np.all(np.isnan(column))


def reference_leapfrog(initial, model, frame, dt, n_steps, snap_stride):
    """The kick-drift-kick loop with the kink rebuilt and the perturbation force
    recomputed from its closed-form sin Q and cos Q on every step, as ``evolve``
    did before it cached them."""
    grid = initial.grid
    x = grid.x

    def background(t):
        return KinkParams(frame.beta, frame.x0 + frame.beta * t)

    def accel(u, t):
        a = np.zeros_like(u)
        a[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * (1.0 / grid.h ** 2)
        if frame is None:
            a[1:-1] -= model.nonlinearity(u[1:-1])
        else:
            x_in = x[1:-1]
            terms = background(t).sin_cos_q(x_in, (np.empty_like(x_in), np.empty_like(x_in)),
                                            np.empty_like(x_in))
            a[1:-1] -= _kink_frame_force(*terms, u[1:-1], np.empty_like(x_in),
                                         np.empty_like(x_in))
        return a

    def conserved(u, v, t):
        if frame is not None:
            u, v = u + background(t).q(x), v + background(t).q_t(x)
        ux = derivative(u, grid)
        return (quadrature(0.5 * (ux ** 2 + v ** 2) + model.potential(u), grid),
                0.5 * quadrature(v * ux, grid))

    t = initial.t
    u, v = initial.u.copy(), initial.v.copy()
    if frame is not None:
        u, v = u - background(t).q(x), v - background(t).q_t(x)
    snaps = [(u.copy(), v.copy(), *conserved(u, v, t))]
    a = accel(u, t)
    for step in range(1, n_steps + 1):
        v_half = v + 0.5 * dt * a
        u_ends = u[0], u[-1]
        u = u + dt * v_half
        u[0], u[-1] = u_ends
        t = initial.t + step * dt
        a = accel(u, t)
        v = v_half + 0.5 * dt * a
        v[0] = v[-1] = 0.0
        if step % snap_stride == 0:
            snaps.append((u.copy(), v.copy(), *conserved(u, v, t)))
    return snaps


class TestAgainstReferenceLeapfrog:
    CASES = [
        ("sg-static-frame", SINE_GORDON, KinkFrame()),
        ("sg-offset-frame", SINE_GORDON, KinkFrame(x0=0.3)),
        ("sg-plain", SINE_GORDON, None),
        ("sg-moving-frame", SINE_GORDON, KinkFrame(beta=0.3)),
    ]

    @pytest.mark.parametrize("name,model,frame", CASES, ids=[c[0] for c in CASES])
    def test_matches_reference(self, name, model, frame):
        grid = GridSpec(-20.0, 20.0, 801)
        rng = np.random.default_rng(7)
        if frame is None:
            base = breather(0.5).sample(grid, 0.0)
        else:
            base = kink(KinkParams(frame.beta, frame.x0)).sample(grid, 0.0)
        st = FieldState(0.0, grid, base.u + smooth_random(grid, "odd", 0.05, rng),
                        base.v + smooth_random(grid, "odd", 0.05, rng))
        dt, n_steps, stride = 0.02, 250, 25
        traj = evolve(st, model, EvolveConfig(dt=dt, t_end=n_steps * dt, background=frame,
                                              snapshot_every=stride * dt))
        ref = reference_leapfrog(st, model, frame, dt, n_steps, stride)
        assert len(traj) == len(ref)
        for i, (u, v, e, p) in enumerate(ref):
            got = (traj.u_snaps[i], traj.v_snaps[i], traj.energies[i], traj.momenta[i])
            assert all(np.array_equal(g, r) for g, r in zip(got, (u, v, e, p))), i


@pytest.mark.parametrize("model,frame", [
    (SINE_GORDON, None), (PHI4, None), (SINE_GORDON, KinkFrame()),
    (SINE_GORDON, KinkFrame(beta=0.3)),
], ids=["sg-plain", "phi4-plain", "sg-static-frame", "sg-moving-frame"])
def test_logs_are_the_conserved_functionals_of_each_snapshot(model, frame):
    grid = GridSpec(-20.0, 20.0, 801)
    base = (phi4_kink() if model == PHI4 else breather(0.5) if frame is None
            else kink(KinkParams(frame.beta))).sample(grid, 0.0)
    traj = evolve(base, model, EvolveConfig(dt=0.02, t_end=2.0, background=frame))
    assert traj.energies == [energy(traj.state(i), model) for i in range(len(traj))]
    assert traj.momenta == [momentum(traj.state(i)) for i in range(len(traj))]


def test_closed_form_sin_cos_of_kink():
    x = np.linspace(-40.0, 40.0, 8001)
    for beta, x0 in ((0.0, 0.0), (0.3, -0.5), (-0.6, 1.7)):
        prof = KinkParams(beta, x0)
        q = prof.q(x)
        sin_q, cos_q = prof.sin_cos_q(x, (np.empty_like(x), np.empty_like(x)),
                                      np.empty_like(x))
        assert np.max(np.abs(sin_q - np.sin(q))) <= 1e-15
        assert np.max(np.abs(cos_q - np.cos(q))) <= 1e-15


@pytest.mark.parametrize("beta,x0", [(0.0, 0.0), (0.3, -0.5), (-0.6, 1.7)])
def test_sin_cos_q_into_buffers_is_bitwise(beta, x0):
    # the evolver passes preallocated buffers; the result is the closed form
    # -2 sech(a) tanh(a), 1 - 2 sech(a)^2 in its written order
    x = np.linspace(-40.0, 40.0, 8001)
    prof = KinkParams(beta, x0)
    a = prof.gamma * (x - x0)
    s = 1.0 / np.cosh(a)
    ref = -2.0 * s * np.tanh(a), 1.0 - 2.0 * s * s
    pair = np.empty_like(x), np.empty_like(x)
    assert prof.sin_cos_q(x, pair, np.empty_like(x)) is pair
    assert all(np.array_equal(g, r) for g, r in zip(pair, ref))


def test_kink_on_its_frame_starts_with_zero_perturbation():
    # kink(KinkParams(beta, x0)) and KinkFrame(beta, x0) center the kink at the
    # same x0 + beta t
    grid = GridSpec(-20.0, 20.0, 801)
    st = kink(KinkParams(0.0, 0.3)).sample(grid, 0.0)
    traj = evolve(st, SINE_GORDON, EvolveConfig(dt=0.02, t_end=0.0,
                                                background=KinkFrame(x0=0.3)))
    assert not np.any(traj.u_snaps[0]) and not np.any(traj.v_snaps[0])


@pytest.mark.parametrize("frame", [KinkFrame(), KinkFrame(beta=0.3)], ids=["static", "moving"])
def test_phi4_in_a_kink_frame_is_refused(frame):
    # a kink frame subtracts the sine-Gordon kink, which no phi^4 run sits near
    st = phi4_kink().sample(GridSpec(-20.0, 20.0, 801), 0.0)
    with pytest.raises(ParameterError, match="sine-Gordon"):
        evolve(st, PHI4, EvolveConfig(dt=0.02, t_end=1.0, background=frame))


class TestBackgroundFields:
    def run(self, frame):
        st = kink(KinkParams(frame.beta if frame else 0.0)).sample(
            GridSpec(-20.0, 20.0, 801), 0.0)
        return evolve(st, SINE_GORDON, EvolveConfig(dt=0.02, t_end=1.0, background=frame,
                                                    snapshot_every=0.5))

    @pytest.mark.parametrize("frame", [KinkFrame(x0=0.3), None], ids=["static", "plain"])
    def test_fixed_background_is_evaluated_once(self, frame):
        traj = self.run(frame)
        q, q_t = traj.background_fields(traj.times[0])
        for t in traj.times[1:]:
            q2, q2_t = traj.background_fields(t)
            assert q2 is q and q2_t is q_t
        expected = (frame.at(0.0).q(traj.grid.x) if frame
                    else np.zeros(traj.grid.n_points))
        assert np.array_equal(q, expected)
        for arr in (q, q_t):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_moving_background_follows_the_frame(self):
        frame = KinkFrame(beta=0.3)
        traj = self.run(frame)
        for t in traj.times:
            q, q_t = traj.background_fields(t)
            prof = frame.at(t)
            assert np.array_equal(q, prof.q(traj.grid.x))
            assert np.array_equal(q_t, prof.q_t(traj.grid.x))
            assert not q.flags.writeable and not q_t.flags.writeable
