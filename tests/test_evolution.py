import numpy as np
import pytest

from sglab.evolution import EvolveConfig, KinkFrame, evolve, evolve_probe
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
from sglab.solutions import (
    KinkParams,
    ThreeSolitonParams,
    WobblerParams,
    breather,
    kink,
    kink_profile,
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
    u_exact = np.asarray(moving.value(t_end, grid40.x)) - traj.background_field(t_end)
    v_exact = np.asarray(moving.dvalue_dt(t_end, grid40.x)) - traj.background_field_t(t_end)
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
        from sglab.solutions import kink_profile

        prof = kink_profile(KinkParams(0.0))
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
        u_exact = np.asarray(w.value(t_end, g.x)) - traj.background_field(t_end)
        v_exact = np.asarray(w.dvalue_dt(t_end, g.x)) - traj.background_field_t(t_end)
        errs.append(pair_distance(g, traj.u_snaps[-1], traj.v_snaps[-1], u_exact, v_exact))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_three_soliton_evolves_consistently(grid40):
    s = three_soliton(ThreeSolitonParams(0.5, 0.2))
    st = s.sample(grid40, 0.0)
    traj = evolve(st, SINE_GORDON, EvolveConfig(dt=0.01, t_end=5.0,
                                                background=KinkFrame()))
    t_end = traj.times[-1]
    u_exact = np.asarray(s.value(t_end, grid40.x)) - traj.background_field(t_end)
    v_exact = np.asarray(s.dvalue_dt(t_end, grid40.x)) - traj.background_field_t(t_end)
    d = pair_distance(grid40, traj.u_snaps[-1], traj.v_snaps[-1], u_exact, v_exact)
    assert d < 5e-3


def test_nonfinite_state_aborts_with_time_stamp():
    g = GridSpec(-10.0, 10.0, 501)
    huge = FieldState(0.0, g, np.zeros(501), 1e150 * np.exp(-g.x ** 2))
    with np.errstate(all="ignore"), pytest.raises(ContractError, match="t ="):
        evolve(huge, PHI4, EvolveConfig(dt=0.01, t_end=2.0))


def test_probe_energy_constant_for_kink(grid40):
    st = kink(KinkParams(0.0)).sample(grid40, 0.0)
    out, _ = evolve_probe(st, SINE_GORDON,
                          EvolveConfig(dt=0.01, t_end=5.0, background=KinkFrame(),
                                       snapshot_every=1.0),
                          [("energy",)])
    assert np.max(np.abs(out["energy"] - out["energy"][0])) < 1e-10


def test_probe_series(grid40):
    st = breather(0.5).sample(grid40, 0.0)
    out, traj = evolve_probe(st, SINE_GORDON,
                             EvolveConfig(dt=0.01, t_end=2.0, snapshot_every=0.5),
                             [("energy",), ("momentum",),
                              ("local_energy_norm", (-5.0, 5.0)),
                              ("weighted_norm", 0.5)])
    n = len(out["t"])
    assert n == len(traj)
    assert len(out["energy"]) == n
    assert len(out["momentum"]) == n
    assert len(out["local_norm[-5,5]"]) == n
    assert len(out["weighted_norm[0.5]"]) == n
    with pytest.raises(ParameterError):
        evolve_probe(st, SINE_GORDON, EvolveConfig(dt=0.01, t_end=1.0), [("bogus",)])


def reference_leapfrog(initial, model, frame, dt, n_steps, snap_stride):
    """The kick-drift-kick loop with the kink rebuilt and the perturbation force
    recomputed from Q on every step, as ``evolve`` did before it cached them."""
    grid = initial.grid
    x = grid.x

    def background(t):
        return kink_profile(KinkParams(frame.beta, frame.center(t)))

    def accel(u, t):
        a = np.zeros_like(u)
        a[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * (1.0 / grid.h ** 2)
        if frame is None:
            a[1:-1] -= model.nonlinearity(u[1:-1])
        else:
            a[1:-1] -= model.perturbation_force(background(t).q(x[1:-1]), u[1:-1])
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
        ("sg-static-frame", SINE_GORDON, KinkFrame(), 0.0),
        ("sg-plain", SINE_GORDON, None, 0.0),
        ("phi4-static-frame", PHI4, KinkFrame(x0=0.3), 0.0),
        ("sg-moving-frame", SINE_GORDON, KinkFrame(beta=0.3), 1e-10),
        ("phi4-moving-frame", PHI4, KinkFrame(beta=0.3), 0.0),
    ]

    @pytest.mark.parametrize("name,model,frame,tol", CASES, ids=[c[0] for c in CASES])
    def test_matches_reference(self, name, model, frame, tol):
        grid = GridSpec(-20.0, 20.0, 801)
        rng = np.random.default_rng(7)
        if frame is None:
            base = breather(0.5).sample(grid, 0.0)
        else:
            base = kink(KinkParams(frame.beta, -frame.x0)).sample(grid, 0.0)
        st = FieldState(0.0, grid, base.u + smooth_random(grid, "odd", 0.05, rng),
                        base.v + smooth_random(grid, "odd", 0.05, rng))
        dt, n_steps, stride = 0.02, 250, 25
        traj = evolve(st, model, EvolveConfig(dt=dt, t_end=n_steps * dt, background=frame,
                                              snapshot_every=stride * dt))
        ref = reference_leapfrog(st, model, frame, dt, n_steps, stride)
        assert len(traj) == len(ref)
        for i, (u, v, e, p) in enumerate(ref):
            got = (traj.u_snaps[i], traj.v_snaps[i], traj.energies[i], traj.momenta[i])
            if tol == 0.0:
                assert all(np.array_equal(g, r) for g, r in zip(got, (u, v, e, p))), i
            else:
                assert max(float(np.max(np.abs(g - r))) for g, r in zip(got, (u, v, e, p))) < tol


def test_closed_form_sin_cos_of_kink():
    x = np.linspace(-40.0, 40.0, 8001)
    for beta, x0 in ((0.0, 0.0), (0.3, -0.5), (-0.6, 1.7)):
        prof = kink_profile(KinkParams(beta, x0))
        q = prof.q(x)
        sin_q, cos_q = prof.sin_cos_q(x)
        assert np.max(np.abs(sin_q - np.sin(q))) <= 1e-15
        assert np.max(np.abs(cos_q - np.cos(q))) <= 1e-15
