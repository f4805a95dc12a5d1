import numpy as np
import pytest

import sglab
from sglab.cli import cmd_evolve
from sglab.evolution import EvolveConfig, KinkFrame, _half_sin, _kink_frame_force, evolve
from sglab.grids import (
    ContractError,
    FieldState,
    GridSpec,
    Model,
    ParameterError,
    PerturbationPair,
    PHI4,
    SINE_GORDON,
    derivative,
    energy,
    local_energy_norm,
    momentum,
    parity_check,
    quadrature,
)
from sglab.inputs import smooth_random
from sglab.modulation import track_modulation
from sglab.reports import ReportBundle
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


def test_cfl_violation_refused():
    # leapfrog is stable up to dt = h; the evolver keeps a margin below it
    grid = GridSpec(-20.0, 20.0, 801)
    st = kink(KinkParams(0.0)).sample(grid, 0.0)
    with pytest.raises(ParameterError, match="CFL"):
        evolve(st, SINE_GORDON, EvolveConfig(dt=0.95 * grid.h, t_end=1.0))
    traj = evolve(st, SINE_GORDON, EvolveConfig(dt=0.9 * grid.h, t_end=1.0))
    assert traj.times[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("ratio", [1.4, 2.4, 3.4])
def test_no_step_is_longer_than_dt(ratio):
    # at dt = 0.9 h a t_end of 1.4, 2.4 or 3.4 steps, rounded to the nearest
    # whole count, would step at 1.26 h, 1.08 h or 1.02 h, past the CFL bound
    grid = GridSpec(-40.0, 40.0, 801)
    dt = 0.9 * grid.h
    traj = evolve(kink(KinkParams(0.0)).sample(grid, 0.0), SINE_GORDON,
                  EvolveConfig(dt=dt, t_end=ratio * dt, snapshot_every=0.1 * dt))
    assert traj.times[1] - traj.times[0] <= dt


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


def test_nonfinite_odd_half_grid_run_aborts_on_the_step_it_blows_up():
    # the probe sits on node m + 1, which moves in odd runs too; a probe on
    # the odd run's centre, which stays 0, would report the first snapshot
    g = GridSpec(-20.0, 20.0, 801)
    u0 = 1e3 * np.tanh(g.x) * np.exp(-g.x ** 2)
    huge = FieldState(0.0, g, u0, np.zeros_like(u0))
    with np.errstate(all="ignore"), pytest.raises(ContractError, match=r"at t = 0\.3125$"):
        evolve(huge, PHI4, EvolveConfig(dt=0.045, t_end=5.0, snapshot_every=1.0))


def test_nonfinite_full_grid_run_aborts_on_the_step_it_blows_up():
    # the same data on a grid one node longer, which has no mirror symmetry,
    # so the run takes the whole grid; its probe, node m at x = h, catches the
    # blow-up on the odd run's step, where a probe on a fixed end node would
    # report only the next snapshot, 22 steps in at t = 0.982143
    g = GridSpec(-20.0, 20.05, 802)
    u0 = 1e3 * np.tanh(g.x) * np.exp(-g.x ** 2)
    huge = FieldState(0.0, g, u0, np.zeros_like(u0))
    with np.errstate(all="ignore"), pytest.raises(ContractError, match=r"at t = 0\.3125$"):
        evolve(huge, PHI4, EvolveConfig(dt=0.045, t_end=5.0, snapshot_every=1.0))


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
    bundle = ReportBundle("evolve")
    cmd_evolve({"solution": "kink", "params": {"beta": 0.2}, "grid": grid,
                "background": {}, "track_modulation": True, "t_end": 4.0, "dt": 0.01},
               1.0, bundle)
    header, rows = bundle.tables["run"]
    assert len(rows) == 9
    for key in ("rho", "rho_rate"):
        column = np.array([row[header.index(key)] for row in rows])
        assert np.all(np.isnan(column))


def reference_leapfrog(initial, model, frame, dt, n_steps, snap_stride, sign=None):
    """The scaled drift-kick loop of ``evolve`` in fresh arrays, with the kink
    rebuilt and its closed-form sin Q and cos Q recomputed on every step.

    It carries p = dt v at half steps: u += p, then acc = dt^2 (u_xx - N) and
    p += acc, with v = (p + acc/2) / dt formed at snapshots; h^2 u_xx is the
    difference of the forward differences.  The sine-Gordon force is
    (sin u / 2)(2 cos Q - t 2 sin Q) with t = tan(u/2) and
    sin u / 2 = t / (1 + t^2); a static frame scales 2 sin Q and 2 cos Q by
    dt^2, every other run scales the force, so each rounds as ``evolve``
    does.

    With ``sign`` (-1.0 odd, +1.0 even) it integrates only the nodes x >= 0,
    as ``evolve`` does for a run that keeps that parity: the centre node m
    held at 0 when odd, and when even a ghost node left of m that copies
    node m + 1 after each drift; snapshots mirror the nodes x > 0."""
    grid = initial.grid
    m = grid.n_points // 2
    lo = 0 if sign is None else m if sign < 0 else m - 1
    x = grid.x[lo:]
    dt2 = dt * dt

    def background(t):
        return KinkParams(frame.beta, frame.x0 + frame.beta * t)

    def centred(u):
        u = u.copy()
        if sign is not None:
            u[0] = u[2] if sign > 0 else 0.0
        return u

    def full_grid(a):
        if sign is None:
            return a.copy()
        right = a[m - lo:]
        return np.concatenate((sign * right[:0:-1], right))

    def scaled_accel(u, t):
        u_in = u[1:-1]
        lap = ((u[2:] - u_in) - (u_in - u[:-2])) * (dt2 / grid.h ** 2)
        if model == PHI4:
            return lap - model.nonlinearity(u_in) * dt2
        tan_half = np.tan(0.5 * u_in)
        half_sin_u = tan_half / (tan_half * tan_half + 1.0)
        if frame is None:
            return lap - half_sin_u * (2.0 * dt2)
        sin_q, cos_q = background(t).sin_cos_q(
            x[1:-1], (np.empty_like(u_in), np.empty_like(u_in)), np.empty_like(u_in))
        if frame.beta == 0:
            sin_q2, cos_q2 = sin_q * (2.0 * dt2), cos_q * (2.0 * dt2)
            return lap - half_sin_u * (cos_q2 - tan_half * sin_q2)
        return lap - half_sin_u * (cos_q - tan_half * sin_q) * (2.0 * dt2)

    def snapshot(u, v, t):
        u, v = full_grid(u), full_grid(v)
        u_full, v_full = u, v
        if frame is not None:
            u_full, v_full = u + background(t).q(grid.x), v + background(t).q_t(grid.x)
        ux = derivative(u_full, grid)
        return (u, v, quadrature(0.5 * (ux ** 2 + v_full ** 2) + model.potential(u_full), grid),
                0.5 * quadrature(v_full * ux, grid))

    t = initial.t
    u, v = initial.u.copy(), initial.v.copy()
    if frame is not None:
        u, v = u - background(t).q(grid.x), v - background(t).q_t(grid.x)
    u = centred(u[lo:])
    v = v[lo:].copy()
    if sign is not None and sign < 0:
        v[0] = 0.0
    snaps = [snapshot(u, v, t)]
    acc = scaled_accel(u, t)
    p = 0.5 * acc + dt * v[1:-1]
    for step in range(1, n_steps + 1):
        u = u.copy()
        u[1:-1] = u[1:-1] + p
        u = centred(u)
        t = initial.t + step * dt
        acc = scaled_accel(u, t)
        if step % snap_stride == 0:
            v = np.zeros_like(u)
            v[1:-1] = (p + 0.5 * acc) / dt
            snaps.append(snapshot(u, v, t))
        p = p + acc
    return snaps


def kdk_reference_leapfrog(initial, model, frame, dt, n_steps, snap_stride):
    """The kick-drift-kick loop that ``evolve`` ran before its drift-kick form,
    with the kink rebuilt and the perturbation force recomputed from its
    closed-form sin Q and cos Q on every step; the plain sine-Gordon force is
    ``np.sin``.  Same scheme, other rounding."""
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
            # doubled terms give exactly the force the old helper computed
            # from sin u = 2t / (1 + t^2): scaling by 2 rounds nothing
            a[1:-1] -= _kink_frame_force(*(2.0 * term for term in terms), u[1:-1],
                                         np.empty_like(x_in), np.empty_like(x_in))
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
    # (name, model, frame, parity of the perturbation, parity the run keeps):
    # the breather is even in x at t = 0, so an odd perturbation of it has
    # no parity, and a mixed one has none anywhere
    CASES = [
        ("sg-static-frame", SINE_GORDON, KinkFrame(), "odd", -1.0),
        ("sg-static-frame-mixed", SINE_GORDON, KinkFrame(), "mixed", None),
        ("sg-offset-frame", SINE_GORDON, KinkFrame(x0=0.3), "odd", None),
        ("sg-plain", SINE_GORDON, None, "odd", None),
        ("sg-plain-even", SINE_GORDON, None, "even", 1.0),
        ("sg-moving-frame", SINE_GORDON, KinkFrame(beta=0.3), "odd", None),
        ("phi4-plain", PHI4, None, "odd", -1.0),
        ("phi4-plain-mixed", PHI4, None, "mixed", None),
    ]
    DT, N_STEPS, STRIDE = 0.02, 250, 25

    def run(self, model, frame, parity):
        """The perturbed breather, kink or phi^4 kink, its evolution and the
        initial state; a mixed perturbation adds an even part to u."""
        grid = GridSpec(-20.0, 20.0, 801)
        rng = np.random.default_rng(7)
        if model == PHI4:
            base = phi4_kink().sample(grid, 0.0)
        elif frame is None:
            base = breather(0.5).sample(grid, 0.0)
        else:
            base = kink(KinkParams(frame.beta, frame.x0)).sample(grid, 0.0)
        kind = "even" if parity == "even" else "odd"
        du = smooth_random(grid, kind, 0.05, rng)
        dv = smooth_random(grid, kind, 0.05, rng)
        if parity == "mixed":
            du = du + smooth_random(grid, "even", 0.05, rng)
        st = FieldState(0.0, grid, base.u + du, base.v + dv)
        traj = evolve(st, model, EvolveConfig(dt=self.DT, t_end=self.N_STEPS * self.DT,
                                              background=frame,
                                              snapshot_every=self.STRIDE * self.DT))
        return traj, st

    @pytest.mark.parametrize("name,model,frame,parity,sign", CASES, ids=[c[0] for c in CASES])
    def test_matches_reference(self, name, model, frame, parity, sign):
        traj, st = self.run(model, frame, parity)
        ref = reference_leapfrog(st, model, frame, self.DT, self.N_STEPS, self.STRIDE, sign)
        assert len(traj) == len(ref)
        for i, (u, v, e, p) in enumerate(ref):
            got = (traj.u_snaps[i], traj.v_snaps[i], traj.energies[i], traj.momenta[i])
            assert all(np.array_equal(g, r) for g, r in zip(got, (u, v, e, p))), i

    @pytest.mark.parametrize("name,model,frame,parity,sign", CASES, ids=[c[0] for c in CASES])
    def test_matches_kick_drift_kick_to_round_off(self, name, model, frame, parity, sign):
        # bounds on |du|, |dv|, |dE|, |dP| over all snapshots, 3 to 4x the
        # largest deviation measured: 1.7e-16, 2.5e-15, 1.8e-15, 2.2e-16 in the
        # frames; 3.1e-15, 8.0e-14, 3.6e-15, 2.7e-16 for the plain runs, where
        # the reference's np.sin and the evolver's half-angle sine also differ.
        # A run that keeps a parity starts the reference from its mirrored
        # first snapshot, which drops the input's parity defect
        bounds = (4e-16, 8e-15, 8e-15, 1e-15) if frame else (1.2e-14, 3e-13, 1.5e-14, 1.2e-15)
        traj, st = self.run(model, frame, parity)
        start = st if sign is None else traj.state(0)
        ref = kdk_reference_leapfrog(start, model, frame, self.DT, self.N_STEPS, self.STRIDE)
        assert len(traj) == len(ref)
        for i, (u, v, e, p) in enumerate(ref):
            deviations = (np.max(np.abs(traj.u_snaps[i] - u)), np.max(np.abs(traj.v_snaps[i] - v)),
                          abs(traj.energies[i] - e), abs(traj.momenta[i] - p))
            assert all(d <= b for d, b in zip(deviations, bounds)), (i, deviations)


class TestHalfGrid:
    """A run that keeps the parity of its evolved (u, v) integrates x >= 0;
    every other run integrates the whole grid as before."""

    DT, N_STEPS, STRIDE = 0.02, 100, 25

    def check_against_reference(self, st, model, frame, sign, dt=DT, n_steps=N_STEPS):
        traj = evolve(st, model, EvolveConfig(dt=dt, t_end=n_steps * dt, background=frame,
                                              snapshot_every=self.STRIDE * dt))
        ref = reference_leapfrog(st, model, frame, dt, n_steps, self.STRIDE, sign)
        assert len(traj) == len(ref)
        for i, (u, v, e, p) in enumerate(ref):
            got = (traj.u_snaps[i], traj.v_snaps[i], traj.energies[i], traj.momenta[i])
            assert all(np.array_equal(g, r) for g, r in zip(got, (u, v, e, p))), i
        return traj

    @staticmethod
    def symmetric_state(name, grid, rng):
        """(state, model, frame) of a run that keeps a parity."""
        if name == "static-frame":
            q = KinkParams().q(grid.x)
            return (FieldState(0.0, grid, q + smooth_random(grid, "odd", 0.05, rng),
                               smooth_random(grid, "odd", 0.05, rng)), SINE_GORDON, KinkFrame())
        if name == "phi4":
            base = phi4_kink().sample(grid, 0.0)
            return (FieldState(0.0, grid, base.u + smooth_random(grid, "odd", 0.05, rng),
                               smooth_random(grid, "odd", 0.05, rng)), PHI4, None)
        parity = name.split("-")[1]
        return (FieldState(0.0, grid, smooth_random(grid, parity, 0.5, rng),
                           smooth_random(grid, parity, 0.5, rng)), SINE_GORDON, None)

    @pytest.mark.parametrize("name", ["sg-odd", "sg-even", "phi4", "static-frame"])
    def test_symmetric_runs_keep_exact_parity(self, name):
        grid = GridSpec(-20.0, 20.0, 801)
        st, model, frame = self.symmetric_state(name, grid, np.random.default_rng(3))
        kind = "even" if name == "sg-even" else "odd"
        traj = self.check_against_reference(st, model, frame, 1.0 if kind == "even" else -1.0)
        for i in range(len(traj)):
            assert parity_check(traj.u_snaps[i], grid, kind) == 0.0
            assert parity_check(traj.v_snaps[i], grid, kind) == 0.0

    def full_grid_case(self, name):
        """(state, model, frame) of a run that keeps no parity."""
        rng = np.random.default_rng(5)
        grid = GridSpec(-20.0, 20.0, 801)
        odd = smooth_random(grid, "odd", 0.05, rng)
        even = smooth_random(grid, "even", 0.05, rng)
        if name in ("asymmetric-grid", "even-point-count"):
            g = GridSpec(-20.0, 20.5, 801) if name == "asymmetric-grid" else GridSpec(-20.0, 20.0, 800)
            return FieldState(0.0, g, np.tanh(g.x), np.zeros(g.n_points)), PHI4, None
        if name in ("offset-frame", "moving-frame"):
            frame = KinkFrame(x0=0.3) if name == "offset-frame" else KinkFrame(beta=0.3)
            base = kink(frame).sample(grid, 0.0)
            return FieldState(0.0, grid, base.u + odd, base.v + odd), SINE_GORDON, frame
        if name == "static-frame-even":
            return (FieldState(0.0, grid, KinkParams().q(grid.x) + even, even),
                    SINE_GORDON, KinkFrame())
        if name == "mixed":
            return FieldState(0.0, grid, odd + even, odd), SINE_GORDON, None
        # an odd state whose defect, 1e-11, exceeds the tolerance 1e-12
        u = odd.copy()
        u[100] += 1e-11
        return FieldState(0.0, grid, u, odd), SINE_GORDON, None

    @pytest.mark.parametrize("name", ["asymmetric-grid", "even-point-count", "offset-frame",
                                      "moving-frame", "static-frame-even", "mixed",
                                      "defect-above-tolerance"])
    def test_other_runs_take_the_full_grid(self, name):
        st, model, frame = self.full_grid_case(name)
        self.check_against_reference(st, model, frame, None)

    @staticmethod
    def assert_mirrors_input(traj, st, kind):
        # the first snapshot is the evolved (u, v) made exactly odd or even;
        # it moves no node by more than the input's parity defect
        q0, q0_t = traj.background_fields(st.t)
        for got, given in ((traj.u_snaps[0], st.u - q0), (traj.v_snaps[0], st.v - q0_t)):
            assert np.max(np.abs(got - given)) <= parity_check(given, traj.grid, kind)
            assert parity_check(got, traj.grid, kind) == 0.0

    def test_first_snapshot_drops_a_defect_within_tolerance(self):
        grid = GridSpec(-20.0, 20.0, 801)
        odd = smooth_random(grid, "odd", 0.05, np.random.default_rng(9))
        u = odd.copy()
        u[100] += 5e-13
        st = FieldState(0.0, grid, u, odd)
        traj = self.check_against_reference(st, SINE_GORDON, None, -1.0)
        assert np.max(np.abs(traj.u_snaps[0] - st.u)) >= 5e-13
        self.assert_mirrors_input(traj, st, "odd")

    @pytest.mark.parametrize("n_points", [3, 5])
    @pytest.mark.parametrize("kind", ["odd", "even"])
    def test_smallest_grids(self, n_points, kind):
        grid = GridSpec(-1.0, 1.0, n_points)
        u = 0.1 * (grid.x if kind == "odd" else np.cos(grid.x))
        st = FieldState(0.0, grid, u, 0.5 * u)
        model = SINE_GORDON if kind == "odd" else PHI4
        sign = -1.0 if kind == "odd" else 1.0
        traj = self.check_against_reference(st, model, None, sign, dt=0.1, n_steps=50)
        assert parity_check(traj.u_snaps[-1], grid, kind) == 0.0

    @pytest.mark.parametrize("name", ["sg-odd", "sg-even", "static-frame"])
    def test_zero_time_run_holds_the_mirrored_input(self, name):
        grid = GridSpec(-20.0, 20.0, 801)
        st, model, frame = self.symmetric_state(name, grid, np.random.default_rng(4))
        traj = evolve(st, model, EvolveConfig(dt=0.02, t_end=0.0, background=frame))
        assert len(traj) == 1
        self.assert_mirrors_input(traj, st, "even" if name == "sg-even" else "odd")
        assert traj.energies == [energy(traj.state(0), model)]


def test_every_model_has_an_odd_nonlinearity():
    # the half-grid path rests on N(-u) = -N(u), bitwise
    models = [value for value in vars(sglab).values() if isinstance(value, Model)]
    assert {model.kind for model in models} == {"sine-gordon", "phi4"}
    u = np.concatenate([np.linspace(-50.0, 50.0, 200001), [0.0, 1e-300, np.pi, 1e8]])
    for model in models:
        assert np.array_equal(model.nonlinearity(-u), -model.nonlinearity(u)), model.kind


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


def test_half_angle_sine_matches_np_sin():
    # the evolver's sin u = 2t / (1 + t^2), t = tan(u/2), on a dense grid and
    # at the points where tan(u/2) is 0, +/-1, huge or +/-tiny
    special = [0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 1e-300]
    u = np.concatenate([np.linspace(-50.0, 50.0, 400001), special])

    def half_angle_sin(values):
        # twice the helper's half of sin u; doubling rounds nothing
        return 2.0 * _half_sin(values, np.empty_like(values), np.empty_like(values))

    got = half_angle_sin(u)
    assert np.max(np.abs(got - np.sin(u))) <= 4.5e-16
    assert np.array_equal(half_angle_sin(-u), -got)
    zeros = half_angle_sin(np.array([0.0, -0.0]))
    assert np.array_equal(zeros, [0.0, 0.0]) and list(np.signbit(zeros)) == [False, True]


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
