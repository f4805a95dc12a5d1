"""Experiment cells shared by the command-line recipes and the acceptance suite.

Each cell runs one measurement and returns it: no tolerance, no printing and
no report.  The ``sglab`` recipes render the results into checked rows; the
acceptance tests assert on them, so both run the same numerics.
"""

from __future__ import annotations

import math

import numpy as np

from .backlund import bt_pair_residual, zero_momentum_manifold_data
from .evolution import EvolveConfig, evolve
from .grids import (PHI4, SINE_GORDON, FieldState, GridSpec, ParameterError,
                    PerturbationPair, local_energy_norm, pde_residual)
from .inputs import smooth_random
from .modulation import rho_rate_check, track_modulation
from .solutions import (KinkParams, ThreeSolitonParams, WobblerParams, breather, kink,
                        linear_mode, multiplier_from_speed, phi4_kink, three_soliton,
                        two_kink, wobbler, zero_sampler)
from .spectra import (discrete_spectrum, kink_phi4_dual_operator, kink_phi4_operator,
                      kink_sg_operator, lbt_residual_phi4, lbt_residual_phi4_dual,
                      lbt_residual_sg)

__all__ = ["EXACT_FAMILIES", "SPECTRA", "residual_study", "transform_identity_cases",
           "linear_transform_cases", "spectrum_ladder", "relative_drift", "wobbler_orbit",
           "manifold_run", "vacuum_rate_check"]

#: (name, sampler, model) of the six closed-form families
EXACT_FAMILIES = (
    ("kink", kink(KinkParams(0.6, 0.0)), SINE_GORDON),
    ("breather", breather(0.5), SINE_GORDON),
    ("wobbler", wobbler(WobblerParams(0.5)), SINE_GORDON),
    ("two-kink", two_kink(0.5), SINE_GORDON),
    ("three-soliton", three_soliton(ThreeSolitonParams(0.5, 0.4)), SINE_GORDON),
    ("phi4-kink", phi4_kink(), PHI4),
)

#: (name, operator, exact discrete eigenvalues) of the three kink operators
SPECTRA = (
    ("sg-kink", kink_sg_operator(), (0.0,)),
    ("phi4-kink", kink_phi4_operator(), (0.0, 1.5)),
    ("phi4-kink-dual", kink_phi4_dual_operator(), (1.5,)),
)


def residual_study(sampler, model, grid, t, dt, levels):
    """Max PDE residual at each of `levels` (h, dt) halvings, and the observed
    orders log2(r_i / r_{i+1}).

    A solution whose samples at t - dt, t and t + dt all vary by less than
    1e-8 over the grid has left it, so its orders would measure round-off:
    that raises ``ParameterError``.  A residual of exactly 0 leaves no order
    to measure: on a flat solution it raises too, and otherwise (the
    breather at t = 0, odd in time, whose central differences cancel) the
    study stops there and returns the residuals so far and no orders."""
    residuals = []
    g, step = grid, dt
    for level in range(levels):
        residuals.append(float(np.max(np.abs(pde_residual(sampler, model, t, g, step)))))
        if residuals[-1] == 0.0:
            break
        g, step = g.refined(2), step / 2.0
    spread = max(float(np.ptp(np.asarray(sampler.value(s, grid.x), dtype=float)))
                 for s in (t - dt, t, t + dt))
    if spread < 1e-8:
        if residuals[-1] == 0.0:
            raise ParameterError(f"the residual is exactly 0 at level {level} at t = {t:g}")
        raise ParameterError(f"the solution is flat on the grid at t = {t:g} "
                             f"(max - min {spread:.1e} < 1e-08 at t and t +- dt)")
    if residuals[-1] == 0.0:
        return residuals, []
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(levels - 1)]
    return residuals, orders


def transform_identity_cases(grid, betas, times):
    """(label, max of |F1| and |F2|) of the kink-from-vacuum identity at each
    beta and of the wobbler-breather identity at each beta and time."""
    cases = []
    for beta in betas:
        f1, f2 = bt_pair_residual(zero_sampler(), kink(KinkParams(beta, 0.0)),
                                  multiplier_from_speed(beta), 0.0, grid)
        cases.append((f"kink-from-vacuum identity beta={beta}",
                      float(max(np.max(np.abs(f1)), np.max(np.abs(f2))))))
        for t in times:
            f1, f2 = bt_pair_residual(breather(beta), wobbler(WobblerParams(beta)),
                                      1.0, t, grid)
            cases.append((f"wobbler-breather identity beta={beta} t={t}",
                          float(max(np.max(np.abs(f1)), np.max(np.abs(f2))))))
    return cases


def linear_transform_cases(grid, t):
    """(label, max residual) of the closed-form linear-mode pairs in their
    first-order systems at time t: around the sine-Gordon kink, the kink
    slopes over the zero mode, around the phi^4 kink, and the dual pairs."""
    m, zero = linear_mode, zero_sampler()
    cases = [
        ("sg linear transform (L,M)", lbt_residual_sg(m("L"), m("M"), t, grid)),
        ("sg linear transform (L-alt,M-alt)", lbt_residual_sg(m("L-alt"), m("M-alt"), t, grid)),
        ("zero-mode transform (Q-slope,0)", lbt_residual_sg(m("Q-slope"), zero, t, grid)),
        ("zero-mode transform (H-slope,0)", lbt_residual_phi4(m("H-slope"), zero, t, grid)),
        ("phi4 linear transform (Y1,Y0)", lbt_residual_phi4(*m("Y1-sin-pair"), t, grid)),
        ("phi4 linear transform (Y1-cos,Y0-sin)", lbt_residual_phi4(*m("Y1-cos-pair"), t, grid)),
        ("phi4 linear transform (L4,M4)", lbt_residual_phi4(m("L4"), m("M4"), t, grid)),
        ("phi4 linear transform (L4-alt,M4-alt)",
         lbt_residual_phi4(m("L4-alt"), m("M4-alt"), t, grid)),
    ]
    for sign, name in ((1, "N4-plus"), (-1, "N4-minus")):
        (a1, b1), (a2, b2) = lbt_residual_phi4_dual(m("M4-complex"), m(name), sign, t, grid)
        cases.append((f"phi4 dual transform sign={sign:+d}", (a1, b1, a2, b2)))
    return [(label, float(max(np.max(np.abs(e)) for e in residuals)))
            for label, residuals in cases]


def spectrum_ladder(op, grid, exact):
    """Eigenvalues of `op` on `grid`, and the two orders of its top eigenvalue
    against exact[-1] over `grid` halved, `grid` and `grid` doubled.  The
    halved grid needs an odd count, like every grid discrete_spectrum solves
    on, so grid.n_points must be 1 mod 4."""
    if grid.n_points % 4 != 1:
        raise ParameterError(f"grid.n_points must be 1 mod 4 (the halved grid needs an odd "
                             f"count), got {grid.n_points}")
    values = [v for v, _ in discrete_spectrum(op, grid)]
    coarse = GridSpec(grid.x_min, grid.x_max, (grid.n_points - 1) // 2 + 1)
    tops = (discrete_spectrum(op, coarse)[-1][0], values[-1],
            discrete_spectrum(op, grid.refined(2))[-1][0])
    errs = [abs(v - exact[-1]) for v in tops]
    return values, [math.log2(errs[i] / errs[i + 1]) for i in range(2)]


def relative_drift(energies):
    """max |E - E0| / |E0| over an energy log, with |E0| floored at 1e-300."""
    e = np.asarray(energies)
    return float(np.max(np.abs(e - e[0])) / max(abs(e[0]), 1e-300))


def wobbler_orbit(grid, beta, eta, rng, dt, t_end, snapshot_every):
    """Evolve the wobbler plus odd noise of size eta (drawn from rng) in the
    static kink frame.  Returns the trajectory and each snapshot's local energy
    distance to the nearest time-shifted wobbler: over one period, a 41-point
    scan brackets the shift and a bounded scalar search refines it to 1e-8."""
    # imported here, as discrete_spectrum imports scipy.linalg, to keep import sglab cheap
    from scipy.optimize import minimize_scalar

    w = wobbler(WobblerParams(beta))
    start = w.sample(grid, 0.0)
    noisy = FieldState(0.0, grid, start.u + smooth_random(grid, "odd", eta, rng), start.v)
    traj = evolve(noisy, SINE_GORDON, EvolveConfig(dt=dt, t_end=t_end, background=KinkParams(),
                                                   snapshot_every=snapshot_every))
    period = 2.0 * math.pi / math.sqrt(1.0 - beta ** 2)
    distances = []
    for i in range(len(traj)):
        state = traj.state(i)
        t = state.t

        def dist(tau):
            ref = w.sample(grid, t + tau)
            return local_energy_norm(PerturbationPair(grid, state.u - ref.u, state.v - ref.v))

        taus = np.linspace(-0.5 * period, 0.5 * period, 41)
        k = int(np.argmin([dist(tau) for tau in taus]))
        bounds = (taus[max(0, k - 1)], taus[min(len(taus) - 1, k + 1)])
        best = minimize_scalar(dist, bounds=bounds, method="bounded", options={"xatol": 1e-8})
        distances.append(float(best.fun))
    return traj, distances


def manifold_run(grid, y0, dt, t_end, snapshot_every, interval):
    """Evolve the static kink plus the zero-momentum manifold data built from
    odd vacuum data y0 in the kink frame.  Returns the trajectory and its
    tracker records (local norm on `interval`), which stop at a tube exit."""
    rep, _delta = zero_momentum_manifold_data(grid, y0)
    state = FieldState(0.0, grid, KinkParams().q(grid.x) + rep.result.first, rep.result.second)
    traj = evolve(state, SINE_GORDON, EvolveConfig(
        dt=dt, t_end=t_end, background=KinkParams(), snapshot_every=snapshot_every))
    return traj, track_modulation(traj, 0.0, interval)


def vacuum_rate_check(grid, y0, records, dt, t_end, snapshot_every):
    """Evolve the vacuum twin (y0, 0) and return ``rho_rate_check`` of the
    records against it.  The records must sit at the twin's first snapshot
    times, as a ``manifold_run`` with the same dt, t_end and snapshot_every
    gives them."""
    vacuum = evolve(FieldState(0.0, grid, y0, np.zeros_like(grid.x)), SINE_GORDON,
                    EvolveConfig(dt=dt, t_end=t_end, snapshot_every=snapshot_every))
    if [r.t for r in records] != vacuum.times[:len(records)]:
        raise ParameterError("records are not aligned with the vacuum snapshots")
    return rho_rate_check(records, [vacuum.perturbation(i) for i in range(len(records))])
