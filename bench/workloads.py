"""The benchmark's workloads: seeded inputs and the fixed operation list of one pass.

Each workload has ``setup(seed, ctx)``, which builds grids and generates every
input from the seed, and ``ops(inputs)``, the operations of one pass in the
order a single closed-loop client runs them.  An operation is a function of
the run context ``ctx``; it calls sglab inside ``ctx.span(layer)``, records
exact work counts with ``ctx.count`` and gates its outputs with ``ctx.check``
(measured value against the acceptance suite's tolerance) and
``ctx.require``.  Every tolerance below is the one the acceptance suite uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from sglab import (
    PHI4,
    SINE_GORDON,
    EvolveConfig,
    FieldState,
    GridSpec,
    KinkFrame,
    KinkParams,
    PerturbationPair,
    ThreeSolitonParams,
    WobblerParams,
    breather,
    construct_manifold_data,
    descend_kink_to_zero,
    descend_wobbler_to_breather,
    discrete_spectrum,
    energy,
    evolve,
    kink,
    kink_phi4_dual_operator,
    kink_phi4_operator,
    kink_profile,
    kink_sg_operator,
    lift_breather_to_wobbler,
    lift_with_orthogonality,
    lift_zero_to_kink,
    manifold_momentum,
    momentum,
    parity_check,
    pde_residual,
    phi4_kink,
    quadrature,
    rho_rate_check,
    three_soliton,
    track_modulation,
    two_kink,
    wobbler,
)
from sglab.backlund import zero_momentum_manifold_data
from sglab.inputs import smooth_random

TOL_ROUND_TRIP = 1e-7
TOL_PARITY = 1e-9
TOL_ENERGY_DRIFT = 1e-5
TOL_REVERSAL = 1e-9
TOL_MANIFOLD_MOMENTUM = 1e-5
TOL_MOMENTUM_CLOSED_FORM = 1e-6
TOL_EIGENVALUE = 2e-3
TOL_FINEST_RESIDUAL = 1e-5
TOL_KINK_ENERGY = 1e-8
TOL_ORTHOGONALITY = 1e-10
MIN_REFINEMENT_ORDER = 1.9
#: the tolerance every transform map requests by default; a report whose
#: final residual is above it was accepted through the solver's stall_tol
NEWTON_TOL = 1e-11
BACKLUND_MAPS = ("lift_zero_to_kink", "descend_kink_to_zero", "lift_breather_to_wobbler",
                 "descend_wobbler_to_breather", "construct_manifold_data",
                 "lift_with_orthogonality", "zero_momentum_manifold_data")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    ops: Callable
    summary: Callable = lambda notes: {}


# --- calls into the layers -----------------------------------------------------

def _evolve(ctx, state, model, cfg):
    frame = cfg.background
    kind = "plain" if frame is None else ("kink_static" if frame.beta == 0 else "kink_moving")
    with ctx.span(f"evolution.{kind}"):
        traj = evolve(state, model, cfg)
    steps = max(1, int(round(cfg.t_end / cfg.dt))) if cfg.t_end > 0 else 0
    ctx.count(f"evolution.{kind}.point_steps", state.grid.n_points * steps)
    ctx.count("evolution.snapshots", len(traj))
    ctx.count("evolution.snapshot_bytes",
              sum(a.nbytes for a in traj.u_snaps) + sum(a.nbytes for a in traj.v_snaps))
    return traj


def _solve(ctx, name, fn, *args, **kwargs):
    with ctx.span(f"backlund.{name}"):
        out = fn(*args, **kwargs)
    rep = out[0] if isinstance(out, tuple) else out
    ctx.count(f"backlund.{name}.solves", 1)
    ctx.count(f"backlund.{name}.iters", rep.iterations)
    ctx.count("backlund.solves", 1)
    ctx.count("backlund.stalled", int(rep.final_residual > NEWTON_TOL))
    return out


def _sample(ctx, family, sampler, grid, t):
    with ctx.span(f"solutions.{family}"):
        u = np.asarray(sampler.value(t, grid.x), dtype=float)
        v = np.asarray(sampler.dvalue_dt(t, grid.x), dtype=float)
    ctx.count(f"solutions.{family}.points", grid.n_points)
    return FieldState(t, grid, u, v)


def _smooth_random(ctx, grid, parity, amplitude, rng):
    with ctx.span("inputs.smooth_random"):
        out = smooth_random(grid, parity, amplitude, rng)
    ctx.count("inputs.smooth_random.calls", 1)
    return out


def _parity(ctx, what, values, grid, kind):
    with ctx.span("grids.parity_check"):
        defect = parity_check(values, grid, kind)
    ctx.check(f"parity {what}", defect, TOL_PARITY)


def _momentum(ctx, state):
    with ctx.span("conserved.momentum"):
        return momentum(state)


def _drift(energies):
    e = np.asarray(energies)
    return float(np.max(np.abs(e - e[0])) / abs(e[0]))


# --- manifold-cells -------------------------------------------------------------

MANIFOLD_ETAS = (0.02, 0.04, 0.08)
MANIFOLD_SHAPES = 3
MANIFOLD_T = 5.0


def _manifold_setup(seed, ctx):
    grid = GridSpec(-40.0, 40.0, 12001)
    rng = np.random.default_rng(seed)
    return {"grid": grid,
            "shapes": [_smooth_random(ctx, grid, "odd", 1.0, rng) for _ in range(MANIFOLD_SHAPES)],
            "q": kink_profile(KinkParams(0.0)).q(grid.x)}


def _manifold_cell(inp, k, eta, ctx):
    """One criterion-9 cell: manifold data, kink-frame run, tracking, paired
    vacuum run and the shift-rate inequality."""
    grid = inp["grid"]
    y0 = eta * inp["shapes"][k]
    rep, _ = _solve(ctx, "zero_momentum_manifold_data", zero_momentum_manifold_data, grid, y0)
    _parity(ctx, "manifold u", rep.result.first, grid, "odd")
    _parity(ctx, "manifold s", rep.result.second, grid, "even")
    state = FieldState(0.0, grid, inp["q"] + rep.result.first, rep.result.second)
    traj = _evolve(ctx, state, SINE_GORDON,
                   EvolveConfig(dt=0.005, t_end=MANIFOLD_T, background=KinkFrame(),
                                snapshot_every=0.5))
    ctx.check("manifold momentum", float(np.max(np.abs(traj.momenta))), TOL_MANIFOLD_MOMENTUM)
    ctx.check("energy drift", _drift(traj.energies), TOL_ENERGY_DRIFT)
    with ctx.span("modulation.track"):
        records = track_modulation(traj, 0.0)
    ctx.count("modulation.track.snapshots", len(traj))
    ctx.count("modulation.track.records", len(records))
    ctx.require("tracker completion", len(records) == len(traj))
    vacuum = _evolve(ctx, FieldState(0.0, grid, y0, np.zeros(grid.n_points)), SINE_GORDON,
                     EvolveConfig(dt=0.005, t_end=MANIFOLD_T, snapshot_every=0.5))
    _parity(ctx, "vacuum u", vacuum.u_snaps[-1], grid, "odd")
    pairs = [PerturbationPair(grid, vacuum.u_snaps[i], vacuum.v_snaps[i])
             for i in range(len(records))]
    with ctx.span("modulation.rate_check"):
        rates = rho_rate_check(records, pairs, 0.1)
    ctx.count("modulation.rate_check.calls", 1)
    ctx.note("peak_rho_rate", (k, eta, max(abs(r.rho_rate) for r in records)))
    ctx.note("max_rate_ratio", float(rates["max_rate_ratio"]))
    ctx.note("vacuum_energy_drift", _drift(vacuum.energies))


def _manifold_summary(notes):
    """Log-log slope of peak |rho'| over each shape's eta ladder (criterion
    9b, band 2 +/- 0.3), reported and not gated."""
    peaks = {(k, eta): peak for k, eta, peak in notes.get("peak_rho_rate", [])}
    slopes = [float(np.polyfit(np.log(MANIFOLD_ETAS),
                               np.log([peaks[k, eta] for eta in MANIFOLD_ETAS]), 1)[0])
              for k in range(MANIFOLD_SHAPES)
              if all((k, eta) in peaks for eta in MANIFOLD_ETAS)]
    return {"shift_rate_slopes": slopes,
            "max_rate_ratio": max(notes.get("max_rate_ratio", [0.0])),
            "max_vacuum_energy_drift": max(notes.get("vacuum_energy_drift", [0.0]))}


MANIFOLD_CELLS = Workload(
    "manifold-cells",
    _manifold_setup,
    lambda inp: [(f"cell shape={k} eta={eta}", partial(_manifold_cell, inp, k, eta))
                 for k in range(MANIFOLD_SHAPES) for eta in MANIFOLD_ETAS],
    _manifold_summary,
)


# --- field-evolve ---------------------------------------------------------------

FIELD_T = 20.0
FIELD_BREATHERS = 3
MOVING_T = 5.0


def _field_setup(seed, ctx):
    rng = np.random.default_rng(seed)
    g4 = GridSpec(-40.0, 40.0, 4001)
    g6 = GridSpec(-60.0, 60.0, 6001)
    # the suite gates energy drift in kink frames on this grid and step; at
    # n = 4001 a translating kink's energy moves by O(h^2) = 5e-5
    g16 = GridSpec(-40.0, 40.0, 16001)
    phi4_shift = rng.uniform(-0.5, 0.5)
    inp = {f"breather{k}": _sample(ctx, "breather", breather(0.5), g4,
                                   rng.uniform(0.0, 2.0 * math.pi))
           for k in range(FIELD_BREATHERS)}
    return inp | {
        "two_kink": _sample(ctx, "two_kink", two_kink(0.2), g4, rng.uniform(-1.0, 1.0)),
        "phi4": _sample(ctx, "phi4_kink", phi4_kink(), GridSpec(
            -40.0 - phi4_shift, 40.0 - phi4_shift, 4001), 0.0),
        "reversal": _sample(ctx, "breather", breather(0.5), g6, rng.uniform(0.0, 2.0 * math.pi)),
        "moving_kink": _sample(ctx, "kink", kink(KinkParams(0.3, -0.5)), g16, 0.0),
    }


def _field_drift(inp, key, model, frame, parity, dt, t_end, ctx):
    state = inp[key]
    traj = _evolve(ctx, state, model, EvolveConfig(dt=dt, t_end=t_end, background=frame,
                                                   snapshot_every=0.5))
    ctx.check("energy drift", _drift(traj.energies), TOL_ENERGY_DRIFT)
    if parity:
        _parity(ctx, f"{key} u", traj.u_snaps[-1], state.grid, parity)


def _field_reversal(inp, ctx):
    st = inp["reversal"]
    cfg = EvolveConfig(dt=0.01, t_end=10.0, snapshot_every=10.0)
    fwd = _evolve(ctx, st, SINE_GORDON, cfg)
    back = _evolve(ctx, FieldState(st.t, st.grid, fwd.u_snaps[-1], -fwd.v_snaps[-1]),
                   SINE_GORDON, cfg)
    err = max(float(np.max(np.abs(back.u_snaps[-1] - st.u))),
              float(np.max(np.abs(back.v_snaps[-1] + st.v))))
    ctx.check("time reversal", err, TOL_REVERSAL)


FIELD_EVOLVE = Workload(
    "field-evolve",
    _field_setup,
    lambda inp: [
        *((f"breather {k}", partial(_field_drift, inp, f"breather{k}", SINE_GORDON, None,
                                    "even", 0.005, FIELD_T)) for k in range(FIELD_BREATHERS)),
        ("two_kink", partial(_field_drift, inp, "two_kink", SINE_GORDON, None, "odd",
                             0.005, FIELD_T)),
        ("phi4_kink", partial(_field_drift, inp, "phi4", PHI4, None, None, 0.005, FIELD_T)),
        ("reversal", partial(_field_reversal, inp)),
        ("moving_kink", partial(_field_drift, inp, "moving_kink", SINE_GORDON,
                                KinkFrame(beta=0.3), None, 0.004, MOVING_T)),
    ],
)


# --- transform-verify -----------------------------------------------------------

ROUND_TRIPS = 8
WOBBLER_BETA = 0.4
ORTHO_BETA = 0.3
MANIFOLD_DELTAS = (-0.2, 0.0, 0.1, 0.5)
SPECTRUM_SIZES = (4001, 8001)
SPECTRA = (("sg_kink", kink_sg_operator, (0.0,)),
           ("phi4_kink", kink_phi4_operator, (0.0, 1.5)),
           ("phi4_dual", kink_phi4_dual_operator, (1.5,)))
FAMILIES = (("kink", lambda: kink(KinkParams(0.6, 0.0)), SINE_GORDON),
            ("breather", lambda: breather(0.5), SINE_GORDON),
            ("wobbler", lambda: wobbler(WobblerParams(0.5)), SINE_GORDON),
            ("two_kink", lambda: two_kink(0.5), SINE_GORDON),
            ("three_soliton", lambda: three_soliton(ThreeSolitonParams(0.5, 0.4)), SINE_GORDON),
            ("phi4_kink", phi4_kink, PHI4))


def _transform_setup(seed, ctx):
    rng = np.random.default_rng(seed)
    g40 = GridSpec(-40.0, 40.0, 4001)
    gm = GridSpec(-40.0, 40.0, 48001)
    ge = GridSpec(-40.0, 40.0, 800001)

    def even_pair(amplitude):
        return (_smooth_random(ctx, g40, "even", amplitude, rng),
                _smooth_random(ctx, g40, "even", amplitude, rng))

    return {
        "g40": g40,
        "gm": gm,
        "kink_pairs": [even_pair(0.05) for _ in range(ROUND_TRIPS)],
        "wobbler_pairs": [even_pair(0.04) for _ in range(ROUND_TRIPS)],
        "wobbler_t": float(rng.uniform(0.5, 1.5)),
        "ortho": [(_smooth_random(ctx, g40, "odd", 0.05, rng),
                   _smooth_random(ctx, g40, "odd", 0.03, rng),
                   float(rng.uniform(0.0, 2.0))) for _ in range(2)],
        "manifold_y0": _smooth_random(ctx, gm, "odd", 0.05, rng),
        "manifold_q": kink_profile(KinkParams(0.0)).q(gm.x),
        "zero_momentum_y0": _smooth_random(ctx, g40, "odd", 0.05, rng),
        "pde_t": 0.7,
        "pde_grid": GridSpec(-40.0, 40.0, 8001),
        "spectrum_grids": {n: GridSpec(-30.0, 30.0, n) for n in SPECTRUM_SIZES},
        "static_kink": _sample(ctx, "kink", kink(KinkParams(0.0)), ge, 0.0),
    }


def _lift(inp, lifted, name, k, ctx):
    grid = inp["g40"]
    y, v = inp[f"{name}_pairs"][k]
    if name == "kink":
        up = _solve(ctx, "lift_zero_to_kink", lift_zero_to_kink, grid, y, v)
    else:
        up = _solve(ctx, "lift_breather_to_wobbler", lift_breather_to_wobbler, grid, y, v,
                    WOBBLER_BETA, inp["wobbler_t"])
    _parity(ctx, "lift u", up.result.first, grid, "odd")
    _parity(ctx, "lift s", up.result.second, grid, "odd")
    lifted[name, k] = up.result


def _descend(inp, lifted, name, k, ctx):
    grid = inp["g40"]
    y, v = inp[f"{name}_pairs"][k]
    up = lifted.pop((name, k))
    if name == "kink":
        down = _solve(ctx, "descend_kink_to_zero", descend_kink_to_zero, grid,
                      up.first, up.second)
    else:
        down = _solve(ctx, "descend_wobbler_to_breather", descend_wobbler_to_breather, grid,
                      up.first, up.second, WOBBLER_BETA, inp["wobbler_t"])
    _parity(ctx, "descend y", down.result.first, grid, "even")
    _parity(ctx, "descend v", down.result.second, grid, "even")
    ctx.check("round trip", max(float(np.max(np.abs(down.result.first - y))),
                                float(np.max(np.abs(down.result.second - v)))), TOL_ROUND_TRIP)


def _ortho(inp, k, ctx):
    grid = inp["g40"]
    y, v, t = inp["ortho"][k]
    rep = _solve(ctx, "lift_with_orthogonality", lift_with_orthogonality, grid, y, v,
                 0.0, ORTHO_BETA, 0.0, t)
    prof = kink_profile(KinkParams(ORTHO_BETA, ORTHO_BETA * t))
    ortho = quadrature(rep.result.first * prof.q_x(grid.x)
                       + rep.result.second * prof.q_tx(grid.x), grid)
    ctx.check("orthogonality", abs(ortho), TOL_ORTHOGONALITY)


def _manifold_construct(inp, delta, ctx):
    gm = inp["gm"]
    rep = _solve(ctx, "construct_manifold_data", construct_manifold_data, gm,
                 inp["manifold_y0"], np.zeros(gm.n_points), delta)
    _parity(ctx, "manifold u", rep.result.first, gm, "odd")
    _parity(ctx, "manifold s", rep.result.second, gm, "even")
    p = _momentum(ctx, FieldState(0.0, gm, inp["manifold_q"] + rep.result.first,
                                  rep.result.second))
    ctx.check("momentum closed form", abs(p - manifold_momentum(delta)),
              TOL_MOMENTUM_CLOSED_FORM)


def _zero_momentum(inp, ctx):
    grid = inp["g40"]
    rep, _ = _solve(ctx, "zero_momentum_manifold_data", zero_momentum_manifold_data, grid,
                    inp["zero_momentum_y0"])
    q = kink_profile(KinkParams(0.0)).q(grid.x)
    p = _momentum(ctx, FieldState(0.0, grid, q + rep.result.first, rep.result.second))
    ctx.check("manifold momentum", abs(p), TOL_MANIFOLD_MOMENTUM)


def _spectrum(inp, name, make_op, expected, n, ctx):
    with ctx.span(f"spectra.discrete_spectrum.{name}"):
        pairs = discrete_spectrum(make_op(), inp["spectrum_grids"][n])
    ctx.count(f"spectra.discrete_spectrum.{name}.calls", 1)
    ctx.count("spectra.eigenpairs", len(pairs))
    ctx.require(f"{name} eigenvalue count", len(pairs) == len(expected))
    for (value, _), want in zip(pairs, expected):
        ctx.check("eigenvalue", abs(value - want), TOL_EIGENVALUE)


def _family(inp, name, make_sampler, model, ctx):
    """Sample the family, then refine its PDE residual over three levels."""
    sampler, t = make_sampler(), inp["pde_t"]
    grid, dt = inp["pde_grid"], 0.01
    _sample(ctx, name, sampler, grid, t)
    residuals = []
    for _ in range(3):
        with ctx.span("grids.pde_residual"):
            r = pde_residual(sampler, model, t, grid, dt)
        ctx.count("grids.pde_residual.points", grid.n_points)
        residuals.append(float(np.max(np.abs(r))))
        grid, dt = grid.refined(2), dt / 2.0
    order = min(math.log2(residuals[i] / residuals[i + 1]) for i in range(2))
    ctx.require(f"{name} refinement order >= {MIN_REFINEMENT_ORDER}",
                order >= MIN_REFINEMENT_ORDER)
    ctx.check("finest residual", residuals[-1], TOL_FINEST_RESIDUAL)


def _kink_energy(inp, ctx):
    state = inp["static_kink"]
    with ctx.span("conserved.energy"):
        e = energy(state, SINE_GORDON)
    ctx.count("conserved.energy.points", state.grid.n_points)
    ctx.check("kink energy", abs(e - 8.0), TOL_KINK_ENERGY)


def _transform_ops(inp):
    ops = []
    lifted = {}  # each lift's result, taken by the descent that follows it
    for name in ("kink", "wobbler"):
        for k in range(ROUND_TRIPS):
            ops.append((f"lift {name} {k}", partial(_lift, inp, lifted, name, k)))
            ops.append((f"descend {name} {k}", partial(_descend, inp, lifted, name, k)))
    ops += [(f"orthogonal lift {k}", partial(_ortho, inp, k)) for k in range(2)]
    ops += [(f"manifold delta={d}", partial(_manifold_construct, inp, d))
            for d in MANIFOLD_DELTAS]
    ops.append(("zero-momentum manifold", partial(_zero_momentum, inp)))
    ops += [(f"spectrum {name} n={n}", partial(_spectrum, inp, name, make, expected, n))
            for name, make, expected in SPECTRA for n in SPECTRUM_SIZES]
    ops += [(f"family {name}", partial(_family, inp, name, make, model))
            for name, make, model in FAMILIES]
    ops.append(("kink energy", partial(_kink_energy, inp)))
    return ops


TRANSFORM_VERIFY = Workload(
    "transform-verify",
    _transform_setup,
    _transform_ops,
)

WORKLOADS = {w.name: w for w in (MANIFOLD_CELLS, FIELD_EVOLVE, TRANSFORM_VERIFY)}
