"""Command-line experiment driver.

Subcommands run reproducible experiment recipes and write a summary.json,
CSV tables with the fixed probe header ``t,rho,rho_rate,energy,momentum,
local_norm_I,weighted_norm``, and self-contained SVG plots.

Exit codes: 0 all checks passed, 1 a criterion failed, 2 configuration error,
3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .backlund import (
    BtParameter,
    bt_pair_residual,
    construct_manifold_data,
    descend_kink_to_zero,
    descend_wobbler_to_breather,
    final_speed_from_delta,
    final_speed_from_momentum,
    lift_breather_to_wobbler,
    lift_with_orthogonality,
    lift_zero_to_kink,
    zero_momentum_manifold_data,
)
from .conserved import manifold_momentum, momentum
from .evolution import EvolveConfig, KinkFrame, evolve
from .grids import (
    ContractError,
    FieldState,
    GridSpec,
    ParameterError,
    PerturbationPair,
    SINE_GORDON,
    PHI4,
    SolverError,
    local_energy_norm,
    parity_check,
    pde_residual,
    WeightSpec,
    weighted_norm_sq,
)
from .inputs import load_pair, named_pair, smooth_random
from .modulation import (
    convergence_classifier,
    rho_rate_check,
    track_modulation,
)
from .reports import ReportBundle, svg_line_plot
from .solutions import (
    KinkParams,
    ThreeSolitonParams,
    WobblerParams,
    breather,
    kink,
    kink_profile,
    linear_mode,
    phi4_kink,
    three_soliton,
    two_kink,
    wobbler,
    zero_sampler,
)
from .spectra import (
    discrete_spectrum,
    kink_phi4_dual_operator,
    kink_phi4_operator,
    kink_sg_operator,
    lbt_residual_phi4,
    lbt_residual_phi4_dual,
    lbt_residual_sg,
)

PROBE_HEADER = ("t", "rho", "rho_rate", "energy", "momentum",
                "local_norm_I", "weighted_norm")


def _grid_from(cfg) -> GridSpec:
    g = cfg.get("grid", {})
    return GridSpec(g.get("x_min", -40.0), g.get("x_max", 40.0), g.get("n_points", 4001))


def _sampler_from(cfg):
    name = cfg.get("solution", "kink")
    params = cfg.get("params", {})
    if name == "kink":
        return kink(KinkParams(params.get("beta", 0.0), params.get("x0", 0.0))), SINE_GORDON
    if name == "breather":
        return breather(params.get("beta", 0.5)), SINE_GORDON
    if name == "wobbler":
        return wobbler(WobblerParams(params.get("beta", 0.5))), SINE_GORDON
    if name == "two-kink":
        return two_kink(params.get("beta", 0.5)), SINE_GORDON
    if name == "three-soliton":
        return three_soliton(ThreeSolitonParams(params.get("beta", 0.5),
                                                params.get("v", 0.4))), SINE_GORDON
    if name == "phi4-kink":
        return phi4_kink(), PHI4
    raise ParameterError(f"unknown solution {name!r}")


def _residual_study(sampler, model, grid, t, dt, levels):
    """Max residual per refinement level and the observed orders."""
    residuals = []
    g, step = grid, dt
    for _ in range(levels):
        residuals.append(float(np.max(np.abs(pde_residual(sampler, model, t, g, step)))))
        g, step = g.refined(2), step / 2.0
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(levels - 1)]
    return residuals, orders


# --- subcommands ---------------------------------------------------------------

def cmd_verify_exact(cfg, tol_scale, rng) -> ReportBundle:
    bundle = ReportBundle("verify-exact")
    grid = _grid_from(cfg)
    t = cfg.get("t", 0.7)
    dt = cfg.get("dt", grid.h)
    levels = cfg.get("levels", 3)
    order_min = cfg.get("order_min", 1.9)
    res_max = cfg.get("max_residual", 1e-5) * tol_scale
    families = [
        ("kink", kink(KinkParams(0.6, 0.0)), SINE_GORDON),
        ("breather", breather(0.5), SINE_GORDON),
        ("wobbler", wobbler(WobblerParams(0.5)), SINE_GORDON),
        ("two-kink", two_kink(0.5), SINE_GORDON),
        ("three-soliton", three_soliton(ThreeSolitonParams(0.5, 0.4)), SINE_GORDON),
        ("phi4-kink", phi4_kink(), PHI4),
    ]
    table = []
    for name, sampler, model in families:
        residuals, orders = _residual_study(sampler, model, grid, t, dt, levels)
        bundle.check(f"{name} refinement order", min(orders), order_min,
                     "closed-form solution under (h, dt) halving", larger_ok=True)
        bundle.check(f"{name} finest residual", residuals[-1], res_max,
                     "closed-form solution residual")
        table.append((name, *[r for r in residuals], *[o for o in orders]))
    header = ["family"] + [f"residual_level{i}" for i in range(levels)] \
        + [f"order{i}" for i in range(levels - 1)]
    bundle.tables["residual_refinement"] = (header, table)

    beta_rows = []
    for beta in cfg.get("wobbler_betas", [0.1, 0.3, 0.5, 0.7, 0.9]):
        r = float(np.max(np.abs(pde_residual(wobbler(WobblerParams(beta)),
                                             SINE_GORDON, t, grid, dt))))
        beta_rows.append((beta, r))
    bundle.tables["wobbler_beta_residuals"] = (["beta", "max_residual"], beta_rows)

    # profile snapshots of each family at a few times
    window = np.linspace(-20.0, 20.0, 801)
    for name, sampler, _ in families:
        series = {f"t={ts:g}": (window, np.asarray(sampler.value(ts, window)))
                  for ts in cfg.get("snapshot_times", [0.0, 2.0, 6.0])}
        bundle.plots[f"{name}_snapshots"] = svg_line_plot(
            series, title=name, xlabel="x", ylabel="value")
    return bundle


def cmd_verify_bt(cfg, tol_scale, rng) -> ReportBundle:
    bundle = ReportBundle("verify-bt")
    grid = _grid_from(cfg)
    tol = cfg.get("tolerance", 5e-6) * tol_scale
    betas = cfg.get("betas", [0.1, 0.3, 0.5, 0.7])
    times = cfg.get("times", [0.0, 1.3, 5.0])

    for beta in betas:
        a = BtParameter.from_beta(beta)
        f1, f2 = bt_pair_residual(zero_sampler(), kink(KinkParams(beta, 0.0)), a, 0.0, grid)
        bundle.check(f"kink-from-vacuum identity beta={beta}",
                     max(np.max(np.abs(f1)), np.max(np.abs(f2))), tol,
                     "kink as transform of the vacuum")
        for t in times:
            f1, f2 = bt_pair_residual(breather(beta), wobbler(WobblerParams(beta)),
                                      1.0, t, grid)
            bundle.check(f"wobbler-breather identity beta={beta} t={t}",
                         max(np.max(np.abs(f1)), np.max(np.abs(f2))), tol,
                         "wobbler and breather linked at parameter 1")

    # linearized-transform identity suites
    gl = GridSpec(-30.0, 30.0, grid.n_points)
    ts = cfg.get("mode_time", 0.9)
    sg_pairs = [("L,M", linear_mode("L"), linear_mode("M")),
                ("L-alt,M-alt", linear_mode("L-alt"), linear_mode("M-alt"))]
    for label, phi, psi in sg_pairs:
        e1, e2 = lbt_residual_sg(phi, psi, ts, gl)
        bundle.check(f"sg linear transform ({label})",
                     max(np.max(np.abs(e1)), np.max(np.abs(e2))), tol,
                     "kink-side resonance pair")
    y_pair = linear_mode("Y1-sin-pair")
    phi4_pairs = [("Y1,Y0", y_pair[0], y_pair[1]),
                  ("L4,M4", linear_mode("L4"), linear_mode("M4")),
                  ("L4-alt,M4-alt", linear_mode("L4-alt"), linear_mode("M4-alt"))]
    for label, phi, psi in phi4_pairs:
        e1, e2 = lbt_residual_phi4(phi, psi, ts, gl)
        bundle.check(f"phi4 linear transform ({label})",
                     max(np.max(np.abs(e1)), np.max(np.abs(e2))), tol,
                     "phi4 internal-mode/resonance pair")
    m4 = linear_mode("M4-complex")
    for sign, mode in ((1, "N4-plus"), (-1, "N4-minus")):
        (a1, b1), (a2, b2) = lbt_residual_phi4_dual(m4, linear_mode(mode), sign, ts, gl)
        worst = max(np.max(np.abs(v)) for v in (a1, b1, a2, b2))
        bundle.check(f"phi4 dual transform sign={sign:+d}", worst, tol,
                     "dual resonance pair")
    return bundle


def cmd_spectrum(cfg, tol_scale, rng) -> ReportBundle:
    bundle = ReportBundle("spectrum")
    g = cfg.get("grid", {})
    grid = GridSpec(g.get("x_min", -30.0), g.get("x_max", 30.0), g.get("n_points", 4001))
    ev_tol = cfg.get("eigenvalue_tolerance", 2e-3) * tol_scale
    cases = [("sg-kink", kink_sg_operator(), [0.0]),
             ("phi4-kink", kink_phi4_operator(), [0.0, 1.5]),
             ("phi4-kink-dual", kink_phi4_dual_operator(), [1.5])]
    table = []
    for name, op, expected in cases:
        pairs = discrete_spectrum(op, grid)
        values = [v for v, _ in pairs]
        bundle.check(f"{name} eigenvalue count", len(values), 0.5,
                     "discrete spectrum size", expected=len(expected))
        for v_exp, v_num in zip(expected, values):
            bundle.check(f"{name} eigenvalue near {v_exp}", v_num, ev_tol,
                         "operator spectrum", expected=v_exp)
        # convergence order of the topmost eigenvalue against the exact value
        orders = []
        if expected:
            errs = []
            for gg in (GridSpec(grid.x_min, grid.x_max, (grid.n_points - 1) // 2 + 1),
                       grid,
                       grid.refined(2)):
                vals = [v for v, _ in discrete_spectrum(op, gg)]
                errs.append(abs(vals[-1] - expected[-1]) if vals else float("nan"))
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        table.append((name, " ".join(repr(v) for v in values),
                      *(orders if orders else (float("nan"),) * 2)))
    bundle.tables["spectra"] = (["operator", "eigenvalues", "order_coarse", "order_fine"],
                                table)
    return bundle


def _input_pair(cfg, grid, seed):
    if "input_file" in cfg:
        return load_pair(cfg["input_file"])
    return named_pair(cfg.get("input", "even-bump"), grid,
                      amplitude=cfg.get("amplitude", 0.05),
                      beta=cfg.get("beta", 0.5), t=cfg.get("t", 0.0), seed=seed)


def cmd_lift(cfg, tol_scale, rng) -> ReportBundle:
    bundle = ReportBundle("lift")
    grid = _grid_from(cfg)
    pair = _input_pair(cfg, grid, cfg.get("seed", 0))
    if pair.grid != grid:
        grid = pair.grid
    kind = cfg.get("map", "zero-to-kink")
    beta = cfg.get("beta", 0.5)
    t = cfg.get("t", 0.0)
    max_iter = cfg.get("max_iter", 50)
    if kind == "zero-to-kink":
        rep = lift_zero_to_kink(grid, pair.first, pair.second, max_iter=max_iter)
        out_parity = ("odd", "odd")
    elif kind == "breather-to-wobbler":
        rep = lift_breather_to_wobbler(grid, pair.first, pair.second, beta, t,
                                       max_iter=max_iter)
        out_parity = ("odd", "odd")
    elif kind == "manifold":
        rep = construct_manifold_data(grid, pair.first, pair.second, cfg.get("delta", 0.0))
        out_parity = ("odd", "even")
        st = FieldState(0.0, grid,
                        kink_profile(KinkParams(0.0, 0.0)).q(grid.x) + rep.result.first,
                        rep.result.second)
        bundle.check("momentum matches closed form",
                     momentum(st), 1e-6 * tol_scale,
                     "momentum of lifted data",
                     expected=manifold_momentum(cfg.get("delta", 0.0)))
    elif kind == "orthogonal":
        rep = lift_with_orthogonality(grid, pair.first, pair.second,
                                      cfg.get("delta", 0.0), beta,
                                      cfg.get("rho", 0.0), t)
        out_parity = None
        bundle.check("orthogonality residual", abs(rep.ortho_residual),
                     1e-10 * tol_scale, "constrained lift")
    else:
        raise ParameterError(f"unknown lift map {kind!r}")
    bundle.check("final residual", rep.final_residual, cfg.get("residual_tol", 1e-9) * tol_scale,
                 f"{kind} transform residual")
    if out_parity is not None:
        bundle.check("output parity (first)",
                     parity_check(rep.result.first, grid, out_parity[0]),
                     1e-9 * tol_scale, f"{out_parity[0]} component")
        bundle.check("output parity (second)",
                     parity_check(rep.result.second, grid, out_parity[1]),
                     1e-9 * tol_scale, f"{out_parity[1]} component")
    bundle.tables["lift_report"] = (
        ["iterations", "final_residual", "nu0", "ortho_residual"],
        [(rep.iterations, rep.final_residual, rep.nu0,
          rep.ortho_residual if rep.ortho_residual is not None else float("nan"))],
    )
    bundle.tables["lift_result"] = (
        ["x", "first", "second"],
        list(zip(grid.x.tolist(), rep.result.first.tolist(), rep.result.second.tolist())),
    )
    bundle.plots["lift_result"] = svg_line_plot(
        {"first": (grid.x, rep.result.first), "second": (grid.x, rep.result.second)},
        title=f"{kind} output", xlabel="x", ylabel="value")
    return bundle


def cmd_descend(cfg, tol_scale, rng) -> ReportBundle:
    bundle = ReportBundle("descend")
    grid = _grid_from(cfg)
    cfg = dict(cfg)
    cfg.setdefault("input", "odd-bump")
    pair = _input_pair(cfg, grid, cfg.get("seed", 0))
    if pair.grid != grid:
        grid = pair.grid
    kind = cfg.get("map", "kink-to-zero")
    beta = cfg.get("beta", 0.5)
    t = cfg.get("t", 0.0)
    if kind == "kink-to-zero":
        rep = descend_kink_to_zero(grid, pair.first, pair.second)
        back = lift_zero_to_kink(grid, rep.result.first, rep.result.second)
    elif kind == "wobbler-to-breather":
        rep = descend_wobbler_to_breather(grid, pair.first, pair.second, beta, t)
        back = lift_breather_to_wobbler(grid, rep.result.first, rep.result.second, beta, t)
    else:
        raise ParameterError(f"unknown descend map {kind!r}")
    bundle.check("final residual", rep.final_residual,
                 cfg.get("residual_tol", 1e-9) * tol_scale, f"{kind} transform residual")
    bundle.check("output parity (first)", parity_check(rep.result.first, grid, "even"),
                 1e-9 * tol_scale, "even component")
    bundle.check("output parity (second)", parity_check(rep.result.second, grid, "even"),
                 1e-9 * tol_scale, "even component")
    round_trip = max(float(np.max(np.abs(back.result.first - pair.first))),
                     float(np.max(np.abs(back.result.second - pair.second))))
    bundle.check("round trip", round_trip, 1e-7 * tol_scale, "descend then lift")
    bundle.tables["descend_report"] = (
        ["iterations", "final_residual", "nu0"],
        [(rep.iterations, rep.final_residual, rep.nu0)],
    )
    bundle.tables["descend_result"] = (
        ["x", "first", "second"],
        list(zip(grid.x.tolist(), rep.result.first.tolist(), rep.result.second.tolist())),
    )
    return bundle


def _probe_rows(traj, records, interval, weight_rate):
    """Assemble the fixed-header probe table from a trajectory."""
    rec_by_time = {}
    if records:
        rec_by_time = {round(r.t, 9): r for r in records}
    rows = []
    for i in range(len(traj)):
        t = traj.times[i]
        pair = PerturbationPair(traj.grid, traj.u_snaps[i], traj.v_snaps[i])
        rec = rec_by_time.get(round(t, 9))
        rows.append((
            t,
            rec.rho if rec else float("nan"),
            (rec.rho_rate if rec and rec.rho_rate is not None else float("nan")),
            traj.energies[i],
            traj.momenta[i],
            local_energy_norm(pair, interval),
            weighted_norm_sq(pair, WeightSpec(weight_rate)),
        ))
    return rows


def cmd_evolve(cfg, tol_scale, rng) -> ReportBundle:
    bundle = ReportBundle("evolve")
    grid = _grid_from(cfg)
    sampler, model = _sampler_from(cfg)
    if cfg.get("model") == "phi4":
        model = PHI4
    background = None
    bg = cfg.get("background")
    if bg == "static-kink":
        background = KinkFrame()
    elif isinstance(bg, dict):
        background = KinkFrame(bg.get("beta", 0.0), bg.get("x0", 0.0))
    ecfg = EvolveConfig(dt=cfg.get("dt", 0.005), t_end=cfg.get("t_end", 10.0),
                        background=background,
                        snapshot_every=cfg.get("snapshot_every", 0.5))
    state = sampler.sample(grid, cfg.get("t0", 0.0))
    traj = evolve(state, model, ecfg)
    records = []
    if cfg.get("track_modulation", False):
        records = track_modulation(traj, background.beta if background else 0.0)
    interval = tuple(cfg.get("interval", (-5.0, 5.0)))
    rows = _probe_rows(traj, records, interval, cfg.get("weight_rate", 0.5))
    bundle.tables["run"] = (list(PROBE_HEADER), rows)
    energies = np.array(traj.energies)
    drift = float(np.max(np.abs(energies - energies[0])) / max(abs(energies[0]), 1e-300))
    bundle.check("relative energy drift", drift, cfg.get("drift_tol", 1e-5) * tol_scale,
                 "conservation along the run")
    bundle.plots["energy"] = svg_line_plot(
        {"energy": (traj.times, traj.energies)}, title="energy", xlabel="t", ylabel="E")
    return bundle


def _stability_manifold(cfg, tol_scale, rng, bundle):
    grid = _grid_from(cfg)
    x = grid.x
    etas = cfg.get("etas", [0.02, 0.04, 0.08])
    n_seeds = cfg.get("seeds", 2)
    t_end = cfg.get("t_end", 60.0)
    dt = cfg.get("dt", 0.015)
    interval = tuple(cfg.get("interval", (-5.0, 5.0)))
    eps = cfg.get("eps", 0.1)
    prof = kink_profile(KinkParams(0.0, 0.0))
    rate_peaks = {}
    rate_rows = []
    for seed in range(n_seeds):
        seed_rng = np.random.default_rng((cfg.get("seed", 0), seed))
        shape = smooth_random(grid, "odd", 1.0, seed_rng)
        for eta in etas:
            y0 = eta * shape
            rep, _delta = zero_momentum_manifold_data(grid, y0)
            st = FieldState(0.0, grid, prof.q(x) + rep.result.first, rep.result.second)
            traj = evolve(st, SINE_GORDON, EvolveConfig(
                dt=dt, t_end=t_end, background=KinkFrame(),
                snapshot_every=cfg.get("snapshot_every", 0.5)))
            records = track_modulation(traj, 0.0, intervals=(interval,))
            bundle.check(f"untracked snapshots (seed {seed}, eta {eta})",
                         len(traj) - len(records), 0, "tracker stays in the tube")
            momenta = np.array(traj.momenta)
            bundle.check(f"momentum stays zero (seed {seed}, eta {eta})",
                         float(np.max(np.abs(momenta))), 1e-5 * tol_scale,
                         "zero-momentum manifold data")
            zero_traj = evolve(FieldState(0.0, grid, y0, np.zeros_like(x)),
                               SINE_GORDON, EvolveConfig(
                                   dt=dt, t_end=t_end,
                                   snapshot_every=cfg.get("snapshot_every", 0.5)))
            zero_pairs = [PerturbationPair(grid, zero_traj.u_snaps[i], zero_traj.v_snaps[i])
                          for i in range(len(records))]
            check = rho_rate_check(records, zero_pairs, eps)
            peak = max((abs(r.rho_rate) for r in records if r.rho_rate is not None),
                       default=0.0)
            rate_peaks.setdefault(eta, []).append(peak)
            cls = convergence_classifier(records)
            series = cls["local_norms"][interval]
            rate_rows.append((seed, eta, peak, check["max_rate_ratio"], cls["kind"],
                              series[0], series[-1]))
            if seed == 0:
                bundle.plots[f"rho_eta{eta:g}"] = svg_line_plot(
                    {"rho": ([r.t for r in records], [r.rho for r in records])},
                    title=f"shift, eta={eta:g}", xlabel="t", ylabel="rho")
                bundle.plots[f"local_norm_eta{eta:g}"] = svg_line_plot(
                    {"local": (cls["times"], series)},
                    title=f"local remainder norm, eta={eta:g}", xlabel="t", ylabel="norm")
    bundle.tables["manifold_runs"] = (
        ["seed", "eta", "max_rho_rate", "max_rate_ratio", "classification",
         "local_norm_initial", "local_norm_final"], rate_rows)
    if len(etas) >= 2:
        log_eta = np.log([float(e) for e in etas])
        log_peak = np.log([float(np.mean(rate_peaks[e])) for e in etas])
        slope = float(np.polyfit(log_eta, log_peak, 1)[0])
        # the quadratic bound is an upper bound; manifold data saturates it only
        # from below (the measured exponent is >= 2), so the recipe checks
        # super-linear smallness
        bundle.check("rho-rate scaling slope", slope, cfg.get("slope_min", 1.7),
                     "shift rate scales at least quadratically", larger_ok=True)
    # control: a moving kink has nonzero momentum and sits outside the manifold
    beta_c = cfg.get("control_beta", 0.2)
    stc = kink(KinkParams(beta_c, 0.0)).sample(grid, 0.0)
    bundle.check("moving-kink control momentum", momentum(stc), 1e-3,
                 "excluded from the zero-momentum manifold",
                 expected=-4 * beta_c / math.sqrt(1 - beta_c ** 2))


def _stability_wobbler(cfg, tol_scale, rng, bundle):
    grid = _grid_from(cfg)
    x = grid.x
    beta = cfg.get("beta", 0.3)
    eta = cfg.get("eta", 1e-3)
    t_end = cfg.get("t_end", 40.0)
    w = wobbler(WobblerParams(beta))
    noise = smooth_random(grid, "odd", eta, rng)
    st = FieldState(0.0, grid,
                    np.asarray(w.value(0.0, x)) + noise,
                    np.asarray(w.dvalue_dt(0.0, x)))
    traj = evolve(st, SINE_GORDON, EvolveConfig(
        dt=cfg.get("dt", 0.01), t_end=t_end, background=KinkFrame(),
        snapshot_every=cfg.get("snapshot_every", 1.0)))
    period = 2.0 * math.pi / math.sqrt(1.0 - beta ** 2)

    def dist_to_family(i):
        t = traj.times[i]
        full_u = traj.u_snaps[i] + traj.background_field(t)
        full_v = traj.v_snaps[i] + traj.background_field_t(t)

        def dist(tau):
            du = full_u - np.asarray(w.value(t + tau, x))
            dv = full_v - np.asarray(w.dvalue_dt(t + tau, x))
            return local_energy_norm(PerturbationPair(grid, du, dv))

        taus = np.linspace(-0.5 * period, 0.5 * period, 41)
        vals = [dist(tau) for tau in taus]
        k = int(np.argmin(vals))
        lo, hi = taus[max(0, k - 1)], taus[min(len(taus) - 1, k + 1)]
        for _ in range(40):
            mid1 = lo + (hi - lo) / 3
            mid2 = hi - (hi - lo) / 3
            if dist(mid1) < dist(mid2):
                hi = mid2
            else:
                lo = mid1
        return dist(0.5 * (lo + hi))

    distances = [dist_to_family(i) for i in range(len(traj))]
    measured_c = max(distances) / eta
    bundle.tables["wobbler_distance"] = (["t", "distance"],
                                         list(zip(traj.times, distances)))
    bundle.plots["wobbler_distance"] = svg_line_plot(
        {"distance": (traj.times, distances)},
        title=f"distance to time-shifted wobbler family, beta={beta}",
        xlabel="t", ylabel="distance")
    bundle.check("orbital-stability constant", measured_c,
                 cfg.get("constant_bound", 20.0), "sup distance / noise size")


def cmd_stability(cfg, tol_scale, rng) -> ReportBundle:
    bundle = ReportBundle("stability")
    experiment = cfg.get("experiment", "kink-manifold")
    if experiment == "kink-manifold":
        _stability_manifold(cfg, tol_scale, rng, bundle)
    elif experiment == "wobbler":
        _stability_wobbler(cfg, tol_scale, rng, bundle)
    else:
        raise ParameterError(f"unknown stability experiment {experiment!r}")
    return bundle


# --- sweep ----------------------------------------------------------------------

def _sweep_cell(payload):
    kind = payload["kind"]
    try:
        if kind == "final-speed":
            delta = payload["delta"]
            b2 = final_speed_from_delta(delta)
            b1 = final_speed_from_momentum(manifold_momentum(delta))
            return {"delta": delta, "beta_momentum": b1, "beta_transform": b2,
                    "gap": abs(b1 - b2)}
        if kind == "energy-drift":
            n = payload["n_points"]
            grid = GridSpec(-40.0, 40.0, n)
            st = breather(0.5).sample(grid, 0.0)
            traj = evolve(st, SINE_GORDON,
                          EvolveConfig(dt=payload["dt"], t_end=payload["t_end"]))
            e = np.array(traj.energies)
            return {"n_points": n, "dt": payload["dt"],
                    "drift": float(np.max(np.abs(e - e[0])) / e[0])}
        if kind == "three-soliton-limit":
            v = payload["v"]
            grid = GridSpec(-40.0, 40.0, payload.get("n_points", 4001))
            w = wobbler(WobblerParams(payload["beta"]))
            s = three_soliton(ThreeSolitonParams(payload["beta"], v))
            gap = float(np.max(np.abs(np.asarray(s.value(payload["t"], grid.x))
                                      - np.asarray(w.value(payload["t"], grid.x)))))
            return {"v": v, "sup_gap": gap}
        raise ParameterError(f"unknown sweep kind {kind!r}")
    except Exception as exc:  # isolate per-cell failures
        return {"error": f"{type(exc).__name__}: {exc}", **{k: v for k, v in payload.items()
                                                            if k != "kind"}}


def cmd_sweep(cfg, tol_scale, rng, workers=1) -> ReportBundle:
    bundle = ReportBundle("sweep")
    kind = cfg.get("kind", "final-speed")
    if kind == "final-speed":
        payloads = [{"kind": kind, "delta": d}
                    for d in cfg.get("deltas", [-0.5, -0.2, 0.0, 0.1, 0.5, 1.0, 3.0])]
    elif kind == "energy-drift":
        payloads = [{"kind": kind, "n_points": n, "dt": dt,
                     "t_end": cfg.get("t_end", 10.0)}
                    for n, dt in cfg.get("resolutions",
                                         [(2001, 0.02), (4001, 0.01), (8001, 0.005)])]
    elif kind == "three-soliton-limit":
        payloads = [{"kind": kind, "v": v, "beta": cfg.get("beta", 0.5),
                     "t": cfg.get("t", 0.7), "n_points": cfg.get("n_points", 4001)}
                    for v in cfg.get("speeds", [0.1, 0.01, 0.001])]
    else:
        raise ParameterError(f"unknown sweep kind {kind!r}")
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, payloads))
    else:
        results = [_sweep_cell(p) for p in payloads]
    failures = [r for r in results if "error" in r]
    ok_results = [r for r in results if "error" not in r]
    if ok_results:
        header = list(ok_results[0].keys())
        bundle.tables["sweep"] = (header, [tuple(r[k] for k in header) for r in ok_results])
    if failures:
        bundle.tables["failures"] = (["detail"], [(json.dumps(f),) for f in failures])
    bundle.check("cells completed", len(ok_results), 0.5,
                 "sweep execution", expected=len(payloads))
    if kind == "final-speed" and ok_results:
        worst = max(r["gap"] for r in ok_results)
        bundle.check("final-speed identity", worst, 1e-12 * tol_scale,
                     "momentum- and transform-defined speeds agree")
    if kind == "three-soliton-limit" and len(ok_results) >= 2:
        gaps = [r["sup_gap"] for r in ok_results]
        bundle.check("limit is monotone", float(all(gaps[i] > gaps[i + 1]
                                                    for i in range(len(gaps) - 1))),
                     0.5, "three-soliton approaches the wobbler", expected=1.0)
    return bundle


# --- entry point ------------------------------------------------------------------

_COMMANDS = {
    "verify-exact": cmd_verify_exact,
    "verify-bt": cmd_verify_bt,
    "spectrum": cmd_spectrum,
    "lift": cmd_lift,
    "descend": cmd_descend,
    "evolve": cmd_evolve,
    "stability": cmd_stability,
    "sweep": cmd_sweep,
}

CONFIG_VERSION = 1


def _load_config(path):
    if path is None:
        return {}
    cfg = json.loads(Path(path).read_text())
    version = cfg.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ParameterError(f"unsupported config version {version}")
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sglab",
        description="Numerical experiments around kinks, breathers and their transforms.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="JSON experiment configuration")
        p.add_argument("--out", type=str, default="out",
                       help="output directory for reports")
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--workers", type=int, default=1,
                       help="concurrent sweep cells")
        p.add_argument("--strict", action="store_true",
                       help="tighten all tolerances tenfold")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
    except (OSError, json.JSONDecodeError, ParameterError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    tol_scale = 0.1 if args.strict else 1.0
    rng = np.random.default_rng(args.seed)
    cfg.setdefault("seed", args.seed)
    try:
        if args.command == "sweep":
            bundle = cmd_sweep(cfg, tol_scale, rng, workers=args.workers)
        else:
            bundle = _COMMANDS[args.command](cfg, tol_scale, rng)
    except (ParameterError, ContractError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        if exc.residual_history:
            print(f"residual history: {exc.residual_history}", file=sys.stderr)
        return 3
    bundle.write(args.out)
    bundle.print_rows()
    if not bundle.passed:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
