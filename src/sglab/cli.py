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
import numbers
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .backlund import (
    construct_manifold_data,
    descend_kink_to_zero,
    descend_wobbler_to_breather,
    lift_breather_to_wobbler,
    lift_with_orthogonality,
    lift_zero_to_kink,
)
from .evolution import EvolveConfig, evolve
from .experiments import (
    EXACT_FAMILIES,
    SPECTRA,
    linear_transform_cases,
    manifold_run,
    relative_drift,
    residual_study,
    spectrum_ladder,
    transform_identity_cases,
    vacuum_rate_check,
    wobbler_orbit,
)
from .grids import (
    ContractError,
    FieldState,
    GridSpec,
    ParameterError,
    SINE_GORDON,
    PHI4,
    SolverError,
    WeightSpec,
    local_energy_norm,
    momentum,
    parity_check,
    pde_residual,
    weighted_norm_sq,
)
from .inputs import load_pair, named_pair, smooth_random
from .modulation import convergence_classifier, track_modulation
from .reports import ReportBundle, svg_line_plot
from .solutions import (
    KinkParams,
    ThreeSolitonParams,
    WobblerParams,
    breather,
    final_speed_from_delta,
    final_speed_from_momentum,
    kink,
    kink_profile_momentum,
    manifold_momentum,
    phi4_kink,
    three_soliton,
    two_kink,
    wobbler,
)

PROBE_HEADER = ("t", "rho", "rho_rate", "energy", "momentum",
                "local_norm_I", "weighted_norm")

# verify-bt case label (its first two words) -> provenance of the identity
_PROVENANCE = {"kink-from-vacuum identity": "kink as transform of the vacuum",
               "wobbler-breather identity": "wobbler and breather linked at parameter 1",
               "sg linear": "kink-side resonance pair",
               "zero-mode transform": "kink slope (zero mode) over the zero mode",
               "phi4 linear": "phi4 internal-mode/resonance pair",
               "phi4 dual": "dual resonance pair"}


_KINDS = {bool: "a boolean", numbers.Integral: "an integer",
          numbers.Real: "a finite real number", str: "a string", dict: "a JSON object"}


def _like(value, template) -> bool:
    """Whether `value` has the kind of `template`: a list of items like its first
    item, a sequence like a tuple position by position, or a scalar of its kind
    (never a bool in place of a number, and never an infinite or nan real)."""
    if isinstance(template, tuple):
        return (isinstance(value, (list, tuple)) and len(value) == len(template)
                and all(map(_like, value, template)))
    if isinstance(template, list):
        return isinstance(value, list) and all(_like(v, template[0]) for v in value)
    kind = next(k for k in _KINDS if isinstance(template, k))
    return (isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
            and (kind is not numbers.Real or math.isfinite(value)))


def _describe(template) -> str:
    if isinstance(template, tuple):
        return "[" + ", ".join(map(_describe, template)) + "]"
    if isinstance(template, list):
        return f"a list, each item {_describe(template[0])}"
    return next(name for k, name in _KINDS.items() if isinstance(template, k))


def _get(cfg, key, default, low=None):
    """The config value at `key` (``grid.x_min`` names a key of the ``grid``
    object), or `default` when it is absent. The value must have the kind of
    `default`, and be at least `low` when given."""
    parent, _, name = key.rpartition(".")
    value = (_get(cfg, parent, {}) if parent else cfg).get(name, default)
    if not _like(value, default) or (low is not None and value < low):
        raise ParameterError(f"{key} must be {_describe(default)}"
                             f"{'' if low is None else f' >= {low}'}, got {value!r}")
    return value


def _run_length(cfg, default, run):
    """The config's t_end for a `run`, which must be > 0: a run that takes no
    step leaves its checks nothing to judge."""
    t_end = _get(cfg, "t_end", default)
    if not t_end > 0:
        raise ParameterError(f"t_end must be > 0 for {run}, got {t_end!r}")
    return t_end


def _grid_from(cfg, n_points=4001, half_width=40.0) -> GridSpec:
    return GridSpec(_get(cfg, "grid.x_min", -half_width), _get(cfg, "grid.x_max", half_width),
                    _get(cfg, "grid.n_points", n_points))


def _sampler_from(cfg):
    name = _get(cfg, "solution", "kink")
    beta = _get(cfg, "params.beta", 0.0 if name == "kink" else 0.5)
    if name == "kink":
        return kink(KinkParams(beta, _get(cfg, "params.x0", 0.0))), SINE_GORDON
    if name == "breather":
        return breather(beta), SINE_GORDON
    if name == "wobbler":
        return wobbler(WobblerParams(beta)), SINE_GORDON
    if name == "two-kink":
        return two_kink(beta), SINE_GORDON
    if name == "three-soliton":
        return three_soliton(ThreeSolitonParams(beta, _get(cfg, "params.v", 0.4))), SINE_GORDON
    if name == "phi4-kink":
        return phi4_kink(), PHI4
    raise ParameterError(f"unknown solution {name!r}")


# --- subcommands ---------------------------------------------------------------

def cmd_verify_exact(cfg, tol_scale) -> ReportBundle:
    bundle = ReportBundle("verify-exact")
    grid = _grid_from(cfg, n_points=8001)
    t = _get(cfg, "t", 0.7)
    dt = _get(cfg, "dt", grid.h)
    levels = _get(cfg, "levels", 3, 2)
    betas = _get(cfg, "wobbler_betas", [0.1, 0.3, 0.5, 0.7, 0.9])
    table = []
    unmeasured = []
    for name, sampler, model in EXACT_FAMILIES:
        try:
            residuals, orders = residual_study(sampler, model, grid, t, dt, levels)
        except ParameterError as exc:
            raise ParameterError(f"{name}: {exc}") from exc
        if not orders:
            unmeasured.append((name, f"the residual is exactly 0 at level {len(residuals) - 1}"))
            continue
        bundle.check(f"{name} refinement order", min(orders), 1.9,
                     "closed-form solution under (h, dt) halving", larger_ok=True)
        bundle.check(f"{name} finest residual", residuals[-1], 1e-5 * tol_scale,
                     "closed-form solution residual")
        table.append((name, *[r for r in residuals], *[o for o in orders]))
    header = ["family"] + [f"residual_level{i}" for i in range(levels)] \
        + [f"order{i}" for i in range(levels - 1)]
    bundle.tables["residual_refinement"] = (header, table)
    if unmeasured:
        bundle.tables["not_measurable"] = (["family", "reason"], unmeasured)

    beta_rows = []
    for beta in betas:
        r = float(np.max(np.abs(pde_residual(wobbler(WobblerParams(beta)),
                                             SINE_GORDON, t, grid, dt))))
        beta_rows.append((beta, r))
    bundle.tables["wobbler_beta_residuals"] = (["beta", "max_residual"], beta_rows)

    # profile snapshots of each family at a few times
    window = np.linspace(-20.0, 20.0, 801)
    for name, sampler, _ in EXACT_FAMILIES:
        series = {f"t={ts:g}": (window, np.asarray(sampler.value(ts, window)))
                  for ts in (0.0, 2.0, 6.0)}
        bundle.plots[f"{name}_snapshots"] = svg_line_plot(
            series, title=name, xlabel="x", ylabel="value")
    return bundle


def cmd_verify_bt(cfg, tol_scale) -> ReportBundle:
    bundle = ReportBundle("verify-bt")
    grid = _grid_from(cfg)
    tol = 5e-6 * tol_scale
    betas = _get(cfg, "betas", [0.1, 0.3, 0.5, 0.7])
    times = _get(cfg, "times", [0.0, 1.3, 5.0])

    cases = (transform_identity_cases(grid, betas, times)
             + linear_transform_cases(GridSpec(-30.0, 30.0, grid.n_points), 0.9))
    for label, worst in cases:
        bundle.check(label, worst, tol, _PROVENANCE[" ".join(label.split()[:2])])
    return bundle


def cmd_spectrum(cfg, tol_scale) -> ReportBundle:
    bundle = ReportBundle("spectrum")
    # spectrum_ladder also solves on the grid halved, which needs 2001 points
    grid = _grid_from(cfg, n_points=_get(cfg, "grid.n_points", 4001, 4001), half_width=30.0)
    table = []
    for name, op, expected in SPECTRA:
        values, orders = spectrum_ladder(op, grid, expected)
        bundle.check(f"{name} eigenvalue count", len(values), 0.5,
                     "discrete spectrum size", expected=len(expected))
        for v_exp, v_num in zip(expected, values):
            bundle.check(f"{name} eigenvalue near {v_exp}", v_num, 2e-3 * tol_scale,
                         "operator spectrum", expected=v_exp)
        table.append((name, " ".join(repr(v) for v in values), *orders))
    bundle.tables["spectra"] = (["operator", "eigenvalues", "order_coarse", "order_fine"],
                                table)
    return bundle


def _input_pair(cfg, grid, default_input):
    if "input_file" in cfg:
        path = _get(cfg, "input_file", "")
        try:
            return load_pair(path)
        except (OSError, ValueError, KeyError) as exc:
            raise ParameterError(f"input_file {path!r} holds no saved pair "
                                 f"({type(exc).__name__}: {exc})") from exc
    return named_pair(_get(cfg, "input", default_input), grid,
                      amplitude=_get(cfg, "amplitude", 0.05), beta=_get(cfg, "beta", 0.5),
                      t=_get(cfg, "t", 0.0), seed=_get(cfg, "seed", 0, 0))


def _transform_rows(bundle, name, kind, rep, tol_scale):
    """The final-residual row, one row per component whose parity the map
    guarantees, and the `<name>_result` table."""
    out = rep.result
    bundle.check("final residual", rep.final_residual, 1e-9 * tol_scale,
                 f"{kind} transform residual")
    if rep.parity is not None:
        for which, parity, values in zip(("first", "second"), rep.parity.split("-"),
                                         (out.first, out.second)):
            bundle.check(f"output parity ({which})", parity_check(values, out.grid, parity),
                         1e-9 * tol_scale, f"{parity} component")
    bundle.tables[f"{name}_result"] = (
        ["x", "first", "second"],
        list(zip(out.grid.x.tolist(), out.first.tolist(), out.second.tolist())),
    )


def cmd_lift(cfg, tol_scale) -> ReportBundle:
    bundle = ReportBundle("lift")
    kind = _get(cfg, "map", "zero-to-kink")
    if kind == "manifold":
        # the map takes odd data, and its momentum row holds on criterion 5's grid
        pair = _input_pair(cfg, _grid_from(cfg, n_points=48001), "odd-bump")
    else:
        pair = _input_pair(cfg, _grid_from(cfg), "even-bump")
    grid = pair.grid
    beta = _get(cfg, "beta", 0.5)
    t = _get(cfg, "t", 0.0)
    if kind == "zero-to-kink":
        rep = lift_zero_to_kink(grid, pair.first, pair.second)
    elif kind == "breather-to-wobbler":
        rep = lift_breather_to_wobbler(grid, pair.first, pair.second, beta, t)
    elif kind == "manifold":
        delta = _get(cfg, "delta", 0.0)
        rep = construct_manifold_data(grid, pair.first, pair.second, delta)
        st = FieldState(0.0, grid, KinkParams().q(grid.x) + rep.result.first,
                        rep.result.second)
        bundle.check("momentum matches closed form",
                     momentum(st), 1e-6 * tol_scale,
                     "momentum of lifted data",
                     expected=manifold_momentum(delta))
    elif kind == "orthogonal":
        rep = lift_with_orthogonality(grid, pair.first, pair.second, _get(cfg, "delta", 0.0),
                                      beta, _get(cfg, "rho", 0.0), t)
        bundle.check("orthogonality residual", abs(rep.ortho_residual),
                     1e-10 * tol_scale, "constrained lift")
    else:
        raise ParameterError(f"unknown lift map {kind!r}")
    _transform_rows(bundle, "lift", kind, rep, tol_scale)
    bundle.tables["lift_report"] = (
        ["iterations", "final_residual", "ortho_residual"],
        [(rep.iterations, rep.final_residual,
          rep.ortho_residual if rep.ortho_residual is not None else float("nan"))],
    )
    bundle.plots["lift_result"] = svg_line_plot(
        {"first": (grid.x, rep.result.first), "second": (grid.x, rep.result.second)},
        title=f"{kind} output", xlabel="x", ylabel="value")
    return bundle


def cmd_descend(cfg, tol_scale) -> ReportBundle:
    bundle = ReportBundle("descend")
    pair = _input_pair(cfg, _grid_from(cfg), "random-odd")
    grid = pair.grid
    kind = _get(cfg, "map", "kink-to-zero")
    beta = _get(cfg, "beta", 0.5)
    t = _get(cfg, "t", 0.0)
    if kind == "kink-to-zero":
        rep = descend_kink_to_zero(grid, pair.first, pair.second)
        back = lift_zero_to_kink(grid, rep.result.first, rep.result.second)
    elif kind == "wobbler-to-breather":
        rep = descend_wobbler_to_breather(grid, pair.first, pair.second, beta, t)
        back = lift_breather_to_wobbler(grid, rep.result.first, rep.result.second, beta, t)
    else:
        raise ParameterError(f"unknown descend map {kind!r}")
    _transform_rows(bundle, "descend", kind, rep, tol_scale)
    round_trip = max(float(np.max(np.abs(back.result.first - pair.first))),
                     float(np.max(np.abs(back.result.second - pair.second))))
    bundle.check("round trip", round_trip, 1e-7 * tol_scale, "descend then lift")
    bundle.tables["descend_report"] = (
        ["iterations", "final_residual"],
        [(rep.iterations, rep.final_residual)],
    )
    return bundle


def cmd_evolve(cfg, tol_scale) -> ReportBundle:
    bundle = ReportBundle("evolve")
    grid = _grid_from(cfg)
    sampler, model = _sampler_from(cfg)
    # an absent background evolves the plain field; {} is the static kink
    background = (KinkParams(_get(cfg, "background.beta", 0.0), _get(cfg, "background.x0", 0.0))
                  if "background" in cfg else None)
    ecfg = EvolveConfig(dt=_get(cfg, "dt", 0.005),
                        t_end=_run_length(cfg, 10.0, "an evolve run"),
                        background=background,
                        snapshot_every=_get(cfg, "snapshot_every", 0.5))
    interval = _get(cfg, "interval", (-5.0, 5.0))
    weight = WeightSpec(_get(cfg, "weight_rate", 0.5))
    track = _get(cfg, "track_modulation", False)
    traj = evolve(sampler.sample(grid, 0.0), model, ecfg)
    pairs = [traj.perturbation(i) for i in range(len(traj))]
    local_norms = [local_energy_norm(pair, interval) for pair in pairs]
    weighted_norms = [weighted_norm_sq(pair, weight) for pair in pairs]
    # rho and rho_rate read nan without tracking and after a tube exit
    rho = rho_rate = [math.nan] * len(traj)
    if track:
        # the tracked kink moves with its frame, or without one at its own speed
        beta = 0.0
        if background:
            beta = background.beta
        elif _get(cfg, "solution", "kink") == "kink":
            beta = _get(cfg, "params.beta", 0.0)
        records = track_modulation(traj, beta)
        untracked = [math.nan] * (len(traj) - len(records))
        rho = [r.rho for r in records] + untracked
        rho_rate = [r.rho_rate for r in records] + untracked
        bundle.check("untracked snapshots", len(untracked), 0, "tracker stays in the tube")
    columns = (traj.times, rho, rho_rate, traj.energies, traj.momenta,
               local_norms, weighted_norms)
    bundle.tables["run"] = (list(PROBE_HEADER), list(zip(*columns)))
    bundle.check("relative energy drift", relative_drift(traj.energies), 1e-5 * tol_scale,
                 "conservation along the run")
    bundle.plots["energy"] = svg_line_plot(
        {"energy": (traj.times, traj.energies)}, title="energy", xlabel="t", ylabel="E")
    return bundle


def _stability_manifold(cfg, tol_scale, bundle):
    grid = _grid_from(cfg, n_points=8001)
    etas = _get(cfg, "etas", [0.02, 0.04, 0.08])
    if not etas or min(etas) <= 0 or len(set(etas)) < len(etas):
        raise ParameterError(f"etas must list at least one noise size, each > 0 and "
                             f"none repeated, got {etas!r}")
    n_seeds = _get(cfg, "seeds", 2, 1)
    t_end = _run_length(cfg, 60.0, "a kink-manifold run")
    dt = _get(cfg, "dt", 0.009)
    snapshot_every = _get(cfg, "snapshot_every", 0.5)
    interval = _get(cfg, "interval", (-5.0, 5.0))
    base_seed = _get(cfg, "seed", 0, 0)
    rate_peaks = {}
    rate_rows = []
    for seed in range(n_seeds):
        seed_rng = np.random.default_rng((base_seed, seed))
        shape = smooth_random(grid, "odd", 1.0, seed_rng)
        for eta in etas:
            y0 = eta * shape
            traj, records = manifold_run(grid, y0, dt, t_end, snapshot_every, interval)
            bundle.check(f"untracked snapshots (seed {seed}, eta {eta})",
                         len(traj) - len(records), 0, "tracker stays in the tube")
            bundle.check(f"momentum stays zero (seed {seed}, eta {eta})",
                         float(np.max(np.abs(traj.momenta))), 1e-5 * tol_scale,
                         "zero-momentum manifold data")
            if len(records) < 2:  # too few tracked snapshots to tabulate or classify
                continue
            check = vacuum_rate_check(grid, y0, records, dt, t_end, snapshot_every)
            peak = max(abs(r.rho_rate) for r in records)
            rate_peaks.setdefault(eta, []).append(peak)
            kind = convergence_classifier(records)["kind"]
            times = [r.t for r in records]
            series = [r.local_norm for r in records]
            rate_rows.append((seed, eta, peak, check["max_rate_ratio"], kind,
                              series[0], series[-1]))
            if seed == 0:
                bundle.plots[f"rho_eta{eta:g}"] = svg_line_plot(
                    {"rho": (times, [r.rho for r in records])},
                    title=f"shift, eta={eta:g}", xlabel="t", ylabel="rho")
                bundle.plots[f"local_norm_eta{eta:g}"] = svg_line_plot(
                    {"local": (times, series)},
                    title=f"local remainder norm, eta={eta:g}", xlabel="t", ylabel="norm")
    bundle.tables["manifold_runs"] = (
        ["seed", "eta", "max_rho_rate", "max_rate_ratio", "classification",
         "local_norm_initial", "local_norm_final"], rate_rows)
    fitted = [e for e in etas if e in rate_peaks]
    if len(fitted) >= 2:
        log_eta = np.log([float(e) for e in fitted])
        log_peak = np.log([float(np.mean(rate_peaks[e])) for e in fitted])
        slope = float(np.polyfit(log_eta, log_peak, 1)[0])
        # the quadratic bound is an upper bound; manifold data saturates it only
        # from below (the measured exponent is >= 2), so the recipe checks
        # super-linear smallness
        bundle.check("rho-rate scaling slope", slope, 1.7,
                     "shift rate scales at least quadratically", larger_ok=True)
    # control: a moving kink has nonzero momentum and sits outside the manifold
    stc = kink(KinkParams(0.2, 0.0)).sample(grid, 0.0)
    bundle.check("moving-kink control momentum", momentum(stc), 1e-3,
                 "excluded from the zero-momentum manifold",
                 expected=kink_profile_momentum(0.2))


def _stability_wobbler(cfg, tol_scale, bundle):
    grid = _grid_from(cfg)
    beta = _get(cfg, "beta", 0.3)
    eta = _get(cfg, "eta", 1e-3)
    if not eta > 0:
        raise ParameterError(f"eta must be > 0, got {eta!r}")
    traj, distances = wobbler_orbit(grid, beta, eta,
                                    np.random.default_rng(_get(cfg, "seed", 0, 0)),
                                    _get(cfg, "dt", 0.01),
                                    _run_length(cfg, 40.0, "a wobbler run"),
                                    _get(cfg, "snapshot_every", 1.0))
    measured_c = max(distances) / eta
    bundle.tables["wobbler_distance"] = (["t", "distance"], list(zip(traj.times, distances)))
    bundle.plots["wobbler_distance"] = svg_line_plot(
        {"distance": (traj.times, distances)},
        title=f"distance to time-shifted wobbler family, beta={beta}",
        xlabel="t", ylabel="distance")
    bundle.check("orbital-stability constant", measured_c, 20.0,
                 "sup distance / noise size")


def cmd_stability(cfg, tol_scale) -> ReportBundle:
    bundle = ReportBundle("stability")
    experiment = _get(cfg, "experiment", "kink-manifold")
    if experiment == "kink-manifold":
        _stability_manifold(cfg, tol_scale, bundle)
    elif experiment == "wobbler":
        _stability_wobbler(cfg, tol_scale, bundle)
    else:
        raise ParameterError(f"unknown stability experiment {experiment!r}")
    return bundle


# --- sweep ----------------------------------------------------------------------

def _enough(items, key, least, kind):
    """`items`, the `key` list of a `kind` sweep, when it has the `least`
    items the sweep needs to judge anything."""
    if len(items) < least:
        raise ParameterError(f"{key} must have at least {least} item{'s' * (least > 1)} "
                             f"for a {kind} sweep, got {len(items)}")
    return items


def cmd_sweep(cfg, tol_scale) -> ReportBundle:
    bundle = ReportBundle("sweep")
    kind = _get(cfg, "kind", "final-speed")
    rows = []
    if kind == "final-speed":
        header = ["delta", "beta_momentum", "beta_transform", "gap"]
        for delta in _enough(_get(cfg, "deltas", [-0.5, -0.2, 0.0, 0.1, 0.5, 1.0, 3.0]),
                             "deltas", 1, kind):
            b2 = final_speed_from_delta(delta)
            b1 = final_speed_from_momentum(manifold_momentum(delta))
            rows.append((delta, b1, b2, abs(b1 - b2)))
        bundle.check("final-speed identity", np.max([r[3] for r in rows]), 1e-12 * tol_scale,
                     "momentum- and transform-defined speeds agree")
    elif kind == "energy-drift":
        t_end = _run_length(cfg, 10.0, "an energy-drift sweep")
        resolutions = _enough(_get(cfg, "resolutions",
                                   [(2001, 0.02), (4001, 0.01), (8001, 0.005)]),
                              "resolutions", 2, kind)
        if any(a[1] == b[1] for a, b in zip(resolutions, resolutions[1:])):
            raise ParameterError("consecutive resolutions need distinct dt")
        header = ["n_points", "dt", "drift"]
        for n, dt in resolutions:
            st = breather(0.5).sample(GridSpec(-40.0, 40.0, n), 0.0)
            traj = evolve(st, SINE_GORDON, EvolveConfig(dt=dt, t_end=t_end))
            rows.append((n, dt, relative_drift(traj.energies)))
        dt, drift = np.array([r[1:] for r in rows]).T
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero drift has no order
            orders = np.log(drift[:-1] / drift[1:]) / np.log(dt[:-1] / dt[1:])
        bundle.check("energy-drift order in dt", float(np.min(orders)), 1.9,
                     "leapfrog energy error is second order in dt", larger_ok=True)
    elif kind == "three-soliton-limit":
        grid, beta, t = _grid_from(cfg), _get(cfg, "beta", 0.5), _get(cfg, "t", 0.7)
        speeds = _enough(_get(cfg, "speeds", [0.1, 0.01, 0.001]), "speeds", 2, kind)
        header = ["v", "sup_gap"]
        w = wobbler(WobblerParams(beta)).sample(grid, t)
        for v in speeds:
            s = three_soliton(ThreeSolitonParams(beta, v)).sample(grid, t)
            rows.append((v, float(np.max(np.abs(s.u - w.u)))))
        gaps = [r[1] for r in rows]
        bundle.check("limit is monotone", float(all(gaps[i] > gaps[i + 1]
                                                    for i in range(len(gaps) - 1))),
                     0.5, "three-soliton approaches the wobbler", expected=1.0)
    else:
        raise ParameterError(f"unknown sweep kind {kind!r}")
    bundle.tables["sweep"] = (header, rows)
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
    if not isinstance(cfg, dict):
        raise ParameterError(f"a config must be a JSON object, got {type(cfg).__name__}")
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
        p.add_argument("--strict", action="store_true",
                       help="tighten most tolerance bars tenfold; the floors, "
                            "ceilings and counts keep theirs")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
    except (OSError, json.JSONDecodeError, ParameterError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    tol_scale = 0.1 if args.strict else 1.0
    # every random draw seeds from cfg["seed"]: a config's "seed" key wins over --seed
    cfg.setdefault("seed", args.seed)
    try:
        bundle = _COMMANDS[args.command](cfg, tol_scale)
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
