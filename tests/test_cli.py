import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sglab
from sglab import backlund, cli, modulation
from sglab.cli import _COMMANDS, PROBE_HEADER, main
from sglab.evolution import EvolveConfig, KinkFrame, evolve
from sglab.experiments import SPECTRA, linear_transform_cases, spectrum_ladder, wobbler_orbit
from sglab.grids import SINE_GORDON, GridSpec, WeightSpec, local_energy_norm, weighted_norm_sq
from sglab.reports import ReportBundle, svg_line_plot, write_csv
from sglab.solutions import WobblerParams, wobbler


def write_config(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


class TestReportBundle:
    def test_check_semantics(self):
        b = ReportBundle("t")
        assert b.check("close", 1.0005, 1e-3, "", expected=1.0)
        assert not b.check("far", 2.0, 1e-3, "", expected=1.0)
        assert b.check("small", 1e-9, 1e-6, "")
        assert b.check("order", 2.0, 1.9, "", larger_ok=True)
        assert not b.passed

    def test_write_outputs(self, tmp_path):
        b = ReportBundle("demo")
        b.check("a", 0.5, 1.0, "")
        b.tables["numbers"] = (["x", "y"], [(0.0, 1.0), (1.0, 2.0)])
        b.plots["line"] = svg_line_plot({"y": ([0, 1], [1, 2])}, "demo", "", "")
        out = b.write(tmp_path / "report")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["checks"][0]["tolerance"] == 1.0
        assert (out / "numbers.csv").read_text().splitlines()[0] == "x,y"
        svg = (out / "line.svg").read_text()
        assert svg.startswith("<svg") and svg.endswith("</svg>")

    def test_summary_rows_keep_their_key_order(self, tmp_path):
        b = ReportBundle("demo")
        b.check("bare", 0.5, 1.0, "provenance text")
        b.check("against", 1.0005, 1e-3, "", expected=1.0)
        checks = json.loads((b.write(tmp_path / "report") / "summary.json").read_text())["checks"]
        keys = ["name", "measured", "tolerance", "passed", "provenance"]
        assert [list(c) for c in checks] == [keys, keys + ["expected"]]
        assert checks[0] == {"name": "bare", "measured": 0.5, "tolerance": 1.0,
                             "passed": True, "provenance": "provenance text"}

    def test_summary_records_runtime(self, tmp_path):
        out = ReportBundle("demo").write(tmp_path / "report")
        runtime = json.loads((out / "summary.json").read_text())["runtime"]
        assert set(runtime) == {"sglab", "python", "numpy", "scipy", "float64_dispatch"}
        assert runtime["numpy"] == np.__version__
        assert set(runtime["float64_dispatch"]) == {"sin", "cos", "tan"}
        assert all(isinstance(v, str) and v for v in runtime["float64_dispatch"].values())

    def test_csv_is_deterministic(self, tmp_path):
        rows = [(0.1, 1 / 3), (2.0, np.float64(0.7))]
        write_csv(tmp_path / "a.csv", ["p", "q"], rows)
        write_csv(tmp_path / "b.csv", ["p", "q"], rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestCliCommands:
    def test_spectrum_passes(self, tmp_path):
        assert main(["spectrum", "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["passed"]
        assert all("tolerance" in c for c in summary["checks"])

    def test_verify_bt_passes(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"version": 1, "betas": [0.3],
                                                "times": [0.0, 1.3]})
        assert main(["verify-bt", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_verify_bt_default_passes(self, tmp_path):
        assert main(["verify-bt", "--out", str(tmp_path / "o")]) == 0

    def test_verify_exact_small(self, tmp_path):
        # the default grid (n = 8001) passes every row at the fixed bars
        assert main(["verify-exact", "--out", str(tmp_path / "o")]) == 0
        table = (tmp_path / "o" / "residual_refinement.csv").read_text()
        assert table.splitlines()[0].startswith("family,residual_level0")

    def test_verify_exact_at_zero_time_skips_the_breather(self, tmp_path):
        # the breather is odd in time, so at t = 0 every central difference
        # cancels and it has no order to measure; the other families are judged
        cfg = write_config(tmp_path, "c.json", {"version": 1, "t": 0.0})
        assert main(["verify-exact", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        checks = json.loads((tmp_path / "o" / "summary.json").read_text())["checks"]
        assert len(checks) == 10 and not any("breather" in c["name"] for c in checks)
        assert (tmp_path / "o" / "not_measurable.csv").read_text().splitlines() == [
            "family,reason", "breather,the residual is exactly 0 at level 0"]

    def test_lift_and_descend(self, tmp_path):
        assert main(["lift", "--out", str(tmp_path / "l")]) == 0
        assert main(["descend", "--out", str(tmp_path / "d")]) == 0

    @pytest.mark.parametrize("kind", ["kink-to-zero", "wobbler-to-breather"])
    def test_descend_defaults_exercise_the_solver(self, tmp_path, kind):
        # the default input is seeded random odd data: (u, s) with s nonzero,
        # so the map takes Newton iterations and descends to a nonzero y
        cfg = write_config(tmp_path, "c.json", {"version": 1, "map": kind})
        assert main(["descend", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        report = (tmp_path / "o" / "descend_report.csv").read_text().splitlines()
        assert report[0] == "iterations,final_residual"
        assert int(report[1].split(",")[0]) >= 1
        rows = (tmp_path / "o" / "descend_result.csv").read_text().splitlines()[1:]
        assert max(abs(float(row.split(",")[1])) for row in rows) > 1e-3

    @pytest.mark.parametrize("command,payload,strict,parity", [
        ("lift", {"map": "manifold"}, False, "odd-even"),
        ("lift", {"map": "manifold"}, True, "odd-even"),
        ("lift", {"map": "breather-to-wobbler"}, False, "odd-odd"),
        ("lift", {"map": "orthogonal"}, False, None),
        ("descend", {"map": "wobbler-to-breather"}, False, "even-even"),
        ("sweep", {"kind": "energy-drift"}, False, None),
        ("sweep", {"kind": "three-soliton-limit"}, False, None),
        ("evolve", {"solution": "two-kink"}, False, None),
    ], ids=["lift-manifold", "lift-manifold-strict", "lift-breather-to-wobbler",
            "lift-orthogonal", "descend-wobbler-to-breather", "sweep-energy-drift",
            "sweep-three-soliton-limit", "evolve-two-kink"])
    def test_recipe_defaults_pass(self, tmp_path, command, payload, strict, parity):
        # every row passes at the recipe's defaults (the manifold lift takes
        # odd-bump input on criterion 5's n = 48001 grid), with one output
        # parity row per component whose parity the map guarantees
        cfg = write_config(tmp_path, "c.json", {"version": 1, **payload})
        flags = ["--strict"] if strict else []
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), *flags]) == 0
        checks = json.loads((tmp_path / "o" / "summary.json").read_text())["checks"]
        assert all(c["passed"] for c in checks)
        assert [c["provenance"] for c in checks if c["name"].startswith("output parity")] == (
            [f"{kind} component" for kind in parity.split("-")] if parity else [])
        if payload.get("map") == "manifold":
            (row,) = [c for c in checks if c["name"] == "momentum matches closed form"]
            assert row["tolerance"] == (1e-7 if strict else 1e-6)

    def test_evolve_probe_csv_header(self, tmp_path):
        # the README's configuration and the probe rows it shows; compared as
        # numbers, since the last digits follow numpy's sin/cos dispatch
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (config,) = re.findall(r"```json\n(.*?)```", text, re.S)
        header, *shown = re.findall(r"```csv\n(.*?)```", text, re.S)[0].splitlines()
        cfg = write_config(tmp_path, "c.json", json.loads(config))
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "run.csv").read_text().splitlines()
        assert lines[0] == header == ",".join(PROBE_HEADER)
        assert len(lines) == 22 and len(shown) == 2
        for got, want in zip(lines[1:], shown):
            np.testing.assert_allclose(np.array(got.split(","), dtype=float),
                                       np.array(want.split(","), dtype=float),
                                       rtol=1e-12, atol=1e-12, equal_nan=True)

    def test_evolve_writes_the_configured_norms(self, tmp_path):
        # the local_norm_I and weighted_norm columns are the library norms of
        # each snapshot's perturbation on the configured interval and rate
        grid = {"x_min": -20.0, "x_max": 20.0, "n_points": 2001}
        cfg = write_config(tmp_path, "c.json", {
            "version": 1, "solution": "wobbler", "params": {"beta": 0.3},
            "background": {"beta": 0.0, "x0": 0.0}, "interval": [-3.0, 4.0],
            "weight_rate": 0.7, "t_end": 2.0, "dt": 0.01, "grid": grid})
        main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")])
        lines = (tmp_path / "o" / "run.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        g = GridSpec(**grid)
        traj = evolve(wobbler(WobblerParams(0.3)).sample(g, 0.0), SINE_GORDON,
                      EvolveConfig(dt=0.01, t_end=2.0, background=KinkFrame()))
        pairs = [traj.perturbation(i) for i in range(len(traj))]
        assert len(rows) == len(pairs) == 5
        assert [r[header.index("local_norm_I")] for r in rows] == [
            local_energy_norm(p, (-3.0, 4.0)) for p in pairs]
        assert [r[header.index("weighted_norm")] for r in rows] == [
            weighted_norm_sq(p, WeightSpec(0.7)) for p in pairs]

    # the message a config error must carry besides its prefix, by case id
    _CONFIG_MESSAGES = {
        "three-point-exact-grid": "needs n_points >= 4, got 3",
        "small-spectrum-grid": "grid.n_points must be an integer >= 4001, got 2001",
        "spectrum-grid-3-mod-4": "grid.n_points must be 1 mod 4 (the halved grid needs an odd "
                                 "count), got 4003",
        "families-left-the-grid": "kink: the residual is exactly 0 at level 0 at t = 1e+06",
        "kink-left-the-grid": "kink: the solution is flat on the grid at t = 1000 "
                              "(max - min 4.0e-304 < 1e-08 at t and t +- dt)",
        "kink-leaving-the-grid": "kink: the solution is flat on the grid at t = 100 "
                                 "(max - min 5.6e-11 < 1e-08 at t and t +- dt)",
        "zero-manifold-t-end": "t_end must be > 0 for a kink-manifold run, got 0.0",
        "zero-sweep-t-end": "t_end must be > 0 for an energy-drift sweep, got 0.0",
        # a run that takes no step leaves its checks nothing to judge
        "zero-evolve-t-end": "t_end must be > 0 for an evolve run, got 0.0",
        "zero-wobbler-t-end": "t_end must be > 0 for a wobbler run, got 0.0"}

    @pytest.mark.parametrize("command,payload", [
        ("evolve", [1, 2]),
        ("evolve", {"version": 1, "grid": [1, 2]}),
        ("evolve", {"version": 1, "params": 3}),
        ("evolve", {"version": 1, "grid": {"n_points": "4001"}}),
        ("evolve", {"version": 1, "background": "static_kink"}),
        ("evolve", {"version": 1, "interval": 3}),
        ("evolve", {"version": 1, "t_end": "1"}),
        ("evolve", {"version": 1, "t_end": float("nan")}),
        ("evolve", {"version": 1, "dt": "0.005"}),
        ("evolve", {"version": 1, "snapshot_every": "x"}),
        ("stability", {"version": 1, "experiment": "kink-manifold", "etas": 0.02}),
        ("stability", {"seeds": "2"}), ("stability", {"seeds": 0}),
        ("verify-exact", {"levels": "3"}), ("verify-exact", {"levels": 1}),
        ("verify-exact", {"wobbler_betas": 0.3}), ("verify-bt", {"betas": 0.3}),
        ("verify-bt", {"times": "0"}), ("sweep", {"deltas": 0.5}),
        ("sweep", {"kind": "energy-drift", "resolutions": [2001]}),
        ("sweep", {"kind": "three-soliton-limit", "speeds": "0.1"}),
        ("evolve", {"params": {"beta": "0.5"}}), ("evolve", {"weight_rate": "0.5"}),
        ("lift", {"amplitude": "0.05"}), ("evolve", {"background": "static-kink"}),
        ("stability", {"experiment": "wobbler", "eta": "0.001"}),
        ("evolve", {"snapshot_every": -1, "t_end": 1}),
        ("evolve", {"snapshot_every": 0, "t_end": 1}),
        ("verify-exact", {"t": "0.7"}), ("verify-exact", {"dt": "0.01"}),
        ("evolve", {"background": {"beta": "0.1"}}), ("evolve", {"track_modulation": "no"}),
        ("lift", {"map": "breather-to-wobbler", "beta": "0.5"}),
        ("lift", {"map": "orthogonal", "delta": "0.1"}),
        ("lift", {"map": "orthogonal", "rho": "0.1"}), ("lift", {"input_file": 3}),
        ("descend", {"map": "wobbler-to-breather", "t": "0.5"}),
        ("stability", {"experiment": "wobbler", "seed": "x"}),
        ("stability", {"experiment": "wobbler", "seed": -1}),
        ("stability", {"experiment": "wobbler", "beta": "0.3"}),
        ("sweep", {"kind": "energy-drift", "t_end": "4"}),
        ("sweep", {"kind": "energy-drift", "resolutions": [[2001, 0.05], [1001, 0.1]]}),
        ("sweep", {"kind": "three-soliton-limit", "beta": "0.5"}),
        ("sweep", {"kind": "three-soliton-limit", "grid": {"n_points": "801"}}),
        ("lift", {"input_file": "missing.json"}), ("lift", {"input_file": "not-json.txt"}),
        ("lift", {"input_file": "no-x-max.json"}), ("lift", {"input_file": "string-entry.json"}),
        ("lift", {"input_file": "nan-entry.json"}), ("lift", {"input_file": "infinite-even.json"}),
        ("lift", {"input_file": "ragged-entry.json"}),
        ("stability", {"experiment": "wobbler", "eta": 0}),
        ("stability", {"experiment": "wobbler", "eta": -0.001}),
        ("stability", {"etas": []}), ("stability", {"etas": [0.02, 0.0]}),
        ("stability", {"etas": [-0.02, 0.04]}),
        ("sweep", {"deltas": []}), ("sweep", {"kind": "energy-drift", "resolutions": []}),
        ("sweep", {"kind": "energy-drift", "resolutions": [[2001, 0.02]]}),
        ("sweep", {"kind": "energy-drift", "resolutions": [[2001, 0.02], [4001, 0.02]]}),
        ("sweep", {"kind": "three-soliton-limit", "speeds": []}),
        ("sweep", {"kind": "three-soliton-limit", "speeds": [0.1]}),
        ("stability", {"etas": [0.02, 0.02]}),
        ("sweep", {"kind": "energy-drift", "t_end": 0.0}),
        ("evolve", {"t_end": float("inf")}),
        ("evolve", {"t_end": 1.0, "snapshot_every": float("inf")}),
        ("stability", {"experiment": "wobbler", "t_end": float("inf")}),
        ("sweep", {"kind": "energy-drift", "t_end": float("inf")}),
        ("verify-exact", {"t": float("inf")}), ("sweep", {"deltas": [float("inf")]}),
        ("stability", {"etas": [float("inf")]}), ("lift", {"amplitude": float("inf")}),
        ("evolve", {"weight_rate": float("inf"), "t_end": 0.5}),
        ("evolve", {"weight_rate": float("nan"), "t_end": 0.5}),
        ("verify-exact", {"grid": {"n_points": 3}}), ("spectrum", {"grid": {"n_points": 2001}}),
        ("spectrum", {"grid": {"n_points": 4003}}), ("verify-exact", {"t": 1e6}),
        ("verify-exact", {"t": 1000.0}), ("verify-exact", {"t": 100.0}),
        ("stability", {"t_end": 0.0, "grid": {"n_points": 2001}, "seeds": 1}),
        ("evolve", {"t_end": 0.0}),
        ("stability", {"experiment": "wobbler", "t_end": 0.0}),
    ], ids=["array", "grid-list", "params-number", "string-n-points", "background-typo",
            "interval-number", "string-t-end", "nan-t-end", "string-dt",
            "string-snapshot-every", "etas-number", "string-seeds", "zero-seeds",
            "string-levels", "one-level", "wobbler-betas-number", "betas-number", "string-times",
            "deltas-number", "flat-resolutions", "string-speeds", "string-params-beta",
            "string-weight-rate", "string-amplitude", "string-background", "string-eta",
            "negative-snapshot-every", "zero-snapshot-every", "string-exact-t",
            "string-exact-dt", "string-background-beta", "string-track-modulation",
            "string-lift-beta", "string-delta", "string-rho", "number-input-file",
            "string-descend-t", "string-seed", "negative-seed", "string-wobbler-beta",
            "string-sweep-t-end", "cfl-violating-resolution", "string-sweep-beta",
            "string-sweep-n-points", "missing-input-file", "input-file-not-json",
            "input-file-without-x-max", "input-file-string-entry", "input-file-nan-entry",
            "input-file-infinite-even-pair", "input-file-ragged-entry", "zero-eta",
            "negative-eta", "empty-etas", "zero-in-etas", "negative-in-etas", "empty-deltas",
            "empty-resolutions", "one-resolution", "repeated-dt", "empty-speeds", "one-speed",
            "repeated-etas", "zero-sweep-t-end", "infinite-t-end", "infinite-snapshot-every",
            "infinite-stability-t-end", "infinite-sweep-t-end", "infinite-exact-t",
            "infinite-in-deltas", "infinite-in-etas", "infinite-amplitude",
            "infinite-weight-rate", "nan-weight-rate", "three-point-exact-grid",
            "small-spectrum-grid", "spectrum-grid-3-mod-4", "families-left-the-grid",
            "kink-left-the-grid", "kink-leaving-the-grid", "zero-manifold-t-end",
            "zero-evolve-t-end", "zero-wobbler-t-end"])
    def test_malformed_config_is_config_error(self, tmp_path, monkeypatch, capsys, request,
                                              command, payload):
        # the input_file cases name files in the working directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "not-json.txt").write_text("{not json")
        write_config(tmp_path, "no-x-max.json", {"x_min": -1.0, "n_points": 3,
                                                 "first": [0, 0, 0], "second": [0, 0, 0]})
        # a saved pair holds a list of finite numbers; an even pair of
        # infinities would pass the parity check as NaN defects
        for name, first in (("string-entry", [0, "a", 0]), ("nan-entry", [0, float("nan"), 0]),
                            ("infinite-even", [0, 1e400, 0, 1e400, 0]),
                            ("ragged-entry", [[0], [0, 0], 0])):
            write_config(tmp_path, f"{name}.json", {"x_min": -1.0, "x_max": 1.0,
                                                    "n_points": len(first), "first": first,
                                                    "second": [0] * len(first)})
        cfg = write_config(tmp_path, "c.json", payload)
        code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert self._CONFIG_MESSAGES.get(request.node.callspec.id, "") in err
        assert not (tmp_path / "o").exists()

    def test_corrupted_speed_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "version": 1, "solution": "kink", "params": {"beta": 1.5}, "t_end": 1.0})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_bad_config_version(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"version": 99})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["spectrum", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    _FAILING_BREATHER = {
        "version": 1, "solution": "breather", "params": {"beta": 0.5},
        "t_end": 2.0, "dt": 0.015,
        "grid": {"x_min": -40.0, "x_max": 40.0, "n_points": 2001}}

    def test_criterion_failure_exit_code(self, tmp_path):
        # relative energy drift 4.0e-5 against the fixed bar 1e-5
        cfg = write_config(tmp_path, "c.json", self._FAILING_BREATHER)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_config_cannot_move_a_pass_bar(self, tmp_path):
        # "drift_tol" once set the drift bar; now it is an unknown key, ignored
        cfg = write_config(tmp_path, "c.json", {**self._FAILING_BREATHER, "drift_tol": 1.0})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        checks = json.loads((tmp_path / "o" / "summary.json").read_text())["checks"]
        (row,) = [c for c in checks if c["name"] == "relative energy drift"]
        assert row["tolerance"] == 1e-5 and not row["passed"]

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # a momentum that never drops to 1e-12 stops the zero-momentum
        # manifold data after 12 offset steps
        monkeypatch.setattr(backlund, "momentum", lambda state: 1e-6)
        cfg = write_config(tmp_path, "c.json", {**self._SMALL_MANIFOLD, "etas": [0.02]})
        assert main(["stability", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("solver failure: momentum")
        assert not (tmp_path / "o").exists()

    def test_sweep_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "version": 1, "kind": "final-speed", "deltas": [-0.2, 0.0, 0.3]})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "a"),
                     "--seed", "7"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "b"),
                     "--seed", "7"]) == 0
        assert ((tmp_path / "a" / "sweep.csv").read_bytes()
                == (tmp_path / "b" / "sweep.csv").read_bytes())

    @pytest.mark.parametrize("far, code", [(1e155, 0), (1e308, 1)])
    def test_sweep_final_speed_verdict_ignores_delta_order(self, tmp_path, far, code):
        # both speeds are exactly 1 at delta = 1e155; at 1e308 the momentum
        # overflows to -inf and its speed is NaN, and a NaN gap fails wherever it sits
        for i, deltas in enumerate(([0.5, far], [far, 0.5])):
            cfg = write_config(tmp_path, f"c{i}.json", {
                "version": 1, "kind": "final-speed", "deltas": deltas})
            out = tmp_path / f"o{i}"
            assert main(["sweep", "--config", cfg, "--out", str(out)]) == code
            (check,) = json.loads((out / "summary.json").read_text())["checks"]
            assert check["passed"] == (code == 0)
            assert (check["measured"] == 0.0) == (code == 0)

    def test_workers_is_no_flag(self, tmp_path):
        # every command runs its cells in-process, so none takes --workers
        for command in _COMMANDS:
            with pytest.raises(SystemExit) as exc:
                main([command, "--workers", "2", "--out", str(tmp_path / "o")])
            assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_strict_tightens(self, tmp_path):
        # five of the six finest residuals lie in (1e-6, 1e-5]: they pass the
        # stock bar and fail the tenfold-tightened one
        assert main(["verify-exact", "--out", str(tmp_path / "a")]) == 0
        assert main(["verify-exact", "--out", str(tmp_path / "b"), "--strict"]) == 1
        rows = json.loads((tmp_path / "b" / "summary.json").read_text())["checks"]
        failed = [c["name"] for c in rows if not c["passed"]]
        assert len(failed) == 5 and all(n.endswith("finest residual") for n in failed)

    _SMALL_WOBBLER = {"version": 1, "experiment": "wobbler", "t_end": 6.0, "dt": 0.02,
                      "grid": {"x_min": -40.0, "x_max": 40.0, "n_points": 2001},
                      "snapshot_every": 2.0}

    def test_stability_wobbler_small(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self._SMALL_WOBBLER)
        assert main(["stability", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "wobbler_distance.csv").exists()
        assert (tmp_path / "o" / "wobbler_distance.svg").exists()

    def test_recipes_render_their_cells(self, tmp_path):
        # the CLI tables hold exactly what the shared experiment cells return
        cfg = write_config(tmp_path, "c.json", self._SMALL_WOBBLER)
        assert main(["stability", "--config", cfg, "--out", str(tmp_path / "w")]) == 0
        rows = (tmp_path / "w" / "wobbler_distance.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[1]) for r in rows] == wobbler_orbit(
            GridSpec(-40.0, 40.0, 2001), 0.3, 1e-3, np.random.default_rng(0), 0.02, 6.0, 2.0)[1]
        assert main(["spectrum", "--out", str(tmp_path / "s")]) == 0
        rows = (tmp_path / "s" / "spectra.csv").read_text().splitlines()[1:]
        assert [[float(v) for v in r.split(",")[2:]] for r in rows] == [
            spectrum_ladder(op, GridSpec(-30.0, 30.0, 4001), exact)[1] for _, op, exact in SPECTRA]
        assert main(["verify-bt", "--out", str(tmp_path / "b")]) == 0
        checks = json.loads((tmp_path / "b" / "summary.json").read_text())["checks"]
        assert [c["name"] for c in checks if "identity" not in c["name"]] == [
            label for label, _ in linear_transform_cases(GridSpec(-30.0, 30.0, 4001), 0.9)]

    def test_config_seed_wins_over_flag(self, tmp_path):
        # the wobbler noise seeds from the config's "seed" like every other draw
        base = {**self._SMALL_WOBBLER, "t_end": 2.0, "snapshot_every": 1.0}
        plain = write_config(tmp_path, "plain.json", base)
        seeded = write_config(tmp_path, "seeded.json", {**base, "seed": 5})
        runs = {"config": (seeded, "0"), "flag": (plain, "5"), "other": (plain, "0")}
        csv = {}
        for name, (cfg, seed) in runs.items():
            assert main(["stability", "--config", cfg, "--seed", seed,
                         "--out", str(tmp_path / name)]) == 0
            csv[name] = (tmp_path / name / "wobbler_distance.csv").read_bytes()
        assert csv["config"] == csv["flag"] != csv["other"]

    _SMALL_MANIFOLD = {"version": 1, "experiment": "kink-manifold", "t_end": 2.0, "dt": 0.02,
                       "grid": {"x_min": -20.0, "x_max": 20.0, "n_points": 1001},
                       "seeds": 1, "etas": [0.02, 0.04], "snapshot_every": 1.0}

    def test_stability_manifold_reports_untracked_snapshots(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self._SMALL_MANIFOLD)
        main(["stability", "--config", cfg, "--out", str(tmp_path / "o")])
        checks = json.loads((tmp_path / "o" / "summary.json").read_text())["checks"]
        untracked = [c for c in checks if c["name"].startswith("untracked snapshots")]
        assert [c["name"] for c in untracked] == [
            "untracked snapshots (seed 0, eta 0.02)", "untracked snapshots (seed 0, eta 0.04)"]
        assert all(c["measured"] == 0 and c["tolerance"] == 0 and c["passed"] for c in untracked)

    def _assert_runs_left_out(self, tmp_path, untracked):
        # each run keeps its failing untracked row and leaves no table row,
        # plot or slope
        cfg = write_config(tmp_path, "c.json", self._SMALL_MANIFOLD)
        assert main(["stability", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        checks = json.loads((tmp_path / "o" / "summary.json").read_text())["checks"]
        rows = [c for c in checks if c["name"].startswith("untracked snapshots")]
        assert [(c["measured"], c["passed"]) for c in rows] == [(untracked, False)] * 2
        assert not any(c["name"] == "rho-rate scaling slope" for c in checks)
        assert (tmp_path / "o" / "manifold_runs.csv").read_text().count("\n") == 1
        assert not list((tmp_path / "o").glob("*.svg"))

    def test_stability_manifold_run_never_tracked_fails_its_row(self, tmp_path, monkeypatch):
        # with a tube this narrow the tracker follows none of the 3 snapshots
        monkeypatch.setattr(modulation, "TUBE_RADIUS", 1e-4)
        self._assert_runs_left_out(tmp_path, 3)

    def test_stability_manifold_run_tracked_once_is_left_out(self, tmp_path, monkeypatch):
        # one tracked snapshot shows nothing settling: the classifier needs two
        real_run = cli.manifold_run

        def tracked_once(*args):
            traj, records = real_run(*args)
            return traj, records[:1]

        monkeypatch.setattr(cli, "manifold_run", tracked_once)
        self._assert_runs_left_out(tmp_path, 2)

    def test_evolve_phi4_in_a_kink_frame_is_a_configuration_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "version": 1, "solution": "phi4-kink", "background": {},
            "t_end": 1.0, "dt": 0.01,
            "grid": {"x_min": -20.0, "x_max": 20.0, "n_points": 2001}})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "sine-Gordon" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_evolve_tracking_a_phi4_run_is_a_configuration_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "version": 1, "solution": "phi4-kink",
            "track_modulation": True, "t_end": 1.0, "dt": 0.01,
            "grid": {"x_min": -20.0, "x_max": 20.0, "n_points": 2001}})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "sine-Gordon" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_evolve_tracks_an_off_center_frame(self, tmp_path):
        # the tracker starts at the frame's center; from rho = 0 its first
        # solve diverged and all 21 snapshots went untracked
        cfg = write_config(tmp_path, "c.json", {
            "version": 1, "solution": "kink", "params": {"x0": 3.0},
            "background": {"x0": 3.0}, "track_modulation": True})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rho = [float(line.split(",")[1]) for line in
               (tmp_path / "o" / "run.csv").read_text().splitlines()[1:]]
        assert len(rho) == 21 and all(r == pytest.approx(3.0, abs=1e-9) for r in rho)

    def test_evolve_tracks_an_off_center_kink_without_a_frame(self, tmp_path):
        # a run without a frame starts tracking where the field crosses pi;
        # from rho = 0 the first solve diverged and all 5 snapshots went untracked
        cfg = write_config(tmp_path, "c.json", {
            "version": 1, "solution": "kink", "params": {"x0": 3.0},
            "track_modulation": True, "t_end": 2.0})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rho = [float(line.split(",")[1]) for line in
               (tmp_path / "o" / "run.csv").read_text().splitlines()[1:]]
        assert len(rho) == 5 and all(r == pytest.approx(3.0, abs=1e-9) for r in rho)

    def test_evolve_tracks_a_moving_kink_without_a_frame(self, tmp_path):
        # a plain run tracks the kink at its own speed; at beta 0 the first
        # remainder norm, 0.883, left the tube and all 21 snapshots went untracked
        cfg = write_config(tmp_path, "c.json", {
            "version": 1, "solution": "kink", "params": {"beta": 0.3},
            "track_modulation": True})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rho = [float(line.split(",")[1]) for line in
               (tmp_path / "o" / "run.csv").read_text().splitlines()[1:]]
        assert len(rho) == 21 and all(r == pytest.approx(0.0, abs=1e-4) for r in rho)

    @pytest.mark.parametrize("speed,untracked", [(0.05, 0), (0.2, 9)])
    def test_evolve_reports_untracked_snapshots(self, tmp_path, speed, untracked):
        # a kink moving at 0.2 in the static frame carries a remainder norm of
        # 0.58 (mostly its velocity), outside the tracker's radius-0.5 tube
        cfg = write_config(tmp_path, "c.json", {
            "version": 1, "solution": "kink", "params": {"beta": speed},
            "background": {}, "track_modulation": True,
            "t_end": 4.0, "dt": 0.01, "snapshot_every": 0.5,
            "grid": {"x_min": -20.0, "x_max": 20.0, "n_points": 2001}})
        code = main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == (0 if untracked == 0 else 1)
        checks = json.loads((tmp_path / "o" / "summary.json").read_text())["checks"]
        (row,) = [c for c in checks if c["name"] == "untracked snapshots"]
        assert row["measured"] == untracked and row["tolerance"] == 0
        assert row["passed"] is (untracked == 0)
        assert [c["name"] for c in checks if not c["passed"]] == (
            [] if untracked == 0 else ["untracked snapshots"])
        # rho reads nan on every snapshot after a tube exit
        rho = [line.split(",")[1] for line in
               (tmp_path / "o" / "run.csv").read_text().splitlines()[1:]]
        assert len(rho) == 9
        assert rho.count("nan") == untracked


def _config_keys_read_by_cli():
    """Every key the CLI reads from a config through its typed reader ``_get``,
    with nested objects written as ``grid.n_points`` and listed themselves,
    plus ``version``, the one key read directly. Any other direct read of a
    config object fails, so no value bypasses the reader."""
    tree = ast.parse(Path(sglab.__file__).with_name("cli.py").read_text())
    keys = {"version"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_get":
            key = node.args[1]
            if isinstance(key, ast.Constant):  # else the reader's own walk to a parent
                parts = key.value.split(".")
                keys.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
            continue
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get":
            obj, key = node.func.value, node.args[0]
        elif isinstance(node, ast.Subscript):
            obj, key = node.value, node.slice
        else:
            continue
        if getattr(obj, "id", None) in ("cfg", "g", "params", "bg"):
            assert getattr(key, "value", None) == "version", ast.unparse(node)
    return keys


def test_readme_documents_every_config_key():
    # the README's key table and the keys cli.py reads are the same set
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("### Configuration keys", 1)[1].split("\n#", 1)[0]
    documented = re.findall(r"^\| `([\w.]+)` \|", section, re.M)
    assert len(documented) == len(set(documented))
    assert set(documented) == _config_keys_read_by_cli()


def test_module_entry_point():
    # python -m sglab runs the CLI from a checkout with src/ on the path
    env = {**os.environ, "PYTHONPATH": str(Path(sglab.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-m", "sglab", "--help"], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: sglab")
