import json
from pathlib import Path

import numpy as np
import pytest

from sglab.cli import PROBE_HEADER, main
from sglab.reports import ReportBundle, svg_line_plot, write_csv


def write_config(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


class TestReportBundle:
    def test_check_semantics(self):
        b = ReportBundle("t")
        assert b.check("close", 1.0005, 1e-3, expected=1.0)
        assert not b.check("far", 2.0, 1e-3, expected=1.0)
        assert b.check("small", 1e-9, 1e-6)
        assert b.check("order", 2.0, 1.9, larger_ok=True)
        assert not b.passed

    def test_write_outputs(self, tmp_path):
        b = ReportBundle("demo")
        b.check("a", 0.5, 1.0)
        b.tables["numbers"] = (["x", "y"], [(0.0, 1.0), (1.0, 2.0)])
        b.plots["line"] = svg_line_plot({"y": ([0, 1], [1, 2])}, title="demo")
        out = b.write(tmp_path / "report")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["checks"][0]["tolerance"] == 1.0
        assert (out / "numbers.csv").read_text().splitlines()[0] == "x,y"
        svg = (out / "line.svg").read_text()
        assert svg.startswith("<svg") and svg.endswith("</svg>")

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

    def test_verify_exact_small(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "version": 1, "grid": {"x_min": -40.0, "x_max": 40.0, "n_points": 2001},
            "levels": 2, "wobbler_betas": [0.5], "max_residual": 5e-3})
        assert main(["verify-exact", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        table = (tmp_path / "o" / "residual_refinement.csv").read_text()
        assert table.splitlines()[0].startswith("family,residual_level0")

    def test_lift_and_descend(self, tmp_path):
        assert main(["lift", "--out", str(tmp_path / "l")]) == 0
        assert main(["descend", "--out", str(tmp_path / "d")]) == 0

    def test_evolve_probe_csv_header(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "version": 1, "solution": "breather", "params": {"beta": 0.5},
            "t_end": 2.0, "dt": 0.005,
            "grid": {"x_min": -40.0, "x_max": 40.0, "n_points": 4001}})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "run.csv").read_text().splitlines()
        assert lines[0] == ",".join(PROBE_HEADER)
        assert len(lines) > 3

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

    def test_criterion_failure_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "version": 1, "solution": "breather", "params": {"beta": 0.5},
            "t_end": 2.0, "dt": 0.015, "drift_tol": 1e-12,
            "grid": {"x_min": -40.0, "x_max": 40.0, "n_points": 2001}})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_solver_failure_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "version": 1, "map": "zero-to-kink", "input": "even-bump",
            "amplitude": 0.5, "max_iter": 2})
        assert main(["lift", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_sweep_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "version": 1, "kind": "final-speed", "deltas": [-0.2, 0.0, 0.3]})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "a"),
                     "--seed", "7"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "b"),
                     "--seed", "7"]) == 0
        assert ((tmp_path / "a" / "sweep.csv").read_bytes()
                == (tmp_path / "b" / "sweep.csv").read_bytes())

    def test_sweep_workers(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "version": 1, "kind": "three-soliton-limit", "speeds": [0.1, 0.01],
            "n_points": 2001})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--workers", "2"]) == 0

    def test_strict_tightens(self, tmp_path):
        # a residual that passes the stock bound fails the tenfold-tightened one
        cfg = write_config(tmp_path, "c.json", {
            "version": 1, "grid": {"x_min": -40.0, "x_max": 40.0, "n_points": 2001},
            "levels": 2, "wobbler_betas": [0.5], "max_residual": 4e-3})
        assert main(["verify-exact", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["verify-exact", "--config", cfg, "--out", str(tmp_path / "b"),
                     "--strict"]) == 1

    def test_stability_wobbler_small(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "version": 1, "experiment": "wobbler", "t_end": 6.0, "dt": 0.02,
            "grid": {"x_min": -40.0, "x_max": 40.0, "n_points": 2001},
            "snapshot_every": 2.0})
        assert main(["stability", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "wobbler_distance.csv").exists()
        assert (tmp_path / "o" / "wobbler_distance.svg").exists()

    def test_stability_manifold_reports_untracked_snapshots(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "version": 1, "experiment": "kink-manifold", "t_end": 2.0, "dt": 0.02,
            "grid": {"x_min": -20.0, "x_max": 20.0, "n_points": 1001},
            "seeds": 1, "etas": [0.02, 0.04], "snapshot_every": 1.0})
        main(["stability", "--config", cfg, "--out", str(tmp_path / "o")])
        checks = json.loads((tmp_path / "o" / "summary.json").read_text())["checks"]
        untracked = [c for c in checks if c["name"].startswith("untracked snapshots")]
        assert [c["name"] for c in untracked] == [
            "untracked snapshots (seed 0, eta 0.02)", "untracked snapshots (seed 0, eta 0.04)"]
        assert all(c["measured"] == 0 and c["tolerance"] == 0 and c["passed"] for c in untracked)
