"""Report assembly: machine-readable summaries, CSV tables, and SVG plots.

Everything is written deterministically: floats are formatted with shortest
round-trip precision, rows keep insertion order, and the SVG writer has no
dependencies, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__

__all__ = ["ReportBundle", "svg_line_plot"]


def fmt(value) -> str:
    """Deterministic shortest-roundtrip float formatting."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def runtime_info() -> dict:
    """Package versions and numpy's float64 dispatch targets for sin, cos and tan.

    Evolver speed depends on those targets: the kink-frame force calls tan,
    the full-field force sin.  The targets read ``"unavailable"`` on numpy < 2,
    which has no ``numpy.lib.introspect``.
    """
    import scipy  # deferred like the spectrum solve's: only its version is read

    names = ("sin", "cos", "tan")
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        dispatch = dict.fromkeys(names, "unavailable")
    else:
        info = opt_func_info(func_name="^(sin|cos|tan)$", signature="float64")
        dispatch = {name: next(iter(info[name].values()))["current"] for name in names}
    return {
        "sglab": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "float64_dispatch": dispatch,
    }


@dataclass
class ReportBundle:
    """Rows plus named tables and plots, written together to a directory.

    A row is one checked quantity, the dict that ``summary.json`` lists under
    ``checks``: name, measured, tolerance, passed and provenance, then
    expected when one was given."""

    title: str
    rows: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)   # name -> (header, list of row tuples)
    plots: dict = field(default_factory=dict)    # name -> svg text

    def check(self, name, measured, tolerance, provenance, expected=None,
              larger_ok=False) -> bool:
        """Record a tolerance comparison; returns whether it passed.

        By default passing means |measured - expected| <= tolerance when an
        expected value is given, else measured <= tolerance; with
        ``larger_ok`` the comparison is measured >= tolerance.
        """
        if expected is not None:
            ok = abs(measured - expected) <= tolerance
        elif larger_ok:
            ok = measured >= tolerance
        else:
            ok = measured <= tolerance
        row = {"name": name, "measured": float(measured), "tolerance": float(tolerance),
               "passed": bool(ok), "provenance": provenance}
        if expected is not None:
            row["expected"] = expected
        self.rows.append(row)
        return ok

    @property
    def passed(self) -> bool:
        return all(r["passed"] for r in self.rows)

    def summary(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": self.rows,
            "runtime": runtime_info(),
        }

    def write(self, outdir) -> Path:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "summary.json", "w") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=False)
            fh.write("\n")
        for name, (header, rows) in self.tables.items():
            write_csv(out / f"{name}.csv", header, rows)
        for name, svg in self.plots.items():
            (out / f"{name}.svg").write_text(svg)
        return out

    def print_rows(self):
        for r in self.rows:
            status = "PASS" if r["passed"] else "FAIL"
            extra = f" expected={fmt(r['expected'])}" if "expected" in r else ""
            print(f"[{status}] {r['name']}: measured={fmt(r['measured'])} "
                  f"tol={fmt(r['tolerance'])}{extra} ({r['provenance']})")


def write_csv(path, header, rows):
    """Write rows of numbers/strings with a fixed header, deterministically."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def svg_line_plot(series, title, xlabel, ylabel) -> str:
    """Self-contained 640 x 400 SVG line plot of {label: (xs, ys)} series."""
    width, height = 640, 400
    ml, mr, mt, mb = 60, 15, 30, 45
    pw, ph = width - ml - mr, height - mt - mb
    xs_all = [float(v) for _, (xs, _) in series.items() for v in xs]
    ys_all = [float(v) for _, (_, ys) in series.items() for v in ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(x):
        return ml + pw * (x - x0) / (x1 - x0)

    def sy(y):
        return mt + ph * (1.0 - (y - y0) / (y1 - y0))

    colors = ["#1f6fb2", "#d1495b", "#3c7a3f", "#8857a3", "#b8860b", "#444444"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
    ]
    # axes and ticks
    parts.append(f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" '
                 f'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" '
                 f'stroke="black" stroke-width="1"/>')
    for k in range(5):
        xv = x0 + k * (x1 - x0) / 4
        yv = y0 + k * (y1 - y0) / 4
        parts.append(f'<text x="{sx(xv):.1f}" y="{mt + ph + 16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{xv:.3g}</text>')
        parts.append(f'<text x="{ml - 6}" y="{sy(yv) + 3:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{yv:.3g}</text>')
        parts.append(f'<line x1="{sx(xv):.1f}" y1="{mt + ph}" x2="{sx(xv):.1f}" '
                     f'y2="{mt + ph + 4}" stroke="black" stroke-width="1"/>')
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 8}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="11">{xlabel}</text>')
    parts.append(f'<text x="14" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="11" '
                 f'transform="rotate(-90 14 {mt + ph / 2:.1f})">{ylabel}</text>')
    for i, (label, (xs, ys)) in enumerate(series.items()):
        pts = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys))
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{ml + pw - 8}" y="{mt + 14 + 14 * i}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
