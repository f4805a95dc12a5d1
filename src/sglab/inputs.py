"""Named generators for perturbation inputs used by the CLI and test suites."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grids import GridSpec, ParameterError, PerturbationPair
from .solutions import KinkParams, WobblerParams, breather, wobbler

__all__ = ["smooth_random", "named_pair", "load_pair", "save_pair"]


def smooth_random(grid: GridSpec, parity: str, amplitude: float, rng) -> np.ndarray:
    """Smooth, exponentially localized random profile with exact parity.

    A sum of three modulated Gaussian bumps, symmetrized by construction and
    rescaled to the requested max amplitude.
    """
    if parity not in ("odd", "even"):
        raise ParameterError(f"parity must be odd or even, got {parity!r}")
    x = grid.x
    out = np.zeros_like(x)
    for _ in range(3):
        a = rng.normal()
        width = rng.uniform(1.5, 4.0)
        k = rng.uniform(0.2, 1.2)
        bump = np.exp(-((x / width) ** 2)) * np.cos(k * x)
        if parity == "odd":
            bump = bump * np.tanh(x)
        out += a * bump
    peak = float(np.max(np.abs(out)))
    return amplitude * out / peak if peak > 0 else out


def named_pair(name: str, grid: GridSpec, *, amplitude: float, beta: float, t: float,
               seed: int) -> PerturbationPair:
    """Build a perturbation pair from a generator name.

    Known names: ``zero``, ``even-bump``, ``odd-bump``, ``random-even``,
    ``random-odd``, ``breather-state`` (the breather and its time derivative at
    time t), ``wobbler-perturbation`` (wobbler minus kink and the wobbler time
    derivative at time t).
    """
    x = grid.x
    zero = np.zeros_like(x)
    if name == "zero":
        return PerturbationPair(grid, zero, zero.copy())
    if name == "even-bump":
        f = amplitude * np.exp(-((x / 3.0) ** 2))
        return PerturbationPair(grid, f, zero)
    if name == "odd-bump":
        f = amplitude * np.tanh(x) * np.exp(-((x / 3.0) ** 2))
        return PerturbationPair(grid, f, zero)
    if name in ("random-even", "random-odd"):
        parity = name.split("-")[1]
        rng = np.random.default_rng(seed)
        first = smooth_random(grid, parity, amplitude, rng)
        return PerturbationPair(grid, first, smooth_random(grid, parity, amplitude, rng))
    if name == "breather-state":
        b = breather(beta).sample(grid, t)
        return PerturbationPair(grid, b.u, b.v)
    if name == "wobbler-perturbation":
        w = wobbler(WobblerParams(beta)).sample(grid, t)
        return PerturbationPair(grid, w.u - KinkParams().q(x), w.v)
    raise ParameterError(f"unknown input generator {name!r}")


def save_pair(path, pair: PerturbationPair):
    """Store a pair with its grid as JSON."""
    payload = {
        "x_min": pair.grid.x_min,
        "x_max": pair.grid.x_max,
        "n_points": pair.grid.n_points,
        "first": pair.first.tolist(),
        "second": pair.second.tolist(),
    }
    Path(path).write_text(json.dumps(payload))


def load_pair(path) -> PerturbationPair:
    """Load a pair saved by save_pair; its entries must be finite numbers."""
    payload = json.loads(Path(path).read_text())
    grid = GridSpec(payload["x_min"], payload["x_max"], payload["n_points"])
    fields = [np.array(payload["first"]), np.array(payload["second"])]
    if any(f.dtype.kind not in "iuf" or not np.all(np.isfinite(f)) for f in fields):
        raise ParameterError("a saved pair must hold finite numbers")
    return PerturbationPair(grid, *fields)
