"""Print one sha256 per layer of sglab's outputs over the fixed seeds 1 and 2003.

Run it from a checkout, with the sglab to digest on the path:

    PYTHONPATH=src python tools/digest.py

It prints the lines ``transform``, ``evolve``, ``tracker`` and ``cli``, each
with the sha256 of what that layer returned or wrote:

* transform: the seven transform maps (results, iteration counts, final
  residuals and residual histories), ``bt_pair_residual``,
  ``tilde_residual`` and the kink family's speed, multiplier and momentum
  maps over a fixed ladder;
* evolve: static-frame, moving-frame, full-grid plain, odd and even
  half-grid and phi^4 runs (snapshots, times, energies and momenta; floats
  are hashed by their bytes, so the sign of zero counts);
* tracker: ``track_modulation``'s records of the kink-frame runs;
* cli: the files the 15 CLI recipes write at their defaults, with
  ``runtime`` (package versions) dropped from ``summary.json``.

A refactor that claims bitwise outputs prints the same lines at its parent
and at the change; a change that moves a number names its layer.  Run the
same file against the parent's ``src`` to compare.  This is a comparison
tool: the test suite runs its transform, evolve and tracker layers for one
seed (``tests/test_digest_tool.py``) only to keep it runnable, and pins no
hash.  It takes 15 to 20 s on a 2-vCPU Xeon, most of it in the cli layer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

import sglab
from sglab import (
    PHI4,
    SINE_GORDON,
    EvolveConfig,
    FieldState,
    GridSpec,
    KinkFrame,
    KinkParams,
    PerturbationPair,
    WobblerParams,
    breather,
    bt_pair_residual,
    construct_manifold_data,
    descend_kink_to_zero,
    descend_wobbler_to_breather,
    evolve,
    final_speed_from_delta,
    final_speed_from_momentum,
    kink,
    lift_breather_to_wobbler,
    lift_with_orthogonality,
    lift_zero_to_kink,
    manifold_momentum,
    multiplier_from_speed,
    phi4_kink,
    tilde_residual,
    track_modulation,
    wobbler,
    zero_sampler,
)
from sglab.backlund import zero_momentum_manifold_data
from sglab.cli import main
from sglab.inputs import smooth_random

SEEDS = (1, 2003)

# (command, config) of every CLI recipe; an empty config runs the defaults
RECIPES = [
    ("verify-exact", {}),
    ("verify-bt", {}),
    ("spectrum", {}),
    ("lift", {"map": "zero-to-kink"}),
    ("lift", {"map": "breather-to-wobbler"}),
    ("lift", {"map": "manifold"}),
    ("lift", {"map": "orthogonal"}),
    ("descend", {"map": "kink-to-zero"}),
    ("descend", {"map": "wobbler-to-breather"}),
    ("evolve", {}),
    ("stability", {"experiment": "kink-manifold"}),
    ("stability", {"experiment": "wobbler"}),
    ("sweep", {"kind": "final-speed"}),
    ("sweep", {"kind": "energy-drift"}),
    ("sweep", {"kind": "three-soliton-limit"}),
]


def feed(h, obj):
    """Add obj to the hash h, tagged by type so that no two values collide."""
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(f"array {arr.dtype.str} {arr.shape}".encode())
        h.update(arr.tobytes())
    elif isinstance(obj, (bool, np.bool_)) or obj is None:
        h.update(f"const {obj}".encode())
    elif isinstance(obj, (int, np.integer)):
        h.update(f"int {int(obj)}".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"float" + struct.pack("<d", float(obj)))
    elif isinstance(obj, (str, bytes)):
        data = obj.encode() if isinstance(obj, str) else obj
        h.update(f"str {len(data)}".encode() + data)
    elif isinstance(obj, dict):
        h.update(f"dict {len(obj)}".encode())
        for key, value in obj.items():
            feed(h, key)
            feed(h, value)
    elif isinstance(obj, (list, tuple)):
        h.update(f"list {len(obj)}".encode())
        for item in obj:
            feed(h, item)
    elif dataclasses.is_dataclass(obj):
        # public fields only: a private one caches what the public ones hold
        h.update(f"object {type(obj).__name__}".encode())
        for f in dataclasses.fields(obj):
            if not f.name.startswith("_"):
                feed(h, f.name)
                feed(h, getattr(obj, f.name))
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def transform_layer(h, seed):
    rng = np.random.default_rng(seed)
    grid = GridSpec(-40.0, 40.0, 4001)

    def bump(parity, amplitude):
        return smooth_random(grid, parity, amplitude, rng)

    t = float(rng.uniform(0.5, 1.5))
    up = lift_zero_to_kink(grid, bump("even", 0.05), bump("even", 0.05))
    wob = lift_breather_to_wobbler(grid, bump("even", 0.04), bump("even", 0.04), 0.5, t)
    reports = [
        up,
        descend_kink_to_zero(grid, up.result.first, up.result.second),
        descend_kink_to_zero(grid, bump("odd", 0.05), bump("odd", 0.05)),
        wob,
        descend_wobbler_to_breather(grid, wob.result.first, wob.result.second, 0.5, t),
        descend_wobbler_to_breather(grid, bump("odd", 0.04), bump("odd", 0.04), 0.5, t),
        construct_manifold_data(grid, bump("odd", 0.05), bump("even", 0.02), 0.01),
        lift_with_orthogonality(grid, bump("odd", 0.05), bump("odd", 0.03), 0.0, 0.3, 0.0, t),
        lift_with_orthogonality(grid, bump("odd", 0.05), bump("odd", 0.03), 0.02, -0.2, 0.4, t),
        *zero_momentum_manifold_data(grid, bump("odd", 0.05)),
    ]
    feed(h, reports)
    feed(h, [bt_pair_residual(zero_sampler(), kink(KinkParams(0.4, 0.0)),
                              multiplier_from_speed(0.4), 0.0, grid),
             bt_pair_residual(breather(0.5), wobbler(WobblerParams(0.5)), 1.0, t, grid)])
    pair = PerturbationPair(grid, bump("odd", 0.05), bump("odd", 0.05))
    y_v = PerturbationPair(grid, bump("even", 0.05), bump("even", 0.05))
    feed(h, [tilde_residual(pair, y_v, 0.0), tilde_residual(pair, y_v, 0.03)])
    feed(h, [[(final_speed_from_delta(d), manifold_momentum(d))
              for d in (-0.9, -0.2, 0.0, 0.1, 3.0, 1e155)],
             [multiplier_from_speed(b) for b in (0.0, 0.3, -0.3, 0.999999, -0.999999)],
             [final_speed_from_momentum(p) for p in (3.0, -3.0, 2e155, -2e155)]])


def evolve_runs(seed):
    """(name, trajectory) of one run per evolver path."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(-20.0, 20.0, 2001)
    cfg = EvolveConfig(dt=0.9 * grid.h, t_end=4.0, snapshot_every=0.5)

    def bump(parity, amplitude):
        return smooth_random(grid, parity, amplitude, rng)

    q = KinkParams().q(grid.x)
    mixed = bump("odd", 0.05) + bump("even", 0.05)
    moving = kink(KinkParams(0.3, -0.5)).sample(grid, 0.0)
    shifted = GridSpec(-20.0 - 0.3, 20.0 - 0.3, 2001)
    runs = [
        ("static frame, full grid", FieldState(0.0, grid, q + mixed, bump("even", 0.02)),
         SINE_GORDON, KinkFrame()),
        ("static frame, odd half grid", FieldState(0.0, grid, q + bump("odd", 0.05),
                                                   bump("odd", 0.02)), SINE_GORDON, KinkFrame()),
        ("moving frame", FieldState(0.0, grid, moving.u + mixed, moving.v), SINE_GORDON,
         KinkFrame(0.3, -0.5)),
        ("plain, full grid", breather(0.5).sample(shifted, float(rng.uniform(0.0, 6.0))),
         SINE_GORDON, None),
        ("plain, odd half grid", FieldState(0.0, grid, bump("odd", 0.3), bump("odd", 0.1)),
         SINE_GORDON, None),
        ("plain, even half grid", breather(0.5).sample(grid, 0.0), SINE_GORDON, None),
        ("phi4, full grid", phi4_kink().sample(shifted, 0.0), PHI4, None),
        ("phi4, even half grid", FieldState(0.0, grid, bump("even", 0.3), bump("even", 0.1)),
         PHI4, None),
    ]
    return [(name, evolve(state, model, dataclasses.replace(cfg, background=frame)))
            for name, state, model, frame in runs]


def evolve_and_track(evolve_h, tracker_h, seed):
    for name, traj in evolve_runs(seed):
        feed(evolve_h, [name, traj])
        if traj.background is not None:
            feed(tracker_h, [name, track_modulation(traj, traj.background.beta)])


def cli_layer(h, seed):
    for command, payload in RECIPES:
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp, "config.json")
            config.write_text(json.dumps({"version": 1, **payload}))
            out = Path(tmp, "out")
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(config), "--out", str(out),
                             "--seed", str(seed)])
            feed(h, [command, payload, code])
            for path in sorted(out.iterdir()):
                data = path.read_bytes()
                if path.name == "summary.json":
                    summary = json.loads(data)
                    summary.pop("runtime")
                    data = json.dumps(summary).encode()
                feed(h, path.name)
                feed(h, data)


def main_digest():
    print(f"sglab from {Path(sglab.__file__).parent}", file=sys.stderr)
    layers = {name: hashlib.sha256() for name in ("transform", "evolve", "tracker", "cli")}
    for seed in SEEDS:
        transform_layer(layers["transform"], seed)
        evolve_and_track(layers["evolve"], layers["tracker"], seed)
        cli_layer(layers["cli"], seed)
    for name, h in layers.items():
        print(name, h.hexdigest())


if __name__ == "__main__":
    main_digest()
