"""``tools/digest.py`` stays runnable: its layers call the library's public
names, which a refactor may change.  The cli layer, most of the tool's run
time, is left out, and no hash is pinned: a digest only compares two trees."""

import hashlib
import importlib.util
from pathlib import Path

DIGEST = Path(__file__).resolve().parent.parent / "tools" / "digest.py"


def _load():
    spec = importlib.util.spec_from_file_location("sglab_digest_tool", DIGEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layers(tool, seed):
    layers = [hashlib.sha256() for _ in range(3)]
    tool.transform_layer(layers[0], seed)
    tool.evolve_and_track(layers[1], layers[2], seed)
    return [h.hexdigest() for h in layers]


def test_digest_layers_run_and_repeat():
    tool = _load()
    assert _layers(tool, 1) == _layers(tool, 1)
