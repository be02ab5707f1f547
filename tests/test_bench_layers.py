"""The benchmark tracer's targets still name live rslv_lab attributes.

bench/layers.py lists the (module, attribute path) pairs the traced
benchmark wraps.  A deletion in src/ that removes one of them would only
show under ``python -m pytest bench``; this loads the file by path and
resolves every entry on the current package.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    missing = []
    for module_name, path, _, _ in load_layers().TARGETS:
        obj = importlib.import_module(module_name)
        for name in path.split("."):
            obj = getattr(obj, name, None)
            if obj is None:
                missing.append(f"{module_name}.{path}")
                break
    assert missing == []
