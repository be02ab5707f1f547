"""The benchmark tracer's targets still name live rslv_lab attributes.

bench/layers.py lists the (module, attribute path) pairs the traced
benchmark wraps, some with a counter hook that reads the target's
arguments.  A deletion or signature change in src/ that breaks one of them
would only show under ``python -m pytest bench`` or a traced run; these
tests load bench/layers.py and bench/tracer.py by path, resolve every entry
on the current package and run every hook on a tiny real call.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from rslv_lab import condition_c
from rslv_lab.fokker_planck import PDSConfig, SpatialGrid, solve_fbm
from rslv_lab.regime_model import HorizonConfig, Measure, RegimeModel

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    missing = []
    for module_name, path, _, _ in load_bench("layers").TARGETS:
        obj = importlib.import_module(module_name)
        for name in path.split("."):
            obj = getattr(obj, name, None)
            if obj is None:
                missing.append(f"{module_name}.{path}")
                break
    assert missing == []


def test_every_counter_hook_runs_on_its_targets_arguments():
    targets = load_bench("layers").TARGETS
    tracer = load_bench("tracer").Tracer()
    grid = SpatialGrid(L=4.0, m=21)
    model3 = RegimeModel(lam=[1.0, 2.0, 4.0], alpha=[0.2, 0.3, 0.5])
    with tracer.installed(targets):
        # the hooks run after each wrapped call, so a hook that cannot read
        # its target's arguments raises here
        solve_fbm(RegimeModel(lam=[1.0, 4.0], alpha=[0.5, 0.5]),
                  PDSConfig(dt=1e-2, sigma_mollify=0.3, n_outputs=2), grid,
                  HorizonConfig(T=3e-2), Measure.point(0.0))
        report = condition_c.grid_search_diag(model3, 8)
        cert = condition_c.coercivity_certificate(np.eye(3), model3, samples=500)
        condition_c.sample_quadratic_min(cert.pi, model3, 300)
    assert tracer.absent == []
    hooked = {name for _, _, name, hook in targets if hook is not None}
    assert hooked <= {s.name for s in tracer.spans}
    c = tracer.counters
    # one pack of 1 x 1 blocks for the initial projection, one 2 x 2 pack per step
    assert c["banded.packs"] == 1 + 3
    assert c["banded.band_bytes"] == 8 * grid.m * (3 * 1 + 3 * 7 * 2)
    assert c["condition_c.grid_passing"] == report.points.shape[0]
    assert c["condition_c.grid_points"] > 0
    assert c["condition_c.samples"] == 500 + 300
