"""Which names the traced run wraps, and the per-layer metrics built from them.

The layers are rslv_lab's modules.  A span is named after the callee
(``<module>.<name>``) but installed where the caller looks the name up:
``cli`` imports the solvers into its own namespace, ``fokker_planck`` and
``condition_c`` both import ``a_eps_batch``, so both sites are wrapped under
one span name.  Methods are wrapped on their class.
"""

from __future__ import annotations

import numpy as np

ROOT = "call"


def _grid_points(tracer, args, kwargs, report) -> None:
    model, n = args[0], args[1]
    segments = np.unique(model.lam).size - 1
    evaluated = 0 if report.fallback else segments * (n - 1) ** 2
    tracer.count("condition_c.grid_points", evaluated)
    tracer.count("condition_c.grid_passing", report.points.shape[0])


def _samples(tracer, args, kwargs, result) -> None:
    tracer.count("condition_c.samples", args[2] if len(args) > 2 else kwargs["samples"])


def _band_bytes(tracer, args, kwargs, result) -> None:
    m, d, _ = args[0].shape
    kl = ku = 2 * d - 1
    tracer.count("banded.band_bytes", (kl + ku + 1) * m * d * 8)
    tracer.count("banded.packs", 1)


# (module, attribute path, span name, counter hook)
TARGETS = [
    ("rslv_lab.cli", "main", "cli.main", None),
    ("rslv_lab.cli", "solve_fbm", "fokker_planck.solve", None),
    ("rslv_lab.cli", "solve_rslv", "fokker_planck.solve", None),
    ("rslv_lab.cli", "write_snapshots", "fokker_planck.write_snapshots", None),
    ("rslv_lab.cli", "simulate", "particles.simulate", None),
    ("rslv_lab.cli", "price_calls", "particles.price_calls", None),
    ("rslv_lab.fokker_planck", "a_eps_batch", "regime_model.a_eps_batch", None),
    ("rslv_lab.fokker_planck", "ratio_r_eps_batch", "regime_model.ratio_r_eps_batch", None),
    ("rslv_lab.fokker_planck", "solve_block_tridiag", "banded.solve_block_tridiag", None),
    ("rslv_lab.banded", "block_tridiag_to_banded", "banded.block_tridiag_to_banded",
     _band_bytes),
    ("rslv_lab.banded", "solve_banded", "banded.solve_banded", None),
    ("rslv_lab.dupire", "VolSurface.sigma", "dupire.VolSurface.sigma", None),
    ("rslv_lab.dupire", "VolSurface.dsigma_dx", "dupire.VolSurface.dsigma_dx", None),
    ("rslv_lab.regime_model", "IntensityTable.rates_from",
     "regime_model.IntensityTable.rates_from", None),
    ("rslv_lab.particles", "cond_expect_f2", "particles.cond_expect_f2", None),
    ("rslv_lab.particles", "Regression.__call__", "particles.Regression.__call__", None),
    ("rslv_lab.condition_c", "grid_search_diag", "condition_c.grid_search_diag", _grid_points),
    ("rslv_lab.condition_c", "coercivity_certificate", "condition_c.coercivity_certificate",
     None),
    ("rslv_lab.condition_c", "sample_quadratic_min", "condition_c.sample_quadratic_min",
     _samples),
    ("rslv_lab.condition_c", "sample_domain_states", "condition_c.sample_domain_states", None),
    ("rslv_lab.condition_c", "a_eps_batch", "regime_model.a_eps_batch", None),
    # the executor class: each pool task runs in a "condition_c.chunk" span
    ("rslv_lab.condition_c", "ThreadPoolExecutor", "condition_c.chunk", None),
]

SPANS = sorted({name for _, _, name, _ in TARGETS})

# Where each layer should move wall_s:
#   cli.main self (config parse, CSV/JSON writing): particles-rslv, little on grids
#   fokker_planck.*, regime_model.a_eps_batch: grid-fbm-d2 (a_eps_batch: condition-c too)
#   banded.*, regime_model.ratio_r_eps_batch: grid-rslv-d5 most, then grid-fbm-d2
#   dupire.VolSurface.*: grid-rslv-d5, then particles-rslv
#   particles.*, regime_model.IntensityTable.rates_from: particles-rslv
#   condition_c.*: condition-c
# name -> (unit, better); every value is per workload call
METRICS = {f"{span}.{kind}": unit for span in SPANS
           for kind, unit in (("calls", ("count", "lower")), ("self_s", ("s", "lower")))}
METRICS.update({
    "cli.bytes_written": ("B", "lower"),
    "fokker_planck.steps": ("count", "lower"),
    "banded.band_bytes": ("B_computed", "lower"),
    "condition_c.grid_points": ("count", "lower"),
    "condition_c.grid_pass_ratio": ("ratio", "higher"),
    "condition_c.sample_quadratic_min.wall_s": ("s", "lower"),
    "condition_c.sample_domain_states.busy_s": ("s", "lower"),
    "condition_c.samples": ("count", "higher"),
    "condition_c.parallel_efficiency": ("ratio", "higher"),
    "trace_overhead_ratio": ("ratio", "lower"),
})


def per_layer(tracer, n_calls: int, workers: int) -> dict[str, float]:
    """Per-call means of every per-layer metric except ``trace_overhead_ratio``.

    Spans that a workload never enters read 0.  ``cli.bytes_written`` and
    ``fokker_planck.steps`` come from the outputs and are added by the caller.
    """
    selfs = tracer.self_times()
    calls = dict.fromkeys(SPANS, 0)
    self_s = dict.fromkeys(SPANS, 0.0)
    wall = dict.fromkeys(SPANS, 0.0)
    for s in tracer.spans:
        if s.name in calls:
            calls[s.name] += 1
            self_s[s.name] += selfs[s.id]
            wall[s.name] += s.duration
    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = calls[span] / n_calls
        out[f"{span}.self_s"] = self_s[span] / n_calls
    c = tracer.counters
    packs = c.get("banded.packs", 0)
    out["banded.band_bytes"] = c.get("banded.band_bytes", 0) / packs if packs else 0.0
    points = c.get("condition_c.grid_points", 0)
    out["condition_c.grid_points"] = points / n_calls
    out["condition_c.grid_pass_ratio"] = (
        c.get("condition_c.grid_passing", 0) / points if points else 0.0)
    out["condition_c.sample_quadratic_min.wall_s"] = (
        wall["condition_c.sample_quadratic_min"] / n_calls)
    out["condition_c.sample_domain_states.busy_s"] = (
        wall["condition_c.sample_domain_states"] / n_calls)
    out["condition_c.samples"] = c.get("condition_c.samples", 0) / n_calls
    out["condition_c.parallel_efficiency"] = _parallel_efficiency(tracer, workers)
    return out


def _parallel_efficiency(tracer, workers: int) -> float:
    """Busy time of the sampler's workers over (workers x sampler wall time).

    A sampler call that used no pool ran on one worker, busy throughout.
    """
    chunk_time: dict[int, float] = {}
    for s in tracer.spans:
        if s.name == "condition_c.chunk":
            chunk_time[s.parent] = chunk_time.get(s.parent, 0.0) + s.duration
    busy = capacity = 0.0
    for s in tracer.spans:
        if s.name == "condition_c.sample_quadratic_min":
            pooled = s.id in chunk_time
            busy += chunk_time[s.id] if pooled else s.duration
            capacity += (workers if pooled else 1) * s.duration
    return busy / capacity if capacity else 0.0
