"""Command-line entry point binding the laboratory into reproducible runs.

Subcommands: check-c, solve-fbm, solve-rslv, simulate-fbm, simulate-rslv,
dupire-build, verify.  The config of a run picks its dynamics; the command
picks the solver (grid or particles) and whether the surface is read.
Exit codes: 0 success / satisfied; 1 not satisfied, not found or failed
verification; 2 invalid input or configuration, a refused command-line
argument and an input whose arrays cannot be allocated included; 3 numerical
failure.  Every refusal is one ``error:`` line on stderr.
A config number is a JSON number, not a string or a boolean, and the counts
(grid.m, pds.n_outputs, sim.n_particles, sim.seed) take whole ones such as 2e5.
Runs are deterministic, on any number of threads or CPUs.  Only the
grid solves (solve-*, verify) load anything of scipy: its LAPACK extension
module, scipy.linalg._flapack, and neither scipy.linalg nor scipy itself.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
import time
from dataclasses import fields
from itertools import chain, islice

import numpy as np

from .condition_c import (CertificateError, criterion_d3, criterion_diag,
                          grid_search_diag, satisfies_condition_c)
from .dupire import ArbitrageError, VolSurface, dupire_from_calls
from .fokker_planck import (GridSolution, NumericalError, PDSConfig,
                            SpatialGrid, heat_l1_max, heat_reference, solve_fbm,
                            solve_rslv)
from .particles import SimPlan, price_calls, simulate
from .regime_model import HorizonConfig, IntensityTable, Measure, RegimeModel

__all__ = ["main", "ConfigError", "write_csv", "write_snapshots"]

_FLOAT_FMT = "%.17g"
_CSV_BLOCK = 4096


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals are ConfigErrors: one ``error:`` line, exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _load_config(path: str) -> dict:
    """The config document at ``path``, its top level read like a section."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _read("top-level", doc, _SECTIONS["top-level"])


def _number(value) -> float:
    """A JSON number as a float; a string or a boolean is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, not {value!r}")
    return float(value)


def _count(value) -> int:
    """A JSON number with a whole value, such as 201 or 2e5, as an int."""
    if not _number(value).is_integer():
        raise ValueError(f"expected a whole number, not {value!r}")
    return int(value)


def _times(values):
    return None if values is None else tuple(_number(t) for t in values)


def _floats(values) -> np.ndarray:
    """A number, or nested lists of them, as a float array; each entry passes _number."""
    for value in np.asarray(values, dtype=object).flat:
        _number(value)
    return np.asarray(values, dtype=float)


def _strikes(values):
    """A flat list of finite, positive numbers, kept as the config states it."""
    if values is not None and not (isinstance(values, list) and all(
            type(k) in (int, float) and math.isfinite(k) and k > 0 for k in values)):
        raise ValueError(f"strikes must be a flat list of finite, positive numbers, "
                         f"not {values!r}")
    return values


def _text(value):
    if value is not None and not isinstance(value, str):
        raise TypeError(f"expected a string, not {value!r}")
    return value


def _intensities(value):
    """A list is a constant Q; a dict tabulates Q at the nodes ``x`` (one node: constant)."""
    if value is None:
        return None
    if isinstance(value, dict):
        return _read("q", value, (lambda x, rates: IntensityTable(rates, x),
                                  {"x": _floats, "rates": _floats}))
    return IntensityTable(_floats(value))


_BOUNDS = {"sigma_low": _number, "sigma_high": _number}

# each section, or each kind of a section that has kinds: its constructor
# and the cast of each key it takes
_SECTIONS = {
    "model": (RegimeModel, {"lambda": _floats, "alpha": _floats, "q": _intensities}),
    "horizon": (HorizonConfig, {"T": _number, "r": _number}),
    "grid": (SpatialGrid, {"L": _number, "m": _count}),
    "pds": (PDSConfig, {"dt": _number, "sigma_mollify": _number, "n_outputs": _count,
                        "output_times": _times}),
    "sim": (SimPlan, {"dt": _number, "n_particles": _count, "bandwidth_c": _number,
                      "checkpoints": _times, "seed": _count}),
    "initial": {"point": (Measure.point, {"x": _number}),
                "mixture": (Measure, {"xs": _floats, "weights": _floats}),
                "tabulated": (Measure.tabulated, {"x": _floats, "density": _floats})},
    "surface": {"constant": (VolSurface.constant, {"value": _number, **_BOUNDS}),
                "tabulated": (VolSurface, {"t": _floats, "x": _floats, "values": _floats,
                                           **_BOUNDS})},
}
# the document itself: the sections pass through to _section
_SECTIONS["top-level"] = (lambda **doc: doc, {**dict.fromkeys(_SECTIONS, lambda raw: raw),
                                              "strikes": _strikes, "output_dir": _text})
# the config keys that are not named as their constructor parameter
_PARAMS = {"lambda": "lam"}


def _read(name: str, raw, entry):
    """``build(**{key: cast(value)})`` for one config section and its ``entry``.

    An entry is ``(build, casts)``, or a dict of them by the section's
    ``kind``.  A key outside ``casts`` is refused, a parameter of ``build``
    without a default is a required key, and every fault is a ConfigError.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {name!r} must be a dict")
    if isinstance(entry, dict):
        raw = dict(raw)
        kind = raw.pop("kind", None)
        if not isinstance(kind, str) or kind not in entry:
            raise ConfigError(f"invalid {name} section: kind must be one of "
                              f"{', '.join(entry)}, not {kind!r}")
        entry = entry[kind]
    build, casts = entry
    unknown = sorted(set(raw) - set(casts))
    if unknown:
        raise ConfigError(f"unknown key(s) in the {name!r} section: " + ", ".join(unknown))
    keys = {_PARAMS.get(k, k): k for k in casts}
    for p in inspect.signature(build).parameters.values():
        if p.default is p.empty and p.kind is not p.VAR_KEYWORD and keys[p.name] not in raw:
            raise ConfigError(f"invalid {name} section: missing key {keys[p.name]!r}")
    try:
        return build(**{_PARAMS.get(k, k): casts[k](v) for k, v in raw.items()})
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"invalid {name} section: {exc}") from exc


def _section(cfg: dict, name: str):
    """The ``name`` section read into its type.

    A config without ``initial`` starts from a point mass at 0.
    """
    if name not in cfg and name != "initial":
        raise ConfigError(f"config is missing the {name!r} section")
    return _read(name, cfg.get(name, {"kind": "point", "x": 0.0}), _SECTIONS[name])


def _surface_from(cfg: dict, base: str) -> VolSurface:
    """The surface section, inline or as ``{"file": path}`` relative to ``base``."""
    raw = cfg.get("surface")
    if not (isinstance(raw, dict) and "file" in raw):
        return _section(cfg, "surface")
    if len(raw) > 1:
        raise ConfigError("a surface 'file' stands alone; unknown key(s) beside it: "
                          + ", ".join(sorted(set(raw) - {"file"})))
    try:
        with open(os.path.join(base, raw["file"])) as fh:
            raw = json.load(fh)
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid surface file: {exc}") from exc
    return _read("surface", raw, _SECTIONS["surface"])


def _write_surface(path: str, surface: VolSurface) -> None:
    """The tabulated ``surface`` as the JSON that a ``{"file": path}`` section reads."""
    with open(path, "w") as fh:
        json.dump({"kind": "tabulated", "sigma_low": surface.sigma_low,
                   "sigma_high": surface.sigma_high, "t": surface.t.tolist(),
                   "x": surface.x.tolist(), "values": surface.values.tolist()}, fh)


def _out_dir(cfg: dict, args) -> str:
    """The output directory, made here: call it once the run has succeeded."""
    out = args.out or cfg.get("output_dir") or "out"
    os.makedirs(out, exist_ok=True)
    return out


def write_csv(path: str, header: str, rows) -> None:
    """One header line, then each row's values at 17 significant digits.

    Rows are formatted _CSV_BLOCK at a time, with one ``%`` per block, so
    the text in memory stays bounded; every row has as many values as the
    first.
    """
    rows = iter(rows)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        while block := list(islice(rows, _CSV_BLOCK)):
            line = ",".join([_FLOAT_FMT] * len(block[0])) + "\n"
            fh.write((line * len(block)) % tuple(chain.from_iterable(block)))


def write_snapshots(sol: GridSolution, out_dir, reference, prefix: str) -> dict:
    """CSV per output time (columns x, p_1..p_d, sum, heat_ref); returns the metadata.

    Row k of the (n_outputs, m) array ``reference`` fills the heat_ref column
    of output k.  The caller completes the metadata and writes it as
    ``<prefix>_metadata.json``.
    """
    os.makedirs(out_dir, exist_ok=True)
    files = []
    d = sol.d
    header = "x," + ",".join(f"p_{i+1}" for i in range(d)) + ",sum,heat_ref"
    for k, t in enumerate(sol.times):
        cols = [sol.grid.x] + [sol.p[k, i] for i in range(d)] + \
               [sol.total_density(k), reference[k]]
        name = f"{prefix}_{k:04d}.csv"
        write_csv(os.path.join(out_dir, name), header, zip(*cols))
        files.append({"time": float(t), "file": name})
    diag = {f.name: getattr(sol.diagnostics, f.name) for f in fields(sol.diagnostics)}
    return {
        "grid": {"L": sol.grid.L, "m": sol.grid.m, "h": sol.grid.h},
        "times": [float(t) for t in sol.times],
        "snapshots": files,
        "diagnostics": {k: v.tolist() if isinstance(v, np.ndarray) else v
                        for k, v in diag.items()},
    }


# ---------------------------------------------------------------------------
# check-c

def _values(flag: str, text: str) -> np.ndarray:
    """The comma-separated numbers of a command-line ``flag``."""
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"invalid {flag}: {exc}") from exc


_VERDICT = {True: "SATISFIED", False: "NOT-SATISFIED"}


def _cmd_check_c(args) -> int:
    lam = _values("--lambda", args.lam)
    if lam.size < 2 or np.any(lam <= 0):
        raise ConfigError("invalid --lambda: need at least two positive values")
    model = RegimeModel(lam=lam, alpha=np.full(lam.size, 1.0 / lam.size))
    method, n = args.method, args.n

    if method == "grid":
        out = args.out or "points.csv"
        report = grid_search_diag(model, n)
        write_csv(out, "x,y", report.points)
        ok = report.satisfied
        if report.fallback:
            line = f"degenerate multiset, decided by {report.fallback}: {_VERDICT[ok]}"
        elif ok:
            line = f"SATISFIED: {report.points.shape[0]} passing points at n={n} -> {out}"
        elif lam.size == 3:     # an empty search at d = 3: the exact criterion decides
            method = "d3"
        else:       # a finite-resolution search cannot disprove Condition (C) for d >= 4
            line = f"NOT-FOUND(n={n}): no passing point at this resolution (not a disproof)"
    if method == "d3":
        if lam.size != 3:
            raise ConfigError("--method d3 needs exactly three values")
        rep = criterion_d3(lam)
        ok = rep.satisfied
        line = (f"d3 criterion: lhs = {rep.lhs:.6g} vs 1/4 -> {_VERDICT[ok]}"
                if args.method == "d3" else
                f"NOT-FOUND(n={n}); exact d=3 criterion says {_VERDICT[ok]}")
    elif method == "diag":      # exact for Gamma = Diag(alpha), only sufficient for (C)
        ok = criterion_diag(model, _values("--alpha", args.alpha) if args.alpha
                            else np.ones(lam.size))
        line = f"diagonal criterion: {_VERDICT[ok]}{'' if ok else ' (sufficient test only)'}"
    elif method == "gamma":
        if not args.gamma:
            raise ConfigError("--method gamma needs --gamma file.json")
        try:
            with open(args.gamma) as fh:
                gamma = np.asarray(json.load(fh), dtype=float)
            ok = satisfies_condition_c(gamma, model)
        except (OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid gamma matrix: {exc}") from exc
        line = f"supplied gamma: {_VERDICT[ok]}"
    print(line)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# solve-* and simulate-*

def _cmd_run(args) -> int:
    """One ``solve-*`` or ``simulate-*`` run: its CSVs, then one JSON record
    whose ``run`` block names the command and the config that produced it.

    The model's q switches the regimes and one lambda is the scalar (heat or
    LV) equation, under any command; only ``*-rslv`` reads the surface.
    """
    cfg = _load_config(args.config)
    verb, kind = args.command.split("-", 1)
    model = _section(cfg, "model")
    surface = (_surface_from(cfg, os.path.dirname(os.path.abspath(args.config)))
               if kind == "rslv" else None)
    horizon = _section(cfg, "horizon")
    initial = _section(cfg, "initial")
    if verb == "solve":
        grid = _section(cfg, "grid")
        pds = _section(cfg, "pds")
        if surface is None:
            sol = solve_fbm(model, pds, grid, horizon, initial)
        else:
            sol = solve_rslv(model, pds, grid, horizon, surface, initial)
        out = _out_dir(cfg, args)
        ref = heat_reference(sol, initial, pds.sigma_mollify)
        meta = write_snapshots(sol, out, ref, kind)
        if surface is None:
            meta["diagnostics"]["heat_l1_max"] = heat_l1_max(sol, ref)
        name = f"{kind}_metadata.json"
        summary = (f"{len(sol.times)} snapshots to {out} (mass drift "
                   f"{sol.diagnostics.max_mass_drift:.3g}, min value "
                   f"{sol.diagnostics.min_value.min():.3g}, step min "
                   f"{sol.diagnostics.step_min_value:.3g})")
    else:
        plan = _section(cfg, "sim")
        res = simulate(model, plan, horizon, initial=initial, surface=surface)
        with np.errstate(over="ignore"):    # the square overflows once |qv| passes ~1e154
            qv_std = float(res.qv[-1].std())
        if not math.isfinite(qv_std):
            raise NumericalError("the spread of the quadratic variation at T is not finite")
        meta = {"mode": kind, "times": res.times.tolist(),
                "occupancy": res.occupancy.tolist(),
                "gyongy_ratio_min": float(res.gyongy_ratio.min()),
                "gyongy_ratio_max": float(res.gyongy_ratio.max()),
                "qv_T_mean": float(res.qv[-1].mean()), "qv_T_std": qv_std,
                "seed": plan.seed, "n_particles": plan.n_particles,
                "phase_s": res.phase_s}
        prices = None
        if surface is not None and cfg.get("strikes"):
            # the last checkpoint is the maturity of the options priced from it
            maturity = float(res.times[-1])
            prices = price_calls(res.X[-1], cfg["strikes"], r=horizon.r, T=maturity)
            meta.update(prices_file="prices.csv", prices_time=maturity)
        out = _out_dir(cfg, args)
        for k, t in enumerate(res.times):
            rows = zip(range(res.X.shape[1]), res.X[k], res.Y[k], res.qv[k])
            write_csv(os.path.join(out, f"checkpoint_{k:02d}.csv"),
                      "particle_id,X,Y,qv", rows)
        if prices:
            write_csv(os.path.join(out, "prices.csv"), "K,price,stderr", prices)
        name = f"simulate_{kind}_diagnostics.json"
        summary = (f"{len(res.times)} checkpoints to {out} (gyongy ratio in "
                   f"[{meta['gyongy_ratio_min']:.5f}, {meta['gyongy_ratio_max']:.5f}])")
    meta["run"] = {"command": args.command, "config": os.path.abspath(args.config),
                   "config_data": cfg, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    with open(os.path.join(out, name), "w") as fh:
        json.dump(meta, fh, indent=2)
    print(f"wrote {summary}")
    return 0


# ---------------------------------------------------------------------------
# dupire-build

def _cmd_dupire(args) -> int:
    try:
        with open(args.calls) as fh:
            # genfromtxt would take its field names from a comment line
            lines = [line for line in fh if line.strip()[:1] not in ("", "#")]
        if len(lines) < 2:              # genfromtxt would warn, then fail on an empty file
            raise ConfigError("no data rows")
        raw = np.genfromtxt(lines, delimiter=",", names=True)
        for name in ("t", "K", "C"):    # genfromtxt reads a cell that does not parse as NaN
            bad = np.flatnonzero(~np.isfinite(raw[name]))
            if bad.size:
                raise ConfigError(f"column {name!r} is not a finite number in data row "
                                  f"{bad[0] + 1}")
        ts, ti = np.unique(raw["t"], return_inverse=True)
        ks, kj = np.unique(raw["K"], return_inverse=True)
        first = np.unique(ti * ks.size + kj, return_index=True)[1]   # each pair's first row
        if first.size < ti.size:
            row = np.setdiff1d(np.arange(ti.size), first)[0]
            raise ConfigError(f"(t, K) = ({float(raw['t'][row])}, {float(raw['K'][row])}) "
                              f"is given again in data row {row + 1}")
        if ti.size < ts.size * ks.size:
            raise ConfigError("call grid is not rectangular (missing (t, K) pairs)")
        grid = np.empty((ts.size, ks.size))
        grid[ti, kj] = raw["C"]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise ConfigError(f"cannot read call grid: {exc}") from exc
    report = dupire_from_calls(ts, ks, grid, r=args.r,
                               sigma_low=args.sigma_low, sigma_high=args.sigma_high)
    _write_surface(args.out, report.surface)
    print(f"wrote surface to {args.out} "
          f"({len(report.flagged)}/{report.n_total} nodes repaired)")
    return 0


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    from . import acceptance
    names = list(acceptance.CRITERIA)
    if args.criteria is not None:     # each named id once, in the order first named
        tokens = [token.strip() for token in args.criteria.split(",")]
        names = list(dict.fromkeys(f"c{int(token):02d}" if token.isdigit() else token
                                   for token in tokens))
    unknown = [name for name in names if name not in acceptance.CRITERIA]
    if unknown:
        raise ConfigError(f"unknown criteria {', '.join(unknown)} "
                          f"(choose from {', '.join(acceptance.CRITERIA)})")
    results = acceptance.run_criteria(names)
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rslv-lab",
        description="Regime-switching local-volatility laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check-c", help="decide Condition (C) for a lambda family")
    pc.add_argument("--lambda", dest="lam", required=True,
                    help="comma-separated positive variance levels")
    pc.add_argument("--method", choices=["d3", "diag", "grid", "gamma"], default="grid")
    pc.add_argument("--n", type=int, default=200, help="grid resolution")
    pc.add_argument("--gamma", help="JSON file with a candidate matrix")
    pc.add_argument("--alpha", help="comma-separated diagonal for --method diag (default: ones)")
    pc.add_argument("--out", help="CSV output for grid points")
    pc.set_defaults(run=_cmd_check_c)

    runs = {"solve": "grid solve of the {} system", "simulate": "particle run in {} mode"}
    for verb, about in runs.items():
        for kind in ("fbm", "rslv"):
            pr = sub.add_parser(f"{verb}-{kind}", help=about.format(kind))
            pr.add_argument("config", help="experiment config JSON")
            pr.add_argument("--out", help="output directory")
            pr.set_defaults(run=_cmd_run)

    pd = sub.add_parser("dupire-build", help="build a surface from call prices")
    pd.add_argument("calls", help="CSV with header t,K,C")
    pd.add_argument("--r", type=float, default=0.0)
    pd.add_argument("--sigma-low", type=float, default=VolSurface.sigma_low)
    pd.add_argument("--sigma-high", type=float, default=VolSurface.sigma_high)
    pd.add_argument("--out", default="surface.json")
    pd.set_defaults(run=_cmd_dupire)

    pv = sub.add_parser("verify", help="run the acceptance criteria")
    pv.add_argument("--criteria", help="comma-separated criterion ids, e.g. 3,5 "
                                       "(default: all twelve)")
    pv.set_defaults(run=_cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ArbitrageError, CertificateError, ValueError, OSError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
