"""The four benchmark workloads: seeded inputs, one timed call, output checks.

Each workload turns ``--seed`` into inputs (configs, lambda sets, Q rates,
surfaces) and hands only those to rslv_lab's public entry points:
``rslv_lab.cli.main`` for the grid and particle workloads, so that config
parsing and CSV/JSON output are paid as users pay them, and
``rslv_lab.condition_c`` directly for Condition (C), since no CLI path
reaches ``sample_quadratic_min``.  A call is repeated with identical inputs
within a run, so its outputs must hash to the same digest every time.

``call()`` is the timed region; ``reset()`` and ``check()`` run outside it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from rslv_lab import cli, condition_c
from rslv_lab.acceptance import HEAT_L1_TOL, MASS_TOL, NEG_TOL
from rslv_lab.regime_model import RegimeModel
from rslv_lab.stats import normal_cdf


@dataclass
class Outcome:
    """Result of checking one call's outputs."""

    problems: list = field(default_factory=list)
    digest: str = ""
    heat_l1: float | None = None
    bytes_written: int = 0
    steps: int = 0
    notes: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems


def _write_json(path: str, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)


class _CliWorkload:
    """A workload that runs one rslv-lab subcommand on a generated config."""

    command = ""

    def __init__(self, workdir: str):
        self.out = os.path.join(workdir, "out")
        self.config = os.path.join(workdir, "config.json")

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def call(self) -> int:
        # the one-line summary cli.main prints is kept out of the report
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([self.command, self.config, "--out", self.out])

    def check(self, code: int) -> Outcome:
        outcome = Outcome()
        if code != 0:
            outcome.problems.append(f"exit code {code}")
        digest = hashlib.sha256()
        names = sorted(os.listdir(self.out)) if os.path.isdir(self.out) else []
        for name in names:
            path = os.path.join(self.out, name)
            outcome.bytes_written += os.path.getsize(path)
            if name.endswith(".csv"):
                digest.update(name.encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        outcome.digest = digest.hexdigest()
        if code == 0:
            self._check_outputs(outcome)
        return outcome

    def _check_outputs(self, outcome: Outcome) -> None:
        raise NotImplementedError


class _GridWorkload(_CliWorkload):
    """Shared checks on the metadata JSON that ``solve-*`` writes."""

    kind = ""

    def _check_outputs(self, outcome: Outcome) -> None:
        with open(os.path.join(self.out, f"{self.kind}_metadata.json")) as fh:
            diag = json.load(fh)["diagnostics"]
        outcome.steps = int(diag["n_steps"])
        masses = np.asarray(diag["masses"])
        drift = self._mass_drift(masses)
        if not drift <= MASS_TOL:
            outcome.problems.append(f"mass drift {drift:.3g} > {MASS_TOL}")
        low = float(np.min(diag["min_value"]))
        if not low >= NEG_TOL:
            outcome.problems.append(f"smallest value {low:.3g} < {NEG_TOL}")
        if "heat_l1_max" in diag:
            outcome.heat_l1 = float(diag["heat_l1_max"])
            if not outcome.heat_l1 <= HEAT_L1_TOL:
                outcome.problems.append(
                    f"heat L1 {outcome.heat_l1:.3g} > {HEAT_L1_TOL}")

    @staticmethod
    def _mass_drift(masses: np.ndarray) -> float:
        raise NotImplementedError


class GridFbmD2(_GridWorkload):
    """solve-fbm, d=2, lambda drawn around (1, 4): the c05/c07/c10 setting."""

    name = "grid-fbm-d2"
    command = "solve-fbm"
    kind = "fbm"
    SIZES = {"full": {"m": 1201, "dt": 1e-4, "T": 0.1},
             "tiny": {"m": 241, "dt": 1e-3, "T": 0.02}}

    def __init__(self, seed: int, size: str, workdir: str):
        super().__init__(workdir)
        p = self.SIZES[size]
        rng = np.random.default_rng(seed)
        lam = [float(np.exp(rng.uniform(-0.2, 0.2))),
               4.0 * float(np.exp(rng.uniform(-0.2, 0.2)))]
        a1 = float(rng.uniform(0.3, 0.7))
        if rng.random() < 0.5:
            initial = {"kind": "point", "x": float(rng.uniform(-0.5, 0.5))}
        else:
            k = int(rng.integers(2, 4))
            initial = {"kind": "mixture",
                       "xs": rng.uniform(-0.5, 0.5, k).tolist(),
                       "weights": rng.dirichlet(np.ones(k)).tolist()}
        self.cfg = {
            "model": {"lambda": lam, "alpha": [a1, 1.0 - a1]},
            "horizon": {"T": p["T"], "r": 0.0},
            "grid": {"L": 6.0, "m": p["m"]},
            "pds": {"dt": p["dt"], "sigma_mollify": math.sqrt(0.1), "n_outputs": 11},
            "initial": initial,
        }
        _write_json(self.config, self.cfg)

    @staticmethod
    def _mass_drift(masses: np.ndarray) -> float:
        # no regime exchange: every per-state mass is an invariant
        return float(np.abs(masses - masses[0]).max())


class GridRslvD5(_GridWorkload):
    """solve-rslv, d=5, constant Q and a smooth tabulated surface from a file."""

    name = "grid-rslv-d5"
    command = "solve-rslv"
    kind = "rslv"
    SIZES = {"full": {"m": 1201, "dt": 1e-3, "T": 0.25},
             "tiny": {"m": 121, "dt": 1e-2, "T": 0.05}}

    def __init__(self, seed: int, size: str, workdir: str):
        super().__init__(workdir)
        p = self.SIZES[size]
        rng = np.random.default_rng(seed)
        d, L, T = 5, 6.0, p["T"]
        lam = np.sort(np.exp(rng.uniform(math.log(0.5), math.log(4.0), d)))
        q = rng.uniform(0.1, 1.0, (d, d))
        np.fill_diagonal(q, 0.0)
        t_nodes = np.linspace(0.0, T, 6)
        x_nodes = np.linspace(-L, L, 61)
        base, skew, smile, term = (rng.uniform(0.15, 0.25), rng.uniform(-0.05, 0.0),
                                   rng.uniform(0.0, 0.05), rng.uniform(-0.02, 0.02))
        values = (base + skew * np.tanh(x_nodes)[None, :]
                  + smile * (1.0 - np.exp(-0.5 * x_nodes ** 2))[None, :]
                  + term * (t_nodes / T)[:, None])
        _write_json(os.path.join(workdir, "surface.json"),
                    {"kind": "tabulated", "t": t_nodes.tolist(), "x": x_nodes.tolist(),
                     "values": values.tolist(), "sigma_low": 0.01, "sigma_high": 2.0})
        self.cfg = {
            "model": {"lambda": lam.tolist(), "alpha": [1.0 / d] * d, "q": q.tolist()},
            "horizon": {"T": T, "r": 0.01},
            "grid": {"L": L, "m": p["m"]},
            "pds": {"dt": p["dt"], "sigma_mollify": math.sqrt(0.1), "n_outputs": 11},
            "surface": {"file": "surface.json"},
            "initial": {"kind": "point", "x": 0.0},
        }
        _write_json(self.config, self.cfg)

    @staticmethod
    def _mass_drift(masses: np.ndarray) -> float:
        # Q moves mass between regimes, so only the total is an invariant
        total = masses.sum(axis=1)
        return float(np.abs(total - total[0]).max())


def _bs_call(k: float, sigma: float, T: float) -> float:
    """Black-Scholes call on spot 1 at zero rate, as in c11.

    A copy of c11's oracle, because ``acceptance._bs_call`` is private.
    """
    d1 = (math.log(1.0 / k) + 0.5 * sigma * sigma * T) / (sigma * math.sqrt(T))
    d2 = d1 - sigma * math.sqrt(T)
    return normal_cdf(d1) - k * normal_cdf(d2)


class ParticlesRslv(_CliWorkload):
    """simulate-rslv on the c11 model: lambda = (0.25, 4), flat surface 0.2."""

    name = "particles-rslv"
    command = "simulate-rslv"
    SIZES = {"full": {"N": 200_000, "dt": 1e-3, "T": 0.1},
             "tiny": {"N": 5_000, "dt": 1e-2, "T": 0.1}}
    SIGMA = 0.2
    STRIKES = (0.8, 1.0, 1.2)
    # c11 allows 3 standard errors at T = 1.  At T = 0.1 the particle method's
    # own bias is about that large at the money (on average 2.2 and at most
    # 4.0 standard errors below Black-Scholes over 36 seeds; it shrinks with
    # dt), so 3 more are allowed; the z-scores are printed with every run.
    PRICE_TOL_SE = 6.0

    def __init__(self, seed: int, size: str, workdir: str):
        super().__init__(workdir)
        p = self.SIZES[size]
        rng = np.random.default_rng(seed)
        q12, q21 = (float(v) for v in rng.uniform(0.5, 2.0, 2))
        self.T = p["T"]
        self.cfg = {
            "model": {"lambda": [0.25, 4.0], "alpha": [0.5, 0.5],
                      "q": [[0.0, q12], [q21, 0.0]]},
            "horizon": {"T": self.T, "r": 0.0},
            "sim": {"dt": p["dt"], "n_particles": p["N"], "checkpoints": [self.T],
                    "seed": seed},
            "surface": {"kind": "constant", "value": self.SIGMA},
            "initial": {"kind": "point", "x": 0.0},
            "strikes": list(self.STRIKES),
        }
        _write_json(self.config, self.cfg)

    def _check_outputs(self, outcome: Outcome) -> None:
        rows = np.loadtxt(os.path.join(self.out, "prices.csv"), delimiter=",",
                          skiprows=1, ndmin=2)
        if rows.shape[0] != len(self.STRIKES):
            outcome.problems.append(f"{rows.shape[0]} prices for {len(self.STRIKES)} strikes")
        z = []
        for k, price, se in rows:
            ref = _bs_call(k, self.SIGMA, self.T)
            z.append(f"K={k:g} {(price - ref) / se:+.2f}")
            if not abs(price - ref) <= self.PRICE_TOL_SE * se:
                outcome.problems.append(
                    f"K={k:g}: price {price:.6g} vs Black-Scholes {ref:.6g} is more "
                    f"than {self.PRICE_TOL_SE:g} stderr ({se:.3g}) apart")
        outcome.notes = "price - Black-Scholes in stderr: " + ", ".join(z)


class ConditionC:
    """Grid searches on d=3 triples and d=5, then a sampled certificate."""

    name = "condition-c"
    SIZES = {"full": {"triples": 8, "n3": 400, "n5": 200,
                      "cert_samples": 100_000, "samples": 1_000_000},
             "tiny": {"triples": 2, "n3": 60, "n5": 30,
                      "cert_samples": 20_000, "samples": 400_000}}

    def __init__(self, seed: int, size: str, workdir: str):
        self.p = p = self.SIZES[size]
        rng = np.random.default_rng(seed)
        self.triples, self.expected = [], []
        while len(self.triples) < p["triples"]:
            lam = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 3))
            rep = condition_c.criterion_d3(lam)
            # c02's margin filter: skip triples too close to the d=3 boundary
            if not math.isfinite(rep.lhs) or abs(rep.lhs - 0.25) <= 0.01:
                continue
            self.triples.append(RegimeModel(lam=np.sort(lam), alpha=np.full(3, 1 / 3)))
            self.expected.append(rep.satisfied)
        self.model5 = RegimeModel(
            lam=np.sort(np.exp(rng.uniform(0.0, math.log(10.0), 5))), alpha=np.full(5, 0.2))
        # lambda spread below 8 keeps Gamma = I inside Condition (C)
        self.cert_model = RegimeModel(
            lam=np.sort(np.exp(rng.uniform(math.log(0.5), math.log(4.0), 3))),
            alpha=np.full(3, 1 / 3))
        self.seeds = [int(s) for s in rng.integers(0, 2 ** 31, 2)]
        self.cfg = {**p, "lambda_d3": [m.lam.tolist() for m in self.triples],
                    "lambda_d5": self.model5.lam.tolist(),
                    "lambda_certificate": self.cert_model.lam.tolist(), "seeds": self.seeds}
        self.result = None

    def reset(self) -> None:
        self.result = None

    def call(self) -> int:
        found = [condition_c.grid_search_diag(m, self.p["n3"]) for m in self.triples]
        report5 = condition_c.grid_search_diag(self.model5, self.p["n5"])
        cert = condition_c.coercivity_certificate(
            np.eye(3), self.cert_model, samples=self.p["cert_samples"], seed=self.seeds[0])
        fresh = condition_c.sample_quadratic_min(
            cert.pi, self.cert_model, self.p["samples"], seed=self.seeds[1])
        self.result = (found, report5, cert, fresh)
        return 0

    def check(self, code: int) -> Outcome:
        outcome = Outcome()
        found, report5, cert, fresh = self.result
        digest = hashlib.sha256()
        for i, (rep, want) in enumerate(zip(found, self.expected)):
            digest.update(bytes([rep.satisfied]) + rep.points.tobytes())
            if rep.satisfied != want:
                outcome.problems.append(
                    f"triple {i}: grid search says {rep.satisfied}, criterion_d3 {want}")
        digest.update(report5.points.tobytes())
        digest.update(repr((cert.kappa_hat, fresh[0])).encode())
        digest.update(fresh[1].tobytes() + fresh[2].tobytes())
        outcome.digest = digest.hexdigest()
        if not cert.kappa_hat > 0:
            outcome.problems.append(f"kappa_hat {cert.kappa_hat} is not positive")
        if not fresh[0] > 0:
            outcome.problems.append(f"sampled quadratic minimum {fresh[0]} is not positive")
        return outcome


WORKLOADS = {w.name: w for w in (GridFbmD2, GridRslvD5, ParticlesRslv, ConditionC)}
