"""Command-line surface: exit codes, file outputs and reproducibility."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rslv_lab import cli, particles
from rslv_lab.acceptance import HEAT_L1_TOL
from rslv_lab.dupire import dupire_from_calls
from rslv_lab.particles import PHASES, cond_expect_f2
from rslv_lab.regime_model import Measure
from rslv_lab.stats import bs_call

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# the one-regime model: solve-rslv on it is Dupire's local-volatility equation
ONE_REGIME = {"lambda": [1.0], "alpha": [1.0]}


def small_solve_config(tmp_path, dt=2e-3, extra=None):
    cfg = {
        "model": {"lambda": [1.0, 4.0], "alpha": [0.5, 0.5]},
        "horizon": {"T": 0.2, "r": 0.0},
        "grid": {"L": 5.0, "m": 101},
        "pds": {"dt": dt, "sigma_mollify": 0.3, "n_outputs": 3},
        "initial": {"kind": "point", "x": 0.0},
        "output_dir": str(tmp_path / "out"),
    }
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def small_sim_config(tmp_path, extra=None):
    cfg = {
        "model": {"lambda": [1.0, 4.0], "alpha": [0.5, 0.5],
                  "q": [[0.0, 1.0], [1.0, 0.0]]},
        "horizon": {"T": 0.1, "r": 0.0},
        "sim": {"dt": 1e-2, "n_particles": 500, "checkpoints": [0.1], "seed": 5},
        "initial": {"kind": "point", "x": 0.0},
        "output_dir": str(tmp_path / "sim"),
    }
    if extra:
        cfg.update(extra)
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    return path


# the line check-c prints and its exit code per (lambda, method); "{out}" is
# the points CSV
CHECK_C_VERDICTS = [
    ("1,9", "diag", "diagonal criterion: SATISFIED", 0),
    ("1,9", "gamma", "supplied gamma: SATISFIED", 0),
    ("1,9", "grid", "degenerate multiset, decided by identity: SATISFIED", 0),
    ("1,1,4", "d3", "d3 criterion: lhs = inf vs 1/4 -> SATISFIED", 0),
    ("1,1,4", "diag", "diagonal criterion: SATISFIED", 0),
    ("1,1,4", "gamma", "supplied gamma: SATISFIED", 0),
    ("1,1,4", "grid", "degenerate multiset, decided by d3: SATISFIED", 0),
    ("2,2,2", "d3", "d3 criterion: lhs = inf vs 1/4 -> SATISFIED", 0),
    ("2,2,2", "diag", "diagonal criterion: SATISFIED", 0),
    ("2,2,2", "gamma", "supplied gamma: SATISFIED", 0),
    ("2,2,2", "grid", "degenerate multiset, decided by identity: SATISFIED", 0),
    ("1,2,3,5,10", "diag", "diagonal criterion: SATISFIED", 0),
    ("1,2,3,5,10", "gamma", "supplied gamma: SATISFIED", 0),
    ("1,2,3,5,10", "grid", "SATISFIED: 31406 passing points at n=200 -> {out}", 0),
    ("1,100,10000", "d3", "d3 criterion: lhs = 0.0122234 vs 1/4 -> NOT-SATISFIED", 1),
    ("1,100,10000", "diag", "diagonal criterion: NOT-SATISFIED (sufficient test only)", 1),
    ("1,100,10000", "gamma", "supplied gamma: NOT-SATISFIED", 1),
    ("1,100,10000", "grid", "NOT-FOUND(n=200); exact d=3 criterion says NOT-SATISFIED", 1),
    ("1,100,10000,1000000", "grid",
     "NOT-FOUND(n=200): no passing point at this resolution (not a disproof)", 1),
]


class TestCheckC:
    @pytest.mark.parametrize("lam,method,line,code", CHECK_C_VERDICTS)
    def test_verdict_line_and_code(self, tmp_path, capsys, lam, method, line, code):
        d = lam.count(",") + 1
        gamma = tmp_path / "gamma.json"
        gamma.write_text(json.dumps(np.eye(d).tolist()))
        out = tmp_path / "points.csv"
        argv = ["check-c", "--lambda", lam, "--method", method, "--out", str(out),
                "--alpha", ",".join(["1"] * d), "--gamma", str(gamma)]
        assert cli.main(argv) == code
        assert capsys.readouterr().out == line.format(out=out) + "\n"

    def test_grid_satisfied(self, tmp_path):
        out = tmp_path / "points.csv"
        code = cli.main(["check-c", "--lambda", "1,2,3,5,10",
                         "--method", "grid", "--n", "60", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "x,y"
        assert len(rows) > 1

    def test_d3_not_satisfied(self):
        assert cli.main(["check-c", "--lambda", "1,100,10000", "--method", "d3"]) == 1

    def test_identity_d2(self):
        # --method diag without --alpha is the identity criterion
        assert cli.main(["check-c", "--lambda", "1,1", "--method", "diag"]) == 0

    @pytest.mark.parametrize("lam", ["1,9", "1,1,4", "2,2,2", "1,2,3,5,10", "1,100,10000"])
    def test_diag_without_alpha_is_the_unit_diagonal(self, capsys, lam):
        argv = ["check-c", "--lambda", lam, "--method", "diag"]
        code = cli.main(argv)
        line = capsys.readouterr().out
        assert cli.main(argv + ["--alpha", ",".join(["1"] * (lam.count(",") + 1))]) == code
        assert capsys.readouterr().out == line

    def test_identity_method_is_gone(self, capsys):
        assert cli.main(["check-c", "--lambda", "1,9", "--method", "identity"]) == 2
        assert "invalid choice: 'identity'" in capsys.readouterr().err

    def test_grid_empty_set_for_d3_reports_exact_answer(self, tmp_path):
        out = tmp_path / "p.csv"
        code = cli.main(["check-c", "--lambda", "1,100,10000",
                         "--method", "grid", "--n", "50", "--out", str(out)])
        assert code == 1

    def test_diag_method(self):
        code = cli.main(["check-c", "--lambda", "1,2,4", "--method", "diag",
                         "--alpha", "4.1213,1.9428,4.1213"])
        assert code == 0
        assert cli.main(["check-c", "--lambda", "1,2,3", "--method", "diag",
                         "--alpha", "1,nan,2"]) == 2

    def test_gamma_method(self, tmp_path):
        gfile = tmp_path / "gamma.json"
        gfile.write_text(json.dumps(np.eye(2).tolist()))
        assert cli.main(["check-c", "--lambda", "1,9", "--method", "gamma",
                         "--gamma", str(gfile)]) == 0

    @pytest.mark.parametrize("gamma", [{"a": 1}, "x", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
                             ids=["object", "string", "not-square"])
    def test_bad_gamma_file(self, tmp_path, capsys, gamma):
        gfile = tmp_path / "gamma.json"
        gfile.write_text(json.dumps(gamma))
        assert cli.main(["check-c", "--lambda", "1,9", "--method", "gamma",
                         "--gamma", str(gfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid gamma matrix: ") and err.count("\n") == 1

    def test_invalid_lambda(self):
        assert cli.main(["check-c", "--lambda", "1,-2", "--method", "diag"]) == 2
        # a model may have one regime, but Condition (C) needs two
        assert cli.main(["check-c", "--lambda", "2", "--method", "diag"]) == 2

    def test_grid_d2_writes_header_only_points(self, tmp_path):
        out = tmp_path / "points.csv"
        code = cli.main(["check-c", "--lambda", "1,9", "--method", "grid",
                         "--out", str(out)])
        assert code == 0
        assert out.read_text() == "x,y\n"


class TestSolveCommands:
    def test_solve_fbm_outputs(self, tmp_path, capsys):
        cfg = small_solve_config(tmp_path)
        assert cli.main(["solve-fbm", str(cfg)]) == 0
        out = tmp_path / "out"
        meta = json.loads((out / "fbm_metadata.json").read_text())
        assert meta["diagnostics"]["heat_l1_max"] <= 5e-3
        step_min = meta["diagnostics"]["step_min_value"]
        assert step_min <= min(meta["diagnostics"]["min_value"])
        assert capsys.readouterr().out.endswith(f", step min {step_min:.3g})\n")
        assert len(meta["snapshots"]) == 3
        snap = (out / meta["snapshots"][-1]["file"]).read_text().splitlines()
        assert snap[0] == "x,p_1,p_2,sum,heat_ref"

    @staticmethod
    def overflowing_rslv_config(tmp_path):
        # r = 1e30 drives the coefficient field to NaN within a few steps
        cfg = json.loads((CONFIGS / "rslv_flat.json").read_text())
        cfg["horizon"]["r"] = 1e30
        cfg["grid"]["m"] = 201
        cfg["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "rslv.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_non_finite_system_is_a_numerical_failure(self, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["solve-rslv", self.overflowing_rslv_config(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: the linear system is no longer finite")

    def test_non_finite_system_prints_no_numpy_warnings(self, tmp_path, capsys):
        path = self.overflowing_rslv_config(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve-rslv", path]) == 3
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("command,config,section,key,value", [
        ("solve-rslv", "rslv_flat.json", "horizon", "r", 1e300),
        ("solve-rslv", "rslv_flat.json", "horizon", "r", -1e300),
        ("solve-fbm", "fbm_d2.json", "grid", "L", 1e300)],
        ids=["rate-1e300", "rate-minus-1e300", "width-1e300"])
    def test_extreme_input_fails_without_numpy_warnings(self, tmp_path, capsys, command,
                                                       config, section, key, value):
        cfg = json.loads((CONFIGS / config).read_text())
        cfg[section][key] = value
        cfg["grid"]["m"] = 201
        cfg["output_dir"] = str(tmp_path / "out")
        path = tmp_path / config
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_heat_reference_of_an_unmollified_tabulated_start(self, tmp_path):
        # a hat on the grid nodes lies in the finite-element space, so its
        # projection is exact, and at t = 0 the reference is that same hat
        cfg = small_solve_config(tmp_path, extra={
            "pds": {"dt": 2e-3, "sigma_mollify": 0.0, "n_outputs": 3},
            "initial": {"kind": "tabulated", "x": [-1.0, 0.0, 1.0], "density": [0.0, 1.0, 0.0]}})
        assert cli.main(["solve-fbm", str(cfg)]) == 0
        rows = np.loadtxt(tmp_path / "out" / "fbm_0000.csv", delimiter=",", skiprows=1)
        assert rows[:, -2].max() == pytest.approx(1.0)
        np.testing.assert_allclose(rows[:, -1], rows[:, -2], rtol=0, atol=1e-12)

    def test_heat_reference_is_evaluated_once_per_output(self, tmp_path, monkeypatch):
        calls = []
        density_on = Measure.density_on
        monkeypatch.setattr(Measure, "density_on",
                            lambda self, *a: calls.append(a) or density_on(self, *a))
        assert cli.main(["solve-fbm", str(small_solve_config(tmp_path))]) == 0
        # the start's projection, then one reference per output time (3)
        assert len(calls) == 1 + 3

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_solve_config(tmp_path)
        assert cli.main(["solve-fbm", str(cfg)]) == 0
        first = (tmp_path / "out" / "fbm_0002.csv").read_bytes()
        assert cli.main(["solve-fbm", str(cfg)]) == 0
        assert (tmp_path / "out" / "fbm_0002.csv").read_bytes() == first

    def test_solve_lv_needs_surface(self, tmp_path):
        cfg = small_solve_config(tmp_path, extra={"model": ONE_REGIME})
        assert cli.main(["solve-rslv", str(cfg)]) == 2

    def test_solve_lv_with_surface(self, tmp_path):
        cfg = small_solve_config(tmp_path, extra={
            "model": ONE_REGIME, "surface": {"kind": "constant", "value": 0.4}})
        assert cli.main(["solve-rslv", str(cfg)]) == 0

    def test_one_lambda_solve_fbm_is_the_heat_equation(self, tmp_path):
        # E[f^2(Y) | X] = lambda, so the level cancels and the sum is the heat flow
        cfg = small_solve_config(tmp_path, extra={"model": {"lambda": [2.0], "alpha": [1.0]}})
        assert cli.main(["solve-fbm", str(cfg)]) == 0
        meta = json.loads((tmp_path / "out" / "fbm_metadata.json").read_text())
        assert meta["diagnostics"]["heat_l1_max"] <= HEAT_L1_TOL
        snap = (tmp_path / "out" / meta["snapshots"][-1]["file"]).read_text().splitlines()
        assert snap[0] == "x,p_1,sum,heat_ref"

    def test_missing_config(self):
        assert cli.main(["solve-fbm", "no-such-file.json"]) == 2

    def test_invalid_model_section(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"lambda": [], "alpha": []},
                                    "horizon": {"T": 1.0},
                                    "grid": {"L": 5.0, "m": 101},
                                    "pds": {"dt": 1e-3}}))
        assert cli.main(["solve-fbm", str(path)]) == 2


class TestSimulateCommands:
    def test_simulate_fbm_outputs(self, tmp_path):
        cfg = small_sim_config(tmp_path)
        assert cli.main(["simulate-fbm", str(cfg)]) == 0
        out = tmp_path / "sim"
        rows = (out / "checkpoint_00.csv").read_text().splitlines()
        assert rows[0] == "particle_id,X,Y,qv"
        assert len(rows) == 501
        diag = json.loads((out / "simulate_fbm_diagnostics.json").read_text())
        assert diag["n_particles"] == 500
        assert tuple(diag["phase_s"]) == PHASES

    def test_checkpoint_defaults_to_the_horizon(self, tmp_path):
        cfg = small_sim_config(tmp_path, extra={
            "sim": {"dt": 1e-2, "n_particles": 500, "seed": 5}})      # T = 0.1
        assert cli.main(["simulate-fbm", str(cfg)]) == 0
        out = tmp_path / "sim"
        diag = json.loads((out / "simulate_fbm_diagnostics.json").read_text())
        assert diag["times"] == [0.1]
        assert len((out / "checkpoint_00.csv").read_text().splitlines()) == 501

    def test_simulate_rerun_identical_rows(self, tmp_path):
        cfg = small_sim_config(tmp_path)
        assert cli.main(["simulate-fbm", str(cfg)]) == 0
        first = (tmp_path / "sim" / "checkpoint_00.csv").read_bytes()
        assert cli.main(["simulate-fbm", str(cfg)]) == 0
        assert (tmp_path / "sim" / "checkpoint_00.csv").read_bytes() == first

    def test_simulate_rslv_prices(self, tmp_path):
        cfg = small_sim_config(tmp_path, extra={
            "surface": {"kind": "constant", "value": 0.2},
            "strikes": [0.9, 1.0, 1.1]})
        assert cli.main(["simulate-rslv", str(cfg)]) == 0
        rows = (tmp_path / "sim" / "prices.csv").read_text().splitlines()
        assert rows[0] == "K,price,stderr"
        assert len(rows) == 4

    def test_prices_are_discounted_to_the_last_checkpoint(self, tmp_path):
        cfg = small_sim_config(tmp_path, extra={
            "horizon": {"T": 1.0, "r": 0.05},
            "sim": {"dt": 1e-2, "n_particles": 500, "checkpoints": [0.01], "seed": 5},
            "surface": {"kind": "constant", "value": 0.2},
            "strikes": [1.0]})
        assert cli.main(["simulate-rslv", str(cfg)]) == 0
        out = tmp_path / "sim"
        diag = json.loads((out / "simulate_rslv_diagnostics.json").read_text())
        assert diag["times"] == [0.01] and diag["prices_time"] == 0.01
        x = np.loadtxt(out / "checkpoint_00.csv", delimiter=",", skiprows=1)[:, 1]
        expected = math.exp(-0.05 * 0.01) * np.maximum(np.exp(x) - 1.0, 0.0).mean()
        price = np.loadtxt(out / "prices.csv", delimiter=",", skiprows=1)[1]
        assert price == pytest.approx(expected, rel=1e-12)

    def test_infinite_rate_is_a_config_error(self, tmp_path, capsys):
        cfg = small_sim_config(tmp_path, extra={
            "horizon": {"T": 0.1, "r": float("inf")},
            "surface": {"kind": "constant", "value": 0.2}})
        assert cli.main(["simulate-rslv", str(cfg)]) == 2
        assert "rate must be finite" in capsys.readouterr().err

    def test_overflowing_spread_is_a_numerical_failure(self, tmp_path, capsys):
        # each step moves every particle by r * dt = 1e306, so the ensemble
        # mean overflows at the second step
        cfg = small_sim_config(tmp_path, extra={
            "horizon": {"T": 0.1, "r": 1e308},
            "surface": {"kind": "constant", "value": 0.2}})
        assert cli.main(["simulate-rslv", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "spread is no longer finite (step 2)" in err

    def test_overflowing_positions_are_a_numerical_failure(self, tmp_path, capsys):
        # one step of r * dt = 2e308 leaves every position infinite
        cfg = small_sim_config(tmp_path, extra={
            "model": {"lambda": [1.0, 4.0], "alpha": [0.5, 0.5]},
            "horizon": {"T": 2.0, "r": 1e308},
            "sim": {"dt": 2.0, "n_particles": 500, "checkpoints": [2.0], "seed": 5},
            "surface": {"kind": "constant", "value": 0.2}})
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["simulate-rslv", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "positions are no longer finite (step 1)" in err

    @pytest.mark.parametrize("command,horizon,dt,message", [
        ("simulate-rslv", {"T": 0.01, "r": -1e30}, 0.01, "call prices discounted at r = -1e+30"),
        ("simulate-rslv", {"T": 0.01, "r": 1e30}, 0.01, "call prices discounted at r = 1e+30"),
        ("simulate-fbm", {"T": 1e300, "r": 0.0}, 1e299, "spread of the quadratic variation"),
        # 1e15 steps: nothing may be allocated per step before the first one
        ("simulate-rslv", {"T": 1e300, "r": 1e300}, 1e285, "positions are no longer finite")],
        ids=["discount-overflows", "spot-overflows", "qv-spread-overflows",
             "drift-overflows-among-1e15-steps"])
    def test_overflowing_record_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch,
                                                       command, horizon, dt, message):
        cfg = small_sim_config(tmp_path, extra={
            "model": {"lambda": [1.0, 4.0], "alpha": [0.5, 0.5]}, "horizon": horizon,
            "sim": {"dt": dt, "n_particles": 500, "seed": 5},
            "surface": {"kind": "constant", "value": 0.2}, "strikes": [1.0]})
        # each failure comes within 10 steps; a run that goes on fails after 100
        # steps instead of running through all 1e15
        steps = []

        def bounded(*args):
            steps.append(None)
            if len(steps) > 100:
                pytest.fail("no numerical failure within 100 steps")
            return cond_expect_f2(*args)
        monkeypatch.setattr(particles, "cond_expect_f2", bounded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "sim").exists()

    def test_jump_step_bound_is_a_config_error(self, tmp_path):
        cfg = small_sim_config(tmp_path)
        data = json.loads(cfg.read_text())
        data["model"]["q"] = [[0.0, 200.0], [200.0, 0.0]]
        cfg.write_text(json.dumps(data))
        assert cli.main(["simulate-fbm", str(cfg)]) == 2

    def test_jump_step_bound_holds_at_the_step_dt(self, tmp_path, capsys):
        # dt = 0.4 on T = 1 steps at 0.5, where the leaving probability 2.2 * dt is 1.1
        cfg = small_sim_config(tmp_path, extra={
            "model": {"lambda": [1.0, 4.0], "alpha": [0.5, 0.5],
                      "q": [[0.0, 2.2], [2.2, 0.0]]},
            "horizon": {"T": 1.0, "r": 0.0},
            "sim": {"dt": 0.4, "n_particles": 500, "seed": 5}})
        assert cli.main(["simulate-fbm", str(cfg)]) == 2
        assert "one-switch thinning (step dt = 0.5)" in capsys.readouterr().err

    @staticmethod
    def unit_rate_d3_config(tmp_path, dt):
        """simulate-fbm on a d = 3 Q with unit off-diagonal rates, each regime
        leaving at rate 2, in two steps of dt."""
        return small_sim_config(tmp_path, extra={
            "model": {"lambda": [1.0, 2.0, 4.0], "alpha": [0.4, 0.3, 0.3],
                      "q": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]},
            "horizon": {"T": 2 * dt, "r": 0.0},
            "sim": {"dt": dt, "n_particles": 500, "seed": 5}})

    def test_step_leaving_with_probability_below_one_runs(self, tmp_path):
        # each step leaves a regime with probability 2 * 0.3 = 0.6, below 1
        cfg = self.unit_rate_d3_config(tmp_path, 0.3)
        assert cli.main(["simulate-fbm", str(cfg)]) == 0
        diag = json.loads((tmp_path / "sim" / "simulate_fbm_diagnostics.json").read_text())
        assert diag["times"] == [0.6]

    @pytest.mark.parametrize("dt", [0.5, 1.0])
    def test_step_leaving_with_probability_one_is_refused(self, tmp_path, capsys, dt):
        # the leaving probability 2 * dt is 1 at dt = 0.5 and 2 at dt = 1
        cfg = self.unit_rate_d3_config(tmp_path, dt)
        assert cli.main(["simulate-fbm", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"one-switch thinning (step dt = {dt})" in err
        assert not (tmp_path / "sim").exists()

    def test_checkpoint_y_column_is_the_paper_numbering(self, tmp_path, monkeypatch):
        # the CSV writes regimes 1..d, the recorded 0..d-1 state plus one
        runs = []

        def recorded(*args, **kwargs):
            runs.append(particles.simulate(*args, **kwargs))
            return runs[-1]
        monkeypatch.setattr(cli, "simulate", recorded)
        cfg = self.unit_rate_d3_config(tmp_path, 0.01)
        assert cli.main(["simulate-fbm", str(cfg)]) == 0
        rows = np.loadtxt(tmp_path / "sim" / "checkpoint_00.csv", delimiter=",",
                          skiprows=1)
        y = rows[:, 2]
        assert np.unique(y).tolist() == [1.0, 2.0, 3.0]
        np.testing.assert_array_equal(y, runs[0].Y[0] + 1)

    def test_refused_run_leaves_no_output_directory(self, tmp_path):
        # the thinning bound refuses this run inside simulate, after the
        # config has been read; the directory is made only for the outputs
        cfg = small_sim_config(tmp_path, extra={
            "model": {"lambda": [1.0, 4.0], "alpha": [0.5, 0.5],
                      "q": [[0.0, 2.2], [2.2, 0.0]]},
            "horizon": {"T": 1.0, "r": 0.0},
            "sim": {"dt": 0.4, "n_particles": 500, "seed": 5}})
        assert cli.main(["simulate-fbm", str(cfg)]) == 2
        assert not (tmp_path / "sim").exists()


MASSLESS_MIXTURE = {"kind": "mixture", "xs": [-1.0, 1.0], "weights": [0.0, 0.0]}
MASSLESS_DENSITY = {"kind": "tabulated", "x": [-1.0, 0.0, 1.0], "density": [0.0, 0.0, 0.0]}
NAN_SURFACE_VALUE = {"kind": "tabulated", "t": [0.0], "x": [-1.0, 0.0, 1.0],
                     "values": [[0.2, math.nan, 0.2]]}
NAN_SURFACE_NODE = {"kind": "tabulated", "t": [0.0], "x": [-1.0, math.nan, 1.0],
                    "values": [[0.2, 0.2, 0.2]]}
# the surface files next to each config of test_bad_section_is_a_config_error
SURFACE_FILES = {"surface.json": {"kind": "constant", "value": 0.2},
                 "typo.json": {"kind": "constant", "value": 0.2, "sigma_lo": 0.3}}
Q_TABLE = {"x": [0.0, 1.0], "rates": [[[0.0, 1.0], [1.0, 0.0]]] * 2}

# (run, section, entries merged into it; the section is made if the base
# config has none, and entries that name a kind or are no dict replace it):
# each one is a config error.  A run is named as in RUNS
BAD_SECTIONS = [
    pytest.param("solve-fbm", "pds", {"dt": None}, id="pds-null"),
    pytest.param("solve-fbm", "pds", {"dt": [2e-3]}, id="pds-list"),
    pytest.param("solve-fbm", "pds", {"mass_lumping": True}, id="pds-unknown-key"),
    pytest.param("solve-fbm", "pds", {"eps_reg": 1e-12}, id="pds-retired-eps-reg"),
    pytest.param("solve-fbm", "pds", {"output_times": [0.055]}, id="pds-off-grid-time"),
    pytest.param("solve-fbm", "pds", {"output_times": [0.1, 5.0]}, id="pds-time-past-T"),
    pytest.param("solve-fbm", "pds", {"output_times": []}, id="pds-empty-output-times"),
    pytest.param("solve-fbm", "model", {"Q": [[0.0, 1.0], [1.0, 0.0]]},
                 id="model-unknown-key"),
    pytest.param("solve-fbm", "model", {"lambda": [[1.0, 4.0]]}, id="model-nested-lambda"),
    pytest.param("solve-fbm", "model", {"lambda": []}, id="model-empty-lambda"),
    pytest.param("solve-fbm", "horizon", {"R": 0.05}, id="horizon-unknown-key"),
    pytest.param("solve-fbm", "grid", {"L": None}, id="grid-null"),
    pytest.param("solve-fbm", "grid", {"L": [6]}, id="grid-list"),
    pytest.param("solve-fbm", "grid", {"nodes": 101}, id="grid-unknown-key"),
    pytest.param("solve-fbm", "initial", {"x": float("inf")}, id="solve-infinite-point"),
    pytest.param("simulate-fbm", "sim", {"dt": None}, id="sim-null"),
    pytest.param("simulate-fbm", "sim", {"n_particles": [500]}, id="sim-list"),
    pytest.param("simulate-fbm", "sim", {"n_particle": 500}, id="sim-unknown-key"),
    pytest.param("simulate-fbm", "sim", {"checkpoints": [0.055]}, id="sim-off-grid-time"),
    pytest.param("simulate-fbm", "sim", {"checkpoints": [5.0]}, id="sim-time-past-T"),
    pytest.param("simulate-fbm", "sim", {"bandwidth_c": 0.0}, id="sim-zero-bandwidth"),
    pytest.param("simulate-fbm", "sim", {"checkpoints": []}, id="sim-empty-checkpoints"),
    pytest.param("solve-fbm", "pds", {"n_outputs": 1}, id="pds-one-output"),
    pytest.param("solve-fbm", "pds", {"n_outputs": -3}, id="pds-negative-outputs"),
    pytest.param("simulate-fbm", "initial", {"x": float("inf")},
                 id="simulate-infinite-point"),
    pytest.param("solve-jump", "model", {"q": [[0.0, math.nan], [1.0, 0.0]]},
                 id="solve-jump-nan-rate"),
    pytest.param("simulate-jump", "model", {"q": [[0.0, math.nan], [1.0, 0.0]]},
                 id="simulate-jump-nan-rate"),
    pytest.param("simulate-jump", "model",
                 {"q": {"x": [0.0, math.nan], "rates": [[[0.0, 1.0], [1.0, 0.0]]] * 2}},
                 id="simulate-jump-nan-node"),
    pytest.param("solve-fbm", "pds", {"sigma_mollify": math.nan}, id="pds-nan-mollify"),
    pytest.param("solve-fbm", "pds", {"sigma_mollify": math.inf},
                 id="pds-infinite-mollify"),
    pytest.param("solve-fbm", "grid", {"L": math.inf}, id="grid-infinite-width"),
    pytest.param("solve-fbm", "initial", MASSLESS_MIXTURE, id="solve-massless-mixture"),
    pytest.param("solve-fbm", "initial", MASSLESS_DENSITY, id="solve-massless-density"),
    pytest.param("simulate-fbm", "initial", MASSLESS_MIXTURE,
                 id="simulate-massless-mixture"),
    pytest.param("simulate-fbm", "initial", MASSLESS_DENSITY,
                 id="simulate-massless-density"),
    pytest.param("solve-fbm", "initial",
                 {"kind": "mixture", "xs": [-0.5, 0.5], "weights": [1e308, 1e308]},
                 id="initial-mass-overflows"),
    pytest.param("solve-lv", "surface", NAN_SURFACE_VALUE, id="solve-lv-nan-surface-value"),
    pytest.param("simulate-rslv", "surface", NAN_SURFACE_NODE,
                 id="simulate-rslv-nan-surface-node"),
    pytest.param("solve-lv", "surface", {"kind": "tabulated", "t": [0.0, 1e-310],
                                         "x": [0.0, 1.0], "values": [[0.2, 0.2], [0.3, 0.3]]},
                 id="surface-slope-overflows"),
    pytest.param("simulate-jump", "model",
                 {"q": {"x": [0.0, 1e-310],
                        "rates": [[[0.0, 1.0], [1.0, 0.0]], [[0.0, 2.0], [2.0, 0.0]]]}},
                 id="q-table-slope-overflows"),
    pytest.param("solve-jump", "model", {"q": [[0.0, 1e308, 1e308], [1.0, 0.0, 1.0],
                                              [1.0, 1.0, 0.0]],
                                        "lambda": [1.0, 4.0, 9.0], "alpha": [0.4, 0.3, 0.3]},
                 id="q-leaving-rate-overflows"),
    pytest.param("solve-lv", "surface", {"kind": "constant", "value": 0.2, "sigma_hi": 0.1},
                 id="surface-unknown-key"),
    pytest.param("solve-lv", "surface", {"file": "surface.json", "sigma_high": 0.1},
                 id="surface-file-not-alone"),
    pytest.param("solve-lv", "surface", {"file": "typo.json"}, id="surface-file-unknown-key"),
    pytest.param("solve-lv", "surface", {"kind": ["constant"], "value": 0.2},
                 id="surface-kind-not-a-string"),
    pytest.param("solve-fbm", "initial",
                 {"kind": "mixture", "xs": [0.0], "weights": [1.0], "x": 0.5},
                 id="initial-mixture-stray-x"),
    pytest.param("solve-fbm", "initial", {"weight": 5}, id="initial-point-unknown-key"),
    pytest.param("solve-fbm", "initial", ["point"], id="initial-not-a-dict"),
    pytest.param("solve-fbm", "initial", {"kind": ["point"], "x": 0.0},
                 id="initial-kind-not-a-string"),
    pytest.param("simulate-jump", "model", {"q": {**Q_TABLE, "y": [0.0, 1.0]}},
                 id="q-table-unknown-key"),
    pytest.param("simulate-jump", "model", {"q": {"rates": Q_TABLE["rates"]}},
                 id="q-table-without-nodes"),
    pytest.param("solve-fbm", "grid", {"m": math.inf}, id="grid-infinite-nodes"),
    # a count has a whole value, and a number is never a string or a boolean
    pytest.param("solve-fbm", "grid", {"m": 101.9}, id="grid-fractional-nodes"),
    pytest.param("solve-fbm", "grid", {"m": "101"}, id="grid-string-nodes"),
    pytest.param("solve-fbm", "pds", {"n_outputs": 2.7}, id="pds-fractional-outputs"),
    pytest.param("simulate-fbm", "sim", {"n_particles": 500.5},
                 id="sim-fractional-particles"),
    pytest.param("simulate-fbm", "sim", {"seed": 5.5}, id="sim-fractional-seed"),
    pytest.param("simulate-fbm", "sim", {"seed": True}, id="sim-boolean-seed"),
    pytest.param("solve-fbm", "horizon", {"T": "0.2"}, id="horizon-string-T"),
    pytest.param("solve-fbm", "horizon", {"r": False}, id="horizon-boolean-r"),
    pytest.param("solve-fbm", "pds", {"dt": "2e-3"}, id="pds-string-dt"),
    pytest.param("solve-fbm", "initial", {"x": "0"}, id="initial-string-x"),
    pytest.param("solve-fbm", "model", {"lambda": ["1", "4"]}, id="model-string-levels"),
    pytest.param("solve-jump", "model", {"q": [[0.0, "1"], [1.0, 0.0]]},
                 id="model-string-rate"),
    pytest.param("simulate-fbm", "sim", {"checkpoints": ["0.1"]},
                 id="sim-string-checkpoint"),
    pytest.param("solve-fbm", "initial",
                 {"kind": "mixture", "xs": [-0.5, 0.5], "weights": [True, 1.0]},
                 id="initial-boolean-weight"),
    pytest.param("solve-lv", "surface", {"kind": "constant", "value": "0.2"},
                 id="surface-string-value"),
    # retired keys: every point has unit mass, and the regression grid 400 nodes
    pytest.param("solve-fbm", "initial", {"mass": 1.0}, id="initial-point-retired-mass"),
    pytest.param("simulate-fbm", "sim", {"regression_grid": 400},
                 id="sim-retired-regression-grid"),
]


@pytest.mark.parametrize("run,section,entries", BAD_SECTIONS)
def test_bad_section_is_a_config_error(tmp_path, capsys, run, section, entries):
    command, _, _, one_regime = RUNS[run]
    make = small_solve_config if command.startswith("solve") else small_sim_config
    path = make(tmp_path)
    for name, surface in SURFACE_FILES.items():
        (tmp_path / name).write_text(json.dumps(surface))
    cfg = json.loads(path.read_text())
    if one_regime:
        cfg["model"] = dict(ONE_REGIME)
    if isinstance(entries, dict) and "kind" not in entries:
        cfg.setdefault(section, {}).update(entries)
    else:
        cfg[section] = entries
    path.write_text(json.dumps(cfg))
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# a start whose weights do not sum to 1, and the share of its law above 0
UNNORMALISED_STARTS = [
    pytest.param({"kind": "mixture", "xs": [-0.5, 0.5], "weights": [0.1, 0.2]}, 2 / 3,
                 id="mixture"),
    pytest.param({"kind": "tabulated", "x": [-1.0, 0.0, 1.0], "density": [0.0, 3.0, 0.0]},
                 1 / 2, id="tabulated"),
]


@pytest.mark.parametrize("initial,share", UNNORMALISED_STARTS)
def test_grid_and_particles_start_from_one_probability(tmp_path, initial, share):
    cfg = small_solve_config(tmp_path, extra={"initial": initial})
    assert cli.main(["solve-fbm", str(cfg)]) == 0
    meta = json.loads((tmp_path / "out" / "fbm_metadata.json").read_text())
    assert meta["times"][0] == 0.0
    assert abs(sum(meta["diagnostics"]["masses"][0]) - 1.0) <= 1e-12
    # the heat reference is the same unit law
    rows = np.loadtxt(tmp_path / "out" / "fbm_0000.csv", delimiter=",", skiprows=1)
    assert np.trapezoid(rows[:, -1], rows[:, 0]) == pytest.approx(1.0, abs=1e-9)
    sim = small_sim_config(tmp_path, extra={"initial": initial, "sim": {
        "dt": 1e-2, "n_particles": 2000, "checkpoints": [0.0, 0.1], "seed": 5}})
    assert cli.main(["simulate-fbm", str(sim)]) == 0
    x0 = np.loadtxt(tmp_path / "sim" / "checkpoint_00.csv", delimiter=",", skiprows=1)[:, 1]
    assert abs((x0 > 0).mean() - share) <= 4 * math.sqrt(share * (1 - share) / x0.size)


def contract_config(tmp_path, q, surface, one_regime=False):
    """One config that every solve-* and simulate-* command can read."""
    model = ONE_REGIME if one_regime else {"lambda": [1.0, 4.0], "alpha": [0.5, 0.5]}
    if q:
        model = {**model, "q": [[0.0, 1.0], [1.0, 0.0]]}
    cfg = {
        "model": model,
        "horizon": {"T": 0.1, "r": 0.0},
        "grid": {"L": 5.0, "m": 101},
        "pds": {"dt": 1e-2, "sigma_mollify": 0.3, "n_outputs": 2},
        "sim": {"dt": 1e-2, "n_particles": 500, "checkpoints": [0.0, 0.1], "seed": 5},
        "output_dir": str(tmp_path / "out"),
    }
    if surface:
        cfg["surface"] = {"kind": "constant", "value": 0.2}
    path = tmp_path / "contract.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# each dynamics that a run command reaches, named <solver>-<dynamics>, as
# (command, model has q, config has a surface, one-regime model): jump is fbm
# with regime switching, and lv is the one-regime rslv model, Dupire's local
# volatility
RUNS = {
    "solve-fbm": ("solve-fbm", False, False, False),
    "solve-jump": ("solve-fbm", True, False, False),
    "solve-rslv": ("solve-rslv", False, True, False),
    "solve-lv": ("solve-rslv", False, True, True),
    "simulate-fbm": ("simulate-fbm", False, False, False),
    "simulate-jump": ("simulate-fbm", True, False, False),
    "simulate-rslv": ("simulate-rslv", True, True, False),
}

# (run, model has q, config has a surface, exit code), a run named as in RUNS:
# the config picks the dynamics, a *-rslv command needs a surface and a *-fbm
# one never reads it; the jump and lv runs are reached through their commands
CONTRACT = [(command, q, surface, 2 if command.endswith("rslv") and not surface else 0)
            for command in ("solve-fbm", "solve-rslv", "simulate-fbm", "simulate-rslv")
            for q in (False, True) for surface in (False, True)]
CONTRACT += [("simulate-jump", True, False, 0), ("solve-lv", False, True, 0)]


def record_name(command: str) -> str:
    """The JSON file in which a run of ``command`` records itself."""
    verb, kind = command.split("-", 1)
    return f"{kind}_metadata.json" if verb == "solve" else f"simulate_{kind}_diagnostics.json"


def snapshot_csvs(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("run,q,surface,code", CONTRACT)
def test_command_config_contract(tmp_path, capsys, run, q, surface, code):
    command, *_, one_regime = RUNS[run]
    path = contract_config(tmp_path, q, surface, one_regime)
    assert cli.main([command, path]) == code
    if code:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    out = tmp_path / "out"
    record = json.loads((out / record_name(command)).read_text())
    assert record["run"]["command"] == command
    assert record["run"]["config"] == os.path.abspath(path)
    assert record["run"]["config_data"] == json.loads(Path(path).read_text())
    assert "timestamp" in record["run"] and "timestamp" not in record
    if command.startswith("simulate"):
        y0, y1 = (np.loadtxt(out / f"checkpoint_{k:02d}.csv", delimiter=",",
                             skiprows=1)[:, 2] for k in (0, 1))
        # the regimes switch exactly when the model has q
        assert np.array_equal(y0, y1) == (not q)
    if command.endswith("fbm") and surface:
        # the same run without the surface writes the same files
        without = tmp_path / "without"
        assert cli.main([command, contract_config(tmp_path, q, False, one_regime),
                         "--out", str(without)]) == 0
        assert snapshot_csvs(out) == snapshot_csvs(without)


@pytest.mark.parametrize("command", ["solve-fbm", "simulate-fbm"])
def test_one_node_q_is_the_constant_q(tmp_path, command):
    path = Path(contract_config(tmp_path, True, False))
    cfg = json.loads(path.read_text())
    constant = cfg["model"]["q"]
    outputs = []
    for q in (constant, {"x": [0.3], "rates": [constant]}):
        out = tmp_path / f"out-{len(outputs)}"
        cfg["model"]["q"] = q
        path.write_text(json.dumps(cfg))
        assert cli.main([command, str(path), "--out", str(out)]) == 0
        outputs.append(snapshot_csvs(out))
    assert outputs[0] and outputs[0] == outputs[1]


def test_zero_q_is_no_switching(tmp_path):
    path = Path(contract_config(tmp_path, False, False))
    cfg = json.loads(path.read_text())
    model = cfg["model"]
    outputs = {}
    # no q, a null q and the zero Q
    for k, q in enumerate(({}, {"q": None}, {"q": [[0.0, 0.0], [0.0, 0.0]]})):
        cfg["model"] = {**model, **q}
        path.write_text(json.dumps(cfg))
        for command in ("solve-fbm", "simulate-fbm"):
            out = tmp_path / f"{command}-{k}"
            assert cli.main([command, str(path), "--out", str(out)]) == 0
            outputs.setdefault(command, []).append(snapshot_csvs(out))
    for first, *rest in outputs.values():
        assert first and rest == [first, first]


# each key that asks for an array far larger than any memory: numpy refuses
# 1e15 elements, 8 PB, beyond any address space, before it touches memory
# (sizes near 1e8-1e10 could allocate)
@pytest.mark.parametrize("command,section,key", [
    ("solve-fbm", "grid", "m"), ("solve-fbm", "pds", "n_outputs"),
    ("simulate-fbm", "sim", "n_particles")])
def test_allocation_that_cannot_succeed_is_a_config_error(tmp_path, capsys, command,
                                                          section, key):
    path = Path(contract_config(tmp_path, False, False))
    cfg = json.loads(path.read_text())
    cfg[section][key] = 10 ** 15
    path.write_text(json.dumps(cfg))
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve-fbm", "simulate-fbm"])
def test_integral_float_counts_are_their_ints(tmp_path, command):
    # JSON's 101.0 is the count 101: the same run, byte for byte
    path = Path(contract_config(tmp_path, False, False))
    cfg = json.loads(path.read_text())
    outputs = []
    for cast in (int, float):
        for section, key in (("grid", "m"), ("pds", "n_outputs"), ("sim", "n_particles"),
                             ("sim", "seed")):
            cfg[section][key] = cast(cfg[section][key])
        path.write_text(json.dumps(cfg))
        out = tmp_path / cast.__name__
        assert cli.main([command, str(path), "--out", str(out)]) == 0
        outputs.append(snapshot_csvs(out))
    assert outputs[0] and outputs[0] == outputs[1]


# one value a drawn config may take to an extreme, as (section, key, value):
# "step" is the dt of both pds and sim, and a huge T is split into ten steps
HOSTILE = [None, ("horizon", "r", 1e30), ("horizon", "r", -1e30), ("horizon", "r", 1e300),
           ("horizon", "r", -1e300), ("step", "dt", 5e-324), ("step", "dt", 1e-300),
           ("grid", "L", 1e-12), ("grid", "L", 1e300), ("horizon", "T", 1e300)]


@st.composite
def run_configs(draw, run, hostile):
    """A small config of the ``run`` in RUNS, with the ``hostile`` value, if any."""
    _, has_q, _, one_regime = RUNS[run]
    d = draw(st.integers(2, 3))
    levels = st.lists(st.floats(0.1, 4.0), min_size=d, max_size=d)
    weights = draw(levels)
    model = {"lambda": draw(levels), "alpha": [w / sum(weights) for w in weights]}

    def rates():
        return [[0.0 if i == j else draw(st.floats(0.0, 2.0)) for j in range(d)]
                for i in range(d)]

    q = draw(st.sampled_from(["none", "constant", "one-node", "tabulated"]))
    # jump always switches, fbm never does and lv has one regime; rslv draws any q
    if has_q and q == "none":
        q = "constant"
    if run.endswith(("fbm", "lv")):
        q = "none"
    if one_regime:
        model = dict(ONE_REGIME)
    elif q == "constant":
        model["q"] = rates()
    elif q == "one-node":
        model["q"] = {"x": [draw(st.floats(-1.0, 1.0))], "rates": [rates()]}
    elif q == "tabulated":
        model["q"] = {"x": [-0.5, 0.5], "rates": [rates(), rates()]}
    initial = draw(st.sampled_from([
        {"kind": "point", "x": 0.1},
        {"kind": "mixture", "xs": [-0.5, 0.5], "weights": [0.3, 0.7]},
        {"kind": "tabulated", "x": [-1.0, 0.0, 1.0], "density": [0.0, 1.0, 0.0]}]))
    T = draw(st.floats(0.01, 0.5))
    steps = draw(st.integers(1, 10))
    cfg = {"model": model, "horizon": {"T": T, "r": draw(st.floats(-0.1, 0.1))},
           "grid": {"L": draw(st.floats(1.0, 6.0)), "m": draw(st.integers(3, 41))},
           "pds": {"dt": T / steps, "sigma_mollify": draw(st.floats(0.05, 0.5)),
                   "n_outputs": 2},
           "sim": {"dt": T / steps, "n_particles": draw(st.integers(100, 300)),
                   "checkpoints": [0.0, T], "seed": draw(st.integers(0, 2 ** 32 - 1))},
           "initial": initial,
           "surface": draw(st.sampled_from([
               {"kind": "constant", "value": 0.2},
               {"kind": "tabulated", "t": [0.0, T], "x": [-1.0, 0.0, 1.0],
                "values": [[0.3, 0.2, 0.25], [0.25, 0.2, 0.3]]}])),
           "strikes": [0.9, 1.0, 1.1]}
    if hostile:
        section, key, value = hostile
        for name in (("pds", "sim") if section == "step" else (section,)):
            cfg[name][key] = value
        if key == "T":
            cfg["pds"]["dt"] = cfg["sim"]["dt"] = value / 10
            cfg["sim"]["checkpoints"] = [0.0, value]
    return cfg


# every hostile value meets every run; hypothesis draws the rest
@pytest.mark.parametrize("run,hostile", [
    pytest.param(r, h, id=r if h is None else f"{r}-{h[1]}={h[2]!r}")
    for r in RUNS for h in HOSTILE])
@settings(max_examples=2, deadline=None, derandomize=True)
@given(data=st.data())
def test_run_commands_exit_cleanly_and_rerun_identically(run, hostile, data):
    command = RUNS[run][0]
    cfg = data.draw(run_configs(run, hostile))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "config.json"), Path(tmp, "out")
        path.write_text(json.dumps(cfg))
        outputs = []
        for _ in range(2):
            err = io.StringIO()
            with (warnings.catch_warnings(), contextlib.redirect_stderr(err),
                  contextlib.redirect_stdout(io.StringIO())):
                warnings.simplefilter("error")      # a warning would escape as a traceback
                code = cli.main([command, str(path), "--out", str(out)])
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err.getvalue()
            if code:
                assert err.getvalue().count("\n") == 1 and not out.exists()
                return
            outputs.append(snapshot_csvs(out))
        assert outputs[0] and outputs[0] == outputs[1]


# (entries merged into a config that the command runs, or a document that
# replaces it): each one is a config error at the top level
BAD_DOCUMENTS = [
    pytest.param(1, id="number"),
    pytest.param(None, id="null"),
    pytest.param([1], id="list"),
    pytest.param("x", id="string"),
    pytest.param({"strike": [1.0]}, id="misspelt-strikes"),
    pytest.param({"output-dir": "out"}, id="misspelt-output-dir"),
    pytest.param({"seed": 5}, id="retired-top-level-seed"),
    pytest.param({"strikes": {"a": 1}}, id="strikes-dict"),
    pytest.param({"strikes": [math.nan]}, id="strikes-nan"),
    pytest.param({"strikes": [[0.9, 1.0]]}, id="strikes-nested"),
    pytest.param({"strikes": [-1.0]}, id="strikes-negative"),
    pytest.param({"output_dir": 5}, id="output-dir-number"),
]


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("doc", BAD_DOCUMENTS)
def test_bad_document_is_a_config_error(tmp_path, capsys, run, doc):
    command, *config = RUNS[run]
    path = Path(contract_config(tmp_path, *config))
    if isinstance(doc, dict):
        doc = {**json.loads(path.read_text()), **doc}
    path.write_text(json.dumps(doc))
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve-fbm", "simulate-fbm"])
@pytest.mark.parametrize("dt", [5e-324, 1e-300])
def test_step_count_past_int64_is_a_config_error(tmp_path, capsys, command, dt):
    path = Path(contract_config(tmp_path, False, False))
    cfg = json.loads(path.read_text())
    cfg["horizon"]["T"] = 1.0
    cfg["pds"]["dt"] = cfg["sim"]["dt"] = dt
    path.write_text(json.dumps(cfg))
    assert cli.main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: dt = {dt} splits T = 1.0 into 2**63 or more steps\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["check-c", "solve-fbm", "dupire-build"])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, command):
    missing = tmp_path / "missing"
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    argv = {
        "check-c": ["check-c", "--lambda", "1,2", "--method", "grid", "--n", "20",
                    "--out", str(missing / "p.csv")],
        "solve-fbm": ["solve-fbm", str(small_solve_config(tmp_path)),
                      "--out", str(not_a_dir / "sub")],
        "dupire-build": ["dupire-build", str(write_calls(tmp_path)[0]),
                         "--out", str(missing / "s.json")],
    }[command]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def unreadable_input(tmp_path, case: str) -> list:
    """The argv of one run whose input is refused before any output is written."""
    if case == "config-not-json":
        path = tmp_path / "config.json"
        path.write_text('{"model": ')
        return ["solve-fbm", str(path)]
    if case == "surface-file-missing":
        return ["solve-rslv", str(small_solve_config(
            tmp_path, extra={"surface": {"file": "missing.json"}}))]
    if case == "call-grid-missing-a-pair":
        calls = write_calls(tmp_path)[0]
        lines = calls.read_text().splitlines(keepends=True)
        calls.write_text("".join(lines[:5] + lines[6:]))
        return ["dupire-build", str(calls), "--out", str(tmp_path / "s.json")]
    if case == "call-grid-repeats-a-pair":
        # data row 5 again, priced 0.1% higher: no row may silently win
        calls = write_calls(tmp_path)[0]
        t, k, c = calls.read_text().splitlines()[5].split(",")
        calls.write_text(calls.read_text() + f"{t},{k},{float(c) * 1.001!r}\n")
        return ["dupire-build", str(calls), "--out", str(tmp_path / "s.json")]
    return ["check-c", *{
        "lambda-not-a-number": ["--lambda", "1,x"],
        "d3-without-three-values": ["--lambda", "1,2", "--method", "d3"],
        "gamma-without-a-file": ["--lambda", "1,2", "--method", "gamma"]}[case]]


@pytest.mark.parametrize("case", [
    "config-not-json", "surface-file-missing", "lambda-not-a-number",
    "d3-without-three-values", "gamma-without-a-file", "call-grid-missing-a-pair",
    "call-grid-repeats-a-pair"])
def test_unreadable_input_is_a_config_error(tmp_path, capsys, case):
    assert cli.main(unreadable_input(tmp_path, case)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# arguments that argparse refuses: one error line and exit 2, as for any other input
@pytest.mark.parametrize("argv", [
    pytest.param(["check-c", "--lambda", "1,9", "--method", "identity"], id="invalid-choice"),
    pytest.param(["solve-fbm"], id="missing-config"),
    pytest.param(["check-c", "--lambda", "1,9", "--n", "x"], id="non-integer-count"),
])
def test_refused_argument_is_one_error_line(capsys, argv):
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: rslv-lab {argv[0]}: ") and out.err.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["check-c", "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rslv-lab check-c")


def test_import_leaves_the_optimizer_unloaded():
    # scipy.optimize is loaded only by scripts/condition_c_map.py
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, rslv_lab.cli, rslv_lab.acceptance; "
            "sys.exit('scipy.optimize' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def loaded_scipy_modules(*argvs) -> list:
    """The scipy modules loaded in a fresh process that imports the package's
    modules and runs cli.main on each argv in turn (each must exit 0)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import json, sys\n"
            "from rslv_lab import acceptance, cli, condition_c, particles, stats\n"
            "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules\n"
            "                                if m.split('.')[0] == 'scipy')]))\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, check=True)
    codes, modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(argvs)
    return modules


def test_particles_and_condition_c_never_load_scipy(tmp_path):
    # only a grid solve needs scipy (its LAPACK drivers)
    extra = {"surface": {"kind": "constant", "value": 0.2}, "strikes": [1.0]}
    assert loaded_scipy_modules(
        ["simulate-rslv", str(small_sim_config(tmp_path, extra))],
        ["check-c", "--lambda", "1,2,3,5,10", "--method", "grid", "--n", "50",
         "--out", str(tmp_path / "points.csv")],
        ["dupire-build", str(write_calls(tmp_path)[0]),
         "--out", str(tmp_path / "surface.json")]) == []


def test_grid_solve_loads_lapack_without_scipy_special(tmp_path):
    # the LAPACK extension alone: neither scipy.linalg nor any other scipy module
    modules = loaded_scipy_modules(["solve-fbm", str(small_solve_config(tmp_path))])
    assert modules == ["scipy.linalg._flapack"]


@pytest.mark.parametrize("first", ["banded", "scipy.linalg"])
def test_lapack_drivers_are_scipys_own(first):
    # banded._drivers() and scipy.linalg.lapack share the routine objects,
    # whichever of the two loads the extension module first
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    load = {"banded": "drivers = banded._drivers()\nimport scipy.linalg.lapack as lapack\n",
            "scipy.linalg": "import scipy.linalg.lapack as lapack\ndrivers = banded._drivers()\n"}
    code = ("import sys\nfrom rslv_lab import banded\n" + load[first]
            + "sys.exit(not (drivers[0] is lapack.dgbsv and drivers[1] is lapack.dgtsv))\n")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def write_calls(tmp_path, ts=np.linspace(0.25, 0.85, 7), ks=np.linspace(0.85, 1.15, 9)):
    """Black-Scholes calls (vol 0.2, zero rate) on ts x ks as the CSV dupire-build reads."""
    c = np.array([[bs_call(1.0, k, 0.2, t) for k in ks] for t in ts])
    T, K = np.meshgrid(ts, ks, indexing="ij")
    calls = tmp_path / "calls.csv"
    rows = zip(T.ravel().tolist(), K.ravel().tolist(), c.ravel().tolist())
    calls.write_text("t,K,C\n" + "".join(f"{t!r},{k!r},{v!r}\n" for t, k, v in rows))
    return calls, ts, ks, c


class TestDupireBuild:
    def test_repeated_pair_is_named(self, tmp_path, capsys):
        assert cli.main(unreadable_input(tmp_path, "call-grid-repeats-a-pair")) == 2
        assert capsys.readouterr().err == ("error: cannot read call grid: (t, K) = "
                                           "(0.25, 1.0) is given again in data row 64\n")

    def test_build_from_csv(self, tmp_path):
        calls = write_calls(tmp_path, np.arange(0.25, 0.8601, 0.02),
                            np.arange(0.85, 1.1801, 0.02))[0]
        out = tmp_path / "surface.json"
        assert cli.main(["dupire-build", str(calls), "--r", "0", "--out", str(out)]) == 0
        surf = json.loads(out.read_text())
        inner = np.asarray(surf["values"])[1:-1]
        assert np.abs(inner - 0.2).max() <= 0.01

    def test_surface_file_reads_back(self, tmp_path, monkeypatch):
        calls, ts, ks, c = write_calls(tmp_path)
        assert cli.main(["dupire-build", str(calls), "--r", "0.01", "--sigma-low", "0.19",
                         "--sigma-high", "0.21", "--out", str(tmp_path / "surface.json")]) == 0
        built = dupire_from_calls(ts, ks, c, r=0.01, sigma_low=0.19, sigma_high=0.21).surface
        read = []
        solve_rslv = cli.solve_rslv
        monkeypatch.setattr(cli, "solve_rslv", lambda *a: read.append(a[4]) or solve_rslv(*a))
        cfg = small_solve_config(tmp_path, extra={"model": ONE_REGIME,
                                                  "surface": {"file": "surface.json"}})
        assert cli.main(["solve-rslv", str(cfg)]) == 0
        (surface,) = read
        assert (surface.sigma_low, surface.sigma_high) == (0.19, 0.21)
        for name in ("t", "x", "values"):
            np.testing.assert_array_equal(getattr(surface, name), getattr(built, name))

    def test_missing_file(self, tmp_path):
        assert cli.main(["dupire-build", str(tmp_path / "nope.csv")]) == 2

    def test_empty_file(self, tmp_path, capsys):
        calls = tmp_path / "calls.csv"
        calls.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # a warning would escape as a traceback
            assert cli.main(["dupire-build", str(calls)]) == 2
        assert capsys.readouterr().err == "error: cannot read call grid: no data rows\n"

    @pytest.mark.parametrize("text", ["\n \n", "t,K,C\n", "t,K,C\n\n", "# calls\n#t,K,C\n"],
                             ids=["blank", "header", "header-blank", "comments"])
    def test_file_without_data_rows(self, tmp_path, capsys, text):
        calls = tmp_path / "calls.csv"
        calls.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["dupire-build", str(calls)]) == 2
        assert capsys.readouterr().err == "error: cannot read call grid: no data rows\n"

    def test_comment_lines_are_skipped(self, tmp_path):
        calls = write_calls(tmp_path)[0]
        head, *rows = calls.read_text().splitlines(keepends=True)
        commented = tmp_path / "commented.csv"
        commented.write_text("# calls\n" + head + "# vol 0.2\n" + "".join(rows))
        for path, name in ((calls, "plain.json"), (commented, "commented.json")):
            assert cli.main(["dupire-build", str(path), "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "commented.json").read_text() == (tmp_path / "plain.json").read_text()

    @pytest.mark.parametrize("columns,cell,where", [
        ("t", "0.5x", "column 't' is not a finite number in data row 5"),
        ("C", "oops", "column 'C' is not a finite number in data row 5"),
        ("tK", "np.float64({})", "column 't' is not a finite number in data row 1")],
        ids=["0.5x", "oops", "np.float64"])
    def test_cell_that_is_not_a_number_names_its_column(self, tmp_path, capsys,
                                                        columns, cell, where):
        # "0.5x" and "oops" replace one cell of data row 5; the repr of a numpy
        # scalar wraps every t and K cell
        calls = write_calls(tmp_path)[0]
        head, *rows = calls.read_text().splitlines()
        names = head.split(",")
        for r, row in enumerate(rows):
            cells = row.split(",")
            for name in columns:
                j = names.index(name)
                if "{}" in cell or r == 4:
                    cells[j] = cell.format(cells[j])
            rows[r] = ",".join(cells)
        calls.write_text("\n".join([head, *rows]) + "\n")
        assert cli.main(["dupire-build", str(calls), "--out", str(tmp_path / "s.json")]) == 2
        assert capsys.readouterr().err == f"error: cannot read call grid: {where}\n"


class TestVerify:
    def test_single_fast_criterion(self, capsys):
        assert cli.main(["verify", "--criteria", "3"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] c03" in out

    def test_check_c_inside_c01_prints_nothing(self, capsys):
        assert cli.main(["verify", "--criteria", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[PASS] c01 figure grid reproduction (d=5) (3 checks, ")
        assert lines[1] == "1/1 criteria passed"

    def test_unknown_suite(self, capsys):
        # verify has one selector, --criteria; --suite is not an option
        assert cli.main(["verify", "--suite", "nonsense"]) == 2
        assert "unrecognized arguments: --suite nonsense" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,names", [
        pytest.param([], [f"c{i:02d}" for i in range(1, 13)], id="all"),
        pytest.param(["--criteria", "3,3"], ["c03"], id="repeated"),
        pytest.param(["--criteria", "5,c03,5"], ["c05", "c03"], id="in-order"),
    ])
    def test_each_named_criterion_runs_once(self, monkeypatch, argv, names):
        from rslv_lab import acceptance
        ran = []
        monkeypatch.setattr(acceptance, "run_criteria", lambda n: ran.append(n) or [])
        assert cli.main(["verify", *argv]) == 0
        assert ran == [names]

    def test_empty_criteria_list(self, capsys, monkeypatch):
        from rslv_lab import acceptance
        monkeypatch.setattr(acceptance, "run_criteria",
                            lambda names: pytest.fail(f"ran the criteria {names}"))
        assert cli.main(["verify", "--criteria", ""]) == 2
        assert capsys.readouterr().err.startswith("error: unknown criteria")

    def test_unknown_criterion(self, capsys):
        assert cli.main(["verify", "--criteria", "99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown criteria c99")
        assert err.count("\n") == 1


def test_write_csv_matches_row_by_row_formatting(tmp_path):
    rng = np.random.default_rng(4)
    n = 2 * cli._CSV_BLOCK + 7           # two full blocks and a partial one
    big = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
    big[:6] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, -1.7976931348623157e308]
    ids = np.arange(n)
    ids[3] = 2**60                       # an integer column at 2**53 and above: %.17g
    small = rng.integers(-5, 6, n)
    small[:2] = [2**53 - 1, -(2**53 - 1)]   # integers below 2**53 in magnitude: %d
    columns = [ids, big, small, -rng.uniform(size=n)]
    path = tmp_path / "rows.csv"
    cli.write_csv(str(path), "i,a,b,c", columns)
    expected = "i,a,b,c\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
                                     for row in zip(*columns))
    assert path.read_text() == expected
    cli.write_csv(str(path), "i,x", [np.arange(0), np.empty(0)])
    assert path.read_text() == "i,x\n"
    for ragged in ([np.arange(3), np.zeros(4)], [np.arange(4), np.zeros(3)],
                   [np.zeros((2, 2)), np.zeros(2)]):
        with pytest.raises(ValueError, match="1-d and of equal length"):
            cli.write_csv(str(path), "i,x", ragged)
