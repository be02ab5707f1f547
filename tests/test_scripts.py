"""Smoke runs of the experiment scripts through their main()."""

import importlib.util
from pathlib import Path

import pytest

from rslv_lab import cli
from rslv_lab.stats import bs_call

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_condition_c_map_points_match_check_c(tmp_path):
    script = load_script("condition_c_map")
    points = tmp_path / "map.csv"
    assert script.main(["--lambda", "1,2,3,5,10", "--n", "60", "--samples", "2000",
                        "--out", str(points)]) == 0
    grid = tmp_path / "grid.csv"
    assert cli.main(["check-c", "--lambda", "1,2,3,5,10", "--method", "grid",
                     "--n", "60", "--out", str(grid)]) == 0
    assert points.read_bytes() == grid.read_bytes()
    assert len(points.read_text().splitlines()) > 1


@pytest.mark.parametrize("lam,verdict", [("1,9", "identity: satisfied"),
                                         ("1,1,4", "d3: satisfied")])
def test_condition_c_map_reports_a_fallback(tmp_path, capsys, lam, verdict):
    # fewer than three distinct levels: no points, so nothing to certify
    points = tmp_path / "map.csv"
    assert load_script("condition_c_map").main(["--lambda", lam, "--n", "20",
                                                "--out", str(points)]) == 0
    assert points.read_text() == "x,y\n"
    assert capsys.readouterr().out.splitlines()[-1] == f"degenerate multiset, decided by {verdict}"


def test_calibrate_flat_vol_prints_the_ladder(capsys):
    script = load_script("calibrate_flat_vol")
    code = script.main(["--n", "2000", "--T", "0.1", "--strikes", "0.9,1.0,1.1"])
    assert code in (0, 1)
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:-1]]
    assert [float(r[0]) for r in rows] == [0.9, 1.0, 1.1]
    for k, price, se, ref, _ in rows:
        assert float(ref) == pytest.approx(bs_call(1.0, float(k), 0.2, 0.1), abs=1e-5)
        assert float(se) > 0
    assert lines[-1].startswith("largest |pull| =")


def test_fbm_heat_convergence_prints_the_ladder(capsys):
    script = load_script("fbm_heat_convergence")
    assert script.main(["--m", "61", "--dt", "1e-2", "--levels", "2", "--T", "0.1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:-1]]
    assert [(int(r[0]), float(r[1])) for r in rows] == [(61, 1e-2), (121, 5e-3)]
    errors = [float(r[2]) for r in rows]
    # first order in dt: halving (h, dt) cuts the error by at least 2
    assert 0 < errors[1] <= errors[0] / 2
    assert float(rows[1][3]) == pytest.approx(errors[0] / errors[1], abs=0.01)
    assert lines[-1].startswith("finest level: mass drift")


def test_every_mutant_still_applies():
    # the runner takes minutes, so this suite checks only that each mutant
    # still applies and names tests that exist
    script = load_script("mutants")
    assert len(script.MUTANTS) == 36
    for name, file, old, new, killers in script.MUTANTS:
        assert (script.SRC / file).read_text().count(old) == 1, name
        for killer in killers:
            path, _, test = killer.partition("::")
            func = test.split("::")[-1].split("[")[0]
            assert f"def {func}(" in (script.ROOT / path).read_text(), killer


def test_each_mutant_run_starts_without_saved_examples(tmp_path, monkeypatch):
    # a run stopped at the timeout leaves Hypothesis examples behind; the
    # rerun without its test, and every later run, must not replay them
    script = load_script("mutants")
    runs = []

    def run(argv, **kwargs):
        runs.append((tmp_path / ".hypothesis").exists())
        (tmp_path / ".hypothesis" / "examples").mkdir(parents=True, exist_ok=True)
        if len(runs) == 1:
            raise script.subprocess.TimeoutExpired(argv, script.TIMEOUT,
                                                   output=b"tests/test_x.py::test_y ")
        return script.subprocess.CompletedProcess(argv, 0, stdout="")
    monkeypatch.setattr(script.subprocess, "run", run)
    assert script.failing_tests(tmp_path)[0] == ["tests/test_x.py::test_y (timed out)"]
    assert script.failing_tests(tmp_path)[0] == []
    assert runs == [False, False, False]


def test_an_unknown_mutant_is_refused_before_any_run(monkeypatch, capsys):
    script = load_script("mutants")

    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be copied or run")
    monkeypatch.setattr(script.shutil, "copytree", refuse)
    monkeypatch.setattr(script, "failing_tests", refuse)
    assert script.main(["a-eps-diagonal-sign", "no-such-mutant"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: unknown mutant: no-such-mutant\n"
