#!/usr/bin/env python3
"""Source mutants that the tests must kill, and a runner that checks they do.

Each mutant is (name, file under src/rslv_lab, old text, new text, expected
killers): the old text occurs exactly once in its file, and the expected
killers are node ids, as pytest prints them, of tests that fail once the old
text is replaced by the new.  The runner copies the repository to a
temporary directory, runs the tests outside tests/test_acceptance.py there
once unmutated (a failure then stops the run), and then once per mutant
applied to a fresh copy of src/.  It prints one line per mutant: killed or
SURVIVED, how many of its expected killers failed, and every failing test.
Names given on the command line restrict the run to those mutants; with no
names every mutant runs.  An unknown name is refused with one error line and
exit status 2 before anything is copied or run.  A full run takes about twenty
minutes on 2 vCPU, so it stays out of the test suite; tests/test_scripts.py
only checks that every old text still occurs exactly once.  Exit status 0 iff
every mutant run is killed by all of its expected killers.

Examples:
    python scripts/mutants.py
    python scripts/mutants.py a-eps-diagonal-sign a-eps-product-transposed
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rslv_lab"
# seconds allowed for one run of the tests, which takes about 35 s unmutated
TIMEOUT = 150

FBM = "tests/test_fokker_planck.py"
PART = "tests/test_particles.py"
SMILE = "tests/test_smile.py"
SWITCH = "tests/test_switching.py"
COND = "tests/test_condition_c.py"
STATS = "tests/test_stats.py"

MUTANTS = [
    ("grid-r-dropped", "fokker_planck.py",
     "b_e = self.r - c_lev", "b_e = 0.0 - c_lev",
     [f"{FBM}::TestFbmSolver::test_heat_closure_matches_scalar_solver",
      f"{FBM}::TestRslvAndLv::test_lv_heat_reduction_with_matching_rate"]),
    ("grid-r-negated", "fokker_planck.py",
     "b_e = self.r - c_lev", "b_e = -self.r - c_lev",
     [f"{FBM}::TestFbmSolver::test_heat_closure_matches_scalar_solver",
      f"{FBM}::TestRslvAndLv::test_lv_heat_reduction_with_matching_rate"]),
    ("grid-leverage-sx", "fokker_planck.py",
     "(s_e + 2.0 * ds_e)", "(s_e + ds_e)",
     [f"{SMILE}::test_grid_prices_match_the_mixture[lv]"]),
    ("grid-surface-at-t0", "fokker_planck.py",
     "self.surface.sigma_dx(t, self.x_mid)", "self.surface.sigma_dx(0.0, self.x_mid)",
     [f"{SMILE}::test_grid_prices_match_the_mixture[lv]",
      f"{SMILE}::test_grid_prices_match_the_mixture[rslv]",
      f"{SMILE}::test_dupire_build_then_solve_lv_through_the_cli"]),
    ("particles-surface-at-t0", "particles.py",
     "surface.sigma(n * dt, x)", "surface.sigma(0.0, x)",
     [f"{SMILE}::test_particle_prices_match_the_mixture",
      f"{SMILE}::test_lv_particles_match_the_lv_grid"]),
    ("particles-bandwidth-exponent", "particles.py",
     "x.size ** (-0.2)", "x.size ** (-0.1)",
     [f"{SMILE}::test_particle_prices_match_the_mixture"]),
    ("discount-sign", "particles.py",
     "disc = math.exp(-r * T)", "disc = math.exp(r * T)",
     ["tests/test_cli.py::TestSimulateCommands::"
      "test_prices_are_discounted_to_the_last_checkpoint"]),
    ("dupire-r-sign", "dupire.py",
     "dcdt[:, 1:-1] + r * ki", "dcdt[:, 1:-1] - r * ki",
     ["tests/test_dupire.py::TestDupireFromCalls::test_flat_vol_with_rate"]),
    ("particles-r-dropped", "particles.py",
     "x += (r - 0.5 * diff2) * dt", "x += (0.0 - 0.5 * diff2) * dt",
     [f"{PART}::TestFlatSurfaceOracles::test_calls_are_black_scholes_at_the_rate",
      "tests/test_cli.py::TestSimulateCommands::test_overflowing_record_is_a_numerical_failure"
      "[drift-overflows-among-1e15-steps]"]),
    ("qv-ignores-surface", "particles.py",
     "qv += diff2 * dt", "qv += ratio * dt",
     [f"{PART}::TestFlatSurfaceOracles::test_quadratic_variation_is_the_surface_variance"]),
    ("regression-clamp-removed", "particles.py",
     "vals = np.clip(vals, model.lam_min, model.lam_max)", "vals = vals",
     [f"{PART}::TestCondExpect::test_estimate_stays_inside_the_levels[0.3]",
      f"{PART}::TestCondExpect::test_estimate_stays_inside_the_levels[0.7]"]),
    ("grid-q-not-transposed", "fokker_planck.py",
     "np.swapaxes(model.q.value(self.x_mid), -1, -2)", "model.q.value(self.x_mid)",
     [f"{FBM}::TestThreeRegimes::test_x_dependent_exchange_keeps_the_heat_marginal"]),
    ("particles-rate-doubled", "particles.py",
     "np.cumsum(rates * dt, axis=1)", "np.cumsum(rates * (2.0 * dt), axis=1)",
     [f"{SWITCH}::test_particle_occupancy_follows_the_chain[1]"]),
    ("grid-q-at-zero", "fokker_planck.py",
     "model.q.value(self.x_mid)", "model.q.value(0.0 * self.x_mid)",
     [f"{SWITCH}::test_grid_and_particles_agree_on_a_spot_dependent_q"]),
    ("particles-q-at-zero", "particles.py",
     "q.rates_from(rows, x[cand])", "q.rates_from(rows, 0.0 * x[cand])",
     [f"{SWITCH}::test_grid_and_particles_agree_on_a_spot_dependent_q"]),
    ("result-y-unshifted", "cli.py",
     "res.Y[k] + 1", "res.Y[k]",
     ["tests/test_cli.py::TestSimulateCommands::"
      "test_checkpoint_y_column_is_the_paper_numbering"]),
    ("leaving-bound-smallest-rate", "particles.py",
     ".min(axis=0)", ".max(axis=0)",
     [f"{PART}::test_leaving_bound_dominates_every_row_between_the_nodes[2]",
      f"{PART}::test_leaving_bound_dominates_every_row_between_the_nodes[3]",
      f"{PART}::test_leaving_bound_dominates_every_row_between_the_nodes[4]",
      f"{PART}::test_leaving_bound_dominates_every_row_between_the_nodes[5]"]),
    ("d3-boundary", "condition_c.py",
     "satisfied=lhs > 0.25)", "satisfied=lhs > 0.2)",
     [f"{COND}::TestBoundary::test_criterion_flips_at_the_root",
      f"{COND}::TestGridSearch::test_agreement_on_failing_and_satisfied_triples"]),
    ("gk-row-col", "condition_c.py",
     "- g[k, :][None, :] - g[:, k][:, None]", "- 2.0 * g[k, :][None, :]",
     [f"{COND}::TestGammaK::test_entries_match_the_formula"]),
    ("faces-never", "condition_c.py",
     "kept = rng.random((n, d)) >= 0.35", "kept = rng.random((n, d)) >= 0.0",
     [f"{COND}::TestDomainStates::test_a_third_of_the_states_lie_on_faces",
      f"{COND}::TestCertificate::test_regression_value"]),
    ("moment-m-1-with-lam", "condition_c.py",
     "sm1 += inv * (1.0 / lam)", "sm1 += inv * lam",
     [f"{COND}::TestGridSearch::test_agreement_with_exact_criterion",
      f"{COND}::TestBoundary::test_grid_search_finds_points_inside_only"]),
    ("screening-sign", "condition_c.py",
     "form = 0.5 * g1 + num", "form = 0.5 * g1 - num",
     [f"{COND}::TestScreeningForm::test_matches_the_dense_form"]),
    ("diag-criterion-one", "condition_c.py",
     "lhs = 2.0 * inv_a + (inv_a.sum() - inv_a)", "lhs = 1.0 * inv_a + (inv_a.sum() - inv_a)",
     [f"{COND}::TestConditionC::test_diagonal_from_grid_point_passes",
      f"{COND}::TestBoundary::test_recovered_diagonals_satisfy_condition_c"]),
    ("kappa-uncapped", "condition_c.py",
     "kappa_hat = min(kappa, 0.5 * lmin_pi)", "kappa_hat = kappa",
     [f"{COND}::TestCertificate::test_equal_levels_lower_bound"]),
    ("a-eps-diagonal-sign", "regime_model.py",
     "= (s - u) * (-c) / denom * 0.5 + 0.5", "= (s - u) * c / denom * 0.5 + 0.5",
     ["tests/test_regime_model.py::TestCoefficientMatrices::test_hand_evaluated_example",
      f"{FBM}::TestFbmSolver::test_heat_closure_matches_scalar_solver"]),
    ("a-eps-product-transposed", "regime_model.py",
     "np.multiply(u[:, None, :], c / denom", "np.multiply(u[None, :, :], c / denom",
     ["tests/test_regime_model.py::TestCoefficientMatrices::"
      "test_bit_equal_to_the_short_axis_formula"]),
    ("band-off-untransposed", "banded.py",
     "runs[1:, :, :d] = runs[:-1, :, 2 * d:] = off.transpose(0, 2, 1)",
     "runs[1:, :, :d] = runs[:-1, :, 2 * d:] = off",
     ["tests/test_banded.py::test_banded_layout",
      "tests/test_banded.py::test_solve_matches_dense"]),
    ("grid-eps-raised", "fokker_planck.py",
     "self.eps = 1e-10 * model.lam_min", "self.eps = 1e-3 * model.lam_min",
     [f"{FBM}::TestFbmSolver::test_heat_closure_matches_scalar_solver",
      f"{FBM}::TestOutputs::test_step_minimum_sees_the_undershoot_between_outputs"]),
    ("certificate-eps-over-bound", "condition_c.py",
     "eps = 0.9 * bound", "eps = 1.5 * bound",
     [f"{COND}::TestCertificate::test_regression_value"]),
    ("certificate-z-at-lam-min", "condition_c.py",
     "z = float(np.min(ztilde / d) / (2.0 * model.lam_max))",
     "z = float(np.min(ztilde / d) / (2.0 * model.lam_min))",
     [f"{COND}::TestCertificate::test_regression_value"]),
    ("config-count-truncates", "cli.py",
     "if not _number(value).is_integer():", "if not math.isfinite(_number(value)):",
     ["tests/test_cli.py::test_bad_section_is_a_config_error[grid-fractional-nodes]"]),
    ("measure-unnormalised", "regime_model.py",
     "w = w / total", "w = w",
     ["tests/test_cli.py::test_grid_and_particles_start_from_one_probability[mixture]",
      "tests/test_cli.py::test_grid_and_particles_start_from_one_probability[tabulated]"]),
    ("grid-records-start", "fokker_planck.py",
     "{0: U.copy()} if 0 in self.steps else {}", "{0: U.copy()}",
     ["tests/test_requested_times.py::test_one_request_gives_one_record_on_both_solvers"]),
    ("stderr-quarter-root", "stats.py",
     "x.std(ddof=1) / math.sqrt(x.size)", "x.std(ddof=1) / x.size ** 0.25",
     [f"{STATS}::TestMoments::test_stderr_hand_computed"]),
    ("ks-one-sided", "stats.py",
     "np.max(np.maximum(i / n - f, f - (i - 1) / n))", "np.max(i / n - f)",
     [f"{STATS}::TestKsStatistic::test_lower_side_binds"]),
    ("l1-hist-halved", "stats.py",
     "float(np.sum(np.abs(hist - ref) * widths))",
     "float(0.5 * np.sum(np.abs(hist - ref) * widths))",
     [f"{STATS}::TestHistogramDistance::test_hand_computed_two_bins"]),
]


def failing_tests(tree: Path) -> tuple[list, float]:
    """Node ids of the tests outside test_acceptance.py that fail or error in
    ``tree``, with the wall time of the runs in seconds.

    A run still going after TIMEOUT seconds is stopped, the test it was in
    counts as failing, and the tests run again without it: a mutant can make
    a run that should fail at its first step run on instead.  Each run starts
    without Hypothesis's example database, so the examples that one run
    saves, a stopped one's included, are not replayed in the next.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    # deselected from the start: a mutant's old text no longer occurs in src/
    hung = ["tests/test_scripts.py::test_every_mutant_still_applies"]
    while True:
        shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
        argv = [sys.executable, "-m", "pytest", "-v", "--tb=no", "-p", "no:cacheprovider",
                "--ignore=tests/test_acceptance.py", "tests"]
        try:
            run = subprocess.run(argv + [f"--deselect={t}" for t in hung], cwd=tree,
                                 env=env, capture_output=True, text=True, timeout=TIMEOUT)
            break
        except subprocess.TimeoutExpired as exc:
            hung.append(re.findall(r"^(tests/\S+)", (exc.stdout or b"").decode(),
                                   flags=re.M)[-1])
    failed = re.findall(r"^(tests/\S+) (?:FAILED|ERROR)", run.stdout, flags=re.M)
    if run.returncode not in (0, 1) and not failed:
        failed = [f"<pytest exit {run.returncode}>"]
    return failed + [f"{t} (timed out)" for t in hung[1:]], time.perf_counter() - t0


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = sorted(set(names) - {m[0] for m in MUTANTS})
    if unknown:
        print(f"error: unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "out"))
        failed, wall = failing_tests(tree)
        print(f"unmutated: {len(failed)} failing ({wall:.0f} s)", flush=True)
        if failed:
            print("\n".join(failed))
            return 1
        ok = True
        for name, file, old, new, killers in MUTANTS:
            if names and name not in names:
                continue
            shutil.rmtree(tree / "src")
            shutil.copytree(ROOT / "src", tree / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))
            path = tree / "src" / "rslv_lab" / file
            text = path.read_text()
            assert text.count(old) == 1, f"{name}: old text not found once in {file}"
            path.write_text(text.replace(old, new))
            failed, wall = failing_tests(tree)
            hit = sum(k in failed for k in killers)
            ok &= hit == len(killers)
            print(f"{name}: {'killed' if failed else 'SURVIVED'}, expected killers "
                  f"{hit}/{len(killers)}, {len(failed)} failing ({wall:.0f} s)", flush=True)
            for test in failed:
                print(f"    {test}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
