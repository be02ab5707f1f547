"""Requested output times and checkpoints are recorded exactly or rejected."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rslv_lab.fokker_planck import PDSConfig, SpatialGrid, solve_fbm, step_grid
from rslv_lab.particles import SimPlan, simulate
from rslv_lab.regime_model import HorizonConfig, Measure, RegimeModel

MODEL = RegimeModel(lam=[1.0, 4.0], alpha=[0.5, 0.5])
GRID = SpatialGrid(L=4.0, m=21)


def on_step_grid(t, T, n_steps):
    """t names a step time k * T / n_steps within the recording tolerance."""
    tol = 1e-9 + 1e-6 * max(1.0, abs(t))
    return any(abs(t - k * T / n_steps) <= tol for k in range(n_steps + 1))


# (T, dt, n_outputs, the steps recorded): the equally spaced times round to
# the nearest step, and times on the same step are recorded once
SPACED_OUTPUTS = [(0.05, 1e-2, 11, [0, 1, 2, 3, 4, 5]),
                  (0.1, 1e-3, 4, [0, 33, 67, 100])]


@pytest.mark.parametrize("T,dt,n_outputs,steps", SPACED_OUTPUTS)
def test_spaced_outputs_round_to_steps(T, dt, n_outputs, steps):
    cfg = PDSConfig(dt=dt, sigma_mollify=0.3, n_outputs=n_outputs)
    sol = solve_fbm(MODEL, cfg, GRID, HorizonConfig(T=T), Measure.point(0.0))
    np.testing.assert_array_equal(sol.times, np.array(steps) * (T / round(T / dt)))


@st.composite
def requests(draw):
    """(T, dt, n_steps, times): times mix step times with arbitrary values."""
    T = draw(st.floats(0.01, 1.0))
    dt = draw(st.floats(T / 12, T))
    n_steps = max(1, round(T / dt))
    step_time = st.integers(0, n_steps).map(lambda k: k * T / n_steps)
    anywhere = st.floats(-0.5, 2.0)
    times = draw(st.lists(st.one_of(step_time, anywhere), min_size=1, max_size=4))
    return T, dt, n_steps, times


@settings(max_examples=30, deadline=None)
@given(requests())
def test_grid_output_times_are_recorded_or_rejected(case):
    T, dt, n_steps, times = case
    cfg = PDSConfig(dt=dt, sigma_mollify=0.3, output_times=tuple(times))
    hor = HorizonConfig(T=T)
    if not all(on_step_grid(t, T, n_steps) for t in times):
        with pytest.raises(ValueError):
            solve_fbm(MODEL, cfg, GRID, hor, Measure.point(0.0))
        return
    sol = solve_fbm(MODEL, cfg, GRID, hor, Measure.point(0.0))
    for t in times:
        sol.at_time(t)


@settings(max_examples=30, deadline=None)
@given(requests())
def test_checkpoints_are_recorded_at_their_step_or_rejected(case):
    T, dt, n_steps, times = case
    plan = SimPlan(dt=dt, n_particles=100, checkpoints=tuple(times), seed=7)
    hor = HorizonConfig(T=T)
    if not all(on_step_grid(t, T, n_steps) for t in times):
        with pytest.raises(ValueError):
            simulate(MODEL, plan, hor)
        return
    res = simulate(MODEL, plan, hor)
    # the same seed recorded at every step tells which step each checkpoint holds
    every = SimPlan(dt=dt, n_particles=100, seed=7,
                    checkpoints=tuple(k * T / n_steps for k in range(n_steps + 1)))
    ref = simulate(MODEL, every, hor)
    for t in times:
        k = round(t * n_steps / T)
        np.testing.assert_array_equal(res.at_time(t)[0], ref.X[k])


@st.composite
def on_grid_requests(draw):
    """(T, dt, n_steps, times): step times in any order, repeated or not, with
    or without the start."""
    T = draw(st.floats(0.01, 1.0))
    dt = draw(st.floats(T / 12, T))
    n_steps = max(1, round(T / dt))
    ks = draw(st.lists(st.integers(0, n_steps), min_size=1, max_size=5))
    return T, dt, n_steps, [k * T / n_steps for k in ks]


@settings(max_examples=30, deadline=None)
@given(on_grid_requests())
@example((1.0, 0.1, 10, [0.7, 0.3, 0.3]))
@example((0.5, 0.1, 5, [0.5, 0.0, 0.2, 0.0]))
def test_one_request_gives_one_record_on_both_solvers(case):
    # both solvers record each named step once, in step order, labelled with
    # the first time that names it, and the start only when it is named
    T, dt, n_steps, times = case
    hor = HorizonConfig(T=T)
    sol = solve_fbm(MODEL, PDSConfig(dt=dt, sigma_mollify=0.3, output_times=tuple(times)),
                    GRID, hor, Measure.point(0.0))
    res = simulate(MODEL, SimPlan(dt=dt, n_particles=100, checkpoints=tuple(times), seed=7),
                   hor)
    first = {}
    for t in times:
        first.setdefault(round(t * n_steps / T), t)
    np.testing.assert_array_equal(sol.times, [first[k] for k in sorted(first)])
    np.testing.assert_array_equal(sol.times, res.times)
    assert len(sol.p) == len(res.X) == len(first)


def test_step_count_stays_below_int64():
    # step indices are int64: 2**62 steps are allowed, 2**63 are refused
    assert step_grid(1.0, 2.0 ** -62) == (2 ** 62, 2.0 ** -62)
    for T, dt in ((1.0, 2.0 ** -63), (1.0, 5e-324), (1e300, 1e-300)):
        with pytest.raises(ValueError, match="2\\*\\*63 or more steps"):
            step_grid(T, dt)
