#!/usr/bin/env python3
"""Convergence study of the driftless solver against the exact heat reference.

Solves the two-regime system started from a mollified point mass on a ladder
of (h, dt) pairs and prints the max-over-time L1 distance between the summed
sub-densities and the exact Gaussian, together with the refinement ratios.

Example:
    python scripts/fbm_heat_convergence.py --levels 3 --dt 4e-4
"""

import argparse
import math
import sys
import time

import numpy as np

from rslv_lab.fokker_planck import (PDSConfig, SpatialGrid, heat_l1_max, heat_reference,
                                    solve_fbm)
from rslv_lab.regime_model import HorizonConfig, Measure, RegimeModel


def run_level(model, m_nodes, dt, sigma0, T):
    grid = SpatialGrid(L=6.0, m=m_nodes)
    cfg = PDSConfig(dt=dt, sigma_mollify=sigma0, n_outputs=11)
    initial = Measure.point(0.0)
    t0 = time.perf_counter()
    sol = solve_fbm(model, cfg, grid, HorizonConfig(T=T), initial)
    elapsed = time.perf_counter() - t0
    return heat_l1_max(sol, heat_reference(sol, initial, sigma0)), elapsed, sol


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda", dest="lam", default="1,4")
    ap.add_argument("--m", type=int, default=601, help="coarsest node count")
    ap.add_argument("--dt", type=float, default=4e-4, help="coarsest step")
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--sigma0", type=float, default=math.sqrt(0.1))
    args = ap.parse_args(argv)

    lam = np.array([float(v) for v in args.lam.split(",")])
    model = RegimeModel(lam=lam, alpha=np.full(lam.size, 1.0 / lam.size))
    prev = None
    print(f"{'m':>7} {'dt':>10} {'L1 error':>12} {'ratio':>7} {'seconds':>8}")
    for level in range(args.levels):
        m_nodes = (args.m - 1) * 2 ** level + 1
        dt = args.dt / 2 ** level
        err, elapsed, sol = run_level(model, m_nodes, dt, args.sigma0, args.T)
        ratio = "" if prev is None else f"{prev / err:7.2f}"
        print(f"{m_nodes:>7} {dt:>10.2e} {err:>12.3e} {ratio:>7} {elapsed:>8.1f}")
        prev = err
    d = sol.diagnostics
    print(f"finest level: mass drift {d.max_mass_drift:.2e}, "
          f"min value {d.min_value.min():.2e}, "
          f"max energy increment {d.max_energy_increase:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
