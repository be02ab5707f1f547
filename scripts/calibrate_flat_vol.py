#!/usr/bin/env python3
"""Flat-volatility calibration check for the particle model.

With a constant leverage surface the regime-switching model must reprice
vanilla calls at their Black-Scholes values; this script prints the price
ladder against the closed form with Monte Carlo error bars.

Example:
    python scripts/calibrate_flat_vol.py --n 200000 --vol 0.2
"""

import argparse
import sys

import numpy as np

from rslv_lab.dupire import VolSurface
from rslv_lab.particles import SimPlan, price_calls, simulate
from rslv_lab.regime_model import (HorizonConfig, IntensityTable, Measure,
                                   RegimeModel)
from rslv_lab.stats import bs_call


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda", dest="lam", default="0.25,4")
    ap.add_argument("--switch-rate", type=float, default=1.0)
    ap.add_argument("--vol", type=float, default=0.2)
    ap.add_argument("--r", type=float, default=0.0)
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--n", type=int, default=200_000)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--strikes", default="0.8,0.9,1.0,1.1,1.2")
    args = ap.parse_args(argv)

    lam = np.array([float(v) for v in args.lam.split(",")])
    d = lam.size
    rates = np.full((d, d), args.switch_rate)
    np.fill_diagonal(rates, 0.0)
    model = RegimeModel(lam=lam, alpha=np.full(d, 1.0 / d),
                        q=IntensityTable(rates=rates))
    plan = SimPlan(dt=args.dt, n_particles=args.n, checkpoints=(args.T,),
                   seed=args.seed)
    res = simulate(model, plan, HorizonConfig(T=args.T, r=args.r),
                   initial=Measure.point(0.0),
                   surface=VolSurface.constant(args.vol))

    strikes = [float(v) for v in args.strikes.split(",")]
    print(f"{'K':>6} {'price':>10} {'stderr':>10} {'BS':>10} {'diff/se':>8}")
    worst = 0.0
    for k, price, se in price_calls(res.X[-1], strikes, r=args.r, T=args.T):
        ref = bs_call(1.0, k, args.vol, args.T, args.r)
        pull = (price - ref) / se if se > 0 else float("inf")
        worst = max(worst, abs(pull))
        print(f"{k:>6.2f} {price:>10.5f} {se:>10.5f} {ref:>10.5f} {pull:>8.2f}")
    print(f"largest |pull| = {worst:.2f} standard errors")
    return 0 if worst <= 3.0 else 1


if __name__ == "__main__":
    sys.exit(main())
