#!/usr/bin/env python3
"""Map the diagonal-existence region for a family of variance levels.

Runs the planar grid search, writes the passing (x, y) points to CSV,
recovers a concrete diagonal matrix from one passing point and issues a
sampled coercivity certificate for it.

Example:
    python scripts/condition_c_map.py --lambda 1,2,3,5,10 --n 200 --out points.csv
"""

import argparse
import sys

import numpy as np

from rslv_lab.cli import write_csv
from rslv_lab.condition_c import (coercivity_certificate, criterion_d3,
                                  grid_search_diag, recover_alpha_from_point)
from rslv_lab.regime_model import RegimeModel


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda", dest="lam", default="1,2,3,5,10")
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--out", default="points.csv")
    ap.add_argument("--samples", type=int, default=100_000,
                    help="sampling budget for the certificate")
    args = ap.parse_args(argv)

    lam = np.array([float(v) for v in args.lam.split(",")])
    model = RegimeModel(lam=lam, alpha=np.full(lam.size, 1.0 / lam.size))
    report = grid_search_diag(model, args.n)
    write_csv(args.out, "x,y", report.points)
    print(f"{report.points.shape[0]} passing points at n={args.n} -> {args.out}")
    if lam.size == 3:
        rep = criterion_d3(lam)
        print(f"exact d=3 criterion: lhs = {rep.lhs:.6g} "
              f"({'satisfied' if rep.satisfied else 'not satisfied'})")
    if report.fallback:
        print(f"degenerate multiset, decided by {report.fallback}: "
              + ("satisfied" if report.satisfied else "not satisfied"))
        return 0 if report.satisfied else 1
    if not report.satisfied:
        print(f"no diagonal matrix found at resolution n={args.n}")
        return 1

    mid = report.points[report.points.shape[0] // 2]
    alpha = recover_alpha_from_point(model, *mid)
    print("recovered diagonal:", np.array2string(alpha, precision=6))
    cert = coercivity_certificate(np.diag(alpha), model, samples=args.samples)
    print(f"certificate: eps = {cert.eps:.6g}, z = {cert.z:.6g}, "
          f"kappa_hat = {cert.kappa_hat:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
