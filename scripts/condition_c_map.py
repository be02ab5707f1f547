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
from scipy.optimize import linprog

from rslv_lab.cli import write_csv
from rslv_lab.condition_c import (_moment_sums, coercivity_certificate, criterion_d3,
                                  criterion_diag, grid_search_diag)
from rslv_lab.regime_model import RegimeModel


class RecoveryFailure(RuntimeError):
    """Raised when no auxiliary distribution realises a passing grid point.

    Distinct from "Condition (C) is false": the point itself passed the
    criterion, only the constructive search ran out of room.
    """


def recover_alpha_from_point(model: RegimeModel, x: float, y: float) -> np.ndarray:
    """Diagonal entries alpha = 1/p recovered from a passing grid point.

    Finds a strictly positive probability vector q with sum lam q = X(x, y)
    and sum q/lam = Y(x, y) (linear program maximising the smallest entry),
    then sets p_i = (1 - M_0) q_i + (xy - 1) / (2 + x/lam_i + lam_i y).
    The result is validated through the exact diagonal criterion.
    """
    lam = model.lam
    m0, m1, mm1 = _moment_sums(float(x), float(y), lam)
    if not m0 < 1.0:
        raise RecoveryFailure(f"point ({x}, {y}) has M_0 = {m0} >= 1")
    X = (x - m1) / (1.0 - m0)
    Y = (y - mm1) / (1.0 - m0)

    d = model.d
    # variables (q_1..q_d, t): maximise t subject to q_i >= t and the moment matches
    c = np.zeros(d + 1)
    c[-1] = -1.0
    a_eq = np.zeros((3, d + 1))
    a_eq[0, :d] = lam
    a_eq[1, :d] = 1.0 / lam
    a_eq[2, :d] = 1.0
    b_eq = np.array([X, Y, 1.0])
    a_ub = np.hstack([-np.eye(d), np.ones((d, 1))])
    b_ub = np.zeros(d)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0.0, 1.0)] * d + [(0.0, 1.0)], method="highs")
    if not res.success or res.x[-1] <= 1e-12:
        raise RecoveryFailure(
            f"no strictly positive distribution realises (X, Y) = ({X}, {Y})")
    q = res.x[:d]
    p = (1.0 - m0) * q + (x * y - 1.0) / (2.0 + x / lam + lam * y)
    if np.any(p <= 0):
        raise RecoveryFailure("recovered weights are not strictly positive")
    alpha = 1.0 / p
    if not criterion_diag(model, alpha):
        raise RecoveryFailure("recovered diagonal fails the exact criterion")
    return alpha


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
