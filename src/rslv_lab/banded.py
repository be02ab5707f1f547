"""Block-tridiagonal linear algebra in LAPACK banded storage.

The implicit time steppers produce systems whose unknowns interleave the
regime index within each spatial node.  With d regimes the matrix is block
tridiagonal with d x d blocks, i.e. banded with kl = ku = 2d - 1.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded

__all__ = ["block_tridiag_to_banded", "solve_block_tridiag"]


def block_tridiag_to_banded(diag: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Pack blocks into the ab storage expected by scipy.linalg.solve_banded.

    diag has shape (m, d, d); lower/upper have shape (m-1, d, d) and hold the
    blocks coupling node j+1 to node j and node j to node j+1 respectively.
    Returns (ab, (kl, ku)).
    """
    m, d, _ = diag.shape
    kl = ku = 2 * d - 1
    n = m * d
    ab = np.zeros((kl + ku + 1, n))
    for i in range(d):
        for l in range(d):
            ab[ku + i - l, l::d] = diag[:, i, l]
            if m > 1:
                ab[ku + i - l - d, d + l::d] = upper[:, i, l]
                ab[ku + i - l + d, l:(m - 1) * d:d] = lower[:, i, l]
    return ab, (kl, ku)


def solve_block_tridiag(diag, lower, upper, rhs: np.ndarray) -> np.ndarray:
    """Solve the block-tridiagonal system; rhs and result have shape (m, d)."""
    m, d, _ = diag.shape
    ab, (kl, ku) = block_tridiag_to_banded(diag, lower, upper)
    x = solve_banded((kl, ku), ab, rhs.reshape(m * d))
    return x.reshape(m, d)

