"""Block-tridiagonal linear algebra in LAPACK banded storage.

The implicit time steppers produce systems whose unknowns interleave the
regime index within each spatial node.  With d regimes the matrix is block
tridiagonal with d x d blocks, i.e. banded with kl = ku = 2d - 1.  The blocks
are packed straight into the Fortran-ordered array that LAPACK's gbsv factors
in place, so a solve neither copies nor transposes the band (band storage and
the gbsv/gtsv drivers: Anderson et al., LAPACK Users' Guide, 3rd ed., SIAM
1999, section 5.3.2).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgbsv, dgtsv

__all__ = ["block_tridiag_to_banded", "solve_banded", "solve_block_tridiag"]


def block_tridiag_to_banded(diag: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Pack blocks into band storage, ab[ku + i - j, j] = A[i, j].

    diag has shape (m, d, d); lower/upper have shape (m-1, d, d) and hold the
    blocks coupling node j+1 to node j and node j to node j+1 respectively.
    Returns (ab, (kl, ku)), ab in scipy.linalg.solve_banded's layout: the last
    kl + ku + 1 rows of a Fortran-ordered (2kl + ku + 1, n) array whose first
    kl rows are gbsv's fill-in workspace.  solve_banded factors that array.
    """
    m, d, _ = diag.shape
    kl = ku = 2 * d - 1
    rows = 2 * kl + ku + 1
    work = np.zeros((rows, m * d), order="F")
    # Column j*d + l of work holds column l of upper[j-1], diag[j] and
    # lower[j]: one run of 3d values from row 3d - 2 - l down.  Each node's
    # d columns, read from their second entry on in rows of rows - 1 values,
    # put these runs one under another at offset 3d - 3, so runs[j, l] is
    # that run, as a view into work.
    nodes = work.T.reshape(m, d * rows)[:, 1:1 + d * (rows - 1)]
    runs = nodes.reshape(m, d, rows - 1)[:, :, 3 * d - 3:]
    runs[1:, :, :d] = upper.transpose(0, 2, 1)
    runs[:, :, d:2 * d] = diag.transpose(0, 2, 1)
    runs[:-1, :, 2 * d:] = lower.transpose(0, 2, 1)
    return work[kl:], (kl, ku)


def solve_banded(l_and_u, ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b, A in the band storage of block_tridiag_to_banded.

    b is overwritten with x.  kl = ku = 1 goes to the tridiagonal driver
    gtsv, as in scipy.linalg.solve_banded; a wider band is factored by gbsv in
    the array ab is a view of, which is overwritten too.  A singular A raises
    LinAlgError.
    """
    kl, ku = l_and_u
    if kl == ku == 1:
        _, _, _, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b, overwrite_b=1)
    else:
        work = ab.base
        if (work is None or not work.flags.f_contiguous
                or work.shape != (2 * kl + ku + 1, ab.shape[1])):
            raise ValueError("ab must be the band that block_tridiag_to_banded returns")
        _, _, x, info = dgbsv(kl, ku, work, b, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of the LAPACK driver")
    return x


def solve_block_tridiag(diag, lower, upper, rhs: np.ndarray) -> np.ndarray:
    """Solve the block-tridiagonal system; rhs and result have shape (m, d).

    The inputs are left unchanged.
    """
    m, d, _ = diag.shape
    ab, (kl, ku) = block_tridiag_to_banded(diag, lower, upper)
    x = solve_banded((kl, ku), ab, np.array(rhs, dtype=float).reshape(m * d))
    return x.reshape(m, d)
