"""Block-tridiagonal linear algebra in LAPACK banded storage.

The implicit time steppers produce systems whose unknowns interleave the
regime index within each spatial node.  With d regimes the matrix is block
tridiagonal with d x d blocks, i.e. banded with kl = ku = 2d - 1.  The blocks
are packed straight into the Fortran-ordered (3kl + 1, n) array that LAPACK's
gbsv factors in place, work[2kl + i - j, j] = A[i, j], whose first kl rows are
gbsv's fill-in workspace, so a solve neither copies nor transposes the band
(band storage and the gbsv/gtsv drivers: Anderson et al., LAPACK Users'
Guide, 3rd ed., SIAM 1999, section 5.3.2).  The first solve loads the
drivers from scipy's LAPACK extension module, scipy.linalg._flapack, alone:
neither scipy nor scipy.linalg is imported, and no other module of the
package uses scipy.
"""

from __future__ import annotations

import functools
import os
from importlib import machinery, util

import numpy as np

__all__ = ["block_tridiag_to_banded", "solve_banded", "solve_block_tridiag"]


def block_tridiag_to_banded(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Pack blocks into gbsv's band storage, work[2kl + i - j, j] = A[i, j].

    diag has shape (m, d, d); off has shape (m-1, d, d) and holds both blocks
    that couple node j and node j+1, A[j+1, j] = A[j, j+1] = off[j].  Returns
    the Fortran-ordered (3kl + 1, m d) array, kl = 2d - 1, with its first kl
    rows zero; solve_banded factors it in place.
    """
    m, d, _ = diag.shape
    rows = 6 * d - 2
    work = np.zeros((rows, m * d), order="F")
    # Column j*d + l of work holds column l of off[j-1], diag[j] and off[j]:
    # one run of 3d values from row 3d - 2 - l down.  Each node's d columns,
    # read from their second entry on in rows of rows - 1 values, put these
    # runs one under another at offset 3d - 3, so runs[j, l] is that run, as
    # a view into work.
    nodes = work.T.reshape(m, d * rows)[:, 1:1 + d * (rows - 1)]
    runs = nodes.reshape(m, d, rows - 1)[:, :, 3 * d - 3:]
    runs[1:, :, :d] = runs[:-1, :, 2 * d:] = off.transpose(0, 2, 1)
    runs[:, :, d:2 * d] = diag.transpose(0, 2, 1)
    return work


@functools.cache
def _drivers():
    """scipy's dgbsv and dgtsv, loaded once (0.05 us a call after the first).

    Only the extension scipy.linalg._flapack is loaded, found without
    importing scipy (scipy.linalg's __init__ and numpy.f2py take about 0.3 s);
    it enters sys.modules, so scipy.linalg.lapack has the same routines.
    """
    scipy = util.find_spec("scipy")
    if scipy is None:
        raise ImportError("the grid solves need scipy, which is not installed")
    where = os.path.join(scipy.submodule_search_locations[0], "linalg")
    finder = machinery.FileFinder(
        where, (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"no LAPACK extension _flapack in {where}")
    lapack = util.module_from_spec(spec)
    spec.loader.exec_module(lapack)
    return lapack.dgbsv, lapack.dgtsv


def solve_banded(work: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b, A in the band storage of block_tridiag_to_banded.

    kl is read off the row count of work.  b is overwritten with x.  kl = 1
    goes to the tridiagonal driver gtsv, as in scipy.linalg.solve_banded; a
    wider band is factored by gbsv in work, which is overwritten too.  A
    singular A raises LinAlgError.
    """
    dgbsv, dgtsv = _drivers()
    kl = (work.shape[0] - 1) // 3
    if kl == 1:
        _, _, _, x, info = dgtsv(work[3, :-1], work[2], work[1, 1:], b, overwrite_b=1)
    else:
        _, _, x, info = dgbsv(kl, kl, work, b, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of the LAPACK driver")
    return x


def solve_block_tridiag(diag, off, rhs: np.ndarray) -> np.ndarray:
    """Solve the block-tridiagonal system; rhs and result have shape (m, d).

    The inputs are left unchanged.
    """
    m, d, _ = diag.shape
    x = solve_banded(block_tridiag_to_banded(diag, off),
                     np.array(rhs, dtype=float).reshape(m * d))
    return x.reshape(m, d)
