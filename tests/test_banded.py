"""Block-tridiagonal banded solve against a dense oracle."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rslv_lab import banded
from rslv_lab.banded import block_tridiag_to_banded, solve_block_tridiag


def dense_from_blocks(diag, off):
    m, d, _ = diag.shape
    n = m * d
    a = np.zeros((n, n))
    for j in range(m):
        a[j * d:(j + 1) * d, j * d:(j + 1) * d] = diag[j]
    for j in range(m - 1):
        a[(j + 1) * d:(j + 2) * d, j * d:(j + 1) * d] = off[j]
        a[j * d:(j + 1) * d, (j + 1) * d:(j + 2) * d] = off[j]
    return a


def loop_pack(diag, off):
    """gbsv's band with its kl zero rows, one diagonal of one block pair at a time."""
    m, d, _ = diag.shape
    kl = 2 * d - 1
    work = np.zeros((3 * kl + 1, m * d))
    for i in range(d):
        for l in range(d):
            work[2 * kl + i - l, l::d] = diag[:, i, l]
            work[2 * kl + i - l - d, d + l::d] = off[:, i, l]
            work[2 * kl + i - l + d, l:(m - 1) * d:d] = off[:, i, l]
    return work


def random_system(rng, m, d):
    diag = rng.normal(size=(m, d, d))
    diag += 4.0 * d * np.eye(d)          # diagonally dominant, hence solvable
    off = rng.normal(size=(m - 1, d, d))
    rhs = rng.normal(size=(m, d))
    return diag, off, rhs


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(1, 5), st.integers(0, 10_000))
def test_solve_matches_dense(m, d, seed):
    rng = np.random.default_rng(seed)
    diag, off, rhs = random_system(rng, m, d)
    work = block_tridiag_to_banded(diag, off)
    assert work.flags.f_contiguous
    np.testing.assert_array_equal(work, loop_pack(diag, off))
    x = solve_block_tridiag(diag, off, rhs)
    ref = np.linalg.solve(dense_from_blocks(diag, off), rhs.reshape(-1))
    np.testing.assert_allclose(x.reshape(-1), ref, rtol=1e-9, atol=1e-9)


def test_banded_layout():
    rng = np.random.default_rng(6)
    diag, off, _ = random_system(rng, 5, 2)
    work = block_tridiag_to_banded(diag, off)
    kl = 3
    assert work.shape == (3 * kl + 1, 10)
    assert not work[:kl].any()           # gbsv's fill-in rows
    dense = dense_from_blocks(diag, off)
    n = dense.shape[0]
    for i in range(n):
        for j in range(n):
            if abs(i - j) <= kl:
                assert work[2 * kl + i - j, j] == pytest.approx(dense[i, j])
            else:
                assert dense[i, j] == 0.0


@pytest.mark.parametrize("d", [1, 3])
def test_singular_system_raises(d):
    # a zero column (node 2, regime 0) leaves no pivot for it
    rng = np.random.default_rng(7)
    diag, off, rhs = random_system(rng, 5, d)
    diag[2, :, 0] = 0.0
    off[1, :, 0] = 0.0
    off[2, :, 0] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        solve_block_tridiag(diag, off, rhs)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_inputs_are_left_unchanged(d):
    rng = np.random.default_rng(8)
    system = random_system(rng, 6, d)
    before = [a.copy() for a in system]
    solve_block_tridiag(*system)
    for a, b in zip(system, before):
        np.testing.assert_array_equal(a, b)


def test_missing_lapack_extension_is_an_import_error(monkeypatch):
    # no fallback to scipy.linalg: the error names the directory searched
    monkeypatch.setattr(banded.machinery, "EXTENSION_SUFFIXES", [".absent"])
    banded._drivers.cache_clear()
    with pytest.raises(ImportError, match=r"no LAPACK extension _flapack in .*linalg"):
        banded._drivers()
    monkeypatch.undo()
    assert banded._drivers()[0] is sys.modules["scipy.linalg._flapack"].dgbsv
