"""Block-tridiagonal banded solve against a dense oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rslv_lab.banded import block_tridiag_to_banded, solve_banded, solve_block_tridiag


def dense_from_blocks(diag, lower, upper):
    m, d, _ = diag.shape
    n = m * d
    a = np.zeros((n, n))
    for j in range(m):
        a[j * d:(j + 1) * d, j * d:(j + 1) * d] = diag[j]
    for j in range(m - 1):
        a[(j + 1) * d:(j + 2) * d, j * d:(j + 1) * d] = lower[j]
        a[j * d:(j + 1) * d, (j + 1) * d:(j + 2) * d] = upper[j]
    return a


def loop_pack(diag, lower, upper):
    """The band, one diagonal of one block pair at a time (reference)."""
    m, d, _ = diag.shape
    ku = 2 * d - 1
    ab = np.zeros((2 * ku + 1, m * d))
    for i in range(d):
        for l in range(d):
            ab[ku + i - l, l::d] = diag[:, i, l]
            ab[ku + i - l - d, d + l::d] = upper[:, i, l]
            ab[ku + i - l + d, l:(m - 1) * d:d] = lower[:, i, l]
    return ab


def random_system(rng, m, d):
    diag = rng.normal(size=(m, d, d))
    diag += 4.0 * d * np.eye(d)          # diagonally dominant, hence solvable
    lower = rng.normal(size=(m - 1, d, d))
    upper = rng.normal(size=(m - 1, d, d))
    rhs = rng.normal(size=(m, d))
    return diag, lower, upper, rhs


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(1, 5), st.integers(0, 10_000))
def test_solve_matches_dense(m, d, seed):
    rng = np.random.default_rng(seed)
    diag, lower, upper, rhs = random_system(rng, m, d)
    np.testing.assert_array_equal(block_tridiag_to_banded(diag, lower, upper)[0],
                                  loop_pack(diag, lower, upper))
    x = solve_block_tridiag(diag, lower, upper, rhs)
    ref = np.linalg.solve(dense_from_blocks(diag, lower, upper), rhs.reshape(-1))
    np.testing.assert_allclose(x.reshape(-1), ref, rtol=1e-9, atol=1e-9)


def test_banded_layout():
    rng = np.random.default_rng(6)
    diag, lower, upper, _ = random_system(rng, 5, 2)
    ab, (kl, ku) = block_tridiag_to_banded(diag, lower, upper)
    dense = dense_from_blocks(diag, lower, upper)
    n = dense.shape[0]
    for i in range(n):
        for j in range(n):
            if abs(i - j) <= ku:
                assert ab[ku + i - j, j] == pytest.approx(dense[i, j])
            else:
                assert dense[i, j] == 0.0


@pytest.mark.parametrize("d", [1, 3])
def test_singular_system_raises(d):
    # a zero column (node 2, regime 0) leaves no pivot for it
    rng = np.random.default_rng(7)
    diag, lower, upper, rhs = random_system(rng, 5, d)
    diag[2, :, 0] = 0.0
    upper[1, :, 0] = 0.0
    lower[2, :, 0] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        solve_block_tridiag(diag, lower, upper, rhs)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_inputs_are_left_unchanged(d):
    rng = np.random.default_rng(8)
    system = random_system(rng, 6, d)
    before = [a.copy() for a in system]
    solve_block_tridiag(*system)
    for a, b in zip(system, before):
        np.testing.assert_array_equal(a, b)


def test_solve_banded_needs_the_packed_band():
    with pytest.raises(ValueError):
        solve_banded((3, 3), np.zeros((7, 8)), np.ones(8))
