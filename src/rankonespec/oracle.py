"""Independent ground truth: the operator in its own eigenbasis, solved with
an in-house cyclic Jacobi eigensolver, plus a grid scan for zeros of the
characteristic function, whose brackets are all refined together by
bisection on its sign.

In the working basis the operator is exactly diag(0, 4, 4, 16, 16, ...) +
alpha u u^T, with u the potential's coefficients. A basis row where u is
zero is already an eigenvalue, its level 4k^2, so only the block of rows
the potential touches (at most 2K+1 of them) is swept, and the other levels
are listed. Keeping the eigensolver in-house keeps this module independent
of the secular path it cross-checks.
"""

from __future__ import annotations

import math

import numpy as np

from . import charfn
from .errors import ConvergenceError
from .potential import OperatorSpec

SCAN_GRID_STEP = 0.01  # spacing of the zero scan's sign-change grid
_EPS = float(np.finfo(float).eps)


def coupled_block(op: OperatorSpec) -> tuple[np.ndarray, np.ndarray]:
    """The basis rows the potential touches and the operator's matrix on
    them: rows 0, 2k-1 and 2k (for c0, c_k and s_k) where the coefficient is
    nonzero, ascending, and diag(0, 4, 4, 16, 16, ...) + alpha u u^T
    restricted to those rows. Its entries are formed as alpha * (u_i u_j),
    then the diagonal added, so they are bit for bit those of the whole
    matrix on any number of basis functions."""
    pot = op.potential
    u = np.zeros(2 * pot.K + 1)
    u[0] = pot.c0
    levels = np.array(pot.pairs, dtype=float).reshape(-1, 3)
    k = levels[:, 0].astype(int)
    u[2 * k - 1] = levels[:, 1]
    u[2 * k] = levels[:, 2]
    rows = np.flatnonzero(u)
    k = (rows + 1) // 2
    m = np.outer(u[rows], u[rows])
    m *= op.alpha
    m += np.diag(4.0 * k * k)
    return rows, m


def jacobi_eigenvalues(
    a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100
) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, sorted.

    Sweeps rotate away every off-diagonal pair until the off-diagonal
    Frobenius norm drops below tol; raises ConvergenceError after
    max_sweeps. A pair that is zero is skipped, and a rotation leaves zero
    the entries of rows it does not couple, so a row that touches nothing
    keeps its diagonal entry exactly.

    The matrix is held as rows of Python floats and each rotation is scalar
    arithmetic: every entry sees the same IEEE operations, in the same
    order, as the row and column updates of a numpy array, so the result is
    bit for bit that of the array sweep, without a dozen numpy calls per
    rotation. Above about 65 rows the scalar loop is the slower of
    the two. Raises ValueError on a non-finite or asymmetric matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise ValueError("matrix must be finite")
    if not (np.abs(a - a.T) <= 1e-12).all():
        raise ValueError("matrix must be symmetric")
    dim = len(a)
    rows = a.tolist()
    off_mask = ~np.eye(dim, dtype=bool)
    for _ in range(max_sweeps):
        a = np.array(rows).reshape(dim, dim)
        off = math.sqrt(float(np.sum(a[off_mask] ** 2)))
        if off <= tol:
            return np.sort(np.diag(a))
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                row_p, row_q = rows[p], rows[q]
                apq = row_p[q]
                # symmetry holds only to 1e-12, so a pair may be nonzero
                # below the diagonal alone; entries this small on both sides
                # cannot move the off-norm past tol
                if abs(apq) < 1e-30:
                    apq = row_q[p]
                    if abs(apq) < 1e-30:
                        continue
                tau = (row_q[q] - row_p[p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for j in range(dim):
                    x, y = row_p[j], row_q[j]
                    row_p[j] = c * x - s * y
                    row_q[j] = s * x + c * y
                # the columns are read from the rotated rows
                for row in rows:
                    x, y = row[p], row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
                # the rotation annihilates this pair exactly
                row_p[q] = row_q[p] = 0.0
    raise ConvergenceError(f"Jacobi sweep limit ({max_sweeps}) exceeded")


def oracle_eigenvalues(op: OperatorSpec, n: int) -> np.ndarray:
    """Sorted eigenvalues of the operator on the first 2n+1 basis functions:
    those of the coupled block, and each level 4k^2, k <= n, as often as it
    has rows the potential does not touch. This is exact for every n that
    covers the potential order (higher levels decouple); raises ValueError
    when n is below it."""
    if n < op.potential.K:
        raise ValueError("truncation level does not cover the potential order")
    rows, block = coupled_block(op)
    k = np.arange(n + 1)
    free = np.full(n + 1, 2)
    free[0] = 1
    free -= np.bincount((rows + 1) // 2, minlength=n + 1)
    return np.sort(np.concatenate((jacobi_eigenvalues(block), np.repeat(4.0 * k * k, free))))


def scan_char_zeros(op: OperatorSpec, lambda_max: float) -> list[float]:
    """Positive real zeros of the perturbed characteristic function located
    by sign changes on a uniform grid over [sqrt(eps), lambda_max].

    D is formed from the exact offset of lambda from the even-integer
    lattice, so its sign is right up to one ulp of every lattice point 2p.
    Each 2p gives way to its two neighbouring floats, and only the one-ulp
    cell between them is dropped: there the unperturbed function has a
    double zero and D the simple zero of the reduced eigenvalue, which the
    secular path owns. A root one ulp or more from 2p is bracketed, so a
    secular root that coincides with an inactive level to within an ulp is
    not returned. Below sqrt(eps) D's lambda^2 term sinks under its rounding
    when level 0 is inactive, so the grid opens there. All brackets are
    refined together by bisection on the sign of D, each to 4 eps of its
    midpoint.
    """
    grid = np.arange(SCAN_GRID_STEP, lambda_max + SCAN_GRID_STEP / 2.0, SCAN_GRID_STEP)
    lattice = 2.0 * np.arange(1, math.floor(lambda_max / 2.0) + 1)
    sides = np.concatenate((np.nextafter(lattice, -np.inf), np.nextafter(lattice, np.inf)))
    grid = np.unique(np.concatenate((
        [math.sqrt(_EPS)], grid[grid != 2.0 * np.round(grid / 2.0)], sides[sides <= lambda_max]
    )))
    values = np.real(charfn.char_perturbed(op, grid))
    # the one cell around each lattice point is the only one whose ends
    # fall in different periods of length 2
    clear = np.floor(grid[:-1] / 2.0) == np.floor(grid[1:] / 2.0)
    found = clear & (values[:-1] == 0.0)
    bracketed = np.flatnonzero(clear & (values[:-1] * values[1:] < 0.0))
    lo, hi = grid[bracketed], grid[bracketed + 1]
    f_lo = values[bracketed]
    # enough halvings to take every bracket below 4 eps of its lower end, and
    # one more for the rounding of the midpoints, which adds up to an ulp
    steps = 1 + math.ceil(math.log2(np.max((hi - lo) / (4.0 * _EPS * lo), initial=1.0)))
    x = 0.5 * (lo + hi)
    live = np.arange(len(x))
    for _ in range(steps):
        if live.size == 0:
            break
        t = x[live]
        f = np.real(charfn.char_perturbed(op, t))
        same = f * f_lo[live] > 0.0
        lo[live[same]] = t[same]
        hi[live[~same]] = t[~same]
        a, b = lo[live], hi[live]
        done = (f == 0.0) | (b - a <= 4.0 * _EPS * t)
        x[live] = np.where(done, t, 0.5 * (a + b))
        live = live[~done]
    roots = grid[:-1].copy()
    roots[bracketed] = x
    found[bracketed] = True
    return roots[found].tolist()
