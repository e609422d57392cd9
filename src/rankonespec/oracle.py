"""Independent ground truth: dense Galerkin truncation of the operator in its
own eigenbasis with an in-house cyclic Jacobi eigensolver, plus a grid scan
for zeros of the characteristic function, whose brackets are all refined
together by bisection on its sign.

In the working basis the operator is exactly diagonal-plus-rank-one, and for
a finite-order potential every basis level above the potential order
decouples, so the truncation itself introduces no error. Keeping the
eigensolver in-house keeps this module independent of the secular path it
cross-checks.
"""

from __future__ import annotations

import math

import numpy as np

from . import charfn
from .errors import ConvergenceError
from .potential import OperatorSpec

CLUSTER_RADIUS = 1e-6  # eigenvalues closer than this form one cluster
SCAN_GRID_STEP = 0.01  # spacing of the zero scan's sign-change grid
_EPS = float(np.finfo(float).eps)


def truncated_matrix(op: OperatorSpec, n: int) -> np.ndarray:
    """Dense symmetric matrix of the Galerkin truncation onto the first
    2n+1 basis functions: diag(0, 4, 4, 16, 16, ...) + alpha u u^T, with u
    the potential's coefficients in the same ordering.

    Truncation is exact as long as n covers the potential order (higher
    levels decouple); callers normally keep a margin of 8 on top to make the
    decoupling itself a testable claim. Raises ValueError when n is below
    the potential order.
    """
    if n < op.potential.K:
        raise ValueError("truncation level does not cover the potential order")
    dim = 2 * n + 1
    diag = np.zeros(dim)
    k = np.arange(1, n + 1)
    diag[1::2] = diag[2::2] = 4.0 * k * k
    u = np.zeros(dim)
    u[0] = op.potential.c0
    levels = np.array(op.potential.pairs, dtype=float).reshape(-1, 3)
    k = levels[:, 0].astype(int)
    u[2 * k - 1] = levels[:, 1]
    u[2 * k] = levels[:, 2]
    # alpha * u u^T + diag in place, two matrix-sized temporaries fewer;
    # IEEE addition commutes, so the bits are those of diag + alpha * u u^T
    m = np.outer(u, u)
    m *= op.alpha
    m += np.diag(diag)
    return m


def jacobi_eigenvalues(
    a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100
) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    A row and column with no nonzero off-diagonal entry already hold an
    eigenvalue on the diagonal and are deflated: the sweeps run on the block
    of the coupled rows only. This is exact, not an approximation. Every
    pair that touches an uncoupled row is zero and would be skipped, and a
    rotation of two coupled rows leaves the uncoupled entries exactly zero,
    so the block sees the same rotations, in the same order and arithmetic,
    as the full matrix would. Sweeps rotate away every off-diagonal pair
    until the off-diagonal Frobenius norm drops below tol; raises
    ConvergenceError after max_sweeps.

    The block is held as rows of Python floats and each rotation is scalar
    arithmetic: every entry sees the same IEEE operations, in the same
    order, as the row and column updates of a numpy array, so the result is
    bit for bit that of the array sweep, without a dozen numpy calls per
    rotation. Above about 65 coupled rows the scalar loop is the slower of
    the two. Raises ValueError on a non-finite or asymmetric matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    d = np.diag(a).copy()
    # a nonzero in its row or its column couples an index: symmetry is
    # only checked to 1e-12, and the sweep reads the upper triangle
    touched = a != 0.0
    np.fill_diagonal(touched, False)
    coupled = np.flatnonzero(np.any(touched, axis=0) | np.any(touched, axis=1))
    block = a[np.ix_(coupled, coupled)]
    # off the diagonal and the block every entry and its mirror are zero,
    # so only those two can be non-finite or asymmetric
    if not (np.isfinite(d).all() and np.isfinite(block).all()):
        raise ValueError("matrix must be finite")
    if not (np.abs(block - block.T) <= 1e-12).all():
        raise ValueError("matrix must be symmetric")
    dim = coupled.size
    rows = block.tolist()
    off_mask = ~np.eye(dim, dtype=bool)
    for _ in range(max_sweeps):
        block = np.array(rows).reshape(dim, dim)
        off = math.sqrt(float(np.sum(block[off_mask] ** 2)))
        if off <= tol:
            d[coupled] = np.diag(block)
            return np.sort(d)
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


def cluster_eigenvalues(values: np.ndarray) -> list[tuple[float, int]]:
    """Group sorted eigenvalues into (mean, multiplicity) clusters: a new
    cluster starts wherever two neighbours are more than CLUSTER_RADIUS
    apart."""
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size == 0:
        return []
    starts = np.concatenate(([0], np.flatnonzero(np.diff(vals) > CLUSTER_RADIUS) + 1))
    counts = np.diff(np.append(starts, vals.size))
    means = np.add.reduceat(vals, starts) / counts
    # reduceat sums a0 + (a1 + a2 ...), np.mean (a0 + a1) + a2 ...; keep
    # np.mean's rounding for the rare clusters where the two can differ
    for i in np.flatnonzero(counts > 2):
        means[i] = np.mean(vals[starts[i]:starts[i] + counts[i]])
    return list(zip(means.tolist(), counts.tolist()))


def oracle_spectrum(op: OperatorSpec, n: int) -> list[tuple[float, int]]:
    """Clustered eigenvalues of the truncated matrix."""
    return cluster_eigenvalues(jacobi_eigenvalues(truncated_matrix(op, n)))


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
