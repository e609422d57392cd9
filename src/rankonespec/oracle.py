"""Independent ground truth: dense Galerkin truncation of the operator in its
own eigenbasis with an in-house cyclic Jacobi eigensolver, plus a grid scan
for zeros of the characteristic function, whose brackets are all refined
together by Newton steps on its complex-step derivative.

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

LATTICE_GUARD = 1e-3  # scan exclusion radius around even integers
CLUSTER_RADIUS = 1e-6  # eigenvalues closer than this form one cluster
SCAN_GRID_STEP = 0.01  # spacing of the zero scan's sign-change grid
# complex step of the zero scan: Re D(x + ih) = D(x) - h^2 D''(x)/2 and
# Im D(x + ih)/h = D'(x) - h^2 D'''(x)/6. Away from the lattice the kernel's
# intermediates are O(1) and complex, and their rounding swamps a step of
# 1e-20; at 1e-8 the h^2 term moves roots near the origin, where D' ~ D'' x,
# by 1e-13 relative. 1e-10 keeps both below rounding.
_COMPLEX_STEP = 1e-10
_SCAN_STEPS = 64  # bisection alone takes a SCAN_GRID_STEP bracket below an ulp in 46
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
    by sign changes on a uniform grid over (0, lambda_max].

    The LATTICE_GUARD neighborhoods of the even-integer lattice are
    skipped: the unperturbed function has double zeros there and sign
    changes cannot resolve them (the secular path owns those points). Grid
    nodes inside a neighborhood give way to nodes on its two edges, and only
    the cell between those edges is dropped, so every root farther than the
    guard from the lattice is bracketed. All brackets are refined together
    by Newton steps on the complex-step derivative: one evaluation at
    x + ih gives D(x) as its real part and D'(x) as its imaginary part over
    h. A step that leaves its bracket becomes a bisection, and the sign of D
    keeps every bracket current.
    """
    grid = np.arange(SCAN_GRID_STEP, lambda_max + SCAN_GRID_STEP / 2.0, SCAN_GRID_STEP)
    off_lattice = np.abs(grid - 2.0 * np.round(grid / 2.0)) >= LATTICE_GUARD
    lattice = 2.0 * np.arange(math.floor(lambda_max / 2.0 + LATTICE_GUARD) + 1)
    edges = np.concatenate((lattice - LATTICE_GUARD, lattice + LATTICE_GUARD))
    edges = edges[(edges > 0.0) & (edges <= lambda_max)]
    grid = np.unique(np.concatenate((grid[off_lattice], edges)))
    values = np.real(charfn.char_perturbed(op, grid))
    # the one cell around each lattice point is the only one whose ends
    # fall in different periods of length 2
    clear = np.floor(grid[:-1] / 2.0) == np.floor(grid[1:] / 2.0)
    found = clear & (values[:-1] == 0.0)
    bracketed = np.flatnonzero(clear & (values[:-1] * values[1:] < 0.0))
    lo, hi = grid[bracketed], grid[bracketed + 1]
    f_lo = values[bracketed]
    x = 0.5 * (lo + hi)
    live = np.arange(len(x))
    for _ in range(_SCAN_STEPS):
        if live.size == 0:
            break
        t = x[live]
        d = charfn.char_perturbed(op, t + 1j * _COMPLEX_STEP)
        f = d.real
        slope = d.imag / _COMPLEX_STEP
        same = f * f_lo[live] > 0.0
        lo[live[same]] = t[same]
        hi[live[~same]] = t[~same]
        a, b = lo[live], hi[live]
        newton = t - f / np.where(slope == 0.0, np.nan, slope)
        inside = (a < newton) & (newton < b)
        # converged at a Newton step or a bracket of a few ulp (absolute
        # near 0): rounding in D can put the one just outside the other
        tol = 4.0 * _EPS * np.maximum(1.0, t)
        done = (f == 0.0) | (np.abs(newton - t) <= tol) | (b - a <= tol)
        x[live] = np.where(inside, newton, np.where(done, t, 0.5 * (a + b)))
        live = live[~done]
    if live.size:
        raise ConvergenceError(f"zero scan: {live.size} roots not converged in {_SCAN_STEPS} steps")
    roots = grid[:-1].copy()
    roots[bracketed] = x
    found[bracketed] = True
    return roots[found].tolist()
