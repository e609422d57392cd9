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
from dataclasses import dataclass, field

import numpy as np

from . import charfn
from .errors import ConvergenceError
from .potential import OperatorSpec

LATTICE_GUARD = 1e-3  # scan exclusion radius around even integers
# complex step of the zero scan: Re D(x + ih) = D(x) - h^2 D''(x)/2 and
# Im D(x + ih)/h = D'(x) - h^2 D'''(x)/6. Away from the lattice the kernel's
# intermediates are O(1) and complex, and their rounding swamps a step of
# 1e-20; at 1e-8 the h^2 term moves roots near the origin, where D' ~ D'' x,
# by 1e-13 relative. 1e-10 keeps both below rounding.
_COMPLEX_STEP = 1e-10
_SCAN_STEPS = 64  # bisection alone takes a 0.01 bracket below an ulp in 46
_EPS = float(np.finfo(float).eps)


def basis_dimension(n: int) -> int:
    return 2 * n + 1


@dataclass(frozen=True)
class TruncatedOperator:
    """Galerkin truncation onto the first 2n+1 basis functions.

    diagonal holds the unperturbed levels (0, 4, 4, 16, 16, ...), rank_one
    the potential coefficient vector in the same ordering. Truncation is
    exact as long as n covers the potential order (higher levels decouple);
    callers normally keep a margin of 8 on top to make the decoupling itself
    a testable claim.
    """

    n: int
    diagonal: np.ndarray = field(repr=False)
    rank_one: np.ndarray = field(repr=False)
    alpha: float

    @classmethod
    def from_operator(cls, op: OperatorSpec, n: int) -> "TruncatedOperator":
        if n < op.potential.K:
            raise ValueError("truncation level does not cover the potential order")
        dim = basis_dimension(n)
        diag = np.zeros(dim)
        for k in range(1, n + 1):
            diag[2 * k - 1] = diag[2 * k] = 4.0 * k * k
        u = np.zeros(dim)
        u[0] = op.potential.c0
        for k, c, s in op.potential.pairs:
            u[2 * k - 1] = c
            u[2 * k] = s
        return cls(n=n, diagonal=diag, rank_one=u, alpha=op.alpha)

    def matrix(self) -> np.ndarray:
        return np.diag(self.diagonal) + self.alpha * np.outer(self.rank_one, self.rank_one)


def truncated_matrix(op: OperatorSpec, n: int) -> np.ndarray:
    """Dense symmetric matrix of the truncated operator."""
    return TruncatedOperator.from_operator(op, n).matrix()


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
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, atol=1e-12, rtol=0.0):
        raise ValueError("matrix must be symmetric")
    d = np.diag(a).copy()
    # a nonzero in its row or its column couples an index: symmetry is
    # only checked to 1e-12, and the sweep reads the upper triangle
    touched = a != np.diag(d)
    coupled = np.flatnonzero(np.any(touched, axis=0) | np.any(touched, axis=1))
    a = a[np.ix_(coupled, coupled)]
    dim = a.shape[0]
    off_mask = ~np.eye(dim, dtype=bool)
    for _ in range(max_sweeps):
        off = math.sqrt(float(np.sum(a[off_mask] ** 2)))
        if off <= tol:
            d[coupled] = np.diag(a)
            return np.sort(d)
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                apq = a[p, q]
                # entries this small cannot move the off-norm past tol
                if abs(apq) < 1e-30:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                col_p = c * a[:, p] - s * a[:, q]
                col_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = col_p, col_q
                # the rotation annihilates this pair exactly
                a[p, q] = a[q, p] = 0.0
    raise ConvergenceError(f"Jacobi sweep limit ({max_sweeps}) exceeded")


def cluster_eigenvalues(
    values: np.ndarray, cluster_radius: float = 1e-6
) -> list[tuple[float, int]]:
    """Group sorted eigenvalues into (mean, multiplicity) clusters: a new
    cluster starts wherever two neighbours are more than cluster_radius
    apart."""
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size == 0:
        return []
    starts = np.concatenate(([0], np.flatnonzero(np.diff(vals) > cluster_radius) + 1))
    counts = np.diff(np.append(starts, vals.size))
    means = np.add.reduceat(vals, starts) / counts
    # reduceat sums a0 + (a1 + a2 ...), np.mean (a0 + a1) + a2 ...; keep
    # np.mean's rounding for the rare clusters where the two can differ
    for i in np.flatnonzero(counts > 2):
        means[i] = np.mean(vals[starts[i]:starts[i] + counts[i]])
    return list(zip(means.tolist(), counts.tolist()))


def oracle_spectrum(
    op: OperatorSpec, n: int, cluster_radius: float = 1e-6
) -> list[tuple[float, int]]:
    """Clustered eigenvalues of the truncated matrix."""
    values = jacobi_eigenvalues(truncated_matrix(op, n))
    return cluster_eigenvalues(values, cluster_radius)


def scan_char_zeros(
    op: OperatorSpec, lambda_max: float, grid_step: float = 0.01
) -> list[float]:
    """Positive real zeros of the perturbed characteristic function located
    by sign changes on a uniform grid over (0, lambda_max].

    Neighborhoods of the even-integer lattice are skipped: the unperturbed
    function has double zeros there and sign changes cannot resolve them
    (the secular path owns those points). All brackets are refined together
    by Newton steps on the complex-step derivative: one evaluation at
    x + ih gives D(x) as its real part and D'(x) as its imaginary part over
    h. A step that leaves its bracket becomes a bisection, and the sign of D
    keeps every bracket current.
    """
    if grid_step > 0.01:
        raise ValueError("grid_step must be at most 0.01")
    ctx = charfn.CharContext(op)
    grid = np.arange(grid_step, lambda_max + grid_step / 2.0, grid_step)
    near_lattice = np.abs(grid / 2.0 - np.round(grid / 2.0)) * 2.0 < LATTICE_GUARD
    values = np.real(charfn.char_perturbed(ctx, grid))
    clear = ~(near_lattice[:-1] | near_lattice[1:])
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
        d = charfn.char_perturbed(ctx, t + 1j * _COMPLEX_STEP)
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
