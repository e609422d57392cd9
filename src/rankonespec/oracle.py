"""Independent ground truth: dense Galerkin truncation of the operator in its
own eigenbasis with an in-house cyclic Jacobi eigensolver, plus a grid-scan
root finder on the characteristic function.

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
from .numerics import bisect_newton
from .potential import OperatorSpec

LATTICE_GUARD = 1e-3  # scan exclusion radius around even integers


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
    by sign-change bisection on a uniform grid over (0, lambda_max].

    Neighborhoods of the even-integer lattice are skipped: the unperturbed
    function has double zeros there and sign changes cannot resolve them
    (the secular path owns those points).
    """
    if grid_step > 0.01:
        raise ValueError("grid_step must be at most 0.01")
    ctx = charfn.CharContext(op)
    grid = np.arange(grid_step, lambda_max + grid_step / 2.0, grid_step)
    near_lattice = np.abs(grid / 2.0 - np.round(grid / 2.0)) * 2.0 < LATTICE_GUARD
    values = np.real(charfn.char_perturbed(ctx, grid))

    def f(lam: float) -> float:
        return float(np.real(charfn.char_perturbed(ctx, lam)))

    def df(lam: float, h: float = 1e-7) -> float:
        return (f(lam + h) - f(lam - h)) / (2.0 * h)

    roots = []
    for i in range(len(grid) - 1):
        if near_lattice[i] or near_lattice[i + 1]:
            continue
        if values[i] == 0.0:
            roots.append(float(grid[i]))
            continue
        if values[i] * values[i + 1] < 0.0:
            roots.append(bisect_newton(f, df, float(grid[i]), float(grid[i + 1]), rel_tol=1e-10))
    return roots
