"""Identity validation and oracle comparison reports.

These back the CLI's validate and oracle-compare subcommands and double as
the plumbing the acceptance tests drive: residuals of the secular
factorization (perturbed = secular-function times unperturbed), of the
autocorrelation identity, and side-by-side eigenvalue tables against the
matrix-truncation oracle.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import charfn, oracle
from .potential import OperatorSpec
from .spectrum import classify_spectrum, weight_table

LATTICE_EXCLUSION = 0.05


def identity_grid(lam_max: float = 30.0, step: float = 0.01) -> np.ndarray:
    """Real evaluation grid on [0.05, lam_max] avoiding the even lattice."""
    grid = np.arange(0.05, lam_max + step / 2.0, step)
    dist = np.abs(grid / 2.0 - np.round(grid / 2.0)) * 2.0
    return grid[dist >= LATTICE_EXCLUSION]


def _factorization_residuals(op: OperatorSpec, lam: np.ndarray, d, d0) -> np.ndarray:
    """|d - secular * d0| scaled by max(1, |d|), for the perturbed d and
    unperturbed d0 characteristic functions on lam."""
    if op.alpha == 0.0:
        q = 1.0
    else:
        table = weight_table(op)
        norms = {k: x / op.alpha for k, x in table.weights.items()}
        q = charfn.secular_function(op.alpha, norms, lam * lam)
    return np.abs(d - q * d0) / np.maximum(1.0, np.abs(d))


def autocorr_identity_residuals(op: OperatorSpec, lam: np.ndarray) -> np.ndarray:
    """|AC + AC* - F F*| on lam, from one pass of the transform kernel."""
    return charfn.autocorr_identity_residual(op.potential, lam)


def identity_report_and_rows(op: OperatorSpec, lam_max: float = 30.0):
    """identity_report and the validation_csv_rows, from one pass of the
    transform kernel on the identity grid; the rows come as an iterator.

    evenness_max and star_symmetry_max are 0.0: char_perturbed evaluates
    every point at its canonical member of {+-lam, +-conj(lam)}, so both
    symmetries hold bit for bit. What evenness asks beyond that, the
    oddness of the edge factor, is the autocorrelation identity."""
    grid = identity_grid(lam_max)
    d, d0, auto = charfn.char_with_autocorr_residual(charfn.CharContext(op), grid)
    fact = _factorization_residuals(op, grid, d, d0)
    report = {
        "secular_factorization_max": float(np.max(fact)),
        "autocorr_identity_max": float(np.max(auto)),
        "evenness_max": 0.0,
        "star_symmetry_max": 0.0,
    }
    report["passed"] = bool(
        report["secular_factorization_max"] <= 1e-9 and report["autocorr_identity_max"] <= 1e-10
    )
    return report, zip(grid.tolist(), d.real.tolist(), fact.tolist())


def identity_report(op: OperatorSpec, lam_max: float = 30.0) -> dict:
    return identity_report_and_rows(op, lam_max)[0]


def validation_csv_rows(op: OperatorSpec, lam_max: float = 30.0):
    """(lambda, Re perturbed, factorization residual) rows for plotting."""
    return list(identity_report_and_rows(op, lam_max)[1])


def char_samples(op: OperatorSpec, lam_max: float = 30.0, step: float = 0.01):
    """(lambda, Re perturbed) samples for plotting."""
    grid = np.arange(step, lam_max + step / 2.0, step)
    ctx = charfn.CharContext(op)
    d = np.real(charfn.char_perturbed(ctx, grid))
    return list(zip(grid.tolist(), d.tolist()))


def oracle_comparison(
    op: OperatorSpec,
    window: float,
    n: Optional[int] = None,
    cluster_radius: float = 1e-6,
    tol: float = 1e-8,
) -> dict:
    """Side-by-side table of classified vs oracle eigenvalues up to window.

    The oracle merges eigenvalues closer than cluster_radius into one
    cluster, so solver entries that close are grouped the same way: each
    group is matched with one oracle cluster and its multiplicities must add
    up to the cluster's. Inside a group the solver values, each repeated by
    its multiplicity, are compared in ascending order with the raw oracle
    eigenvalues of the cluster, not with their mean, so a secular root
    within cluster_radius of a reduced level is not charged half their gap.
    Each row's z_oracle is its matched eigenvalue farthest from z_solver.

    Raises ValueError when the truncation n leaves out a level inside the
    window, i.e. when the first level above it, 4(n+1)^2, is at most window:
    the oracle would miss eigenvalues the solver reports.
    """
    if n is None:
        n = max(op.potential.K + 8, int(math.ceil(2.0 * math.sqrt(max(window, 4.0)))) + 16)
    if 4 * (n + 1) ** 2 <= window:
        raise ValueError(f"truncation {n} does not reach the window {window}")
    solver = [(e.z, e.multiplicity) for e in classify_spectrum(op, window).entries]
    values = oracle.jacobi_eigenvalues(oracle.truncated_matrix(op, n))
    clusters = oracle.cluster_eigenvalues(values, cluster_radius)
    ends = np.cumsum([m for _, m in clusters])
    truth = [
        (z, m, values[end - m:end].tolist()) for (z, m), end in zip(clusters, ends) if z <= window
    ]
    groups: list[list[tuple[float, int]]] = []
    for zs, ms in solver:
        if groups and zs - groups[-1][-1][0] <= cluster_radius:
            groups[-1].append((zs, ms))
        else:
            groups.append([(zs, ms)])
    rows = []
    max_dev = 0.0
    structure_ok = len(groups) == len(truth)
    for group, (_, mo, raw) in zip(groups, truth):
        structure_ok = structure_ok and sum(ms for _, ms in group) == mo
        start = 0
        for zs, ms in group:
            # a group with more entries than the cluster fails the structure
            # check; its surplus entries meet the cluster's top eigenvalue
            matched = raw[min(start, mo - 1):start + ms]
            start += ms
            zo = max(matched, key=lambda z: abs(zs - z))
            dev = abs(zs - zo)
            max_dev = max(max_dev, dev)
            rows.append({"z_solver": zs, "m_solver": ms, "z_oracle": zo, "m_oracle": mo, "deviation": dev})
    return {
        "truncation": n,
        "max_deviation": max_dev,
        "entries": rows,
        "passed": bool(structure_ok and max_dev <= tol),
    }
