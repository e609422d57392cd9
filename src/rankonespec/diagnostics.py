"""Identity validation and oracle comparison reports.

These back the CLI's validate and oracle-compare subcommands and double as
the plumbing the acceptance tests drive: residuals of the secular
factorization (perturbed = secular-function times unperturbed), of the
autocorrelation identity, and side-by-side eigenvalue tables against the
matrix oracle.
"""

from __future__ import annotations

import math

import numpy as np

from . import charfn, oracle
from .potential import OperatorSpec
from .spectrum import classify_spectrum

LATTICE_EXCLUSION = 0.05
GRID_STEP = 0.01
ORACLE_TOL = 1e-8
MAX_PLOT_POINTS = 10 ** 6  # most points char_samples takes: lam_max 1e4, a window of 1e8


def identity_grid() -> np.ndarray:
    """Real evaluation grid on [0.05, 30] avoiding the even lattice."""
    grid = np.arange(0.05, 30.0 + GRID_STEP / 2.0, GRID_STEP)
    dist = np.abs(grid / 2.0 - np.round(grid / 2.0)) * 2.0
    return grid[dist >= LATTICE_EXCLUSION]


def _factorization_residuals(op: OperatorSpec, lam: np.ndarray, d, d0) -> np.ndarray:
    """|d - secular * d0| scaled by max(1, |d|), for the perturbed d and
    unperturbed d0 characteristic functions on lam."""
    q = charfn.secular_function(op.alpha, op.potential.level_norms(), lam * lam)
    return np.abs(d - q * d0) / np.maximum(1.0, np.abs(d))


def identity_report_and_rows(op: OperatorSpec):
    """validate's identity report and its CSV rows (lambda, Re perturbed,
    factorization residual), from one pass of the transform kernel on the
    identity grid; the rows come as an iterator.

    evenness_max and star_symmetry_max are 0.0: char_perturbed evaluates
    every point at its canonical member of {+-lam, +-conj(lam)}, so both
    symmetries hold bit for bit. What evenness asks beyond that, the
    oddness of the edge factor, is the autocorrelation identity."""
    grid = identity_grid()
    d, d0, auto = charfn.char_with_autocorr_residual(op, grid)
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


def char_samples(op: OperatorSpec, lam_max: float):
    """(lambda, Re perturbed) samples for plotting on (0, lam_max]. The grid
    hits the even integers, where D vanishes; + 0.0 writes each such zero as
    0, whatever sign the kernel's rounding left on it. A grid of more than
    MAX_PLOT_POINTS points raises OverflowError before it is allocated."""
    stop = lam_max + GRID_STEP / 2.0
    points = math.ceil((stop - GRID_STEP) / GRID_STEP)  # np.arange's length
    if points > MAX_PLOT_POINTS:
        raise OverflowError(
            f"plot on (0, {lam_max}] takes {points} points, more than MAX_PLOT_POINTS = {MAX_PLOT_POINTS}"
        )
    grid = np.arange(GRID_STEP, stop, GRID_STEP)
    d = np.real(charfn.char_perturbed(op, grid)) + 0.0
    return list(zip(grid.tolist(), d.tolist()))


def oracle_comparison(op: OperatorSpec, window: float) -> dict:
    """Side-by-side table of classified vs oracle eigenvalues up to window.

    The solver's eigenvalues, each repeated by its multiplicity, are matched
    by rank with the oracle's sorted eigenvalues, so eigenvalues however
    close are compared one with one. Each row's z_oracle is its matched
    eigenvalue farthest from z_solver, and its m_oracle the number of oracle
    eigenvalues within ORACLE_TOL of z_solver. The report passes when every
    deviation is within ORACLE_TOL and the oracle's next eigenvalue lies
    above window - ORACLE_TOL, so that the solver missed none.

    The oracle holds every level up to the first one past the window, so it
    always has an eigenvalue beyond the window.
    """
    entries = classify_spectrum(op, window).entries
    n = max(op.potential.K, math.floor(math.sqrt(window) / 2.0) + 1)
    values = oracle.oracle_eigenvalues(op, n)
    count = sum(e.multiplicity for e in entries)
    # a solver listing more eigenvalues than the oracle holds fails the
    # completeness check; its surplus ranks meet the oracle's top eigenvalue
    truth = values[np.minimum(np.arange(count), values.size - 1)].tolist()
    zs = np.array([e.z for e in entries])
    near = np.searchsorted(values, zs + ORACLE_TOL, "right") - np.searchsorted(values, zs - ORACLE_TOL)
    rows = []
    start = 0
    for e, mo in zip(entries, near.tolist()):
        matched = truth[start:start + e.multiplicity]
        start += e.multiplicity
        zo = max(matched, key=lambda z: abs(e.z - z))
        dev = abs(e.z - zo)
        rows.append({"z_solver": e.z, "m_solver": e.multiplicity, "z_oracle": zo, "m_oracle": mo, "deviation": dev})
    max_dev = max((row["deviation"] for row in rows), default=0.0)
    complete = count < values.size and values[count] > window - ORACLE_TOL
    return {
        "max_deviation": max_dev,
        "entries": rows,
        "passed": bool(complete and max_dev <= ORACLE_TOL),
    }
