"""Low-level numerical helpers: stable exponential differences, composite
Gauss-Legendre quadrature, and the bracketed bisection + safeguarded-Newton
root finder used by the secular solver.

All complex helpers accept scalars or ndarrays and are stable near their
removable singularities (numpy's expm1 keeps full relative accuracy there).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConvergenceError


def _as_complex_array(z):
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    return np.atleast_1d(z), scalar


def one_minus_exp(z):
    """1 - e**z, computed without cancellation near z = 0."""
    z, scalar = _as_complex_array(z)
    out = -np.expm1(z)
    return out[0] if scalar else out


def expm1_over(z):
    """(e**z - 1)/z with the removable singularity at z = 0 filled in."""
    z, scalar = _as_complex_array(z)
    out = np.ones_like(z)
    nonzero = z != 0.0
    out[nonzero] = np.expm1(z[nonzero]) / z[nonzero]
    return out[0] if scalar else out


def gauss_legendre_rule(a: float, b: float, nodes_per_unit: int = 64):
    """Composite Gauss-Legendre rule on [a, b], one 64-node panel per unit
    of interval length (spectral accuracy for smooth integrands)."""
    if b <= a:
        raise ValueError("empty integration interval")
    panels = max(1, math.ceil(b - a))
    edges = np.linspace(a, b, panels + 1)
    x0, w0 = np.polynomial.legendre.leggauss(nodes_per_unit)
    xs = []
    ws = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        xs.append(half * x0 + 0.5 * (hi + lo))
        ws.append(half * w0)
    return np.concatenate(xs), np.concatenate(ws)


def integrate(f: Callable, a: float, b: float, nodes_per_unit: int = 64) -> float:
    """Integrate a vectorized real/complex function over [a, b]."""
    x, w = gauss_legendre_rule(a, b, nodes_per_unit)
    return np.sum(w * f(x))


def bisect_newton(
    f: Callable[[float], float],
    df: Callable[[float], float],
    lo: float,
    hi: float,
    rel_tol: float = 1e-12,
    max_newton: int = 12,
) -> float:
    """Root of f on a sign-changing bracket [lo, hi].

    Bisection narrows the bracket to width rel_tol*max(1, |x|) (absolute
    rel_tol near zero), then Newton polishes; Newton steps that leave the
    current bracket fall back to bisection, so the bracket is never lost.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ConvergenceError(f"root not bracketed on [{lo}, {hi}]")

    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel_tol * max(1.0, abs(mid)):
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid

    x = 0.5 * (lo + hi)
    fx = f(x)
    for _ in range(max_newton):
        dfx = df(x)
        if dfx == 0.0:
            break
        step = fx / dfx
        x_new = x - step
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        fx_new = f(x_new)
        # keep the sign-change bracket current
        if flo * fx_new < 0.0:
            hi, fhi = x_new, fx_new
        else:
            lo, flo = x_new, fx_new
        if fx_new == 0.0 or abs(x_new - x) <= 1e-16 * max(1.0, abs(x_new)):
            return x_new
        x, fx = x_new, fx_new
    return x
