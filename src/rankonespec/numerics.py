"""Low-level numerical helpers: stable exponential differences, the composite
Gauss-Legendre rule, and the batched pole-relative solver of the secular
equation.

All complex helpers accept scalars or ndarrays and are stable near their
removable singularities (numpy's expm1 keeps full relative accuracy there).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

_EPS = float(np.finfo(float).eps)
_MAX_STEPS = 60  # random levels, |alpha| in [1e-8, 1e8], norms >= 1e-13: at most 11


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


def _gap_origins(poles: np.ndarray, x: np.ndarray):
    """Origin pole, the other pole of its two-pole model, start offset and
    bracket of every root of the secular function with ascending poles and
    positive weights.

    The root in gap j is measured from the pole nearer to it (q increases
    across the gap, so q > 0 at the midpoint puts the root in the lower
    half), its model's other pole is the gap's other end, and it starts at
    the midpoint. The exterior root is measured from the top pole, with the
    pole below as the model's other pole (the top pole itself when it is
    the only one, whose root the start offset already is). It lies in
    (p_top, p_top + sum x] because every term is at least -x_k/(z - p_top)
    there; the bracket is taken twice as wide, so it stays open at the root
    p_top + sum x of a single pole.
    """
    half = 0.5 * np.diff(poles)
    mid = poles[:-1] + half
    upper = 1.0 + np.sum(x / (poles - mid[:, None]), axis=1) < 0.0
    total = float(np.sum(x))
    gap = np.arange(len(half))
    origin = np.append(gap + upper, len(poles) - 1)
    other = np.append(gap + ~upper, max(len(poles) - 2, 0))
    tau = np.append(np.where(upper, -half, half), total)
    lo = np.append(np.where(upper, -half, 0.0), 0.0)
    hi = np.append(np.where(upper, 0.0, half), 2.0 * total)
    return origin, other, tau, lo, hi


def _model_roots(t, d_other, x_origin, w, dw, exterior):
    """New offsets from the two-pole rational model of q at the offsets t.

    The model c - x_origin/tau + S/(d_other - tau) keeps the origin pole (at
    offset 0) with its exact weight (the fixed-weight method) and the other
    pole nearest the root at its exact offset d_other; c and S match q and
    q' at t. Its roots solve c tau^2 - a tau + b = 0: the one between the
    two poles for an interior root, the one above both for the exterior
    root. Solving for tau itself, not for a step from t, keeps a root next
    to its pole to full relative accuracy however far t is from it.
    """
    g = d_other - t
    s_other = g * g * (dw - x_origin / (t * t))
    c = w + x_origin / t - s_other / g
    a = c * d_other + x_origin + s_other
    b = x_origin * d_other
    side = np.where(exterior, 1.0, -1.0)
    root = np.sqrt(np.abs(a * a - 4.0 * b * c))
    far = a * side >= 0.0  # a + side * root adds magnitudes
    linear = far & (c == 0.0)
    num = np.where(linear, b, np.where(far, a + side * root, 2.0 * b))
    den = np.where(linear, a, np.where(far, 2.0 * c, a - side * root))
    return num / np.where(den == 0.0, np.nan, den)  # nan: no model root


def secular_equation_roots(poles: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Roots of q(z) = 1 + sum_k x_k/(p_k - z) for ascending poles whose
    differences are exact in floating point and positive weights: one in
    each gap between consecutive poles, then the one above the top pole.

    Every root is held as an offset tau from the pole nearer to it, so each
    pole difference is exact and q keeps full relative accuracy however
    close a root is to its pole. All offsets iterate together. Each step is
    the root of a two-pole rational model of q that keeps the origin pole's
    weight exact (the fixed-weight method of Bunch-Nielsen-Sorensen and
    LAPACK's dlaed4); a step pointing away from the root becomes a Newton
    step, and one leaving the root's sign-change bracket becomes a
    bisection. A root is done when q there is within its rounding bound or
    the step is below an ulp of tau; one more Newton step then leaves it
    within a few ulp of the exact root of the given weights. Each root is
    clipped to the open interval of its gap, so roots interlace strictly
    with the poles even when tau is below the pole's ulp. Memory is
    O(len(poles)^2).
    """
    n = len(poles)
    origin, other, tau, lo, hi = _gap_origins(poles, x)
    offsets = poles - poles[origin][:, None]  # exact: integers
    exterior = np.arange(n) == n - 1
    live = np.arange(n)
    for _ in range(_MAX_STEPS):
        t = tau[live]
        gaps = offsets[live] - t[:, None]
        terms = x / gaps
        w = 1.0 + np.sum(terms, axis=1)
        dw = np.sum(terms / gaps, axis=1)
        lo[live] = np.where(w < 0.0, t, lo[live])
        hi[live] = np.where(w > 0.0, t, hi[live])
        step = _model_roots(
            t, offsets[live, other[live]], x[origin[live]], w, dw, exterior[live]
        )
        step = np.where(w * (step - t) > 0.0, t - w / dw, step)
        lo_t, hi_t = lo[live], hi[live]
        inside = (lo_t < step) & (step < hi_t)
        # bisect in the log of |tau| when the bracket has one sign: a root
        # can sit many decades closer to its pole than the bracket's far end
        span = lo_t * hi_t
        geometric = np.sqrt(np.abs(span))
        mid = np.where(span > 0.0, np.where(hi_t > 0.0, geometric, -geometric), 0.5 * (lo_t + hi_t))
        step = np.where(inside, step, mid)
        # w within its own rounding error: n + 2 roundings of terms at most
        # sum |terms| in size
        quiet = np.abs(w) <= _EPS * (n + 2) * (1.0 + np.sum(np.abs(terms), axis=1))
        step = np.where(quiet & ~inside, t, step)
        tau[live] = step
        live = live[~(quiet | (np.abs(step - t) <= _EPS * np.abs(step)))]
        if live.size == 0:
            break
    else:
        raise ConvergenceError(
            f"secular solve: {live.size} roots not converged in {_MAX_STEPS} steps"
        )

    # one Newton step from every root's final offset: a root stopped by its
    # rounding bound can sit anywhere in that band, the step recentres it
    gaps = offsets - tau[:, None]
    terms = x / gaps
    z = poles[origin] + (tau - (1.0 + np.sum(terms, axis=1)) / np.sum(terms / gaps, axis=1))
    upper = np.append(poles[1:], np.inf)
    return np.clip(z, np.nextafter(poles, np.inf), np.nextafter(upper, -np.inf))
