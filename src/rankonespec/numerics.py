"""Low-level numerical helpers: the stable exponential difference and the
pole-relative solver of the secular equation, whose live roots step together
in Python floats.

one_minus_exp accepts scalars or ndarrays and is stable near its removable
singularity (numpy's expm1 keeps full relative accuracy there).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

_EPS = float(np.finfo(float).eps)
_MAX_STEPS = 60  # random levels, |alpha| in [1e-8, 1e8], norms >= 1e-13: at most 13 in 20,000 solves
# numpy's add.reduce sums fewer than 8 contiguous terms left to right (pairwise
# from 8), so below 8 poles a plain loop forms secular_eval's sums bit for bit
_FEW_POLES = 8


def one_minus_exp(z):
    """1 - e**z, computed without cancellation near z = 0."""
    return -np.expm1(np.asarray(z, dtype=complex))


def secular_eval(gaps: np.ndarray, x: np.ndarray):
    """q = 1 + sum_k x_k/(p_k - z), q' = sum_k x_k/(p_k - z)^2 and q's
    rounding bound eps (n + 2)(1 + sum_k |x_k/(p_k - z)|) over n poles (n + 2
    roundings of terms at most sum |terms| in size), for each row of gaps
    p_k - z (a 1-D gaps is one z). q is only as accurate as the gaps the
    caller forms: exact pole differences less one offset keep it accurate
    next to a pole."""
    terms = x / gaps
    rounding = _EPS * (x.shape[-1] + 2) * (1.0 + np.add.reduce(np.abs(terms), axis=-1))
    return 1.0 + np.add.reduce(terms, axis=-1), np.add.reduce(terms / gaps, axis=-1), rounding




@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def secular_equation_roots(poles: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Roots of q(z) = 1 + sum_k x_k/(p_k - z) for ascending poles whose
    differences are exact in floating point and positive weights: one in
    each gap between consecutive poles, then the one above the top pole.

    Every root is held as its origin, the pole nearer to it, and an offset
    tau from that pole. Each evaluation forms the gaps p_k - z as the exact
    pole differences p_k - p_origin less tau, one rounding, so q keeps full
    relative accuracy however close a root is to its pole. All live roots
    step together, one step per evaluation of q but a final one at which
    every root is quiet. Each step is the root of a two-pole rational model
    of q that keeps the origin pole's weight exact (the fixed-weight method
    of Bunch-Nielsen-Sorensen and LAPACK's dlaed4); a step pointing away
    from the root becomes a Newton step, and one leaving the root's
    sign-change bracket becomes a bisection. A root is done when q there is
    within its rounding bound or the step is below an ulp of tau; its result
    is the Newton step from the evaluation it finished on, which recentres a
    root stopped anywhere in its rounding band. Each root is clipped to the
    open interval of its gap, so roots interlace strictly with the poles
    even when tau is below the pole's ulp.

    The first evaluation is at every gap's midpoint, measured from its
    lower pole, and sum x above the top pole. q increases across a gap, so
    q < 0 at the midpoint puts the root in the upper half, whose origin is
    then the upper pole; the model's other pole is the gap's other end.
    The exterior root's model has the pole below as its other pole (the top
    pole itself when it is the only one, whose root the start is). It lies
    in (p_top, p_top + sum x] because every term is at least
    -x_k/(z - p_top) there; the bracket is taken twice as wide, so it stays
    open at the root p_top + sum x of a single pole. A sum x beyond the
    float range raises OverflowError.

    Each root's step runs in Python floats, on q's sums from _evaluate.
    Python raises on a division by zero where IEEE arithmetic gives inf or
    nan (weights near the float range's ends); the solve then runs again on
    numpy float64 scalars, which follow IEEE arithmetic, under np.errstate
    like the numpy calls.
    """
    total = float(np.add.reduce(x))
    if total == math.inf:
        raise OverflowError("secular solve: the weights sum beyond the float range, and so does the exterior root")
    try:
        return _roots(poles, x, total, np.ndarray.tolist)
    except ZeroDivisionError:
        return _roots(poles, x, total, list)


def _evaluate(poles, x, bases, ts, tolist):
    """secular_eval's q, q' and rounding bound as lists, one entry per
    offset t from its pole base: from _FEW_POLES poles up one secular_eval
    call, with at most three len(ts) x len(poles) temporaries at once; below
    it a plain loop, which forms the same sums left to right."""
    if len(poles) >= _FEW_POLES:
        gaps = poles - np.array(bases)[:, None] - np.array(ts)[:, None]
        return [tolist(v) for v in secular_eval(gaps, x)]
    pairs = list(zip(tolist(poles), tolist(x)))
    scale = _EPS * (len(pairs) + 2)
    rows = [], [], []
    for base, t in zip(bases, ts):
        w = dw = size = -0.0
        for pk, xk in pairs:
            gap = pk - base - t
            term = xk / gap
            w += term
            dw += term / gap
            size += abs(term)
        rows[0].append(1.0 + w)
        rows[1].append(dw)
        rows[2].append(scale * (1.0 + size))
    return rows


def _roots(poles, x, total, tolist):
    """secular_equation_roots with each root's step on tolist's scalars."""
    p, xs = tolist(poles), tolist(x)
    n = len(p)
    ts = [0.5 * (b - a) for a, b in zip(p, p[1:])] + [total]
    values = _evaluate(poles, x, p, ts, tolist)
    live = []  # (origin pole, tau, root, bracket, other pole's offset, origin weight, side)
    for i, (t, w) in enumerate(zip(ts, values[0])):
        if i == n - 1:  # the exterior root
            origin, other, side, lo, hi = i, max(n - 2, 0), 1.0, 0.0, 2.0 * total
        elif w < 0.0:  # in the upper half of its gap
            origin, other, side, t, lo, hi = i + 1, i, -1.0, -t, -t, 0.0
        else:
            origin, other, side, lo, hi = i, i + 1, -1.0, 0.0, t
        live.append((p[origin], t, i, lo, hi, p[other] - p[origin], xs[origin], side))
    roots = [0.0] * n
    for _ in range(_MAX_STEPS):
        stepped = []
        for (base, t, i, lo, hi, d_other, x_origin, side), w, dw, rounding in zip(live, *values):
            done = abs(w) <= rounding  # q within its own rounding error
            if not done:
                if w < 0.0:
                    lo = t
                elif w > 0.0:
                    hi = t
                # the model c - x_origin/tau + S/(d_other - tau), with c and S
                # matching q and q' at t, has its roots at c tau^2 - a tau + b = 0:
                # between the poles for an interior root (side -1), above both
                # for the exterior one (+1); solving for tau itself keeps a root
                # next to its pole to full relative accuracy
                b = x_origin * d_other
                g = d_other - t
                s_other = g * g * (dw - x_origin / (t * t))
                c = w + x_origin / t - s_other / g
                a = c * d_other + x_origin + s_other
                root = side * math.sqrt(abs(a * a - 4.0 * b * c))
                if a * side >= 0.0:  # a + root adds magnitudes
                    # c == 0 leaves a linear model with the one root b/a, and
                    # none (nan) when a == 0 too
                    step = (a + root) / (2.0 * c) if c != 0.0 else b / a if a != 0.0 else math.nan
                else:
                    step = 2.0 * b / (a - root)
                if w * (step - t) > 0.0:  # away from the root
                    step = t - w / dw
                if not lo < step < hi:
                    # bisect, in the log of |tau| when the bracket has one sign
                    # (a root can sit many decades closer to its pole than the
                    # bracket's far end)
                    span = lo * hi
                    step = math.copysign(math.sqrt(span), hi) if span > 0.0 else 0.5 * (lo + hi)
                done = abs(step - t) <= _EPS * abs(step)
            if done:
                z = max(base + (t - w / dw), math.nextafter(p[i], math.inf))
                roots[i] = min(z, math.nextafter(p[i + 1] if i < n - 1 else math.inf, -math.inf))
            else:
                stepped.append((base, step, i, lo, hi, d_other, x_origin, side))
        live = stepped
        if not live:
            return np.array(roots)
        values = _evaluate(poles, x, [r[0] for r in live], [r[1] for r in live], tolist)
    raise ConvergenceError(f"secular solve: {len(live)} roots not converged in {_MAX_STEPS} steps")
