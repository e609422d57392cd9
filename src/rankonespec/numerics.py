"""Low-level numerical helpers: the stable exponential difference and the
pole-relative solver of the secular equation, batched over its roots or, for
a few poles, one root at a time in Python floats.

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


def _model_roots(t, w, dw, model):
    """New offsets from the two-pole rational model of q at the offsets t.

    The model c - x_origin/tau + S/(d_other - tau) keeps the origin pole (at
    offset 0) with its exact weight (the fixed-weight method) and the other
    pole nearest the root at its exact offset d_other; c and S match q and
    q' at t. Its roots solve c tau^2 - a tau + b = 0: the one between the
    two poles for an interior root (side -1), the one above both for the
    exterior root (side +1). Solving for tau itself, not for a step from t,
    keeps a root next to its pole to full relative accuracy however far t
    is from it. model holds the per-root rows d_other, x_origin and side;
    b = x_origin * d_other is formed here.
    """
    d_other, x_origin, side = model
    b = x_origin * d_other
    g = d_other - t
    s_other = g * g * (dw - x_origin / (t * t))
    c = w + x_origin / t - s_other / g
    a = c * d_other + x_origin + s_other
    root = side * np.sqrt(np.abs(a * a - 4.0 * b * c))
    far = a * side >= 0.0  # a + root adds magnitudes
    num = np.where(far, a + root, 2.0 * b)
    den = np.where(far, 2.0 * c, a - root)
    if np.count_nonzero(c) < c.size:
        # c == 0 on the far side leaves a linear model with the one root
        # b/a, and none (nan) when a == 0 too; elsewhere den is never 0
        linear = far & (c == 0.0)
        num[linear] = b[linear]
        den[linear] = a[linear]
        den[den == 0.0] = np.nan
    return num / den


def secular_equation_roots(poles: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Roots of q(z) = 1 + sum_k x_k/(p_k - z) for ascending poles whose
    differences are exact in floating point and positive weights: one in
    each gap between consecutive poles, then the one above the top pole.

    Every root is held as its origin, the pole nearer to it, and an offset
    tau from that pole. Each evaluation forms the gaps p_k - z as the exact
    pole differences p_k - p_origin less tau, one rounding, so q keeps full
    relative accuracy however close a root is to its pole. All offsets
    iterate together, and every evaluation of q makes one step but a final one
    at which every root is quiet. Each step is the root of a two-pole rational
    model of q that keeps the origin pole's weight exact (the fixed-weight
    method of Bunch-Nielsen-Sorensen and LAPACK's dlaed4); a step pointing away
    from the root becomes a Newton step, and one leaving the root's sign-change
    bracket becomes a bisection. A root is done when q there is within its
    rounding bound or the step is below an ulp of tau; its result is the Newton
    step from the evaluation it finished on, which recentres a root stopped
    anywhere in its rounding band. Each root is clipped to the open interval of
    its gap, so roots interlace strictly with the poles even when tau is below
    the pole's ulp. An evaluation holds at most three (live roots) x
    len(poles) temporaries at once (the gaps, their terms and one more),
    and nothing of that size is kept between evaluations.

    The first evaluation is at every gap's midpoint, measured from its
    lower pole, and sum x above the top pole. q increases across a gap, so
    q < 0 at the midpoint puts the root in the upper half, whose origin is
    then the upper pole; the model's other pole is the gap's other end.
    The exterior root's model has the pole below as its other pole (the top
    pole itself when it is the only one, whose root the start is). It lies
    in (p_top, p_top + sum x] because every term is at least
    -x_k/(z - p_top) there; the bracket is taken twice as wide, so it stays
    open at the root p_top + sum x of a single pole.

    Below _FEW_POLES poles each root iterates alone in Python floats, with the
    same IEEE operations in the same order, so the same bits at a fraction of
    the numpy calls' overhead. Where Python raises on a division by zero that
    numpy carries as inf or nan (weights near the float range's ends), or a
    root is not done in _MAX_STEPS steps, the batched route solves it.
    """
    roots = _few_pole_roots(poles, x) if len(poles) < _FEW_POLES else None
    return _batched_roots(poles, x) if roots is None else roots


def _few_pole_roots(poles: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """secular_equation_roots one root at a time in Python floats, each step
    _model_roots' with its guards; None where the batched route decides."""
    p, xs = poles.tolist(), x.tolist()
    n = len(p)
    scale = _EPS * (n + 2)
    total = float(np.add.reduce(x))

    def q(base, t):
        w = dw = size = -0.0
        for pk, xk in zip(p, xs):
            gap = pk - base - t
            term = xk / gap
            w += term
            dw += term / gap
            size += abs(term)
        return 1.0 + w, dw, scale * (1.0 + size)

    roots = []
    try:
        for i in range(n):
            t = 0.5 * (p[i + 1] - p[i]) if i < n - 1 else total
            w, dw, rounding = q(p[i], t)
            if i == n - 1:  # the exterior root
                origin, other, side, lo, hi = i, max(n - 2, 0), 1.0, 0.0, 2.0 * total
            elif w < 0.0:  # in the upper half of its gap
                origin, other, side, t, lo, hi = i + 1, i, -1.0, -t, -t, 0.0
            else:
                origin, other, side, lo, hi = i, i + 1, -1.0, 0.0, t
            base, x_origin = p[origin], xs[origin]
            d_other = p[other] - base
            b = x_origin * d_other
            for _ in range(_MAX_STEPS):
                if abs(w) <= rounding:
                    break
                if w < 0.0:
                    lo = t
                elif w > 0.0:
                    hi = t
                g = d_other - t
                s_other = g * g * (dw - x_origin / (t * t))
                c = w + x_origin / t - s_other / g
                a = c * d_other + x_origin + s_other
                root = side * math.sqrt(abs(a * a - 4.0 * b * c))
                if a * side >= 0.0:  # a + root adds magnitudes
                    step = (a + root) / (2.0 * c) if c != 0.0 else b / a
                else:
                    step = 2.0 * b / (a - root)
                if w * (step - t) > 0.0:
                    step = t - w / dw
                if not lo < step < hi:
                    span = lo * hi
                    step = math.copysign(math.sqrt(span), hi) if span > 0.0 else 0.5 * (lo + hi)
                if abs(step - t) <= _EPS * abs(step):
                    break
                t = step
                w, dw, rounding = q(base, t)
            else:
                return None
            z = max(base + (t - w / dw), math.nextafter(p[i], math.inf))
            roots.append(min(z, math.nextafter(p[i + 1] if i < n - 1 else math.inf, -math.inf)))
    except ZeroDivisionError:
        return None
    return np.array(roots)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _batched_roots(poles: np.ndarray, x: np.ndarray) -> np.ndarray:
    """secular_equation_roots on numpy arrays, all roots at once, under
    np.errstate: extreme weights overflow or divide by zero en route."""
    n = len(poles)
    half = 0.5 * (poles[1:] - poles[:-1])
    total = float(np.add.reduce(x))
    t = np.append(half, total)
    w, dw, rounding = secular_eval(poles - poles[:, None] - t[:, None], x)
    upper = w[:-1] < 0.0
    origin = np.arange(n)  # root n - 1 is the exterior root
    origin[:-1] += upper
    other = np.arange(n)
    other[:-1] += ~upper
    other[-1] = max(n - 2, 0)
    t[:-1] = np.where(upper, -half, half)
    lo, hi = np.zeros((2, n))
    lo[:-1] = np.where(upper, -half, 0.0)
    hi[:-1] = np.where(upper, 0.0, half)
    hi[-1] = 2.0 * total
    live, base = np.arange(n), poles[origin]
    model = np.empty((3, n))
    model[0] = poles[other] - base
    model[1] = x[origin]
    model[2] = -1.0
    model[2, -1] = 1.0  # the exterior root
    tau = np.empty(n)
    for _ in range(_MAX_STEPS):
        quiet = np.abs(w) <= rounding  # w within its own rounding error
        if np.count_nonzero(quiet) == quiet.size:
            tau[live] = t - w / dw
            break
        lo = np.where(w < 0.0, t, lo)
        hi = np.where(w > 0.0, t, hi)
        step = _model_roots(t, w, dw, model)
        away = w * (step - t) > 0.0
        if np.count_nonzero(away):
            step[away] = t[away] - w[away] / dw[away]
        out = ~((lo < step) & (step < hi))
        if np.count_nonzero(out):
            # a step leaving its bracket bisects, in the log of |tau| when the
            # bracket has one sign (a root can sit many decades closer to its
            # pole than the bracket's far end)
            lo_o, hi_o = lo[out], hi[out]
            span = lo_o * hi_o
            geometric = np.sqrt(np.abs(span))
            step[out] = np.where(
                span > 0.0, np.where(hi_o > 0.0, geometric, -geometric), 0.5 * (lo_o + hi_o)
            )
        done = quiet | (np.abs(step - t) <= _EPS * np.abs(step))
        finished = np.count_nonzero(done)
        if finished:
            tau[live[done]] = (t - w / dw)[done]
            if finished == done.size:
                break
            keep = ~done
            live, step, base, lo, hi, model = (
                live[keep], step[keep], base[keep], lo[keep], hi[keep], model[:, keep]
            )
        t = step
        w, dw, rounding = secular_eval(poles - base[:, None] - t[:, None], x)
    else:
        raise ConvergenceError(
            f"secular solve: {live.size} roots not converged in {_MAX_STEPS} steps"
        )

    z = poles[origin] + tau
    above = np.empty(n)
    above[:-1] = poles[1:]
    above[-1] = np.inf
    return np.minimum(np.maximum(z, np.nextafter(poles, np.inf)), np.nextafter(above, -np.inf))
