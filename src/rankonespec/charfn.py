"""Entire-function machinery for the perturbed characteristic function.

Everything here reduces to two primitive finite Fourier integrals,

    U(mu)  = integral_0^pi e^{-i mu x} dx,
    X(mu)  = integral_0^pi x e^{-i mu x} dx,

evaluated only at the integer shifts mu = lam + 2j. Every such shift has the
same exponential e = e^{-i pi lam}, so with E = 1 - e the closed forms are

    U(lam + 2j) = E / (i (lam + 2j)),
    X(lam + 2j) = -E / (lam + 2j)^2 + i pi e / (lam + 2j),

and the potential's Fourier transform and the transform of its one-sided
autocorrelation become Cauchy sums of coefficient vectors over
1/(lam + 2j) and 1/(lam + 2j)^2, with one exponential per point. The
potential is real, so each value at -lam is the star conjugate
f*(lam) = conj(f(conj(lam))) and is formed as exactly that. The
removable singularities of the closed forms sit on the even-integer lattice,
and only the shift nearest the lattice can come close to one. There the
closed form of U keeps full relative accuracy, since E comes from expm1, and
X switches to a fixed full-precision series, so the transforms are pure
functions of (spec, lam) with no switch to configure. On top of the
transforms sit the characteristic functions of the unperturbed and perturbed
operators. The perturbed function's odd-ratio factor is U(mu) times a
product of transforms at one member mu of {+-lam, +-conj(lam)}, so it has
no removable singularity to resolve, at the origin or anywhere else.

All evaluators accept scalar or ndarray lambda (real or complex) and return
complex values of matching shape.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping

import numpy as np

from .errors import PoleError
from .numerics import one_minus_exp
from .potential import OperatorSpec, PotentialSpec, exp_coefficients

_PI = math.pi
# |Im lam| near which the perturbed function, of size e^{pi |Im lam|},
# leaves the float range
_IMAG_LIMIT = math.log(np.finfo(float).max) / _PI
# machine-precision series window for the ramp integral, whose closed form
# subtracts two O(pi) quantities
_RAMP_SERIES_CUTOFF = 0.5
_RAMP_COEFFICIENTS = [(n + 1) / math.factorial(n + 2) for n in range(24)]
# points per block of the (points x shifts) Cauchy matrix: enough for about
# _BLOCK_ENTRIES entries, which keeps the matrix small, but at least
# _BLOCK_POINTS, which keeps the per-block overhead small at high order
_BLOCK_ENTRIES = 1 << 12
_BLOCK_POINTS = 64


def _as_lambda_array(lam):
    arr = np.asarray(lam, dtype=complex)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr), scalar


def _ramp_series(mu):
    # pi^2 * sum (n+1) z^n / (n+2)!, z = -i pi mu, by Horner's rule
    z = -1j * _PI * mu
    out = np.full_like(z, _RAMP_COEFFICIENTS[-1])
    for c in _RAMP_COEFFICIENTS[-2::-1]:
        out = out * z + c
    return _PI * _PI * out


def _unit_integral(mu, big_e):
    """U(mu) = -i E / mu, with E = 1 - e^{-i pi mu} from expm1, so U keeps
    full relative accuracy down to mu = 0, where it is pi."""
    # below |mu| = 1e-150 the division can leave the float range (at a
    # subnormal mu), and U = pi (1 - i pi mu / 2 + ...) is pi to rounding
    tiny = np.abs(mu) < 1e-150
    u = -1j * big_e / np.where(tiny, 1.0, mu)
    u[tiny] = _PI
    return u


def _nearest_shift_values(r, big_e):
    """U(r) and X(r) at the shift nearest the lattice, |Re r| <= 1.

    U comes from its closed form (_unit_integral). The closed form of X
    subtracts two O(pi) terms, so X takes a full-precision series on
    |r| < 0.5.
    """
    u = _unit_integral(r, big_e)
    near = np.abs(r) < _RAMP_SERIES_CUTOFF
    far = ~near
    x = np.empty_like(r)
    rf = r[far]
    x[far] = (1j * _PI * (1.0 - big_e[far]) - big_e[far] / rf) / rf
    x[near] = _ramp_series(r[near])
    return u, x


def _lattice_offset(lam):
    """n = round(Re lam / 2) and r = lam - 2n, which is exact; all the
    exponentials e^{+-i pi lam} equal e^{+-i pi r}."""
    n = np.round(lam.real / 2.0)
    return n, lam - 2.0 * n


@np.errstate(over="ignore", invalid="ignore")
def _transforms(spec, lam):
    """(E, F, AC) at lam and at -lam, as one array of shape (3, 2) + lam.shape.

    lam is a complex array; in each of E = 1 - e^{-i pi lam}, F and AC, row 0
    holds the values at lam and row 1 those at -lam. Only row 0's formula is
    evaluated, at pts = lam on the real axis and at pts = (lam, conj(lam))
    elsewhere: the potential is real, so row 1 is the star conjugate
    f*(lam) = conj(f(conj(lam))), the conjugate of row 0 at conj(lam).

    With n = round(Re lam / 2), r = lam - 2n is exact and
    e^{-i pi lam} = e^{-i pi r}, so one exponential per point serves every
    shift. In the Cauchy matrix 1/(lam + 2j) the column j = -n, the one
    nearest the lattice, is left out of the sums and evaluated on its own,
    with the coefficients at that shift gathered (zero where -n is no
    shift). The matrix is formed in blocks of points, so it stays small; on
    the real axis it is real, and at conj(lam) it is conj(inv) exactly, so
    the sums there are conj(inv @ conj(table)).
    """
    shifts, coeffs = _autocorr_tables(spec)
    table, table_conj = coeffs[:-1], np.conjugate(coeffs[:-1])  # the shifts' rows

    shape = lam.shape
    lam = lam.ravel()
    size = len(lam)
    real = not lam.imag.any()
    pts = lam if real else np.concatenate([lam, np.conjugate(lam)])
    out = np.empty((3, 2, size), dtype=complex)
    big_e, f, ac = out.reshape(3, -1)[:, : len(pts)]  # row 0 at pts
    n, r = _lattice_offset(pts)
    big_e[:] = one_minus_exp(-1j * _PI * r)
    u, x = _nearest_shift_values(r, big_e)
    # columns 0-2: sums of table[j] / (pt + 2j), column 3: of CF[j] / (pt + 2j)^2,
    # over every shift but the nearest, which is dropped through 1/inf = 0
    sums = np.empty((len(pts), 4), dtype=complex)
    grid = lam.real if real else lam
    step = max(_BLOCK_POINTS, _BLOCK_ENTRIES // max(1, len(shifts)))
    for lo in range(0, size, step):
        blk = slice(lo, min(lo + step, size))
        mu = grid[blk, None] + 2.0 * shifts
        mu[shifts == -n[blk, None]] = np.inf  # at most one column per row
        inv = np.divide(1.0, mu, out=mu)
        inv2 = inv * inv
        np.matmul(inv, table, out=sums[blk, :3])
        np.matmul(inv2, table[:, 2], out=sums[blk, 3])
        if not real:
            conj_blk = slice(size + lo, size + blk.stop)
            np.matmul(inv, table_conj, out=sums[conj_blk, :3])
            np.matmul(inv2, table_conj[:, 2], out=sums[conj_blk, 3])
    # + 0.0: an exact zero takes the sign of a sum formed from +0, not the
    # one the conjugation leaves
    sums[size:] = np.conjugate(sums[size:]) + 0.0
    # each point's row of the table: its nearest shift -n, or the zero row
    at = np.searchsorted(shifts, -n)
    at[np.append(shifts, 0)[at] != -n] = len(shifts)
    c = coeffs[at]
    front = -1j * big_e
    f[:] = front * sums[:, 0] + c[:, 0] * u
    ac[:] = (
        front * sums[:, 1] - big_e * sums[:, 3] + 1j * _PI * (1.0 - big_e) * sums[:, 2]
        + c[:, 1] * u + c[:, 2] * x
    )
    np.conjugate(out[:, 0] if real else out[:, 1], out=out[:, 1])
    return out.reshape((3, 2) + shape)


def _in_float_range(name, lam, value, potential=None, alpha=None):
    """value, unless it is not finite at a finite lam: there, OverflowError
    naming the function and what sizes it at the first such lam: its growth
    like e^{pi |Im lam|} off the real axis, and the potential's squared norm
    (times the coupling alpha, where given) for the evaluators that scale
    with them. Every evaluator runs under np.errstate, so no warning escapes
    and only its own result decides, not an intermediate or another row."""
    bad = ~np.isfinite(value) & np.isfinite(lam)
    if np.any(bad):
        at = lam[bad][0]
        message = f"{name} at lam={at} exceeds the float range"
        if at.imag != 0.0:
            message += f"; it grows like e^(pi |Im lam|), which alone leaves it at |Im lam| = {_IMAG_LIMIT:.0f}"
        if potential is not None:
            coupling = "" if alpha is None else f"the coupling {alpha:.3g} times "
            message += f"; it scales with {coupling}the potential's squared norm {potential.norm_sq:.3g}"
        raise OverflowError(message)
    return value


def _kernel_row(spec, lam, row, sign):
    """One row of the kernel output at lam, shaped like lam."""
    arr, scalar = _as_lambda_array(lam)
    out = _transforms(spec, arr)[row, sign]
    _in_float_range("Fourier transform" if row == 1 else "autocorrelation transform", arr, out, spec)
    return out[0] if scalar else out.copy()


def fourier_transform(spec: PotentialSpec, lam):
    """integral_0^pi e^{-i lam x} v(x) dx, entire in lam."""
    return _kernel_row(spec, lam, 1, 0)


def fourier_transform_star(spec: PotentialSpec, lam):
    """Star-conjugate f*(lam) = conj(f(conj(lam))) of the Fourier transform,
    the kernel's -lam row (the potential is real)."""
    return _kernel_row(spec, lam, 1, 1)


@lru_cache(maxsize=256)
def _autocorr_tables(spec: PotentialSpec):
    """The ascending shifts j and the transform kernel's table, built once
    per potential: row j holds F, CE and CF at shift j, and a last row of
    zeros serves a point whose nearest shift is no shift.

    With v = sum_m a_m e^{2imx}, F's column is a_{-j}, and the one-sided
    autocorrelation g(x) = integral_x^pi v(t-x) v(t) dt collapses onto the
    primitives as

        AC(lam) = sum_j CE[j] * U(lam + 2j) + CF[j] * X(lam + 2j),

    and the O(K^2) pair interactions a_m a_n / (2i(m+n)) are folded into CE
    once per spec. The pair matrix is symmetric, so its column sums are its
    row sums a_m (C a)_m / 2i: one real Cauchy product C = 1/(m+n), 0 at
    m+n = 0, applied to Re a and Im a, at 9 bytes per pair (C and its mask).
    The shifts are the potential's own frequencies, a set symmetric about 0
    for a real potential, so reversing a row pairs m with -m.
    """
    ms, amps = exp_coefficients(spec)
    order = np.argsort(ms)
    shifts, a = ms[order], amps[order]
    b = a * a[::-1]
    cauchy = shifts[:, None] + shifts.astype(float)
    np.divide(1.0, cauchy, out=cauchy, where=cauchy != 0.0)
    rows = a * (cauchy @ a.real + 1j * (cauchy @ a.imag)) / 2j
    ce = _PI * b + rows - rows[::-1]
    # real potential: CE[-j] = conj(CE[j]), imposed exactly
    ce = 0.5 * (ce + np.conj(ce[::-1]))
    return shifts, np.concatenate([np.stack([a[::-1], ce, -b], axis=1), np.zeros((1, 3))])


def autocorr_transform(spec: PotentialSpec, lam):
    """Transform of the one-sided autocorrelation of the potential,
    integral_0^pi e^{-i lam x} g(x) dx with g(x) = integral_x^pi v(t-x)v(t) dt."""
    return _kernel_row(spec, lam, 2, 0)


def autocorr_transform_star(spec: PotentialSpec, lam):
    """Star-conjugate of the autocorrelation transform: AC(-lam), the
    kernel's -lam row, for a real potential."""
    return _kernel_row(spec, lam, 2, 1)


def char_unperturbed(lam):
    """Characteristic function of the unperturbed operator: 2(1 - cos lam pi).

    Evaluated as (1 - e^{i r pi}) + (1 - e^{-i r pi}), with r the exact
    offset of lam from the nearest even integer, so the double zeros on the
    even-integer lattice are formed without cancellation.
    """
    arr, scalar = _as_lambda_array(lam)
    r = _lattice_offset(arr)[1]
    with np.errstate(over="ignore", invalid="ignore"):
        out = one_minus_exp(1j * _PI * r) + one_minus_exp(-1j * _PI * r)
    _in_float_range("unperturbed characteristic function", arr, out)
    return out[0] if scalar else out


def _canonical(lam):
    """mu = |Re lam| - i |Im lam|, the member of {+-lam, +-conj(lam)} with
    Re mu >= 0 and Im mu <= 0, and where D(lam) = conj(D(mu)), i.e. where
    Re lam Im lam > 0. D is even and star-symmetric, so D(lam) is D(mu)
    elsewhere."""
    mu = np.abs(lam.real) - 1j * np.abs(lam.imag)
    return mu, np.sign(lam.real) * np.sign(lam.imag) > 0.0


def _char_parts(op, arr):
    """(D, flip, kernel) on a complex array: the perturbed characteristic
    function at arr, flip where D(arr) = conj(D(mu)), and the kernel output
    at mu = _canonical(arr), the one pass that D is formed from.

    With E(lam) = 1 - e^{-i pi lam} and R(lam) = E(lam){AC(lam) E(-lam) -
    F(lam) F(-lam)}, the perturbed function is D0 + alpha (R(lam) - R(-lam))
    / (2i lam), D0 = E(lam) + E(-lam). Criterion 3's identity AC + AC* = F F*
    and E(lam) E(-lam) = E(lam) + E(-lam) make R odd, so the odd ratio is
    R(mu) / (i mu) = U(mu){AC(mu) E(-mu) - F(mu) F(-mu)}, with U the unit
    integral. There is no 0/0 at the origin, where U = pi. With Im mu <= 0,
    each factor has the size of the result: on the imaginary axis U, E(mu)
    and AC(mu) are O(1), E(-mu) and F(-mu) O(e^{pi |Im lam|}).
    """
    mu, flip = _canonical(arr)
    kernel = _transforms(op.potential, mu)
    (e, e_neg), (f, f_neg), (ac, _) = kernel
    with np.errstate(over="ignore", invalid="ignore"):
        d = e_neg + e + op.alpha * _unit_integral(mu, e) * (ac * e_neg - f * f_neg)
    _in_float_range("perturbed characteristic function", arr, d, op.potential, op.alpha)
    return np.where(flip, np.conj(d), d), flip, kernel


def char_perturbed(op: OperatorSpec, lam):
    """Characteristic function of the perturbed operator op, from one kernel
    pass at the canonical member of lam (see _char_parts), so that it is
    exactly even and star-symmetric. Raises OverflowError where a finite lam
    takes it beyond the float range."""
    arr, scalar = _as_lambda_array(lam)
    out = _char_parts(op, arr)[0]
    return out[0] if scalar else out


def char_with_autocorr_residual(op: OperatorSpec, lam):
    """char_perturbed, char_unperturbed and the autocorrelation identity
    residual |AC + AC* - F F*| at lam, as (D, D0, residual), all from the
    kernel pass at the canonical member mu that D is formed from. D0, even
    and star-symmetric like D, is conjugated where D is. The residual takes
    one value on {+-lam, +-conj(lam)} and is formed at mu, from the -mu row's
    F* and AC*: on an array of canonical points, as diagnostics.identity_grid,
    it is the public transforms' residual bit for bit, elsewhere to rounding.
    """
    arr, scalar = _as_lambda_array(lam)
    d, flip, ((e, e_neg), (f, f_neg), (ac, ac_neg)) = _char_parts(op, arr)
    with np.errstate(over="ignore", invalid="ignore"):
        d0 = e_neg + e
        residual = np.abs((ac + ac_neg) - f * f_neg)
    _in_float_range("autocorrelation identity residual", arr, residual, op.potential)
    d0 = np.where(flip, np.conj(d0), d0)
    return (d[0], d0[0], residual[0]) if scalar else (d, d0, residual)


def secular_function(alpha: float, norms: Mapping[int, float], z):
    """1 + alpha * sum_k ||v_k||^2 / (4k^2 - z) over levels with positive norm.

    z may be a scalar (a float comes back) or an array (an array of the same
    shape comes back). Raises PoleError when z hits one of the active poles
    exactly.
    """
    active = [(4.0 * k * k, nrm) for k, nrm in norms.items() if nrm > 0.0]
    poles = np.array([p for p, _ in active])
    weights = np.array([nrm for _, nrm in active])
    zs = np.asarray(z)
    gaps = poles - zs[..., None]
    if np.any(gaps == 0.0):
        hit = np.intersect1d(zs, poles)[0]
        raise PoleError(f"secular function evaluated at its pole z={hit}")
    out = 1.0 + alpha * np.sum(np.divide(weights, gaps, out=gaps), axis=-1)
    return out.item() if zs.ndim == 0 else out
