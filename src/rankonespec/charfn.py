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
1/(lam + 2j) and 1/(lam + 2j)^2, with one exponential per point (and sign,
as lam and -lam are evaluated together). The
removable singularities of the closed forms sit on the even-integer lattice,
and only the shift nearest the lattice can come close to one. There the
closed form of U keeps full relative accuracy, since E comes from expm1, and
X switches to a fixed full-precision series, so the transforms are pure
functions of (spec, lam) with no switch to configure. On top of the
transforms sit the characteristic functions of the unperturbed and perturbed
operators. The odd-ratio factor entering the perturbed function has its own
removable singularity at lambda = 0, a 0/0 that no closed form resolves;
inside a configurable radius of the origin it is evaluated from numerically
extracted Taylor coefficients.

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

DEFAULT_SINGULARITY_RADIUS = 1e-4
DEFAULT_SERIES_TERMS = 8

_PI = math.pi
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


def _nearest_shift_values(r, big_e):
    """U(r) and X(r) at the shift nearest the lattice, |Re r| <= 1.

    E = 1 - e^{-i pi r} comes from expm1, so U = -i E / r keeps full relative
    accuracy down to r = 0, where U = pi. The closed form of X subtracts two
    O(pi) terms, so X takes a full-precision series on |r| < 0.5.
    """
    # below |r| = 1e-150 the division can leave the float range (at a
    # subnormal r), and U = pi (1 - i pi r / 2 + ...) is pi to rounding
    tiny = np.abs(r) < 1e-150
    u = -1j * big_e / np.where(tiny, 1.0, r)
    u[tiny] = _PI
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


def _transforms(spec, lam):
    """(E, F, AC) at lam and at -lam, as one array of shape (3, 2) + lam.shape.

    lam is a complex array; in each of E = 1 - e^{-i pi lam}, F and AC, row 0
    holds the values at lam and row 1 those at -lam.

    With n = round(Re lam / 2), r = lam - 2n is exact and
    e^{-i pi lam} = e^{-i pi r}, so one exponential per point and sign serves
    every shift. Both signs share the Cauchy matrix 1/(lam + 2j), since
    1/(-lam + 2j) = -1/(lam - 2j); its column j = -n, the one nearest the
    lattice, is left out of the sums and evaluated on its own. The matrix is
    formed in blocks of points, so it stays small. Every step maps exactly
    onto its conjugate under lam -> conj(lam), which swaps the two rows.
    """
    ms, amps = exp_coefficients(spec)
    shifts, ce, cf = _autocorr_tables(spec)
    # columns F, CE, CF at lam + 2j; the shift set is symmetric, so the
    # reversed table holds the coefficients at -lam + 2j = -(lam - 2j). Both
    # tables are contiguous and each sign gets its own products below, so
    # both signs take the same BLAS path and a conjugate point reproduces
    # the other sign's sums exactly.
    coeffs = np.stack([amps[np.argsort(-ms)], ce, cf], axis=1)
    tables = (coeffs, coeffs[::-1].copy())

    shape = lam.shape
    lam = lam.ravel()
    n, r = _lattice_offset(lam)
    out = np.empty((3, 2, len(lam)), dtype=complex)
    big_e = out[0]
    big_e[0] = one_minus_exp(-1j * _PI * r)
    big_e[1] = one_minus_exp(1j * _PI * r)
    nearest = [
        _nearest_shift_values(r, big_e[0]),
        _nearest_shift_values(-r, big_e[1]),
    ]
    step = max(_BLOCK_POINTS, _BLOCK_ENTRIES // max(1, len(shifts)))
    for lo in range(0, len(lam), step):
        blk = slice(lo, lo + step)
        mu = lam[blk, None] + 2.0 * shifts
        near = shifts == -n[blk, None]  # at most one column per row
        mu[near] = 1.0
        inv = 1.0 / mu
        inv[near] = 0.0
        inv2 = inv * inv
        picked = near.astype(float)
        for sign, table in enumerate(tables):
            # sums of table[j] / (+-lam + 2j) and its square, and the
            # coefficients at the nearest shift; at -lam the first power
            # changes sign, which goes into the factors in front of it
            s1 = inv @ table
            s2 = inv2 @ table[:, 2]
            c = picked @ table
            eb = big_e[sign, blk]
            u, x = (v[blk] for v in nearest[sign])
            front = (-1j, 1j)[sign] * eb
            out[1, sign, blk] = front * s1[:, 0] + c[:, 0] * u
            out[2, sign, blk] = (
                front * s1[:, 1]
                - eb * s2
                + (1j * _PI, -1j * _PI)[sign] * (1.0 - eb) * s1[:, 2]
                + c[:, 1] * u
                + c[:, 2] * x
            )
    return out.reshape((3, 2) + shape)


def _kernel_row(spec, lam, row, sign):
    """One row of the kernel output at lam, shaped like lam."""
    arr, scalar = _as_lambda_array(lam)
    out = _transforms(spec, arr)[row, sign]
    return out[0] if scalar else out.copy()


def fourier_transform(spec: PotentialSpec, lam):
    """integral_0^pi e^{-i lam x} v(x) dx, entire in lam."""
    return _kernel_row(spec, lam, 1, 0)


def fourier_transform_star(spec: PotentialSpec, lam):
    """Star-conjugate f*(lam) = conj(f(conj(lam))) of the Fourier transform.
    The potential is real, so this is F(-lam), the kernel's -lam row."""
    return _kernel_row(spec, lam, 1, 1)


@lru_cache(maxsize=256)
def _autocorr_tables(spec: PotentialSpec):
    """Per-shift coefficient tables for the autocorrelation transform.

    With v = sum_m a_m e^{2imx}, the one-sided autocorrelation
    g(x) = integral_x^pi v(t-x) v(t) dt collapses onto the primitives as

        AC(lam) = sum_j CE[j] * U(lam + 2j) + CF[j] * X(lam + 2j),

    and the O(K^2) pair interactions a_m a_n / (2i(m+n)) are folded into CE
    once per spec, by row (shift m) and column (shift -n) sums. The shifts
    are the potential's own frequencies, a set symmetric about 0 for a real
    potential, so reversing a table pairs m with -m.
    """
    ms, amps = exp_coefficients(spec)
    order = np.argsort(ms)
    shifts, a = ms[order], amps[order]
    b = a * a[::-1]
    total = shifts[:, None] + shifts[None, :]
    pair = total != 0
    c = np.zeros(total.shape, dtype=complex)
    c[pair] = np.outer(a, a)[pair] / (2j * total[pair])
    ce = _PI * b + c.sum(axis=1) - c.sum(axis=0)[::-1]
    # real potential: CE[-j] = conj(CE[j]), imposed exactly
    ce = 0.5 * (ce + np.conj(ce[::-1]))
    return shifts, ce, -b


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
    out = one_minus_exp(1j * _PI * r) + one_minus_exp(-1j * _PI * r)
    return out[0] if scalar else out


def _edge_factors(kernel):
    """R(lam) and R(-lam) from the kernel output _transforms(spec, lam), where

        R(lam) = (1 - e^{-i lam pi}) { AC(lam)(1 - e^{i lam pi}) - F(lam) F*(lam) }.

    The potential is real, so F*(lam) = F(-lam) and one evaluation of the
    transforms at +-lam serves both factors.
    """
    (e_plus, e_minus), (f_plus, f_minus), (ac_plus, ac_minus) = kernel
    # F(lam) F(-lam), formed in real arithmetic so that it does not depend on
    # the order of the factors (numpy's complex multiply may fuse, and then
    # x * y and y * x can differ in the last bit)
    product = (f_plus.real * f_minus.real - f_plus.imag * f_minus.imag) + 1j * (
        f_plus.real * f_minus.imag + f_plus.imag * f_minus.real
    )
    return (
        e_plus * (ac_plus * e_minus - product),
        e_minus * (ac_minus * e_plus - product),
    )


def _edge_factor(spec, lam):
    """R(lam) on a 1-d complex array (see _edge_factors)."""
    return _edge_factors(_transforms(spec, lam))[0]


def _flipped(lam):
    """Where -lam is the even member of +-lam: Re lam < 0, or Im lam < 0 on
    the imaginary axis."""
    return (lam.real < 0.0) | ((lam.real == 0.0) & (lam.imag < 0.0))


def _odd_ratio_direct(spec, lam):
    """(R(lam) - R(-lam)) / (2i lam), valid away from lam = 0, and the kernel
    output it was formed from.

    The ratio is even; it is evaluated at the member of +-lam with Re lam > 0
    (Im lam > 0 on the imaginary axis), so it comes out exactly even, and the
    kernel is the one at that member. As conj(lam) is then evaluated from the
    conjugate member, the ratio also comes out exactly star-symmetric.
    """
    lam = np.where(_flipped(lam), -lam, lam)
    kernel = _transforms(spec, lam)
    r_plus, r_minus = _edge_factors(kernel)
    return (r_plus - r_minus) / (2j * lam), kernel


class CharContext:
    """Evaluation context: operator plus the origin series switch.

    singularity_radius is the distance to the origin below which the
    odd-ratio factor comes from its truncated Taylor series in lam**2, and
    series_terms is the number of terms; they govern nothing else, as the
    transforms need no series switch on the even-integer lattice. The
    coefficients are extracted once per context from a 32-point circle of
    radius 0.5 via FFT (the odd-ratio factor is entire and even, so only
    even powers carry). At the widest radius, 0.25, the series needs about
    8 terms for full precision at its edge.
    """

    _CIRCLE_POINTS = 32
    _CIRCLE_RADIUS = 0.5

    def __init__(
        self,
        operator: OperatorSpec,
        singularity_radius: float = DEFAULT_SINGULARITY_RADIUS,
        series_terms: int = DEFAULT_SERIES_TERMS,
    ):
        if not 0.0 < singularity_radius <= 0.25:
            raise ValueError("singularity_radius must lie in (0, 0.25]")
        if series_terms < 4:
            raise ValueError("series_terms must be at least 4")
        self.operator = operator
        self.singularity_radius = float(singularity_radius)
        self.series_terms = int(series_terms)
        self._origin_coeffs: np.ndarray | None = None

    def origin_coeffs(self) -> np.ndarray:
        """Even Taylor coefficients of the odd-ratio factor at the origin,
        as a polynomial in lam**2 (ascending, series_terms entries)."""
        if self._origin_coeffs is None:
            m = self._CIRCLE_POINTS
            rho = self._CIRCLE_RADIUS
            theta = 2.0 * _PI * np.arange(m) / m
            ring = rho * np.exp(1j * theta)
            vals = _odd_ratio_direct(self.operator.potential, ring)[0]
            coeffs = np.fft.fft(vals) / m
            orders = np.arange(0, 2 * self.series_terms, 2)
            self._origin_coeffs = coeffs[orders] / rho ** orders
        return self._origin_coeffs


def _char_parts(ctx, arr):
    """(D, D0, kernel) on a complex array: the perturbed and unperturbed
    characteristic functions, and the kernel output that the odd-ratio
    factor was formed from, at the even member of each point outside the
    origin switch radius (None when there is no such point)."""
    d0 = char_unperturbed(arr)
    out = d0.copy()
    near = np.abs(arr) < ctx.singularity_radius
    far = ~near
    kernel = None
    if np.any(far):
        ratio, kernel = _odd_ratio_direct(ctx.operator.potential, arr[far])
        out[far] = out[far] + ctx.operator.alpha * ratio
    if np.any(near):
        poly = ctx.origin_coeffs()
        u = arr[near] ** 2
        out[near] = out[near] + ctx.operator.alpha * np.polynomial.polynomial.polyval(
            u, poly
        )
    return out, d0, kernel


def char_perturbed(ctx: CharContext, lam):
    """Characteristic function of the perturbed operator.

    Equals the unperturbed function plus coupling times the odd-ratio factor;
    inside the origin switch radius the factor is evaluated from its cached
    even Taylor series, which in particular fixes the finite value at lam = 0.
    """
    arr, scalar = _as_lambda_array(lam)
    out = _char_parts(ctx, arr)[0]
    return out[0] if scalar else out


def _autocorr_residual(kernel):
    """|AC + AC* - F F*| from the kernel output at lam. The potential is
    real, so row 1 (the values at -lam) holds F* and AC* bit for bit.

    At a scalar lam, pass kernel[..., 0]: numpy's scalar arithmetic can
    differ from its array loops in the last bit, and the public transforms
    return scalars there."""
    _, (f, f_star), (ac, ac_star) = kernel
    return np.abs((ac + ac_star) - f * f_star)


def autocorr_identity_residual(spec: PotentialSpec, lam):
    """|AC + AC* - F F*| at lam, from one pass of the transform kernel."""
    arr, scalar = _as_lambda_array(lam)
    kernel = _transforms(spec, arr)
    return _autocorr_residual(kernel[..., 0] if scalar else kernel)


def char_with_autocorr_residual(ctx: CharContext, lam):
    """char_perturbed, char_unperturbed and the autocorrelation identity
    residual |AC + AC* - F F*| at lam, as (D, D0, residual).

    Where every point has Re lam > 0 and lies outside the origin switch
    radius, as on diagnostics.identity_grid, the kernel that D is formed
    from is the one at lam itself, and one kernel pass serves all three.
    Elsewhere the residual takes a second pass. Each result equals bit for
    bit the public evaluator's.
    """
    arr, scalar = _as_lambda_array(lam)
    d, d0, kernel = _char_parts(ctx, arr)
    if kernel is None or kernel.shape[-1] != arr.size or np.any(_flipped(arr)):
        kernel = _transforms(ctx.operator.potential, arr)
    kernel = kernel.reshape((3, 2) + arr.shape)
    if scalar:
        return d[0], d0[0], _autocorr_residual(kernel[..., 0])
    return d, d0, _autocorr_residual(kernel)


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
