import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankonespec import charfn
from rankonespec.diagnostics import identity_grid
from rankonespec.errors import PoleError
from rankonespec.numerics import one_minus_exp
from rankonespec.potential import OperatorSpec, build_potential, evaluate, exp_coefficients

from conftest import quad_oracle, random_operator

PI = math.pi
CONST = build_potential(1.0)  # v = 1/sqrt(pi)
COS2 = build_potential(0.0, [(1, 1.0, 0.0)])  # v = sqrt(2/pi) cos 2x


class TestFourierTransform:
    def test_constant_at_zero(self):
        assert charfn.fourier_transform(CONST, 0.0) == pytest.approx(math.sqrt(PI), abs=1e-14)

    def test_constant_full_period(self):
        # e^{-2ix} integrates to zero over a full period
        assert abs(charfn.fourier_transform(CONST, 2.0)) < 1e-14

    def test_cosine_against_quadrature(self):
        # frozen from the 64-node quadrature oracle; equals (2i/3)sqrt(2/pi)
        frozen = 0.5319230405352436j
        live = quad_oracle(lambda x: np.exp(-1j * x) * evaluate(COS2, x), 0.0, PI)
        assert abs(live - frozen) < 1e-13
        assert abs(charfn.fourier_transform(COS2, 1.0) - frozen) < 1e-12

    def test_star_conjugate_is_reflection(self):
        # real coefficients: FT*(lam) = FT(-lam)
        spec = build_potential(0.3, [(2, 0.5, -0.7)])
        for lam in (1.1 + 0.4j, -3.0 + 2.0j):
            a = charfn.fourier_transform_star(spec, lam)
            b = charfn.fourier_transform(spec, -lam)
            assert a == pytest.approx(b, abs=1e-13)


class TestAutocorrTransform:
    def test_constant_at_zero(self):
        # g(x) = (pi - x)/pi integrates to pi/2
        assert charfn.autocorr_transform(CONST, 0.0) == pytest.approx(PI / 2.0, abs=1e-13)

    def test_cosine_against_nested_quadrature(self):
        # frozen from the nested 64-node quadrature oracle
        frozen = 0.45836623610465876 - 0.6j
        assert abs(charfn.autocorr_transform(COS2, 3.0) - frozen) < 1e-10

    def test_identity_with_fourier_transform(self, rng):
        # AC(lam) + AC*(lam) = FT(lam) FT*(lam) on random specs and lam
        for _ in range(50):
            op = random_operator(rng)
            spec = op.potential
            lam = complex(rng.uniform(-18, 18), rng.uniform(-2, 2))
            lhs = charfn.autocorr_transform(spec, lam) + charfn.autocorr_transform_star(spec, lam)
            rhs = charfn.fourier_transform(spec, lam) * charfn.fourier_transform_star(spec, lam)
            assert abs(lhs - rhs) < 1e-10


class TestCharUnperturbed:
    def test_at_one(self):
        assert charfn.char_unperturbed(1.0) == pytest.approx(4.0, abs=1e-14)

    def test_double_zero_on_lattice(self):
        assert abs(charfn.char_unperturbed(2.0)) < 1e-14

    def test_imaginary_argument(self):
        # frozen: 2(1 - cosh(pi))
        frozen = -21.183906551043037
        assert charfn.char_unperturbed(1j) == pytest.approx(frozen, abs=1e-12)


class TestCharPerturbed:
    def test_value_at_origin_constant_potential(self):
        # -alpha pi |FT(0)|^2 with FT(0) = sqrt(pi)
        ctx = charfn.CharContext(OperatorSpec(1.0, CONST))
        assert np.real(charfn.char_perturbed(ctx, 0.0)) == pytest.approx(-PI ** 2, abs=1e-10)

    def test_zero_coupling_reduces_to_unperturbed(self):
        ctx = charfn.CharContext(OperatorSpec(0.0, CONST))
        assert charfn.char_perturbed(ctx, 1.0) == pytest.approx(4.0, abs=1e-14)

    def test_unit_coupling_eigenvalue_at_one(self):
        # z = 1 solves the secular equation for the constant potential
        ctx = charfn.CharContext(OperatorSpec(1.0, CONST))
        assert abs(charfn.char_perturbed(ctx, 1.0)) < 1e-12

    def test_factorization_identity(self, rng):
        # perturbed = secular(z) * unperturbed on a lattice-avoiding grid
        lams = np.arange(0.05, 30.0, 0.37)
        lams = lams[np.abs(lams / 2 - np.round(lams / 2)) * 2 >= 0.05]
        for _ in range(6):
            op = random_operator(rng)
            ctx = charfn.CharContext(op)
            norms = op.potential.level_norms()
            d = charfn.char_perturbed(ctx, lams)
            d0 = charfn.char_unperturbed(lams)
            q = np.array(
                [charfn.secular_function(op.alpha, norms, l * l) for l in lams]
            )
            resid = np.abs(d - q * d0) / np.maximum(1.0, np.abs(d))
            assert np.max(resid) < 1e-9

    def test_symmetries_on_grid(self, rng):
        # evenness and star-conjugation symmetry, real and complex points
        op = random_operator(rng)
        ctx = charfn.CharContext(op)
        real_grid = np.linspace(0.1, 25.0, 100)
        complex_grid = real_grid + 1j * np.linspace(-2.0, 2.0, 100)
        for grid in (real_grid, complex_grid):
            d = charfn.char_perturbed(ctx, grid)
            scale = np.maximum(1.0, np.abs(d))
            even = np.abs(d - charfn.char_perturbed(ctx, -grid)) / scale
            star = np.abs(d - np.conj(charfn.char_perturbed(ctx, np.conj(grid)))) / scale
            assert np.max(even) < 1e-10
            assert np.max(star) < 1e-10

    def test_edge_factor_antisymmetric_under_star(self, rng):
        # R*(lam) = -R(lam)
        op = random_operator(rng)
        spec = op.potential
        for lam in np.linspace(0.3, 20.0, 50):
            r = charfn._edge_factor(spec, np.array([lam + 0j]))[0]
            r_star = np.conj(charfn._edge_factor(spec, np.array([np.conj(lam + 0j)]))[0])
            assert abs(r_star + r) <= 1e-10 * max(1.0, abs(r))

    def test_continuity_across_origin_switch(self):
        op = OperatorSpec(1.5, build_potential(0.5, [(1, 0.6, 0.2)]))
        wide = charfn.CharContext(op, singularity_radius=2e-4)
        narrow = charfn.CharContext(op, singularity_radius=0.5e-4)
        lam = 1e-4
        assert abs(
            charfn.char_perturbed(wide, lam) - charfn.char_perturbed(narrow, lam)
        ) < 1e-9

    def test_context_validation(self):
        op = OperatorSpec(1.0, CONST)
        with pytest.raises(ValueError):
            charfn.CharContext(op, singularity_radius=0.0)
        with pytest.raises(ValueError):
            charfn.CharContext(op, series_terms=2)

    @pytest.mark.parametrize(
        "lam",
        [
            identity_grid(),
            np.array([-3.1, 0.0, 5e-5, 2.0 - 0.5j, -1.5j, 1.5j, 7.25]),
            np.array([[0.5, -1.2], [3.0 + 1.0j, 4.0]]),
            1.7,
        ],
    )
    def test_char_with_autocorr_residual_matches_public_evaluators(self, rng, lam):
        op = random_operator(rng)
        spec = op.potential
        lhs = charfn.autocorr_transform(spec, lam) + charfn.autocorr_transform_star(spec, lam)
        rhs = charfn.fourier_transform(spec, lam) * charfn.fourier_transform_star(spec, lam)
        d, d0, residual = charfn.char_with_autocorr_residual(charfn.CharContext(op), lam)
        for got, ref in (
            (d, charfn.char_perturbed(charfn.CharContext(op), lam)),
            (d0, charfn.char_unperturbed(lam)),
            (residual, np.abs(lhs - rhs)),
            (charfn.autocorr_identity_residual(spec, lam), np.abs(lhs - rhs)),
        ):
            assert np.shape(got) == np.shape(lam)
            assert np.array_equal(got, ref)


class TestSecularFunction:
    def test_single_term(self):
        assert charfn.secular_function(1.0, {0: 1.0}, 0.5) == pytest.approx(-1.0)

    def test_two_terms(self):
        assert charfn.secular_function(1.0, {0: 0.5, 1: 0.5}, 2.0) == pytest.approx(1.0)

    def test_decay_at_large_negative_z(self):
        assert charfn.secular_function(3.0, {0: 0.4, 2: 0.6}, -1e9) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            charfn.secular_function(1.0, {1: 1.0}, 4.0)

    def test_zero_weight_levels_skipped(self):
        # an inactive pole is not a pole
        assert charfn.secular_function(1.0, {1: 0.0, 0: 1.0}, 4.0) == pytest.approx(0.75)


_FIXED_OP = OperatorSpec(1.7, build_potential(0.5, [(1, 0.6, -0.3), (3, 0.2, 0.4)]))
_FIXED_CTX = charfn.CharContext(_FIXED_OP)


@settings(max_examples=25, deadline=None)
@given(re=st.floats(-20, 20), im=st.floats(-2, 2))
def test_perturbed_evenness_property(re, im):
    lam = complex(re, im)
    a = charfn.char_perturbed(_FIXED_CTX, lam)
    b = charfn.char_perturbed(_FIXED_CTX, -lam)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


@settings(max_examples=25, deadline=None)
@given(z=st.floats(-1e9, -10.0))
def test_secular_function_decays_left_of_spectrum(z):
    val = charfn.secular_function(2.0, {0: 0.3, 2: 0.7}, z)
    assert abs(val - 1.0) <= 2.0 / abs(z) + 1e-12


# --- the shared-exponential kernel against a per-shift reference ----------
#
# The reference is the straightforward evaluation the kernel replaces: every
# shift lam + 2j gets its own exponential and its own closed form or series
# (the series inside a fixed lattice radius, whatever the context), the
# autocorrelation tables come from the O(K^2) pair loop, and the
# star-conjugate transforms come from their definitions.

_REF_RAMP_CUTOFF = 0.5
_REF_RAMP_TERMS = 24
_REF_LATTICE_RADIUS = 1e-4
_REF_LATTICE_TERMS = 8


def _unit_transform(mu, radius, terms):
    """integral_0^pi e^{-i mu x} dx; series inside |mu| < radius."""
    out = np.empty_like(mu)
    near = np.abs(mu) < radius
    far = ~near
    mf = mu[far]
    out[far] = one_minus_exp(-1j * PI * mf) / (1j * mf)
    zn = -1j * PI * mu[near]
    acc = np.zeros_like(zn)
    for n in range(terms - 1, 0, -1):
        acc = zn / (n + 1) * (1.0 + acc)
    out[near] = PI * (1.0 + acc)
    return out


def _ramp_series(mu, terms):
    z = -1j * PI * mu
    out = np.zeros_like(z)
    fact = 2.0
    zp = np.ones_like(z)
    for n in range(terms):
        if n > 0:
            fact *= n + 2
            zp = zp * z
        out = out + (n + 1) / fact * zp
    return PI * PI * out


def _ramp_transform(mu, radius, terms):
    """integral_0^pi x e^{-i mu x} dx; series inside |mu| < radius and a
    full-precision series on |mu| < 0.5."""
    out = np.empty_like(mu)
    near = np.abs(mu) < radius
    mid = (~near) & (np.abs(mu) < _REF_RAMP_CUTOFF)
    far = (~near) & (~mid)
    mf = mu[far]
    unit_far = one_minus_exp(-1j * PI * mf) / (1j * mf)
    out[far] = (unit_far - PI * np.exp(-1j * PI * mf)) / (1j * mf)
    out[mid] = _ramp_series(mu[mid], _REF_RAMP_TERMS)
    out[near] = _ramp_series(mu[near], terms)
    return out


def _ref_tables(spec):
    ms, amps = exp_coefficients(spec)
    index = {int(m): a for m, a in zip(ms, amps)}
    ce, cf = {}, {}
    for m, am in index.items():
        b = am * index.get(-m, 0.0)
        if b != 0.0:
            ce[m] = ce.get(m, 0.0) + PI * b
            cf[m] = cf.get(m, 0.0) - b
        for n, an in index.items():
            if m + n == 0:
                continue
            c = am * an / (2j * (m + n))
            ce[m] = ce.get(m, 0.0) + c
            ce[-n] = ce.get(-n, 0.0) - c
    return ce, cf


def ref_fourier(spec, lam):
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    ms, amps = exp_coefficients(spec)
    out = np.zeros_like(lam)
    for m, a in zip(ms, amps):
        out = out + a * _unit_transform(lam - 2.0 * m, _REF_LATTICE_RADIUS, _REF_LATTICE_TERMS)
    return out


def ref_autocorr(spec, lam):
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    ce, cf = _ref_tables(spec)
    out = np.zeros_like(lam)
    for j in set(ce) | set(cf):
        mu = lam + 2.0 * j
        if ce.get(j, 0.0) != 0.0:
            out = out + ce[j] * _unit_transform(mu, _REF_LATTICE_RADIUS, _REF_LATTICE_TERMS)
        if cf.get(j, 0.0) != 0.0:
            out = out + cf[j] * _ramp_transform(mu, _REF_LATTICE_RADIUS, _REF_LATTICE_TERMS)
    return out


def _ref_star(ref, spec, lam):
    return np.conj(ref(spec, np.conj(np.asarray(lam, dtype=complex))))


def _ref_odd_ratio(spec, lam):
    def edge(x):
        ft = ref_fourier(spec, x)
        fts = _ref_star(ref_fourier, spec, x)
        ac = ref_autocorr(spec, x)
        return one_minus_exp(-1j * PI * x) * (ac * one_minus_exp(1j * PI * x) - ft * fts)

    return (edge(lam) - edge(-lam)) / (2j * lam)


def ref_char_perturbed(op, lam, radius=1e-4, terms=8):
    """The perturbed function; radius and terms set the origin series."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    out = one_minus_exp(1j * PI * lam) + one_minus_exp(-1j * PI * lam)
    near = np.abs(lam) < radius
    far = ~near
    out[far] += op.alpha * _ref_odd_ratio(op.potential, lam[far])
    if np.any(near):
        ring = 0.5 * np.exp(2j * PI * np.arange(32) / 32)
        coeffs = np.fft.fft(_ref_odd_ratio(op.potential, ring)) / 32
        orders = np.arange(0, 2 * terms, 2)
        poly = coeffs[orders] / 0.5 ** orders
        out[near] += op.alpha * np.polynomial.polynomial.polyval(lam[near] ** 2, poly)
    return out


def _assert_kernel_matches(op, lam, radius=1e-4, terms=8):
    spec = op.potential
    ctx = charfn.CharContext(op, singularity_radius=radius, series_terms=terms)
    for got, ref in (
        (charfn.fourier_transform(spec, lam), ref_fourier(spec, lam)),
        (charfn.autocorr_transform(spec, lam), ref_autocorr(spec, lam)),
        (charfn.fourier_transform_star(spec, lam), _ref_star(ref_fourier, spec, lam)),
        (charfn.autocorr_transform_star(spec, lam), _ref_star(ref_autocorr, spec, lam)),
        (charfn.char_perturbed(ctx, lam), ref_char_perturbed(op, lam, radius, terms)),
    ):
        assert np.shape(got) == np.shape(lam)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


_KERNEL_OPS = (
    OperatorSpec(
        -1.3, build_potential(0.3, [(k, 0.4 / k, -0.25 / k) for k in range(1, 17)], normalize=True)
    ),
    OperatorSpec(2.4, build_potential(0.0, [(2, 0.6, 0.1), (5, -0.2, 0.7)])),
)
# subnormal offsets too, where the closed form's division by r would overflow
_LATTICE = np.array(
    [2.0 * k + d for k in range(-4, 18) for d in (0.0, 1e-6, -1e-6, 1e-6j, 1e-310j, -5e-324)]
)


class TestKernelAgainstPerShiftReference:
    @pytest.mark.parametrize("op", _KERNEL_OPS)
    def test_real_identity_grid(self, op):
        _assert_kernel_matches(op, identity_grid())

    @pytest.mark.parametrize("op", _KERNEL_OPS)
    def test_complex_points(self, op):
        re = np.linspace(-20.0, 20.0, 161)
        im = np.linspace(-2.0, 2.0, 161)
        _assert_kernel_matches(op, re + 1j * im[::-1])
        _assert_kernel_matches(op, (re + 1j * im).reshape(7, 23))

    @pytest.mark.parametrize("op", _KERNEL_OPS)
    def test_imaginary_axis(self, op):
        # negative spectral parameter z = lam^2 < 0
        s = np.linspace(0.01, 2.0, 60)
        _assert_kernel_matches(op, np.concatenate([1j * s, -1j * s]))

    @pytest.mark.parametrize("op", _KERNEL_OPS)
    def test_on_and_next_to_the_lattice(self, op):
        _assert_kernel_matches(op, _LATTICE)

    @pytest.mark.parametrize("op", _KERNEL_OPS)
    def test_origin(self, op):
        _assert_kernel_matches(op, np.array([0.0, 1e-5, -1e-5j, 2e-4]))
        _assert_kernel_matches(op, 0.0)

    def test_constant_only_potential(self):
        op = OperatorSpec(0.7, CONST)
        _assert_kernel_matches(op, np.concatenate([np.linspace(-9.0, 9.0, 181), _LATTICE, [0.0]]))

    @pytest.mark.parametrize("radius, terms", [(0.25, 4), (1e-4, 12), (0.25, 12)])
    @pytest.mark.parametrize("op", _KERNEL_OPS)
    def test_non_default_context(self, op, radius, terms):
        lam = np.concatenate(
            [_LATTICE, 2.0 + np.array([0.1, -0.2, 0.24j, 0.3]), [0.0, 0.1, 0.2j]]
        )
        _assert_kernel_matches(op, lam, radius, terms)

    def test_zero_potential(self):
        spec = build_potential(0.0)
        lam = np.array([0.0, 1.5, 2.0, 3.0 + 1.0j])
        assert np.all(charfn.fourier_transform(spec, lam) == 0.0)
        assert np.all(charfn.autocorr_transform(spec, lam) == 0.0)


def _nearest_shift_offsets():
    """r = 0, +-1e-20i, real and complex offsets with |r| in 1e-16..1e-3, and
    offsets down to the subnormal range, where r cannot divide E."""
    sizes = np.concatenate([np.logspace(-16.0, -3.0, 27), [1e-150, 1e-200, 1e-308, 1e-310, 5e-324]])
    directions = np.exp(1j * PI * np.array([0.0, 0.2, 0.5, 0.75, 1.0, 1.3]))
    return np.concatenate([[0.0, 1e-20j, -1e-20j], np.outer(sizes, directions).ravel()])


class TestSwitchFreeKernel:
    def test_nearest_shift_values_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        r = _nearest_shift_offsets()
        u, x = charfn._nearest_shift_values(r, one_minus_exp(-1j * PI * r))
        for rk, uk, xk in zip(r, u, x):
            # 1 - e cancels about -log10 |r| digits, X twice that
            digits = 40 - 2 * int(math.log10(abs(rk))) if rk else 40
            with mpmath.workdps(digits):
                mu = mpmath.mpc(rk.real, rk.imag)
                if rk == 0:
                    want_u, want_x = mpmath.pi, mpmath.pi ** 2 / 2
                else:
                    e = mpmath.exp(-1j * mpmath.pi * mu)
                    want_u = (1 - e) / (1j * mu)
                    want_x = 1j * mpmath.pi * e / mu - (1 - e) / mu ** 2
                for got, want in ((uk, want_u), (xk, want_x)):
                    error = abs(mpmath.mpc(got.real, got.imag) - want)
                    assert float(error) <= 4 * np.spacing(float(abs(want))), (rk, got)

    @pytest.mark.parametrize("op", _KERNEL_OPS)
    def test_context_does_not_reach_the_lattice(self, op):
        # the origin settings change nothing away from the origin
        lam = (2.0 * np.array([1.0, 2.0, 5.0])[:, None] + np.array([0.1, -0.2, 0.24j])).ravel()
        default = charfn.char_perturbed(charfn.CharContext(op), lam)
        coarse = charfn.char_perturbed(charfn.CharContext(op, 0.25, 4), lam)
        assert np.all(np.abs(coarse - default) <= 1e-13 * np.abs(default))

    @pytest.mark.parametrize(
        "star", [charfn.fourier_transform_star, charfn.autocorr_transform_star]
    )
    def test_star_transform_is_one_kernel_pass(self, monkeypatch, star):
        # one pass at lam itself, read from its -lam row, not a second pass
        # at conj(lam)
        calls = []
        kernel = charfn._transforms

        def counted(spec, lam):
            calls.append(lam.copy())
            return kernel(spec, lam)

        monkeypatch.setattr(charfn, "_transforms", counted)
        spec = _KERNEL_OPS[0].potential
        for lam in (np.array([0.3, 2.0 + 1e-6j, -4.5 + 0.7j]), 1.7 - 0.2j):
            calls.clear()
            star(spec, lam)
            assert len(calls) == 1
            assert np.array_equal(calls[0], np.atleast_1d(lam))


@st.composite
def _small_operators(draw):
    order = draw(st.integers(0, 6))
    coefficient = st.floats(-1.0, 1.0)
    pairs = [(k, draw(coefficient), draw(coefficient)) for k in range(1, order + 1)]
    alpha = draw(st.floats(0.25, 5.0)) * draw(st.sampled_from((-1.0, 1.0)))
    return OperatorSpec(alpha, build_potential(draw(coefficient), pairs))


# |Im lam| <= 1: further out, the odd-ratio factor cancels terms of size
# e^{pi |Im lam|} and both evaluations keep fewer digits than the 1e-13
# asked for here (the fixed operators above are checked up to |Im lam| = 2)
@settings(max_examples=40, deadline=None)
@given(op=_small_operators(), re=st.floats(-20.0, 20.0), im=st.floats(-1.0, 1.0))
def test_kernel_matches_reference_property(op, re, im):
    _assert_kernel_matches(op, np.array([complex(re, im), complex(round(re / 2.0) * 2.0, im)]))
