import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankonespec import charfn
from rankonespec.diagnostics import identity_grid
from rankonespec.errors import PoleError
from rankonespec.numerics import one_minus_exp
from rankonespec.potential import OperatorSpec, build_potential, evaluate, exp_coefficients
from rankonespec.spectrum import classify_spectrum

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
        op = OperatorSpec(1.0, CONST)
        assert np.real(charfn.char_perturbed(op, 0.0)) == pytest.approx(-PI ** 2, abs=1e-10)

    def test_zero_coupling_reduces_to_unperturbed(self):
        op = OperatorSpec(0.0, CONST)
        assert charfn.char_perturbed(op, 1.0) == pytest.approx(4.0, abs=1e-14)

    def test_unit_coupling_eigenvalue_at_one(self):
        # z = 1 solves the secular equation for the constant potential
        op = OperatorSpec(1.0, CONST)
        assert abs(charfn.char_perturbed(op, 1.0)) < 1e-12

    def test_factorization_identity(self, rng):
        # perturbed = secular(z) * unperturbed on a lattice-avoiding grid
        lams = np.arange(0.05, 30.0, 0.37)
        lams = lams[np.abs(lams / 2 - np.round(lams / 2)) * 2 >= 0.05]
        for _ in range(6):
            op = random_operator(rng)
            norms = op.potential.level_norms()
            d = charfn.char_perturbed(op, lams)
            d0 = charfn.char_unperturbed(lams)
            q = np.array(
                [charfn.secular_function(op.alpha, norms, l * l) for l in lams]
            )
            resid = np.abs(d - q * d0) / np.maximum(1.0, np.abs(d))
            assert np.max(resid) < 1e-9

    def test_symmetries_on_grid(self, rng):
        # evenness and star-conjugation symmetry, real and complex points
        op = random_operator(rng)
        real_grid = np.linspace(0.1, 25.0, 100)
        complex_grid = real_grid + 1j * np.linspace(-2.0, 2.0, 100)
        for grid in (real_grid, complex_grid):
            d = charfn.char_perturbed(op, grid)
            scale = np.maximum(1.0, np.abs(d))
            even = np.abs(d - charfn.char_perturbed(op, -grid)) / scale
            star = np.abs(d - np.conj(charfn.char_perturbed(op, np.conj(grid)))) / scale
            assert np.max(even) < 1e-10
            assert np.max(star) < 1e-10

    def test_symmetries_exact_on_validate_points(self, rng):
        # validate reports evenness_max and star_symmetry_max as 0.0 without
        # evaluating them on these points
        points = identity_grid()[:100] + 1j * np.linspace(-1.5, 1.5, 100)
        for _ in range(5):
            op = random_operator(rng, max_order=16)
            d = charfn.char_perturbed(op, points)
            assert np.array_equal(charfn.char_perturbed(op, -points), d)
            assert np.array_equal(np.conj(charfn.char_perturbed(op, np.conj(points))), d)

    def test_beyond_the_float_range_raises(self):
        # D grows like e^{pi |Im lam|} and leaves the float range near 226i
        op = OperatorSpec(-2.0, CONST)
        lam = np.array([200j, -200j, 3.0 + 200j])
        _assert_close(charfn.char_perturbed(op, lam), mp_char_perturbed(op, lam), lam)
        for lam in (230j, np.array([1.0, -5.0 - 230j])):
            with pytest.raises(OverflowError, match="float range"):
                charfn.char_perturbed(op, lam)
        with pytest.raises(OverflowError, match="float range"):
            charfn.char_with_autocorr_residual(op, 230j)

    def test_real_axis_overflow_names_the_coupling_and_the_potential(self):
        # e^{pi |Im lam|} is 1 on the real axis: the coupling times the
        # potential's squared norm takes D past the float range there, and
        # only off the axis does the message name the growth in |Im lam|
        op = OperatorSpec(1e308, build_potential(1.0, [(1, 0.5, 0.2)]))
        with pytest.raises(OverflowError, match="float range") as raised:
            charfn.char_perturbed(op, [0.05])
        message = str(raised.value)
        assert "the coupling 1e+308 times the potential's squared norm 1.29" in message
        assert "Im lam" not in message
        with pytest.raises(OverflowError, match=r"e\^\(pi \|Im lam\|\)"):
            charfn.char_perturbed(OperatorSpec(-2.0, CONST), 230j)

    def test_every_evaluator_guards_the_float_range(self):
        # each raises OverflowError where its own value leaves the float
        # range; F(-230i) is finite although the kernel's row at +230i
        # overflows, and no RuntimeWarning escapes (pyproject makes one an
        # error)
        for evaluate in (
            lambda: charfn.char_unperturbed(230j),
            lambda: charfn.fourier_transform(CONST, 230j),
            lambda: charfn.autocorr_transform_star(CONST, -230j),
        ):
            with pytest.raises(OverflowError, match="float range"):
                evaluate()
        want = -math.expm1(-230.0 * PI) / (230.0 * math.sqrt(PI))
        assert charfn.fourier_transform(CONST, -230j) == pytest.approx(want, rel=1e-14)

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
        # D and D0 equal the public evaluators bit for bit everywhere. The
        # residual, a cancellation formed at the canonical member of lam,
        # equals the public transforms' bit for bit on the identity grid,
        # which pins validate's bytes; elsewhere both are rounding noise of
        # terms of size e^{pi |Im lam|}, and they differ by at most
        # 3.7e-16 max(1, |F F*|) e^{pi |Im lam|} on 2,100 seeded cases
        # (K <= 16, |Im lam| <= 10, real, complex, 2-d and scalar lam)
        op = random_operator(rng)
        spec = op.potential
        lhs = charfn.autocorr_transform(spec, lam) + charfn.autocorr_transform_star(spec, lam)
        rhs = charfn.fourier_transform(spec, lam) * charfn.fourier_transform_star(spec, lam)
        d, d0, residual = charfn.char_with_autocorr_residual(op, lam)
        for got in (d, d0, residual):
            assert np.shape(got) == np.shape(lam)
        assert np.array_equal(d, charfn.char_perturbed(op, lam))
        assert np.array_equal(d0, charfn.char_unperturbed(lam))
        ref = np.abs(lhs - rhs)
        if np.array_equal(lam, identity_grid()):
            assert np.array_equal(residual, ref)
        else:
            scale = np.maximum(1.0, np.abs(rhs)) * np.exp(PI * np.abs(np.imag(lam)))
            assert np.all(np.abs(residual - ref) <= 2e-15 * scale)

    @pytest.mark.parametrize(
        "lam",
        [
            identity_grid(),
            np.array([-3.1, 0.0, 5e-5, 2.0 - 0.5j, -1.5j, 1.5j, 7.25]),
            np.array([[0.5, -1.2], [3.0 + 1.0j, 4.0]]),
            -2.5 + 0.25j,
            -1.7,
        ],
    )
    def test_char_with_autocorr_residual_is_one_kernel_pass(self, monkeypatch, lam):
        # D, D0 and the residual all come from the pass at the canonical
        # member of lam, whatever lam is
        calls = []
        kernel = charfn._transforms

        def counted(spec, mu):
            calls.append(mu.copy())
            return kernel(spec, mu)

        monkeypatch.setattr(charfn, "_transforms", counted)
        op = _KERNEL_OPS[0]
        charfn.char_with_autocorr_residual(op, lam)
        assert len(calls) == 1
        arr = np.atleast_1d(np.asarray(lam, dtype=complex))
        assert np.array_equal(calls[0], np.abs(arr.real) - 1j * np.abs(arr.imag))


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


@settings(max_examples=25, deadline=None)
@given(re=st.floats(-20, 20), im=st.floats(-2, 2))
def test_perturbed_evenness_property(re, im):
    lam = complex(re, im)
    a = charfn.char_perturbed(_FIXED_OP, lam)
    b = charfn.char_perturbed(_FIXED_OP, -lam)
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


def ref_char_perturbed(op, lam):
    """The perturbed function in the paper's difference form, with a Taylor
    series in lam^2 (8 terms, from a 32-point circle of radius 0.5) for the
    0/0 inside |lam| < 1e-4."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    out = one_minus_exp(1j * PI * lam) + one_minus_exp(-1j * PI * lam)
    near = np.abs(lam) < 1e-4
    far = ~near
    out[far] += op.alpha * _ref_odd_ratio(op.potential, lam[far])
    if np.any(near):
        ring = 0.5 * np.exp(2j * PI * np.arange(32) / 32)
        coeffs = np.fft.fft(_ref_odd_ratio(op.potential, ring)) / 32
        poly = coeffs[0:16:2] / 0.5 ** np.arange(0, 16, 2)
        out[near] += op.alpha * np.polynomial.polynomial.polyval(lam[near] ** 2, poly)
    return out


def mp_char_perturbed(op, lam):
    """The perturbed function as D0 q at 50 digits (criterion 2's
    factorization), on a 1-d array. D0 is formed as 4 sin^2(pi lam / 2):
    2(1 - cos pi lam) cancels to 0 at lam = 1e-200. Where lam^2 hits a
    pole 4k^2 of q, D0 / (4k^2 - lam^2) takes its limit: -pi^2 at k = 0,
    0 elsewhere."""
    mpmath = pytest.importorskip("mpmath")
    norms = op.potential.level_norms()
    out = []
    with mpmath.workdps(50):
        for x in lam:
            mu = mpmath.mpc(x.real, x.imag)
            d0 = 4 * mpmath.sinpi(mu / 2) ** 2
            total = d0
            for k, norm in norms.items():
                gap = 4 * k * k - mu * mu
                ratio = d0 / gap if gap != 0 else (-mpmath.pi ** 2 if k == 0 else 0)
                total += op.alpha * norm * ratio
            out.append(complex(total))
    return np.array(out)


def _assert_close(got, ref, lam):
    assert np.shape(got) == np.shape(lam)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref))), (
        np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    ).max()


def _assert_transforms_match(spec, lam):
    for got, ref in (
        (charfn.fourier_transform(spec, lam), ref_fourier(spec, lam)),
        (charfn.autocorr_transform(spec, lam), ref_autocorr(spec, lam)),
        (charfn.fourier_transform_star(spec, lam), _ref_star(ref_fourier, spec, lam)),
        (charfn.autocorr_transform_star(spec, lam), _ref_star(ref_autocorr, spec, lam)),
    ):
        _assert_close(got, ref, lam)


def _assert_kernel_matches(op, lam):
    _assert_transforms_match(op.potential, lam)
    _assert_close(charfn.char_perturbed(op, lam), ref_char_perturbed(op, lam), lam)


def _seeded_potential(seed, order, decay=0.0, levels=None):
    """Unit-norm potential on the given levels (every level 0..order by
    default), with N(0, 1) coefficients scaled by k^-decay."""
    rng = np.random.default_rng(seed)
    levels = range(order + 1) if levels is None else levels
    scale = {k: float(max(k, 1)) ** -decay for k in levels}
    c0 = float(rng.standard_normal()) if 0 in levels else 0.0
    pairs = [(k, *(scale[k] * rng.standard_normal(2))) for k in levels if k]
    return build_potential(c0, pairs, normalize=True)


_TABLE_SPECS = (
    *(_seeded_potential(30 + order, order) for order in (1, 8, 16, 64)),
    _seeded_potential(41, 16, levels=(0, 3, 7, 16)),
    _seeded_potential(42, 32, decay=3.0),
    build_potential(0.0),
    CONST,
)


class TestAutocorrTables:
    @pytest.mark.parametrize("spec", _TABLE_SPECS)
    def test_against_double_loop(self, spec):
        shifts, table = charfn._autocorr_tables.__wrapped__(spec)
        ms, amps = exp_coefficients(spec)
        ref_ce = _ref_tables(spec)[0]
        f, ce, cf = table[:-1].T
        assert np.all(table[-1] == 0.0)
        a = dict(zip(ms.tolist(), amps))
        a_neg = np.array([a[-j] for j in shifts.tolist()], dtype=complex)
        assert f.tobytes() == a_neg.tobytes()
        assert cf.tobytes() == (-(np.array([a[j] for j in shifts.tolist()]) * a_neg)).tobytes()
        # the real potential's symmetry holds exactly (CE[0]'s zero imaginary
        # part is +0, its conjugate's -0)
        assert np.array_equal(ce[::-1], np.conj(ce))
        ref = np.array([ref_ce.get(j, 0.0) for j in shifts.tolist()], dtype=complex)
        bound = 8.0 * np.finfo(float).eps * np.abs(ce).max(initial=0.0)
        assert np.all(np.abs(ce - ref) <= bound), np.abs(ce - ref).max() / bound

    def test_cold_table_memory_is_one_real_matrix(self):
        # C and its mask, 9 bytes per pair: about 36 MiB at K = 1024, where
        # a complex pair matrix would take several times that
        spec = _seeded_potential(7, 1024)
        exp_coefficients(spec)
        tracemalloc.start()
        try:
            charfn._autocorr_tables.__wrapped__(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak / 2**20


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

    def test_zero_potential(self):
        spec = build_potential(0.0)
        lam = np.array([0.0, 1.5, 2.0, 3.0 + 1.0j])
        assert np.all(charfn.fourier_transform(spec, lam) == 0.0)
        assert np.all(charfn.autocorr_transform(spec, lam) == 0.0)


# every shift set: dense, with gaps (levels 2 and 5, no constant), the
# constant only, and none
_REAL_AXIS_SPECS = (_KERNEL_OPS[0].potential, _KERNEL_OPS[1].potential, CONST, build_potential(0.0))
# the identity grid, and a grid past every shift, through the lattice
_REAL_GRIDS = (identity_grid(), np.linspace(-40.0, 40.0, 801))


class TestRealAxisKernel:
    @pytest.mark.parametrize("grid", _REAL_GRIDS, ids=("identity", "wide"))
    @pytest.mark.parametrize("spec", _REAL_AXIS_SPECS)
    def test_one_sign_equals_both_signs_bit_for_bit(self, spec, grid):
        # one complex point adds the points conj(lam) to the pass; the real
        # points' values must not change with it
        real = charfn._transforms(spec, grid.astype(complex))
        both = charfn._transforms(spec, np.append(grid, 1.0 + 1.0j))[..., :-1]
        assert np.array_equal(real.real, both.real)
        assert np.array_equal(real.imag, both.imag)
        assert np.array_equal(real[:, 1], np.conjugate(real[:, 0]))

    def test_real_axis_takes_one_sign(self, monkeypatch):
        # one exponential and one nearest-shift evaluation, at lam alone on
        # the real axis and at lam and conj(lam) otherwise
        calls = []
        for name in ("one_minus_exp", "_nearest_shift_values"):
            def counted(*args, name=name, wrapped=getattr(charfn, name)):
                calls.append((name, len(args[0])))
                return wrapped(*args)

            monkeypatch.setattr(charfn, name, counted)
        spec, grid = _KERNEL_OPS[0].potential, identity_grid().astype(complex)
        for lam, points in ((grid, len(grid)), (np.append(grid, 1.0 + 1.0j), 2 * len(grid) + 2)):
            calls.clear()
            charfn._transforms(spec, lam)
            assert sorted(calls) == [("_nearest_shift_values", points), ("one_minus_exp", points)]


_STAR_GRIDS = (
    1j * np.random.default_rng(23).uniform(-3.0, 3.0, 80),
    identity_grid() + 0.3j,
    identity_grid() - 0.3j,
    np.random.default_rng(23).uniform(-30.0, 30.0, 200)
    + 1j * np.random.default_rng(32).uniform(-3.0, 3.0, 200),
)


@pytest.mark.parametrize("grid", _STAR_GRIDS, ids=("imaginary", "above", "below", "quadrants"))
@pytest.mark.parametrize(
    "spec", [op.potential for op in _KERNEL_OPS] + [CONST, build_potential(0.0)]
)
@pytest.mark.parametrize(
    "f, star",
    [
        (charfn.fourier_transform, charfn.fourier_transform_star),
        (charfn.autocorr_transform, charfn.autocorr_transform_star),
    ],
    ids=("fourier", "autocorr"),
)
def test_star_is_the_conjugate_at_conj_lam_byte_for_byte(f, star, spec, grid):
    # f*(lam) = conj(f(conj(lam))) is the definition, zero signs included
    assert star(spec, grid).tobytes() == np.conj(f(spec, np.conj(grid))).tobytes()


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


# the transforms against the per-shift references, and the perturbed
# function against the 50-digit D0 q: the difference form cancels terms of
# size e^{pi |Im lam|}, and at 0.96875i it is itself off by 7.7e-14
@settings(max_examples=40, deadline=None)
@given(op=_small_operators(), re=st.floats(-20.0, 20.0), im=st.floats(-1.0, 1.0))
@example(op=OperatorSpec(-5.0, build_potential(0.0, [(1, 0.0, 1.0)])), re=0.0, im=0.96875)
def test_kernel_matches_reference_property(op, re, im):
    lam = np.array([complex(re, im), complex(round(re / 2.0) * 2.0, im)])
    _assert_transforms_match(op.potential, lam)
    _assert_close(charfn.char_perturbed(op, lam), mp_char_perturbed(op, lam), lam)


def _region_points():
    """The regions of the 50-digit comparison: around the origin (with 0
    and 1e-200), the real line, Im lam = -2 and the imaginary axis up to
    |Im lam| = 40, both signs."""
    circle = np.exp(1j * PI * np.arange(8) / 4)
    origin = np.concatenate([[0.0, 1e-200, 1e-200j], np.outer([1e-8, 1e-3, 0.1, 0.24], circle).ravel()])
    axis = np.concatenate([np.linspace(1.0, 3.0, 5), np.linspace(3.5, 8.0, 6), np.linspace(8.0, 40.0, 9)])
    axis = 1j * axis * (-1.0) ** np.arange(len(axis))
    return np.concatenate([origin, np.linspace(0.3, 29.7, 15), np.linspace(-20.0, 20.0, 9) - 2j, axis])


class TestAgainstFiftyDigitReference:
    def test_regions(self):
        rng = np.random.default_rng(20261018)
        lam = _region_points()
        for _ in range(12):
            op = random_operator(rng, max_order=16)
            _assert_close(charfn.char_perturbed(op, lam), mp_char_perturbed(op, lam), lam)

    @pytest.mark.parametrize("alpha", [-5.0, -200.0, -1e4])
    def test_negative_roots_on_the_imaginary_axis(self, alpha):
        # each negative secular root z = -y^2 is a sign change of D(iy),
        # with the sign of D0 q = -q on either side
        rng = np.random.default_rng(int(-alpha))
        for _ in range(2):
            pairs = [(k, float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for k in range(1, 9)]
            op = OperatorSpec(alpha, build_potential(float(rng.uniform(-1, 1)), pairs, normalize=True))
            roots = [e.z for e in classify_spectrum(op, 300.0).entries if e.z < 0.0]
            assert roots
            for z in roots:
                y = math.sqrt(-z) * np.array([1.0 - 1e-9, 1.0 + 1e-9])
                d = charfn.char_perturbed(op, 1j * y).real
                q = charfn.secular_function(alpha, op.potential.level_norms(), -y * y)
                assert d[0] * d[1] < 0.0
                assert np.array_equal(np.sign(d), -np.sign(q))
