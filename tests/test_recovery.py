import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankonespec.errors import (
    DegenerateOperatorError,
    InconsistentSpectraError,
    MalformedSpectrumError,
)
from rankonespec.potential import OperatorSpec, build_potential, companions
from rankonespec.recovery import (
    SpectralData,
    ThreeSpectra,
    alpha_and_norms,
    check_admissibility,
    check_interlacing,
    invert_three_spectra,
    magnitudes_from_two_spectra,
    synthesize_from_admissible,
    weights_from_char_derivative,
    weights_from_spectrum,
)
from rankonespec.spectrum import WeightTable, classify_spectrum, weight_table

from conftest import random_operator, random_potential

ROOT_LO = 0.4384471871911697
ROOT_HI = 4.561552812808831
CONST = build_potential(1.0)
COS2 = build_potential(0.0, [(1, 1.0, 0.0)])  # v = sqrt(2/pi) cos 2x


def forward_data(op, window):
    return SpectralData.from_classified(classify_spectrum(op, window))


def zero_root_operators():
    """Operators with a secular root on z = 0 below an inactive constant
    level: alpha = -1 / sum ||v_k||^2 / (4k^2) makes q(0) = 0."""
    rng = np.random.default_rng(80)
    pairs = [(k, float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for k in range(1, 9)]
    v = build_potential(0.0, pairs, normalize=True)
    alpha = -1.0 / sum(n / (4.0 * k * k) for k, n in v.level_norms().items() if k)
    return [OperatorSpec(-4.0, COS2), OperatorSpec(alpha, v)]


def three_spectra(alpha, v, order=32, window=None):
    w, what = companions(v, order)
    window = window or 4.0 * (order + 1) ** 2
    return ThreeSpectra.from_classified(
        classify_spectrum(OperatorSpec(alpha, v), window),
        classify_spectrum(OperatorSpec(alpha, w), window),
        classify_spectrum(OperatorSpec(alpha, what), window),
        order,
    )


class TestWeightsFromSpectrum:
    def test_single_constant_level(self):
        d = SpectralData(active_levels=(0.0,), mus=(1.0,), window=40.0)
        assert weights_from_spectrum(d).weights == {0: pytest.approx(1.0, abs=1e-10)}

    def test_two_level_round_trip_values(self):
        d = SpectralData(active_levels=(0.0, 4.0), mus=(ROOT_LO, ROOT_HI), window=40.0)
        w = weights_from_spectrum(d).weights
        assert w[0] == pytest.approx(0.5, abs=1e-9)
        assert w[1] == pytest.approx(0.5, abs=1e-9)

    def test_single_upper_level(self):
        d = SpectralData(active_levels=(4.0,), mus=(4.5,), window=40.0)
        assert weights_from_spectrum(d).weights == {1: pytest.approx(0.5, abs=1e-9)}

    def test_interlacing_violation_rejected(self):
        d = SpectralData(active_levels=(0.0, 4.0), mus=(1.0, 2.0), window=40.0)
        with pytest.raises(MalformedSpectrumError):
            weights_from_spectrum(d)

    def test_weights_finite_at_order_512(self):
        # Loewner's formula with its root and level products taken apart
        # overflows at this order; each root paired with its level keeps
        # every factor near one
        rng = np.random.default_rng(512)
        pairs = [(k, float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for k in range(1, 513)]
        op = OperatorSpec(1.3, build_potential(float(rng.uniform(-1, 1)), pairs))
        got = weights_from_spectrum(forward_data(op, 4.0 * 513 ** 2)).weights
        want = weight_table(op).weights
        assert all(math.isfinite(x) for x in got.values())
        assert max(abs(got[k] - want[k]) / abs(want[k]) for k in want) <= 1e-4

    @pytest.mark.parametrize("op", zero_root_operators())
    def test_root_on_zero(self, op):
        # the root is written as an exact 0.0 coincident entry; a route that
        # divides by the roots returns NaN here
        d = forward_data(op, 4.0 * (op.potential.K + 1) ** 2)
        assert d.mus[0] == 0.0 and 0.0 not in d.active_levels
        got = weights_from_spectrum(d).weights
        want = weight_table(op).weights
        assert set(got) == {k for k, x in want.items() if x != 0.0}
        for k, x in got.items():
            assert abs(x - want[k]) <= 1e-12 * max(1.0, abs(want[k]))
        v = op.potential
        alpha, rec, _ = invert_three_spectra(three_spectra(op.alpha, v, v.K))
        assert abs(alpha - op.alpha) <= 1e-12 * abs(op.alpha)
        for k in range(v.K + 1):
            assert np.allclose(rec.coefficient(k), v.coefficient(k), rtol=0.0, atol=1e-12)


class TestAlphaAndNorms:
    def test_unit_table(self):
        d = forward_data(OperatorSpec(1.0, CONST), 40.0)
        alpha, norms = alpha_and_norms(weights_from_spectrum(d))
        assert alpha == pytest.approx(1.0, abs=1e-9)
        assert norms[0] == pytest.approx(1.0, abs=1e-9)

    def test_negative_coupling_orientation(self):
        d = forward_data(OperatorSpec(-2.0, CONST), 40.0)
        assert check_interlacing(d) == -1
        alpha, norms = alpha_and_norms(weights_from_spectrum(d))
        assert alpha == pytest.approx(-2.0, abs=1e-9)
        assert norms[0] == pytest.approx(1.0, abs=1e-9)

    def test_vanishing_weights_rejected(self):
        with pytest.raises(DegenerateOperatorError, match="all recovered weights vanish"):
            alpha_and_norms(WeightTable({0: 0.0}, (0,)))


class TestRouteAgreement:
    def test_derivative_route_constant(self):
        w = weights_from_char_derivative(OperatorSpec(1.0, CONST))
        assert w.weights[0] == pytest.approx(1.0, abs=1e-8)

    def test_inactive_level_gives_zero(self):
        op = OperatorSpec(1.0, build_potential(0.6, [(1, 0.0, 0.0), (2, 0.8, 0.0)]))
        w = weights_from_char_derivative(op)
        assert w.weights[1] == pytest.approx(0.0, abs=1e-8)
        assert w.active == (0, 2)

    def test_reduced_example(self):
        op = OperatorSpec(0.5, build_potential(0.0, [(1, 1.0, 0.0)]))
        w = weights_from_char_derivative(op)
        assert w.weights[1] == pytest.approx(0.5, abs=1e-6)

    def test_routes_agree_on_random_operators(self, rng):
        for _ in range(10):
            op = random_operator(rng)
            window = 4.0 * (op.potential.K + 2) ** 2
            spectral = weights_from_spectrum(forward_data(op, window)).weights
            derivative = weights_from_char_derivative(op).weights
            for k in range(0, op.potential.K + 1):
                assert spectral.get(k, 0.0) == pytest.approx(
                    derivative.get(k, 0.0), abs=1e-6
                )


    def test_derivative_route_matches_weight_table(self, rng):
        # the complex-step derivative is exact to rounding, on normalised and
        # non-normalised potentials up to order 32 and both signs of alpha
        for i in range(40):
            alpha = float(rng.uniform(0.25, 5.0)) * (1 if i % 4 < 2 else -1)
            op = OperatorSpec(alpha, random_potential(rng, 32, normalize=i % 2 == 0))
            derivative = weights_from_char_derivative(op)
            table = weight_table(op)
            for k in range(0, op.potential.K + 1):
                want = table.weights.get(k, 0.0)
                assert abs(derivative.weights[k] - want) <= 1e-13 * max(1.0, abs(want))
            assert derivative.active == table.active

    def test_active_set_follows_weight_floor(self):
        # level 2's weight 1e-12 lies above WEIGHT_FLOOR relative to alpha
        v = build_potential(0.5, [(1, 0.6, 0.3), (2, 1e-6, 0.0), (3, 0.4, 0.2)], normalize=False)
        op = OperatorSpec(1.0, v)
        assert weights_from_char_derivative(op).active == weight_table(op).active == (0, 1, 2, 3)
        assert weights_from_char_derivative(OperatorSpec(0.0, v)).active == ()


class TestInvertThreeSpectra:
    def test_worked_example(self):
        v = build_potential(0.6, [(1, 0.64, 0.48)])
        alpha, rec, _ = invert_three_spectra(three_spectra(1.0, v))
        assert alpha == pytest.approx(1.0, rel=1e-6)
        assert rec.c0 == pytest.approx(0.6, abs=1e-6)
        c1, s1 = rec.coefficient(1)
        assert c1 == pytest.approx(0.64, abs=1e-6)
        assert s1 == pytest.approx(0.48, abs=1e-6)
        tail = max(max(abs(c), abs(s)) for k, c, s in rec.pairs if k > 1)
        assert tail < 1e-6

    def test_negative_coupling_constant_potential(self):
        alpha, rec, _ = invert_three_spectra(three_spectra(-2.0, CONST))
        assert alpha == pytest.approx(-2.0, rel=1e-6)
        assert rec.c0 == pytest.approx(1.0, abs=1e-8)
        assert max(max(abs(c), abs(s)) for k, c, s in rec.pairs) < 1e-8

    def test_random_round_trips(self, rng):
        for alpha in (0.5, -0.5, 1.0, -1.0, 3.0, -3.0):
            v = random_potential(rng, max_order=8)
            ts = three_spectra(alpha, v)
            a_rec, rec, _ = invert_three_spectra(ts)
            assert a_rec == pytest.approx(alpha, rel=1e-6)
            assert rec.c0 == pytest.approx(v.c0, abs=1e-6)
            for k in range(1, ts.order + 1):
                want_c, want_s = v.coefficient(k)
                got_c, got_s = rec.coefficient(k)
                assert got_c == pytest.approx(want_c, abs=1e-6)
                assert got_s == pytest.approx(want_s, abs=1e-6)

    def test_order_zero_constant_potential(self):
        # the even probe's companion has its root at (1 + pi^(5/2)/12)^2 ~ 6.04
        alpha, rec, residuals = invert_three_spectra(three_spectra(1.0, CONST, order=0, window=40.0))
        assert alpha == pytest.approx(1.0, rel=1e-6)
        assert rec.c0 == pytest.approx(1.0, abs=1e-6)
        assert rec.pairs == ()
        assert len(residuals) == 1 and residuals[0] < 1e-6

    def test_missing_exterior_root_names_the_window(self):
        # window 4 holds the base spectrum's root at 1 but not the even
        # probe companion's, at ~6.04, above the one active level 0
        ts = three_spectra(1.0, CONST, order=0, window=4.0)
        with pytest.raises(
            ValueError,
            match=r"got 0 within the window 4\.0; the root above the top active level 0\.0 lies beyond that window$",
        ):
            invert_three_spectra(ts)

    def test_mismatched_spectra_rejected(self):
        v = build_potential(0.6, [(1, 0.64, 0.48)])
        ts = three_spectra(1.0, v)
        bad = ThreeSpectra(base=ts.base, shifted=ts.base, squared=ts.squared, order=ts.order)
        with pytest.raises(InconsistentSpectraError):
            invert_three_spectra(bad)

    def test_first_failing_level_is_named(self):
        # with the base spectrum in place of the even probe's, every cosine
        # and c0 fail the norm identity; the constant level is level 0
        v = build_potential(0.6, [(1, 0.64, 0.48)])
        ts = three_spectra(1.0, v)
        bad = ThreeSpectra(base=ts.base, shifted=ts.shifted, squared=ts.base, order=ts.order)
        with pytest.raises(InconsistentSpectraError, match=r"^level 0: "):
            invert_three_spectra(bad)

    def test_window_capacity_enforced(self):
        v = build_potential(0.6, [(1, 0.64, 0.48)])
        ts = three_spectra(1.0, v, order=8)
        with pytest.raises(ValueError, match="window"):
            ThreeSpectra(base=ts.base, shifted=ts.shifted, squared=ts.squared, order=64)


class TestTwoSpectraMagnitudes:
    def test_pure_even_potential(self):
        # already even about pi/2: all weight on the cosine side
        plus = forward_data(OperatorSpec(1.0, build_potential(0.0, [(1, 1.0, 0.0)])), 40.0)
        minus_op = OperatorSpec(1.0, build_potential(0.0, [(1, 0.0, 1e-20)]))
        with pytest.raises(DegenerateOperatorError):
            forward_data(minus_op, 40.0)

    def test_mixed_direction(self):
        plus = forward_data(OperatorSpec(1.0, build_potential(0.0, [(1, 0.6, 0.0)])), 40.0)
        minus = forward_data(OperatorSpec(1.0, build_potential(0.0, [(1, 0.0, 0.8)])), 40.0)
        mags = magnitudes_from_two_spectra(plus, minus)
        assert mags[1][0] == pytest.approx(0.36, abs=1e-9)
        assert mags[1][1] == pytest.approx(0.64, abs=1e-9)


WIDE_LEVELS = (4.0, 196.0, 400.0, 1444.0, 1936.0, 2116.0, 2500.0, 2916.0, 7744.0, 12100.0)


@st.composite
def interlacing_data(draw):
    """Secular roots interlacing an active subset of the levels 4k^2,
    k <= 64, in either orientation, with an exterior gap from 1e-3 to 1e6,
    and sometimes the exterior root at 0.0 below an inactive level 0. Each
    interior root divides its gap at a fraction in [0.05, 0.95], which keeps
    every weight far above WEIGHT_FLOOR relative to the coupling."""
    order = draw(st.integers(1, 64))
    ks = draw(st.lists(st.integers(0, order), min_size=1, max_size=order + 1, unique=True))
    poles = sorted(4.0 * k * k for k in ks)
    inner = len(poles) - 1
    fractions = draw(st.lists(st.floats(0.05, 0.95), min_size=inner, max_size=inner))
    mus = [p + f * (q - p) for p, q, f in zip(poles, poles[1:], fractions)]
    gap = 10.0 ** draw(st.floats(-3.0, 6.0))
    if draw(st.booleans()):
        mus.append(poles[-1] + gap)
    elif poles[0] > 0.0 and draw(st.booleans()):
        mus.insert(0, 0.0)
    else:
        mus.insert(0, poles[0] - gap)
    return SpectralData(
        active_levels=tuple(poles),
        mus=tuple(mus),
        window=max(poles[-1], mus[-1]),
    )


class TestAdmissibility:
    def test_accepts_forward_generated(self, rng):
        for _ in range(6):
            op = random_operator(rng)
            window = 4.0 * (op.potential.K + 2) ** 2
            report = check_admissibility(forward_data(op, window))
            assert report.accepted
            assert report.alpha == pytest.approx(op.alpha, rel=1e-6)

    @pytest.mark.parametrize("alpha", [1e6, -1e6])
    def test_large_coupling_at_order_200(self, alpha):
        # the forward spectrum of a real operator, exterior root included
        rng = np.random.default_rng(200)
        pairs = [(k, float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for k in range(1, 201)]
        op = OperatorSpec(alpha, build_potential(float(rng.uniform(-1, 1)), pairs, normalize=True))
        report = check_admissibility(forward_data(op, 4.0 * 201 ** 2 + 2.0 * max(alpha, 0.0)))
        assert report.accepted
        assert abs(report.alpha - alpha) <= 1e-9 * abs(alpha)

    @settings(max_examples=60, deadline=None)
    @given(data=interlacing_data())
    @example(
        data=SpectralData(active_levels=(4.0, 36.0), mus=(0.0, 20.0), window=40.0)
    )
    @example(
        # a root near 0 under a coupling near -1e4 comes back 1.5e-12 off,
        # with kappa eps = 2.4e-13
        data=SpectralData(
            active_levels=WIDE_LEVELS,
            mus=(0.5309220353368813, 13.600000000000001, 206.2, 452.2, 1468.6, 1945.0,
                 2135.2, 2724.72904911045, 3157.4, 7961.8),
            window=12100.0,
        )
    )
    @example(
        # a root one ulp above its pole: a residue of 3.6e-12 beside one of 6
        data=SpectralData(
            active_levels=(4.0, 16384.0),
            mus=(10.0, math.nextafter(16384.0, math.inf)),
            window=16385.0,
        )
    )
    def test_interlacing_data_is_admissible(self, data):
        # every Loewner residue is finite and carries the orientation's sign:
        # each factor (mu_j - p_i)/(p_j - p_i), j != i, is positive, and
        # mu_i - p_i is a difference of distinct floats, so its sign is exact
        report = check_admissibility(data)
        residues = np.array(list(report.residues.values()))
        assert np.all(np.isfinite(residues))
        assert np.all(np.sign(residues) == check_interlacing(data))
        # finite interlacing data is admissible, and the synthesized
        # operator has the data's roots: within 1e-12 relative to
        # max(1, |mu|), plus what rounding the weights to floats moves a root
        # by. That is kappa eps, with kappa = sum |X_i / (p_i - mu)| / |q'(mu)|
        # the root's change per unit relative change of every weight; rounding
        # the synthesized coefficients and solving cost a few times that
        assert report.accepted
        op = synthesize_from_admissible(report)
        window = max(4.0, data.active_levels[-1], data.mus[-1]) + 1.0
        got = np.array(forward_data(op, window).mus)
        want = np.array(data.mus)
        assert len(got) == len(want)
        gaps = np.array(data.active_levels) - want[:, None]
        terms = np.array(list(report.residues.values())) / gaps
        kappa = np.abs(terms).sum(axis=1) / np.abs((terms / gaps).sum(axis=1))
        tol = 1e-12 * np.maximum(1.0, np.abs(want)) + 32 * np.finfo(float).eps * kappa
        assert np.all(np.abs(got - want) <= tol)

    def test_rejects_permuted_roots(self):
        bad = SpectralData(active_levels=(0.0, 4.0), mus=(1.0, 2.0), window=40.0)
        report = check_admissibility(bad)
        assert not report.accepted
        assert report.to_dict()["zero_structure_ok"] is False

    def test_rejects_double_overshoot(self):
        bad = SpectralData(active_levels=(0.0, 4.0), mus=(-1.0, 5.0), window=40.0)
        with pytest.raises(MalformedSpectrumError):
            check_interlacing(bad)
        assert not check_admissibility(bad).accepted

    def test_synthesis_round_trip(self):
        d = forward_data(OperatorSpec(1.0, build_potential(
            1 / math.sqrt(2), [(1, 1 / math.sqrt(2), 0.0)])), 40.0)
        report = check_admissibility(d)
        assert report.accepted
        op = synthesize_from_admissible(report)
        assert op.alpha == pytest.approx(1.0, abs=1e-9)
        d2 = forward_data(op, 40.0)
        assert np.allclose(d2.mus, d.mus, atol=1e-9)

    def test_synthesis_exterior_root_case(self):
        d = forward_data(OperatorSpec(-1.0, CONST), 40.0)
        report = check_admissibility(d)
        op = synthesize_from_admissible(report)
        assert op.alpha == pytest.approx(-1.0, abs=1e-9)
        assert op.potential.c0 == pytest.approx(1.0, abs=1e-9)
        d2 = forward_data(op, 40.0)
        assert d2.mus[0] == pytest.approx(-1.0, abs=1e-9)

    def test_rejected_report_cannot_synthesize(self):
        bad = SpectralData(active_levels=(0.0, 4.0), mus=(1.0, 2.0), window=40.0)
        with pytest.raises(MalformedSpectrumError):
            synthesize_from_admissible(check_admissibility(bad))


class TestSpectralDataConversion:
    def test_active_zero_detected_by_absence(self):
        d = forward_data(OperatorSpec(1.0, CONST), 40.0)
        assert d.active_levels == (0.0,)
        assert d.mus == (1.0,)

    def test_inactive_zero_is_kept_unchanged(self):
        op = OperatorSpec(0.5, build_potential(0.0, [(1, 1.0, 0.0)]))
        d = forward_data(op, 40.0)
        assert d.active_levels == (4.0,)

    def test_coincident_roots_count_as_secular(self):
        d = forward_data(OperatorSpec(4.0, CONST), 40.0)
        assert d.active_levels == (0.0,)
        assert d.mus == (pytest.approx(4.0),)
        # and the weights still invert exactly
        assert weights_from_spectrum(d).weights[0] == pytest.approx(4.0, abs=1e-8)
