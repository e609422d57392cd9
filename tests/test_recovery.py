import math

import numpy as np
import pytest

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
    normalization_constant,
    synthesize_from_admissible,
    weights_from_char_derivative,
    weights_from_spectrum,
)
from rankonespec.spectrum import classify_spectrum, weight_table

from conftest import random_operator, random_potential

ROOT_LO = 0.4384471871911697
ROOT_HI = 4.561552812808831
CONST = build_potential(1.0)


def forward_data(op, window):
    return SpectralData.from_classified(classify_spectrum(op, window))


def three_spectra(alpha, v, order=32):
    w, what = companions(v, order)
    window = 4.0 * (order + 1) ** 2
    return ThreeSpectra.from_classified(
        classify_spectrum(OperatorSpec(alpha, v), window),
        classify_spectrum(OperatorSpec(alpha, w), window),
        classify_spectrum(OperatorSpec(alpha, what), window),
        order,
    )


class TestWeightsFromSpectrum:
    def test_single_constant_level(self):
        d = SpectralData(active_levels=(0.0,), mus=(1.0,), reduced_levels=(), window=40.0)
        assert weights_from_spectrum(d).weights == {0: pytest.approx(1.0, abs=1e-10)}

    def test_two_level_round_trip_values(self):
        d = SpectralData(
            active_levels=(0.0, 4.0), mus=(ROOT_LO, ROOT_HI), reduced_levels=(4.0,), window=40.0
        )
        w = weights_from_spectrum(d).weights
        assert w[0] == pytest.approx(0.5, abs=1e-9)
        assert w[1] == pytest.approx(0.5, abs=1e-9)

    def test_single_upper_level(self):
        d = SpectralData(active_levels=(4.0,), mus=(4.5,), reduced_levels=(4.0,), window=40.0)
        assert weights_from_spectrum(d).weights == {1: pytest.approx(0.5, abs=1e-9)}

    def test_interlacing_violation_rejected(self):
        d = SpectralData(
            active_levels=(0.0, 4.0), mus=(1.0, 2.0), reduced_levels=(4.0,), window=40.0
        )
        with pytest.raises(MalformedSpectrumError):
            weights_from_spectrum(d)

    def test_normalization_constant_is_origin_value(self):
        # the constant equals the perturbed characteristic function at 0,
        # which is -pi^2 * X_0 for the constant potential
        d = forward_data(OperatorSpec(1.0, CONST), 40.0)
        assert normalization_constant(d) == pytest.approx(-math.pi ** 2, rel=1e-7)

    def test_weights_finite_at_order_512(self):
        # unpaired Loewner products overflow at this order
        rng = np.random.default_rng(512)
        pairs = [(k, float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for k in range(1, 513)]
        op = OperatorSpec(1.3, build_potential(float(rng.uniform(-1, 1)), pairs))
        got = weights_from_spectrum(forward_data(op, 4.0 * 513 ** 2)).weights
        want = weight_table(op).weights
        assert all(math.isfinite(x) for x in got.values())
        assert max(abs(got[k] - want[k]) / abs(want[k]) for k in want) <= 1e-4


class TestAlphaAndNorms:
    def test_unit_table(self):
        d = forward_data(OperatorSpec(1.0, CONST), 40.0)
        alpha, norms = alpha_and_norms(weights_from_spectrum(d), orientation=d.orientation())
        assert alpha == pytest.approx(1.0, abs=1e-9)
        assert norms[0] == pytest.approx(1.0, abs=1e-9)

    def test_negative_coupling_orientation(self):
        d = forward_data(OperatorSpec(-2.0, CONST), 40.0)
        assert d.orientation() == -1
        alpha, norms = alpha_and_norms(weights_from_spectrum(d), orientation=-1)
        assert alpha == pytest.approx(-2.0, abs=1e-9)
        assert norms[0] == pytest.approx(1.0, abs=1e-9)

    def test_sign_mismatch_rejected(self):
        d = forward_data(OperatorSpec(1.0, CONST), 40.0)
        with pytest.raises(InconsistentSpectraError):
            alpha_and_norms(weights_from_spectrum(d), orientation=-1)


class TestRouteAgreement:
    def test_derivative_route_constant(self):
        w = weights_from_char_derivative(OperatorSpec(1.0, CONST))
        assert w.weights[0] == pytest.approx(1.0, abs=1e-8)

    def test_inactive_level_gives_zero(self):
        w = weights_from_char_derivative(OperatorSpec(1.0, CONST), max_level=1)
        assert w.weights[1] == pytest.approx(0.0, abs=1e-8)

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
        alpha, rec = invert_three_spectra(three_spectra(1.0, v))
        assert alpha == pytest.approx(1.0, rel=1e-6)
        assert rec.c0 == pytest.approx(0.6, abs=1e-6)
        c1, s1 = rec.coefficient(1)
        assert c1 == pytest.approx(0.64, abs=1e-6)
        assert s1 == pytest.approx(0.48, abs=1e-6)
        tail = max(max(abs(c), abs(s)) for k, c, s in rec.pairs if k > 1)
        assert tail < 1e-6

    def test_negative_coupling_constant_potential(self):
        alpha, rec = invert_three_spectra(three_spectra(-2.0, CONST))
        assert alpha == pytest.approx(-2.0, rel=1e-6)
        assert rec.c0 == pytest.approx(1.0, abs=1e-8)
        assert max(max(abs(c), abs(s)) for k, c, s in rec.pairs) < 1e-8

    def test_random_round_trips(self, rng):
        for alpha in (0.5, -0.5, 1.0, -1.0, 3.0, -3.0):
            v = random_potential(rng, max_order=8)
            ts = three_spectra(alpha, v)
            a_rec, rec = invert_three_spectra(ts)
            assert a_rec == pytest.approx(alpha, rel=1e-6)
            assert rec.c0 == pytest.approx(v.c0, abs=1e-6)
            for k in range(1, ts.order + 1):
                want_c, want_s = v.coefficient(k)
                got_c, got_s = rec.coefficient(k)
                assert got_c == pytest.approx(want_c, abs=1e-6)
                assert got_s == pytest.approx(want_s, abs=1e-6)

    def test_mismatched_spectra_rejected(self):
        v = build_potential(0.6, [(1, 0.64, 0.48)])
        ts = three_spectra(1.0, v)
        bad = ThreeSpectra(base=ts.base, shifted=ts.base, squared=ts.squared, order=ts.order)
        with pytest.raises(InconsistentSpectraError):
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


class TestAdmissibility:
    def test_accepts_forward_generated(self, rng):
        for _ in range(6):
            op = random_operator(rng)
            window = 4.0 * (op.potential.K + 2) ** 2
            report = check_admissibility(forward_data(op, window))
            assert report.accepted
            assert report.alpha == pytest.approx(op.alpha, rel=1e-6)

    def test_rejects_permuted_roots(self):
        bad = SpectralData(
            active_levels=(0.0, 4.0), mus=(1.0, 2.0), reduced_levels=(4.0,), window=40.0
        )
        report = check_admissibility(bad)
        assert not report.accepted
        assert not report.zero_structure_ok

    def test_rejects_double_overshoot(self):
        bad = SpectralData(
            active_levels=(0.0, 4.0), mus=(-1.0, 5.0), reduced_levels=(4.0,), window=40.0
        )
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
        bad = SpectralData(
            active_levels=(0.0, 4.0), mus=(1.0, 2.0), reduced_levels=(4.0,), window=40.0
        )
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
        assert d.reduced_levels == (4.0,)

    def test_coincident_roots_count_as_secular(self):
        d = forward_data(OperatorSpec(4.0, CONST), 40.0)
        assert d.active_levels == (0.0,)
        assert d.mus == (pytest.approx(4.0),)
        # and the weights still invert exactly
        assert weights_from_spectrum(d).weights[0] == pytest.approx(4.0, abs=1e-8)
