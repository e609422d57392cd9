import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankonespec.potential import (
    OperatorSpec,
    PotentialSpec,
    build_potential,
    companions,
    evaluate,
    probe_coefficients,
)

from conftest import quad_oracle

SQRT_PI_HALF = math.sqrt(math.pi / 2.0)


def test_single_coefficient_normalization():
    spec = build_potential(1.0, normalize=True)
    assert spec.c0 == 1.0
    assert spec.norm_sq == 1.0


def test_norm_is_plain_coefficient_sum():
    spec = build_potential(0.6, [(1, 0.64, 0.48)])
    assert spec.norm_sq == pytest.approx(0.36 + 0.4096 + 0.2304, abs=0)
    assert spec.norm_sq == pytest.approx(1.0, abs=1e-15)


def test_normalization_rescales_all_coefficients():
    spec = build_potential(3.0, [(2, 4.0, 0.0)], normalize=True)
    assert spec.c0 == pytest.approx(0.6)
    assert spec.coefficient(2) == (pytest.approx(0.8), 0.0)


def test_overflowing_squares_are_inf_until_an_operator_takes_them():
    # a bare potential may hold coefficients whose squares overflow; c0 is
    # squared as the pairs are, and the operator rejects the infinite norm
    spec = build_potential(1e160, [(1, 1e160, 0.0)])
    assert spec.level_norms() == {0: math.inf, 1: math.inf}
    assert spec.norm_sq == math.inf
    for pot in (spec, build_potential(0.0, [(3, 1e154, 1e154)])):
        with pytest.raises(ValueError, match="potential's squared norm overflows the float range"):
            OperatorSpec(0.0, pot)


def test_duplicate_harmonics_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_potential(0.0, [(1, 1.0, 0.0), (1, 0.0, 1.0)])


def test_zero_potential_cannot_be_normalized():
    with pytest.raises(ValueError, match="normalize"):
        build_potential(0.0, [], normalize=True)


def test_evaluate_constant():
    spec = build_potential(1.0)
    assert evaluate(spec, math.pi / 3) == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-12)


def test_evaluate_cosine_at_zero():
    spec = build_potential(0.0, [(1, 1.0, 0.0)])
    assert evaluate(spec, 0.0) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)


def test_evaluate_sine_at_quarter():
    spec = build_potential(0.0, [(1, 0.0, 1.0)])
    assert evaluate(spec, math.pi / 4) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)


def test_evaluate_rejects_outside_domain():
    spec = build_potential(1.0)
    with pytest.raises(ValueError):
        evaluate(spec, -0.1)
    with pytest.raises(ValueError):
        evaluate(spec, math.pi + 0.1)


def test_parseval_against_quadrature(rng):
    # ||v||^2 from coefficients equals the integral of v^2 for K <= 16
    for _ in range(5):
        ks = sorted(rng.choice(np.arange(1, 17), size=6, replace=False))
        spec = build_potential(
            float(rng.uniform(-1, 1)),
            [(int(k), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for k in ks],
        )
        integral = quad_oracle(lambda x: evaluate(spec, x) ** 2, 0.0, math.pi).real
        assert integral == pytest.approx(spec.norm_sq, abs=1e-10)


class TestCompanions:
    def test_zero_potential_odd_probe(self):
        w, _ = companions(build_potential(0.0), 1)
        assert w.coefficient(1) == (0.0, pytest.approx(-SQRT_PI_HALF, abs=1e-15))

    def test_zero_potential_even_probe(self):
        _, what = companions(build_potential(0.0), 2)
        assert what.coefficient(1)[0] == pytest.approx(SQRT_PI_HALF, abs=1e-15)
        assert what.coefficient(2)[0] == pytest.approx(SQRT_PI_HALF / 4.0, abs=1e-15)
        assert what.c0 == pytest.approx(math.pi ** 2.5 / 12.0, abs=1e-15)

    def test_exact_cancellation(self):
        w, _ = companions(build_potential(0.0, [(1, 0.0, SQRT_PI_HALF)]), 1)
        assert w.coefficient(1) == (0.0, pytest.approx(0.0, abs=1e-16))

    @pytest.mark.parametrize("order", [0, 1, 8, 128])
    def test_probe_coefficients_are_what_companions_add(self, order):
        w, what = companions(build_potential(0.0), order)
        odd, even = probe_coefficients(order)
        assert odd.tolist() == [w.coefficient(k)[1] for k in range(order + 1)]
        assert even.tolist() == [what.coefficient(k)[0] for k in range(order + 1)]

    def test_truncation_below_order_rejected(self):
        with pytest.raises(ValueError):
            companions(build_potential(0.0, [(3, 1.0, 0.0)]), 2)

    def test_affine_linearity(self, rng):
        # companions(v1+v2) - companions(v1) - companions(v2) + companions(0) = 0
        v1 = build_potential(0.2, [(1, 0.3, -0.4), (3, 0.1, 0.2)])
        v2 = build_potential(-0.5, [(2, 0.6, 0.1), (3, -0.2, 0.5)])
        vsum = build_potential(
            v1.c0 + v2.c0,
            [
                (k, v1.coefficient(k)[0] + v2.coefficient(k)[0],
                 v1.coefficient(k)[1] + v2.coefficient(k)[1])
                for k in (1, 2, 3)
            ],
        )
        zero = build_potential(0.0)
        for idx in (0, 1):
            a = companions(vsum, 8)[idx]
            b1 = companions(v1, 8)[idx]
            b2 = companions(v2, 8)[idx]
            z = companions(zero, 8)[idx]
            assert a.c0 - b1.c0 - b2.c0 + z.c0 == pytest.approx(0.0, abs=1e-14)
            for k in range(1, 9):
                for comp in (0, 1):
                    resid = (
                        a.coefficient(k)[comp]
                        - b1.coefficient(k)[comp]
                        - b2.coefficient(k)[comp]
                        + z.coefficient(k)[comp]
                    )
                    assert resid == pytest.approx(0.0, abs=1e-14)

    def test_even_probe_pointwise(self):
        # companion minus potential converges uniformly to (x - pi/2)^2:
        # the cosine tail is summable, bounded by sum_{k>K} 1/k^2 ~ 1/K
        v = build_potential(0.4, [(2, 0.3, -0.1)])
        _, what = companions(v, 128)
        xs = np.linspace(0.0, math.pi, 201)
        diff = evaluate(what, xs) - evaluate(v, xs)
        assert np.max(np.abs(diff - (xs - math.pi / 2.0) ** 2)) < 1e-2

    def test_odd_probe_pointwise_interior(self):
        # the sine tail converges only pointwise; check interior points
        v = build_potential(0.4, [(2, 0.3, -0.1)])
        w, _ = companions(v, 128)
        xs = np.linspace(0.8, math.pi - 0.8, 101)
        diff = evaluate(w, xs) - evaluate(v, xs)
        assert np.max(np.abs(diff - (xs - math.pi / 2.0))) < 1e-2


@settings(max_examples=30, deadline=None)
@given(
    c0=st.floats(-2, 2),
    coeffs=st.lists(
        st.tuples(st.floats(-2, 2), st.floats(-2, 2)), min_size=1, max_size=6
    ),
)
def test_normalize_property(c0, coeffs):
    pairs = [(k + 1, c, s) for k, (c, s) in enumerate(coeffs)]
    total = c0 * c0 + sum(c * c + s * s for _, c, s in pairs)
    if total < 1e-12:
        return
    spec = build_potential(c0, pairs, normalize=True)
    assert spec.norm_sq == pytest.approx(1.0, abs=1e-12)


def test_json_round_trip():
    spec = build_potential(0.6, [(1, 0.64, 0.48), (4, -0.2, 0.0)])
    assert PotentialSpec.from_dict(spec.to_dict()) == spec
    op = OperatorSpec(-2.5, spec)
    assert OperatorSpec.from_dict(op.to_dict()) == op


@pytest.mark.parametrize("K", [3, 5, 0])
def test_from_dict_rejects_mismatched_order(K):
    # K is derived from the terms; a record that states another is rejected
    record = build_potential(0.6, [(1, 0.64, 0.48), (4, -0.2, 0.0)]).to_dict()
    assert record["K"] == 4
    record["K"] = K
    with pytest.raises(ValueError, match=rf"K={K} does not match largest harmonic present \(4\)"):
        PotentialSpec.from_dict(record)


@pytest.mark.parametrize(
    "terms, K",
    [
        ([{"c": 1.0, "s": 0.0}], 1),
        ([{"k": 1, "c": 1.0, "s": None}], 1),
        (5, 1),
        # int() would truncate either to 1
        ([{"k": 1.9, "c": 1.0, "s": 0.0}], 1),
        ([{"k": 1, "c": 1.0, "s": 0.0}], 1.7),
    ],
    ids=["missing-index", "null-coefficient", "not-a-list", "fractional-index", "fractional-order"],
)
def test_from_dict_rejects_malformed_terms(terms, K):
    with pytest.raises(ValueError, match="malformed potential record"):
        PotentialSpec.from_dict({"c0": 1.0, "terms": terms, "K": K})


def test_from_dict_takes_integral_floats():
    record = {"c0": 0.6, "terms": [{"k": 2.0, "c": 0.8, "s": 0.0}], "K": 2.0}
    assert PotentialSpec.from_dict(record) == build_potential(0.6, [(2, 0.8, 0.0)])

