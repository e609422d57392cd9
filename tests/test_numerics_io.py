import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_csv

from rankonespec.io import dumps_canonical, write_csv
from rankonespec.numerics import one_minus_exp


def _expm1_exact(z: complex) -> complex:
    """e**z - 1 from its Taylor series in exact rational arithmetic, |z| <= 1."""
    x, y = Fraction(z.real), Fraction(z.imag)
    term_re, term_im = Fraction(1), Fraction(0)
    total_re, total_im = Fraction(0), Fraction(0)
    for n in range(1, 40):
        term_re, term_im = (term_re * x - term_im * y) / n, (term_re * y + term_im * x) / n
        total_re += term_re
        total_im += term_im
    return complex(float(total_re), float(total_im))


class TestStableExponentials:
    def test_one_minus_exp_far(self):
        assert one_minus_exp(2.0) == pytest.approx(1.0 - math.e ** 2, rel=1e-15)

    def test_one_minus_exp_tiny(self):
        z = 1e-9 + 1e-10j
        assert one_minus_exp(z) == pytest.approx(-z - z * z / 2.0, rel=1e-14)

    def test_vectorized_matches_scalar(self):
        zs = np.array([0.0, 1e-8, 0.3 + 0.2j, -4.0])
        vec = one_minus_exp(zs)
        for z, v in zip(zs, vec):
            assert one_minus_exp(z) == pytest.approx(v, rel=1e-15)

    @pytest.mark.parametrize(
        "z", [1e-9j, -0.49j, 0.5, -0.5, 0.5j, 0.3 + 0.4j, -0.4 - 0.3j, 0.2 + 0.4j]
    )
    def test_relative_accuracy_near_zero(self, z):
        exact = _expm1_exact(z)
        assert abs(-one_minus_exp(z) - exact) <= 1e-15 * abs(exact)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_one_minus_exp_agrees_with_direct(self, re, im):
        z = complex(re, im)
        direct = 1.0 - np.exp(z)
        assert abs(one_minus_exp(z) - direct) <= 1e-12 * max(1.0, abs(direct))


class TestCanonicalJson:
    def test_round_trips_doubles(self):
        values = [0.1, 1 / 3, math.pi, 1e-300, -2.5e17]
        text = dumps_canonical({"v": values})
        assert json.loads(text)["v"] == values

    def test_integral_floats_keep_point(self):
        assert dumps_canonical(4.0) == "4.0\n"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps_canonical(float("nan"))

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps_canonical({"x": object()})


class TestCsv:
    FLOATS = [
        (-0.0, 5e-324, 1e16, 1e17, 3.0, float("nan"), np.float64(0.1)),
        (0.0, -5e-324, -1e16, -1e17, -2.0, float("inf"), np.float64(-0.0)),
        (1e-300, 2.5e-308, 9007199254740993.0, 1e300, 1e15, float("-inf"), np.float64(1e17)),
    ]

    @pytest.mark.parametrize(
        "header, rows",
        [
            (list("abcdefg"), FLOATS),
            # a first row that is not all floats selects per-value formatting,
            # so any later row may mix types
            (
                list("abcd"),
                [
                    (7, "x", -0.0, 1e16),
                    (0.1, 2, "y z", 1e17),
                    (-(10 ** 20), "", 5e-324, 4.0),
                    (float("nan"), 3.0, np.float64(1.5), "w"),
                ],
            ),
            (["x"], [(0.1,), (1 / 3,), (-1e-17,)]),
            (["x", "y"], []),
        ],
    )
    def test_bytes_match_per_value_formatting(self, tmp_path, header, rows):
        path = tmp_path / "out.csv"
        write_csv(path, header, iter(rows))
        assert path.read_bytes() == reference_csv(header, rows).encode()

    @pytest.mark.parametrize("bad", [(1.0, "x"), (1.0,), (1.0, 2.0, 3.0)])
    def test_float_rows_reject_a_str_or_a_ragged_row(self, tmp_path, bad):
        with pytest.raises(TypeError):
            write_csv(tmp_path / "out.csv", ["a", "b"], [(0.5, 0.25), bad])
