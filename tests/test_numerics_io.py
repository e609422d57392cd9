import json
import math
import re
import warnings
from collections import Counter, OrderedDict, namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_csv

from rankonespec import numerics
from rankonespec.errors import ConvergenceError
from rankonespec.io import dumps_canonical, write_csv
from rankonespec.numerics import one_minus_exp, secular_equation_roots
from rankonespec.spectrum import SpectrumClass

EPS = float(np.finfo(float).eps)


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


def reference_secular_roots(poles, x, max_steps=numerics._MAX_STEPS):
    """Reference: the solver as one loop body over fancy-indexed live roots,
    every branch formed for every root on every step, the origins from its
    own evaluation of q at the gap midpoints, and the pole offsets stored as
    one matrix. The package's solver, which forms its gaps afresh at every
    evaluation, must return the same bits."""
    n = len(poles)
    half = 0.5 * np.diff(poles)
    mid = poles[:-1] + half
    upper = 1.0 + np.sum(x / (poles - mid[:, None]), axis=1) < 0.0
    total = float(np.sum(x))
    gap = np.arange(len(half))
    origin = np.append(gap + upper, n - 1)
    other = np.append(gap + ~upper, max(n - 2, 0))
    tau = np.append(np.where(upper, -half, half), total)
    lo = np.append(np.where(upper, -half, 0.0), 0.0)
    hi = np.append(np.where(upper, 0.0, half), 2.0 * total)
    offsets = poles - poles[origin][:, None]
    exterior = np.arange(n) == n - 1
    live = np.arange(n)
    for _ in range(max_steps):
        t = tau[live]
        gaps = offsets[live] - t[:, None]
        terms = x / gaps
        w = 1.0 + np.sum(terms, axis=1)
        dw = np.sum(terms / gaps, axis=1)
        lo[live] = np.where(w < 0.0, t, lo[live])
        hi[live] = np.where(w > 0.0, t, hi[live])
        # the two-pole model's root
        d_other, x_origin = offsets[live, other[live]], x[origin[live]]
        g = d_other - t
        s_other = g * g * (dw - x_origin / (t * t))
        c = w + x_origin / t - s_other / g
        a = c * d_other + x_origin + s_other
        b = x_origin * d_other
        side = np.where(exterior[live], 1.0, -1.0)
        root = np.sqrt(np.abs(a * a - 4.0 * b * c))
        far = a * side >= 0.0
        linear = far & (c == 0.0)
        num = np.where(linear, b, np.where(far, a + side * root, 2.0 * b))
        den = np.where(linear, a, np.where(far, 2.0 * c, a - side * root))
        step = num / np.where(den == 0.0, np.nan, den)
        step = np.where(w * (step - t) > 0.0, t - w / dw, step)
        lo_t, hi_t = lo[live], hi[live]
        inside = (lo_t < step) & (step < hi_t)
        span = lo_t * hi_t
        geometric = np.sqrt(np.abs(span))
        mid = np.where(span > 0.0, np.where(hi_t > 0.0, geometric, -geometric), 0.5 * (lo_t + hi_t))
        step = np.where(inside, step, mid)
        quiet = np.abs(w) <= EPS * (n + 2) * (1.0 + np.sum(np.abs(terms), axis=1))
        step = np.where(quiet & ~inside, t, step)
        # a finished root takes the Newton step from this evaluation
        done = quiet | (np.abs(step - t) <= EPS * np.abs(step))
        tau[live] = np.where(done, t - w / dw, step)
        live = live[~done]
        if live.size == 0:
            break
    else:
        raise ConvergenceError(f"secular solve: {live.size} roots not converged in {max_steps} steps")
    z = poles[origin] + tau
    upper = np.append(poles[1:], np.inf)
    return np.clip(z, np.nextafter(poles, np.inf), np.nextafter(upper, -np.inf))


def _secular_problem(rng):
    """Ascending poles of a secular solve (the levels 4k^2 for positive
    coupling, -4k^2 mirrored for negative) with weights: K <= 40, |alpha|
    in [1e-8, 1e8] and norms in [1e-13, 1], both log-uniform."""
    order = int(rng.integers(0, 41))
    levels = np.sort(rng.choice(order + 1, size=int(rng.integers(1, order + 2)), replace=False))
    x = 10.0 ** rng.uniform(-8.0, 8.0) * 10.0 ** rng.uniform(-13.0, 0.0, size=levels.size)
    poles = 4.0 * levels.astype(float) ** 2
    if rng.random() < 0.5:
        poles, x = -poles[::-1], x[::-1]
    return poles, x


EXTREME_COUPLINGS = [1e200, -1e200, 1e300, -1e300, 1e308, -1e308, 1e-300, -1e-300]


def _extreme_problem(alpha):
    """A 3-level unit-norm potential's poles and weights at coupling alpha."""
    poles, x = np.array([0.0, 4.0, 36.0]), abs(alpha) * np.array([0.2, 0.3, 0.5])
    if alpha < 0.0:
        poles, x = -poles[::-1], x[::-1]
    return poles, x


class TestSecularSolverReference:
    def test_bit_identical_roots(self):
        rng = np.random.default_rng(20261018)
        sizes = set()
        for _ in range(2000):
            poles, x = _secular_problem(rng)
            got = secular_equation_roots(poles, x)
            assert got.tobytes() == reference_secular_roots(poles, x).tobytes(), (poles, x)
            sizes.add(len(poles))
        assert {1, 2, 41} <= sizes

    def test_every_evaluation_makes_one_step(self, monkeypatch):
        # one step per evaluation of the batched route, except a final
        # evaluation at which every live root is quiet: each root's Newton
        # polish reuses the evaluation it finished on, so a step from that
        # one would never be read
        events = []
        secular_eval, model_roots = numerics.secular_eval, numerics._model_roots

        def evaluation(*args):
            w, dw, rounding = secular_eval(*args)
            events.append("E" if np.all(np.abs(w) <= rounding) else "e")
            return w, dw, rounding

        def step(*args):
            events.append("m")
            return model_roots(*args)

        monkeypatch.setattr(numerics, "secular_eval", evaluation)
        monkeypatch.setattr(numerics, "_model_roots", step)
        rng = np.random.default_rng(20261020)
        endings = Counter()
        for _ in range(300):
            events.clear()
            numerics._batched_roots(*_secular_problem(rng))
            trail = "".join(events)
            assert re.fullmatch(r"(em)*E?", trail), trail
            endings[trail[-1]] += 1
        assert endings["E"] > 0, endings

    def test_linear_model_root(self):
        # the exterior root's first model has c == 0, a linear model whose
        # one root is b/a; the roots of q are those of
        # z^2 - (4 + x0 + x1) z + 4 x0
        mpmath = pytest.importorskip("mpmath")
        poles = np.array([0.0, 4.0])
        x = np.array([1.0459752011547161e-16, 2.9740723900431203e-16])
        got = secular_equation_roots(poles, x)
        assert got.tobytes() == reference_secular_roots(poles, x).tobytes()
        with mpmath.workdps(50):
            x0, x1 = mpmath.mpf(x[0]), mpmath.mpf(x[1])
            b, c = 4 + x0 + x1, 4 * x0
            top = (b + mpmath.sqrt(b * b - 4 * c)) / 2
            for z, exact in zip(got, (c / top, top)):
                assert abs(mpmath.mpf(float(z)) - exact) <= np.spacing(float(exact)), (z, exact)

    def test_quiet_root_whose_step_leaves_its_bracket(self):
        # the root next to the pole 0 is quiet on a step whose model root
        # falls outside its bracket: it retires with the Newton step from
        # that evaluation, whatever its model step was (about one table in a
        # thousand of the draws above has such a root)
        poles = np.array([0.0, 36.0, 64.0, 400.0, 1024.0, 3136.0])
        x = np.array([1.0099179685000886e-17, 1.222238089420998e-12, 9.58684904033303e-06,
                      5.13190364968626e-15, 2.2370586829232365e-10, 1.5262957111215282e-12])
        got = secular_equation_roots(poles, x)
        assert got.tobytes() == reference_secular_roots(poles, x).tobytes()

    @pytest.mark.parametrize("alpha", EXTREME_COUPLINGS)
    def test_extreme_coupling_warns_nothing(self, alpha):
        # the model's products overflow from |alpha| ~ 1e200 and its
        # quotients divide by zero below ~ 1e-200, on the way to finite roots
        poles, x = _extreme_problem(alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = secular_equation_roots(poles, x)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            assert got.tobytes() == reference_secular_roots(poles, x).tobytes()
        assert np.all(np.isfinite(got))
        assert np.all(poles < got) and np.all(got[:-1] < poles[1:])

    def test_secular_eval(self):
        # q, q' and the rounding bound from the gaps p_k - z: the direct sums
        poles, x = np.array([0.0, 4.0, 16.0]), np.array([0.5, 0.25, 2.0])
        gaps = poles - np.array([-1.0, 2.5, 9.0])[:, None]
        q, dq, rounding = numerics.secular_eval(gaps, x)
        assert np.allclose(q, 1.0 + (x / gaps).sum(axis=1), rtol=1e-15, atol=0.0)
        assert np.allclose(dq, (x / gaps ** 2).sum(axis=1), rtol=1e-15, atol=0.0)
        assert np.array_equal(rounding, 5 * EPS * (1.0 + np.abs(x / gaps).sum(axis=1)))

    @pytest.mark.parametrize("cap", [1, 2, 3, 4])
    def test_step_cap_matches(self, monkeypatch, cap):
        monkeypatch.setattr(numerics, "_MAX_STEPS", cap)
        rng = np.random.default_rng(cap)
        raised = 0
        for _ in range(60):
            poles, x = _secular_problem(rng)
            try:
                want = reference_secular_roots(poles, x, max_steps=cap)
            except ConvergenceError as exc:
                raised += 1
                with pytest.raises(ConvergenceError, match=f"^{exc}$"):
                    secular_equation_roots(poles, x)
            else:
                assert secular_equation_roots(poles, x).tobytes() == want.tobytes()
        assert 0 < raised < 60


def _left_to_right(terms):
    total = terms[0]
    for term in terms[1:]:
        total += term
    return total


class TestFewPoleRoute:
    """Below numerics._FEW_POLES poles each root iterates in Python floats;
    its roots are the batched route's, byte for byte."""

    def test_add_reduce_sums_fewer_than_eight_terms_left_to_right(self):
        # the route's premise: secular_eval's sums over rows of fewer than
        # _FEW_POLES terms, one row or many, are the left-to-right sums; the
        # rows span 16 decades, so another order would change some of them
        rng = np.random.default_rng(8)
        for n in range(1, numerics._FEW_POLES):
            rows = rng.standard_normal((200, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (200, n))
            want = [_left_to_right(row) for row in rows.tolist()]
            assert np.add.reduce(rows, axis=-1).tolist() == want, n
            assert [np.add.reduce(rows[i:i + 1], axis=-1)[0] for i in range(len(rows))] == want, n
            if n >= 3:
                assert want != [_left_to_right(row[::-1]) for row in rows.tolist()], n

    def test_matches_the_batched_route(self):
        rng = np.random.default_rng(20261021)
        drawn = 0
        for _ in range(2000):
            poles, x = _secular_problem(rng)
            if len(poles) >= numerics._FEW_POLES:
                continue
            drawn += 1
            got = numerics._few_pole_roots(poles, x)
            assert got is not None, (poles, x)
            assert got.tobytes() == numerics._batched_roots(poles, x).tobytes(), (poles, x)
        assert drawn > 500

    def test_extreme_couplings_match_or_hand_over(self):
        # Python raises on the division by zero that numpy carries as inf
        # at |alpha| = 1e-300; the batched route then solves the problem
        handed = []
        for alpha in EXTREME_COUPLINGS:
            poles, x = _extreme_problem(alpha)
            got, want = numerics._few_pole_roots(poles, x), numerics._batched_roots(poles, x)
            if got is None:
                handed.append(alpha)
            else:
                assert got.tobytes() == want.tobytes(), alpha
            assert secular_equation_roots(poles, x).tobytes() == want.tobytes(), alpha
        assert handed == [1e-300, -1e-300]

    @pytest.mark.parametrize("cap", [1, 2, 3, 4])
    def test_step_cap_hands_over(self, monkeypatch, cap):
        # a root not done in _MAX_STEPS steps hands the problem over, so the
        # batched route raises its own ConvergenceError
        monkeypatch.setattr(numerics, "_MAX_STEPS", cap)
        rng = np.random.default_rng(100 + cap)
        raised = drawn = 0
        for _ in range(200):
            poles, x = _secular_problem(rng)
            if len(poles) >= numerics._FEW_POLES:
                continue
            drawn += 1
            got = numerics._few_pole_roots(poles, x)
            try:
                want = numerics._batched_roots(poles, x)
            except ConvergenceError:
                raised += 1
                assert got is None
            else:
                assert got.tobytes() == want.tobytes()
        assert 0 < raised < drawn

    def test_few_poles_take_the_route(self, monkeypatch):
        batched = []
        solve = numerics._batched_roots

        def spy(poles, x):
            batched.append(len(poles))
            return solve(poles, x)

        monkeypatch.setattr(numerics, "_batched_roots", spy)
        rng = np.random.default_rng(20261022)
        sizes = [len(secular_equation_roots(*_secular_problem(rng))) for _ in range(300)]
        assert min(sizes) < numerics._FEW_POLES <= max(sizes)
        assert sorted(batched) == sorted(n for n in sizes if n >= numerics._FEW_POLES)


def reference_format_value(obj) -> str:
    """Reference: the canonical JSON writer with a json.dumps per string and
    per key. dumps_canonical must write the same text."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float in output: {obj!r}")
        if obj == int(obj) and abs(obj) < 1e16:
            return f"{obj:.1f}"
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(reference_format_value(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {reference_format_value(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


class _Text(str):
    def __str__(self):
        return "shadowed"


class _Level(int):
    pass


_Pair = namedtuple("_Pair", "x tag")


ADVERSARIAL = {
    "caf\u00e9 \u2192 \U0001d11e": "na\u00efve \u6f22\u5b57 \U0001f600",
    'quote " and \\ backslash': 'a "b" \\c\\ /d/',
    "ctrl \x00\x01\x1f\x7f\t\n\r\b\f": "\x00\u2028\u2029\ud800",
    "": "",
    _Text("sub"): _Text("value"),
    "numbers": [np.float64(0.1), np.float64(-0.0), np.float64(3.0), -0.0, 0.0, 1e16, -1e16,
                9999999999999998.0, 1e17, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                0.1, 1 / 3, 2.0 ** 53 + 2, 123456789.0],
    "ints": [True, False, 0, 1, -1, 10 ** 30, _Level(7), None],
    "nested": ((1, (2.5, ("x", (None, [])))), {}, [], ()),
    7: {3.5: "float key", None: "none key", True: "bool key", (1, 2): "tuple key"},
    SpectrumClass.SECULAR: [SpectrumClass.REDUCED, OrderedDict([("b", 1), ("a", 2.0)]), _Pair(0.5, "p")],
}
PAYLOADS = [ADVERSARIAL, *ADVERSARIAL.values(), list(ADVERSARIAL)]


class TestCanonicalJson:
    @pytest.mark.parametrize("payload", PAYLOADS, ids=[f"payload{i}" for i in range(len(PAYLOADS))])
    def test_bytes_match_reference(self, payload):
        assert dumps_canonical(payload) == reference_format_value(payload) + "\n"

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), [1.0, {"a": -np.inf}], np.float64("nan"), object(), {1, 2},
         b"bytes", np.int64(3), np.bool_(True), np.float32(0.5), {"x": [1, object()]}],
    )
    def test_errors_match_reference(self, bad):
        with pytest.raises(Exception) as want:
            reference_format_value(bad)
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            dumps_canonical(bad)

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
            (["x"], [(0.1,), (1 / 3,), (-1e-17,)]),
            (["x", "y"], []),
        ],
    )
    def test_bytes_match_per_value_formatting(self, tmp_path, header, rows):
        path = tmp_path / "out.csv"
        write_csv(path, header, iter(rows))
        assert path.read_bytes() == reference_csv(header, rows).encode()

    @pytest.mark.parametrize(
        "bad",
        [
            [(0.5, 0.25), (1.0, "x")],
            [(0.5, 0.25), (1.0,)],
            [(0.5, 0.25), (1.0, 2.0, 3.0)],
            # the format follows the header, whatever the first row holds
            [(1.0, "x"), (0.5, 0.25)],
            [(1.0, 2.0, 3.0)],
            [(1.0,)],
        ],
    )
    def test_float_rows_reject_a_str_or_a_ragged_row(self, tmp_path, bad):
        with pytest.raises(TypeError):
            write_csv(tmp_path / "out.csv", ["a", "b"], bad)
