import copy
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankonespec import charfn
from rankonespec import numerics
from rankonespec.errors import ConvergenceError, DegenerateOperatorError, MalformedSpectrumError
from rankonespec.io import dumps_canonical
from rankonespec.potential import OperatorSpec, build_potential, evaluate
from rankonespec.recovery import SpectralData, check_admissibility, weights_from_spectrum
from rankonespec.spectrum import (
    ClassifiedSpectrum,
    SpectrumClass,
    SpectrumEntry,
    WeightTable,
    classify_spectrum,
    eigenfunctions,
    level_multiplicity,
    level_value,
    nearest_level,
    secular_roots,
    weight_table,
)

from conftest import quad_rule, random_operator

PI = math.pi
EPS = float(np.finfo(float).eps)
CONST = build_potential(1.0)
COS2 = build_potential(0.0, [(1, 1.0, 0.0)])

# frozen two-level secular roots: z^2 - 5z + 2 = 0
ROOT_LO = 0.4384471871911697
ROOT_HI = 4.561552812808831


def entries_as_tuples(cs):
    return [(e.z, e.multiplicity, e.tag) for e in cs.entries]


class TestLevels:
    def test_values_and_multiplicities(self):
        assert [level_value(k) for k in range(4)] == [0.0, 4.0, 16.0, 36.0]
        assert [level_multiplicity(k) for k in range(3)] == [1, 2, 2]

    def test_nearest_level(self):
        assert [nearest_level(z) for z in (-3.0, -0.0, 0.0, 0.9, 1.1, 4.0, 8.9, 9.1)] == [
            0, 0, 0, 0, 1, 1, 1, 2
        ]

    def test_separability_gap(self):
        gaps = np.diff([level_value(k) for k in range(50)])
        assert np.all(gaps >= 4.0)


class TestWeightTable:
    def test_constant_potential(self):
        t = weight_table(OperatorSpec(1.0, CONST))
        assert t.weights == {0: 1.0}
        assert t.active == (0,)

    def test_two_level_split(self):
        v = build_potential(1 / math.sqrt(2), [(1, 1 / math.sqrt(2), 0.0)])
        t = weight_table(OperatorSpec(1.0, v))
        assert t.weights[0] == pytest.approx(0.5)
        assert t.weights[1] == pytest.approx(0.5)
        assert t.active == (0, 1)

    def test_coupling_scales_weights(self):
        t = weight_table(OperatorSpec(2.0, build_potential(0.0, [(1, 0.6, 0.8)])))
        assert t.weights[1] == pytest.approx(2.0)

    def test_norms_sum_to_potential_norm(self, rng):
        op = random_operator(rng)
        t = weight_table(op)
        assert sum(t.weights.values()) / op.alpha == pytest.approx(op.potential.norm_sq, abs=1e-12)


class TestSecularRoots:
    def test_single_level(self):
        t = weight_table(OperatorSpec(1.0, CONST))
        assert secular_roots(t, 40.0) == [pytest.approx(1.0, abs=1e-12)]

    def test_two_level_surds(self):
        v = build_potential(1 / math.sqrt(2), [(1, 1 / math.sqrt(2), 0.0)])
        roots = secular_roots(weight_table(OperatorSpec(1.0, v)), 40.0)
        assert roots == [pytest.approx(ROOT_LO, abs=1e-11), pytest.approx(ROOT_HI, abs=1e-11)]

    def test_negative_coupling_root_below(self):
        t = weight_table(OperatorSpec(-1.0, CONST))
        assert secular_roots(t, 40.0) == [pytest.approx(-1.0, abs=1e-12)]

    def test_degenerate_zero_potential(self):
        t = weight_table(OperatorSpec(1.0, build_potential(0.0)))
        with pytest.raises(DegenerateOperatorError):
            secular_roots(t, 40.0)

    def test_degenerate_zero_coupling(self):
        t = weight_table(OperatorSpec(0.0, CONST))
        with pytest.raises(DegenerateOperatorError):
            secular_roots(t, 40.0)

    def test_window_below_poles_rejected(self):
        v = build_potential(0.0, [(3, 1.0, 0.0)])
        with pytest.raises(ValueError):
            secular_roots(weight_table(OperatorSpec(1.0, v)), 30.0)

    def test_interlacing_random(self, rng):
        # one root per gap; exterior root on the coupling-sign side
        for _ in range(10):
            op = random_operator(rng)
            t = weight_table(op)
            poles = [level_value(k) for k in t.active]
            roots = secular_roots(t, level_value(op.potential.K + 2))
            assert len(roots) == len(poles)
            if op.alpha > 0:
                bounds = poles + [math.inf]
                assert all(bounds[j] < roots[j] < bounds[j + 1] for j in range(len(roots)))
            else:
                bounds = [-math.inf] + poles
                assert all(bounds[j] < roots[j] < bounds[j + 1] for j in range(len(roots)))

    def test_recovered_table_gives_back_the_roots(self, rng):
        # a table recovered from a spectrum holds only the Loewner residues:
        # the coupling's sign comes from the weights, as for every table
        for _ in range(20):
            op = random_operator(rng, max_order=12)
            window = level_value(op.potential.K + 2)
            data = SpectralData.from_classified(classify_spectrum(op, window))
            table = weights_from_spectrum(data)
            roots = np.array(secular_roots(table, window))
            mus = np.array(data.mus)
            assert roots.shape == mus.shape
            assert np.all(np.abs(roots - mus) <= 8 * EPS * np.maximum(1.0, np.abs(mus)))

    def test_roots_are_on_char_zero_set(self, rng):
        # every secular root gives a zero of the perturbed characteristic
        # function at sqrt(z) (imaginary for negative z)
        for _ in range(5):
            op = random_operator(rng)
            roots = secular_roots(weight_table(op), 400.0)
            for z in roots:
                lam = math.sqrt(z) if z >= 0 else 1j * math.sqrt(-z)
                scale = max(1.0, abs(charfn.char_perturbed(op, lam + 0.1)))
                assert abs(charfn.char_perturbed(op, lam)) <= 1e-8 * scale


def _table(alpha, norms):
    levels = tuple(sorted(norms))
    return WeightTable(weights={k: alpha * norms[k] for k in levels}, active=levels)


def _draw_table(rng, max_order=12, decades=6.0, floor=-12.0):
    """Random active levels up to K <= max_order, |alpha| in
    [10^-decades, 10^decades] and level norms in [10^floor, 1], both
    log-uniform."""
    order = int(rng.integers(1, max_order + 1))
    levels = rng.choice(order + 1, size=int(rng.integers(1, order + 2)), replace=False)
    alpha = float(10.0 ** rng.uniform(-decades, decades)) * float(rng.choice([-1.0, 1.0]))
    norms = 10.0 ** rng.uniform(floor, 0.0, size=levels.size)
    return _table(alpha, {int(k): float(n) for k, n in zip(levels, norms)})


# the two tables whose roots lay farthest from the exact ones (258, 122
# and 18.5 ulp) in 8,000 draws of the wide class: alpha and level norms
_FARTHEST_ROOTS = (
    (-635083.0556390694, {0: 1.909564493417196e-09, 3: 2.0454154752084602e-11,
                          4: 3.0387504806686005e-10, 9: 0.0005107106517101572,
                          10: 1.365205794074562e-07}),
    (-922.2617875653673, {1: 7.380710032673612e-07, 2: 4.289886074760351e-09,
                          9: 0.3284382592506227, 11: 0.0005762216198109807,
                          13: 0.00024013138423207826, 15: 5.396438551459742e-13,
                          16: 4.898770106417657e-10, 20: 0.029424833457844825,
                          24: 6.937987221555814e-10, 25: 6.054309379027481e-09,
                          27: 9.228653885765028e-06, 29: 0.016695109829732987}),
)


def _reference_roots(table, mpmath):
    """Secular roots to 50 digits, one per bracket, by the Illinois variant
    of regula falsi on h = (z - lo)(hi - z) q(z) (h = (z - lo) q(z) for the
    exterior root), which is finite at the poles. Negative coupling, the
    weights' sign, is mirrored (z -> -z), as the roots are."""
    mp = mpmath.mp
    mp.dps = 50
    sign = _coupling_sign(table)
    levels = sorted(table.active, key=lambda k: sign * k)
    poles = [mp.mpf(sign * 4 * k * k) for k in levels]
    xs = [sign * mp.mpf(table.weights[k]) for k in levels]

    def q(z):
        return 1 + sum(x / (p - z) for p, x in zip(poles, xs))

    roots = []
    for j, lo in enumerate(poles):
        interior = j + 1 < len(poles)
        hi = poles[j + 1] if interior else lo + 2 * sum(xs)

        def h(t):
            return t * ((hi - lo - t) if interior else 1) * q(lo + t)

        a, b = mp.mpf(0), hi - lo
        fa = -xs[j] * (b if interior else 1)
        fb = xs[j + 1] * b if interior else h(b)
        side = 0
        for _ in range(500):
            m = (a * fb - b * fa) / (fb - fa)
            fm = h(m)
            if fm == 0:
                a = b = m
                break
            if fm < 0:
                a, fa = m, fm
                fb = fb / 2 if side < 0 else fb
                side = -1
            else:
                b, fb = m, fm
                fa = fa / 2 if side > 0 else fa
                side = 1
            if b - a <= mp.mpf(10) ** -45 * max(1, abs(lo + a)):
                break
        roots.append(sign * (lo + (a + b) / 2))
    return sorted(roots)


def _coupling_sign(table):
    """+1 or -1, the sign that every active weight of the table carries."""
    signs = {math.copysign(1, table.weights[k]) for k in table.active}
    assert len(signs) == 1
    return signs.pop()


def _assert_interlaced(table, roots):
    poles = [level_value(k) for k in table.active]
    assert len(roots) == len(poles)
    if _coupling_sign(table) > 0:
        bounds = poles + [math.inf]
    else:
        bounds = [-math.inf] + poles
    assert all(bounds[j] < roots[j] < bounds[j + 1] for j in range(len(roots)))


class TestSecularAccuracy:
    def test_within_eight_ulp_of_50_digit_roots(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20241018)
        checked = 0
        while checked < 200:
            table = _draw_table(rng)
            roots = secular_roots(table, math.inf)
            exact = _reference_roots(table, mpmath)
            for got, want in zip(roots, exact):
                ulp = float(np.spacing(abs(float(want))))
                assert abs(mpmath.mpf(got) - want) <= 8 * ulp, (table, got, want)
            checked += len(exact)

    def test_within_eight_ulp_and_the_rounding_reach_on_the_wide_class(self):
        # K <= 40, |alpha| in [1e-8, 1e8] and norms down to 1e-13: a root
        # where q' is small, next to level 0 under negative coupling, can be
        # hundreds of ulp off, but never farther than q's rounding bound
        # moves it, rounding / |q'| at the returned root
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20261020)
        tables = [_draw_table(rng, max_order=40, decades=8.0, floor=-13.0) for _ in range(60)]
        tables += [_table(alpha, norms) for alpha, norms in _FARTHEST_ROOTS]
        for table in tables:
            poles = np.array([level_value(k) for k in table.active])
            x = np.array([table.weights[k] for k in table.active])
            exact = _reference_roots(table, mpmath)
            for got, want in zip(secular_roots(table, math.inf), exact):
                q, dq, rounding = numerics.secular_eval(poles - got, x)
                bound = 8 * float(np.spacing(abs(float(want)))) + float(rounding / abs(dq))
                assert abs(mpmath.mpf(got) - want) <= bound, (table, got, want)

    def test_root_next_to_its_pole_keeps_its_offset(self):
        # a tiny weight X_3 puts the root a few ulp above 36, at the offset
        # X_3 / (1 + sum of the other terms at 36) up to O(offset^2)
        alpha, norms = 4.03e-4, {0: 0.5, 3: 1.3e-10, 5: 0.5}
        root = secular_roots(_table(alpha, norms), math.inf)[1]
        offset = alpha * norms[3] / (1.0 - alpha * norms[0] / 36.0 + alpha * norms[5] / 64.0)
        assert abs(root - (36.0 + offset)) <= np.spacing(36.0)

    def test_offset_below_the_pole_ulp_stays_strictly_inside(self):
        table = _table(1e-6, {0: 0.5, 12: 1e-12, 13: 0.5})
        roots = secular_roots(table, math.inf)
        _assert_interlaced(table, roots)
        assert roots[1] == np.nextafter(576.0, np.inf)

    @pytest.mark.parametrize("alpha", [1.0, -1.0, 7.5])
    def test_single_pole_root_is_exact(self, alpha):
        # the exterior bracket's bound p + X is the root itself
        assert secular_roots(_table(alpha, {2: 1.0}), 100.0) == [16.0 + alpha]

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_STEPS", 1)
        with pytest.raises(ConvergenceError):
            secular_roots(_table(2.0, {0: 0.3, 1: 0.3, 4: 0.4}), 100.0)

    def test_weights_against_the_coupling_sign_rejected(self):
        # mixed signs, whatever the summed weight, and a zero beside a
        # nonzero weight
        for weights in ({0: 0.5, 1: -0.5}, {0: -0.5, 1: 0.25}, {0: 0.5, 1: 0.0}):
            table = WeightTable(weights=weights, active=(0, 1))
            with pytest.raises(ValueError, match="share the coupling's sign"):
                secular_roots(table, 40.0)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zero_active_weights_are_zero_coupling(self, zero):
        table = WeightTable(weights={0: zero, 1: zero, 2: 0.5}, active=(0, 1))
        with pytest.raises(DegenerateOperatorError, match="zero coupling"):
            secular_roots(table, 40.0)


@st.composite
def _tables(draw):
    order = draw(st.integers(1, 12))
    levels = draw(st.sets(st.integers(0, order), min_size=1))
    alpha = 10.0 ** draw(st.floats(-6.0, 6.0)) * draw(st.sampled_from([-1.0, 1.0]))
    norms = {k: 10.0 ** draw(st.floats(-12.0, 0.0)) for k in sorted(levels)}
    return _table(alpha, norms)


@settings(max_examples=60, deadline=None)
@given(table=_tables())
def test_roots_interlace_property(table):
    _assert_interlaced(table, secular_roots(table, math.inf))


class TestClassify:
    def test_constant_unit_coupling(self):
        cs = classify_spectrum(OperatorSpec(1.0, CONST), 40.0)
        assert entries_as_tuples(cs) == [
            (pytest.approx(1.0), 1, SpectrumClass.SECULAR),
            (4.0, 2, SpectrumClass.UNCHANGED),
            (16.0, 2, SpectrumClass.UNCHANGED),
            (36.0, 2, SpectrumClass.UNCHANGED),
        ]

    def test_triple_coincidence(self):
        cs = classify_spectrum(OperatorSpec(4.0, CONST), 40.0)
        assert entries_as_tuples(cs) == [
            (4.0, 3, SpectrumClass.COINCIDENT),
            (16.0, 2, SpectrumClass.UNCHANGED),
            (36.0, 2, SpectrumClass.UNCHANGED),
        ]

    def test_reduced_level(self):
        cs = classify_spectrum(OperatorSpec(0.5, COS2), 40.0)
        assert entries_as_tuples(cs) == [
            (0.0, 1, SpectrumClass.UNCHANGED),
            (4.0, 1, SpectrumClass.REDUCED),
            (pytest.approx(4.5), 1, SpectrumClass.SECULAR),
            (16.0, 2, SpectrumClass.UNCHANGED),
            (36.0, 2, SpectrumClass.UNCHANGED),
        ]

    def test_count_stability(self, rng):
        # eigenvalue count below the window matches the unperturbed count
        # (window chosen clear of both spectra and of root migration)
        window = 399.0
        for _ in range(8):
            op = random_operator(rng)
            cs = classify_spectrum(op, window)
            unperturbed = sum(
                level_multiplicity(k) for k in range(100) if level_value(k) <= window
            )
            assert sum(e.multiplicity for e in cs.entries) == unperturbed

    def test_root_beside_its_own_active_pole_stays_secular(self):
        # level 1 is active (norm 2.5e-13 > floor), so its root 4 + ~1e-13
        # is secular, not a coincidence, although within COINCIDENCE_TOL of 4
        op = OperatorSpec(1.0, build_potential(1.0, [(1, 5e-7, 0.0)]))
        head = entries_as_tuples(classify_spectrum(op, 40.0))[:3]
        assert [(m, tag) for _, m, tag in head] == [
            (1, SpectrumClass.SECULAR),
            (1, SpectrumClass.REDUCED),
            (1, SpectrumClass.SECULAR),
        ]
        assert 0.0 < head[2][0] - 4.0 < 1e-9

    def test_root_beside_a_level_past_the_window_stays_secular(self):
        # the root alpha lies within COINCIDENCE_TOL below 16, which is past
        # the window, so no listed level can take it
        alpha = 16.0 - 1e-10
        cs = classify_spectrum(OperatorSpec(alpha, CONST), 16.0 - 5e-11)
        assert entries_as_tuples(cs) == [
            (4.0, 2, SpectrumClass.UNCHANGED),
            (alpha, 1, SpectrumClass.SECULAR),
        ]

    @pytest.mark.parametrize("seed", [1000, 1001])
    def test_memory_is_three_matrices_of_the_solve(self, seed):
        # a dense unit-norm potential at K = 1024: one evaluation of q holds
        # three 1025 x 1025 float temporaries (24 MiB), and the solve keeps
        # nothing of that size between evaluations
        rng = np.random.default_rng(seed)
        alpha = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 5.0))
        c = rng.standard_normal(2 * 1024 + 1)
        c /= np.linalg.norm(c)
        pairs = [(k, float(c[2 * k - 1]), float(c[2 * k])) for k in range(1, 1025)]
        op = OperatorSpec(alpha, build_potential(float(c[0]), pairs))
        tracemalloc.start()
        try:
            classify_spectrum(op, level_value(1025))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 28 * 2**20, peak / 2**20

    def test_json_round_trip(self):
        cs = classify_spectrum(OperatorSpec(0.5, COS2), 40.0)
        assert ClassifiedSpectrum.from_dict(cs.to_dict()) == cs


# the classes by multiplicity, stated apart from the library's table
_CLASSES = {
    "off": {1: "secular"},
    "zero": {1: "unchanged", 2: "coincident"},
    "level": {1: "reduced", 2: "unchanged", 3: "coincident"},
}


def _place(z):
    k = nearest_level(z)
    if z != level_value(k):
        return "off"
    return "zero" if k == 0 else "level"


class TestSpectrumRecords:
    @pytest.mark.parametrize(
        "z, m, tag",
        [
            (-3.5, 1, "secular"),
            (4.5, 1, "secular"),
            (4.0 + 4.0 * EPS, 1, "secular"),
            (0.0, 1, "unchanged"),
            (0.0, 2, "coincident"),
            (4.0, 1, "reduced"),
            (16.0, 2, "unchanged"),
            (36.0, 3, "coincident"),
        ],
    )
    def test_class_follows_from_z_and_m(self, z, m, tag):
        assert SpectrumEntry(z, m).tag is SpectrumClass(tag)

    @pytest.mark.parametrize(
        "z, m",
        [(4.5, 2), (-1.0, 0), (0.0, 3), (4.0, 4), (16.0, -3), (math.nan, 1), (math.inf, 1)],
    )
    def test_no_class_rejected(self, z, m):
        with pytest.raises(MalformedSpectrumError):
            SpectrumEntry(z, m)

    def test_stored_tag_must_match(self):
        with pytest.raises(MalformedSpectrumError, match="reduced, not secular"):
            SpectrumEntry.from_dict({"z": 4.0, "m": 1, "tag": "secular"})

    @pytest.mark.parametrize(
        "window, entries, message",
        [
            (math.nan, [], "not finite"),
            (math.inf, [], "not finite"),
            (20.0, [(4.0, 2), (16.0, 2), (4.0, 2)], "z=4.0 twice"),
            (20.0, [(4.0, 2), (16.0, 2), (36.0, 2)], "beyond the spectrum window"),
            (20.0, [(4.0, 2)], "1 of the 2 levels"),
            # a window of 1e30 spans 5e14 levels: counted, never listed
            (1e30, [(4.0, 2)], "1 of the 500000000000000 levels"),
            # the message names the first z listed again
            (6.0, [(4.5, 1), (5.5, 1), (5.5, 1), (4.5, 1)], "z=4.5 twice"),
        ],
    )
    def test_incomplete_or_overfull_spectrum_rejected(self, window, entries, message):
        with pytest.raises(MalformedSpectrumError, match=message):
            ClassifiedSpectrum(tuple(SpectrumEntry(z, m) for z, m in entries), window)

    def test_repeat_in_a_long_spectrum_found_in_linear_time(self):
        # one pass over the entries: a count per entry would make 10^10
        # comparisons here
        entries = [SpectrumEntry(4.0 * k * k + 1.0, 1) for k in range(100_000)]
        entries.append(entries[-1])
        start = time.perf_counter()
        with pytest.raises(MalformedSpectrumError, match=f"z={entries[-1].z} twice"):
            ClassifiedSpectrum(tuple(entries), 1e12)
        assert time.perf_counter() - start < 3.0


@st.composite
def _classified(draw):
    """classify_spectrum on a sparse operator up to a window that holds every
    secular root: K <= 6, coefficients down to 1e-7, and in about every third
    draw a coupling that puts a secular root on an inactive level (a
    coincident entry)."""
    order = draw(st.integers(1, 6))
    levels = sorted(draw(st.sets(st.integers(0, order), min_size=1)) | {order})
    mag = st.floats(-7.0, 0.0).map(lambda e: 10.0 ** e)
    c0 = draw(mag) if 0 in levels else 0.0
    pot = build_potential(c0, [(k, draw(mag), draw(mag)) for k in levels if k > 0])
    alpha = draw(st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)) * draw(st.sampled_from([-1.0, 1.0]))
    inactive = [j for j in range(order + 2) if j not in levels]
    if inactive and draw(st.integers(0, 2)) == 0:
        # q(4j^2) = 0: 1 + alpha * sum_k n_k / (4k^2 - 4j^2) vanishes
        j = draw(st.sampled_from(inactive))
        tilt = sum(n / (level_value(k) - level_value(j)) for k, n in pot.level_norms().items() if n)
        assume(tilt != 0.0)
        alpha = -1.0 / tilt
    # the exterior root of a positive coupling lies below the top pole plus
    # alpha ||v||^2; a window beyond it holds every secular root
    reach = max(alpha, 0.0) * pot.norm_sq
    assume(reach < 1e4)
    window = level_value(order + 1) + reach + draw(st.floats(0.0, 30.0))
    op = OperatorSpec(alpha, pot)
    assume(weight_table(op).active)
    return classify_spectrum(op, window).to_dict()


def _verdict(record):
    """None when the record is admissible spectral data, else the reason."""
    try:
        cs = ClassifiedSpectrum.from_dict(record)
    except MalformedSpectrumError as exc:
        return str(exc)
    try:
        report = check_admissibility(SpectralData.from_classified(cs))
    except ValueError as exc:
        # a record cut below its exterior root is an input error
        return str(exc)
    return None if report.accepted else report.detail


@settings(max_examples=40, deadline=None)
@given(record=_classified(), data=st.data())
def test_classified_records_round_trip_and_mutants_are_rejected(record, data):
    text = dumps_canonical(record)
    assert dumps_canonical(ClassifiedSpectrum.from_dict(json.loads(text)).to_dict()) == text
    assert _verdict(record) is None
    entries = record["entries"]
    for e in entries:
        assert e["tag"] == _CLASSES[_place(e["z"])][e["m"]]
    i = data.draw(st.integers(0, len(entries) - 1))

    def mutant(change):
        out = copy.deepcopy(record)
        change(out["entries"])
        return out

    assert _verdict(mutant(lambda es: es.pop(i))) is not None
    assert _verdict(mutant(lambda es: es.append(dict(es[i])))) is not None
    classes = _CLASSES[_place(entries[i]["z"])]
    m = data.draw(st.sampled_from([m for m in range(-3, 6) if m not in classes]))
    assert _verdict(mutant(lambda es: es[i].update(m=m))) is not None
    secular = [e for e in entries if e["tag"] == "secular"]
    if secular:
        z = data.draw(st.sampled_from(secular))["z"]
        level = level_value(max(1, nearest_level(z)))
        for tag in ("secular", "reduced"):
            moved = mutant(lambda es: es[[e["z"] for e in es].index(z)].update(z=level, tag=tag))
            with pytest.raises(MalformedSpectrumError):
                ClassifiedSpectrum.from_dict(moved)


def stencil_residual(op, entry, u, z):
    """max |  -u'' + alpha <u,v> v - z u | with a 5-point second derivative."""
    h = PI / 2000.0
    xs = np.arange(0, 2001) * h
    ux = u(xs)
    upp = (-ux[4:] + 16 * ux[3:-1] - 30 * ux[2:-2] + 16 * ux[1:-3] - ux[:-4]) / (12 * h * h)
    qx, qw = quad_rule(0.0, PI)
    inner = float(np.sum(qw * u(qx) * evaluate(op.potential, qx)))
    vx = evaluate(op.potential, xs[2:-2])
    resid = -upp + op.alpha * inner * vx - z * ux[2:-2]
    return float(np.max(np.abs(resid)))


class TestEigenfunctions:
    def test_constant_mode_stays_constant(self):
        op = OperatorSpec(1.0, CONST)
        entry = classify_spectrum(op, 40.0).entries[0]
        u = eigenfunctions(op, entry)[0]
        xs = np.linspace(0.0, PI, 200)
        vals = u(xs)
        assert np.ptp(vals) < 1e-10
        assert vals[0] == pytest.approx(2.0 / math.sqrt(PI), abs=1e-12)

    def test_reduced_direction_orthogonal(self):
        # cos-only potential leaves the sine direction as the eigenfunction
        op = OperatorSpec(0.5, COS2)
        entry = [e for e in classify_spectrum(op, 40.0).entries if e.tag is SpectrumClass.REDUCED][0]
        u = eigenfunctions(op, entry)[0]
        xs = np.linspace(0.0, PI, 7)
        expect = -math.sqrt(2.0 / PI) * np.sin(2 * xs)
        assert np.max(np.abs(u(xs) - expect)) < 1e-12

    def test_unchanged_returns_basis_pair(self):
        op = OperatorSpec(0.5, COS2)
        entry = [e for e in classify_spectrum(op, 40.0).entries if e.z == 16.0][0]
        pair = eigenfunctions(op, entry)
        assert len(pair) == 2
        xs = np.linspace(0.0, PI, 5)
        assert np.allclose(pair[0](xs), math.sqrt(2 / PI) * np.cos(4 * xs))
        assert np.allclose(pair[1](xs), math.sqrt(2 / PI) * np.sin(4 * xs))

    def test_coincident_eigenspace_dimension(self):
        op = OperatorSpec(4.0, CONST)
        entry = classify_spectrum(op, 40.0).entries[0]
        fns = eigenfunctions(op, entry)
        assert len(fns) == 3
        # the extra vector solves the eigen-equation at z = 4
        assert stencil_residual(op, entry, fns[-1], 4.0) < 1e-7

    def test_residuals_and_boundary_conditions(self, rng):
        # order <= 3 keeps every active pole inside the window-40 region
        # where the 5-point stencil resolves u'' below the tolerance
        for _ in range(4):
            op = random_operator(rng, max_order=3)
            cs = classify_spectrum(op, 40.0)
            for entry in cs.entries:
                for u in eigenfunctions(op, entry):
                    assert stencil_residual(op, entry, u, entry.z) < 1e-7
                    assert abs(u(0.0) - u(PI)) < 1e-8
                    assert abs(u.derivative(0.0) - u.derivative(PI)) < 1e-8

    def test_normalization_flag(self):
        op = OperatorSpec(1.0, CONST)
        entry = classify_spectrum(op, 40.0).entries[0]
        u = eigenfunctions(op, entry, normalize=True)[0]
        qx, qw = quad_rule(0.0, PI)
        assert float(np.sum(qw * u(qx) ** 2)) == pytest.approx(1.0, abs=1e-12)

    def test_negative_eigenvalue_eigenfunction(self):
        # coupling -1 pushes a root to z = -1; the eigenfunction is real
        op = OperatorSpec(-1.0, CONST)
        entry = classify_spectrum(op, 40.0).entries[0]
        assert entry.z == pytest.approx(-1.0, abs=1e-12)
        u = eigenfunctions(op, entry)[0]
        assert stencil_residual(op, entry, u, entry.z) < 1e-7


def paper_integral(op, lam, x):
    """The paper's closed form at real lam by quadrature, value and
    derivative: u(x) = int_0^x cos(lam(pi/2 - x + t)) v(t) dt
    + int_x^pi cos(lam(pi/2 - t + x)) v(t) dt."""
    u = du = 0.0
    for lo, hi, phase, sign in ((0.0, x, PI / 2 - x, 1.0), (x, PI, PI / 2 + x, -1.0)):
        if hi > lo:
            t, w = quad_rule(lo, hi)
            arg = lam * (phase + sign * t)
            vt = evaluate(op.potential, t)
            u += float(np.sum(w * np.cos(arg) * vt))
            du += sign * lam * float(np.sum(w * np.sin(arg) * vt))
    return u, du


class TestEigenfunctionSeries:
    @pytest.mark.parametrize("alpha", [-1.0, -25.0, -100.0, -400.0, -3e5])
    def test_deep_negative_eigenvalue_normalized(self, alpha):
        # the constant potential's secular root is z = alpha; its normalised
        # eigenfunction is the constant 1/sqrt(pi) up to sign at any depth
        op = OperatorSpec(alpha, CONST)
        entry = classify_spectrum(op, 40.0).entries[0]
        assert entry.tag is SpectrumClass.SECULAR and entry.z < 0.0
        u = eigenfunctions(op, entry, normalize=True)[0]
        xs = np.linspace(0.0, PI, 50)
        vals = u(xs)
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(np.abs(vals) - 1.0 / math.sqrt(PI))) <= 1e-14
        assert np.max(np.abs(u.derivative(xs))) <= 1e-14

    def test_deep_negative_eigenvalue_unnormalized_overflows_loudly(self):
        op = OperatorSpec(-3e5, CONST)
        entry = classify_spectrum(op, 40.0).entries[0]
        with pytest.raises(OverflowError, match="normalize=True"):
            eigenfunctions(op, entry)

    def test_gram_matrix_is_identity(self, rng):
        ops = [random_operator(rng, max_order=6) for _ in range(12)]
        ops += [OperatorSpec(4.0, CONST), OperatorSpec(-25.0, ops[0].potential)]
        qx, qw = quad_rule(0.0, PI)
        signs = set()
        for op in ops:
            signs.add(op.alpha > 0)
            cs = classify_spectrum(op, 4.0 * (op.potential.K + 2) ** 2)
            fns = [u for e in cs.entries for u in eigenfunctions(op, e, normalize=True)]
            vals = np.array([u(qx) for u in fns])
            assert np.all(np.isfinite(vals))
            gram = (vals * qw) @ vals.T
            assert np.max(np.abs(gram - np.eye(len(fns)))) <= 1e-12
        assert signs == {True, False}

    def test_secular_series_matches_paper_integral(self, rng):
        xs = np.linspace(0.0, PI, 9)
        checked = 0
        for _ in range(8):
            op = random_operator(rng, max_order=6)
            for entry in classify_spectrum(op, 4.0 * (op.potential.K + 2) ** 2).entries:
                if entry.tag is not SpectrumClass.SECULAR or entry.z < 0.0:
                    continue
                u = eigenfunctions(op, entry)[0]
                ref = np.array([paper_integral(op, math.sqrt(entry.z), x) for x in xs])
                got = np.array([u(xs), u.derivative(xs)]).T
                # value and derivative, each relative to its own size
                err = np.max(np.abs(got - ref), axis=0) / np.max(np.abs(ref), axis=0)
                assert np.all(err <= 1e-12)
                checked += 1
        assert checked >= 20


class TestEigenfunctionRejection:
    def test_foreign_secular_entry_rejected(self):
        op = OperatorSpec(1.0, CONST)
        from rankonespec.spectrum import SpectrumEntry
        bogus = SpectrumEntry(z=2.5, multiplicity=1)
        with pytest.raises(ValueError, match="secular"):
            eigenfunctions(op, bogus)

    def test_active_level_cannot_be_unchanged(self):
        op = OperatorSpec(0.5, COS2)
        from rankonespec.spectrum import SpectrumEntry
        bogus = SpectrumEntry(z=4.0, multiplicity=2)
        with pytest.raises(ValueError):
            eigenfunctions(op, bogus)

    def test_coincidence_beside_a_near_floor_level_accepted(self):
        # level 1 carries a norm below the floor: inactive, yet a pole of the
        # unrestricted secular sum at the coincident z = 4
        op = OperatorSpec(4.0, build_potential(1.0, [(1, 3e-8, 0.0)]))
        entry = classify_spectrum(op, 40.0).entries[0]
        assert (entry.z, entry.multiplicity, entry.tag) == (4.0, 3, SpectrumClass.COINCIDENT)
        fns = eigenfunctions(op, entry)
        assert len(fns) == 3
        assert stencil_residual(op, entry, fns[-1], 4.0) < 1e-7

    def test_entry_on_an_active_pole_is_the_reduced_eigenvalue(self):
        # a simple entry on the lattice is the reduced level: a secular
        # entry cannot sit on a pole
        op = OperatorSpec(0.5, COS2)
        entry = SpectrumEntry(z=4.0, multiplicity=1)
        assert entry.tag is SpectrumClass.REDUCED
        (u,) = eigenfunctions(op, entry)
        assert u.kind == "reduced" and u.level == 1

    def test_secular_entry_on_a_near_floor_level_rejected(self):
        # z = 4 is a coincident eigenvalue of this operator (see
        # test_coincidence_beside_a_near_floor_level_accepted): level 1 is
        # inactive, its norm below the floor. As a secular entry it is a
        # pole of the eigenfunction's resolvent sum all the same
        op = OperatorSpec(4.0, build_potential(1.0, [(1, 3e-8, 0.0)]))
        bogus = SpectrumEntry(z=4.0, multiplicity=1)
        with pytest.raises(ValueError, match="not a reduced level"):
            eigenfunctions(op, bogus)

    def test_every_classified_entry_accepted(self):
        # |alpha| from 1e-6 to 1e6 and coefficients from 1e-7 to 1 put roots
        # within an ulp or a few of their poles, where q is too steep for an
        # absolute bound on |q(z)|
        rng = np.random.default_rng(20261019)

        def coef():
            return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-7.0, 0.0))

        checked = moved = 0
        for _ in range(300):
            order = int(rng.integers(1, 9))
            levels = rng.choice(np.arange(1, order + 1), size=int(rng.integers(1, order + 1)), replace=False)
            pot = build_potential(coef(), [(int(k), coef(), coef()) for k in sorted(levels)])
            op = OperatorSpec(float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 6.0)), pot)
            for entry in classify_spectrum(op, 4.0 * (order + 1) ** 2).entries:
                assert eigenfunctions(op, entry, normalize=True)
                checked += 1
                if entry.tag is SpectrumClass.SECULAR:
                    # and the bound is not loose: 1e-7 relative off is foreign
                    off = SpectrumEntry(entry.z + 1e-7 * max(1.0, abs(entry.z)), 1)
                    with pytest.raises(ValueError, match="secular"):
                        eigenfunctions(op, off)
                    moved += 1
        assert checked > 2000 and moved > 1000

    @pytest.mark.parametrize(
        "potential, z, m",
        [
            (build_potential(0.0), 5.0, 1),
            (build_potential(0.0), 16.0, 3),
            # the only norm, 1e-16, is below the floor
            (build_potential(0.0, [(1, 1e-8, 0.0)]), 4.0, 3),
        ],
    )
    def test_entry_of_an_operator_without_active_level_rejected(self, potential, z, m):
        # q = 1 everywhere: no z solves the secular equation
        with pytest.raises(ValueError, match=f"^z={z} does not solve the secular equation$"):
            eigenfunctions(OperatorSpec(1.0, potential), SpectrumEntry(z, m))

    def test_inactive_level_cannot_be_reduced(self):
        op = OperatorSpec(0.5, COS2)
        from rankonespec.spectrum import SpectrumEntry
        bogus = SpectrumEntry(z=16.0, multiplicity=1)
        with pytest.raises(ValueError):
            eigenfunctions(op, bogus)
