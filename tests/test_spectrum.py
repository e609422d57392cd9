import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankonespec import charfn
from rankonespec import numerics
from rankonespec.errors import ConvergenceError, DegenerateOperatorError
from rankonespec.numerics import gauss_legendre_rule
from rankonespec.potential import OperatorSpec, build_potential, evaluate
from rankonespec.spectrum import (
    ClassifiedSpectrum,
    SpectrumClass,
    SpectrumEntry,
    WeightTable,
    classify_spectrum,
    eigenfunctions,
    level_multiplicity,
    level_value,
    secular_roots,
    weight_table,
)

from conftest import random_operator

PI = math.pi
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
        assert sum(t.norms().values()) == pytest.approx(op.potential.norm_sq, abs=1e-12)


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
            poles = t.active_poles()
            roots = secular_roots(t, level_value(op.potential.K + 2))
            assert len(roots) == len(poles)
            if op.alpha > 0:
                bounds = poles + [math.inf]
                assert all(bounds[j] < roots[j] < bounds[j + 1] for j in range(len(roots)))
            else:
                bounds = [-math.inf] + poles
                assert all(bounds[j] < roots[j] < bounds[j + 1] for j in range(len(roots)))

    def test_roots_are_on_char_zero_set(self, rng):
        # every secular root gives a zero of the perturbed characteristic
        # function at sqrt(z) (imaginary for negative z)
        for _ in range(5):
            op = random_operator(rng)
            ctx = charfn.CharContext(op)
            roots = secular_roots(weight_table(op), 400.0)
            for z in roots:
                lam = math.sqrt(z) if z >= 0 else 1j * math.sqrt(-z)
                scale = max(1.0, abs(charfn.char_perturbed(ctx, lam + 0.1)))
                assert abs(charfn.char_perturbed(ctx, lam)) <= 1e-8 * scale


def _table(alpha, norms):
    levels = tuple(sorted(norms))
    return WeightTable(
        weights={k: alpha * norms[k] for k in levels}, alpha=alpha, active=levels
    )


def _draw_table(rng):
    """Random active levels up to K <= 12, |alpha| in [1e-6, 1e6] and level
    norms in [1e-12, 1], both log-uniform."""
    order = int(rng.integers(1, 13))
    levels = rng.choice(order + 1, size=int(rng.integers(1, order + 2)), replace=False)
    alpha = float(10.0 ** rng.uniform(-6.0, 6.0)) * float(rng.choice([-1.0, 1.0]))
    norms = 10.0 ** rng.uniform(-12.0, 0.0, size=levels.size)
    return _table(alpha, {int(k): float(n) for k, n in zip(levels, norms)})


def _reference_roots(table, mpmath):
    """Secular roots to 50 digits, one per bracket, by the Illinois variant
    of regula falsi on h = (z - lo)(hi - z) q(z) (h = (z - lo) q(z) for the
    exterior root), which is finite at the poles. Negative coupling is
    mirrored (z -> -z), as the roots are."""
    mp = mpmath.mp
    mp.dps = 50
    sign = 1 if table.alpha > 0 else -1
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


def _assert_interlaced(table, roots):
    poles = table.active_poles()
    assert len(roots) == len(poles)
    if table.alpha > 0:
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
        table = WeightTable(weights={0: 0.5, 1: -0.5}, alpha=1.0, active=(0, 1))
        with pytest.raises(ValueError):
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
            assert cs.total_multiplicity() == unperturbed

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

    def test_json_round_trip(self):
        cs = classify_spectrum(OperatorSpec(0.5, COS2), 40.0)
        assert ClassifiedSpectrum.from_dict(cs.to_dict()) == cs


def stencil_residual(op, entry, u, z):
    """max |  -u'' + alpha <u,v> v - z u | with a 5-point second derivative."""
    h = PI / 2000.0
    xs = np.arange(0, 2001) * h
    ux = u(xs)
    upp = (-ux[4:] + 16 * ux[3:-1] - 30 * ux[2:-2] + 16 * ux[1:-3] - ux[:-4]) / (12 * h * h)
    qx, qw = gauss_legendre_rule(0.0, PI)
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
        qx, qw = gauss_legendre_rule(0.0, PI)
        assert float(np.sum(qw * u(qx) ** 2)) == pytest.approx(1.0, abs=1e-12)

    def test_negative_eigenvalue_eigenfunction(self):
        # coupling -1 pushes a root to z = -1; the eigenfunction is real
        op = OperatorSpec(-1.0, CONST)
        entry = classify_spectrum(op, 40.0).entries[0]
        assert entry.z == pytest.approx(-1.0, abs=1e-12)
        u = eigenfunctions(op, entry)[0]
        assert stencil_residual(op, entry, u, entry.z) < 1e-7


class TestEigenfunctionRejection:
    def test_foreign_secular_entry_rejected(self):
        op = OperatorSpec(1.0, CONST)
        from rankonespec.spectrum import SpectrumEntry
        bogus = SpectrumEntry(z=2.5, multiplicity=1, tag=SpectrumClass.SECULAR)
        with pytest.raises(ValueError, match="secular"):
            eigenfunctions(op, bogus)

    def test_active_level_cannot_be_unchanged(self):
        op = OperatorSpec(0.5, COS2)
        from rankonespec.spectrum import SpectrumEntry
        bogus = SpectrumEntry(z=4.0, multiplicity=2, tag=SpectrumClass.UNCHANGED)
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

    def test_entry_on_an_active_pole_rejected(self):
        op = OperatorSpec(0.5, COS2)
        bogus = SpectrumEntry(z=4.0, multiplicity=1, tag=SpectrumClass.SECULAR)
        with pytest.raises(ValueError, match="weight-carrying"):
            eigenfunctions(op, bogus)

    def test_inactive_level_cannot_be_reduced(self):
        op = OperatorSpec(0.5, COS2)
        from rankonespec.spectrum import SpectrumEntry
        bogus = SpectrumEntry(z=16.0, multiplicity=1, tag=SpectrumClass.REDUCED)
        with pytest.raises(ValueError):
            eigenfunctions(op, bogus)
