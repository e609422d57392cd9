import math

import numpy as np
import pytest

from rankonespec import charfn, oracle
from rankonespec.errors import ConvergenceError
from rankonespec.oracle import (
    cluster_eigenvalues,
    jacobi_eigenvalues,
    oracle_spectrum,
    scan_char_zeros,
    truncated_matrix,
)
from rankonespec.potential import OperatorSpec, build_potential
from rankonespec.spectrum import classify_spectrum

from conftest import random_operator

CONST = build_potential(1.0)
COS2 = build_potential(0.0, [(1, 1.0, 0.0)])


def full_matrix_jacobi(a, tol=1e-12, max_sweeps=100):
    """Reference: the cyclic sweep over every pair of the whole matrix,
    without deflation."""
    a = np.array(a, dtype=float)
    dim = a.shape[0]
    off_mask = ~np.eye(dim, dtype=bool)
    for _ in range(max_sweeps):
        if math.sqrt(float(np.sum(a[off_mask] ** 2))) <= tol:
            return np.sort(np.diag(a))
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                apq = a[p, q]
                if abs(apq) < 1e-30:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                col_p = c * a[:, p] - s * a[:, q]
                col_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = col_p, col_q
                a[p, q] = a[q, p] = 0.0
    raise ConvergenceError("reference sweep limit exceeded")


def cluster_loop(values, cluster_radius=1e-6):
    """Reference: the per-element clustering loop."""
    vals = np.sort(np.asarray(values, dtype=float))
    out = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > cluster_radius:
            chunk = vals[start:i]
            out.append((float(np.mean(chunk)), len(chunk)))
            start = i
    return out


def _operator(rng, order, active):
    """Random operator with the given active levels, order among them."""
    c0 = float(rng.standard_normal()) if 0 in active else 0.0
    terms = [(k, *map(float, rng.standard_normal(2))) for k in sorted(active) if k]
    alpha = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 5.0))
    return OperatorSpec(alpha, build_potential(c0, terms))


def truncated_operators(seed=7):
    """Audit-style sparse (four active levels) and dense operators at
    K <= 16, truncated as oracle_comparison truncates them and tighter."""
    rng = np.random.default_rng(seed)
    out = []
    for order in (1, 3, 8, 12, 16):
        sparse = {order, *map(int, rng.choice(order, size=min(3, order), replace=False))}
        for active in (sparse, set(range(order + 1))):
            op = _operator(rng, order, active)
            out.extend(truncated_matrix(op, n) for n in (order + 2, 4 * order + 20))
    return out


def planted_decoupled(rng, dim, decoupled):
    """Random symmetric matrix whose rows in `decoupled` touch nothing."""
    m = rng.standard_normal((dim, dim))
    m = 0.5 * (m + m.T)
    m[decoupled, :] = 0.0
    m[:, decoupled] = 0.0
    m[decoupled, decoupled] = rng.uniform(-3.0, 3.0, len(decoupled))
    return m


class TestJacobi:
    def test_random_symmetric_matches_trace(self, rng):
        for dim in (5, 17, 33, 65):
            m = rng.standard_normal((dim, dim))
            m = 0.5 * (m + m.T)
            ev = jacobi_eigenvalues(m)
            assert np.sum(ev) == pytest.approx(np.trace(m), abs=1e-10)

    def test_zero_coupling_leaves_diagonal(self):
        op = OperatorSpec(0.0, CONST)
        a = truncated_matrix(op, 6)
        ev = jacobi_eigenvalues(a)
        assert np.array_equal(ev, np.sort(np.diag(a)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_diagonal_converges_immediately(self):
        ev = jacobi_eigenvalues(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(ev, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("a", [np.diag([3.0, -1.0, 2.0, 2.0]), np.array([[5.0]])])
    def test_nothing_coupled_returns_at_once(self, a):
        # no rotation and no second sweep: tol 0 and one sweep suffice
        ev = jacobi_eigenvalues(a, tol=0.0, max_sweeps=1)
        assert np.array_equal(ev, np.sort(np.diag(a)))


class TestDeflation:
    def test_truncated_operators_bit_identical(self):
        for a in truncated_operators():
            assert np.array_equal(jacobi_eigenvalues(a), full_matrix_jacobi(a))

    def test_planted_decoupled_rows_bit_identical(self, rng):
        for dim in (2, 6, 17, 40):
            for _ in range(3):
                decoupled = rng.choice(dim, size=int(rng.integers(1, dim)), replace=False)
                a = planted_decoupled(rng, dim, decoupled)
                ev = jacobi_eigenvalues(a)
                assert np.array_equal(ev, full_matrix_jacobi(a))
                assert set(np.diag(a)[decoupled]) <= set(ev)

    def test_one_sided_entry_keeps_its_pair(self):
        # within the 1e-12 symmetry tolerance only a[0, 2] is nonzero:
        # rows 0 and 2 are both coupled, as the full sweep rotates them
        a = np.diag([1.0, 2.0, 1.0])
        a[0, 2] = 5e-13
        ev = jacobi_eigenvalues(a, tol=1e-14)
        assert np.array_equal(ev, full_matrix_jacobi(a, tol=1e-14))
        assert ev[0] < 1.0

    def test_sweep_limit_still_raises(self):
        a = truncated_operators()[-1]
        with pytest.raises(ConvergenceError):
            jacobi_eigenvalues(a, max_sweeps=1)

    def test_agrees_with_mpmath(self, rng):
        mpmath = pytest.importorskip("mpmath")
        mats = [a for a in truncated_operators(seed=3) if len(a) <= 41]
        mats += [planted_decoupled(rng, 24, rng.choice(24, size=9, replace=False))]
        with mpmath.workdps(40):
            for a in mats:
                exact = mpmath.eigsy(mpmath.matrix(a.tolist()), eigvals_only=True)
                want = np.sort([float(x) for x in exact])
                got = jacobi_eigenvalues(a)
                bound = 1e-12 * max(1.0, np.linalg.norm(a, 2))
                assert np.max(np.abs(got - want)) <= bound


class TestClusterEigenvalues:
    def test_matches_loop_with_planted_near_ties(self, rng):
        for _ in range(200):
            size = int(rng.integers(1, 60))
            vals = np.sort(rng.uniform(-50.0, 50.0, size) * rng.choice((1e-6, 1.0, 10.0)))
            # near-ties below, at and above the radius, chained or not
            ties = rng.choice(size, size=size // 2)
            vals = np.sort(np.concatenate([vals, vals[ties] + rng.choice((0.0, 1e-9, 1e-6, 2e-6), len(ties))]))
            got = cluster_eigenvalues(vals, 1e-6)
            want = cluster_loop(vals, 1e-6)
            assert got == want
            assert all(type(z) is float and type(m) is int for z, m in got)

    def test_unsorted_and_empty(self):
        assert cluster_eigenvalues(np.array([2.0, 1.0 + 1e-8, 1.0])) == cluster_loop([1.0, 1.0 + 1e-8, 2.0])
        assert cluster_eigenvalues(np.array([])) == []


class TestOracleSpectrum:
    def test_unperturbed_diagonal(self):
        sp = oracle_spectrum(OperatorSpec(0.0, CONST), 4)
        assert sp == [(0.0, 1), (4.0, 2), (16.0, 2), (36.0, 2), (64.0, 2)]

    def test_constant_unit_coupling(self):
        sp = oracle_spectrum(OperatorSpec(1.0, CONST), 32)
        assert sp[0][0] == pytest.approx(1.0, abs=1e-10)
        assert sp[0][1] == 1
        assert sp[1] == (4.0, 2)

    def test_triple_eigenvalue(self):
        sp = oracle_spectrum(OperatorSpec(4.0, CONST), 32)
        triple = [c for c in sp if abs(c[0] - 4.0) < 1e-8]
        assert triple and triple[0][1] == 3

    def test_truncation_independence(self, rng):
        # levels above the potential order decouple, so enlarging the
        # truncation must not move eigenvalues inside the window
        op = random_operator(rng, max_order=4)
        window = 100.0
        a = [(z, m) for z, m in oracle_spectrum(op, 16) if z <= window]
        b = [(z, m) for z, m in oracle_spectrum(op, 32) if z <= window]
        assert len(a) == len(b)
        for (za, ma), (zb, mb) in zip(a, b):
            assert za == pytest.approx(zb, abs=1e-10)
            assert ma == mb

    def test_cluster_radius(self):
        vals = np.array([1.0, 1.0 + 1e-8, 2.0])
        assert cluster_eigenvalues(vals, 1e-6) == [(pytest.approx(1.0), 2), (2.0, 1)]


class TestScan:
    def test_constant_unit_coupling(self):
        roots = scan_char_zeros(OperatorSpec(1.0, CONST), 3.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(1.0, abs=1e-9)

    def test_reduced_example(self):
        roots = scan_char_zeros(OperatorSpec(0.5, COS2), 5.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(math.sqrt(4.5), abs=1e-9)

    def test_unperturbed_scan_is_empty(self):
        # all unperturbed zeros sit on the excluded lattice
        assert scan_char_zeros(OperatorSpec(0.0, CONST), 5.0) == []

    def test_step_precondition(self):
        with pytest.raises(ValueError):
            scan_char_zeros(OperatorSpec(1.0, CONST), 3.0, grid_step=0.05)

    def test_matches_secular_entries(self, rng):
        # squared scan roots equal the positive secular eigenvalues
        for _ in range(3):
            op = random_operator(rng, max_order=3)
            cs = classify_spectrum(op, 100.0)
            secular = sorted(
                e.z
                for e in cs.entries
                if e.tag.value in ("secular", "coincident") and e.z > 0
            )
            # scan excludes lattice neighborhoods; drop coincident values
            off_lattice = [
                z for z in secular if abs(math.sqrt(z) / 2 - round(math.sqrt(z) / 2)) * 2 > 1e-3
            ]
            scanned = scan_char_zeros(op, math.sqrt(100.0))
            assert len(scanned) == len(off_lattice)
            for got, want in zip(sorted(z * z for z in scanned), off_lattice):
                assert got == pytest.approx(want, abs=1e-8)

    def test_refinement_is_batched(self, rng, monkeypatch):
        # one grid-sized kernel call, then at most the step cap of calls over
        # the live brackets, however many roots there are
        sizes = []
        transforms = charfn._transforms

        def counted(spec, lam, *args):
            sizes.append(lam.size)
            return transforms(spec, lam, *args)

        monkeypatch.setattr(charfn, "_transforms", counted)
        for op, lambda_max in (
            (OperatorSpec(1.0, CONST), 3.0),
            (random_operator(rng, max_order=16), 20.0),
        ):
            sizes.clear()
            roots = scan_char_zeros(op, lambda_max)
            assert sizes[0] == len(np.arange(0.01, lambda_max + 0.005, 0.01))
            assert 1 <= len(sizes) - 1 <= oracle._SCAN_STEPS
            assert max(sizes[1:]) <= len(roots)

    def test_steep_root_next_to_lattice(self):
        # the secular root z = 4.0133 sits 3.3e-3 above lambda = 2, just
        # outside the lattice guard, where D is steep
        op = OperatorSpec(1.0, build_potential(1.0, [(1, 0.1, 0.0)], normalize=False))
        z = next(e.z for e in classify_spectrum(op, 9.0).entries if 4.0 < e.z < 9.0)
        assert 1e-3 < math.sqrt(z) - 2.0 < 1e-2
        roots = scan_char_zeros(op, 3.0, grid_step=0.001)
        near = [x for x in roots if abs(x - 2.0) < 1e-2]
        assert len(near) == 1
        assert near[0] ** 2 == pytest.approx(z, rel=1e-12)

    def test_roots_match_secular_solver(self, rng):
        # every scanned root squared is a secular root to rounding, and every
        # positive secular root farther than two grid steps from the lattice
        # is scanned
        for _ in range(10):
            op = random_operator(rng, max_order=16)
            lambda_max = 2.0 * op.potential.K + 3.0
            secular = np.array(
                [
                    e.z
                    for e in classify_spectrum(op, lambda_max ** 2).entries
                    if e.tag.value in ("secular", "coincident") and e.z > 0.0
                ]
            )
            scanned = [x * x for x in scan_char_zeros(op, lambda_max)]
            for z in scanned:
                assert np.min(np.abs(secular - z)) <= 1e-12 * z
            lam = np.sqrt(secular)
            clear = (np.abs(lam - 2.0 * np.round(lam / 2.0)) > 0.02) & (lam < lambda_max - 0.02)
            for z in secular[clear]:
                assert any(abs(s - z) <= 1e-12 * z for s in scanned)
