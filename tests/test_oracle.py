import math

import numpy as np
import pytest

from rankonespec import charfn, diagnostics, oracle
from rankonespec.errors import ConvergenceError
from rankonespec.oracle import (
    coupled_block,
    jacobi_eigenvalues,
    oracle_eigenvalues,
    scan_char_zeros,
)
from rankonespec.potential import OperatorSpec, build_potential
from rankonespec.spectrum import classify_spectrum

from conftest import random_operator

CONST = build_potential(1.0)
COS2 = build_potential(0.0, [(1, 1.0, 0.0)])


def full_matrix_jacobi(a, tol=1e-12, max_sweeps=100):
    """Reference: the cyclic sweep over every pair of the whole matrix as
    numpy row and column updates."""
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


def _operator(rng, order, active):
    """Random operator with the given active levels, order among them."""
    c0 = float(rng.standard_normal()) if 0 in active else 0.0
    terms = [(k, *map(float, rng.standard_normal(2))) for k in sorted(active) if k]
    alpha = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 5.0))
    return OperatorSpec(alpha, build_potential(c0, terms))


def truncation_cases(seed=7):
    """(operator, n) pairs: audit-style sparse (four active levels) and
    dense operators at K <= 16, truncated as oracle_comparison truncates
    them and tighter."""
    rng = np.random.default_rng(seed)
    out = []
    for order in (1, 3, 8, 12, 16):
        sparse = {order, *map(int, rng.choice(order, size=min(3, order), replace=False))}
        for active in (sparse, set(range(order + 1))):
            op = _operator(rng, order, active)
            out.extend((op, n) for n in (order + 2, 4 * order + 20))
    return out


def truncated_operators(seed=7):
    """The dense Galerkin matrices of truncation_cases(seed)."""
    return [truncated_matrix_loop(op, n) for op, n in truncation_cases(seed)]


def truncated_matrix_loop(op, n):
    """Reference: the dense Galerkin matrix on the first 2n+1 basis
    functions, diag(0, 4, 4, 16, 16, ...) + alpha u u^T, assembled one
    level at a time."""
    dim = 2 * n + 1
    diag = np.zeros(dim)
    for k in range(1, n + 1):
        diag[2 * k - 1] = diag[2 * k] = 4.0 * k * k
    u = np.zeros(dim)
    u[0] = op.potential.c0
    for k, c, s in op.potential.pairs:
        u[2 * k - 1] = c
        u[2 * k] = s
    return np.diag(diag) + op.alpha * np.outer(u, u)


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
        a = truncated_matrix_loop(op, 6)
        ev = jacobi_eigenvalues(a)
        assert np.array_equal(ev, np.sort(np.diag(a)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            jacobi_eigenvalues(np.zeros((2, 3)))

    @pytest.mark.parametrize("gap, accepted", [(1e-12, True), (1.5e-12, False)])
    @pytest.mark.parametrize("upper", [True, False])
    def test_symmetry_tolerance_edge(self, gap, accepted, upper):
        # entries may differ from their mirror by up to 1e-12, inclusive
        a = np.diag([1.0, 2.0])
        a[(0, 1) if upper else (1, 0)] = gap
        if accepted:
            assert jacobi_eigenvalues(a).tobytes() == full_matrix_jacobi(a).tobytes()
        else:
            with pytest.raises(ValueError, match="symmetric"):
                jacobi_eigenvalues(a)

    @pytest.mark.parametrize(
        "a",
        [
            [[math.inf, 1.0], [1.0, 0.0]],
            [[math.inf, 0.0], [0.0, 1.0]],
            [[1.0, -math.inf], [-math.inf, 1.0]],
            [[math.nan, 0.0], [0.0, 1.0]],
            [[1.0, math.nan], [math.nan, 1.0]],
        ],
    )
    def test_rejects_non_finite(self, a):
        with pytest.raises(ValueError, match="finite"):
            jacobi_eigenvalues(np.array(a))

    def test_diagonal_converges_immediately(self):
        ev = jacobi_eigenvalues(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(ev, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("a", [np.diag([3.0, -1.0, 2.0, 2.0]), np.array([[5.0]])])
    def test_nothing_coupled_returns_at_once(self, a):
        # no rotation and no second sweep: tol 0 and one sweep suffice
        ev = jacobi_eigenvalues(a, tol=0.0, max_sweeps=1)
        assert np.array_equal(ev, np.sort(np.diag(a)))


class TestDeflation:
    """Rows that touch nothing keep their diagonal entry, and the scalar
    sweep is bit for bit the numpy row and column sweep."""

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

    @pytest.mark.parametrize("dim, lower", [(2, {(1, 0): 1e-12}), (3, {(2, 0): 1e-12, (2, 1): 3e-13})])
    def test_lower_triangle_entry_rotates(self, dim, lower):
        # within the symmetry tolerance a pair may be nonzero below the
        # diagonal alone; the off-norm counts it, so the sweep must rotate it
        a = np.diag(np.arange(1.0, dim + 1.0))
        for index, value in lower.items():
            a[index] = value
        ev = jacobi_eigenvalues(a, tol=1e-14)
        assert ev.tobytes() == jacobi_eigenvalues(a.T.copy(), tol=1e-14).tobytes()
        assert np.array_equal(ev, np.arange(1.0, dim + 1.0))

    def test_noisy_asymmetric_bit_identical(self, rng):
        # the upper triangle differs from the lower by noise inside the
        # symmetry tolerance; with planted rows, some of that noise is the
        # only entry coupling a row
        for dim in (2, 3, 5, 8, 17, 33, 65):
            m = rng.standard_normal((dim, dim))
            decoupled = rng.choice(dim, size=int(rng.integers(1, dim)), replace=False)
            for a in (0.5 * (m + m.T), planted_decoupled(rng, dim, decoupled)):
                noise = rng.uniform(-0.9e-12, 0.9e-12, (dim, dim)) * (rng.random((dim, dim)) < 0.5)
                noise[0, -1] = 0.5e-12
                a = a + np.triu(noise, 1)
                assert 0.0 < np.max(np.abs(a - a.T)) <= 1e-12
                ev = jacobi_eigenvalues(a)
                assert ev.tobytes() == full_matrix_jacobi(a).tobytes()

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


ONE_SIDED = OperatorSpec(1.3, build_potential(0.0, [(2, 0.0, 0.7), (5, 0.3, 0.0)]))


def block_cases():
    """truncation_cases of two seeds, and operators with a one-sided level
    (c_k or s_k zero), with no level 0, with one touched row and with none."""
    cases = truncation_cases() + truncation_cases(seed=3)
    return cases + [
        (OperatorSpec(0.5, CONST), 6),
        (OperatorSpec(-2.0, COS2), 1),
        (ONE_SIDED, 5),
        (ONE_SIDED, 9),
        (OperatorSpec(0.0, ONE_SIDED.potential), 7),
        (OperatorSpec(1.0, build_potential(0.0)), 3),
    ]


def touched_rows(op):
    """The basis rows of the nonzero coefficients: 0 for c0, 2k-1 for c_k,
    2k for s_k."""
    rows = [0] if op.potential.c0 else []
    for k, c, s in op.potential.pairs:
        rows += [r for r, x in ((2 * k - 1, c), (2 * k, s)) if x]
    return sorted(rows)


class TestTruncatedOperator:
    def test_matches_level_loop(self):
        # the block is the dense matrix on the touched rows, bit for bit
        for op, n in block_cases():
            rows, block = coupled_block(op)
            assert rows.tolist() == touched_rows(op)
            dense = truncated_matrix_loop(op, n)
            assert block.tobytes() == dense[np.ix_(rows, rows)].tobytes()

    def test_spectrum_matches_dense_truncation(self):
        # the block's eigenvalues and the listed untouched levels are those
        # of the whole dense matrix, bit for bit
        for op, n in block_cases():
            want = full_matrix_jacobi(truncated_matrix_loop(op, n))
            assert oracle_eigenvalues(op, n).tobytes() == want.tobytes()

    def test_order_not_covered_rejected(self):
        with pytest.raises(ValueError, match="does not cover"):
            oracle_eigenvalues(ONE_SIDED, 4)


class TestOracleSpectrum:
    def test_unperturbed_diagonal(self):
        values = oracle_eigenvalues(OperatorSpec(0.0, CONST), 4)
        assert values.tolist() == [0.0, 4.0, 4.0, 16.0, 16.0, 36.0, 36.0, 64.0, 64.0]

    def test_constant_unit_coupling(self):
        values = oracle_eigenvalues(OperatorSpec(1.0, CONST), 32)
        assert values[0] == pytest.approx(1.0, abs=1e-10)
        assert values[1:4].tolist() == [4.0, 4.0, 16.0]

    def test_triple_eigenvalue(self):
        values = oracle_eigenvalues(OperatorSpec(4.0, CONST), 32)
        triple = values[np.abs(values - 4.0) < 1e-8]
        assert triple.size == 3
        assert np.all(np.abs(triple - 4.0) <= 1e-10)

    def test_truncation_independence(self, rng):
        # levels above the potential order decouple, so enlarging the
        # truncation must not move eigenvalues inside the window
        op = random_operator(rng, max_order=4)
        window = 100.0
        a = oracle_eigenvalues(op, 16)
        b = oracle_eigenvalues(op, 32)
        a, b = a[a <= window], b[b <= window]
        assert a.size == b.size
        assert np.all(np.abs(a - b) <= 1e-10)


def positive_secular(op, lambda_max):
    """The solver's positive secular and coincident eigenvalues z up to
    lambda_max^2, ascending."""
    entries = classify_spectrum(op, lambda_max ** 2).entries
    return np.array([e.z for e in entries if e.tag.value in ("secular", "coincident") and e.z > 0.0])


def unit_norm_operator(rng, levels, alpha):
    """alpha and a unit-norm potential with random coefficients on the given
    ascending levels."""
    c = rng.standard_normal((len(levels), 2))
    c0 = float(c[0, 0]) if levels[0] == 0 else 0.0
    pairs = [(k, *map(float, row)) for k, row in zip(levels, c) if k]
    return OperatorSpec(alpha, build_potential(c0, pairs, normalize=True))


def sparse_operator(rng, order):
    """An audit-style operator: a unit-norm potential on four levels, the
    order among them, and alpha = +-U(0.25, 5)."""
    levels = sorted({order, *rng.choice(order, size=3, replace=False).tolist()})
    alpha = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 5.0))
    return unit_norm_operator(rng, levels, alpha)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("order", [128, 512])
def test_sparse_high_order_matches_solver(order, seed):
    # criterion 1 at the orders the bench aims for: every classified
    # eigenvalue, repeated by its multiplicity, against the oracle
    # eigenvalue of the same rank, and none missed
    op = sparse_operator(np.random.default_rng(seed), order)
    window = 4.0 * (order + 1) ** 2
    entries = classify_spectrum(op, window).entries
    solver = np.repeat([e.z for e in entries], [e.multiplicity for e in entries])
    truth = oracle_eigenvalues(op, order + 2)
    assert np.max(np.abs(solver - truth[:solver.size])) <= diagnostics.ORACLE_TOL
    assert truth[solver.size] > window
    assert diagnostics.oracle_comparison(op, window)["passed"]


def root_next_to_level_three(d):
    """alpha = 1 and levels 1 and 5 only, weighted so that the secular
    function has its root at z = 36 + d, next to the inactive level 3."""
    z = 36.0 + d
    x5 = -(1.0 + 40.0 / (4.0 - z)) * (100.0 - z)
    return OperatorSpec(1.0, build_potential(0.0, [(1, math.sqrt(40.0), 0.0), (5, math.sqrt(x5), 0.0)]))


def scan_node_count(lambda_max):
    """Nodes of the scan grid: the SCAN_GRID_STEP nodes off the lattice, the
    two neighbouring floats of every lattice point 2p up to lambda_max, and
    sqrt(eps)."""
    step = oracle.SCAN_GRID_STEP
    lattice = {2.0 * p for p in range(1, math.floor(lambda_max / 2.0) + 1)}
    sides = {math.nextafter(x, s) for x in lattice for s in (-math.inf, math.inf)}
    grid = set(np.arange(step, lambda_max + step / 2.0, step).tolist()) - lattice
    return len(grid | {x for x in sides if x <= lambda_max} | {math.sqrt(np.finfo(float).eps)})


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
        # all unperturbed zeros sit on the lattice, in the dropped one-ulp cells
        assert scan_char_zeros(OperatorSpec(0.0, CONST), 5.0) == []

    def test_matches_secular_entries(self, rng):
        # squared scan roots equal the positive secular eigenvalues
        for _ in range(3):
            op = random_operator(rng, max_order=3)
            secular = positive_secular(op, 10.0)
            scanned = scan_char_zeros(op, 10.0)
            assert len(scanned) == len(secular)
            for got, want in zip(sorted(z * z for z in scanned), secular):
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
        # the widest bracket relative to its lower end is the first cell,
        # [sqrt(eps), SCAN_GRID_STEP]; one step more for midpoint rounding
        eps = np.finfo(float).eps
        cap = 1 + math.ceil(math.log2(oracle.SCAN_GRID_STEP / (4.0 * eps * math.sqrt(eps))))
        assert cap == 71
        for op, lambda_max in ((OperatorSpec(1.0, CONST), 3.0), (random_operator(rng, max_order=16), 20.0)):
            sizes.clear()
            roots = scan_char_zeros(op, lambda_max)
            assert sizes[0] == scan_node_count(lambda_max)
            assert 1 <= len(sizes) - 1 <= cap
            assert max(sizes[1:]) <= len(roots)

    def test_steep_root_next_to_lattice(self):
        # the secular root z = 4.0133 sits 3.3e-3 above lambda = 2, in the
        # grid cell next to the lattice, where D is steep
        op = OperatorSpec(1.0, build_potential(1.0, [(1, 0.1, 0.0)], normalize=False))
        z = next(e.z for e in classify_spectrum(op, 9.0).entries if 4.0 < e.z < 9.0)
        assert 1e-3 < math.sqrt(z) - 2.0 < 1e-2
        near = [x for x in scan_char_zeros(op, 3.0) if abs(x - 2.0) < 1e-2]
        assert len(near) == 1
        assert near[0] ** 2 == pytest.approx(z, rel=1e-12)

    def test_roots_match_secular_solver(self, rng):
        # the scan returns every positive secular root, however close to the
        # lattice, and nothing else
        for _ in range(10):
            op = random_operator(rng, max_order=16)
            lambda_max = 2.0 * op.potential.K + 3.0
            secular = positive_secular(op, lambda_max)
            scanned = np.sort(np.square(scan_char_zeros(op, lambda_max)))
            assert len(scanned) == len(secular)
            assert np.all(np.abs(scanned - secular) <= 1e-12 * np.maximum(1.0, secular))

    @pytest.mark.parametrize("levels", [range(129), (0, 17, 250, 512)], ids=["dense-128", "sparse-512"])
    def test_matches_secular_solver_at_high_order(self, rng, levels):
        # at these orders most roots lie within 1e-3 of the lattice
        op = unit_norm_operator(rng, levels, 1.3)
        lambda_max = 2.0 * op.potential.K + 3.0
        secular = np.sqrt(positive_secular(op, lambda_max))
        scanned = np.array(scan_char_zeros(op, lambda_max))
        assert len(scanned) == len(secular)
        assert np.all(np.abs(scanned - secular) <= 1e-13 * secular)

    @pytest.mark.parametrize("d", [1e-3, 1e-6, 1e-9, -1e-6])
    def test_root_next_to_an_inactive_level(self, d):
        roots = scan_char_zeros(root_next_to_level_three(d), 7.0)
        assert len(roots) == 1
        assert (roots[0] - 6.0) * d > 0.0
        assert roots[0] ** 2 == pytest.approx(36.0 + d, abs=1e-12)

    def test_exact_coincidence_is_not_returned(self):
        # at d = 0 the root sits on 6 itself, inside the dropped one-ulp cell:
        # the scan's documented limit
        assert scan_char_zeros(root_next_to_level_three(0.0), 7.0) == []

    def test_root_near_zero(self):
        # q(z) = 1 - alpha / z on the constant potential: z = alpha
        roots = scan_char_zeros(OperatorSpec(1e-10, CONST), 3.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(1e-5, rel=1e-12)
