"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete; every criterion is asserted at its stated tolerance.
"""

import math

import numpy as np

from rankonespec import charfn
from rankonespec.oracle import oracle_eigenvalues
from rankonespec.potential import OperatorSpec, build_potential, companions, evaluate
from rankonespec.recovery import (
    SpectralData,
    ThreeSpectra,
    check_admissibility,
    invert_three_spectra,
    synthesize_from_admissible,
    weights_from_char_derivative,
    weights_from_spectrum,
)
from rankonespec.spectrum import (
    SpectrumClass,
    classify_spectrum,
    eigenfunctions,
    level_value,
    weight_table,
)

from conftest import quad_rule, random_potential

PI = math.pi
SEED = 413


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _sample_operators(count, max_order=8, seed=SEED):
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(count):
        alpha = float(rng.uniform(-5.0, 5.0))
        ops.append(OperatorSpec(alpha, random_potential(rng, max_order)))
    return ops


def test_criterion_1_oracle_equivalence():
    # the solver's eigenvalues, each repeated by its multiplicity, equal the
    # oracle's sorted eigenvalues rank by rank, and the next one lies past
    # the window
    window = 400.0
    worst = 0.0
    ok = True
    for op in _sample_operators(20):
        entries = classify_spectrum(op, window).entries
        solver = np.repeat([e.z for e in entries], [e.multiplicity for e in entries])
        truth = oracle_eigenvalues(op, 40)
        worst = max(worst, float(np.max(np.abs(solver - truth[:solver.size]))))
        ok = ok and worst <= 1e-8 and truth[solver.size] > window
    _report(1, "oracle equivalence", ok, f"max |dz| = {worst:.2e}")


def test_criterion_2_secular_factorization():
    grid = np.arange(0.05, 30.0 + 0.005, 0.01)
    grid = grid[np.abs(grid / 2.0 - np.round(grid / 2.0)) * 2.0 >= 0.05]
    worst = 0.0
    for op in _sample_operators(10, seed=SEED + 1):
        norms = op.potential.level_norms()
        d = charfn.char_perturbed(op, grid)
        d0 = charfn.char_unperturbed(grid)
        q = np.array([charfn.secular_function(op.alpha, norms, l * l) for l in grid])
        resid = np.abs(d - q * d0) / np.maximum(1.0, np.abs(d))
        worst = max(worst, float(np.max(resid)))
    _report(2, "secular factorization identity", worst <= 1e-9, f"max resid = {worst:.2e}")


def test_criterion_3_convolution_identity():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(50):
        spec = random_potential(rng)
        lam = complex(rng.uniform(-18.0, 18.0), rng.uniform(-2.0, 2.0))
        assert abs(lam) <= 20.0
        lhs = charfn.autocorr_transform(spec, lam) + charfn.autocorr_transform_star(spec, lam)
        rhs = charfn.fourier_transform(spec, lam) * charfn.fourier_transform_star(spec, lam)
        worst = max(worst, abs(lhs - rhs))
    _report(3, "convolution identity", worst <= 1e-10, f"max resid = {worst:.2e}")


def test_criterion_4_interlacing():
    ok = True
    for op in _sample_operators(20):
        table = weight_table(op)
        poles = [level_value(k) for k in table.active]
        cs = classify_spectrum(op, 4.0 * (op.potential.K + 2) ** 2)
        mus = sorted(
            e.z for e in cs.entries
            if e.tag in (SpectrumClass.SECULAR, SpectrumClass.COINCIDENT)
        )
        if len(mus) != len(poles):
            ok = False
            break
        if op.alpha > 0:
            bounds = poles + [math.inf]
            ok = ok and sum(m > poles[-1] for m in mus) == 1
        else:
            bounds = [-math.inf] + poles
            ok = ok and sum(m < poles[0] for m in mus) == 1
        ok = ok and all(bounds[j] < mus[j] < bounds[j + 1] for j in range(len(mus)))
        if not ok:
            break
    _report(4, "interlacing with active levels", ok)


def test_criterion_5_triple_coincidence():
    op = OperatorSpec(4.0, build_potential(1.0))
    solver = [
        (e.z, e.multiplicity, e.tag)
        for e in classify_spectrum(op, 40.0).entries
        if abs(e.z - 4.0) <= 1e-9
    ]
    values = oracle_eigenvalues(op, 32)
    oracle_hit = values[np.abs(values - 4.0) <= 1e-8]
    ok = (
        len(solver) == 1
        and solver[0][1] == 3
        and solver[0][2] is SpectrumClass.COINCIDENT
        and oracle_hit.size == 3
        and bool(np.all(np.abs(oracle_hit - 4.0) <= 1e-10))
    )
    _report(5, "triple coincidence multiplicity", ok)


def _three_spectra(alpha, v, order=32):
    w, what = companions(v, order)
    window = 4.0 * (order + 1) ** 2
    return ThreeSpectra.from_classified(
        classify_spectrum(OperatorSpec(alpha, v), window),
        classify_spectrum(OperatorSpec(alpha, w), window),
        classify_spectrum(OperatorSpec(alpha, what), window),
        order,
    )


def test_criterion_6_three_spectra_round_trip():
    rng = np.random.default_rng(SEED + 3)
    cases = [(1.0, build_potential(0.6, [(1, 0.64, 0.48)]))]
    for alpha in (0.5, -0.5, 1.0, -3.0):
        cases.append((alpha, random_potential(rng, max_order=8)))
    worst_alpha = 0.0
    worst_coeff = 0.0
    for alpha, v in cases:
        ts = _three_spectra(alpha, v)
        a_rec, rec, _ = invert_three_spectra(ts)
        worst_alpha = max(worst_alpha, abs(a_rec - alpha) / abs(alpha))
        worst_coeff = max(worst_coeff, abs(rec.c0 - v.c0))
        for k in range(1, ts.order + 1):
            wc, ws = v.coefficient(k)
            gc, gs = rec.coefficient(k)
            worst_coeff = max(worst_coeff, abs(gc - wc), abs(gs - ws))
    # worked example exactness is part of the criterion
    a_rec, rec, _ = invert_three_spectra(_three_spectra(1.0, cases[0][1]))
    exact = (
        abs(a_rec - 1.0) <= 1e-6
        and abs(rec.c0 - 0.6) <= 1e-6
        and abs(rec.coefficient(1)[0] - 0.64) <= 1e-6
        and abs(rec.coefficient(1)[1] - 0.48) <= 1e-6
    )
    ok = worst_alpha <= 1e-6 and worst_coeff <= 1e-6 and exact
    _report(
        6,
        "three-spectra round trip",
        ok,
        f"max d|alpha|/|alpha| = {worst_alpha:.2e}, max |dcoeff| = {worst_coeff:.2e}",
    )


def test_criterion_7_recovery_route_agreement():
    worst = 0.0
    for op in _sample_operators(10, seed=SEED + 4):
        window = 4.0 * (op.potential.K + 2) ** 2
        data = SpectralData.from_classified(classify_spectrum(op, window))
        spectral = weights_from_spectrum(data).weights
        derivative = weights_from_char_derivative(op).weights
        for k in range(0, op.potential.K + 1):
            worst = max(worst, abs(spectral.get(k, 0.0) - derivative.get(k, 0.0)))
    _report(7, "recovery route agreement", worst <= 1e-6, f"max |dX| = {worst:.2e}")


def test_criterion_8_eigenfunction_residual():
    h = PI / 2000.0
    xs = np.arange(0, 2001) * h
    qx, qw = quad_rule(0.0, PI)
    worst_resid = 0.0
    worst_bc = 0.0
    # orders <= 3 keep every secular eigenvalue inside the window where the
    # stencil truncation error stays below the tolerance
    for op in _sample_operators(10, max_order=3, seed=SEED + 5):
        cs = classify_spectrum(op, 40.0)
        vx = evaluate(op.potential, xs[2:-2])
        vq = evaluate(op.potential, qx)
        for entry in cs.entries:
            if entry.tag not in (SpectrumClass.SECULAR, SpectrumClass.COINCIDENT):
                continue
            for u in eigenfunctions(op, entry):
                ux = u(xs)
                upp = (
                    -ux[4:] + 16 * ux[3:-1] - 30 * ux[2:-2] + 16 * ux[1:-3] - ux[:-4]
                ) / (12 * h * h)
                inner = float(np.sum(qw * u(qx) * vq))
                resid = -upp + op.alpha * inner * vx - entry.z * ux[2:-2]
                worst_resid = max(worst_resid, float(np.max(np.abs(resid))))
                worst_bc = max(
                    worst_bc,
                    abs(u(0.0) - u(PI)),
                    abs(u.derivative(0.0) - u.derivative(PI)),
                )
    ok = worst_resid <= 1e-7 and worst_bc <= 1e-8
    _report(
        8,
        "eigenfunction residual",
        ok,
        f"max resid = {worst_resid:.2e}, max bc = {worst_bc:.2e}",
    )


def test_criterion_9_origin_value():
    worst = 0.0
    for op in _sample_operators(10, seed=SEED + 6):
        got = complex(charfn.char_perturbed(op, 0.0))
        vt0 = charfn.fourier_transform(op.potential, 0.0)
        want = -op.alpha * PI * abs(vt0) ** 2
        worst = max(worst, abs(got - want) / abs(want))
    op = OperatorSpec(1.0, build_potential(1.0))
    anchor = complex(charfn.char_perturbed(op, 0.0))
    ok = worst <= 1e-10 and abs(anchor - (-PI ** 2)) <= 1e-10 * PI ** 2
    _report(9, "characteristic value at the origin", ok, f"max rel = {worst:.2e}")


def test_criterion_10_admissibility_pipeline():
    ok = True
    detail = ""
    for op in _sample_operators(8, seed=SEED + 7):
        window = 4.0 * (op.potential.K + 2) ** 2
        data = SpectralData.from_classified(classify_spectrum(op, window))
        report = check_admissibility(data)
        if not report.accepted:
            ok, detail = False, "forward-generated spectrum rejected"
            break
        synth = synthesize_from_admissible(report)
        resynth = SpectralData.from_classified(classify_spectrum(synth, window))
        if np.max(np.abs(np.array(resynth.mus) - np.array(data.mus))) > 1e-9:
            ok, detail = False, "synthesized operator does not reproduce roots"
            break
        # mutant: force two roots into the first gap between active levels,
        # which breaks alternation regardless of the coupling sign
        poles = sorted(data.active_levels)
        if len(poles) >= 2:
            lo, hi = poles[0], poles[1]
            mus = sorted(data.mus)
            mus[0] = lo + 0.25 * (hi - lo)
            mus[1] = lo + 0.50 * (hi - lo)
            mutant = SpectralData(
                active_levels=data.active_levels,
                mus=tuple(sorted(mus)),
                window=data.window,
            )
            if check_admissibility(mutant).accepted:
                ok, detail = False, "interlacing-violating mutant accepted"
                break
    _report(10, "admissibility pipeline", ok, detail)
