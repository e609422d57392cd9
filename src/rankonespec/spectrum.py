"""Forward problem: solve the secular equation on interlacing intervals and
classify the full spectrum of the perturbed operator.

The unperturbed spectrum is 4k^2 (k = 0, 1, ...) with multiplicity 1 at k=0
and 2 otherwise. A rank-one perturbation splits it into four classes:

    unchanged   levels whose projection weight vanishes (multiplicity kept),
    reduced     active levels k >= 1 (multiplicity drops to 1; an active
                k = 0 level disappears entirely),
    secular     simple roots of the secular function, one per gap between
                consecutive active poles plus one exterior root on the side
                determined by the coupling sign,
    coincident  secular roots landing exactly on an unchanged level
                (multiplicity goes up by one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .charfn import secular_function
from .errors import DegenerateOperatorError, PoleError
from .numerics import expm1_over, gauss_legendre_rule, secular_equation_roots
from .potential import (
    SQRT_2_OVER_PI,
    SQRT_PI,
    OperatorSpec,
    exp_coefficients,
)

WEIGHT_FLOOR = 1e-13
COINCIDENCE_TOL = 1e-9


def level_value(k: int) -> float:
    """Unperturbed eigenvalue at index k."""
    return 4.0 * k * k


def level_multiplicity(k: int) -> int:
    return 1 if k == 0 else 2


def levels_upto(z_max: float) -> list[int]:
    """Indices k with 4k^2 <= z_max."""
    if z_max < 0.0:
        return []
    return list(range(0, int(math.floor(math.sqrt(z_max) / 2.0)) + 1))


class SpectrumClass(str, Enum):
    UNCHANGED = "unchanged"
    REDUCED = "reduced"
    SECULAR = "secular"
    COINCIDENT = "coincident"


@dataclass(frozen=True)
class SpectrumEntry:
    z: float
    multiplicity: int
    tag: SpectrumClass

    def to_dict(self) -> dict:
        return {"z": float(self.z), "m": int(self.multiplicity), "tag": self.tag.value}

    @classmethod
    def from_dict(cls, d: dict) -> "SpectrumEntry":
        return cls(
            z=float(d["z"]), multiplicity=int(d["m"]), tag=SpectrumClass(d["tag"])
        )


@dataclass(frozen=True)
class ClassifiedSpectrum:
    """Sorted distinct eigenvalues with multiplicities; complete up to window."""

    entries: tuple[SpectrumEntry, ...]
    window: float

    def total_multiplicity(self, z_max: Optional[float] = None) -> int:
        cap = self.window if z_max is None else z_max
        return sum(e.multiplicity for e in self.entries if e.z <= cap)

    def to_dict(self) -> dict:
        return {
            "window": float(self.window),
            "entries": [e.to_dict() for e in self.entries],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ClassifiedSpectrum":
        try:
            window = float(d["window"])
            entries = tuple(SpectrumEntry.from_dict(e) for e in d["entries"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed spectrum record: {exc}") from exc
        return cls(entries=entries, window=window)


@dataclass(frozen=True)
class WeightTable:
    """Per-level coupling weights X_k = alpha * ||v_k||^2.

    weights maps every represented level k to X_k (zeros kept for inactive
    levels of a forward table); active lists the levels whose projection norm
    exceeds the floor. alpha is None for tables recovered from spectra alone,
    where only the products X_k are known.
    """

    weights: dict[int, float]
    alpha: Optional[float]
    active: tuple[int, ...]

    def active_weights(self) -> dict[int, float]:
        return {k: self.weights[k] for k in self.active}

    def norms(self) -> dict[int, float]:
        if self.alpha is None:
            raise ValueError("weight table carries no coupling constant")
        return {k: x / self.alpha for k, x in self.weights.items()}

    def active_poles(self) -> list[float]:
        return [level_value(k) for k in sorted(self.active)]


def weight_table(op: OperatorSpec) -> WeightTable:
    norms = op.potential.level_norms()
    weights = {k: op.alpha * n for k, n in sorted(norms.items())}
    active = tuple(k for k in sorted(norms) if norms[k] > WEIGHT_FLOOR)
    return WeightTable(weights=weights, alpha=op.alpha, active=active)


def secular_roots(table: WeightTable, z_window: float) -> list[float]:
    """All real roots of q(z) = 1 + sum_k X_k/(4k^2 - z) up to z_window.

    Exactly one root lies in each open gap between consecutive active poles;
    one more sits above the top pole for positive coupling, below the bottom
    pole for negative coupling. Negative coupling is solved mirrored: z -> -z
    gives positive weights with the exterior root on top. The poles 4k^2
    differ by exact integers, which numerics.secular_equation_roots needs to
    solve every root at once, each as an offset from its nearer pole, to
    within about an ulp.
    """
    if not table.active:
        raise DegenerateOperatorError(
            "no active level: spectrum equals the unperturbed one"
        )
    alpha = table.alpha
    if alpha is None:
        alpha = math.copysign(1.0, sum(table.weights[k] for k in table.active))
    if alpha == 0.0:
        raise DegenerateOperatorError("zero coupling: operator is unperturbed")
    if z_window <= level_value(max(table.active)):
        raise ValueError("window must exceed the largest active pole")
    sign = 1.0 if alpha > 0 else -1.0
    levels = sorted(table.active, reverse=sign < 0)
    x = [sign * table.weights[k] for k in levels]
    if min(x) <= 0.0:
        raise ValueError("active weights must be nonzero and share the coupling's sign")
    poles = np.array([sign * level_value(k) for k in levels])
    roots = sign * secular_equation_roots(poles, np.array(x))
    return sorted(float(r) for r in roots if r <= z_window)


def classify_spectrum(op: OperatorSpec, z_window: float) -> ClassifiedSpectrum:
    """Full classified spectrum up to z_window (negative part included)."""
    if z_window < 4.0:
        raise ValueError("window must be at least 4")
    table = weight_table(op)
    mus = secular_roots(table, z_window)

    active = set(table.active)
    inactive = [k for k in levels_upto(z_window) if k not in active]
    inactive_set = set(inactive)

    entries: list[SpectrumEntry] = []
    coincident = set()
    for mu in mus:
        # levels are at least 4 apart: only the nearest can be within
        # COINCIDENCE_TOL of a root
        k = round(math.sqrt(max(mu, 0.0)) / 2.0)
        if k in inactive_set and abs(mu - level_value(k)) <= COINCIDENCE_TOL:
            coincident.add(k)
        else:
            entries.append(SpectrumEntry(mu, 1, SpectrumClass.SECULAR))
    for k in inactive:
        if k in coincident:
            entries.append(
                SpectrumEntry(
                    level_value(k),
                    level_multiplicity(k) + 1,
                    SpectrumClass.COINCIDENT,
                )
            )
        else:
            entries.append(
                SpectrumEntry(level_value(k), level_multiplicity(k), SpectrumClass.UNCHANGED)
            )
    for k in sorted(active):
        if k == 0:
            continue  # active constant level loses its only eigenvalue
        if level_value(k) <= z_window:
            entries.append(SpectrumEntry(level_value(k), 1, SpectrumClass.REDUCED))
    entries.sort(key=lambda e: e.z)
    return ClassifiedSpectrum(entries=tuple(entries), window=float(z_window))


# --- eigenfunctions -----------------------------------------------------


def _segment_transforms(spec, lam, x):
    """J+(x), J-(x): integrals of e^{+-i lam t} v(t) over [0, x]."""
    ms, amps = exp_coefficients(spec)
    jp = np.zeros_like(x, dtype=complex)
    jm = np.zeros_like(x, dtype=complex)
    for m, a in zip(ms, amps):
        wp = 1j * (lam + 2.0 * m)
        wm = 1j * (-lam + 2.0 * m)
        jp = jp + a * x * expm1_over(wp * x)
        jm = jm + a * x * expm1_over(wm * x)
    return jp, jm


def _secular_phase_terms(spec, lam, x):
    """The four phase-weighted segment integrals that u and u' combine."""
    jp, jm = _segment_transforms(spec, lam, np.append(x, math.pi))
    jp_pi, jm_pi = jp[-1], jm[-1]
    jp, jm = jp[:-1].reshape(np.shape(x)), jm[:-1].reshape(np.shape(x))
    # inverse phases formed explicitly: lam may be imaginary (negative z)
    ph_a = np.exp(1j * lam * (math.pi / 2.0 - x))
    ph_a_inv = np.exp(-1j * lam * (math.pi / 2.0 - x))
    ph_b = np.exp(1j * lam * (math.pi / 2.0 + x))
    ph_b_inv = np.exp(-1j * lam * (math.pi / 2.0 + x))
    return ph_a * jp, ph_a_inv * jm, ph_b * (jm_pi - jm), ph_b_inv * (jp_pi - jp)


def _secular_u(spec, lam, x):
    """Closed-form eigenfunction for a secular eigenvalue z = lam^2:
    u(x) = int_0^x cos(lam(pi/2 - x + t)) v(t) dt
         + int_x^pi cos(lam(pi/2 - t + x)) v(t) dt."""
    a, a_inv, b, b_inv = _secular_phase_terms(spec, lam, x)
    return 0.5 * (a + a_inv) + 0.5 * (b + b_inv)


def _secular_u_prime(spec, lam, x):
    a, a_inv, b, b_inv = _secular_phase_terms(spec, lam, x)
    return lam * ((a - a_inv) / 2j - (b - b_inv) / 2j)


@dataclass(frozen=True)
class Eigenfunction:
    """Evaluable eigenfunction with an analytic first derivative.

    kind "secular" carries lam = sqrt(z) (imaginary for negative z); kinds
    "basis" and "reduced" carry the level index instead.
    """

    kind: str
    evaluator: Callable
    derivative_evaluator: Callable
    level: Optional[int] = None
    lam: Optional[complex] = None

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        val = self.evaluator(np.atleast_1d(arr))
        return float(val[0]) if arr.ndim == 0 else val

    def derivative(self, x):
        arr = np.asarray(x, dtype=float)
        val = self.derivative_evaluator(np.atleast_1d(arr))
        return float(val[0]) if arr.ndim == 0 else val


def _l2_norm(fn) -> float:
    x, w = gauss_legendre_rule(0.0, math.pi)
    return math.sqrt(float(np.sum(w * fn(x) ** 2)))


def _maybe_normalized(fn: Eigenfunction, normalize: bool) -> Eigenfunction:
    if not normalize:
        return fn
    nrm = _l2_norm(fn)
    if nrm == 0.0:
        raise ValueError("cannot normalize a vanishing eigenfunction")
    ev, dev = fn.evaluator, fn.derivative_evaluator
    return Eigenfunction(
        kind=fn.kind,
        evaluator=lambda x: ev(x) / nrm,
        derivative_evaluator=lambda x: dev(x) / nrm,
        level=fn.level,
        lam=fn.lam,
    )


def _basis_functions(k: int) -> list[Eigenfunction]:
    if k == 0:
        return [
            Eigenfunction(
                kind="basis",
                evaluator=lambda x: np.full_like(x, 1.0 / SQRT_PI),
                derivative_evaluator=lambda x: np.zeros_like(x),
                level=0,
            )
        ]
    return [
        Eigenfunction(
            kind="basis",
            evaluator=lambda x, k=k: SQRT_2_OVER_PI * np.cos(2 * k * x),
            derivative_evaluator=lambda x, k=k: -2 * k * SQRT_2_OVER_PI * np.sin(2 * k * x),
            level=k,
        ),
        Eigenfunction(
            kind="basis",
            evaluator=lambda x, k=k: SQRT_2_OVER_PI * np.sin(2 * k * x),
            derivative_evaluator=lambda x, k=k: 2 * k * SQRT_2_OVER_PI * np.cos(2 * k * x),
            level=k,
        ),
    ]


def _secular_eigenfunction(op: OperatorSpec, z: float) -> Eigenfunction:
    lam = complex(math.sqrt(z)) if z >= 0.0 else 1j * math.sqrt(-z)
    spec = op.potential
    return Eigenfunction(
        kind="secular",
        evaluator=lambda x: np.real(_secular_u(spec, lam, x)),
        derivative_evaluator=lambda x: np.real(_secular_u_prime(spec, lam, x)),
        lam=lam,
    )


def _resolvent_eigenfunction(op: OperatorSpec, z: float) -> Eigenfunction:
    """Renormalized secular eigenvector sum_k v_k(x)/(4k^2 - z): the closed
    form above is -2 lam sin(pi lam / 2) times this, so it vanishes
    identically when the root lands on the even lattice (coincidences); this
    limit direction is the surviving eigenvector there. Levels below the
    weight floor count as unperturbed, as in the classification, so the
    coincident level itself carries no term."""
    spec = op.potential
    active = weight_table(op).active
    terms = []
    c0, _ = spec.coefficient(0)
    if 0 in active:
        terms.append((0, c0 / SQRT_PI, 0.0))
    for k, c, s in spec.pairs:
        if k in active:
            terms.append((k, SQRT_2_OVER_PI * c, SQRT_2_OVER_PI * s))

    def ev(x):
        out = np.zeros_like(x)
        for k, cc, ss in terms:
            den = level_value(k) - z
            out = out + (cc * np.cos(2 * k * x) + ss * np.sin(2 * k * x)) / den
        return out

    def dev(x):
        out = np.zeros_like(x)
        for k, cc, ss in terms:
            den = level_value(k) - z
            out = out + 2 * k * (-cc * np.sin(2 * k * x) + ss * np.cos(2 * k * x)) / den
        return out

    return Eigenfunction(kind="secular", evaluator=ev, derivative_evaluator=dev)


def _require_member(op: OperatorSpec, entry: SpectrumEntry) -> None:
    """Reject entries that are not eigenvalues of this operator."""
    table = weight_table(op)
    tag = entry.tag
    if tag in (SpectrumClass.UNCHANGED, SpectrumClass.COINCIDENT):
        k = int(round(math.sqrt(max(entry.z, 0.0)) / 2.0))
        if abs(entry.z - level_value(k)) > COINCIDENCE_TOL or k in table.active:
            raise ValueError(f"z={entry.z} is not an unperturbed level of this operator")
    if tag in (SpectrumClass.SECULAR, SpectrumClass.COINCIDENT):
        # restricted to the active levels: a near-floor inactive level with a
        # positive norm would be a pole at a valid coincident entry
        norms = op.potential.level_norms()
        try:
            q_val = secular_function(op.alpha, {k: norms[k] for k in table.active}, entry.z)
        except PoleError:
            raise ValueError(f"z={entry.z} sits on a weight-carrying level") from None
        if abs(q_val) > 1e-6:
            raise ValueError(f"z={entry.z} does not solve the secular equation")
    if tag is SpectrumClass.REDUCED:
        k = int(round(math.sqrt(max(entry.z, 0.0)) / 2.0))
        if abs(entry.z - level_value(k)) > COINCIDENCE_TOL or k not in table.active:
            raise ValueError(f"z={entry.z} is not a weight-carrying level of this operator")


def eigenfunctions(
    op: OperatorSpec, entry: SpectrumEntry, normalize: bool = False
) -> tuple[Eigenfunction, ...]:
    """Eigenfunctions spanning the eigenspace of one classified entry.

    unchanged -> the basis pair (single constant at k=0); reduced -> the
    combination orthogonal to the potential's level projection; secular ->
    the closed-form function of sqrt(z); coincident -> basis plus the
    renormalized secular vector. Entries that are not eigenvalues of the
    operator are rejected.
    """
    _require_member(op, entry)
    tag = entry.tag
    if tag is SpectrumClass.UNCHANGED:
        k = int(round(math.sqrt(entry.z) / 2.0))
        fns = _basis_functions(k)
    elif tag is SpectrumClass.REDUCED:
        k = int(round(math.sqrt(entry.z) / 2.0))
        c, s = op.potential.coefficient(k)
        nrm = math.hypot(c, s)
        if nrm == 0.0:
            raise ValueError(f"level {k} carries no potential projection")
        cs, ss = c / nrm, s / nrm
        fns = [
            Eigenfunction(
                kind="reduced",
                evaluator=lambda x, k=k, cs=cs, ss=ss: SQRT_2_OVER_PI
                * (ss * np.cos(2 * k * x) - cs * np.sin(2 * k * x)),
                derivative_evaluator=lambda x, k=k, cs=cs, ss=ss: 2
                * k
                * SQRT_2_OVER_PI
                * (-ss * np.sin(2 * k * x) - cs * np.cos(2 * k * x)),
                level=k,
            )
        ]
    elif tag is SpectrumClass.SECULAR:
        fns = [_secular_eigenfunction(op, entry.z)]
    elif tag is SpectrumClass.COINCIDENT:
        k = int(round(math.sqrt(entry.z) / 2.0))
        fns = _basis_functions(k) + [_resolvent_eigenfunction(op, entry.z)]
    else:  # pragma: no cover
        raise ValueError(f"unknown spectrum tag {tag!r}")
    return tuple(_maybe_normalized(f, normalize) for f in fns)
