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
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DegenerateOperatorError, MalformedSpectrumError
from .numerics import secular_equation_roots, secular_eval
from .potential import OperatorSpec, PotentialSpec, as_float, as_int, build_potential, evaluate

WEIGHT_FLOOR = 1e-13
COINCIDENCE_TOL = 1e-9
MAX_LEVELS = 10 ** 6  # most levels a classified spectrum lists: a window below 4e12


def level_value(k: int) -> float:
    """Unperturbed eigenvalue at index k."""
    return 4.0 * k * k


def nearest_level(z: float) -> int:
    """Index k of the level whose 2k is nearest sqrt(z) (0 for z <= 0)."""
    return round(math.sqrt(max(z, 0.0)) / 2.0)


def level_multiplicity(k: int) -> int:
    return 1 if k == 0 else 2


def levels_upto(z_max: float) -> list[int]:
    """Indices k with 4k^2 <= z_max."""
    return list(range(0, int(math.floor(math.sqrt(z_max) / 2.0)) + 1))


class SpectrumClass(str, Enum):
    UNCHANGED = "unchanged"
    REDUCED = "reduced"
    SECULAR = "secular"
    COINCIDENT = "coincident"


# the class of each multiplicity: off the lattice 4k^2, at k = 0, at k >= 1
_OFF_LATTICE = {1: SpectrumClass.SECULAR}
_LEVEL_ZERO = {1: SpectrumClass.UNCHANGED, 2: SpectrumClass.COINCIDENT}
_LEVEL = {1: SpectrumClass.REDUCED, 2: SpectrumClass.UNCHANGED, 3: SpectrumClass.COINCIDENT}


@dataclass(frozen=True)
class SpectrumEntry:
    """An eigenvalue with its multiplicity. Its class, the tag, is derived
    from the two; a pair that no class has raises MalformedSpectrumError."""

    z: float
    multiplicity: int
    tag: SpectrumClass = field(init=False)

    def __post_init__(self):
        z, m = self.z, self.multiplicity
        if not math.isfinite(z):
            raise MalformedSpectrumError(f"non-finite eigenvalue z={z}")
        k = nearest_level(z)
        classes = _OFF_LATTICE if z != 4.0 * k * k else _LEVEL_ZERO if k == 0 else _LEVEL
        if m not in classes:
            raise MalformedSpectrumError(f"no spectrum class has z={z} with multiplicity {m!r}")
        object.__setattr__(self, "tag", classes[m])

    def to_dict(self) -> dict:
        return {"z": float(self.z), "m": int(self.multiplicity), "tag": self.tag.value}

    @classmethod
    def from_dict(cls, d: dict) -> "SpectrumEntry":
        entry = cls(z=as_float(d["z"]), multiplicity=as_int(d["m"]))
        if SpectrumClass(d["tag"]) is not entry.tag:
            got = f"z={entry.z}, m={entry.multiplicity} is {entry.tag.value}"
            raise MalformedSpectrumError(f"{got}, not {d['tag']}")
        return entry


@dataclass(frozen=True)
class ClassifiedSpectrum:
    """Distinct eigenvalues with multiplicities, complete up to a finite
    window: every level 4k^2 in (0, window] is listed, and nothing beyond."""

    entries: tuple[SpectrumEntry, ...]
    window: float

    def __post_init__(self):
        window = self.window
        if not math.isfinite(window):
            raise MalformedSpectrumError(f"spectrum window {window} is not finite")
        zs = [e.z for e in self.entries]
        last = {z: i for i, z in enumerate(zs)}
        if len(last) != len(zs):
            twice = next(z for i, z in enumerate(zs) if last[z] != i)  # the first z listed again
            raise MalformedSpectrumError(f"spectrum lists z={twice} twice")
        if zs and max(zs) > window:
            raise MalformedSpectrumError(f"z={max(zs)} lies beyond the spectrum window {window}")
        listed = sum(e.tag is not SpectrumClass.SECULAR and e.z > 0.0 for e in self.entries)
        levels = math.floor(math.sqrt(max(window, 0.0)) / 2.0)
        if listed != levels:
            wanted = f"{levels} levels 4k^2 in (0, {window}]"
            raise MalformedSpectrumError(f"spectrum lists {listed} of the {wanted}")

    def to_dict(self) -> dict:
        return {
            "window": float(self.window),
            "entries": [e.to_dict() for e in self.entries],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ClassifiedSpectrum":
        try:
            window = as_float(d["window"])
            entries = tuple(SpectrumEntry.from_dict(e) for e in d["entries"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed spectrum record: {exc}") from exc
        return cls(entries=entries, window=window)


@dataclass(frozen=True)
class WeightTable:
    """Per-level coupling weights X_k = alpha * ||v_k||^2.

    weights maps every represented level k to X_k (zeros kept for inactive
    levels of a forward table); active lists the levels whose projection norm
    exceeds the floor. The active weights carry the coupling's sign.
    """

    weights: dict[int, float]
    active: tuple[int, ...]


def weight_table(op: OperatorSpec) -> WeightTable:
    norms = op.potential.level_norms()
    weights = {k: op.alpha * n for k, n in sorted(norms.items())}
    active = tuple(k for k in sorted(norms) if norms[k] > WEIGHT_FLOOR)
    return WeightTable(weights=weights, active=active)


def secular_roots(table: WeightTable, z_window: float) -> list[float]:
    """All real roots of q(z) = 1 + sum_k X_k/(4k^2 - z) up to z_window.

    Exactly one root lies in each open gap between consecutive active poles;
    one more sits above the top pole for positive coupling, below the bottom
    pole for negative coupling, the sign the active weights share. Negative
    coupling is solved mirrored: z -> -z gives positive weights with the
    exterior root on top. The poles 4k^2 differ by exact integers, which
    numerics.secular_equation_roots needs to solve each root as an offset
    from its nearer pole to within about an ulp.
    """
    if not table.active:
        raise DegenerateOperatorError(
            "no active level: spectrum equals the unperturbed one"
        )
    x = [table.weights[k] for k in table.active]
    if not any(x):
        raise DegenerateOperatorError("zero coupling: operator is unperturbed")
    if z_window <= level_value(max(table.active)):
        raise ValueError("window must exceed the largest active pole")
    sign = 1.0 if max(x) > 0.0 else -1.0
    levels = sorted(table.active, reverse=sign < 0)
    x = [sign * table.weights[k] for k in levels]
    if min(x) <= 0.0:
        raise ValueError("active weights must be nonzero and share the coupling's sign")
    poles = np.array([sign * level_value(k) for k in levels])
    roots = sign * secular_equation_roots(poles, np.array(x))
    return sorted(float(r) for r in roots if r <= z_window)


def classify_spectrum(op: OperatorSpec, z_window: float) -> ClassifiedSpectrum:
    """Full classified spectrum up to z_window (negative part included)."""
    if not z_window >= 4.0:
        raise ValueError(f"window must be at least 4, got {z_window}")
    if math.sqrt(z_window) / 2.0 >= MAX_LEVELS:
        raise OverflowError(f"window {z_window} spans more than MAX_LEVELS = {MAX_LEVELS} levels")
    table = weight_table(op)
    active = set(table.active)
    # every level in the window less the eigenvalue its weight takes (level
    # 0 has only one), plus one for each secular root that lands on it
    mult = {level_value(k): level_multiplicity(k) - (k in active) for k in levels_upto(z_window)}
    for mu in secular_roots(table, z_window):
        # levels are at least 4 apart: only the nearest can be within
        # COINCIDENCE_TOL of a root, and it may lie past the window
        k = nearest_level(mu)
        if k not in active and level_value(k) in mult and abs(mu - level_value(k)) <= COINCIDENCE_TOL:
            mult[level_value(k)] += 1
        else:
            mult[mu] = 1
    entries = tuple(SpectrumEntry(z, m) for z, m in sorted(mult.items()) if m)
    return ClassifiedSpectrum(entries=entries, window=float(z_window))


# --- eigenfunctions -----------------------------------------------------


@dataclass(frozen=True)
class Eigenfunction:
    """Eigenfunction held as a finite series in the working basis, the
    unperturbed operator's eigenbasis: value and derivative are finite sums
    (potential.evaluate, on [0, pi]) and the squared norm is the sum of the
    squared coefficients.

    kind "secular" carries lam = sqrt(z) (imaginary for negative z); kinds
    "basis" and "reduced" carry the level index instead.
    """

    kind: str
    series: PotentialSpec
    level: Optional[int] = None
    lam: Optional[complex] = None

    def __call__(self, x):
        return evaluate(self.series, x)

    def derivative(self, x):
        s = self.series
        pairs = tuple((k, 2 * k * sk, -2 * k * ck) for k, ck, sk in s.pairs)
        return evaluate(PotentialSpec(c0=0.0, pairs=pairs), x)


def _basis_functions(k: int) -> tuple[Eigenfunction, ...]:
    if k == 0:
        return (Eigenfunction("basis", build_potential(1.0), level=0),)
    return tuple(
        Eigenfunction("basis", build_potential(0.0, [(k, c, s)]), level=k)
        for c, s in ((1.0, 0.0), (0.0, 1.0))
    )


def _resolvent_series(spec, z, levels, scale, normalize) -> PotentialSpec:
    """scale * sum_k v_k / (4k^2 - z) over the given levels: the unperturbed
    resolvent at z applied to those levels of v."""
    c0 = scale * spec.c0 / (level_value(0) - z) if 0 in levels else 0.0
    pairs = [
        (k, scale * c / (level_value(k) - z), scale * s / (level_value(k) - z))
        for k, c, s in spec.pairs
        if k in levels
    ]
    return build_potential(c0, pairs, normalize=normalize)


def _secular_scale(z: float, sign_only: bool) -> float:
    """-2 lam sin(pi lam / 2) at z = lam^2: the paper's closed form, the
    periodic Green's function applied to v, is this times the resolvent sum.
    The sine is taken of lam - 2k, formed from the exact difference z - 4k^2
    to the nearest level, so the factor keeps its relative accuracy next to
    the lattice. For z = -s^2 it is 2s sinh(pi s / 2): positive, and beyond
    the float range below about z = -2e5."""
    if z < 0.0:
        if sign_only:
            return 1.0
        s = math.sqrt(-z)
        try:
            return 2.0 * s * math.sinh(math.pi * s / 2.0)
        except OverflowError:
            raise OverflowError(
                f"unnormalized eigenfunction at z={z} exceeds the float range; "
                "use normalize=True"
            ) from None
    k = nearest_level(z)
    lam = math.sqrt(z)
    offset = (z - level_value(k)) / (lam + 2.0 * k)
    scale = -2.0 * lam * (-1.0) ** k * math.sin(math.pi * offset / 2.0)
    return math.copysign(1.0, scale) if sign_only else scale


def _require_member(op: OperatorSpec, entry: SpectrumEntry) -> None:
    """Reject entries that are not eigenvalues of this operator."""
    table = weight_table(op)
    tag = entry.tag
    if tag is not SpectrumClass.SECULAR:
        # an entry on the lattice: its level loses an eigenvalue exactly
        # when it carries weight
        if (nearest_level(entry.z) in table.active) != (tag is SpectrumClass.REDUCED):
            raise ValueError(f"z={entry.z} is not a {tag.value} level of this operator")
    if tag in (SpectrumClass.SECULAR, SpectrumClass.COINCIDENT):
        # q over the active levels: a near-floor inactive level with a
        # positive norm would be a pole at a valid coincident entry
        gaps = np.array([level_value(j) for j in table.active]) - entry.z
        x = np.array([table.weights[j] for j in table.active])
        q, dq, rounding = secular_eval(gaps, x)
        q = float(q)
        # a root within reach of z leaves |q(z)| at most reach times the
        # slope of (p - z) q over p - z, p the nearest pole: (p - z) q is
        # smooth at p where q is steep, and at a root the two slopes agree
        near = min(gaps.tolist(), key=abs, default=math.inf)  # q = 1 without an active level
        slope = abs(float(dq) - q / near)
        reach = 8.0 * math.ulp(entry.z)
        if tag is SpectrumClass.COINCIDENT:
            reach += COINCIDENCE_TOL
        if abs(q) > slope * reach + rounding:
            raise ValueError(f"z={entry.z} does not solve the secular equation")


def eigenfunctions(
    op: OperatorSpec, entry: SpectrumEntry, normalize: bool = False
) -> tuple[Eigenfunction, ...]:
    """Eigenfunctions spanning the eigenspace of one classified entry.

    unchanged -> the basis pair (single constant at k=0); reduced -> the
    unit combination orthogonal to the potential's level projection;
    secular -> the paper's closed form, scale(z) * sum_k v_k/(4k^2 - z) over
    the levels v reaches; coincident -> basis plus the same sum over the
    active levels without the scale, which vanishes on the lattice: the
    renormalized secular vector. normalize divides a secular vector by its
    Parseval norm and keeps only the sign of the scale, so it stays finite
    at any depth; basis and reduced functions are unit vectors already.
    Entries that are not eigenvalues of the operator are rejected.
    """
    _require_member(op, entry)
    spec, z, tag = op.potential, entry.z, entry.tag
    k = nearest_level(z)
    if tag is SpectrumClass.UNCHANGED:
        return _basis_functions(k)
    if tag is SpectrumClass.REDUCED:
        c, s = spec.coefficient(k)
        nrm = math.hypot(c, s)
        series = build_potential(0.0, [(k, s / nrm, -c / nrm)])
        return (Eigenfunction("reduced", series, level=k),)
    if tag is SpectrumClass.SECULAR:
        lam = complex(math.sqrt(z)) if z >= 0.0 else 1j * math.sqrt(-z)
        levels = {j for j, n in spec.level_norms().items() if n > 0.0}
        series = _resolvent_series(spec, z, levels, _secular_scale(z, normalize), normalize)
        return (Eigenfunction("secular", series, lam=lam),)
    # coincident
    series = _resolvent_series(spec, z, weight_table(op).active, 1.0, normalize)
    return _basis_functions(k) + (Eigenfunction("secular", series),)
