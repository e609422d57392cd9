"""Inverse problem: recover coupling weights from classified spectra,
reconstruct the real potential from three spectra, recover magnitude data
from two spectra, and check/synthesize admissible spectral data.

For a finite-order potential the secular function is the exact rational
ratio of two finite products, so every recovery step below is algebraically
exact up to root-solving precision: the normalization constant is the
closed-form limit of the product along the imaginary axis, and per-level
weights are residues of the product form with the singular factor cancelled
analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import charfn
from .errors import (
    DegenerateOperatorError,
    InconsistentSpectraError,
    MalformedSpectrumError,
)
from .potential import OperatorSpec, PotentialSpec, build_potential
from .spectrum import WEIGHT_FLOOR, ClassifiedSpectrum, SpectrumClass, WeightTable

_PI_SQ = math.pi ** 2
CONSISTENCY_TOL = 1e-6
_COMPLEX_STEP = 1e-20  # Im D(x + ih)/h = D'(x) - h^2 D'''(x)/6


@dataclass(frozen=True)
class SpectralData:
    """Secular content of one classified spectrum.

    active_levels are the unperturbed eigenvalues 4k^2 that carry potential
    weight; mus are the secular roots (coincident ones included); window
    bounds the region where the data is complete.
    """

    active_levels: tuple[float, ...]
    mus: tuple[float, ...]
    reduced_levels: tuple[float, ...]
    window: float

    @classmethod
    def from_classified(cls, cs: ClassifiedSpectrum) -> "SpectralData":
        mus = []
        reduced = []
        zero_level_inactive = False
        for e in cs.entries:
            if e.tag in (SpectrumClass.SECULAR, SpectrumClass.COINCIDENT):
                mus.append(e.z)
            if e.tag is SpectrumClass.REDUCED:
                reduced.append(e.z)
            if e.z == 0.0 and e.tag in (SpectrumClass.UNCHANGED, SpectrumClass.COINCIDENT):
                zero_level_inactive = True
        active = list(reduced)
        if not zero_level_inactive:
            # an active constant level leaves no eigenvalue behind; its
            # absence from the entries is the signal
            active.append(0.0)
        return cls(
            active_levels=tuple(sorted(active)),
            mus=tuple(sorted(mus)),
            reduced_levels=tuple(sorted(reduced)),
            window=cs.window,
        )

    def level_indices(self) -> list[int]:
        return [int(round(math.sqrt(z) / 2.0)) for z in self.active_levels]

    def orientation(self) -> int:
        """+1 when secular roots sit above their paired poles (positive
        coupling), -1 when below."""
        check_interlacing(self)
        return 1 if self.mus[-1] > self.active_levels[-1] else -1


def check_interlacing(data: SpectralData) -> int:
    """Validate strict alternation of secular roots with active levels.

    Returns the orientation (+1/-1); raises MalformedSpectrumError when the
    counts disagree or alternation fails.
    """
    poles = sorted(data.active_levels)
    mus = sorted(data.mus)
    if not poles:
        raise DegenerateOperatorError("no active level in spectral data")
    if len(mus) != len(poles):
        raise MalformedSpectrumError(
            f"expected {len(poles)} secular roots for {len(poles)} active levels, "
            f"got {len(mus)}"
        )
    above = mus[-1] > poles[-1]
    below = mus[0] < poles[0]
    if above == below:
        raise MalformedSpectrumError("secular roots must overshoot exactly one end")
    if above:
        bounds = poles + [math.inf]
        ok = all(bounds[j] < mus[j] < bounds[j + 1] for j in range(len(mus)))
    else:
        bounds = [-math.inf] + poles
        ok = all(bounds[j] < mus[j] < bounds[j + 1] for j in range(len(mus)))
    if not ok:
        raise MalformedSpectrumError("secular roots do not alternate with active levels")
    return 1 if above else -1


def _ratio_product(data: SpectralData, z: complex) -> complex:
    """prod (1 - z/mu) / (pi^2 z' prod (1 - z/p)) with the level-0 pole
    represented by the explicit pi^2 z factor; factors are interleaved to
    keep intermediate magnitudes bounded."""
    poles = sorted(data.active_levels)
    mus = sorted(data.mus)
    out = 1.0 + 0.0j
    nontrivial = [p for p in poles if p != 0.0]
    has_zero = len(nontrivial) != len(poles)
    for mu, p in zip(mus, nontrivial):
        out *= (1.0 - z / mu) / (1.0 - z / p)
    for mu in mus[len(nontrivial):]:
        out *= 1.0 - z / mu
    out /= _PI_SQ
    if has_zero:
        out /= z
    return out


def _pairs(data: SpectralData):
    """Nonzero active levels p, the secular roots paired with them (sorted
    alike, as in _ratio_product), the unpaired largest root (None without a
    level-0 pole)."""
    poles = np.array(sorted(data.active_levels))
    mus = np.array(sorted(data.mus))
    nontrivial = poles[poles != 0.0]
    m = len(nontrivial)
    return nontrivial, mus[:m], (float(mus[m]) if len(mus) > m else None)


def normalization_constant(data: SpectralData) -> float:
    """Constant A making A * ratio_product -> 1 on the imaginary axis: the
    exact z -> i inf limit of the finite product, where each paired factor
    tends to p/mu and the unpaired root of a level-0 pole leaves -1/mu_max,
    A = pi^2 / (prod p_j/mu_j * (-1/mu_max if level 0 is active))."""
    return _normalization(*_pairs(data))


def _normalization(poles, mus, extra) -> float:
    limit = float(np.prod(poles / mus))
    if extra is not None:
        limit *= -1.0 / extra
    return _PI_SQ / limit


def spectral_ratio(data: SpectralData, z) -> complex:
    """The normalized ratio function F(z): 1 + sum X_k/(4k^2 - z) for data
    coming from an actual operator."""
    return normalization_constant(data) * _ratio_product(data, z)


def weights_from_spectrum(data: SpectralData) -> WeightTable:
    """Per-level weights X_k = alpha * ||v_k||^2 as residues of the
    normalized ratio function, singular factor cancelled analytically.

    The residue at p_i is A/pi^2 * prod_j (1 - p_i/mu_j) / prod_{l != i}
    (1 - p_i/p_l) (times p_i without a level-0 pole, times the unpaired
    root's factor with one). Each root factor is divided by the factor of
    the level paired with it, (p_j/mu_j) (mu_j - p_i)/(p_j - p_i), which
    stays near one, so the products cannot overflow at high order.
    """
    check_interlacing(data)
    poles, mus, extra = _pairs(data)
    a_const = _normalization(poles, mus, extra)
    across = poles[None, :] - poles[:, None]
    np.fill_diagonal(across, poles)  # leaves (mu_i - p_i)/mu_i on the diagonal
    factors = (poles / mus)[None, :] * (mus[None, :] - poles[:, None]) / across
    residues = np.prod(factors, axis=1)
    residues *= poles if extra is None else (extra - poles) / extra
    weights: dict[int, float] = {}
    if extra is not None:
        weights[0] = -a_const / _PI_SQ
    for p, r in zip(poles.tolist(), residues.tolist()):
        weights[int(round(math.sqrt(p) / 2.0))] = a_const * r / _PI_SQ
    return WeightTable(weights=weights, alpha=None, active=tuple(weights))


def alpha_and_norms(
    table: WeightTable, orientation: Optional[int] = None
) -> tuple[float, dict[int, float]]:
    """Coupling constant and level norms under the unit-norm convention.

    alpha = sum of weights (since sum ||v_k||^2 = 1); the sign is
    cross-checked against the interlacing orientation when provided.
    """
    total = sum(table.weights.values())
    if total == 0.0:
        raise DegenerateOperatorError("all recovered weights vanish")
    if orientation is not None and math.copysign(1.0, total) != orientation:
        raise InconsistentSpectraError(
            "sign of summed weights contradicts the interlacing orientation"
        )
    alpha = total
    norms = {k: x / alpha for k, x in table.weights.items()}
    return alpha, norms


def weights_from_char_derivative(op: OperatorSpec, max_level: Optional[int] = None) -> WeightTable:
    """Forward-side cross-check: weights from the characteristic function.

    X_0 = -(1/pi^2) D(0) and X_p = -(4p/pi^2) D'(2p), with the complex-step
    derivative D'(2p) = Im D(2p + ih)/h (Squire-Trapp). D is real on the
    real axis and vanishes at 2p with the factors 1 - e^{-+i pi lam} of its
    edge terms. At 2p + ih those factors are O(h) to full relative
    precision and multiply the rest, so D(2p + ih) = ih D'(2p) is formed
    without cancellation: the derivative is exact to rounding, and every
    level comes from one evaluation. A level is active under weight_table's
    rule, |X_p / alpha| above WEIGHT_FLOOR.
    """
    ctx = charfn.CharContext(op)
    cap = op.potential.K if max_level is None else max_level
    levels = np.arange(1, cap + 1)
    d = charfn.char_perturbed(ctx, np.append(0.0, 2.0 * levels + 1j * _COMPLEX_STEP))
    x = np.append(-d[0].real, -4.0 * levels * d[1:].imag / _COMPLEX_STEP) / _PI_SQ
    weights = dict(enumerate(x.tolist()))
    alpha = op.alpha
    active = tuple(k for k, w in weights.items() if alpha != 0.0 and abs(w / alpha) > WEIGHT_FLOOR)
    return WeightTable(weights=weights, alpha=alpha, active=active)


@dataclass(frozen=True)
class ThreeSpectra:
    """Classified spectra of the operator, its odd-probe companion, and its
    even-probe companion, plus the reconstruction order."""

    base: SpectralData
    shifted: SpectralData
    squared: SpectralData
    order: int

    def __post_init__(self):
        need = 4.0 * (self.order + 1) ** 2
        for name, data in (("base", self.base), ("shifted", self.shifted), ("squared", self.squared)):
            if data.window < need:
                raise ValueError(
                    f"{name} spectrum window {data.window} below required {need}"
                )

    @classmethod
    def from_classified(
        cls,
        base: ClassifiedSpectrum,
        shifted: ClassifiedSpectrum,
        squared: ClassifiedSpectrum,
        order: int,
    ) -> "ThreeSpectra":
        return cls(
            base=SpectralData.from_classified(base),
            shifted=SpectralData.from_classified(shifted),
            squared=SpectralData.from_classified(squared),
            order=order,
        )


def _norms_scaled(data: SpectralData, alpha: float) -> dict[int, float]:
    table = weights_from_spectrum(data)
    return {k: x / alpha for k, x in table.weights.items()}


def invert_three_spectra(ts: ThreeSpectra) -> tuple[float, PotentialSpec]:
    """Reconstruct (alpha, v) from the three spectra.

    The base spectrum fixes alpha and the level norms of v (unit-norm
    convention); the companions' level norms then expose the sine and cosine
    coefficients linearly through the probe shifts. A per-level consistency
    check (cos^2 + sin^2 against the base norm) guards mismatched inputs.
    """
    orientation = check_interlacing(ts.base)
    base_table = weights_from_spectrum(ts.base)
    alpha, norms_v = alpha_and_norms(base_table, orientation=orientation)
    norms_w = _norms_scaled(ts.shifted, alpha)
    norms_wh = _norms_scaled(ts.squared, alpha)

    sqrt_2pi = math.sqrt(2.0 * math.pi)
    pairs = []
    for k in range(1, ts.order + 1):
        nv = norms_v.get(k, 0.0)
        nw = norms_w.get(k, 0.0)
        nwh = norms_wh.get(k, 0.0)
        s_k = (k / sqrt_2pi) * (nv - nw + math.pi / (2.0 * k ** 2))
        c_k = (k ** 2 / sqrt_2pi) * (nwh - nv - math.pi / (2.0 * k ** 4))
        mismatch = abs(c_k ** 2 + s_k ** 2 - nv)
        if mismatch > CONSISTENCY_TOL:
            raise InconsistentSpectraError(
                f"level {k}: recovered coefficients violate the norm identity "
                f"by {mismatch:.3e}"
            )
        pairs.append((k, c_k, s_k))

    nv0 = norms_v.get(0, 0.0)
    nwh0 = norms_wh.get(0, 0.0)
    c0 = (6.0 / math.pi ** 2.5) * (nwh0 - nv0 - math.pi ** 5 / 144.0)
    if abs(c0 ** 2 - nv0) > CONSISTENCY_TOL:
        raise InconsistentSpectraError(
            f"constant level: recovered coefficient violates the norm identity "
            f"by {abs(c0 ** 2 - nv0):.3e}"
        )
    return alpha, build_potential(c0, pairs)


def magnitudes_from_two_spectra(
    plus: SpectralData, minus: SpectralData
) -> dict[int, tuple[float, float]]:
    """Weighted magnitudes (alpha*|c_k|^2, alpha*|s_k|^2) from the spectra of
    the operators built on the even/odd parts of the potential about pi/2.

    The even part carries pure cosine content and the odd part pure sine
    content, so the two weight recoveries separate the magnitudes exactly.
    """
    w_plus = weights_from_spectrum(plus).weights
    w_minus = weights_from_spectrum(minus).weights
    out: dict[int, tuple[float, float]] = {}
    for k in sorted(set(w_plus) | set(w_minus)):
        out[k] = (w_plus.get(k, 0.0), w_minus.get(k, 0.0))
    return out


@dataclass(frozen=True)
class AdmissibilityReport:
    """Verdicts for the admissibility of spectral data.

    symmetry is structural for real spectral data (the zero set comes as
    +-sqrt(z)); zero_structure is the interlacing check; normalization and
    boundedness probe the ratio function on the imaginary axis; residues
    must share one sign. alpha/norms are derived under unit potential norm.
    """

    symmetry_ok: bool
    zero_structure_ok: bool
    normalization_ok: bool
    boundedness_ok: bool
    same_sign_ok: bool
    residues: dict[int, float]
    alpha: Optional[float]
    norms: dict[int, float]
    detail: str = ""

    @property
    def accepted(self) -> bool:
        return (
            self.symmetry_ok
            and self.zero_structure_ok
            and self.normalization_ok
            and self.boundedness_ok
            and self.same_sign_ok
        )

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "symmetry_ok": self.symmetry_ok,
            "zero_structure_ok": self.zero_structure_ok,
            "normalization_ok": self.normalization_ok,
            "boundedness_ok": self.boundedness_ok,
            "same_sign_ok": self.same_sign_ok,
            "residues": {str(k): float(x) for k, x in sorted(self.residues.items())},
            "alpha": None if self.alpha is None else float(self.alpha),
            "norms": {str(k): float(x) for k, x in sorted(self.norms.items())},
            "detail": self.detail,
        }


def check_admissibility(data: SpectralData) -> AdmissibilityReport:
    """Verify the numerically checkable admissibility conditions.

    Entirety/exponential-type of the underlying function is not verifiable
    from a finite zero set and is taken as given; the report carries the
    verifiable consequences: zero structure (alternation), the imaginary-
    axis normalization limit, its boundedness rate, and sign-coherent
    residues.
    """
    try:
        check_interlacing(data)
        zero_structure_ok = True
        detail = ""
    except (MalformedSpectrumError, DegenerateOperatorError) as exc:
        zero_structure_ok = False
        detail = str(exc)
    if not zero_structure_ok:
        return AdmissibilityReport(
            symmetry_ok=True,
            zero_structure_ok=False,
            normalization_ok=False,
            boundedness_ok=False,
            same_sign_ok=False,
            residues={},
            alpha=None,
            norms={},
            detail=detail,
        )

    a_const = normalization_constant(data)
    # normalization: the constant, the exact limit at i inf, must hold at a
    # finite height
    f_probe = a_const * float(np.real(_ratio_product(data, 1j * 10 ** 7)))
    normalization_ok = abs(f_probe - 1.0) <= 1e-4
    # boundedness: y|F(iy) - 1| stays bounded along increasing heights
    rates = []
    for y in (1e6, 1e7, 1e8):
        f_y = a_const * float(np.real(_ratio_product(data, 1j * y)))
        rates.append(y * abs(f_y - 1.0))
    boundedness_ok = all(math.isfinite(r) for r in rates) and rates[2] <= 10.0 * max(
        1.0, rates[0]
    )

    table = weights_from_spectrum(data)
    residues = dict(table.weights)
    signs = {math.copysign(1.0, x) for x in residues.values() if x != 0.0}
    same_sign_ok = len(signs) == 1
    alpha = None
    norms: dict[int, float] = {}
    if same_sign_ok:
        try:
            alpha, norms = alpha_and_norms(table, orientation=data.orientation())
        except (DegenerateOperatorError, InconsistentSpectraError) as exc:
            same_sign_ok = False
            detail = str(exc)
    return AdmissibilityReport(
        symmetry_ok=True,
        zero_structure_ok=True,
        normalization_ok=normalization_ok,
        boundedness_ok=boundedness_ok,
        same_sign_ok=same_sign_ok,
        residues=residues,
        alpha=alpha,
        norms=norms,
        detail=detail,
    )


def synthesize_from_admissible(report: AdmissibilityReport) -> OperatorSpec:
    """Operator realizing accepted spectral data: all level weight goes onto
    the cosine coefficient (the canonical representative of the basis-
    rotation freedom)."""
    if not report.accepted or report.alpha is None:
        raise MalformedSpectrumError("cannot synthesize from rejected spectral data")
    c0 = math.sqrt(report.norms.get(0, 0.0))
    pairs = [
        (k, math.sqrt(n), 0.0)
        for k, n in sorted(report.norms.items())
        if k != 0 and n > 0.0
    ]
    return OperatorSpec(report.alpha, build_potential(c0, pairs))
