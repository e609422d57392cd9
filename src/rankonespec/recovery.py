"""Inverse problem: recover coupling weights from classified spectra,
reconstruct the real potential from three spectra, recover magnitude data
from two spectra, and check/synthesize admissible spectral data.

For a finite-order potential the secular function is the exact rational
ratio of two finite products, q(z) = prod (mu_j - z) / prod (p_l - z), so
every recovery step below is algebraically exact up to root-solving
precision: per-level weights are its residues by Loewner's formula, which
needs no normalization constant and no limit, and admissibility of finite
data is interlacing of the roots with the active levels.
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
from .potential import OperatorSpec, PotentialSpec, build_potential, probe_coefficients
from .spectrum import WEIGHT_FLOOR, ClassifiedSpectrum, SpectrumClass, WeightTable, level_value, nearest_level

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
    window: float

    @classmethod
    def from_classified(cls, cs: ClassifiedSpectrum) -> "SpectralData":
        secular = (SpectrumClass.SECULAR, SpectrumClass.COINCIDENT)
        mus = [e.z for e in cs.entries if e.tag in secular]
        active = [e.z for e in cs.entries if e.tag is SpectrumClass.REDUCED]
        if all(e.z != 0.0 for e in cs.entries):
            # an active constant level leaves no eigenvalue behind; its
            # absence from the entries is the signal
            active.append(0.0)
        return cls(active_levels=tuple(sorted(active)), mus=tuple(sorted(mus)), window=cs.window)


def check_interlacing(data: SpectralData) -> int:
    """Validate strict alternation of secular roots with active levels.

    Returns the orientation (+1/-1). One root in each gap between the
    active levels and none outside them is a spectrum that its window cuts
    below the root above the top level (a window cuts only from above): an
    input error, ValueError, that names the window and the level. Any other
    count mismatch, also naming the window, or failed alternation raises
    MalformedSpectrumError.
    """
    poles = sorted(data.active_levels)
    mus = sorted(data.mus)
    if not poles:
        raise DegenerateOperatorError("no active level in spectral data")
    if len(mus) != len(poles):
        count = (
            f"expected {len(poles)} secular roots for {len(poles)} active levels, "
            f"got {len(mus)} within the window {data.window}"
        )
        if len(mus) == len(poles) - 1 and all(p < mu < q for p, mu, q in zip(poles, mus, poles[1:])):
            raise ValueError(f"{count}; the root above the top active level {poles[-1]} lies beyond that window")
        raise MalformedSpectrumError(count)
    above = mus[-1] > poles[-1]
    below = mus[0] < poles[0]
    if above == below:
        raise MalformedSpectrumError("secular roots must overshoot exactly one end")
    bounds = poles + [math.inf] if above else [-math.inf] + poles
    if not all(bounds[j] < mus[j] < bounds[j + 1] for j in range(len(mus))):
        raise MalformedSpectrumError("secular roots do not alternate with active levels")
    return 1 if above else -1


def weights_from_spectrum(data: SpectralData) -> WeightTable:
    """Per-level weights X_k = alpha * ||v_k||^2 as the residues of the
    secular function, by Loewner's formula.

    For finitely many active levels p and interlacing roots mu,
    q(z) = prod (mu_j - z) / prod (p_l - z), and its residue at p_i is

        X_i = (mu_i - p_i) prod_{j != i} (mu_j - p_i) / (p_j - p_i),

    with no normalization constant and no limit; level 0 is a pole like any
    other. Roots and levels are paired in ascending order, so each factor
    of the product stays near one and it cannot overflow at high order.
    """
    check_interlacing(data)
    poles = np.array(sorted(data.active_levels))
    mus = np.array(sorted(data.mus))
    across = poles[None, :] - poles[:, None]
    np.fill_diagonal(across, 1.0)  # leaves mu_i - p_i on the diagonal
    residues = np.prod((mus[None, :] - poles[:, None]) / across, axis=1)
    weights = {nearest_level(p): x for p, x in zip(poles.tolist(), residues.tolist())}
    return WeightTable(weights=weights, active=tuple(weights))


def alpha_and_norms(table: WeightTable) -> tuple[float, dict[int, float]]:
    """Coupling constant and level norms under the unit-norm convention.

    alpha = sum of weights (since sum ||v_k||^2 = 1). The Loewner residues
    of interlacing data all carry the orientation's sign, so the sum does
    too, and needs no cross-check against it.
    """
    alpha = sum(table.weights.values())
    if alpha == 0.0:
        raise DegenerateOperatorError("all recovered weights vanish")
    norms = {k: x / alpha for k, x in table.weights.items()}
    return alpha, norms


def weights_from_char_derivative(op: OperatorSpec) -> WeightTable:
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
    levels = np.arange(1, op.potential.K + 1)
    d = charfn.char_perturbed(op, np.append(0.0, 2.0 * levels + 1j * _COMPLEX_STEP))
    x = np.append(-d[0].real, -4.0 * levels * d[1:].imag / _COMPLEX_STEP) / _PI_SQ
    weights = dict(enumerate(x.tolist()))
    alpha = op.alpha
    active = tuple(k for k, w in weights.items() if alpha != 0.0 and abs(w / alpha) > WEIGHT_FLOOR)
    return WeightTable(weights=weights, active=active)


@dataclass(frozen=True)
class ThreeSpectra:
    """Classified spectra of the operator, its odd-probe companion, and its
    even-probe companion, plus the reconstruction order."""

    base: SpectralData
    shifted: SpectralData
    squared: SpectralData
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise ValueError(f"reconstruction order must be non-negative, got {self.order}")
        need = level_value(self.order + 1)
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


def invert_three_spectra(ts: ThreeSpectra) -> tuple[float, PotentialSpec, list[float]]:
    """Reconstruct (alpha, v) from the three spectra, with the norm-identity
    mismatch |c_k^2 + s_k^2 - ||v_k||^2| of each level k = 0..order.

    The base spectrum fixes alpha and the level norms n_v of v (unit-norm
    convention). A probe coefficient p shifts a level norm by 2px + p^2, so
    x = (n_companion - n_v - p^2) / (2p): the cosines and c0 come from the
    even probe's companion, the sines from the odd probe's, and s_0 = 0. A
    mismatch above CONSISTENCY_TOL raises InconsistentSpectraError.
    """
    table = weights_from_spectrum(ts.base)
    alpha, _ = alpha_and_norms(table)
    tables = (table, weights_from_spectrum(ts.shifted), weights_from_spectrum(ts.squared))
    levels = range(ts.order + 1)
    nv, nw, nwh = (np.array([t.weights.get(k, 0.0) for k in levels]) / alpha for t in tables)
    odd, even = probe_coefficients(ts.order)
    c = (nwh - nv - even * even) / (2.0 * even)
    s = np.divide(nw - nv - odd * odd, 2.0 * odd, out=np.zeros_like(odd), where=odd != 0.0)
    mismatch = np.abs(c * c + s * s - nv)
    failed = np.flatnonzero(mismatch > CONSISTENCY_TOL)
    if failed.size:
        k = int(failed[0])
        raise InconsistentSpectraError(
            f"level {k}: recovered coefficients violate the norm identity by {mismatch[k]:.3e}"
        )
    pairs = zip(levels[1:], c[1:].tolist(), s[1:].tolist())
    return alpha, build_potential(float(c[0]), pairs), mismatch.tolist()


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
    levels = sorted(w_plus.keys() | w_minus.keys())
    return {k: (w_plus.get(k, 0.0), w_minus.get(k, 0.0)) for k in levels}


@dataclass(frozen=True)
class AdmissibilityReport:
    """The admissibility verdict for spectral data.

    For finite data admissibility is interlacing (see check_admissibility),
    so there is one verdict; residues are the Loewner residues, and
    alpha/norms are derived under unit potential norm. to_dict writes the
    verdict keys of the report format from that one verdict: the symmetry
    of real data is structural, and zero structure, normalization,
    boundedness and same sign are each the interlacing verdict.
    """

    accepted: bool
    residues: dict[int, float]
    alpha: Optional[float]
    norms: dict[int, float]
    detail: str = ""

    def to_dict(self) -> dict:
        ok = self.accepted
        return {
            "accepted": ok,
            "symmetry_ok": True,
            "zero_structure_ok": ok,
            "normalization_ok": ok,
            "boundedness_ok": ok,
            "same_sign_ok": ok,
            "residues": {str(k): float(x) for k, x in sorted(self.residues.items())},
            "alpha": None if self.alpha is None else float(self.alpha),
            "norms": {str(k): float(x) for k, x in sorted(self.norms.items())},
            "detail": self.detail,
        }


def check_admissibility(data: SpectralData) -> AdmissibilityReport:
    """Verify the numerically checkable admissibility conditions.

    Entirety/exponential-type of the underlying function is not verifiable
    from a finite zero set and is taken as given. For finite data the
    verifiable conditions reduce to interlacing: the product form
    prod (mu_j - z) / prod (p_l - z) of interlacing data tends to 1 at
    i inf with an O(1/z) rate by construction, and its Loewner residues
    carry the orientation's sign. Every factor (mu_j - p_i)/(p_j - p_i),
    j != i, is positive, mu_i - p_i has the orientation's sign, and an IEEE
    difference of two distinct floats keeps its exact sign; so does their
    sum, alpha. A spectrum cut below its exterior root is no verdict but an
    input error, and its ValueError passes through (see check_interlacing).
    """
    try:
        table = weights_from_spectrum(data)
        alpha, norms = alpha_and_norms(table)
    except (MalformedSpectrumError, DegenerateOperatorError) as exc:
        return AdmissibilityReport(
            accepted=False, residues={}, alpha=None, norms={}, detail=str(exc)
        )
    return AdmissibilityReport(
        accepted=True, residues=dict(table.weights), alpha=alpha, norms=norms
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
