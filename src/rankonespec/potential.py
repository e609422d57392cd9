"""Potentials as finite Fourier series on (0, pi).

The working orthonormal basis is

    1/sqrt(pi),  sqrt(2/pi) cos 2kx,  sqrt(2/pi) sin 2kx   (k = 1, 2, ...),

the eigenbasis of the periodic second-derivative operator. A potential is a
real finite series in this basis; the squared norm is then the plain sum of
squared coefficients, and every downstream identity is exact at finite
truncation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

SQRT_PI = math.sqrt(math.pi)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Scales of the two probes' coefficients (see probe_coefficients)
PROBE_SHIFT = math.sqrt(math.pi / 2.0)
PROBE_CONST_SHIFT = math.pi ** 2.5 / 12.0


def as_int(x) -> int:
    """int(x) for an integer field of a JSON record; TypeError for a bool, a
    string or a fractional float, which int() would read or truncate."""
    if isinstance(x, (bool, str)) or isinstance(x, float) and not x.is_integer():
        raise TypeError(f"{x!r} is not an integer for an integer field")
    return int(x)


def as_float(x) -> float:
    """float(x) for a float field of a JSON record; TypeError for a bool or a
    string, which float() would read."""
    if isinstance(x, (bool, str)):
        raise TypeError(f"{x!r} is not a number for a float field")
    return float(x)


@dataclass(frozen=True)
class PotentialSpec:
    """Real potential v(x) = c0/sqrt(pi) + sum_k sqrt(2/pi)(c_k cos 2kx + s_k sin 2kx).

    pairs holds (k, c_k, s_k) with distinct positive k.
    """

    c0: float
    pairs: tuple[tuple[int, float, float], ...]

    def __post_init__(self):
        seen = set()
        for k, c, s in self.pairs:
            if not isinstance(k, int) or k < 1:
                raise ValueError(f"harmonic index must be a positive integer, got {k!r}")
            if k in seen:
                raise ValueError(f"duplicate harmonic index k={k}")
            if not (math.isfinite(c) and math.isfinite(s)):
                raise ValueError(f"non-finite coefficient at k={k}")
            seen.add(k)
        if not math.isfinite(self.c0):
            raise ValueError("non-finite constant coefficient")

    @property
    def K(self) -> int:
        """The potential order: the largest k present, 0 when there are no pairs."""
        return max((k for k, _, _ in self.pairs), default=0)

    @property
    def norm_sq(self) -> float:
        return self.c0 * self.c0 + sum(c * c + s * s for _, c, s in self.pairs)

    def level_norms(self) -> dict[int, float]:
        """Squared norm of the projection onto each basis level, by k."""
        norms = {0: self.c0 * self.c0}
        for k, c, s in self.pairs:
            norms[k] = c * c + s * s
        return norms

    def coefficient(self, k: int) -> tuple[float, float]:
        """(c_k, s_k); (c0, 0.0) for k = 0, zeros for absent levels."""
        if k == 0:
            return self.c0, 0.0
        for kk, c, s in self.pairs:
            if kk == k:
                return c, s
        return 0.0, 0.0

    def to_dict(self) -> dict:
        return {
            "c0": float(self.c0),
            "terms": [
                {"k": int(k), "c": float(c), "s": float(s)}
                for k, c, s in sorted(self.pairs)
            ],
            "K": int(self.K),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PotentialSpec":
        try:
            c0 = as_float(d["c0"])
            terms = d["terms"]
            K = as_int(d["K"])
            pairs = tuple((as_int(t["k"]), as_float(t["c"]), as_float(t["s"])) for t in terms)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed potential record: {exc}") from exc
        spec = cls(c0=c0, pairs=pairs)
        if K != spec.K:
            raise ValueError(f"K={K} does not match largest harmonic present ({spec.K})")
        return spec


@dataclass(frozen=True)
class OperatorSpec:
    """Coupling constant plus potential: the rank-one perturbed operator."""

    alpha: float
    potential: PotentialSpec

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError("coupling constant must be finite")
        if not math.isfinite(self.potential.norm_sq):
            raise ValueError(
                f"potential's squared norm overflows the float range (c0 = {self.potential.c0!r}, "
                f"K = {self.potential.K})"
            )

    def to_dict(self) -> dict:
        return {"alpha": float(self.alpha), "potential": self.potential.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "OperatorSpec":
        try:
            alpha = as_float(d["alpha"])
            pot = d["potential"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed operator record: {exc}") from exc
        return cls(alpha=alpha, potential=PotentialSpec.from_dict(pot))


def build_potential(
    c0: float,
    pairs: Iterable[Sequence] = (),
    normalize: bool = False,
) -> PotentialSpec:
    """Assemble a PotentialSpec, optionally rescaling to unit norm.

    pairs is an iterable of (k, c_k, s_k). Raises ValueError on duplicate
    harmonics or when normalize is requested for the zero potential.
    """
    tup = tuple((int(k), float(c), float(s)) for k, c, s in pairs)
    spec = PotentialSpec(c0=float(c0), pairs=tup)
    if normalize:
        nrm = math.sqrt(spec.norm_sq)
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero potential")
        spec = PotentialSpec(
            c0=spec.c0 / nrm,
            pairs=tuple((k, c / nrm, s / nrm) for k, c, s in spec.pairs),
        )
    return spec


def evaluate(spec: PotentialSpec, x):
    """Pointwise value of the potential; x may be a scalar or array in [0, pi]."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > math.pi):
        raise ValueError("evaluation point outside [0, pi]")
    out = np.full_like(arr, spec.c0 / SQRT_PI, dtype=float)
    for k, c, s in spec.pairs:
        out = out + SQRT_2_OVER_PI * (c * np.cos(2 * k * arr) + s * np.sin(2 * k * arr))
    return float(out) if np.ndim(x) == 0 else out


def probe_coefficients(order: int) -> tuple[np.ndarray, np.ndarray]:
    """What the probes add to a potential's coefficients, over k = 0..order:
    the odd probe (x - pi/2) adds -sqrt(pi/2)/k to s_k (0 at k = 0), and the
    even probe (x - pi/2)**2 adds +sqrt(pi/2)/k**2 to c_k (pi^(5/2)/12 to c0).
    """
    k = np.arange(1, order + 1, dtype=float)
    odd = np.append(0.0, -PROBE_SHIFT / k)
    even = np.append(PROBE_CONST_SHIFT, PROBE_SHIFT / k ** 2)
    return odd, even


def companions(spec: PotentialSpec, k_comp: int) -> tuple[PotentialSpec, PotentialSpec]:
    """Companion potentials obtained by adding the odd probe (x - pi/2) and
    the even probe (x - pi/2)**2, both truncated at harmonic k_comp, by the
    coefficients of probe_coefficients(k_comp)."""
    if k_comp < spec.K:
        raise ValueError(f"companion truncation {k_comp} below potential order {spec.K}")
    odd, even = (p.tolist() for p in probe_coefficients(k_comp))
    coeff = {k: (c, s) for k, c, s in spec.pairs}
    levels = [(k, *coeff.get(k, (0.0, 0.0))) for k in range(1, k_comp + 1)]
    w = PotentialSpec(c0=spec.c0, pairs=tuple((k, c, s + odd[k]) for k, c, s in levels))
    what = PotentialSpec(c0=spec.c0 + even[0], pairs=tuple((k, c + even[k], s) for k, c, s in levels))
    return w, what


@lru_cache(maxsize=256)
def exp_coefficients(spec: PotentialSpec) -> tuple[np.ndarray, np.ndarray]:
    """Expansion of the potential over complex exponentials e^{2imx}.

    Returns (ms, a) with v(x) = sum_j a[j] * exp(2i * ms[j] * x); real input
    gives a[-m] = conj(a[m]). Used by the transform evaluators.
    """
    ms = []
    amps = []
    if spec.c0 != 0.0:
        ms.append(0)
        amps.append(spec.c0 / SQRT_PI)
    for k, c, s in spec.pairs:
        if c == 0.0 and s == 0.0:
            continue
        a_plus = SQRT_2_OVER_PI * (c - 1j * s) / 2.0
        ms.extend([k, -k])
        amps.extend([a_plus, a_plus.conjugate()])
    return np.asarray(ms, dtype=int), np.asarray(amps, dtype=complex)
