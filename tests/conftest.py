"""Shared fixtures: random operator generation and an independent
Gauss-Legendre quadrature oracle (kept separate from the package's own
quadrature so closed-form results are checked against an external route)."""

import math

import numpy as np
import pytest

from rankonespec.potential import OperatorSpec, build_potential


def quad_oracle(f, a, b, nodes=64):
    """Composite Gauss-Legendre quadrature, one panel per unit length."""
    panels = max(1, math.ceil(b - a))
    edges = np.linspace(a, b, panels + 1)
    x0, w0 = np.polynomial.legendre.leggauss(nodes)
    total = 0.0 + 0.0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs = 0.5 * (hi - lo) * x0 + 0.5 * (hi + lo)
        ws = 0.5 * (hi - lo) * w0
        total += np.sum(ws * f(xs))
    return total


def random_potential(rng, max_order=8, normalize=True):
    order = int(rng.integers(1, max_order + 1))
    ks = sorted(rng.choice(np.arange(1, max_order + 1), size=order, replace=False))
    pairs = [(int(k), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for k in ks]
    c0 = float(rng.uniform(-1, 1))
    return build_potential(c0, pairs, normalize=normalize)


def random_operator(rng, max_order=8, alpha_range=(0.25, 5.0)):
    lo, hi = alpha_range
    alpha = float(rng.uniform(lo, hi)) * (1 if rng.random() < 0.5 else -1)
    return OperatorSpec(alpha, random_potential(rng, max_order))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def reference_csv(header, rows) -> str:
    """CSV text with every value formatted on its own: floats with 17
    significant digits, anything else with str(). io.write_csv must write
    these bytes."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"
