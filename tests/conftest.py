"""Shared fixtures: random operator generation and a composite
Gauss-Legendre quadrature, the route by which tests check the package's
closed forms and finite series against the integrals that define them."""

import math

import numpy as np
import pytest

from rankonespec.potential import OperatorSpec, build_potential


def quad_rule(a, b, nodes=64):
    """Nodes and weights of the composite Gauss-Legendre rule on [a, b], one
    panel of the given node count per unit length."""
    panels = max(1, math.ceil(b - a))
    edges = np.linspace(a, b, panels + 1)
    x0, w0 = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * np.diff(edges)[:, None]
    xs = half * x0 + 0.5 * (edges[:-1] + edges[1:])[:, None]
    return xs.ravel(), (half * w0).ravel()


def quad_oracle(f, a, b, nodes=64):
    """Integral of f over [a, b] by quad_rule (complex)."""
    xs, ws = quad_rule(a, b, nodes)
    return complex(np.sum(ws * f(xs)))


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
    """CSV text with every float formatted on its own with 17 significant
    digits. io.write_csv must write these bytes."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"
