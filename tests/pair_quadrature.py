"""Reference quadrature, one mode pair at a time: the slow oracle that the
tabulated gram_matrix, flat_norms and expand_amplitudes are checked against.

A 2D integral against e^(-A x^2 - B y^2 + 2 C x y) is a Gauss-Hermite tensor
rule on the principal axes of that quadratic form.  An inner product of two
modes folds both Gaussians, both couplings e^(c x y) and the weight into one
such exponent, so only the modes' polynomial parts are evaluated at the nodes.
"""

import math

import numpy as np

from nhboson.quadrature import gauss_hermite

#: weight e^(4 k gamma x y) of the inner product, by k: flat, physical, dual
FLAT, PHYSICAL, DUAL = 0, -1, +1


def integrate_coupled(f, exponent, n=64):
    """Integral over R^2 of f(x, y) e^(-A x^2 - B y^2 + 2 C x y), exact for f
    a polynomial of degree < 2n per rotated axis; f takes numpy arrays."""
    a, b, c = (float(v) for v in exponent)
    if a <= 0 or b <= 0 or a * b - c * c <= 0:
        raise ValueError(f"non-integrable Gaussian exponent (A,B,C)=({a},{b},{c})")
    lam, axes = np.linalg.eigh(np.array([[a, -c], [-c, b]]))
    rule = gauss_hermite(n)
    u, v = np.meshgrid(rule.nodes / math.sqrt(lam[0]), rule.nodes / math.sqrt(lam[1]), indexing="ij")
    xs, ys = axes[0, 0] * u + axes[0, 1] * v, axes[1, 0] * u + axes[1, 1] * v
    weights = np.outer(rule.weights, rule.weights) / math.sqrt(lam[0] * lam[1])
    return float(np.dot(weights.ravel(), np.asarray(f(xs.ravel(), ys.ravel()), dtype=float)))


def inner_product(f, g, weight=FLAT, n=64):
    """<f, g> of two ModeFunctions at one gamma (both are real)."""
    if f.gamma != g.gamma:
        raise ValueError("modes must share the coupling constant")
    a, c = 2.0 * f.omega, 0.5 * (f.coupling + g.coupling + 4.0 * f.gamma * weight)
    return integrate_coupled(lambda x, y: f.poly_part(x, y) * g.poly_part(x, y), (a, a, c), n)
