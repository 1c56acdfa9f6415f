"""Hermite polynomial evaluation and Gaussian quadrature.

Provides the two evaluation flavours the package needs (square-root-factorial
scaled tables for overflow-free polynomial parts, and orthonormal
Hermite-function jets) and Gauss-Hermite rules.  2D integrals are built in
modes as products of 1D rules; the tests keep a rotated tensor rule for
coupled Gaussians e^(-A x^2 - B y^2 + 2 C x y) as their per-pair reference.

A rule's nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch,
Math. Comp. 23, 1969), polished by Newton's method on psi_n; its weights
come from the Christoffel sum over Hermite functions at the nodes rather
than from eigenvectors, so they keep full relative accuracy far into the
tails (Townsend, Trogdon & Olver, IMA J. Numer. Anal. 36, 2016).
"""

import math
from collections import deque
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

MAX_RULE_SIZE = 512
#: Newton steps that polish the eigenvalue nodes onto the zeros of psi_n
_NODE_NEWTON_STEPS = 2


def hermite_scaled(n: int, t):
    """H_k(t) / sqrt(2^k k!) for k = 0..n, stacked on a new first axis: the
    overflow-safe polynomial parts of the orthonormal oscillator modes (no
    Gaussian factor), all from one recurrence."""
    t = np.asarray(t, dtype=float)
    out = np.empty((n + 1, *t.shape))
    out[0] = 1.0
    for k in range(n):
        prev = out[k - 1] if k else 0.0
        out[k + 1] = t * math.sqrt(2.0 / (k + 1)) * out[k] - math.sqrt(k / (k + 1.0)) * prev
    return out


def _hermite_functions(n: int, t: np.ndarray):
    """psi_0(t), ..., psi_n(t) in turn, from the orthonormal three-term
    recurrence, which stays O(1) for any n, so no overflow guard is needed."""
    psi_prev = np.zeros_like(t)
    psi = np.exp(-0.5 * t * t) / math.pi**0.25
    yield psi
    for k in range(n):
        psi_prev, psi = psi, t * math.sqrt(2.0 / (k + 1)) * psi - math.sqrt(k / (k + 1.0)) * psi_prev
        yield psi


def hermite_function_jet(n: int, t):
    """Orthonormal Hermite function psi_n(t) with first two derivatives.

    psi_n = H_n e^(-t^2/2) / sqrt(2^n n! sqrt(pi)).  Uses
    psi_n' = sqrt(2n) psi_{n-1} - t psi_n and the oscillator ODE
    psi_n'' = (t^2 - 2n - 1) psi_n.
    """
    t = np.asarray(t, dtype=float)
    psi_prev, psi = deque(chain([np.zeros_like(t)], _hermite_functions(n, t)), maxlen=2)
    d1 = math.sqrt(2.0 * n) * psi_prev - t * psi
    d2 = (t * t - (2.0 * n + 1.0)) * psi
    return psi, d1, d2


class QuadratureRule(NamedTuple):
    """Gauss-Hermite nodes/weights for the weight e^(-t^2)."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=64)
def gauss_hermite(n: int) -> QuadratureRule:
    """Gauss-Hermite rule: nodes are the eigenvalues of the Jacobi matrix
    (off-diagonal sqrt(k/2)) polished by Newton's method on psi_n, and
    weights the Christoffel sum w = e^(-x^2) / sum_{k<n} psi_k(x)^2, formed
    as exp(-x^2 - log sum) so that e^(-x^2) cannot underflow on its own: a
    weight is 0 only where its value is below the smallest double.  Nodes
    are exactly symmetrized about 0, and the weights must sum to sqrt(pi)
    to 1e-13.

    Rules are immutable and cached; callers must not modify the arrays."""
    if not 1 <= n <= MAX_RULE_SIZE:
        raise ValueError(f"node count must be in [1, {MAX_RULE_SIZE}]")
    if n == 1:
        return QuadratureRule(1, np.zeros(1), np.array([math.sqrt(math.pi)]))
    off = np.sqrt(np.arange(1, n) / 2.0)
    nodes = np.linalg.eigvalsh(np.diag(off, -1))
    for _ in range(_NODE_NEWTON_STEPS):
        psi, d1, _ = hermite_function_jet(n, nodes)
        nodes = nodes - psi / d1
    nodes = 0.5 * (nodes - nodes[::-1])
    sum_sq = sum(psi * psi for psi in _hermite_functions(n - 1, nodes))
    weights = np.exp(-nodes * nodes - np.log(sum_sq))
    weights = 0.5 * (weights + weights[::-1])
    if abs(weights.sum() / math.sqrt(math.pi) - 1.0) > 1e-13:
        raise RuntimeError("Gauss-Hermite weights failed to converge")
    nodes.setflags(write=False)  # instances are cached and shared
    weights.setflags(write=False)
    return QuadratureRule(n, nodes, weights)
