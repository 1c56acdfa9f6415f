"""Hermite polynomial evaluation and Gaussian quadrature.

Provides the three evaluation flavours the package needs (raw physicists'
Hermite values, square-root-factorial scaled values for overflow-free
polynomial parts, and orthonormal Hermite-function jets), Gauss-Hermite
rules from the Jacobi-matrix eigenproblem, and a tensor scheme for 2D
integrals against coupled Gaussians e^(-A x^2 - B y^2 + 2 C x y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

MAX_RULE_SIZE = 512


def hermite_eval(n: int, t):
    """Value and derivative of the physicists' Hermite polynomial H_n.

    Three-term recurrence H_{k+1} = 2 t H_k - 2 k H_{k-1}; the derivative
    comes from H_n' = 2 n H_{n-1}.  Vectorized over t.
    """
    if n < 0:
        raise ValueError("Hermite index must be >= 0")
    t = np.asarray(t, dtype=float)
    h_prev = np.zeros_like(t)
    h = np.ones_like(t)
    for k in range(n):
        h_prev, h = h, 2.0 * t * h - 2.0 * k * h_prev
    deriv = 2.0 * n * h_prev if n else np.zeros_like(t)
    if t.ndim == 0:
        return float(h), float(deriv)
    return h, deriv


def hermite_scaled(n: int, t):
    """H_n(t) / sqrt(2^n n!): the overflow-safe polynomial part of an
    orthonormal oscillator mode (no Gaussian factor)."""
    t = np.asarray(t, dtype=float)
    p_prev = np.zeros_like(t)
    p = np.ones_like(t)
    for k in range(n):
        p_prev, p = p, t * math.sqrt(2.0 / (k + 1)) * p - math.sqrt(k / (k + 1.0)) * p_prev
    return p


def hermite_function_jet(n: int, t):
    """Orthonormal Hermite function psi_n(t) with first two derivatives.

    psi_n = H_n e^(-t^2/2) / sqrt(2^n n! sqrt(pi)); the recurrence stays
    O(1) for any n, so no overflow guard is needed.  Uses
    psi_n' = sqrt(2n) psi_{n-1} - t psi_n and the oscillator ODE
    psi_n'' = (t^2 - 2n - 1) psi_n.
    """
    t = np.asarray(t, dtype=float)
    psi_prev = np.zeros_like(t)
    psi = np.exp(-0.5 * t * t) / math.pi**0.25
    for k in range(n):
        psi_prev, psi = psi, t * math.sqrt(2.0 / (k + 1)) * psi - math.sqrt(k / (k + 1.0)) * psi_prev
    d1 = (math.sqrt(2.0 * n) * psi_prev if n else np.zeros_like(t)) - t * psi
    d2 = (t * t - (2.0 * n + 1.0)) * psi
    return psi, d1, d2


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes/weights for the weight e^(-t^2)."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=64)
def gauss_hermite(n: int) -> QuadratureRule:
    """Gauss-Hermite rule via the symmetric tridiagonal Jacobi matrix
    (off-diagonal sqrt(k/2)); nodes are exactly symmetrized about 0.

    Rules are immutable and cached; callers must not modify the arrays."""
    if not 1 <= n <= MAX_RULE_SIZE:
        raise ValueError(f"node count must be in [1, {MAX_RULE_SIZE}]")
    if n == 1:
        return QuadratureRule(1, np.zeros(1), np.array([math.sqrt(math.pi)]))
    off = np.sqrt(np.arange(1, n) / 2.0)
    # bisection driver: extreme eigenvector components stay positive where
    # the default driver underflows them to exact zero
    nodes, vecs = eigh_tridiagonal(np.zeros(n), off, lapack_driver="stebz")
    weights = math.sqrt(math.pi) * vecs[0] ** 2
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    if abs(weights.sum() / math.sqrt(math.pi) - 1.0) > 1e-13:
        raise RuntimeError("Gauss-Hermite weights failed to converge")
    nodes.setflags(write=False)  # instances are cached and shared
    weights.setflags(write=False)
    return QuadratureRule(n, nodes, weights)


@dataclass(frozen=True)
class CoupledGaussianScheme:
    """Tensor rule for integrals weighted by e^(-A x^2 - B y^2 + 2 C x y).

    The quadratic form is diagonalized by a rotation; alpha/beta are the
    principal-axis coefficients, axes the rotation columns, and the flat
    arrays hold the mapped 2D nodes with combined weights.
    """

    alpha: float
    beta: float
    axes: np.ndarray
    rule: QuadratureRule
    xs: np.ndarray
    ys: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=4)
def coupled_scheme(exponent: tuple, n: int = 64) -> CoupledGaussianScheme:
    """Tensor scheme for one exponent (A, B, C), a hashable tuple.

    Schemes are immutable and cached, because a command integrates many
    mode pairs against one exponent: rebuilding the scheme per pair churned
    the heap enough to cost glibc trims and page faults on every call.
    Callers must not modify the arrays."""
    a, b, c = (float(v) for v in exponent)
    if a <= 0 or b <= 0 or a * b - c * c <= 0:
        raise ValueError(f"non-integrable Gaussian exponent (A,B,C)=({a},{b},{c})")
    form = np.array([[a, -c], [-c, b]])
    lam, axes = np.linalg.eigh(form)
    alpha, beta = float(lam[0]), float(lam[1])
    rule = gauss_hermite(n)
    u = rule.nodes / math.sqrt(alpha)
    v = rule.nodes / math.sqrt(beta)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    xs = axes[0, 0] * uu + axes[0, 1] * vv
    ys = axes[1, 0] * uu + axes[1, 1] * vv
    weights = np.outer(rule.weights, rule.weights) / math.sqrt(alpha * beta)
    scheme = CoupledGaussianScheme(alpha, beta, axes, rule, xs.ravel(), ys.ravel(), weights.ravel())
    for arr in (scheme.axes, scheme.xs, scheme.ys, scheme.weights):
        arr.setflags(write=False)
    return scheme


def integrate_coupled(f, exponent, n: int = 64) -> float:
    """Integral over R^2 of f(x, y) e^(-A x^2 - B y^2 + 2 C x y).

    Exact (to roundoff) whenever f is a polynomial of degree < 2n per
    rotated axis.  f must accept numpy arrays.
    """
    scheme = coupled_scheme(tuple(float(v) for v in exponent), n)
    vals = np.asarray(f(scheme.xs, scheme.ys), dtype=float)
    return float(np.dot(scheme.weights, vals))
