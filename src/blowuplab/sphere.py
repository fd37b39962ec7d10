"""Quadrature and Monte Carlo integration on the unit sphere S^{n-1}.

Product rules in the polar angles (phi, psi_1, ..., psi_{n-2}): uniform
midpoint nodes in phi (exact periodicity) and Gauss-Jacobi nodes in
t = cos(psi_j) with the sin^j Jacobian absorbed into the weight function,
which makes the surface measure exact at every order.  Indicators of
quadratics are never sampled or put on a product rule: their moments are
one 1-D Gil-Pelaez integral in any dimension (see `_kernels`).
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import DomainError, EvaluationError, QuadratureConvergenceWarning
from .quadratic import HarmonicQuadratic

MAX_PRODUCT_NODES = 20_000_000


def surface_area(n):
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class SphereRule:
    """Product quadrature rule on S^{n-1} in polar angles.

    `phi_*` hold the periodic angle, `psi_*[j-1]` the j-th polar angle with
    the sin^j area-element factor absorbed into the weights.
    """

    n: int
    order: int
    phi_nodes: np.ndarray
    phi_weights: np.ndarray
    psi_nodes: tuple
    psi_weights: tuple

    @property
    def num_nodes(self):
        return self.order ** (self.n - 1)

    def _check_size(self):
        if self.num_nodes > MAX_PRODUCT_NODES:
            raise DomainError(
                f"product rule for n={self.n}, order={self.order} has "
                f"{self.num_nodes} nodes; reduce the order (documented cost limit)"
            )

    def nodes(self):
        """All angle tuples, shape (order^(n-1), n-1), columns (phi, psi_1, ...)."""
        self._check_size()
        axes = [self.phi_nodes, *self.psi_nodes]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def weights(self):
        """Product weights including the area-element factor, shape (order^(n-1),)."""
        self._check_size()
        axes = [self.phi_weights, *self.psi_weights]
        w = axes[0]
        for a in axes[1:]:
            w = np.multiply.outer(w, a)
        return w.ravel()

    def cartesian(self):
        """Cartesian images of all nodes, shape (order^(n-1), n)."""
        return angles_to_cartesian(self.n, self.nodes())


def angles_to_cartesian(n, angles):
    """Map angle tuples (phi, psi_1, .., psi_{n-2}) to points on S^{n-1}."""
    angles = np.atleast_2d(np.asarray(angles, dtype=np.float64))
    m = angles.shape[0]
    x = np.empty((m, n), dtype=np.float64)
    prod = np.ones(m)
    for k in range(n, 2, -1):
        psi = angles[:, k - 2]
        x[:, k - 1] = np.cos(psi) * prod
        prod = prod * np.sin(psi)
    x[:, 1] = np.sin(angles[:, 0]) * prod
    x[:, 0] = np.cos(angles[:, 0]) * prod
    return x


def _frozen(a):
    """Mark an array read-only before it is shared through an lru cache."""
    a.setflags(write=False)
    return a


def _gauss_jacobi(m, a):
    """m-point Gauss rule for the weight (1 - x^2)^a on [-1, 1], by Golub-Welsch.

    a = 0 is Gauss-Legendre.  The symmetric Jacobi matrix has zero diagonal
    and off-diagonal b_k = sqrt(k (k + 2a) / ((2k + 2a - 1)(2k + 2a + 1))),
    so its square splits by index parity, and the odd-index block (half the
    size) has the squared positive nodes as its eigenvalues (Golub & Welsch,
    Math. Comp. 23, 1969).  Those nodes are polished by two Newton steps on
    p_m of the orthonormal recurrence, the weights are the Christoffel
    numbers 1 / sum_{j<m} p_j(x)^2, and the negative half is the mirror
    image, so nodes and weights are exactly symmetric.  Nodes ascend.
    """
    k = np.arange(1.0, m + 1.0)
    b = np.zeros(m + 1)  # b[k] = b_k, and b[0] = 0 drops p_{-1}
    b[1:] = np.sqrt(k * (k + 2 * a) / ((2 * k + 2 * a - 1) * (2 * k + 2 * a + 1)))
    # J^2 on the odd indices 1, 3, ..: diagonal b_{2j+1}^2 + b_{2j+2}^2 and
    # off-diagonal b_{2j+2} b_{2j+3}, with b_m outside the m x m matrix
    bj = np.append(b[1:m], 0.0)
    half = m // 2
    odd = np.diag(bj[0 : 2 * half : 2] ** 2 + bj[1 : 2 * half : 2] ** 2)
    odd += np.diag(bj[1 : 2 * half - 1 : 2] * bj[2 : 2 * half : 2], 1)
    x = np.sqrt(np.maximum(np.linalg.eigvalsh(odd, UPLO="U"), 0.0))
    if m % 2:
        x = np.concatenate([[0.0], x])
    p0 = 1.0 / math.sqrt(math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5))
    # each pass runs the recurrence b_k p_k = x p_{k-1} - b_{k-1} p_{k-2}
    # (p_{-1} = 0, p_0 = p0) and its derivative to k = m, then takes a Newton
    # step on p_m; the weights are read at the nodes the second pass starts
    # from, which its step moves only below their own rounding
    for _ in range(2):
        p_prev, p = np.zeros_like(x), np.full_like(x, p0)
        dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
        total = np.zeros_like(x)
        for j in range(1, m + 1):
            total += p * p
            p_prev, p = p, (x * p - b[j - 1] * p_prev) / b[j]
            dp_prev, dp = dp, (p_prev + x * dp - b[j - 1] * dp_prev) / b[j]
        x = x - p / dp
    w = 1.0 / total
    mirror = slice(None, 0, -1) if m % 2 else slice(None, None, -1)  # 0 is its own image
    return np.concatenate([-x[mirror], x]), np.concatenate([w[mirror], w])


@lru_cache(maxsize=64)
def build_rule(n, order):
    """Product rule over the angles whose weights sum to |S^{n-1}|.

    The rule is cached and shared, so its arrays are read-only.
    """
    if n < 2:
        raise DomainError("n must be >= 2")
    if order < 2:
        raise DomainError("order must be >= 2")
    phi = _frozen((np.arange(order) + 0.5) * (2.0 * math.pi / order))
    phi_w = _frozen(np.full(order, 2.0 * math.pi / order))
    psi_nodes = []
    psi_weights = []
    for j in range(1, n - 1):
        t, w = _gauss_jacobi(order, (j - 1) / 2.0)
        psi_nodes.append(_frozen(np.arccos(t)))
        psi_weights.append(_frozen(w))
    return SphereRule(
        n=n,
        order=order,
        phi_nodes=phi,
        phi_weights=phi_w,
        psi_nodes=tuple(psi_nodes),
        psi_weights=tuple(psi_weights),
    )


def integrate(rule, f):
    """Integrate a (vectorized) function of Cartesian points over the sphere."""
    pts = rule.cartesian()
    vals = np.asarray(f(pts), dtype=np.float64)
    if vals.shape != (pts.shape[0],):
        raise DomainError("integrand must map (N, n) points to (N,) values")
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("integrand produced non-finite values")
    return float(np.sum(rule.weights() * vals))


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with its standard error; deterministic per seed."""

    value: float
    std_error: float
    samples: int
    seed: int


_MC_CHUNK = 1 << 20


def mc_integrate(n, f, samples, seed):
    """Uniform-sphere Monte Carlo via normalized Gaussian vectors (Philox).

    The generator is counter-based and keyed by the seed alone, so the
    sample sequence is fully determined by (seed, index).  `f` maps (m, n)
    points to (m,) values, a scalar, or a (k, m) stack; a stack gives k
    estimates from the one stream, each row summed on its own exactly as
    its lone run would be (a moment check's n+1 columns share one stream).
    """
    if samples < 1000:
        raise DomainError("samples must be >= 1000")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        g = rng.standard_normal((m, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        vals = np.asarray(f(g), dtype=np.float64)
        if vals.shape == ():
            vals = np.full(m, float(vals))
        if vals.ndim > 2 or vals.shape[-1] != m:
            raise DomainError("integrand must map (m, n) points to (m,) or (k, m) values")
        if not np.all(np.isfinite(vals)):
            raise EvaluationError("integrand produced non-finite values")
        rows = np.atleast_2d(vals)
        total = total + np.array([np.sum(r) for r in rows])
        total_sq = total_sq + np.array([np.sum(r * r) for r in rows])
        done += m
    area = surface_area(n)
    mean = total / samples
    var = np.maximum(total_sq / samples - mean * mean, 0.0) * samples / max(samples - 1, 1)
    estimates = [
        McEstimate(area * mu, area * math.sqrt(v / samples), samples, seed)
        for mu, v in zip(mean, var)
    ]
    return estimates if vals.ndim == 2 else estimates[0]


# Read only by perfbench/layertrace.py, which wraps both names and reads their
# cache_info(); nothing calls them.
@lru_cache(maxsize=1)
def _prefix_rule():
    """Placeholder for the n >= 5 prefix rule that the Gil-Pelaez integral replaced."""


@lru_cache(maxsize=1)
def _adaptive_circle_prefix():
    """Placeholder for the n = 4 prefix rule that the Gil-Pelaez integral replaced."""


def indicator_moment_columns(n, order, coeffs):
    """Vector of integrals of chi_{p>0} * {1, x_1^2, .., x_n^2} over S^{n-1}.

    `coeffs` are the diagonal coefficients of p on axes 1..n-1 once the
    axis-n coefficient is normalized to -1.  Every n >= 2 takes the one
    Gil-Pelaez integral of `_kernels.indicator_moment_block` at its fixed
    step; coefficients under 1e-11 in magnitude are exact touches.  `order`
    selects nothing, but order < 2 still raises DomainError, and so does a
    `coeffs` whose length is not n - 1.
    """
    if n < 2:
        raise DomainError("n must be >= 2")
    if order < 2:
        raise DomainError("order must be >= 2")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (n - 1,):
        raise DomainError(f"coeffs must have length n-1 = {n - 1}, got shape {coeffs.shape}")
    return _kernels.indicator_moment_block(coeffs, _kernels.STEP)


def integrate_indicator_quadratic(rule, p, weight_axis=None, check_rtol=None):
    """Integral of chi_{p>0} times an optional x_i^2 weight over S^{n-1}.

    The quadratic must be diagonal in the rule's coordinates; only the
    rule's dimension is read.  The most negative diagonal entry is moved to
    the last axis (the indicator and the weight are permuted consistently)
    and the columns of `indicator_moment_columns` are evaluated.

    With `check_rtol` set, the value is recomputed at half the trapezoid
    step of `_kernels.indicator_moment_block`, and a
    QuadratureConvergenceWarning is raised if the two disagree.  The
    refined value is returned.
    """
    n = rule.n
    if p.n != n:
        raise DomainError("rule and quadratic dimensions differ")
    if not p.is_diagonal():
        raise DomainError("quadratic must be diagonal in the rule's coordinates")
    if weight_axis is not None and not (0 <= weight_axis < n):
        raise DomainError("weight axis out of range")

    diag = p.diagonal()
    if np.abs(diag).max() == 0.0:
        return 0.0
    k = int(np.argmin(diag))
    if diag[k] >= 0.0:
        raise DomainError("quadratic has no negative direction; indicator is trivial")
    perm = list(range(n))
    perm[k], perm[n - 1] = perm[n - 1], perm[k]
    diag_p = diag[perm]
    coeffs = diag_p[: n - 1] / (-diag_p[n - 1])

    col = 0
    if weight_axis is not None:
        col = perm.index(weight_axis) + 1

    value = float(indicator_moment_columns(n, rule.order, coeffs)[col])
    if check_rtol is not None:
        value2 = float(_kernels.indicator_moment_block(coeffs, 0.5 * _kernels.STEP)[col])
        if abs(value2 - value) > check_rtol * (abs(value2) + 1e-300):
            warnings.warn(
                f"indicator quadrature changed by {abs(value2 - value):.3e} "
                f"on refinement (requested rtol {check_rtol:.1e})",
                QuadratureConvergenceWarning,
                stacklevel=2,
            )
        value = value2
    return value
