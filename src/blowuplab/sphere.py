"""Quadrature and Monte Carlo integration on the unit sphere S^{n-1}.

Product rules in the polar angles (phi, psi_1, ..., psi_{n-2}): uniform
midpoint nodes in phi (exact periodicity) and Gauss-Jacobi nodes in
t = cos(psi_j) with the sin^j Jacobian absorbed into the weight function,
which makes the surface measure exact at every order.  Indicators of
quadratics are never sampled: the innermost angle is resolved in closed
form and the last outer angle is integrated on panels split at the exact
sign-change roots, or at n = 4 in closed form too (see `_kernels`).
"""

import math
import warnings
from dataclasses import dataclass, replace
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


@lru_cache(maxsize=16)
def _gauss_legendre(order):
    x, w = _gauss_jacobi(order, 0.0)
    return _frozen(x), _frozen(w)


def _fold_axis(nodes, weights, images):
    """Keep one node per orbit of the index maps `images`, with the orbit's weight.

    `images` must list every non-identity element of the group, so that the
    orbit of index k is {k} plus images[.][k]; its lowest index is kept.
    Each distinct orbit member adds its weight once.
    """
    k = np.arange(len(nodes))
    rep = np.minimum.reduce([k, *images])
    folded = np.zeros(len(nodes))
    np.add.at(folded, rep, weights)
    keep = np.flatnonzero(rep == k)
    return nodes[keep], folded[keep]


@lru_cache(maxsize=64)
def _prefix_rule(n, order):
    """Squared coordinates and weights of the folded product rule on S^{n-3}.

    These are the outer nodes left after the last two angles of S^{n-1} are
    handled by panels and the closed-form indicator resolution.  The kernel
    sees them only through their squared coordinates, and those depend on
    each angle only through its cos^2.  So each axis of `build_rule(n-2,
    order)` keeps one node per mirror orbit and carries the orbit's summed
    weight; orbits are formed by node index, never by comparing values:

    - Gauss-Jacobi psi axes: node k pairs with node N-1-k (t -> -t); with
      odd N the middle node is its own orbit.
    - phi axis, even N: phi -> phi + pi and phi -> pi - phi, which leaves
      the nodes in (0, pi/2].
    - phi axis, odd N: phi -> 2 pi - phi only, the one reflection that maps
      the midpoint nodes onto each other.

    So phi keeps (N+2)//4 nodes for even N and (N+1)//2 for odd N, and each
    of the n-4 psi axes keeps (N+1)//2: about (N/2)^(n-3)/2 rows instead of
    N^(n-3).  The kernel does not run on these rows: it runs on at most 209
    table rows in a = zsq @ coeffs[:-1], which the rows are interpolated
    from (see `_kernels.indicator_moment_block`).
    The cost limit is still checked against the unfolded product, so an
    (n, order) that exceeds MAX_PRODUCT_NODES raises DomainError as before.
    """
    if n == 3:
        return _frozen(np.ones((1, 1))), _frozen(np.ones(1))
    rule = build_rule(n - 2, order)
    k = np.arange(order)
    if order % 2:
        phi_images = [order - 1 - k]
    else:
        half = order // 2
        phi_images = [(k + half) % order, (half - 1 - k) % order, order - 1 - k]
    phi, phi_w = _fold_axis(rule.phi_nodes, rule.phi_weights, phi_images)
    psi = [_fold_axis(x, w, [order - 1 - k]) for x, w in zip(rule.psi_nodes, rule.psi_weights)]
    # `order` is kept, so nodes() and weights() still check the unfolded size
    folded = replace(
        rule,
        phi_nodes=phi,
        phi_weights=phi_w,
        psi_nodes=tuple(x for x, _ in psi),
        psi_weights=tuple(w for _, w in psi),
    )
    pts = folded.cartesian()
    return _frozen(pts * pts), _frozen(folded.weights())


_HALF_T = math.sqrt(0.5)

# Every graded panel of the n = 4 prefix is an image of one unit rule on
# s in [0, 1], built once (`_unit_graded_rule`): panel k < _GRADE_LEVELS is
# [2^-(k+1), 2^-k] and the last panel is [0, 2^-_GRADE_LEVELS], each with
# _GRADE_NODES Gauss-Legendre nodes, (_GRADE_LEVELS + 1) * _GRADE_NODES =
# 150 nodes in all.  Geometric grading with a fixed rule per panel converges like
# (3 + 2 sqrt 2)^(-2 N) per panel (Schwab, p- and hp-FEM, 1998), about
# 5e-16 at N = 10.  Against a 34-level x 24-node, order-128 reference on
# 159 deltas, 14 x 10 leaves the worst n = 4 error where 20 x 16 had it
# (9.1e-14 at order 64), while 12 x 10 and 14 x 8 reach 2.6e-13 and 2.9e-13.
_GRADE_LEVELS = 14
_GRADE_NODES = 10


@lru_cache(maxsize=1)
def _unit_graded_rule():
    """(nodes, weights) of the unit graded rule, read-only because cached.

    Built on first use rather than at import, which an import that never
    reaches n = 4 need not pay.
    """
    x, w = _gauss_legendre(_GRADE_NODES)
    hi = np.ldexp(1.0, -np.arange(_GRADE_LEVELS + 1))
    lo = np.append(0.5 * hi[:-1], 0.0)
    s = lo[:, None] + (hi - lo)[:, None] * (0.5 * (x + 1.0))
    return _frozen(s.ravel()), _frozen((0.5 * (hi - lo)[:, None] * w).ravel())


def _piece_nodes_1d(alpha, beta, order):
    """Nodes/weights in t on [0, sin(pi/4)] adapted to A(t) = alpha + beta t^2.

    The downstream integrand is analytic in A away from A = 0 with an
    A*log|A| singularity there, so layers get a sinh map and near-roots
    beyond the end a sin map, both with `order` Gauss-Legendre nodes, and
    an interior root or touch gets the unit graded rule
    (`_unit_graded_rule`) scaled onto each side of it: 150 nodes a side,
    whatever `order` is.
    """
    T = _HALF_T
    glx, glw = _gauss_legendre(order)
    gx = 0.5 * (glx + 1.0)

    def plain(lo, hi):
        return lo + (hi - lo) * gx, 0.5 * (hi - lo) * glw

    def graded(target, far):
        """Dyadic panels from `far` accumulating at `target` (either side)."""
        s, w = _unit_graded_rule()
        return target + (far - target) * s, abs(far - target) * w

    if abs(alpha) < _kernels.SNAP_EPS:
        alpha = 0.0
    q_end = alpha + beta * T * T
    if abs(beta) < 1e-300:
        return plain(0.0, T)
    if alpha == 0.0:
        return graded(0.0, T)
    if q_end == 0.0 or alpha * q_end < 0.0:
        t_r = math.sqrt(-alpha / beta) if alpha * beta < 0 else T
        if t_r >= T:
            return plain(0.0, T) if 4.0 * abs(q_end) >= abs(alpha) else _sin_map(alpha, beta, order)
        tl, wl = graded(t_r, 0.0)
        tr, wr = graded(t_r, T)
        return np.concatenate([tl, tr]), np.concatenate([wl, wr])
    if alpha * beta > 0.0:
        if 4.0 * abs(alpha) >= abs(q_end):
            return plain(0.0, T)
        ell = math.sqrt(alpha / beta)
        v_max = math.asinh(T / ell)
        v = v_max * gx
        return ell * np.sinh(v), 0.5 * v_max * glw * ell * np.cosh(v)
    # alpha*beta < 0 with no root inside (|q_end| shrinking toward the end)
    if 4.0 * abs(q_end) >= abs(alpha):
        return plain(0.0, T)
    return _sin_map(alpha, beta, order)


def _sin_map(alpha, beta, order):
    """t = t_r sin(w) map toward a root at or beyond the piece end."""
    glx, glw = _gauss_legendre(order)
    gx = 0.5 * (glx + 1.0)
    t_r = math.sqrt(-alpha / beta)
    w_max = math.asin(min(_HALF_T / t_r, 1.0))
    w = w_max * gx
    return t_r * np.sin(w), 0.5 * w_max * glw * t_r * np.cos(w)


@lru_cache(maxsize=512)
def _adaptive_circle_prefix(c1, c2, order):
    """Quadrant circle rule for the n=4 prefix, adapted to A(phi) = c1 cos^2 + c2 sin^2.

    The indicator reduction has A*log|A| transverse singularities across
    {A = 0}, so each piece of the angle (t = sin phi, t = cos phi) gets
    `_piece_nodes_1d`'s rule for its A: `order` plain nodes, or 150 graded
    nodes on each side of a root or touch (214 rows at order 64 for a
    touch, 364 for an interior root).  The n=4 moments stay within 1e-13
    (norm-wise) of a 34-level x 24-node, order-128 reference at orders
    >= 48, and at order 32 unless a delta component sits between the 1e-11
    touch and about 1e-7.  Returns (squared coordinates, weights) with the
    4-fold quadrant symmetry folded into the weights, both read-only
    because they are cached.
    """
    pieces = []
    # left piece: t = sin(phi), A = c1 + (c2 - c1) t^2
    t, wt = _piece_nodes_1d(c1, c2 - c1, order)
    zsq = np.stack([1.0 - t * t, t * t], axis=1)
    pieces.append((zsq, wt / np.sqrt(1.0 - t * t)))
    # right piece: t = cos(phi), A = c2 + (c1 - c2) t^2
    t, wt = _piece_nodes_1d(c2, c1 - c2, order)
    zsq = np.stack([t * t, 1.0 - t * t], axis=1)
    pieces.append((zsq, wt / np.sqrt(1.0 - t * t)))
    zsq = np.concatenate([p[0] for p in pieces], axis=0)
    w = 4.0 * np.concatenate([p[1] for p in pieces])
    return _frozen(zsq), _frozen(w)


def indicator_moment_columns(n, order, coeffs):
    """Vector of integrals of chi_{p>0} * {1, x_1^2, .., x_n^2}.

    `coeffs` are the diagonal coefficients of p on axes 1..n-1 once the
    axis-n coefficient is normalized to -1.  The last two angles are
    resolved by the kernel: both in closed form at n = 4; elsewhere the
    innermost in closed form and the last outer one with min(order, K(n))
    Gauss-Legendre nodes, where K = 48, 40 at n = 3, >= 5 keeps that rule
    within 1e-13 of a 256-node one for |delta| < 1/2
    (`_kernels.last_angle_nodes`; other coefficient vectors get `order`
    nodes).  So at n = 4, and above K(n), raising `order` refines only the
    prefix.  The prefix sphere S^{n-3} is one point for n = 3, the graded
    circle rule for n = 4 (the kernel runs on each of its rows) and the
    folded order-`order` product rule for n >= 5 (the kernel runs once on a
    graded table in the scalar it reads from a row, at most 209 rows).
    Raises DomainError for order < 2, at every n.
    """
    return _moment_columns(n, order, coeffs, refine=False)


def _moment_columns(n, order, coeffs, refine):
    """`indicator_moment_columns`, or with `refine` its refinement pass.

    The refinement pass doubles both resolutions: the prefix runs at
    2 * order and the kernel on twice the min(order, K(n)) nodes of the
    first pass.  Doubling `order` alone would leave the kernel at K(n)
    nodes, so above K(n) the two passes would share their kernel error.
    At n = 4 the kernel takes no nodes, and only the prefix refines.
    """
    if order < 2:
        raise DomainError("order must be >= 2")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if n == 2:
        return _closed_form_columns_2d(coeffs[0])
    nodes = _kernels.last_angle_nodes(n, order, coeffs)
    if refine:
        order, nodes = 2 * order, 2 * nodes
    if n == 4:
        zsq, wts = _adaptive_circle_prefix(float(coeffs[0]), float(coeffs[1]), order)
    else:
        zsq, wts = _prefix_rule(n, order)
    glx, glw = _gauss_legendre(nodes)
    return _kernels.indicator_moment_block(zsq, wts, coeffs, n, glx, glw)


def _closed_form_columns_2d(c1):
    """n = 2: the outer sphere is two atoms; everything is closed form."""
    if c1 <= 0.0:
        return np.zeros(3)
    st = 1.0 / math.sqrt(1.0 + c1)
    ct = math.sqrt(c1) * st
    psi = math.asin(st)
    j0 = math.pi - 2.0 * psi
    j2 = ct * st + 0.5 * j0
    return 2.0 * np.array([j0, j2, j0 - j2])


def integrate_indicator_quadratic(rule, p, weight_axis=None, check_rtol=None):
    """Integral of chi_{p>0} times an optional x_i^2 weight over S^{n-1}.

    The quadratic must be diagonal in the rule's coordinates.  The most
    negative diagonal entry is moved to the last axis (the indicator and
    the weight are permuted consistently), the innermost angle is resolved
    in closed form, and the remaining angles use the product rule with the
    last one split into panels at the exact boundary roots.

    With `check_rtol` set, the value is recomputed with the prefix at twice
    the order and the kernel's last-angle rule on twice its nodes (see
    `indicator_moment_columns`; at n = 4 the kernel is closed form, so only
    the prefix), and a QuadratureConvergenceWarning is raised if the two
    disagree.  The refined value is returned.
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
        value2 = float(_moment_columns(n, rule.order, coeffs, refine=True)[col])
        if abs(value2 - value) > check_rtol * (abs(value2) + 1e-300):
            warnings.warn(
                f"indicator quadrature changed by {abs(value2 - value):.3e} "
                f"on refinement (requested rtol {check_rtol:.1e})",
                QuadratureConvergenceWarning,
                stacklevel=2,
            )
        value = value2
    return value
