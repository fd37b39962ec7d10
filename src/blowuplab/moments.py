"""Sphere moments of the indicator of the normal form and derived objects.

B(delta) and B_i(delta) are (negated) integrals of the indicator of
{p_delta > 0} against 1 and x_i^2 over S^{n-1}; their increments C_i from
the delta = 0 baseline drive the half-scale dynamics.  The degree-2
Fourier block of -chi_{p_delta > 0} is the orthogonal projection onto
trace-free quadratics, diagonal by symmetry.
"""

import csv
import io
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .quadratic import HarmonicQuadratic, delta_norms, normal_form_diagonal
from .sphere import (
    build_rule,
    indicator_moment_columns,
    mc_integrate,
    surface_area,
)


@dataclass
class MomentSet:
    """Moments B, B_i and increments C, C_i for one delta."""

    n: int
    delta: np.ndarray
    B: float
    B_i: np.ndarray
    C: float
    C_i: np.ndarray

    def validate(self):
        """Internal consistency required of any moment set: `_check_columns`, and sum(C_i) = C."""
        _check_columns(-np.concatenate(([self.B], self.B_i))[None])
        if not abs(self.C_i.sum() - self.C) <= 1e-9 * (abs(self.C) + 1e-30):
            raise AssertionError("sum of C_i must equal C")
        return self


def _check_columns(cols):
    """Check kernel columns cols (rows, n+1), each row -B and -B_i of one set.

    sum(B_i) = B to 1e-9 relative (sum x_i^2 = 1), and no B moment is
    positive; AssertionError otherwise, a NaN included (each test is written
    so that NaN fails it).  `moment_block` needs no test of sum(C_i) = C,
    since it stores C as that sum.
    """
    indicator = cols[:, 0]
    if not (abs(cols[:, 1:].sum(axis=1) - indicator) <= 1e-9 * abs(indicator)).all():
        raise AssertionError("sum of B_i must equal B (sum x_i^2 = 1)")
    if not (cols >= 0.0).all():
        raise AssertionError("B moments are integrals of -chi * nonneg")


@lru_cache(maxsize=64)
def _zero_columns(n):
    """The delta = 0 columns."""
    cols = indicator_moment_columns(n, normal_form_diagonal(np.zeros(n - 2))[:-1])
    cols.setflags(write=False)  # cached and shared
    return cols


def analytic_baseline(n):
    """Exact B(0) and B_i(0).

    B_i(0) = -omega/(2n) for i <= n-2 by the swap symmetry of the two
    distinguished axes; the last two values follow from
    integral_S |x_{n-1} x_n| dA = 2 omega_n / (n pi).
    """
    omega = surface_area(n)
    b0 = -0.5 * omega
    bi0 = np.full(n, -omega / (2.0 * n))
    bi0[n - 2] = -omega * (1.0 + 2.0 / math.pi) / (2.0 * n)
    bi0[n - 1] = -omega * (1.0 - 2.0 / math.pi) / (2.0 * n)
    return b0, bi0


# `order` is accepted and ignored for perfbench/, the only caller that passes it.
def compute_moments(delta, n, order=None):
    """Moment set at delta, with increments against the delta = 0 baseline.

    `moment_block` on a block of one: a delta without n-2 entries is a
    DomainError here, and the rest is `moment_block`'s.
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=np.float64))
    if delta.shape != (n - 2,):
        raise DomainError(f"delta must have length n-2 = {n - 2}")
    b, b_i, c, c_i = moment_block(delta[None], n)
    return MomentSet(n=n, delta=delta, B=float(b[0]), B_i=b_i[0], C=float(c[0]), C_i=c_i[0])


def moment_block(delta, n):
    """Moments of a stack of deltas (B, n-2), from one kernel call.

    Returns b (B,), b_i (B, n), c (B,) and c_i (B, n), each row bit for bit
    what the row alone gives.  B and B_i are one Gil-Pelaez integral
    (`sphere.indicator_moment_columns`) at its fixed step in every
    dimension, and the baseline is the same integral at delta = 0, so
    delta = 0 gives C_i = 0 exactly; C is stored as sum(C_i).  A row not
    inside |delta| < 1/2 (a NaN entry included) is a DomainError for the
    stack, and columns that fail `_check_columns` an AssertionError.
    """
    if not (delta_norms(delta) < 0.5).all():
        raise DomainError("compute_moments requires |delta| < 1/2")
    cols = indicator_moment_columns(n, normal_form_diagonal(delta)[:, :-1])
    _check_columns(cols)
    b_i = -cols[:, 1:]
    c_i = b_i + _zero_columns(n)[1:]
    return -cols[:, 0], b_i, c_i.sum(axis=1), c_i


def fourier_diagonal(b, b_i, n):
    """Diagonal of `fourier_block2` from B (...,) and B_i (..., n), for one set or a stack."""
    omega = surface_area(n)
    diag = (n + 2) / (2.0 * omega) * (n * b_i - np.asarray(b)[..., None])
    return diag - diag.sum(axis=-1, keepdims=True) / n  # the mean, bit for bit


def fourier_block2(moments):
    """Orthogonal projection of -chi_{p_delta>0} onto degree-2 harmonics.

    By the reflection symmetries of p_delta the block is diagonal; the
    coefficient on x_i^2 is (n+2)/(2 omega_n) * (n B_i - B) in the
    projection (inner product over squared norm) convention.
    """
    n = moments.n
    return HarmonicQuadratic(n, np.diag(fourier_diagonal(moments.B, moments.B_i, n)))


# z_i^2 z_j^2 is a quartic, which the order-8 product rule integrates exactly
# (Gauss-Jacobi is exact to degree 15, the 8-point midpoint rule in phi to
# frequency 7); its node count 8^(n-3) stays small up to n = 8.
_QUARTIC_ORDER = 8


def quartic_moment_matrix(n):
    """Matrix of integrals of z_i^2 z_j^2 over the unit sphere in R^{n-2}.

    Equals lambda1 I + lambda2 J with lambda1 = 2 omega_{n-2}/((n-2) n) and
    lambda2 = omega_{n-2}/((n-2) n).  For n = 3 the sphere is two points
    and the matrix is the 1x1 [[2.0]].
    """
    if n < 3:
        raise DomainError("the moment matrix lives on R^{n-2}; needs n >= 3")
    d = n - 2
    if d == 1:
        return np.array([[2.0]])
    rule = build_rule(d, _QUARTIC_ORDER)
    pts = rule.cartesian()
    w = rule.weights()
    sq = pts * pts
    return (sq * w[:, None]).T @ sq


def quartic_moment_eigenvalues(n):
    """(lambda1, lambda2) of the analytic form lambda1 I + lambda2 J."""
    omega = surface_area(n - 2)
    return 2.0 * omega / ((n - 2) * n), omega / ((n - 2) * n)


@dataclass(frozen=True)
class InnerSlabResult:
    numeric: float
    asymptotic: float


def _strip_exact(kappa, a0, a1, b0, b1):
    """Exact integral of chi_{kappa + a^2 > b^2} - chi_{a^2 > b^2} on a panel.

    Resolved per a-strip: the b-measure difference is
    clip(sqrt(max(kappa + a^2, 0)), b0, b1) - clip(a, b0, b1), integrated in
    closed form between breakpoints where the clips switch.
    """

    def anti_root(a):
        # antiderivative of sqrt(kappa + a^2) on the region where it is real
        s = math.sqrt(max(kappa + a * a, 0.0))
        if kappa > 0:
            return 0.5 * (a * s + kappa * math.asinh(a / math.sqrt(kappa)))
        if kappa < 0:
            if a * a + kappa <= 0.0:
                return 0.0
            r = math.sqrt(-kappa)
            return 0.5 * (a * s - (-kappa) * math.acosh(a / r))
        return 0.5 * a * a

    breaks = {a0, a1}
    for b in (b0, b1):
        if b * b - kappa >= 0:
            r = math.sqrt(b * b - kappa)
            if a0 < r < a1:
                breaks.add(r)
        if a0 < b < a1:
            breaks.add(b)
    if kappa < 0:
        r = math.sqrt(-kappa)
        if a0 < r < a1:
            breaks.add(r)
    pts = sorted(breaks)
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (lo + hi)
        s_mid = math.sqrt(max(kappa + mid * mid, 0.0))
        # integral of the clipped boundary of region 1
        if s_mid <= b0:
            part1 = b0 * (hi - lo)
        elif s_mid >= b1:
            part1 = b1 * (hi - lo)
        else:
            part1 = anti_root(hi) - anti_root(lo)
        # integral of the clipped boundary of region 0
        if mid <= b0:
            part0 = b0 * (hi - lo)
        elif mid >= b1:
            part0 = b1 * (hi - lo)
        else:
            part0 = 0.5 * (hi * hi - lo * lo)
        total += part1 - part0
    return total


def inner_slab_integral(kappa, mu):
    """Inner-slab increment integral and its leading asymptotic.

    numeric = integral over (0, mu)^2 of the indicator difference between
    {kappa + x^2 > y^2} and {x^2 > y^2}, in closed form: `_strip_exact` is
    exact on any first-quadrant rectangle, so one call covers the square;
    asymptotic = -(1/4) kappa ln|kappa| (positive for 0 < kappa < 1, the
    leading term of the increment).
    """
    if not (0.0 < mu < 1.0):
        raise DomainError("mu must be in (0, 1)")
    if kappa == 0.0:
        return InnerSlabResult(0.0, 0.0)
    if abs(kappa) >= mu * mu:
        raise DomainError("requires |kappa| < mu^2")
    numeric = _strip_exact(kappa, 0.0, mu, 0.0, mu)
    asymptotic = -0.25 * kappa * math.log(abs(kappa))
    return InnerSlabResult(float(numeric), float(asymptotic))


def mc_moment_check(delta, n, samples, seed):
    """Monte Carlo estimates of B and B_i, all n+1 columns from one Philox pass."""
    diag = normal_form_diagonal(np.atleast_1d(np.asarray(delta, dtype=np.float64)))

    def columns(x):
        sq = x * x
        chi = (sq @ diag > 0).astype(np.float64)
        out = np.empty((n + 1, x.shape[0]))
        np.negative(chi, out=out[0])
        np.multiply(out[0], sq.T, out=out[1:])
        return out

    b_est, *bi_est = mc_integrate(n, columns, samples, seed)
    return b_est, bi_est


def mc_max_abs_z(moment_set, b_est, bi_est):
    """Largest |z| of B and the B_i of `moment_set` against `mc_moment_check`'s estimates."""
    values = [moment_set.B, *moment_set.B_i]
    return max(abs(v - e.value) / e.std_error for v, e in zip(values, [b_est, *bi_est]))


def csv_table(header, rows):
    """CSV text of every result table: a header, then rows whose numbers are
    written at `.17g` (read back bit for bit), strings as they are and None
    as an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [v if v is None or isinstance(v, str) else f"{v:.17g}" for v in row] for row in rows
    )
    return buf.getvalue()


def momentsets_to_csv(sets):
    """RFC-4180-style CSV for a sweep of moment sets (single n)."""
    if not sets:
        raise DomainError("no moment sets to export")
    n = sets[0].n
    if any(m.n != n for m in sets):
        raise DomainError("CSV export requires a single dimension per sweep")
    deltas = [f"delta_{i+1}" for i in range(n - 2)]
    b_i, c_i = ([f"{name}_{i+1}" for i in range(n)] for name in "BC")
    rows = ([m.n, *m.delta, m.B, *m.B_i, m.C, *m.C_i] for m in sets)
    return csv_table(["n", *deltas, "B", *b_i, "C", *c_i], rows)
