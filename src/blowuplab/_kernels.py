"""The indicator-moment kernel: every moment column from one 1-D integral.

chi_{p>0} depends only on the direction of x, so with X ~ N(0, I_n) and
Q = sum_j lambda_j X_j^2, lambda = (coeffs, -1), the sphere integrals are

  int_S chi dA = |S| P(Q > 0),   int_S x_i^2 chi dA = (|S|/n) E[X_i^2 1{Q > 0}].

Both follow by Gil-Pelaez inversion of the characteristic function
phi(t) = prod_j (1 - 2i lambda_j t)^(-1/2) of Q (J. Gil-Pelaez, Biometrika
38, 1951; J. P. Imhof, Biometrika 48, 1961):
P(Q > 0) = 1/2 + (1/pi) int_0^inf Im phi(t) dt/t, and E[X_i^2 1{Q > 0}] is
the same with phi(t) / (1 - 2i lambda_i t).  With u_j = 2 lambda_j t,
theta = (1/2) sum arctan(u_j) and rho = prod (1 + u_j^2)^(1/4), the
integrands are sin(theta)/rho and
(sin(theta) + u_i cos(theta)) / (rho (1 + u_i^2)).

In s = ln t both are analytic in |Im s| < pi/2 (the branch points sit at
t = +-i/(2 lambda_j)) and decay exponentially at both ends, so the plain
trapezoid rule in s converges like exp(-pi^2/h) for every n and every
coefficient vector (Trefethen & Weideman, SIAM Review 56, 2014).  h = STEP
leaves the delta = 0 columns within 5e-16 of the analytic ones, norm-wise,
at n = 3..24.  The nodes are s = s_lo + k h up to
s_hi = -ln(2 lambda_(2)) + SPAN, with s_lo = -ln(2 max|lambda|) - SPAN and
lambda_(2) the second-largest |lambda|: below s_lo the integrands are
under e^-SPAN, and above s_hi they decay like 1/t or faster.  That is
(ln(max|lambda| / lambda_(2)) + 2 SPAN) / h nodes: at most 288 for a normal
form with |delta| < 1/2 at n = 3..8, where both are O(1).
"""

import math
from functools import lru_cache

import numpy as np

# Coefficients below this are exact touches: the indicator mass they control
# is under a |ln a| ~ 2.5e-10, and the exact a ln|a| response to them would
# amplify rounding noise at delta = 0 into a seed of the unstable fixed point.
SNAP_EPS = 1e-11

# Trapezoid step in s = ln t, and how far past the scales 1/(2 |lambda|) the
# nodes run, in s.  Against h/4, norm-wise over 70 deltas each at n = 3..8
# with |delta| from 1e-9 to 0.49, h = 0.3, 0.27 and 0.25 leave 9.7e-14,
# 3.0e-15 and 3.0e-16; a SPAN of 50 moves nothing beyond 2.7e-16.
STEP = 0.27
SPAN = 38.0

# Most float64 elements one kernel temporary holds.  A batch of rows is
# evaluated a slice at a time, so a call's working set stays a few of these
# (64 KB each) whatever the batch size.  Larger slices page-fault their
# temporaries in afresh once glibc malloc returns them to the OS: a 32-cell
# n = 4 sweep block took 21 ms for 24 steps at 1 << 13 and 31 ms, with 275
# faults a step, at 1 << 15 (2-core x86_64).
BLOCK_ELEMS = 1 << 13


def backend_name():
    """Kernel name for environment stamps; a manifest naming another warns on replay."""
    return "pure"


# Its only reader is perfbench/layertrace.py, which wraps this name; nothing calls it.
def row_reductions():
    """Placeholder for the per-row kernel that the Gil-Pelaez integral replaced."""


def _node_range(lam, step):
    """First node s_lo and node count of the trapezoid rule for one coefficient row.

    `lam` is the row as a list of Python floats, -1 last.  math.log, not
    np.log: numpy's SIMD log differs from it in the last bit, which would
    move every node.
    """
    mags = sorted(map(abs, lam))
    s_lo = -math.log(2.0 * mags[-1]) - SPAN
    s_hi = -math.log(2.0 * mags[-2]) + SPAN
    # lo + k h, not np.arange(lo, hi, h): arange's nodes drift off the step
    # the weights assume, 4.5e-12 over 1600 nodes, which biases the sum
    return s_lo, math.ceil((s_hi - s_lo) / step) + 1


@lru_cache(maxsize=64)
def _scale(n):
    """|S^{n-1}| on the indicator's column, |S^{n-1}| / n on the x_i^2 ones."""
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    scale = np.full(n + 1, area / n)
    scale[0] = area
    scale.setflags(write=False)  # cached and shared
    return scale


def _columns(lam, s_lo, count, step):
    """Moment columns (r, n+1) of coefficient rows `lam` (r, n) that share a node count.

    `s_lo` is the rows' first node: an (r, 1) column, or a float for r = 1.
    """
    s = s_lo + step * np.arange(count)
    u = (2.0 * lam)[:, :, None] * np.exp(s)[..., None, :]
    theta = 0.5 * np.arctan(u).sum(axis=1)
    u2p1 = 1.0 + u * u
    rho = np.exp(0.25 * np.log(u2p1).sum(axis=1))
    im = np.sin(theta) / rho
    re = np.cos(theta) / rho
    out = np.empty((lam.shape[0], lam.shape[1] + 1))
    np.sum(im, axis=1, out=out[:, 0])
    np.sum((im[:, None, :] + u * re[:, None, :]) / u2p1, axis=2, out=out[:, 1:])
    return (0.5 + (step / math.pi) * out) * _scale(lam.shape[1])


def indicator_moment_block(coeffs, step):
    """Integrals of chi_{p>0} * {1, x_1^2, ..., x_n^2} over S^{n-1}, n = coeffs.shape[-1] + 1.

    `coeffs` holds p's diagonal coefficients on the first n-1 axes once the
    last one is normalized to -1, one row per form, shape (n-1,) or
    (..., n-1); entries under SNAP_EPS in magnitude count as 0.  `step` is
    the trapezoid step in s = ln t: STEP, or a finer one for a check pass.
    Returns the columns, shape (..., n+1), all zeros for a row with no
    positive coefficient (the indicator is then empty).

    Each row comes out bit for bit as its own 1-D call, whatever rows share
    the batch: rows are evaluated in slices of equal node count, since
    padding a row would reorder its pairwise sums, and of at most
    BLOCK_ELEMS elements per temporary.
    """
    coeffs = np.where(np.abs(coeffs) < SNAP_EPS, 0.0, coeffs)
    n = coeffs.shape[-1] + 1
    lam = np.empty((coeffs.size // (n - 1), n))
    lam[:, :-1] = coeffs.reshape(-1, n - 1)
    lam[:, -1] = -1.0
    if lam.shape[0] == 1:  # one form: no grouping, no gather or scatter
        if not np.any(coeffs > 0.0):
            return np.zeros(coeffs.shape[:-1] + (n + 1,))
        s_lo, count = _node_range(lam[0].tolist(), step)
        return _columns(lam, s_lo, count, step).reshape(coeffs.shape[:-1] + (n + 1,))
    out = np.zeros((lam.shape[0], n + 1))
    groups = {}  # node count -> (its rows, their s_lo)
    for i, row in enumerate(lam.tolist()):
        if any(a > 0.0 for a in row):
            s_lo, count = _node_range(row, step)
            idx, lo = groups.setdefault(count, ([], []))
            idx.append(i)
            lo.append(s_lo)
    for count, (idx, lo) in groups.items():
        per = max(1, BLOCK_ELEMS // (n * count))
        for j in range(0, len(idx), per):
            part = idx[j : j + per]
            out[part] = _columns(lam[part], np.array(lo[j : j + per])[:, None], count, step)
    return out.reshape(coeffs.shape[:-1] + (n + 1,))
