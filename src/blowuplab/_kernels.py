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
s_j + i pi/2, s_j = -ln(2 |lambda_j|)) and decay exponentially at both ends,
so the trapezoid rule in s converges like exp(-pi^2/h) for every n and
every coefficient vector (Trefethen & Weideman, SIAM Review 56, 2014).  The
structure sits in the band of scales [min s_j - MARGIN, max s_j + MARGIN],
centre m and half-width H, over the nonzero coefficients; outside it the
integrands only decay, like e^(s - s_edge) below and e^-(s - s_edge) or
faster above.  So the rule keeps s uniform across the band and compresses
both tails with a sinh (Takahasi & Mori, Publ. RIMS 9, 1974):
s(w) = m + w + k sinh(w), with weight s'(w) = 1 + k cosh(w), and the
trapezoid rule in w at h = STEP on |w| <= W, where s reaches
m +- (H - MARGIN + SPAN).  The singularities lie only inside the band,
where the map is near the identity, so the convergence stays exponential.
The half-count W / STEP is rounded up to a multiple of BUCKET and k
refitted to end the rule at the same s, which leaves 65, 97, 129 or 161
nodes for a normal form with |delta| < 1/2 at n = 3..8, and few distinct
counts in a batch.
Against the 0.11.0 rule (283-286 nodes, uniform in s at h = 0.27) at h/8,
156 such rows at n = 3..8 are within 5.8e-16 norm-wise and 7.1e-15
absolute, where the 0.11.0 rule itself leaves 8.0e-15 and 9.7e-14.
"""

import math
from functools import lru_cache

import numpy as np

# Coefficients below this are exact touches: the indicator mass they control
# is under a |ln a| ~ 2.5e-10, and the exact a ln|a| response to them would
# amplify rounding noise at delta = 0 into a seed of the unstable fixed point.
SNAP_EPS = 1e-11

# Trapezoid step in w, the band's margin and the tails' reach past it in
# s = ln t, and the multiple of nodes each half of a rule is rounded up to.
# Unbucketed, the node counts of a 32-row n = 4 block split it into about
# 6 slices a call instead of 1.5, which cost more than the nodes saved.
STEP = 0.25
MARGIN = 3.0
SPAN = 38.0
BUCKET = 16

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


def _node_map(big, small, step):
    """Centre m and sinh factor k of one row's map at STEP, and its half-count at `step`.

    `big` and `small` are the row's largest and smallest nonzero |lambda|,
    as Python floats; zeros play no part in the band.  The map is STEP's at
    every step, so a step that divides STEP keeps STEP's nodes among its
    own.  Closed form in math, not numpy: numpy's SIMD log differs from
    math.log in the last bit, which would move every node, and per-row
    numpy calls would cost more than the row's nodes.
    """
    lo = -math.log(2.0 * big) - MARGIN
    hi = -math.log(2.0 * small) + MARGIN
    half_width = 0.5 * (hi - lo)
    end = half_width - MARGIN + SPAN  # |s - m| where both tails stop
    # w + k sinh(w) with k = 2 e^-H reaches `end` below w = asinh(end e^H / 2),
    # which is H + ln(end) to 2e-6 and cannot overflow; the half-count is
    # rounded up to a bucket and k refitted, so the rule ends at `end` exactly
    half = -(-math.ceil((half_width + math.log(end)) / STEP) // BUCKET) * BUCKET
    w_end = half * STEP
    return 0.5 * (hi + lo), (end - w_end) / math.sinh(w_end), math.ceil(half * (STEP / step))


@lru_cache(maxsize=64)
def _grid(half, step):
    """Nodes w = step * (-half..half) and their sinh and cosh, read-only."""
    w = step * np.arange(-half, half + 1.0)
    grid = (w, np.sinh(w), np.cosh(w))
    for a in grid:
        a.setflags(write=False)  # cached and shared
    return grid


@lru_cache(maxsize=64)
def _scale(n):
    """|S^{n-1}| on the indicator's column, |S^{n-1}| / n on the x_i^2 ones."""
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    scale = np.full(n + 1, area / n)
    scale[0] = area
    scale.setflags(write=False)  # cached and shared
    return scale


def _columns(lam, m, k, half, step):
    """Moment columns (r, n+1) of coefficient rows `lam` (r, n) that share a half-count.

    `m` and `k` are the rows' map constants: (r, 1) columns, or floats for
    r = 1.
    """
    w, sinh, cosh = _grid(half, step)
    s = m + w + k * sinh
    u = (2.0 * lam)[:, :, None] * np.exp(s)[..., None, :]
    theta = 0.5 * np.arctan(u).sum(axis=1)
    u2p1 = 1.0 + u * u
    weight = (1.0 + k * cosh) / np.exp(0.25 * np.log(u2p1).sum(axis=1))
    im = np.sin(theta) * weight
    re = np.cos(theta) * weight
    out = np.empty((lam.shape[0], lam.shape[1] + 1))
    np.sum(im, axis=1, out=out[:, 0])
    np.sum((im[:, None, :] + u * re[:, None, :]) / u2p1, axis=2, out=out[:, 1:])
    return (0.5 + (step / math.pi) * out) * _scale(lam.shape[1])


def indicator_moment_block(coeffs, step):
    """Integrals of chi_{p>0} * {1, x_1^2, ..., x_n^2} over S^{n-1}, n = coeffs.shape[-1] + 1.

    `coeffs` holds p's diagonal coefficients on the first n-1 axes once the
    last one is normalized to -1, one row per form, shape (n-1,) or
    (..., n-1); entries under SNAP_EPS in magnitude count as 0.  `step` is
    the trapezoid step in w: STEP, or a finer one for a check pass, which
    keeps STEP's map, so that halving the step nests the nodes.
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
        mags = [abs(a) for a in lam[0].tolist() if a != 0.0]
        m, k, half = _node_map(max(mags), min(mags), step)
        return _columns(lam, m, k, half, step).reshape(coeffs.shape[:-1] + (n + 1,))
    out = np.zeros((lam.shape[0], n + 1))
    mags = np.abs(lam)  # max and min are exact, so each row's are its own call's
    live = np.flatnonzero((lam > 0.0).any(axis=1))
    big = mags.max(axis=1)[live].tolist()
    small = np.where(mags > 0.0, mags, np.inf).min(axis=1)[live].tolist()
    # half-count -> (its rows, their m and k); a dict, not np.unique, whose
    # first call costs more than a sweep step in every fresh pool worker
    groups = {}
    for i, b, s in zip(live.tolist(), big, small):
        m, k, half = _node_map(b, s, step)
        idx, ms, ks = groups.setdefault(half, ([], [], []))
        idx.append(i)
        ms.append(m)
        ks.append(k)
    for half, (idx, ms, ks) in groups.items():
        per = max(1, BLOCK_ELEMS // (n * (2 * half + 1)))
        for j in range(0, len(idx), per):
            part = slice(j, j + per)
            out[idx[part]] = _columns(lam[idx[part]], np.array(ms[part])[:, None],
                                      np.array(ks[part])[:, None], half, step)
    return out.reshape(coeffs.shape[:-1] + (n + 1,))
