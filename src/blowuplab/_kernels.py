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


def backend_name():
    """Kernel name for environment stamps; a manifest naming another warns on replay."""
    return "pure"


# Its only reader is perfbench/layertrace.py, which wraps this name; nothing calls it.
def row_reductions():
    """Placeholder for the per-row kernel that the Gil-Pelaez integral replaced."""


def indicator_moment_block(coeffs, step):
    """Integrals of chi_{p>0} * {1, x_1^2, ..., x_n^2} over S^{n-1}, n = len(coeffs) + 1.

    `coeffs` are p's diagonal coefficients on the first n-1 axes once the
    last one is normalized to -1; entries under SNAP_EPS in magnitude count
    as 0.  `step` is the trapezoid step in s = ln t: STEP, or a finer one
    for a check pass.  Returns an (n+1,) vector, all zeros when no
    coefficient is positive (the indicator is then empty).
    """
    coeffs = np.where(np.abs(coeffs) < SNAP_EPS, 0.0, coeffs)
    n = coeffs.shape[0] + 1
    if not np.any(coeffs > 0.0):
        return np.zeros(n + 1)
    lam = np.append(coeffs, -1.0)
    mags = np.sort(np.abs(lam))
    s_lo = -math.log(2.0 * mags[-1]) - SPAN
    s_hi = -math.log(2.0 * mags[-2]) + SPAN
    # lo + k h, not np.arange(lo, hi, h): arange's nodes drift off the step
    # the weights assume, 4.5e-12 over 1600 nodes, which biases the sum
    s = s_lo + step * np.arange(math.ceil((s_hi - s_lo) / step) + 1)
    u = np.multiply.outer(2.0 * lam, np.exp(s))
    theta = 0.5 * np.arctan(u).sum(axis=0)
    u2p1 = 1.0 + u * u
    rho = np.exp(0.25 * np.log(u2p1).sum(axis=0))
    im = np.sin(theta) / rho
    re = np.cos(theta) / rho
    out = np.empty(n + 1)
    out[0] = np.sum(im)
    out[1:] = np.sum((im + u * re) / u2p1, axis=1)
    out = 0.5 + (step / math.pi) * out
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    out[0] *= area
    out[1:] *= area / n
    return out
