"""The indicator-moment kernel: per-row reductions summed into moments.

`row_reductions` is the numpy kernel of `_pure`.  `indicator_moment_block`
sums its per-row reductions into moments; for n >= 5 it runs the kernel on
a graded table and interpolates the prefix rows from it.
"""

import math

import numpy as np

from . import _pure

SNAP_EPS = _pure.SNAP_EPS


def backend_name():
    """Kernel name for environment stamps; a manifest naming another warns on replay."""
    return "pure"


# Looked up by indicator_moment_block at call time, so it can be wrapped.
row_reductions = _pure.row_reductions


# For n >= 5 the kernel reads a prefix row only through a = zsq @ coeffs[:-1],
# so its reductions R(a) are tabulated once per call instead of evaluated per
# row.  R is analytic in a except for an A ln|A| singularity at a = 0, so each
# side of 0 that holds rows, of extent e, is cut into _TABLE_LEVELS dyadic
# panels toward 0 plus one last panel [0, e 2^-_TABLE_LEVELS], each carrying
# _TABLE_NODES first-kind Chebyshev nodes: at most 2 * 13 * 8 = 208 kernel
# rows whatever the prefix size, plus one at a = 0 for snapped rows.
_TABLE_LEVELS = 12
_TABLE_NODES = 8

# The kernel's last-angle rule needs no more than K(n) Gauss-Legendre nodes
# a quarter piece.  After the sin/sinh/cosh maps of `_pure._piece` the
# integrand is analytic, so the rule converges geometrically (Trefethen,
# Approximation Theory and Approximation Practice, 2013) and stops gaining at
# a count set by the dimension.  Norm-wise error of R against a 256-node rule
# over a = zsq @ coeffs[:-1] log-spaced in +-[1.1e-11, 1/2] and
# b = coeffs[-1] in 1 +- sqrt(n-2)/2, which covers every |delta| < 1/2:
#   n = 3:     1.3e-12 at 40 nodes, 7.2e-14 at 48
#   n = 4:     1.1e-10 at 24, 2.8e-12 at 28, 7.5e-14 at 32
#   n = 5..8:  2.1e-11 to 9.4e-13 at 32, 6.6e-14 to 3.3e-14 at 40
# and no better at any count up to 72.  Outside that range a layer of width
# sqrt(b/|a|) can need more: the moments of a general n = 4 quadratic with
# b = 1e-9 are 2.9e-11 off on 32 nodes and 6.1e-14 on 64, so such
# coefficients keep `order` nodes.
_LAST_ANGLE_NODES = {3: 48, 4: 32}
_LAST_ANGLE_NODES_HIGH = 40  # n >= 5


def last_angle_nodes(ndim, order, coeffs):
    """Node count of the kernel's last-angle rule: min(order, K(ndim)).

    K(ndim) applies where it was measured: |coeffs[:-1]| <= 1/2 and
    |coeffs[-1] - 1| <= sqrt(ndim-2)/2, which every normal form with
    |delta| < 1/2 meets.  Other coefficient vectors keep `order` nodes.
    """
    *a_coeffs, b_coeff = coeffs.tolist()  # Python floats: cheaper than numpy on 2-7 entries
    if max(map(abs, a_coeffs)) > 0.5 or abs(b_coeff - 1.0) > 0.5 * math.sqrt(ndim - 2):
        return order
    return min(order, _LAST_ANGLE_NODES.get(ndim, _LAST_ANGLE_NODES_HIGH))


_CHEB_THETA = np.pi * (np.arange(_TABLE_NODES) + 0.5) / _TABLE_NODES
_CHEB_X = np.cos(_CHEB_THETA)
# values at _CHEB_X -> coefficients of T_0..T_{N-1} (discrete cosine transform)
_CHEB_V2C = (2.0 / _TABLE_NODES) * np.cos(np.outer(np.arange(_TABLE_NODES), _CHEB_THETA))
_CHEB_V2C[0] *= 0.5
# node positions in r = |a| / e, panel by panel: panel p < _TABLE_LEVELS is
# [2^-(p+1), 2^-p], the last panel is [0, 2^-_TABLE_LEVELS]
_PANEL_HI = np.ldexp(1.0, -np.arange(_TABLE_LEVELS + 1))
_PANEL_LO = np.append(0.5 * _PANEL_HI[:-1], 0.0)
_TABLE_R = (_PANEL_LO[:, None] + (_PANEL_HI - _PANEL_LO)[:, None] * 0.5 * (_CHEB_X + 1.0)).ravel()


def _panel_coords(r):
    """(panel, x): the panel of each r in [0, 1] and its position in [-1, 1]."""
    _, exp = np.frexp(r)
    panel = np.where(r > 0.0, np.clip(-exp, 0, _TABLE_LEVELS), _TABLE_LEVELS)
    last = panel == _TABLE_LEVELS
    x = np.ldexp(r, np.where(last, _TABLE_LEVELS + 1, panel + 2)) - np.where(last, 1.0, 3.0)
    return panel, x


def _table_reductions(a, coeffs, ndim, theta_max, glx, glw):
    """R at every a, interpolated from one kernel call on the graded table.

    The kernel snaps |a| < SNAP_EPS to an exact touch, so such rows read
    the kernel's own value at a = 0, one more table row; when every row is
    snapped (delta = 0) that row is the whole call.
    """
    snapped = np.abs(a) < SNAP_EPS
    sides = [s for s in (-1.0, 1.0) if np.any(s * a >= SNAP_EPS)]
    extents = np.array([np.max(s * a) for s in sides])
    nodes = [s * e * _TABLE_R for s, e in zip(sides, extents)]
    if np.any(snapped):
        nodes.append(np.zeros(1))
    nodes = np.concatenate(nodes)

    zsq = np.zeros((nodes.shape[0], ndim - 2))
    zsq[:, 0] = nodes
    unit = np.zeros(ndim - 1)
    unit[0] = 1.0
    unit[-1] = coeffs[-1]
    vals = row_reductions(zsq, unit, ndim, theta_max, glx, glw)
    if not sides:
        return np.broadcast_to(vals, (a.shape[0], 3))

    per_side = _TABLE_LEVELS + 1
    table = vals[: len(sides) * per_side * _TABLE_NODES].reshape(-1, _TABLE_NODES, 3)
    cheb = np.einsum("kj,pjc->pck", _CHEB_V2C, table)
    side = (a > 0.0).astype(np.intp) if len(sides) == 2 else np.zeros(a.shape[0], np.intp)
    panel, x = _panel_coords(np.abs(a) / extents[side])
    coef = np.take(cheb, side * per_side + panel, axis=0)
    # T_0..T_{N-1} at x by the three-term recurrence T_{k+1} = 2x T_k - T_{k-1}
    cheb_t = np.empty((_TABLE_NODES, x.shape[0]))
    cheb_t[0] = 1.0
    cheb_t[1] = x
    for k in range(2, _TABLE_NODES):
        cheb_t[k] = 2.0 * x * cheb_t[k - 1] - cheb_t[k - 2]
    out = np.einsum("km,mck->mc", cheb_t, coef)
    out[snapped] = vals[-1]
    return out


def indicator_moment_block(zsq, weights, coeffs, ndim, theta_max, glx, glw):
    """Integrals of chi_{p>0} * {1, x_1^2, ..., x_n^2} over the unit sphere.

    `zsq` and `weights` describe the prefix product rule on the outer
    (ndim-3)-sphere; `coeffs` are the diagonal coefficients on the first
    ndim-1 axes after the last axis is normalized to -1.  Returns an
    (ndim+1,) vector [I_chi, I_{x_1^2}, ..., I_{x_n^2}] (all >= 0).

    For ndim = 3, 4 the kernel runs on every prefix row.  For ndim >= 5 it
    runs once, on the graded table in a = zsq @ coeffs[:-1] (at most 208
    rows plus one at a = 0; only that one when delta = 0), and each prefix
    row's reductions are interpolated from it.  Summation over prefix rows
    uses numpy's fixed pairwise reduction so the result does not depend on
    threading or chunk partitioning.
    """
    zsq = np.asarray(zsq, dtype=np.float64)
    if ndim >= 5:
        R = _table_reductions(zsq @ coeffs[:-1], coeffs, ndim, theta_max, glx, glw)
    else:
        R = row_reductions(zsq, coeffs, ndim, theta_max, glx, glw)
    weights = np.asarray(weights, dtype=np.float64)
    chi_w = R[:, 0] * weights
    sin_w = R[:, 1] * weights
    cos_w = R[:, 2] * weights

    out = np.empty(ndim + 1, dtype=np.float64)
    out[0] = np.sum(chi_w)
    out[1:ndim - 1] = np.sum(zsq * sin_w[:, None], axis=0)
    out[ndim - 1] = np.sum(cos_w)
    out[ndim] = out[0] - np.sum(sin_w) - out[ndim - 1]
    return out
