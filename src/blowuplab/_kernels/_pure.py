"""The indicator-moment reduction kernel, in numpy.

Given squared coordinates of the outer-sphere prefix nodes and the
coefficient vector of a diagonal quadratic (last axis normalized to -1),
`row_reductions` integrates over the last outer angle with the innermost
angle of the indicator resolved in closed form.

The last-angle integrand is even about every quarter of the period, so only
theta in [0, pi/2] is integrated (times a symmetry factor).  On a quarter
the boundary function is exactly q(t) = alpha + beta t^2 in t = sin(theta)
(left half) or t = cos(theta) (right half), and the quarter is mapped so
the integrand is analytic:

  - alpha > 0, beta > 0, strong layer: t = l*sinh(v), q = alpha*cosh(v)^2
  - alpha > 0, beta < 0 with q_end = alpha + beta/2 under alpha/4 (a root
    inside the piece or just beyond its end): t = t_r*sin(w),
    q = alpha*cos(w)^2
  - alpha < 0 < beta (live beyond the root): t = t_r*cosh(v),
    q = |alpha|*sinh(v)^2
  - otherwise plain Gauss-Legendre in t, including a far root beyond the
    end (4*q_end >= alpha, the test sphere._piece_nodes_1d uses too): q
    stays above alpha/4 on the piece, so the integrand is analytic on a
    Bernstein ellipse wide enough for geometric convergence (Trefethen,
    Approximation Theory and Approximation Practice, 2013)

which removes the sqrt-type kinks and boundary layers of the naive
reduction.  The plain rule's nodes are the same for every row, so their
node-only factors are built once a call, on (1, G).

Rows are processed in blocks sized by element count (rows x nodes), not by
row count.  That bounds the working set of a call, so large calls neither
spill the cache nor make the allocator map and unmap megabytes per call;
the block size has no knob, and the results do not depend on how the rows
are partitioned.
"""

import numpy as np

_HALF_T = np.sqrt(0.5)  # sin(pi/4), the quarter midpoint in t

# Coefficients below this are exact touches: the indicator mass they control
# is under alpha*|ln alpha| ~ 2.5e-10, while resolving them would stretch the
# sinh/cosh maps past the quadrature's analyticity budget.
SNAP_EPS = 1e-11


def _j_pair(q, ndim):
    """(J_{ndim-2}, J_ndim): integrals of sin^m over the resolved inner interval.

    The interval is [psi*, pi - psi*] with tan(psi*) = 1/sqrt(q), q >= 0.
    With u = sqrt(q) and s = sin^2(psi*) = 1/(1+q): J_0 = 2 arctan(u),
    J_1 = 2 u sqrt(s), and J_m = (2/m) p + ((m-1)/m) J_{m-2} with
    p = cos(psi*) sin^(m-1)(psi*) = u s^(m/2), one factor of s per step.
    Only ndim's parity runs, so even ndim takes no square root of 1 + q.
    q = 0 gives u = 0 and so J = 0 exactly.
    """
    u = np.sqrt(q)
    s = 1.0 / (1.0 + q)
    if ndim % 2 == 0:
        p = u * s
        j = p + np.arctan(u)  # J_2 = p + J_0 / 2
    else:
        p = u * np.sqrt(s)
        j = 2.0 * p  # J_1
    for m in range(4 - ndim % 2, ndim + 1, 2):
        p = p * s
        j_prev, j = j, (2.0 / m) * p + ((m - 1.0) / m) * j
    return j_prev, j


def _node_factors(t2, t_weights, left_piece, ndim):
    """(w, w s2, w c2): the node weights of the three reductions.

    t2 holds the squared nodes in the piece variable t (sin of the last
    angle on the left piece, cos on the right) and t_weights their weights
    dt.  w is dt / sqrt(1 - t2), the jacobian back to the angle, times the
    s2^((ndim-3)/2) area factor; on the right piece s2 = 1 - t2, so the two
    combine into (1 - t2)^((ndim-4)/2).  Any shape: the plain branch passes
    its shared (1, G) nodes, the mapped branches (M, G).
    """
    one_m = 1.0 - t2
    if left_piece:
        s2, c2 = t2, one_m
        base = t_weights / np.sqrt(one_m)
        if ndim > 3:
            base = base * t2 ** ((ndim - 3) / 2.0)
    else:
        s2, c2 = one_m, t2
        base = t_weights if ndim == 4 else t_weights * one_m ** ((ndim - 4) / 2.0)
    return base, base * s2, base * c2


def _accumulate(out, rows, factors, q, ndim):
    """Add one panel's reductions for the selected rows.

    factors: `_node_factors` of the panel's nodes, (1, G) or (M, G).
    q: (M, G) exact boundary values, >= 0 by construction in every branch;
    the clamp only keeps a rounding -0.0 or -ulp out of the square root.
    Each row's weighted sum is numpy's pairwise reduction over its nodes.
    """
    base, base_s2, base_c2 = factors
    j_lo, j_hi = _j_pair(np.maximum(q, 0.0), ndim)
    out[rows, 0] += (base * j_lo).sum(axis=-1)
    out[rows, 1] += (base_s2 * j_hi).sum(axis=-1)
    out[rows, 2] += (base_c2 * j_hi).sum(axis=-1)


def _piece(out, rows, alpha, beta, gx, glw, plain, left_piece, ndim):
    """Integrate one quarter piece (t in [0, sin(pi/4)]) for all rows.

    gx: Gauss-Legendre nodes mapped to [0, 1].  plain: (t2, factors) of the
    plain rule on [0, sin(pi/4)] for this piece, shared by every row.
    """
    alpha = np.where(np.abs(alpha) < SNAP_EPS, 0.0, alpha)
    q_end = alpha + 0.5 * beta
    live = (alpha > 0.0) | (q_end > 0.0)
    if not live.any():
        return
    rows = rows[live]
    alpha = alpha[live]
    beta = beta[live]
    q_end = q_end[live]

    # a root beyond the end (q_end > 0) with q_end >= alpha/4 is far enough
    # for the plain rule, as in sphere._piece_nodes_1d
    far = (q_end > 0.0) & (4.0 * q_end >= alpha)
    m_sin = (alpha > 0.0) & (beta < 0.0) & ~far
    m_layer = (alpha > 0.0) & (beta > 0.0) & (4.0 * alpha < q_end)
    m_cosh = alpha < 0.0  # live, so q_end > 0
    m_plain = ~(m_sin | m_layer | m_cosh)

    if m_plain.any():
        t2, factors = plain
        q = alpha[m_plain, None] + beta[m_plain, None] * t2
        _accumulate(out, rows[m_plain], factors, q, ndim)

    if m_sin.any():
        a = alpha[m_sin]
        b = beta[m_sin]
        t_r = np.sqrt(a / -b)
        w_max = np.arcsin(np.minimum(_HALF_T / t_r, 1.0))
        w_ang = w_max[:, None] * gx[None, :]
        ww = w_max[:, None] * 0.5 * glw[None, :]
        sw = np.sin(w_ang)
        cw = np.cos(w_ang)
        t = t_r[:, None] * sw
        wt = ww * t_r[:, None] * cw
        q = a[:, None] * cw * cw
        factors = _node_factors(t * t, wt, left_piece, ndim)
        _accumulate(out, rows[m_sin], factors, q, ndim)

    if m_layer.any():
        a = alpha[m_layer]
        b = beta[m_layer]
        ell = np.sqrt(a / b)
        v_max = np.arcsinh(_HALF_T / ell)
        v = v_max[:, None] * gx[None, :]
        wv = v_max[:, None] * 0.5 * glw[None, :]
        sh2 = np.sinh(v) ** 2
        ch2 = 1.0 + sh2  # cosh^2, without a cosh per node
        wt = wv * ell[:, None] * np.sqrt(ch2)
        q = a[:, None] * ch2
        factors = _node_factors((a / b)[:, None] * sh2, wt, left_piece, ndim)
        _accumulate(out, rows[m_layer], factors, q, ndim)

    if m_cosh.any():
        a = alpha[m_cosh]
        b = beta[m_cosh]
        t_r = np.sqrt(-a / b)
        safe = t_r > 1e-300
        t_r = np.where(safe, t_r, 1e-300)
        v_max = np.arccosh(np.maximum(_HALF_T / t_r, 1.0))
        v = v_max[:, None] * gx[None, :]
        wv = v_max[:, None] * 0.5 * glw[None, :]
        sh = np.sinh(v)
        sh2 = sh * sh
        wt = wv * t_r[:, None] * sh
        q = (-a)[:, None] * sh2
        factors = _node_factors((t_r * t_r)[:, None] * (1.0 + sh2), wt, left_piece, ndim)
        _accumulate(out, rows[m_cosh], factors, q, ndim)


# Rows run in blocks of about this many (row, node) elements, so every
# (rows, G) temporary of _piece/_accumulate is near 32 KB whatever the row
# count or order: the working set stays in cache and the allocator reuses
# the same small buffers instead of returning large ones to the OS and
# faulting them in again on every call.  The row count follows from the node
# count alone, and the result does not depend on it: each row's arithmetic
# and its pairwise sum over the nodes are the same in any block.
_BLOCK_ELEMS = 4096


def row_reductions(zsq, coeffs, ndim, theta_max, glx, glw):
    """Per-prefix-row reductions of the indicator moment integrals.

    Parameters
    ----------
    zsq : (M, ndim-2) float array
        Squared coordinates of prefix nodes on the unit (ndim-3)-sphere.
    coeffs : (ndim-1,) float array
        Diagonal coefficients on the first ndim-1 axes after the last axis
        is normalized to -1; coeffs[-1] multiplies cos^2 of the last outer
        angle.
    ndim : int
        Ambient dimension n (>= 3).
    theta_max : float
        Range of the last outer angle: pi (n >= 4) or 2*pi (n = 3); only
        the symmetry factor depends on it.
    glx, glw : (G,) float arrays
        Gauss-Legendre nodes and weights on [-1, 1].

    Returns
    -------
    (M, 3) array with columns (chi, sin-moment, cos-moment) reductions.
    """
    zsq = np.ascontiguousarray(zsq, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    m_rows = zsq.shape[0]
    out = np.zeros((m_rows, 3), dtype=np.float64)

    a_sin = zsq @ coeffs[:-1]
    b_cos = coeffs[-1]
    factor = 4.0 if theta_max > 4.0 else 2.0

    gx = 0.5 * (glx + 1.0)
    # plain-rule nodes and factors of each piece, shared by every block
    t_plain = _HALF_T * gx[None, :]
    t2_plain = t_plain * t_plain
    wt_plain = _HALF_T * 0.5 * glw[None, :]
    plain = {
        left: (t2_plain, _node_factors(t2_plain, wt_plain, left, ndim)) for left in (True, False)
    }

    all_rows = np.arange(m_rows)
    block = max(1, _BLOCK_ELEMS // len(glx))
    for lo in range(0, m_rows, block):
        hi = min(lo + block, m_rows)
        rows = all_rows[lo:hi]
        a_c = a_sin[lo:hi]
        b_full = np.full(hi - lo, b_cos)
        # left: t = sin(theta), q = b_cos + (a - b_cos) t^2
        _piece(out, rows, b_full, a_c - b_cos, gx, glw, plain[True], True, ndim)
        # right: t = cos(theta), q = a + (b_cos - a) t^2
        _piece(out, rows, a_c, b_cos - a_c, gx, glw, plain[False], False, ndim)
    out *= factor
    return out
