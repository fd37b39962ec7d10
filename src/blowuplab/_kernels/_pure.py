"""Numpy fallback for the indicator-moment reduction kernel.

Contract shared with the compiled `_core` extension: given squared
coordinates of the outer-sphere prefix nodes and the coefficient vector of
a diagonal quadratic (last axis normalized to -1), integrate over the last
outer angle with the innermost angle of the indicator resolved in closed
form.

The last-angle integrand is even about every quarter of the period, so only
theta in [0, pi/2] is integrated (times a symmetry factor).  On a quarter
the boundary function is exactly q(t) = alpha + beta t^2 in t = sin(theta)
(left half) or t = cos(theta) (right half), and the quarter is mapped so
the integrand is analytic:

  - alpha > 0, beta > 0, strong layer: t = l*sinh(v), q = alpha*cosh(v)^2
  - alpha > 0, beta < 0 (root or right-end layer): t = t_r*sin(w),
    q = alpha*cos(w)^2
  - alpha < 0 < beta (live beyond the root): t = t_r*cosh(v),
    q = |alpha|*sinh(v)^2
  - otherwise plain Gauss-Legendre in t

which removes the sqrt-type kinks and boundary layers of the naive
reduction.

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


def _sin_power_pair(ct, st, j0, ndim):
    """(J_{ndim-2}, J_ndim): integrals of sin^m over the resolved inner interval.

    ct, st are cos/sin of the interval endpoint psi*, j0 the exact length
    of the interval (computed stably by the caller via arctan).  Only ndim's
    parity of J_m = 2 ct st^(m-1)/m + (m-1)/m J_{m-2} runs; st^(m-1) still
    takes one multiply per m, so the powers round alike for every ndim.
    """
    j_prev = j = j0 if ndim % 2 == 0 else 2.0 * ct
    st_pow = 1.0
    for m in range(2, ndim + 1):
        st_pow = st_pow * st
        if m % 2 == ndim % 2:
            j_prev, j = j, (2.0 * ct * st_pow) / m + ((m - 1.0) / m) * j
    return j_prev, j


def _accumulate(out, rows, t_nodes, t_weights, q, left_piece, ndim):
    """Add one mapped panel's reductions for the selected rows.

    t_nodes/t_weights: (M, G) mapped abscissae in the piece variable and
    weights already including the substitution jacobian dt.  q: (M, G)
    exact boundary values.  left_piece selects the (sin, cos) orientation.
    """
    t2 = t_nodes * t_nodes
    one_m = 1.0 - t2
    # jacobian of t = sin/cos substitution back to the angle
    w_theta = t_weights / np.sqrt(one_m)
    if left_piece:
        s2, c2 = t2, one_m
    else:
        s2, c2 = one_m, t2

    pos = q > 0.0
    q_safe = np.where(pos, q, 1.0)
    u = np.sqrt(q_safe)
    opq = 1.0 + q_safe
    st = 1.0 / np.sqrt(opq)
    ct = u * st
    j0 = 2.0 * np.arctan(u)
    j_lo, j_hi = _sin_power_pair(ct, st, j0, ndim)
    j_lo = np.where(pos, j_lo, 0.0)
    j_hi = np.where(pos, j_hi, 0.0)

    jac_pow = ndim - 3
    base = w_theta if jac_pow == 0 else w_theta * s2 ** (jac_pow / 2.0)
    out[rows, 0] += np.sum(base * j_lo, axis=-1)
    out[rows, 1] += np.sum(base * s2 * j_hi, axis=-1)
    out[rows, 2] += np.sum(base * c2 * j_hi, axis=-1)


def _piece(out, rows, alpha, beta, glx, glw, left_piece, ndim):
    """Integrate one quarter piece (t in [0, sin(pi/4)]) for all rows."""
    alpha = np.where(np.abs(alpha) < SNAP_EPS, 0.0, alpha)
    q_end = alpha + 0.5 * beta
    live = (alpha > 0.0) | (q_end > 0.0)
    if not np.any(live):
        return
    rows = rows[live]
    alpha = alpha[live]
    beta = beta[live]
    q_end = q_end[live]

    gx = 0.5 * (glx + 1.0)

    m_sin = (alpha > 0.0) & (beta < 0.0)
    m_layer = (alpha > 0.0) & (beta > 0.0) & (4.0 * alpha < q_end)
    m_cosh = alpha < 0.0  # live, so q_end > 0
    m_plain = ~(m_sin | m_layer | m_cosh)

    if np.any(m_plain):
        a = alpha[m_plain, None]
        b = beta[m_plain, None]
        t = _HALF_T * gx[None, :]
        t = np.broadcast_to(t, (a.shape[0], gx.shape[0]))
        wt = np.broadcast_to(_HALF_T * 0.5 * glw[None, :], t.shape)
        q = a + b * t * t
        _accumulate(out, rows[m_plain], t, wt, q, left_piece, ndim)

    if np.any(m_sin):
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
        _accumulate(out, rows[m_sin], t, wt, q, left_piece, ndim)

    if np.any(m_layer):
        a = alpha[m_layer]
        b = beta[m_layer]
        ell = np.sqrt(a / b)
        v_max = np.arcsinh(_HALF_T / ell)
        v = v_max[:, None] * gx[None, :]
        wv = v_max[:, None] * 0.5 * glw[None, :]
        sh = np.sinh(v)
        ch = np.cosh(v)
        t = ell[:, None] * sh
        wt = wv * ell[:, None] * ch
        q = a[:, None] * ch * ch
        _accumulate(out, rows[m_layer], t, wt, q, left_piece, ndim)

    if np.any(m_cosh):
        a = alpha[m_cosh]
        b = beta[m_cosh]
        t_r = np.sqrt(-a / b)
        safe = t_r > 1e-300
        t_r = np.where(safe, t_r, 1e-300)
        v_max = np.arccosh(np.maximum(_HALF_T / t_r, 1.0))
        v = v_max[:, None] * gx[None, :]
        wv = v_max[:, None] * 0.5 * glw[None, :]
        sh = np.sinh(v)
        ch = np.cosh(v)
        t = t_r[:, None] * ch
        wt = wv * t_r[:, None] * sh
        q = (-a)[:, None] * sh * sh
        _accumulate(out, rows[m_cosh], t, wt, q, left_piece, ndim)


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

    all_rows = np.arange(m_rows)
    block = max(1, _BLOCK_ELEMS // len(glx))
    for lo in range(0, m_rows, block):
        hi = min(lo + block, m_rows)
        rows = all_rows[lo:hi]
        a_c = a_sin[lo:hi]
        b_full = np.full(hi - lo, b_cos)
        # left: t = sin(theta), q = b_cos + (a - b_cos) t^2
        _piece(out, rows, b_full, a_c - b_cos, glx, glw, True, ndim)
        # right: t = cos(theta), q = a + (b_cos - a) t^2
        _piece(out, rows, a_c, b_cos - a_c, glx, glw, False, ndim)
    out *= factor
    return out
