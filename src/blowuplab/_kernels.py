"""The indicator-moment kernel, in numpy: per-row reductions summed into moments.

`row_reductions(a, b, ...)` integrates over the last outer angle theta, with
the innermost angle of the indicator resolved in closed form, for rows whose
boundary coefficient on theta is q = a sin^2(theta) + b cos^2(theta): `a`
holds one scalar per row and `b` is shared by every row.  For a diagonal
quadratic with coefficients `coeffs` (last axis normalized to -1) and a
prefix node with squared coordinates zsq, a = zsq @ coeffs[:-1] and
b = coeffs[-1]; the kernel reads a row through nothing else.
`indicator_moment_block` forms `a` once and sums the reductions into
moments; for n >= 5 it runs the kernel on a graded table in `a` and
interpolates the rows from it.

At n = 4 the last two angles have an elementary integral, so there the
kernel evaluates R(a; b) in closed form (`_closed_form_n4`: a few arctan,
log and sqrt evaluations a row, no Gauss rule).  The rest of this docstring
describes the quadrature that n = 3 and n >= 5 run.

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
row count, and each block's (rows, nodes) temporaries are written into
per-thread scratch buffers that every block and call reuses.  That bounds
the working set of a call and keeps it mapped, so no call makes the
allocator return memory to the OS and fault it in again.  Each block also
pays a fixed numpy dispatch cost that does not shrink with it, so blocks
are as large as a 2 MiB working set allows, and the graded table runs as
one block.  The block size has no knob, and the results do not depend on
how the rows are partitioned.
"""

import math
import threading

import numpy as np

_HALF_T = np.sqrt(0.5)  # sin(pi/4), the quarter midpoint in t

# Coefficients below this are exact touches: the indicator mass they control
# is under alpha*|ln alpha| ~ 2.5e-10, while resolving them would stretch the
# sinh/cosh maps past the quadrature's analyticity budget.
SNAP_EPS = 1e-11


def backend_name():
    """Kernel name for environment stamps; a manifest naming another warns on replay."""
    return "pure"


# The most (rows, G) temporaries one branch of `_piece` takes: 4 of its own,
# 3 for _node_factors and 6 for _accumulate (5 of them in _j_pair).
_SCRATCH_BUFFERS = 13


class _Scratch(threading.local):
    """Buffers for the kernel's (rows, G) temporaries, one set per thread.

    `panel(shape)` returns a `take` for one panel: each call of it returns
    a (rows, G) view of the next buffer, so a panel's temporaries are
    distinct, and the next panel reuses them.  The buffers are kept across
    blocks and calls.  They are allocated on first use and grow only when
    a panel needs more than they hold, as a rule of more than _BLOCK_ELEMS
    nodes does even one row at a time.
    """

    def __init__(self):
        self.block = np.empty((_SCRATCH_BUFFERS, 0))

    def panel(self, shape):
        size = shape[0] * shape[1]
        if size > self.block.shape[1]:
            self.block = np.empty((_SCRATCH_BUFFERS, max(size, _BLOCK_ELEMS)))
        return iter(self.block[:, :size].reshape(_SCRATCH_BUFFERS, *shape)).__next__


_SCRATCH = _Scratch()


def _j_pair(q, ndim, take=None):
    """(J_{ndim-2}, J_ndim): integrals of sin^m over the resolved inner interval.

    The interval is [psi*, pi - psi*] with tan(psi*) = 1/sqrt(q), q >= 0.
    With u = sqrt(q) and s = sin^2(psi*) = 1/(1+q): J_0 = 2 arctan(u),
    J_1 = 2 u sqrt(s), and J_m = (2/m) p + ((m-1)/m) J_{m-2} with
    p = cos(psi*) sin^(m-1)(psi*) = u s^(m/2), one factor of s per step.
    Only ndim's parity runs, so even ndim takes no square root of 1 + q.
    q = 0 gives u = 0 and so J = 0 exactly.  q is only read: the results
    and temporaries go into buffers from `take()`, new arrays by default.
    """
    if take is None:
        take = lambda: np.empty_like(q)  # noqa: E731
    u = np.sqrt(q, out=take())
    s = np.add(q, 1.0, out=take())
    np.divide(1.0, s, out=s)
    p = take()
    if ndim % 2 == 0:
        np.multiply(u, s, out=p)
        j = np.add(p, np.arctan(u, out=u), out=u)  # J_2 = p + J_0 / 2
    else:
        np.multiply(u, np.sqrt(s, out=p), out=p)
        j = np.multiply(p, 2.0, out=u)  # J_1
    # at the top of each step j_prev's buffer is free, and the new j goes there
    j_prev, tmp = take(), take()
    for m in range(4 - ndim % 2, ndim + 1, 2):
        np.multiply(p, s, out=p)
        np.multiply(p, 2.0 / m, out=j_prev)
        np.add(j_prev, np.multiply(j, (m - 1.0) / m, out=tmp), out=j_prev)
        j_prev, j = j, j_prev
    return j_prev, j


def _node_factors(t2, t_weights, left_piece, ndim, take):
    """(w, w s2, w c2): the node weights of the three reductions.

    t2 holds the squared nodes in the piece variable t (sin of the last
    angle on the left piece, cos on the right) and t_weights their weights
    dt.  w is dt / sqrt(1 - t2), the jacobian back to the angle, times the
    s2^((ndim-3)/2) area factor; on the right piece s2 = 1 - t2, so the two
    combine into (1 - t2)^((ndim-4)/2).  Any shape: the plain branch passes
    its shared (1, G) nodes, the mapped branches (M, G).  The results go
    into buffers from `take()`.
    """
    base, base_s2, base_c2 = take(), take(), take()
    if left_piece:
        one_m = np.subtract(1.0, t2, out=base_c2)  # c2
        np.divide(t_weights, np.sqrt(one_m, out=base), out=base)
        if ndim > 3:
            np.multiply(base, np.power(t2, (ndim - 3) / 2.0, out=base_s2), out=base)
        np.multiply(base, t2, out=base_s2)
        np.multiply(base, one_m, out=base_c2)
    else:
        one_m = np.subtract(1.0, t2, out=base_s2)  # s2
        np.multiply(t_weights, np.power(one_m, (ndim - 4) / 2.0, out=base), out=base)
        np.multiply(base, one_m, out=base_s2)
        np.multiply(base, t2, out=base_c2)
    return base, base_s2, base_c2


def _accumulate(out, rows, factors, q, ndim, take):
    """Add one panel's reductions for the selected rows.

    factors: `_node_factors` of the panel's nodes, (1, G) or (M, G).
    q: (M, G) exact boundary values, >= 0 by construction in every branch;
    the clamp, in place, only keeps a rounding -0.0 or -ulp out of the
    square root.  Each row's weighted sum is numpy's pairwise reduction
    over its nodes.
    """
    base, base_s2, base_c2 = factors
    j_lo, j_hi = _j_pair(np.maximum(q, 0.0, out=q), ndim, take)
    prod = take()
    out[rows, 0] += np.multiply(base, j_lo, out=prod).sum(axis=-1)
    out[rows, 1] += np.multiply(base_s2, j_hi, out=prod).sum(axis=-1)
    out[rows, 2] += np.multiply(base_c2, j_hi, out=prod).sum(axis=-1)


def _piece(out, rows, alpha, beta, gx, glw, plain, left_piece, ndim):
    """Integrate one quarter piece (t in [0, sin(pi/4)]) for all rows.

    gx: Gauss-Legendre nodes mapped to [0, 1].  plain: (t2, factors) of the
    plain rule on [0, sin(pi/4)] for this piece, shared by every row.  Each
    branch writes its (rows, G) temporaries into this thread's `_SCRATCH`.
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
        a = alpha[m_plain, None]
        take = _SCRATCH.panel((a.shape[0], gx.shape[0]))
        q = np.multiply(beta[m_plain, None], t2, out=take())
        np.add(a, q, out=q)
        _accumulate(out, rows[m_plain], factors, q, ndim, take)

    if m_sin.any():
        a = alpha[m_sin]
        b = beta[m_sin]
        t_r = np.sqrt(a / -b)
        w_max = np.arcsin(np.minimum(_HALF_T / t_r, 1.0))
        take = _SCRATCH.panel((a.shape[0], gx.shape[0]))
        cw = np.multiply(w_max[:, None], gx[None, :], out=take())  # the angle w
        t2 = np.sin(cw, out=take())
        np.cos(cw, out=cw)
        wt = np.multiply(w_max[:, None] * 0.5, glw[None, :], out=take())
        np.multiply(np.multiply(wt, t_r[:, None], out=wt), cw, out=wt)
        q = np.multiply(a[:, None], cw, out=take())
        np.multiply(q, cw, out=q)
        np.multiply(t_r[:, None], t2, out=t2)  # t
        np.multiply(t2, t2, out=t2)
        factors = _node_factors(t2, wt, left_piece, ndim, take)
        _accumulate(out, rows[m_sin], factors, q, ndim, take)

    if m_layer.any():
        a = alpha[m_layer]
        b = beta[m_layer]
        ell = np.sqrt(a / b)
        v_max = np.arcsinh(_HALF_T / ell)
        take = _SCRATCH.panel((a.shape[0], gx.shape[0]))
        sh2 = np.multiply(v_max[:, None], gx[None, :], out=take())  # v
        wt = np.multiply(v_max[:, None] * 0.5, glw[None, :], out=take())
        np.sinh(sh2, out=sh2)
        np.multiply(sh2, sh2, out=sh2)
        ch2 = np.add(sh2, 1.0, out=take())  # cosh^2, without a cosh per node
        q = np.sqrt(ch2, out=take())
        np.multiply(np.multiply(wt, ell[:, None], out=wt), q, out=wt)
        np.multiply(a[:, None], ch2, out=q)
        np.multiply((a / b)[:, None], sh2, out=sh2)  # t^2
        factors = _node_factors(sh2, wt, left_piece, ndim, take)
        _accumulate(out, rows[m_layer], factors, q, ndim, take)

    if m_cosh.any():
        a = alpha[m_cosh]
        b = beta[m_cosh]
        t_r = np.sqrt(-a / b)
        safe = t_r > 1e-300
        t_r = np.where(safe, t_r, 1e-300)
        v_max = np.arccosh(np.maximum(_HALF_T / t_r, 1.0))
        take = _SCRATCH.panel((a.shape[0], gx.shape[0]))
        sh = np.multiply(v_max[:, None], gx[None, :], out=take())  # v
        wt = np.multiply(v_max[:, None] * 0.5, glw[None, :], out=take())
        np.sinh(sh, out=sh)
        sh2 = np.multiply(sh, sh, out=take())
        np.multiply(np.multiply(wt, t_r[:, None], out=wt), sh, out=wt)
        q = np.multiply((-a)[:, None], sh2, out=take())
        t2 = np.add(sh2, 1.0, out=sh2)
        np.multiply((t_r * t_r)[:, None], t2, out=t2)
        factors = _node_factors(t2, wt, left_piece, ndim, take)
        _accumulate(out, rows[m_cosh], factors, q, ndim, take)


# Rows run in blocks of about this many (row, node) elements, and every
# (rows, G) temporary of _piece/_accumulate/_j_pair is a view of one of the
# thread's _SCRATCH buffers of this size, whatever the row count or order.
# So the temporaries stay mapped: were they allocated per panel, glibc would
# return them to the OS at every call (its default trim threshold is 128 KB)
# and fault them in again on the next.  A block pays about 0.25 ms of fixed
# numpy dispatch in _piece (the snap, the branch masks and their any()s,
# fancy indexing, some 25 calls a branch), against 30-40 ns a (row, node),
# so a call should be as few blocks as it can.  This is the largest power
# of two whose _SCRATCH_BUFFERS buffers (1.66 MiB) stay under a 2 MiB
# working set; it holds the n >= 5 table (208 rows x 40 nodes) in one
# block.  The row count follows
# from the node count alone, and the result does not depend on it: each
# row's arithmetic and its pairwise sum over the nodes are the same in any
# block.
_BLOCK_ELEMS = 16384


# h(x) = sum_k (-x)^k / (2k + 1) near x = 0, where the closed form of h'
# cancels: 28 terms leave under 1e-16 relative at |x| = 1/4, and beyond it
# h' loses at most 3 eps / |x| = 12 eps to the cancellation.  Without the
# series, R is 1.1e-5 off at b = a (1 + 1e-8), and worse closer to a = b.
_SERIES_X = 0.25
_SERIES_K = np.arange(28)
_H_SERIES = (-1.0) ** _SERIES_K / (2 * _SERIES_K + 1)
_DH_SERIES = (_SERIES_K * _H_SERIES)[1:]


def _h_pair(x, xp1):
    """(h(x), h'(x)): h(x) = arctan(sqrt x) / sqrt x, or artanh(sqrt -x) / sqrt -x for x < 0.

    x > -1, and xp1 is 1 + x computed without cancellation, so that
    artanh(s) = log1p(s) - log(1 - s^2) / 2 keeps its digits as x -> -1,
    where h carries the a ln|a| singularity of R.  Away from x = 0,
    h'(x) = (1 / (1 + x) - h(x)) / (2x); near it both come from the series.
    """
    s = np.sqrt(np.abs(x))
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0 takes the series
        h = np.where(x > 0.0, np.arctan(s), np.log1p(s) - 0.5 * np.log(xp1)) / s
        dh = (1.0 / xp1 - h) / (2.0 * x)
    near = np.abs(x) < _SERIES_X
    if near.any():
        x_near = x[near]
        h[near] = np.polynomial.polynomial.polyval(x_near, _H_SERIES)
        dh[near] = np.polynomial.polynomial.polyval(x_near, _DH_SERIES)
    return h, dh


def _closed_form_n4(a, b):
    """`row_reductions` at n = 4, in closed form.

    In Hopf coordinates x = (cos(alpha) z, sin(alpha) (cos(phi), sin(phi)))
    of S^3, with z the prefix point on S^1 and u = sin^2(alpha), the area
    element is du dz dphi / 2 and p = A (1 - u) + B(phi) u, with A = a and
    B = b cos^2(phi) - sin^2(phi).  So R(a; b) is 1/2 the integral over
    phi in [0, 2 pi) and u in [0, 1] of chi_{p>0} times 1, 1 - u and
    u cos^2(phi), one weight per column.  The u-set is an interval ending
    at u* = A / (A - B): [0, u*) when A > 0 > B, all of [0, 1] when
    A > 0 <= B, (u*, 1] when A < 0 < B, and empty otherwise.

    phi has four mirror images, and B >= 0 exactly for phi <= phi0 =
    arctan(t0), t0 = sqrt(b).  With t = tan(phi), c = a - b and e = 1 + a,
    u* dphi = a dt / (c + e t^2), so everything reduces to
    P1 = int dt / (c + e t^2), P2 = int dt / (c + e t^2)^2 and
    Q = int (1 + t^2) dt / (c + e t^2)^2.  With K = phi0/4 + t0/(4 (1+b)):

      a > 0, t in [t0, inf):  R = 2 (phi0 + a P1, phi0/2 + a P1 - a^2 Q/2, K + a^2 P2/2)
      a < 0, t in [0, t0]:    the same with the signs of the P1, Q, P2 terms flipped

    Let h be as in `_h_pair`.  For a > 0, x = c / (e b) and
    1 + x = a (1+b) / (e b): P1 = h(x) / (e t0), P2 = -h'(x) / (e^2 t0^3)
    and Q = (P1 + (1+b) P2) / e; with b <= 0 (t0 = 0, possible only through
    `sphere.integrate_indicator_quadratic`) the integrals over [0, inf) are
    P1 = pi / (2 sqrt(c e)) and P2 = P1 / (2c).  For a < 0, y = e b / c and
    1 + y = a (1+b) / c: P1 = (t0/c) h(y), P2 = t0 (h(y) + 1/(1+y)) / (2 c^2)
    and Q = P2 - (t0 b / c^2) h'(y), which holds at e = 0 (a = -1) too.

    Rows with |a| < SNAP_EPS are exact touches and get R(0) = 2 (phi0,
    phi0/2, K) bit for bit: the exact a ln|a| response would amplify
    rounding noise at delta = 0 and seed the unstable fixed point.
    """
    a = np.where(np.abs(a) < SNAP_EPS, 0.0, a)
    t0 = math.sqrt(b) if b > 0.0 else 0.0
    phi0 = math.atan(t0)
    out = np.empty((a.shape[0], 3))
    out[:] = (phi0, 0.5 * phi0, 0.25 * (phi0 + t0 / (1.0 + b)) if b > 0.0 else 0.0)
    for sign, rows in ((1.0, a > 0.0), (-1.0, (a < 0.0) & (b > 0.0))):
        if not rows.any():
            continue
        ar = a[rows]
        e = 1.0 + ar
        c = ar - b
        if sign < 0.0:
            yp1 = ar * (1.0 + b) / c
            h, dh = _h_pair(e * b / c, yp1)
            p1 = (t0 / c) * h
            p2 = (0.5 * t0 / (c * c)) * (h + 1.0 / yp1)
            q = p2 - (t0 * b / (c * c)) * dh
        else:
            if b > 0.0:
                h, dh = _h_pair(c / (e * b), ar * (1.0 + b) / (e * b))
                p1 = h / (e * t0)
                p2 = -dh / (e * e * (t0 * b))
            else:
                p1 = (0.5 * math.pi) / np.sqrt(c * e)
                p2 = p1 / (2.0 * c)
            q = (p1 + (1.0 + b) * p2) / e
        a_p1 = ar * p1
        half_a2 = 0.5 * ar * ar
        out[rows] += sign * np.stack([a_p1, a_p1 - half_a2 * q, half_a2 * p2], axis=1)
    out *= 2.0
    return out


def row_reductions(a, b, ndim, glx, glw):
    """Per-row reductions of the indicator moment integrals.

    Parameters
    ----------
    a : (M,) float array
        Coefficient of sin^2 of the last outer angle, one per row: for a
        prefix node with squared coordinates zsq, a = zsq @ coeffs[:-1].
    b : float
        Coefficient of cos^2 of the last outer angle, shared by every row:
        coeffs[-1].
    ndim : int
        Ambient dimension n (>= 3).  The last outer angle spans 2*pi at
        n = 3 and pi above, so its quarter [0, pi/2] counts 4 or 2 times.
    glx, glw : (G,) float arrays
        Gauss-Legendre nodes and weights on [-1, 1] for the last outer
        angle.  Unused at n = 4, where R is closed form (`_closed_form_n4`).

    Returns
    -------
    (M, 3) array with columns (chi, sin-moment, cos-moment) reductions.
    """
    if ndim == 4:
        return _closed_form_n4(a, b)
    m_rows = a.shape[0]
    out = np.zeros((m_rows, 3), dtype=np.float64)
    factor = 4.0 if ndim == 3 else 2.0

    gx = 0.5 * (glx + 1.0)
    # plain-rule nodes and factors of each piece, shared by every block
    t_plain = _HALF_T * gx[None, :]
    t2_plain = t_plain * t_plain
    wt_plain = _HALF_T * 0.5 * glw[None, :]
    fresh = lambda: np.empty_like(t2_plain)  # noqa: E731
    plain = {
        left: (t2_plain, _node_factors(t2_plain, wt_plain, left, ndim, fresh))
        for left in (True, False)
    }

    all_rows = np.arange(m_rows)
    block = max(1, _BLOCK_ELEMS // len(glx))
    for lo in range(0, m_rows, block):
        hi = min(lo + block, m_rows)
        rows = all_rows[lo:hi]
        a_c = a[lo:hi]
        b_full = np.full(hi - lo, b)
        # left: t = sin(theta), q = b + (a - b) t^2
        _piece(out, rows, b_full, a_c - b, gx, glw, plain[True], True, ndim)
        # right: t = cos(theta), q = a + (b - a) t^2
        _piece(out, rows, a_c, b - a_c, gx, glw, plain[False], False, ndim)
    out *= factor
    return out


# For n >= 5 the kernel reads a prefix row only through a = zsq @ coeffs[:-1],
# so its reductions R(a) are tabulated once per call instead of evaluated per
# row.  R is analytic in a except for an A ln|A| singularity at a = 0, so each
# side of 0 that holds rows, of extent e, is cut into _TABLE_LEVELS dyadic
# panels toward 0 plus one last panel [0, e 2^-_TABLE_LEVELS], each carrying
# _TABLE_NODES first-kind Chebyshev nodes: at most 2 * 13 * 8 = 208 kernel
# rows whatever the prefix size, plus one at a = 0 for snapped rows.
_TABLE_LEVELS = 12
_TABLE_NODES = 8

# The kernel's last-angle rule takes no more than K(n) Gauss-Legendre nodes
# a quarter piece (none at n = 4, which is closed form).  After the
# sin/sinh/cosh maps of `_piece` the integrand is analytic, so the rule
# converges geometrically (Trefethen, Approximation Theory and Approximation
# Practice, 2013) at a rate set by the dimension.  Norm-wise error of R
# against a 256-node rule over a = zsq @ coeffs[:-1] log-spaced in
# +-[1.1e-11, 1/2] and b = coeffs[-1] in 1 +- sqrt(n-2)/2, which covers
# every |delta| < 1/2:
#   n = 3:     1.3e-12 at 40 nodes, 7.5e-15 at 48
#   n = 5..8:  2.1e-11 to 9.6e-13 at 32, 8.7e-14 to 7.2e-16 at 40
# and 4e-16 to 1.5e-15 from 48 to 72 nodes.  K(n) was chosen where this
# error stopped falling with the scipy rules of 0.6.0 and earlier, near
# 6e-14: that floor was the 256-node reference's own weight error, which
# the numpy rules (`sphere._gauss_jacobi`) do not have.  Outside that range
# a layer of width sqrt(b/|a|) can need more: the moments of a general n = 5
# quadratic with b = 1e-9 are 4.0e-14 off on 40 nodes and 4.8e-16 on 64, so
# such coefficients keep `order` nodes.
_LAST_ANGLE_NODES = {3: 48}
_LAST_ANGLE_NODES_HIGH = 40  # n >= 5


def last_angle_nodes(ndim, order, coeffs):
    """Node count of the kernel's last-angle rule: min(order, K(ndim)), or 0 at n = 4.

    At n = 4 the kernel is closed form and takes an empty rule.  K(ndim)
    applies where it was measured: |coeffs[:-1]| <= 1/2 and
    |coeffs[-1] - 1| <= sqrt(ndim-2)/2, which every normal form with
    |delta| < 1/2 meets.  Other coefficient vectors keep `order` nodes.
    """
    if ndim == 4:
        return 0
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


def _table_reductions(a, b, ndim, glx, glw):
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
    vals = row_reductions(np.concatenate(nodes), b, ndim, glx, glw)
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


def indicator_moment_block(zsq, weights, coeffs, ndim, glx, glw):
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
    a = zsq @ coeffs[:-1]
    # row_reductions is the module global, looked up at call time, so a
    # wrapper set on this module sees every kernel call
    if ndim >= 5:
        R = _table_reductions(a, coeffs[-1], ndim, glx, glw)
    else:
        R = row_reductions(a, coeffs[-1], ndim, glx, glw)
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
