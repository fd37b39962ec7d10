"""Kernel backend selection: compiled Cython core with a numpy fallback.

The compiled extension is preferred when importable; set BLOWUPLAB_PURE=1
to force the numpy implementation (to replay a pure-backend manifest on a
compiled install).
"""

import os

import numpy as np

from . import _pure

SNAP_EPS = _pure.SNAP_EPS

_impl = _pure
if os.environ.get("BLOWUPLAB_PURE", "") != "1":
    try:
        from . import _core as _impl  # type: ignore[attr-defined]
    except ImportError:
        pass


def backend_name():
    return "pure" if _impl is _pure else "compiled"


# Looked up by indicator_moment_block at call time, so it can be wrapped.
row_reductions = _impl.row_reductions


def indicator_moment_block(zsq, weights, coeffs, ndim, theta_max, glx, glw):
    """Integrals of chi_{p>0} * {1, x_1^2, ..., x_n^2} over the unit sphere.

    `zsq` and `weights` describe the prefix product rule on the outer
    (ndim-3)-sphere; `coeffs` are the diagonal coefficients on the first
    ndim-1 axes after the last axis is normalized to -1.  Returns an
    (ndim+1,) vector [I_chi, I_{x_1^2}, ..., I_{x_n^2}] (all >= 0).
    Summation over prefix rows uses numpy's fixed pairwise reduction so the
    result does not depend on threading or chunk partitioning.
    """
    R = row_reductions(zsq, coeffs, ndim, theta_max, glx, glw)
    weights = np.asarray(weights, dtype=np.float64)
    chi_w = R[:, 0] * weights
    sin_w = R[:, 1] * weights
    cos_w = R[:, 2] * weights

    out = np.empty(ndim + 1, dtype=np.float64)
    out[0] = np.sum(chi_w)
    out[1:ndim - 1] = np.sum(np.asarray(zsq) * sin_w[:, None], axis=0)
    out[ndim - 1] = np.sum(cos_w)
    out[ndim] = out[0] - np.sum(sin_w) - out[ndim - 1]
    return out
