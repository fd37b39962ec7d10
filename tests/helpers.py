"""Helpers the tests share; nothing in the package reads them."""

import numpy as np

from blowuplab.quadratic import normal_form_diagonal


def random_rotation(n, rng):
    """Haar-ish random rotation from QR of a Gaussian matrix, det +1."""
    m = rng.standard_normal((n, n))
    q_mat, r = np.linalg.qr(m)
    q_mat = q_mat * np.sign(np.diag(r))
    if np.linalg.det(q_mat) < 0:
        q_mat[:, 0] = -q_mat[:, 0]
    return q_mat


def coeff_vector(delta):
    """The kernel's coefficients of p_delta: its normal-form diagonal without the last -1.

    One delta (n-2,) gives (n-1,), a stack (..., n-2) gives (..., n-1).
    """
    return normal_form_diagonal(delta)[..., :-1]
