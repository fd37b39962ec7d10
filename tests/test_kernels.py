import math

import numpy as np
import pytest
from scipy.integrate import quad

from blowuplab import _kernels, sphere
from blowuplab._kernels import _pure


def _block(n, coeffs, order, rows=None):
    """Kernel block at (n, order); `rows` replaces the row reduction backend."""
    if n == 3:
        zsq, wts = np.ones((1, 1)), np.ones(1)
    else:
        zsq, wts = sphere._prefix_rule(n, order)
    glx, glw = sphere._gauss_legendre(order)
    theta_max = 2 * math.pi if n == 3 else math.pi
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(_kernels, "row_reductions", rows)
        return _kernels.indicator_moment_block(zsq, wts, coeffs, n, theta_max, glx, glw)


class TestBackends:
    def test_pure_backend_always_available(self):
        out = _block(3, np.array([0.0, 1.0]), 32, rows=_pure.row_reductions)
        assert out[0] == pytest.approx(2 * math.pi, rel=1e-13)

    def test_backends_agree(self):
        core = pytest.importorskip("blowuplab._kernels._core")
        rng = np.random.Generator(np.random.Philox(key=101))
        for n in (3, 4, 5, 6):
            for _ in range(6):
                delta = rng.uniform(-1, 1, n - 2) * rng.uniform(0, 0.1)
                coeffs = np.concatenate([delta, [1.0 - delta.sum()]])
                a = _block(n, coeffs, 24, rows=core.row_reductions)
                b = _block(n, coeffs, 24, rows=_pure.row_reductions)
                assert np.abs(a - b).max() < 1e-13 * np.abs(b).max()

    def test_backend_deterministic(self):
        coeffs = np.array([1e-3, -2e-3, 1.0])
        a = _block(4, coeffs, 48)
        b = _block(4, coeffs, 48)
        assert np.array_equal(a, b)

    def test_column_sum_identity(self):
        # sum of x_i^2 columns equals the chi column (sum x_i^2 = 1)
        coeffs = np.array([5e-2, -1e-2, 0.96])
        out = _block(4, coeffs, 32)
        assert out[1:].sum() == pytest.approx(out[0], rel=1e-13)

    def test_snap_floor_treats_tiny_as_touch(self):
        # below the 1e-11 floor the boundary coefficient is an exact touch,
        # so the response stays smooth at machine scale instead of being
        # amplified through the near-degenerate root maps
        base = _block(3, np.array([0.0, 1.0]), 32)
        tiny = _block(3, np.array([1e-13, 1.0]), 32)
        assert np.abs(base - tiny).max() < 1e-12


class TestSinPowerPair:
    @pytest.mark.parametrize("ndim", [3, 4, 5, 6, 7, 8])
    def test_matches_quad(self, ndim):
        # (J_{ndim-2}, J_ndim) are the integrals of sin^m over the resolved
        # inner interval [psi*, pi - psi*], tan(psi*) = 1/sqrt(q); shifted by
        # pi/2 that is cos^m over [-a, a], a = arctan(sqrt(q)), which keeps
        # the reference free of asin's cancellation near psi* = pi/2
        q = np.array([1e-6, 1e-2, 0.3, 1.0, 4.0, 250.0])
        u = np.sqrt(q)
        st = 1.0 / np.sqrt(1.0 + q)
        j_lo, j_hi = _pure._sin_power_pair(u * st, st, 2.0 * np.arctan(u), ndim)
        for k, a in enumerate(np.arctan(u)):
            for m, got in ((ndim - 2, j_lo[k]), (ndim, j_hi[k])):
                ref, _ = quad(lambda s: math.cos(s) ** m, -a, a, epsabs=0.0, epsrel=1e-13)
                assert got == pytest.approx(ref, rel=1e-13, abs=0.0)
