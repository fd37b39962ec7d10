import math

import numpy as np
import pytest
from scipy.integrate import quad

from blowuplab import moments, sphere
from blowuplab.errors import DomainError
from blowuplab.quadratic import make_p_delta


class TestComputeMoments:
    def test_zero_delta_3d(self):
        m = moments.compute_moments(np.zeros(1), 3, 48)
        assert m.B == pytest.approx(-2 * math.pi, rel=1e-12)
        assert m.B_i[0] == pytest.approx(-2 * math.pi / 3, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_zero_delta_claim(self, n):
        # n^2 B_i(0) - n B(0) = 0 for the first n-2 axes
        m = moments.compute_moments(np.zeros(n - 2), n, 48)
        omega = sphere.surface_area(n)
        for i in range(n - 2):
            assert abs(n * n * m.B_i[i] - n * m.B) < 1e-8 * omega

    def test_increment_sign_and_scale(self):
        s = 1e-3
        m = moments.compute_moments(np.array([s, 0.0]), 4, 64)
        assert m.C_i[0] < 0.0
        ratio = np.abs(m.C_i).sum() / (s * abs(math.log(s)))
        assert 1.0 < ratio < 6.0

    def test_consistency_invariants(self):
        m = moments.compute_moments(np.array([5e-3, -2e-3]), 4, 48)
        assert m.B_i.sum() == pytest.approx(m.B, rel=1e-12)
        assert m.C_i.sum() == pytest.approx(m.C, abs=1e-15)
        assert m.B < 0 and np.all(m.B_i < 0)

    def test_delta_permutation_symmetry(self):
        a = moments.compute_moments(np.array([4e-3, -1e-3]), 4, 48)
        b = moments.compute_moments(np.array([-1e-3, 4e-3]), 4, 48)
        assert a.B_i[0] == pytest.approx(b.B_i[1], rel=1e-12)
        assert a.B_i[1] == pytest.approx(b.B_i[0], rel=1e-12)
        assert a.B_i[2] == pytest.approx(b.B_i[2], rel=1e-12)

    def test_rejects_large_delta(self):
        with pytest.raises(DomainError):
            moments.compute_moments(np.array([0.4, 0.4]), 4)

    def test_rejects_wrong_length(self):
        with pytest.raises(DomainError):
            moments.compute_moments(np.array([0.1]), 4)

    def test_csv_export(self):
        sets = [
            moments.compute_moments(np.array([0.0]), 3, 32),
            moments.compute_moments(np.array([1e-3]), 3, 32),
        ]
        text = moments.momentsets_to_csv(sets)
        lines = text.strip().splitlines()
        assert lines[0] == "n,delta_1,B,B_1,B_2,B_3,C,C_1,C_2,C_3,order"
        assert len(lines) == 3
        with pytest.raises(DomainError):
            moments.momentsets_to_csv([])


class TestFourierBlock:
    def test_zero_delta_structure(self):
        # only the x_{n-1}^2 - x_n^2 component survives at delta = 0
        for n in (3, 4, 5):
            m = moments.compute_moments(np.zeros(n - 2), n, 48)
            block = moments.fourier_block2(m)
            diag = np.diag(block.a2sigma2.coeff)
            assert np.abs(diag[: n - 2]).max() < 1e-8
            assert diag[n - 2] == pytest.approx(-diag[n - 1], rel=1e-12)
            assert abs(np.trace(block.a2sigma2.coeff)) < 1e-14

    def test_n2_coefficient_against_arc_oracle(self):
        # independent 1-D oracle: project -chi_{cos(2t)>0} onto cos(2t)
        chi = lambda t: 1.0 if math.cos(2 * t) > 0 else 0.0
        breaks = [k * math.pi / 4 for k in range(9)]
        num, _ = quad(
            lambda t: -chi(t) * math.cos(2 * t), 0, 2 * math.pi, points=breaks, limit=200
        )
        c0_oracle = num / math.pi
        m = moments.compute_moments(np.zeros(0), 2, 48)
        block = moments.fourier_block2(m)
        assert block.a2sigma2.coeff[0, 0] == pytest.approx(c0_oracle, abs=1e-10)
        assert c0_oracle == pytest.approx(-2.0 / math.pi, abs=1e-10)

    def test_small_delta_against_mc_projection(self):
        # project the indicator onto diagonal quadratics by a Gram solve of
        # Monte Carlo inner products, independently of the quadrature path
        n, delta = 3, np.array([0.04])
        m = moments.compute_moments(delta, n, 64)
        block_diag = np.diag(moments.fourier_block2(m).a2sigma2.coeff)
        p = make_p_delta(n, delta)
        omega = sphere.surface_area(n)
        _, bi_est = moments.mc_moment_check(delta, n, 4 * 10**6, 314159)
        bi_vals = np.array([e.value for e in bi_est])
        bi_err = np.array([e.std_error for e in bi_est])
        proj = (n + 2) / (2 * omega) * (n * bi_vals - bi_vals.sum())
        tol = (n + 2) / (2 * omega) * (n + 1) * 3 * bi_err.max()
        assert np.abs(proj - block_diag).max() <= tol


class TestMcMomentCheck:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_one_stream_equals_column_runs(self, n):
        # two chunks, so the per-chunk sums are accumulated too
        samples = sphere._MC_CHUNK + 1000
        delta = np.linspace(-1.0, 1.0, n - 2) * 0.02
        diag = np.concatenate([delta, [1.0 - delta.sum(), -1.0]])

        def chi(x):
            return (x * x @ diag > 0).astype(np.float64)

        b_est, bi_est = moments.mc_moment_check(delta, n, samples, 11)
        runs = [sphere.mc_integrate(n, lambda x: -chi(x), samples, 11)]
        runs += [
            sphere.mc_integrate(n, lambda x, i=i: -chi(x) * x[:, i] ** 2, samples, 11)
            for i in range(n)
        ]
        assert len(bi_est) == n
        for est, run in zip([b_est, *bi_est], runs):
            assert est.value == run.value and est.std_error == run.std_error


class TestQuarticMatrix:
    def test_n4_values(self):
        mat = moments.quartic_moment_matrix(4)
        assert mat[0, 0] == pytest.approx(3 * math.pi / 4, rel=1e-12)
        assert mat[0, 1] == pytest.approx(math.pi / 4, rel=1e-12)
        lam1, lam2 = moments.quartic_moment_eigenvalues(4)
        assert lam1 == pytest.approx(math.pi / 2)
        assert lam2 == pytest.approx(math.pi / 4)
        eigs = np.sort(np.linalg.eigvalsh(mat))
        assert np.allclose(eigs, [math.pi / 2, math.pi], atol=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_eigenvectors(self, n):
        mat = moments.quartic_moment_matrix(n)
        lam1, lam2 = moments.quartic_moment_eigenvalues(n)
        d = n - 2
        ones = np.ones(d)
        assert np.allclose(mat @ ones, (lam1 + d * lam2) * ones, atol=1e-10)
        for j in range(1, d):
            v = np.zeros(d)
            v[0], v[j] = 1.0, -1.0
            assert np.allclose(mat @ v, lam1 * v, atol=1e-10)

    def test_n3_scalar(self):
        assert np.allclose(moments.quartic_moment_matrix(3), [[2.0]])

    def test_rejects_n2(self):
        with pytest.raises(DomainError):
            moments.quartic_moment_matrix(2)


class TestInnerSlab:
    def test_zero_kappa(self):
        res = moments.inner_slab_integral(0.0, 0.1)
        assert res.numeric == 0.0 and res.asymptotic == 0.0

    def test_rejects_kappa_at_mu_squared(self):
        with pytest.raises(DomainError):
            moments.inner_slab_integral(0.02, 0.1)

    @pytest.mark.parametrize(
        "kappa, mu",
        [pytest.param(k, 0.1, id=str(k)) for k in (1e-4, 1e-6, -1e-4, 3e-3, -5e-3)]
        + [pytest.param(k, 0.5, id=f"{k}-mu0.5") for k in (1e-4, 3e-3, -5e-3)],
    )
    def test_against_1d_oracle(self, kappa, mu):
        res = moments.inner_slab_integral(kappa, mu)

        def strip(a):
            top = math.sqrt(max(kappa + a * a, 0.0))
            return min(top, mu) - min(a, mu)

        breakpoints = [math.sqrt(max(mu * mu - kappa, 0.0))]
        if kappa < 0:
            breakpoints.append(math.sqrt(-kappa))
        pts = [p for p in breakpoints if 0 < p < mu]
        oracle, _ = quad(strip, 0.0, mu, points=pts, limit=400)
        assert res.numeric == pytest.approx(oracle, abs=1e-10)

    def test_ratio_improves_toward_zero(self):
        r4 = moments.inner_slab_integral(1e-4, 0.1)
        r6 = moments.inner_slab_integral(1e-6, 0.1)
        q4 = r4.numeric / r4.asymptotic
        q6 = r6.numeric / r6.asymptotic
        assert abs(q6 - 1.0) < abs(q4 - 1.0)

    def test_sign_convention(self):
        pos = moments.inner_slab_integral(1e-4, 0.1)
        neg = moments.inner_slab_integral(-1e-4, 0.1)
        assert pos.numeric > 0 > neg.numeric
        assert pos.asymptotic > 0 > neg.asymptotic
