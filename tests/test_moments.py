import math

import numpy as np
import pytest
from scipy.integrate import quad

from blowuplab import moments, sphere
from blowuplab.errors import DomainError
from blowuplab.quadratic import make_p_delta, normal_form_diagonal

# mc_moment_check(linspace(-1, 1, n - 2) * 0.02, n, _MC_CHUNK + 1000, seed 11)
# as 0.2.0 computed it: (value, std_error) of B, B_1, ..., B_n.  Odd n is as
# 0.7.0 computes it: the sphere's area now takes math.gamma(n/2), which at a
# half-integer is 1-2 ulp from the scipy gamma of earlier versions.
MC_PINS = {
    2: [
        (-3.145058781143069, 0.0030664992976596876),
        (-2.5738049995869896, 0.0025968795380186616),
        (-0.5712537815560794, 0.0008696845328521935),
    ],
    3: [
        (-6.1317053562157, 0.006131219716086666),
        (-1.937022416397162, 0.003115081406587239),
        (-3.4310811782004245, 0.004081022461695757),
        (-0.7636017616181134, 0.0013259197489410269),
    ],
    4: [
        (-9.874230883940848, 0.009633696470767764),
        (-2.335934245842487, 0.003959158781820213),
        (-2.6029819823642395, 0.004367284591422725),
        (-4.03780771164225, 0.005230992807995524),
        (-0.8975069440918714, 0.0016543306220475717),
    ],
    5: [
        (-13.146533428274324, 0.012844923829772363),
        (-2.481921263215232, 0.004411800958288799),
        (-2.6352905402127176, 0.004663997887146768),
        (-2.7763148129997677, 0.004881965610475426),
        (-4.298265016922026, 0.005881487501353795),
        (-0.9547417949245803, 0.001840243062423072),
    ],
    6: [
        (-15.518559116184344, 0.015132569206219523),
        (-2.4447358244816173, 0.00448177171830517),
        (-2.538009677554792, 0.004633005436141415),
        (-2.6378463285591227, 0.004807324937181714),
        (-2.721943484885644, 0.004936054609659572),
        (-4.233047775051078, 0.005993169832987703),
        (-0.9429760256520855, 0.001870325426617603),
    ],
    7: [
        (-16.574210692853665, 0.016141373569645238),
        (-2.240387856479089, 0.0041956212413614335),
        (-2.2925017205853573, 0.004282740049366707),
        (-2.3708444705004954, 0.0044252616412090474),
        (-2.4449826988013745, 0.004552584546339807),
        (-2.493311770312416, 0.004630174838046864),
        (-3.868329175328423, 0.0056198523176365246),
        (-0.8638530008465111, 0.0017518271441541384),
    ],
    8: [
        (-16.237725554896524, 0.015846797006668346),
        (-1.9184122387570541, 0.003666553480560842),
        (-1.9646056265058072, 0.003737818075078271),
        (-2.006996841582867, 0.0038193888159348266),
        (-2.054069122548171, 0.00390954525272747),
        (-2.09658722845483, 0.003976307362899083),
        (-2.13299902238237, 0.004033431029446819),
        (-3.324933741044978, 0.004938415478554883),
        (-0.7391217336204495, 0.001525213171910481),
    ],
}


class TestComputeMoments:
    def test_zero_delta_3d(self):
        m = moments.compute_moments(np.zeros(1), 3)
        assert m.B == pytest.approx(-2 * math.pi, rel=1e-12)
        assert m.B_i[0] == pytest.approx(-2 * math.pi / 3, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_zero_delta_claim(self, n):
        # n^2 B_i(0) - n B(0) = 0 for the first n-2 axes
        m = moments.compute_moments(np.zeros(n - 2), n)
        omega = sphere.surface_area(n)
        for i in range(n - 2):
            assert abs(n * n * m.B_i[i] - n * m.B) < 1e-8 * omega

    def test_increment_sign_and_scale(self):
        s = 1e-3
        m = moments.compute_moments(np.array([s, 0.0]), 4)
        assert m.C_i[0] < 0.0
        ratio = np.abs(m.C_i).sum() / (s * abs(math.log(s)))
        assert 1.0 < ratio < 6.0

    def test_consistency_invariants(self):
        m = moments.compute_moments(np.array([5e-3, -2e-3]), 4)
        assert m.B_i.sum() == pytest.approx(m.B, rel=1e-12)
        assert m.C_i.sum() == pytest.approx(m.C, abs=1e-15)
        assert m.B < 0 and np.all(m.B_i < 0)

    def test_delta_permutation_symmetry(self):
        a = moments.compute_moments(np.array([4e-3, -1e-3]), 4)
        b = moments.compute_moments(np.array([-1e-3, 4e-3]), 4)
        assert a.B_i[0] == pytest.approx(b.B_i[1], rel=1e-12)
        assert a.B_i[1] == pytest.approx(b.B_i[0], rel=1e-12)
        assert a.B_i[2] == pytest.approx(b.B_i[2], rel=1e-12)

    def test_rejects_large_delta(self):
        with pytest.raises(DomainError):
            moments.compute_moments(np.array([0.4, 0.4]), 4)

    def test_rejects_wrong_length(self):
        with pytest.raises(DomainError):
            moments.compute_moments(np.array([0.1]), 4)

    def test_rejects_nan_delta(self):
        # NaN is not inside |delta| < 1/2; it used to give a set with B = -0 and C = 9.87
        with pytest.raises(DomainError, match="requires \\|delta\\| < 1/2"):
            moments.compute_moments(np.array([np.nan, 0.0]), 4)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("order", [0, 1])
    def test_rejects_order_below_two(self, n, order):
        # since 0.10.0 `order` is only accepted, for the benchmark's call
        # form, and ignored: any value gives the bits of omitting it
        delta = np.full(n - 2, 1e-2)
        got, want = moments.compute_moments(delta, n, order), moments.compute_moments(delta, n)
        assert got.B == want.B and np.array_equal(got.B_i, want.B_i)
        assert np.array_equal(got.C_i, want.C_i) and got.C == want.C

    def test_csv_export(self):
        sets = [
            moments.compute_moments(np.array([0.0]), 3),
            moments.compute_moments(np.array([1e-3]), 3),
        ]
        text = moments.momentsets_to_csv(sets)
        lines = text.strip().splitlines()
        assert lines[0] == "n,delta_1,B,B_1,B_2,B_3,C,C_1,C_2,C_3"
        assert len(lines) == 3
        with pytest.raises(DomainError):
            moments.momentsets_to_csv([])


class TestFourierBlock:
    def test_zero_delta_structure(self):
        # only the x_{n-1}^2 - x_n^2 component survives at delta = 0
        for n in (3, 4, 5):
            m = moments.compute_moments(np.zeros(n - 2), n)
            block = moments.fourier_block2(m)
            diag = np.diag(block.coeff)
            assert np.abs(diag[: n - 2]).max() < 1e-8
            assert diag[n - 2] == pytest.approx(-diag[n - 1], rel=1e-12)
            assert abs(np.trace(block.coeff)) < 1e-14

    def test_n2_coefficient_against_arc_oracle(self):
        # independent 1-D oracle: project -chi_{cos(2t)>0} onto cos(2t)
        chi = lambda t: 1.0 if math.cos(2 * t) > 0 else 0.0
        breaks = [k * math.pi / 4 for k in range(9)]
        num, _ = quad(
            lambda t: -chi(t) * math.cos(2 * t), 0, 2 * math.pi, points=breaks, limit=200
        )
        c0_oracle = num / math.pi
        m = moments.compute_moments(np.zeros(0), 2)
        block = moments.fourier_block2(m)
        assert block.coeff[0, 0] == pytest.approx(c0_oracle, abs=1e-10)
        assert c0_oracle == pytest.approx(-2.0 / math.pi, abs=1e-10)

    def test_small_delta_against_mc_projection(self):
        # project the indicator onto diagonal quadratics by a Gram solve of
        # Monte Carlo inner products, independently of the quadrature path
        n, delta = 3, np.array([0.04])
        m = moments.compute_moments(delta, n)
        block_diag = np.diag(moments.fourier_block2(m).coeff)
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

    @pytest.mark.parametrize("n", sorted(MC_PINS))
    def test_bits_pinned(self, n):
        # two chunks; any change to normalization, column layout or
        # summation order moves these last digits
        samples = sphere._MC_CHUNK + 1000
        delta = np.linspace(-1.0, 1.0, n - 2) * 0.02
        b_est, bi_est = moments.mc_moment_check(delta, n, samples, 11)
        got = [(e.value, e.std_error) for e in [b_est, *bi_est]]
        assert got == MC_PINS[n]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_max_abs_z_is_the_per_column_loop(self, n):
        delta = np.linspace(-1.0, 1.0, n - 2) * 0.02
        m = moments.compute_moments(delta, n)
        b_est, bi_est = moments.mc_moment_check(delta, n, 4000, 5)
        zs = [abs(m.B - b_est.value) / b_est.std_error] + [
            abs(m.B_i[i] - bi_est[i].value) / bi_est[i].std_error for i in range(n)
        ]
        assert moments.mc_max_abs_z(m, b_est, bi_est) == max(zs)


class TestCheckMoments:
    @pytest.mark.parametrize(
        "b, b_i, c, c_i, message",
        [
            (-1.0, [-0.5, -0.4], 0.0, [0.0, 0.0], "sum of B_i must equal B"),
            (-1.0, [-0.5, -0.5], 0.1, [0.0, 0.0], "sum of C_i must equal C"),
            (1.0, [0.5, 0.5], 0.0, [0.0, 0.0], "B moments are integrals of -chi"),
            # a NaN moment fails the checks, though NaN > tol and NaN < 0 are both False
            (math.nan, [math.nan, -1.0], 0.0, [0.0, 0.0], "sum of B_i must equal B"),
            (-1.0, [-0.5, -0.5], math.nan, [0.0, 0.0], "sum of C_i must equal C"),
        ],
    )
    def test_defect_raises(self, b, b_i, c, c_i, message):
        m = moments.MomentSet(2, np.zeros(0), b, np.array(b_i), c, np.array(c_i))
        with pytest.raises(AssertionError, match=message):
            m.validate()


def _unbalanced(cols):
    """The x_i^2 columns no longer sum to the indicator column."""
    cols[..., 1] *= 1.0 + 1e-6


def _one_negative(cols):
    """Column 2 negated, its mass moved to column 1: the sum holds, but a B moment is positive."""
    cols[..., 1] += 2.0 * cols[..., 2]
    cols[..., 2] *= -1.0


def _one_nan(cols):
    """Column 2 is NaN."""
    cols[..., 2] = math.nan


class TestComputedCheck:
    """The check of the kernel's columns on the computed path, fed defective columns."""

    @pytest.mark.parametrize(
        "defect, message",
        [
            (_unbalanced, "sum of B_i must equal B"),
            (_one_negative, "B moments are integrals of -chi"),
            (_one_nan, "sum of B_i must equal B"),
        ],
    )
    def test_defect_raises(self, monkeypatch, defect, message):
        columns = moments.indicator_moment_columns

        def defective(n, coeffs):
            cols = columns(n, coeffs).copy()
            defect(cols)
            return cols

        moments._zero_columns(4)  # cached before the patch, so only the delta's columns are bad
        monkeypatch.setattr(moments, "indicator_moment_columns", defective)
        with pytest.raises(AssertionError, match=message):
            moments.moment_block(normal_form_diagonal(np.array([[0.01, -0.02], [0.0, 0.0]])))
        with pytest.raises(AssertionError, match=message):
            moments.compute_moments(np.array([0.01, -0.02]), 4)


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
