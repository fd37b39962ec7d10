import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import roots_jacobi

from blowuplab import _kernels, moments, sphere
from blowuplab.errors import (
    DomainError,
    EvaluationError,
    QuadratureConvergenceWarning,
)
from blowuplab.quadratic import HarmonicQuadratic, make_p_delta

from helpers import coeff_vector


def chi_indicator(p):
    return lambda x: (np.einsum("ij,pi,pj->p", p.coeff, x, x) > 0).astype(float)


class TestBuildRule:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (2, 2 * math.pi),
            (3, 4 * math.pi),
            (4, 2 * math.pi**2),
            (5, 8 * math.pi**2 / 3),
            (6, math.pi**3),
        ],
    )
    def test_total_weight(self, n, expected):
        rule = sphere.build_rule(n, 16)
        assert rule.weights().sum() == pytest.approx(expected, rel=1e-12)

    def test_total_weight_any_order(self):
        # the Jacobi weights absorb the area element exactly at every order
        for order in (2, 3, 5, 64):
            rule = sphere.build_rule(4, order)
            assert rule.weights().sum() == pytest.approx(2 * math.pi**2, rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            sphere.build_rule(1, 16)
        with pytest.raises(DomainError):
            sphere.build_rule(3, 1)

    def test_nodes_in_range(self):
        rule = sphere.build_rule(4, 12)
        nodes = rule.nodes()
        assert np.all(nodes[:, 0] > 0) and np.all(nodes[:, 0] < 2 * math.pi)
        assert np.all(nodes[:, 1:] > 0) and np.all(nodes[:, 1:] < math.pi)
        assert np.all(rule.weights() >= 0)

    def test_cartesian_on_sphere(self):
        rule = sphere.build_rule(5, 8)
        pts = rule.cartesian()
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-14


_JACOBI_A = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]


def _even_moments(m, a):
    """Integrals of x^(2k) (1 - x^2)^a over [-1, 1] for k < m.

    Gamma(k+1/2) Gamma(a+1) / Gamma(k+a+3/2) is the k = 0 value times the
    exact rational prod_{i<=k} (2i - 1) / (2i + 2a + 1), so no Gamma
    overflows and each reference is good to a few ulp.
    """
    mu0 = math.gamma(0.5) * math.gamma(a + 1.0) / math.gamma(a + 1.5)
    ratio = Fraction(1)
    out = []
    for k in range(m):
        if k:
            ratio *= Fraction(2 * k - 1) / (2 * k + Fraction(2 * a) + 1)
        out.append(mu0 * float(ratio))
    return out


class TestGaussJacobi:
    @pytest.mark.parametrize("a", _JACOBI_A)
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 16, 64, 255, 256])
    def test_exact_on_even_monomials(self, m, a):
        # an m-point Gauss rule integrates degree <= 2m - 1 exactly; the
        # weights' own rounding grows about linearly with m (5e-13 at 256)
        x, w = sphere._gauss_jacobi(m, a)
        got = [w @ x ** (2 * k) for k in range(m)]
        assert got == pytest.approx(_even_moments(m, a), rel=4e-15 * max(m, 4), abs=0.0)

    @pytest.mark.parametrize("a", _JACOBI_A)
    @pytest.mark.parametrize("m", [2, 3, 16, 65, 256, 512])
    def test_nodes_match_scipy(self, m, a):
        # within 2 ulp of 1, the scale of [-1, 1]; scipy's weights are the
        # less accurate of the two (1.3e-10 relative at 256 Legendre nodes)
        x, w = sphere._gauss_jacobi(m, a)
        ref, _ = roots_jacobi(m, a, a)
        assert np.abs(x - ref).max() <= 2 * np.spacing(1.0)

    @pytest.mark.parametrize("m", [1, 2, 5, 64])
    def test_symmetric_ascending_positive(self, m):
        x, w = sphere._gauss_jacobi(m, 1.5)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)


class TestIntegrate:
    def test_constant(self):
        rule = sphere.build_rule(3, 32)
        assert sphere.integrate(rule, lambda x: np.ones(len(x))) == pytest.approx(
            4 * math.pi, rel=1e-13
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_square_moment(self, n):
        rule = sphere.build_rule(n, 32)
        omega = sphere.surface_area(n)
        for i in range(n):
            val = sphere.integrate(rule, lambda x, i=i: x[:, i] ** 2)
            assert val == pytest.approx(omega / n, rel=1e-12)

    def test_quartic_moment(self):
        rule = sphere.build_rule(3, 32)
        val = sphere.integrate(rule, lambda x: x[:, 1] ** 4)
        assert val == pytest.approx(12 * math.pi / 15, rel=1e-12)

    def test_axis_relabeling_symmetry(self):
        # x_i^4 and x_i^2 x_j^2 agree across all axis labelings
        rule = sphere.build_rule(4, 16)
        quartics = [
            sphere.integrate(rule, lambda x, i=i: x[:, i] ** 4) for i in range(4)
        ]
        assert max(quartics) - min(quartics) < 1e-12
        mixed = [
            sphere.integrate(rule, lambda x, i=i, j=j: x[:, i] ** 2 * x[:, j] ** 2)
            for i in range(4)
            for j in range(4)
            if i != j
        ]
        assert max(mixed) - min(mixed) < 1e-12

    def test_smooth_refinement_stability(self):
        f = lambda x: np.exp(x[:, 0]) * np.cos(x[:, 1])
        v1 = sphere.integrate(sphere.build_rule(3, 48), f)
        v2 = sphere.integrate(sphere.build_rule(3, 96), f)
        assert abs(v1 - v2) < 1e-10 * abs(v2)

    def test_nonfinite_rejected(self):
        rule = sphere.build_rule(3, 8)

        def bad(x):
            v = np.zeros(len(x))
            v[0] = np.nan
            return v

        with pytest.raises(EvaluationError):
            sphere.integrate(rule, bad)

    def test_wrong_shape_rejected(self):
        rule = sphere.build_rule(3, 8)
        with pytest.raises(DomainError):
            sphere.integrate(rule, lambda x: np.ones((len(x), 2)))


class TestIndicatorQuadratic:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_half_measure(self, n):
        p0 = make_p_delta(n, np.zeros(n - 2))
        val = sphere.integrate_indicator_quadratic(p0)
        assert val == pytest.approx(sphere.surface_area(n) / 2, rel=1e-12)

    def test_weighted_half_measure(self):
        p0 = make_p_delta(4, np.zeros(2))
        val = sphere.integrate_indicator_quadratic(p0, weight_axis=0)
        assert val == pytest.approx(math.pi**2 / 4, rel=1e-12)

    def test_small_delta_against_monte_carlo(self):
        p = make_p_delta(4, np.array([1e-3, 0.0]))
        quad = sphere.integrate_indicator_quadratic(p)
        est = sphere.mc_integrate(4, chi_indicator(p), 10**7, 20240801)
        assert abs(quad - est.value) <= 3 * est.std_error

    @pytest.mark.parametrize(
        "n,delta",
        [
            (3, [1e-3]),
            (3, [-2e-3]),
            (4, [1e-3, 0.0]),
            (4, [5e-3, -3e-3]),
        ],
    )
    def test_refinement_stability(self, n, delta):
        # refinement is the check pass at half the step, which it returns
        p = make_p_delta(n, np.array(delta))
        v1 = sphere.integrate_indicator_quadratic(p)
        v2 = sphere.integrate_indicator_quadratic(p, check_rtol=1e-8)
        assert abs(v1 - v2) < 1e-8 * abs(v2)

    def test_refinement_stability_n5_zero_delta(self):
        p = make_p_delta(5, np.zeros(3))
        v1 = sphere.integrate_indicator_quadratic(p)
        v2 = sphere.integrate_indicator_quadratic(p, check_rtol=1e-12)
        assert abs(v1 - v2) < 1e-12 * abs(v2)

    def test_refinement_envelope_n5_mixed(self):
        # the bound is the ~1e-6 envelope of the n >= 5 product rule of
        # versions before 0.9.0
        p = make_p_delta(5, np.array([1e-2, -5e-3, 2e-3]))
        v1 = sphere.integrate_indicator_quadratic(p)
        v2 = sphere.integrate_indicator_quadratic(p, check_rtol=1e-5)
        assert abs(v1 - v2) < 1e-5 * abs(v2)

    def test_general_quadratic_keeps_order(self):
        # a general quadratic, not only a normal form, holds its columns
        # under the check pass at half the step (TestClosedFormN4 in
        # test_kernels checks this quadratic against scipy quad)
        p = HarmonicQuadratic(4, np.diag([0.9, 0.1 - 1e-9, 1e-9, -1.0]))
        axes = [None, 0, 1, 2, 3]
        got = [sphere.integrate_indicator_quadratic(p, ax) for ax in axes]
        ref = [sphere.integrate_indicator_quadratic(p, ax, check_rtol=1e-12) for ax in axes]
        assert np.abs(np.subtract(got, ref)).max() <= 1e-12 * np.abs(ref).max()

    def test_rejects_non_diagonal(self):
        q = HarmonicQuadratic.from_matrix(
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        )
        with pytest.raises(DomainError):
            sphere.integrate_indicator_quadratic(q)

    def test_zero_form_contributes_nothing(self):
        assert sphere.integrate_indicator_quadratic(HarmonicQuadratic.zero(3)) == 0.0

    def test_permuted_axes_match(self):
        # most-negative axis is moved internally; values match the direct case
        p = HarmonicQuadratic(3, np.diag([-1.0, 0.2, 0.8]))
        q = HarmonicQuadratic(3, np.diag([0.2, 0.8, -1.0]))
        v_p = sphere.integrate_indicator_quadratic(p, weight_axis=0)
        v_q = sphere.integrate_indicator_quadratic(q, weight_axis=2)
        assert v_p == pytest.approx(v_q, rel=1e-13)

    def test_convergence_warning(self, monkeypatch):
        # at a step of 1 the trapezoid rule is ~1e-5 off, so the check pass
        # at half of it cannot confirm 1e-12
        p = make_p_delta(5, np.array([1e-2, -5e-3, 2e-3]))
        monkeypatch.setattr(_kernels, "STEP", 1.0)
        with pytest.warns(QuadratureConvergenceWarning):
            sphere.integrate_indicator_quadratic(p, check_rtol=1e-12)

    def test_check_pass_doubles_kernel_nodes(self, monkeypatch):
        # the check pass re-evaluates at half the kernel's step, which
        # doubles its nodes in w; at the default step the two agree
        # to 1e-12 and nothing warns
        seen = []
        block = _kernels.indicator_moment_block

        def spy(coeffs, step):
            seen.append(step)
            return block(coeffs, step)

        monkeypatch.setattr(_kernels, "indicator_moment_block", spy)
        p = make_p_delta(5, np.array([1e-2, -5e-3, 2e-3]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", QuadratureConvergenceWarning)
            sphere.integrate_indicator_quadratic(p, check_rtol=1e-12)
        assert seen == [_kernels.STEP, 0.5 * _kernels.STEP]

    def test_check_sees_kernel_resolution(self):
        # just above the 1e-11 snap, the x_3^2 column at the step and at half
        # of it agree to 1e-12 but not to 1e-16 (a 2.2e-16 gap, 2.9e-16
        # relative), which a check pass that repeated the same step could
        # never report
        p = make_p_delta(3, np.array([3e-11]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", QuadratureConvergenceWarning)
            sphere.integrate_indicator_quadratic(p, weight_axis=2, check_rtol=1e-12)
        with pytest.warns(QuadratureConvergenceWarning):
            sphere.integrate_indicator_quadratic(p, weight_axis=2, check_rtol=1e-16)


class TestMonteCarlo:
    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_refuses_seed_outside_philox_keys(self, seed):
        # np.uint64 raised OverflowError on -1 and 2**64 and truncated 1.5
        with pytest.raises(DomainError, match="seed must be an integer in \\[0, 2\\^64\\)"):
            sphere.mc_integrate(3, lambda x: x[:, 0], 1000, seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**63 + 5), np.int32(7)])
    def test_philox_is_the_keyed_stream(self, seed):
        want = np.random.Generator(np.random.Philox(key=np.uint64(seed))).standard_normal(5)
        assert np.array_equal(sphere.philox(seed).standard_normal(5), want)

    def test_constant_zero_variance(self):
        est = sphere.mc_integrate(3, lambda x: np.ones(len(x)), 10**4, 7)
        assert est.value == pytest.approx(4 * math.pi, rel=1e-14)
        assert est.std_error == 0.0

    def test_scalar_integrand(self):
        # a scalar stands for the constant function, on every chunk
        est = sphere.mc_integrate(3, lambda x: 2.0, sphere._MC_CHUNK + 1000, 7)
        assert est.value == pytest.approx(8 * math.pi, rel=1e-14)
        assert est.std_error == 0.0

    def test_half_measure(self):
        p0 = make_p_delta(3, np.zeros(1))
        est = sphere.mc_integrate(3, chi_indicator(p0), 10**6, 99)
        assert abs(est.value - 2 * math.pi) <= 3 * est.std_error

    def test_weighted_indicator_n5(self):
        p0 = make_p_delta(5, np.zeros(3))
        f = lambda x: chi_indicator(p0)(x) * x[:, 0] ** 2
        est = sphere.mc_integrate(5, f, 10**6, 123)
        assert abs(est.value - sphere.surface_area(5) / 10) <= 3 * est.std_error

    def test_deterministic_per_seed(self):
        f = lambda x: x[:, 0] ** 2
        e1 = sphere.mc_integrate(4, f, 10**5, 42)
        e2 = sphere.mc_integrate(4, f, 10**5, 42)
        e3 = sphere.mc_integrate(4, f, 10**5, 43)
        assert e1.value == e2.value and e1.std_error == e2.std_error
        assert e1.value != e3.value

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(DomainError):
            sphere.mc_integrate(3, lambda x: np.ones(len(x)), 10, 0)

    def test_stack_equals_row_runs(self):
        # a (k, m) integrand reduces each row from the one stream exactly as
        # a run of that row alone would
        rows = [
            lambda x: np.ones(len(x)),
            lambda x: x[:, 0] ** 2,
            lambda x: x[:, 1] * x[:, 3] + x[:, 2],
        ]
        stacked = sphere.mc_integrate(4, lambda x: np.stack([f(x) for f in rows]), 10**5, 5)
        assert len(stacked) == len(rows)
        for f, est in zip(rows, stacked):
            assert est == sphere.mc_integrate(4, f, 10**5, 5)

    @pytest.mark.parametrize(
        "f",
        [
            lambda x: np.ones(len(x) + 1),
            lambda x: np.ones((len(x), 2)),
            lambda x: np.ones((2, len(x), 1)),
        ],
    )
    def test_rejects_wrong_last_axis(self, f):
        with pytest.raises(DomainError):
            sphere.mc_integrate(3, f, 2000, 0)


# The order-128 indicator_moment_columns of coeff_vector(delta) as 0.2.0-0.8.0
# computed it, with the graded prefix rule of the circle rebuilt at 34
# levels x 24 Gauss-Legendre nodes, printed with repr.  The per-call grading
# loop of 0.2.0, run at 34 x 24 and order 128, agrees with these to 5e-15.
# The orders are kept as test ids only.
_DEEP_N4 = [
    ((0.05, 0.0), [10.361950059935648, 2.83716915664034, 2.590487514983916, 4.0339649452974236, 0.9003284430139615]),
    ((1e-05, 0.0), [9.869968587703758, 2.4676742402330736, 2.4674921469256748, 4.038197426414113, 0.896604774130898]),
    ((0.05, -0.002), [10.335855979404732, 2.833477728675377, 2.568066757704775, 4.0340574205578505, 0.900254072466713]),
    ((0.0001, -3e-05), [9.871589695721521, 2.4693879923620745, 2.467399502824944, 4.038197379997658, 0.8966048205368393]),
    ((-0.03, 0.0), [9.535018343040514, 2.216342243101526, 2.383754585760141, 4.036657637842328, 0.8982638763365189]),
    ((0.3, -0.1), [10.567753085790669, 3.450737396928048, 2.219236876393268, 3.9552906242796815, 0.9424881881896723]),
    ((0.05, 1e-10), [10.361950061261037, 2.837169156820739, 2.5904875161295475, 4.033964945292572, 0.9003284430181777]),
    ((-0.1436, -4.9e-06), [8.978060141087061, 1.7930888323472212, 2.2444856723268023, 4.023391015361117, 0.9170946210519197]),
]

class TestGradedPrefix:
    @pytest.mark.parametrize(
        "delta, order, want",
        [
            pytest.param(d, order, want, id=f"{d[0]:g},{d[1]:g}-{order}")
            for d, want in _DEEP_N4
            for order in (32, 48, 64, 128)
        ],
    )
    def test_against_deep_reference(self, delta, order, want):
        coeffs = coeff_vector(np.array(delta))
        got = sphere.indicator_moment_columns(4, coeffs)
        want = np.array(want)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestCachedArraysReadOnly:
    def _cached(self):
        rule = sphere.build_rule(5, 12)
        return [
            rule.phi_nodes, rule.phi_weights, *rule.psi_nodes, *rule.psi_weights,
            moments._zero_columns(5),
        ]

    def test_in_place_write_raises(self):
        before = [a.copy() for a in self._cached()]
        for a in self._cached():
            with pytest.raises(ValueError):
                a[0] = -1.0
            with pytest.raises(ValueError):
                a *= 2.0
        for old, new in zip(before, self._cached()):
            assert np.array_equal(old, new)
