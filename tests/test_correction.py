import math

import numpy as np
import pytest

from blowuplab import correction, moments
from blowuplab.errors import DomainError
from blowuplab.quadratic import HarmonicQuadratic, make_p_delta

LN2 = math.log(2.0)
P_ROT = HarmonicQuadratic(2, np.array([[0.0, 0.5], [0.5, 0.0]]))  # x1*x2


def fd_laplacian(f, x, y, h=1e-4):
    pts = np.array([[x + h, y], [x - h, y], [x, y + h], [x, y - h], [x, y]])
    v = f(pts)
    return (v[0] + v[1] + v[2] + v[3] - 4 * v[4]) / h**2


class TestExplicitSolution:
    def test_laplacian_inside_and_outside(self):
        f = correction.explicit_solution_2d
        assert fd_laplacian(f, 0.3, 0.2) == pytest.approx(-1.0, abs=1e-5)
        assert fd_laplacian(f, -0.4, -0.15) == pytest.approx(-1.0, abs=1e-5)
        assert fd_laplacian(f, 0.3, -0.2) == pytest.approx(0.0, abs=1e-5)

    def test_vanishing_at_origin(self):
        f = correction.explicit_solution_2d
        assert f(np.array([0.0, 0.0])) == 0.0
        h = 1e-6
        gx = (f(np.array([h, 0.0])) - f(np.array([-h, 0.0]))) / (2 * h)
        gy = (f(np.array([0.0, h])) - f(np.array([0.0, -h]))) / (2 * h)
        assert abs(gx) < 1e-6 and abs(gy) < 1e-6

    def test_c1_across_positive_axis(self):
        f = correction.explicit_solution_2d
        eps = 1e-6
        up = (f(np.array([0.4, eps])) - f(np.array([0.4, 0.0]))) / eps
        down = (f(np.array([0.4, 0.0])) - f(np.array([0.4, -eps]))) / eps
        assert up == pytest.approx(down, abs=1e-4)

    def test_axis_frame_laplacian(self):
        f = lambda pts: correction.explicit_solution_2d(pts, frame="axis")
        # source is -chi_{x1^2 > x2^2}
        assert fd_laplacian(f, 0.5, 0.1) == pytest.approx(-1.0, abs=1e-5)
        assert fd_laplacian(f, 0.1, 0.5) == pytest.approx(0.0, abs=1e-5)

    def test_rejects_unknown_frame(self):
        with pytest.raises(DomainError):
            correction.explicit_solution_2d(np.zeros(2), frame="spiral")


class TestFourierSeries2D:
    def test_odd_coefficients_vanish(self):
        dec = correction.fourier_series_2d(make_p_delta(2, np.zeros(0)), 15)
        odd = [t for t in dec.phi_terms if t.degree % 2 == 1 and abs(t.coefficient) > 1e-15]
        assert odd == []

    def test_constant_term(self):
        # a0 = mean of -chi over the circle = -1/2; its phi coefficient is /(2n)
        dec = correction.fourier_series_2d(P_ROT, 10)
        const = [t for t in dec.phi_terms if t.degree == 0]
        assert len(const) == 1
        assert const[0].coefficient == pytest.approx(-0.5 / 4.0, rel=1e-12)

    def test_q_matrix(self):
        dec = correction.fourier_series_2d(P_ROT, 10)
        assert dec.q.coeff[0, 1] == pytest.approx(-1.0 / (2 * math.pi), rel=1e-12)
        assert abs(dec.q.coeff[0, 0]) < 1e-15

    def test_reconstruction_converges_to_closed_form(self):
        dec = correction.fourier_series_2d(P_ROT, 400)
        rng = np.random.Generator(np.random.Philox(key=17))
        angles = rng.uniform(0, 2 * math.pi, 100)
        radii = np.sqrt(rng.uniform(0.01, 1.0, 100))
        pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        err = np.abs(
            correction.reconstruct(dec, pts) - correction.explicit_solution_2d(pts)
        ).max()
        assert err < 1e-6

    def test_error_bounded_by_reported_tail(self):
        for degree in (20, 40, 80):
            dec = correction.fourier_series_2d(P_ROT, degree)
            rng = np.random.Generator(np.random.Philox(key=23))
            angles = rng.uniform(0, 2 * math.pi, 200)
            pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            err = np.abs(
                correction.reconstruct(dec, pts) - correction.explicit_solution_2d(pts)
            ).max()
            assert err <= dec.tail_bound

    def test_tail_bound_decreases(self):
        t40 = correction.fourier_series_2d(P_ROT, 40).tail_bound
        t80 = correction.fourier_series_2d(P_ROT, 80).tail_bound
        assert t80 < t40

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            correction.fourier_series_2d(make_p_delta(3, np.zeros(1)), 40)
        with pytest.raises(DomainError):
            correction.fourier_series_2d(P_ROT, 1)


class TestScaleProjection:
    def test_zero_at_scale_one(self):
        dec = correction.fourier_series_2d(P_ROT, 20)
        proj = correction.scale_projection(dec, 1.0)
        assert np.abs(proj.coeff).max() == 0.0

    def test_log_scaling(self):
        dec = correction.fourier_series_2d(P_ROT, 20)
        p_half = correction.scale_projection(dec, 0.5)
        p_quarter = correction.scale_projection(dec, 0.25)
        assert np.allclose(p_quarter.coeff, 2.0 * p_half.coeff)

    def test_half_scale_constant(self):
        dec = correction.fourier_series_2d(P_ROT, 20)
        proj = correction.scale_projection(dec, 0.5)
        assert proj.coeff[0, 1] == pytest.approx(LN2 / (2 * math.pi), rel=1e-12)

    def test_rejects_out_of_range(self):
        dec = correction.fourier_series_2d(P_ROT, 10)
        with pytest.raises(DomainError):
            correction.scale_projection(dec, 0.0)
        with pytest.raises(DomainError):
            correction.scale_projection(dec, 1.5)


class TestFromFourierBlock:
    def test_zero_block(self):
        dec = correction.from_fourier_block(HarmonicQuadratic.zero(3))
        assert np.abs(dec.q.coeff).max() == 0.0
        assert dec.phi_terms == ()

    def test_linearity(self):
        m = moments.compute_moments(np.array([2e-3]), 3)
        block = moments.fourier_block2(m)
        dec = correction.from_fourier_block(block)
        dec2 = correction.from_fourier_block(2.5 * block)
        assert np.allclose(dec2.q.coeff, 2.5 * dec.q.coeff)

    def test_q_trace_free(self):
        m = moments.compute_moments(np.array([5e-3, 0.0]), 4)
        dec = correction.from_fourier_block(moments.fourier_block2(m))
        assert abs(np.trace(dec.q.coeff)) < 1e-14

    def test_end_to_end_degree2_agreement(self):
        # moments path and the full 2-D series agree on the half-scale block
        m0 = moments.compute_moments(np.zeros(0), 2)
        dec_m = correction.from_fourier_block(moments.fourier_block2(m0))
        dec_s = correction.fourier_series_2d(make_p_delta(2, np.zeros(0)), 20)
        pm = correction.scale_projection(dec_m, 0.5)
        ps = correction.scale_projection(dec_s, 0.5)
        assert np.abs(pm.coeff - ps.coeff).max() < 1e-6
        assert pm.coeff[0, 0] == pytest.approx(LN2 / (2 * math.pi), abs=1e-12)

    def test_grid_projection_of_explicit_solution(self):
        # the independent lattice path recovers the half-scale constant
        from blowuplab import gridproj

        field = gridproj.SampledField.from_function(
            correction.explicit_solution_2d, 2, 1 / 256, 1.0 + 5 / 256
        )
        res = gridproj.project(field, 0.5)
        assert res.raw.coeff[0, 1] == pytest.approx(LN2 / math.pi / 2.0, abs=1e-4)

    def test_json_round_trip(self):
        dec = correction.fourier_series_2d(P_ROT, 12)
        loaded = correction.CorrectionDecomposition.from_json(dec.to_json())
        assert loaded.n == 2
        assert np.allclose(loaded.q.coeff, dec.q.coeff)
        assert loaded.phi_terms == dec.phi_terms
        assert loaded.tail_bound == dec.tail_bound
