import dataclasses
import json
import math

import numpy as np
import pytest

from blowuplab import correction, gridproj
from blowuplab.errors import ConditioningWarning, CoverageError, DomainError, EvaluationError
from blowuplab.quadratic import make_p_delta

from helpers import random_rotation

ETA = math.log(2.0) / (2.0 * math.pi)


def quad_field(p, tau=1.0):
    return lambda pts: tau * np.einsum("ij,pi,pj->p", p.coeff, pts, pts)


def sampled(f, n, h, radius, center):
    """`from_function`'s field of f, on the lattice about `center` (None: 0)."""
    c = np.zeros(n) if center is None else np.asarray(center, dtype=np.float64)
    field = gridproj.SampledField.from_function(lambda x: f(x + c), n, h, radius)
    return dataclasses.replace(field, center=c)


def gathered_hessian_average(field, r, step):
    """The 0.2.0 average: index grid, C-order selection, flat gathers.

    Valid for C-contiguous values only, which every field here has.
    """
    k = field.half_points
    n = field.n
    h = field.h
    ax = np.arange(-k, k + 1)
    grids = np.meshgrid(*[ax] * n, indexing="ij")
    idx = np.stack([g.ravel() for g in grids], axis=1)
    r_cells = r / h
    inside = (idx * idx).sum(axis=1) <= r_cells * r_cells
    margin = np.all(np.abs(idx) <= k - step, axis=1)
    sel = idx[inside & margin]
    if sel.shape[0] == 0:
        raise CoverageError("no lattice points inside the requested ball")
    strides = np.array(field.values.strides) // field.values.itemsize
    flat = (sel + k) @ strides
    v = field.values.ravel()
    hh = (step * h) ** 2
    hessian = np.empty((n, n))
    for i in range(n):
        si = step * strides[i]
        hessian[i, i] = np.mean(v[flat + si] - 2.0 * v[flat] + v[flat - si]) / hh
        for j in range(i + 1, n):
            sj = step * strides[j]
            cross = (
                v[flat + si + sj]
                - v[flat + si - sj]
                - v[flat - si + sj]
                + v[flat - si - sj]
            )
            hessian[i, j] = hessian[j, i] = np.mean(cross) / (4.0 * hh)
    return hessian, sel.shape[0]


def wavy(pts):
    return np.sin(3.0 * pts[:, 0] + 1.0) * np.exp(pts[:, -1]) + pts.sum(axis=1) ** 3


class TestSampledField:
    def test_from_function_shape(self):
        f = gridproj.SampledField.from_function(lambda x: x[:, 0], 2, 0.25, 1.0)
        assert f.values.shape == (9, 9)
        assert f.radius == pytest.approx(1.0)

    def test_save_load_binary(self, tmp_path):
        field = gridproj.SampledField.from_function(
            lambda x: np.sin(x[:, 0]) + x[:, 1], 2, 0.125, 0.5
        )
        field.save(tmp_path / "field.bin")
        loaded = gridproj.SampledField.load(tmp_path / "field.bin")
        assert loaded.n == 2 and loaded.h == pytest.approx(field.h)
        assert np.array_equal(loaded.values, field.values)

    def test_save_load_csv(self, tmp_path):
        field = gridproj.SampledField.from_function(
            lambda x: x[:, 0] ** 2 - x[:, 1] ** 2, 2, 0.25, 0.75
        )
        field.save(tmp_path / "field.csv")
        loaded = gridproj.SampledField.load(tmp_path / "field.csv")
        assert loaded.h == pytest.approx(field.h)
        assert np.allclose(loaded.values, field.values)

    @pytest.mark.parametrize("n, h, radius", [(2, 1 / 16, 0.6), (3, 1 / 8, 0.8)])
    def test_csv_field_projects_as_the_original(self, tmp_path, n, h, radius):
        # the loaded values are a strided view into the CSV's record array
        field = gridproj.SampledField.from_function(wavy, n, h, radius)
        field.save(tmp_path / "field.csv")
        loaded = gridproj.SampledField.load(tmp_path / "field.csv")
        got = gridproj.project(loaded, 0.5)
        want = gridproj.project(field, 0.5)
        assert np.array_equal(got.raw.coeff, want.raw.coeff)
        assert (got.tau, got.fd_error, got.points_used) == (
            want.tau, want.fd_error, want.points_used
        )

    @pytest.mark.parametrize(
        "n, h, radius, r, center",
        [
            (2, 0.1, 0.8, 0.3, None),
            (2, 0.05, 0.8, 0.5, None),
            (3, 0.1, 0.6, 0.3, (1.1, 0.2, -0.3)),
        ],
    )
    def test_csv_keeps_non_dyadic_spacing(self, tmp_path, n, h, radius, r, center):
        # a difference of two printed coordinates is an ulp off h = 0.1 or
        # 0.05, and an ulp flips ball membership where r/h is an integer
        field = sampled(wavy, n, h, radius, center)
        field.save(tmp_path / "field.csv")
        loaded = gridproj.SampledField.load(tmp_path / "field.csv")
        assert loaded.h == field.h and loaded.radius == field.radius
        assert np.array_equal(loaded.center, field.center)
        assert gridproj.project(loaded, r).points_used == gridproj.project(field, r).points_used

    def test_rejects_bad_grid(self):
        with pytest.raises(DomainError):
            gridproj.SampledField(
                n=2, h=0.1, center=np.zeros(2), radius=0.5, values=np.zeros((4, 4))
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_refuses_non_finite_values(self, bad):
        # a NaN inside the ball used to project to NaN with fd_error 0.0
        values = np.zeros((5, 5))
        values[2, 3] = bad
        with pytest.raises(EvaluationError, match="field values must be finite"):
            gridproj.SampledField(n=2, h=0.25, center=np.zeros(2), radius=0.5, values=values)
        with pytest.raises(EvaluationError):
            gridproj.SampledField.from_function(
                lambda x: np.where(x[:, 0] > 0.2, bad, 0.0), 2, 0.25, 0.5
            )

    def test_refuses_radius_beyond_lattice(self):
        with pytest.raises(CoverageError, match="exceeds the lattice's half-width 0.5"):
            gridproj.SampledField(
                n=2, h=0.25, center=np.zeros(2), radius=0.75, values=np.zeros((5, 5))
            )

    @pytest.mark.parametrize("h, k, radius", [(0.3, 3, 0.9), (0.1, 3, 0.3), (1 / 3, 4, 4 / 3)])
    def test_radius_at_lattice_width_to_rounding(self, h, k, radius):
        # 3 * 0.3 is 0.8999999999999999: a radius written as the decimal k * h,
        # or an ulp above the float one, is the lattice's own
        values = np.zeros((2 * k + 1,) * 2)
        for r in (radius, np.nextafter(k * h, np.inf)):
            field = gridproj.SampledField(n=2, h=h, center=np.zeros(2), radius=r, values=values)
            assert field.radius == r

    def test_load_refuses_overstated_header_radius(self, tmp_path):
        # with R = 3.0 on a lattice of half-width 1.375, r = 2 and r = 2.5 both
        # averaged the whole 529-point box and returned it as the ball's projection
        field = gridproj.SampledField.from_function(wavy, 2, 0.125, 1.375)
        assert field.values.size == 529
        field.save(tmp_path / "field.bin")
        header = json.loads((tmp_path / "field.json").read_text())
        (tmp_path / "field.json").write_text(json.dumps({**header, "R": 3.0}))
        with pytest.raises(CoverageError, match="radius 3 exceeds"):
            gridproj.SampledField.load(tmp_path / "field.bin")

    def test_load_refuses_nan_value(self, tmp_path):
        field = gridproj.SampledField.from_function(wavy, 2, 0.125, 1.375)
        field.save(tmp_path / "field.bin")
        values = field.values.copy()
        values[11, 12] = math.nan  # one lattice step from the center
        values.astype("<f8").tofile(tmp_path / "field.bin")
        with pytest.raises(EvaluationError):
            gridproj.SampledField.load(tmp_path / "field.bin")

    @pytest.mark.parametrize(
        "h, radius, shown",
        [
            (math.nan, 0.5, "h must be positive and finite, got nan"),
            (math.inf, 0.5, "h must be positive and finite, got inf"),
            (-0.25, 0.5, "h must be positive and finite, got -0.25"),
            (0.25, math.nan, "radius must be positive and finite, got nan"),
            (0.25, -1.0, "radius must be positive and finite, got -1.0"),
            (0.25, 0.0, "radius must be positive and finite, got 0.0"),
        ],
    )
    def test_refuses_bad_spacing_or_radius(self, h, radius, shown):
        # h = NaN passed the old `h <= 0` test, and a NaN radius was not tested
        with pytest.raises(DomainError, match=shown):
            gridproj.SampledField(
                n=2, h=h, center=np.zeros(2), radius=radius, values=np.zeros((5, 5))
            )
        with pytest.raises(DomainError, match=shown):
            gridproj.SampledField.from_function(wavy, 2, h, radius)


class TestProject:
    @pytest.mark.parametrize("r", [math.nan, math.inf, 0.0, -0.5])
    def test_refuses_bad_scale(self, r):
        # r = NaN ended in math.floor's "cannot convert float NaN to integer"
        field = gridproj.SampledField.from_function(wavy, 2, 0.125, 1.375)
        with pytest.raises(DomainError, match=f"r must be positive and finite, got {r!r}"):
            gridproj.project(field, r)

    def test_exact_on_quadratics(self):
        p = make_p_delta(3, np.array([0.05]))
        field = gridproj.SampledField.from_function(quad_field(p, 7.0), 3, 1 / 16, 1.25)
        res = gridproj.project(field, 1.0)
        assert res.tau == pytest.approx(7.0, abs=1e-10)
        assert np.abs(res.p.coeff - p.coeff).max() < 1e-10

    def test_scale_invariance_on_quadratics(self):
        p = make_p_delta(2, np.zeros(0))
        field = gridproj.SampledField.from_function(quad_field(p, 3.0), 2, 1 / 32, 1.1)
        for r in (1.0, 0.5, 0.3):
            res = gridproj.project(field, r)
            assert res.tau == pytest.approx(3.0, abs=1e-9)

    def test_explicit_solution_scale_one_vanishes(self):
        field = gridproj.SampledField.from_function(
            correction.explicit_solution_2d, 2, 1 / 256, 1.0 + 5 / 256
        )
        with pytest.warns(ConditioningWarning):
            res = gridproj.project(field, 1.0)
        assert res.tau < 1e-4 * np.abs(field.values).max()
        assert res.p is None

    def test_explicit_solution_half_scale(self):
        field = gridproj.SampledField.from_function(
            correction.explicit_solution_2d, 2, 1 / 256, 1.0 + 5 / 256
        )
        res = gridproj.project(field, 0.5)
        assert res.raw.coeff[0, 1] == pytest.approx(math.log(2) / (2 * math.pi), abs=1e-4)

    def test_coverage_error(self):
        field = gridproj.SampledField.from_function(
            lambda x: x[:, 0] ** 2 - x[:, 1] ** 2, 2, 0.25, 0.75
        )
        with pytest.raises(CoverageError):
            gridproj.project(field, 0.75)

    def test_quartic_refinement_is_second_order(self):
        # quartics have constant fourth derivatives, so the FD truncation
        # dominates and halving h divides the error by ~4
        f = lambda pts: pts[:, 0] ** 4
        errs = []
        for h in (1 / 8, 1 / 16, 1 / 32):
            field = gridproj.SampledField.from_function(f, 2, h, 1.0 + 5 * h)
            res = gridproj.project(field, 1.0)
            # exact projection: trace-free part of avg D^2(x^4) over the
            # same lattice selection the projector uses
            pts = field.lattice_points()
            idx = np.linalg.norm(pts, axis=1) <= 1.0
            margin = np.all(
                np.abs(pts) <= field.radius - field.h + 1e-12, axis=1
            )
            avg = np.mean(12.0 * pts[idx & margin, 0] ** 2)
            exact = np.diag([avg / 4.0, -avg / 4.0])
            errs.append(np.abs(res.raw.coeff - exact).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)

    def test_rotation_equivariance(self):
        rng = np.random.Generator(np.random.Philox(key=77))
        p = make_p_delta(3, np.array([0.1]))
        rot = random_rotation(3, rng)

        def u(pts):
            return np.einsum("ij,pi,pj->p", p.coeff, pts, pts) + 0.05 * np.sin(
                pts[:, 0]
            ) * np.cos(pts[:, 1] + pts[:, 2])

        def u_rot(pts):
            return u(pts @ rot)

        h = 1 / 24
        f1 = gridproj.SampledField.from_function(u, 3, h, 0.8 + 5 * h)
        f2 = gridproj.SampledField.from_function(u_rot, 3, h, 0.8 + 5 * h)
        r1 = gridproj.project(f1, 0.8)
        r2 = gridproj.project(f2, 0.8)
        rotated = rot @ r1.raw.coeff @ rot.T
        assert np.abs(r2.raw.coeff - rotated).max() < 5e-3

    def test_linearity(self):
        pa = make_p_delta(2, np.zeros(0))
        f_quad = quad_field(pa, 2.0)
        f_sin = lambda pts: 0.1 * np.sin(2 * pts[:, 0]) * np.sin(pts[:, 1])
        h = 1 / 64
        fa = gridproj.SampledField.from_function(f_quad, 2, h, 1.0 + 5 * h)
        fb = gridproj.SampledField.from_function(f_sin, 2, h, 1.0 + 5 * h)
        fab = gridproj.SampledField.from_function(
            lambda pts: f_quad(pts) + f_sin(pts), 2, h, 1.0 + 5 * h
        )
        ra = gridproj.project(fa, 1.0)
        rb = gridproj.project(fb, 1.0)
        rab = gridproj.project(fab, 1.0)
        assert np.abs(rab.raw.coeff - ra.raw.coeff - rb.raw.coeff).max() < 1e-12


class TestHessianAverage:
    @pytest.mark.parametrize("step", [1, 2])
    @pytest.mark.parametrize(
        "n, h, radius, center, r",
        [
            (2, 1 / 32, 1.0 + 5 / 32, None, 1.0),
            (2, 1 / 32, 1.0 + 5 / 32, (0.3, -0.2), 0.55),
            (2, 0.03, 0.7, None, 0.5),
            (2, 1 / 16, 1.0, None, 1.0),
            (3, 1 / 16, 0.8 + 5 / 16, None, 0.8),
            (3, 1 / 16, 0.8 + 5 / 16, (0.1, 0.25, -0.4), 0.45),
            (3, 0.07, 0.7, None, 0.66),
        ],
        ids=["2d", "2d-offcentre", "2d-fraction", "2d-clipped",
             "3d", "3d-offcentre", "3d-clipped-fraction"],
    )
    def test_equals_gathered_average(self, n, h, radius, center, r, step):
        field = sampled(wavy, n, h, radius, center)
        hess, used = gridproj._hessian_average(field, r, step)
        want, want_used = gathered_hessian_average(field, r, step)
        assert np.array_equal(hess, want)
        assert used == want_used

    def test_no_point_inside(self):
        field = gridproj.SampledField.from_function(wavy, 2, 0.5, 0.5)
        with pytest.raises(CoverageError):
            gathered_hessian_average(field, 0.5, 2)
        with pytest.raises(CoverageError):
            gridproj._hessian_average(field, 0.5, 2)


class TestHalfStepEmpirical:
    def test_pure_quadratic_difference_vanishes(self):
        p = make_p_delta(2, np.zeros(0))
        field = gridproj.SampledField.from_function(quad_field(p, 5.0), 2, 1 / 32, 1.2)
        ra, rb = gridproj.half_step_empirical(field, 1.0)
        assert np.abs(rb.raw.coeff - ra.raw.coeff).max() < 1e-9

    def test_synthetic_half_step_matches_analytic(self):
        p0 = make_p_delta(2, np.zeros(0))

        def u(pts):
            return 10.0 * np.einsum(
                "ij,pi,pj->p", p0.coeff, pts, pts
            ) + correction.explicit_solution_2d(pts, frame="axis")

        h = 1 / 256
        field = gridproj.SampledField.from_function(u, 2, h, 1.0 + 5 * h)
        ra, rb = gridproj.half_step_empirical(field, 1.0)
        diff = rb.raw.coeff - ra.raw.coeff
        assert np.abs(diff - np.diag([ETA, -ETA])).max() < 1e-3
