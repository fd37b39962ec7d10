"""Projection of sampled fields onto harmonic quadratics.

The best harmonic-quadratic fit of u(r x + x0)/r^2 in the Hessian
least-squares sense reduces, for constant candidate Hessians, to the
trace-free part of the lattice-averaged finite-difference Hessian over the
ball; the r^2/r^2 rescaling cancels so the average runs directly over grid
points inside B_r(x0).  Each second difference is evaluated on shifted
slice views of the sampled values, so a field of any memory layout (a CSV
load is a strided view) projects as it is, without an index grid.
"""

import json
import math
import warnings
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np

from .errors import CoverageError, DomainError, ConditioningWarning, EvaluationError
from .quadratic import HarmonicQuadratic


@dataclass
class SampledField:
    """Field values on a cubic lattice centered at x0 covering B_radius(x0).

    A radius beyond the lattice's half-width k*h (to rounding) is a
    CoverageError, and a non-finite value an EvaluationError: either would
    make `project` average a region or values other than the ball's.
    """

    n: int
    h: float
    center: np.ndarray
    radius: float
    values: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        if self.h <= 0:
            raise DomainError("grid spacing must be positive")
        if self.values.ndim != self.n:
            raise DomainError("values array rank must equal the dimension")
        m = self.values.shape[0]
        if any(s != m for s in self.values.shape) or m % 2 == 0:
            raise DomainError("values must be a cube with odd side length")
        width = self.half_points * self.h
        if self.radius > width * (1.0 + 1e-12):
            raise CoverageError(
                f"radius {self.radius:g} exceeds the lattice's half-width {width:g}"
            )
        if not np.isfinite(self.values).all():
            raise EvaluationError("field values must be finite")

    @property
    def half_points(self):
        return (self.values.shape[0] - 1) // 2

    @classmethod
    def from_function(cls, f, n, h, radius, center=None):
        """Sample a vectorized function of (..., n) points on the lattice."""
        center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
        k = int(math.ceil(radius / h))
        axis = h * np.arange(-k, k + 1)
        grids = np.meshgrid(*[axis + c for c in center], indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        vals = np.asarray(f(pts), dtype=np.float64).reshape(grids[0].shape)
        return cls(n=n, h=h, center=center, radius=k * h, values=vals)

    def lattice_points(self):
        k = self.half_points
        ax = self.h * np.arange(-k, k + 1)
        grids = np.meshgrid(*[ax + c for c in self.center], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def save(self, path):
        """Flat binary of doubles plus a JSON header, or CSV for small grids."""
        path = Path(path)
        if path.suffix == ".csv":
            pts = self.lattice_points()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(",".join([f"x_{i+1}" for i in range(self.n)] + ["value"]))
                fh.write("\n")
                for row, v in zip(pts, self.values.ravel()):
                    fh.write(",".join(f"{c:.17g}" for c in row) + f",{v:.17g}\n")
            return
        header = {
            "n": self.n,
            "h": self.h,
            "R": self.radius,
            "center": self.center.tolist(),
            "order": "row-major",
            "shape": list(self.values.shape),
        }
        path.with_suffix(".json").write_text(json.dumps(header, sort_keys=True))
        self.values.astype("<f8").tofile(path.with_suffix(".bin"))

    @classmethod
    def load(cls, path):
        path = Path(path)
        if path.suffix == ".csv":
            data = np.genfromtxt(path, delimiter=",", names=True)
            names = data.dtype.names
            n = len(names) - 1
            coords = np.stack([data[nm] for nm in names[:-1]], axis=1)
            vals = data["value"]
            axes = [np.unique(coords[:, i]) for i in range(n)]
            m = axes[0].size
            k = (m - 1) // 2
            center = np.array([a[k] for a in axes])
            h = _lattice_spacing(axes, center, k)
            values = vals.reshape([m] * n)
            return cls(n=n, h=h, center=center, radius=k * h, values=values)
        header = json.loads(path.with_suffix(".json").read_text())
        values = np.fromfile(path.with_suffix(".bin"), dtype="<f8").reshape(
            header["shape"]
        )
        return cls(
            n=int(header["n"]),
            h=float(header["h"]),
            center=np.array(header["center"], dtype=float),
            radius=float(header["R"]),
            values=values,
        )


def _lattice_spacing(axes, center, k):
    """The h whose lattice h * j + center reproduces every stored axis exactly.

    A CSV stores h * j + c printed to 17 digits, so a difference of two
    coordinates can be an ulp off h, and an ulp decides ball membership
    at integral r/h.  The candidates are the end-to-end estimate and the
    floats one and two ulps to each side, nearest first; with none exact
    (a file not written by `save`) the estimate is kept.
    """
    j = np.arange(-k, k + 1)
    guess = float((axes[0][-1] - axes[0][0]) / (2 * k))
    for h in guess + np.spacing(guess) * np.array([0.0, -1.0, 1.0, -2.0, 2.0]):
        if all(np.array_equal(h * j + c, a) for a, c in zip(axes, center)):
            return float(h)
    return guess


@dataclass
class ProjectionResult:
    """Trace-free Hessian average with its normalization.

    `p` is None (with a ConditioningWarning) when the projection is too
    close to zero relative to the finite-difference error estimate to
    carry a meaningful sign convention.
    """

    raw: HarmonicQuadratic
    tau: float
    p: HarmonicQuadratic
    fd_error: float
    points_used: int


def _hessian_average(field, r, step):
    """Average FD Hessian over lattice points inside B_r, stencil `step` cells.

    Each second difference is one expression on shifted slice views of
    `field.values`, cut to the ball's bounding box inside the stencil
    margin.  The ball mask selects in C order, the lattice's own order,
    so each mean sums the same values in the same order as a gather over
    the selected points would.
    """
    k = field.half_points
    n = field.n
    r_cells = r / field.h
    reach = min(k - step, math.floor(r_cells))
    if reach < 0:
        raise CoverageError("no lattice points inside the requested ball")
    sq = np.arange(-reach, reach + 1) ** 2
    inside = reduce(np.add.outer, [sq] * n) <= r_cells * r_cells

    def shifted(offset):
        return field.values[tuple(slice(k - reach + o, k + reach + 1 + o) for o in offset)]

    unit = step * np.eye(n, dtype=int)
    center = shifted(np.zeros(n, dtype=int))
    hh = (step * field.h) ** 2
    hessian = np.empty((n, n))
    for i in range(n):
        ei = unit[i]
        second = shifted(ei) - 2.0 * center + shifted(-ei)
        hessian[i, i] = np.mean(second[inside]) / hh
        for j in range(i + 1, n):
            ej = unit[j]
            cross = (
                shifted(ei + ej)
                - shifted(ei - ej)
                - shifted(-ei + ej)
                + shifted(-ei - ej)
            )
            hessian[i, j] = hessian[j, i] = np.mean(cross[inside]) / (4.0 * hh)
    return hessian, int(np.count_nonzero(inside))


def project(field, r):
    """Best harmonic-quadratic fit of u(r x + x0)/r^2 at scale r.

    Returns the raw trace-free Hessian average (as a quadratic), its
    sup-ball norm tau and the normalized form p; a Richardson comparison
    against the doubled stencil supplies the FD error estimate.
    """
    if r <= 0:
        raise DomainError("scale r must be positive")
    if r + 2.0 * field.h > field.radius + 1e-12:
        raise CoverageError(
            f"field covers B_{field.radius:g} but the stencil needs B_{r + 2 * field.h:g}"
        )
    hess, used = _hessian_average(field, r, 1)
    a = 0.5 * (hess - np.trace(hess) / field.n * np.eye(field.n))
    raw = HarmonicQuadratic.from_matrix(a)

    # the field's radius is within its lattice, so the doubled stencil fits too
    hess2, _ = _hessian_average(field, r, 2)
    a2 = 0.5 * (hess2 - np.trace(hess2) / field.n * np.eye(field.n))
    fd_error = float(np.linalg.norm(a2 - a) / 3.0)

    tau = raw.sup_norm_ball()
    if tau <= 10.0 * fd_error or tau == 0.0:
        warnings.warn(
            "projection magnitude is within 10x of the FD error estimate; "
            "normalized direction is unreliable",
            ConditioningWarning,
            stacklevel=2,
        )
        return ProjectionResult(raw=raw, tau=tau, p=None, fd_error=fd_error, points_used=used)
    return ProjectionResult(
        raw=raw, tau=tau, p=(1.0 / tau) * raw, fd_error=fd_error, points_used=used
    )


def half_step_empirical(field, r):
    """Projections at scales r and r/2, for comparison with the analytic map."""
    return project(field, r), project(field, r / 2.0)
