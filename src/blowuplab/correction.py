"""Canonical correction of the indicator source and its scale projections.

For sigma = -chi_{p>0} (degree-0 homogeneous) the correction Z solving
Delta Z = sigma with Z(0) = |grad Z(0)| = 0, cubic-growth decay, and
vanishing degree-2 content at scale 1 decomposes as

    Z = q (ln|x| - 1/(n+2)) + |x|^2 sum_{k != 2} c_k sigma_k(x/|x|),

with q = (degree-2 component of sigma)/(n+2) and c_k = a_k/((n+k)(2-k)).
The -q/(n+2) term is what makes the scale-1 projection vanish (the ball
average of the Hessian of q ln|x| is 2A/(n+2)).  Projections then obey
Pi(Z, r) = q ln r, which is all the half-scale dynamics needs.

The full series is only materialized for n = 2, where the explicit closed
form is available as an oracle.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadratic import HarmonicQuadratic


@dataclass(frozen=True)
class PhiTerm:
    """One non-degree-2 harmonic term of the bounded part, c * trig(k theta)."""

    degree: int
    kind: str  # "cos" or "sin"
    coefficient: float


@dataclass(frozen=True)
class CorrectionDecomposition:
    """Log coefficient q and (optionally, n = 2) the bounded series."""

    n: int
    q: HarmonicQuadratic
    phi_terms: tuple = ()
    tail_bound: float = 0.0

    def to_json(self):
        return json.dumps(
            {
                "n": self.n,
                "q": json.loads(self.q.to_json()),
                "phi_terms": [
                    {"degree": t.degree, "kind": t.kind, "coefficient": t.coefficient}
                    for t in self.phi_terms
                ],
                "tail_bound": self.tail_bound,
            }
        )

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        return cls(
            n=int(obj["n"]),
            q=HarmonicQuadratic(
                int(obj["q"]["n"]),
                np.array(obj["q"]["coeff"]).reshape(obj["q"]["n"], obj["q"]["n"]),
            ),
            phi_terms=tuple(
                PhiTerm(int(t["degree"]), t["kind"], float(t["coefficient"]))
                for t in obj["phi_terms"]
            ),
            tail_bound=float(obj["tail_bound"]),
        )


def from_fourier_block(block):
    """Decomposition driven by the degree-2 block alone: q = block/(n+2)."""
    return CorrectionDecomposition(n=block.n, q=(1.0 / (block.n + 2)) * block)


def scale_projection(dec, r):
    """Degree-2 projection of the correction at scale r: q * ln(r).

    Zero at r = 1 by construction; doubling the scale shrinkage adds
    another q*ln(1/2).
    """
    if not (0.0 < r <= 1.0):
        raise DomainError("scale r must satisfy 0 < r <= 1")
    return math.log(r) * dec.q


def _positivity_arcs(p):
    """Arcs of {p > 0} on the circle for a trace-free 2x2 form."""
    a11 = p.coeff[0, 0]
    a12 = p.coeff[0, 1]
    radius = math.hypot(a11, a12)
    if radius == 0.0:
        return []
    phi0 = 0.5 * math.atan2(a12, a11)
    return [
        (phi0 - math.pi / 4.0, phi0 + math.pi / 4.0),
        (phi0 + 3.0 * math.pi / 4.0, phi0 + 5.0 * math.pi / 4.0),
    ]


def fourier_series_2d(p, max_degree):
    """Full circle expansion of -chi_{p>0} mapped into the decomposition.

    Coefficients are integrated arc-by-arc in closed form (the positivity
    set of a quadratic on the circle is a pair of antipodal arcs), the
    degree-2 pair becomes q and every other degree a bounded-part term
    with coefficient a_k/((n+k)(2-k)).  The truncation tail is estimated
    from the 1/k coefficient decay and reported.
    """
    if p.n != 2:
        raise DomainError("full series reconstruction is implemented for n = 2")
    if max_degree < 2:
        raise DomainError("max_degree must be >= 2")
    arcs = _positivity_arcs(p)

    def coef(kind, k):
        total = 0.0
        for lo, hi in arcs:
            if k == 0:
                total += hi - lo if kind == "cos" else 0.0
            elif kind == "cos":
                total += (math.sin(k * hi) - math.sin(k * lo)) / k
            else:
                total += (math.cos(k * lo) - math.cos(k * hi)) / k
        norm = 2.0 * math.pi if k == 0 else math.pi
        return -total / norm

    terms = []
    decay = 0.0
    q_mat = np.zeros((2, 2))
    for k in range(0, max_degree + 1):
        kinds = ("cos",) if k == 0 else ("cos", "sin")
        for kind in kinds:
            a_k = coef(kind, k)
            if k == 2:
                if kind == "cos":
                    q_mat += a_k * np.array([[1.0, 0.0], [0.0, -1.0]])
                else:
                    q_mat += a_k * np.array([[0.0, 1.0], [1.0, 0.0]])
                continue
            if k >= 3:
                decay = max(decay, abs(a_k) * k)
            if a_k != 0.0:
                terms.append(PhiTerm(k, kind, a_k / float((2 + k) * (2 - k))))
    tail = decay * sum(
        1.0 / (k * abs((2 + k) * (2 - k))) for k in range(max_degree + 1, 4000)
    )
    q = HarmonicQuadratic(2, q_mat / 4.0)
    return CorrectionDecomposition(n=2, q=q, phi_terms=tuple(terms), tail_bound=tail)


def reconstruct(dec, points):
    """Evaluate the truncated correction at points in the plane (n = 2)."""
    if dec.n != 2:
        raise DomainError("pointwise reconstruction is implemented for n = 2")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    x, y = pts[:, 0], pts[:, 1]
    r2 = x * x + y * y
    theta = np.arctan2(y, x)
    with np.errstate(divide="ignore"):
        log_r = np.where(r2 > 0.0, 0.5 * np.log(r2), 0.0)
    qvals = dec.q(pts)
    out = qvals * (log_r - 1.0 / (dec.n + 2))
    phi = np.zeros_like(r2)
    for term in dec.phi_terms:
        angle = term.degree * theta
        phi += term.coefficient * (np.cos(angle) if term.kind == "cos" else np.sin(angle))
    out += r2 * phi
    return np.where(r2 > 0.0, out, 0.0)


def _v_branch(a, b):
    """Closed-form quadrant solution on a > 0, b >= 0 (extends to b < 0)."""
    r2 = a * a + b * b
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r2 = np.where(r2 > 0.0, np.log(r2), 0.0)
    angle = 0.5 * math.pi - 2.0 * np.arctan2(b, a)
    return -4.0 * a * b * log_r2 + 2.0 * (a * a - b * b) * angle - math.pi * r2


def explicit_solution_2d(points, frame="rotated"):
    """The paper-independent oracle: closed-form correction in the plane.

    frame="rotated" solves Delta Z = -chi_{x1 x2 > 0}; frame="axis" rotates
    by 45 degrees so the source is -chi_{x1^2 - x2^2 > 0}.  The gluing of
    the quadrant branch is w = sign(ab) v(|a|, |b|), which is the C^1
    extension (the literal fourth-quadrant branch printed in the source
    formula breaks C^1 across the positive axis).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    single = np.asarray(points).ndim == 1
    if frame == "axis":
        mapped = np.empty_like(pts)
        mapped[:, 0] = (pts[:, 0] - pts[:, 1]) / math.sqrt(2.0)
        mapped[:, 1] = (pts[:, 0] + pts[:, 1]) / math.sqrt(2.0)
        pts = mapped
    elif frame != "rotated":
        raise DomainError("frame must be 'rotated' or 'axis'")
    a, b = pts[:, 0], pts[:, 1]
    w = np.sign(a * b) * _v_branch(np.abs(a), np.abs(b))
    r2 = a * a + b * b
    vals = (w - math.pi * r2 + 8.0 * a * b) / (8.0 * math.pi)
    vals = np.where(r2 > 0.0, vals, 0.0)
    return float(vals[0]) if single else vals
