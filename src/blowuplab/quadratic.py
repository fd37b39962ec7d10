"""Algebra of harmonic (trace-free) quadratic forms and their normal form.

A form is p(x) = x^T A x with symmetric trace-free A.  The normal form used
by the dynamics is

    p_delta(x) = delta_1 x_1^2 + ... + delta_{n-2} x_{n-2}^2
                 + (1 - sum(delta)) x_{n-1}^2 - x_n^2,

reached by eigen-decomposition, a deterministic ordering convention and
scaling the most negative coefficient to -1.
"""

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegeneracyError, DomainError

_TRACE_TOL = 1e-12
_SYM_TOL = 1e-12
_ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class HarmonicQuadratic:
    """Homogeneous degree-2 polynomial with zero Laplacian."""

    n: int
    coeff: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.coeff, dtype=np.float64)
        if a.shape != (self.n, self.n):
            raise DomainError(f"coefficient matrix must be {self.n}x{self.n}")
        # each test is written so that NaN fails it
        scale = 1.0 + np.abs(a).max()
        if not scale < np.inf:
            raise DomainError("coefficient matrix must be finite")
        if not np.abs(a - a.T).max() <= _SYM_TOL * scale:
            raise DomainError("coefficient matrix must be symmetric")
        if not abs(np.trace(a)) <= _TRACE_TOL * scale:
            raise DomainError("coefficient matrix must be trace-free (harmonic)")
        object.__setattr__(self, "coeff", a)

    @classmethod
    def from_matrix(cls, m):
        """Symmetrize and remove the trace, then wrap."""
        a = np.asarray(m, dtype=np.float64)
        a = 0.5 * (a + a.T)
        a = a - (np.trace(a) / a.shape[0]) * np.eye(a.shape[0])
        return cls(a.shape[0], a)

    @classmethod
    def zero(cls, n):
        return cls(n, np.zeros((n, n)))

    def __call__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        vals = np.einsum("ij,pi,pj->p", self.coeff, pts, pts)
        return float(vals[0]) if single else vals

    def diagonal(self):
        return np.diag(self.coeff).copy()

    def is_diagonal(self):
        off = self.coeff - np.diag(np.diag(self.coeff))
        return np.abs(off).max() <= 1e-12 * (1.0 + np.abs(self.coeff).max())

    def sup_norm_ball(self):
        """sup over the closed unit ball; equals the largest |eigenvalue|."""
        return float(np.abs(np.linalg.eigvalsh(self.coeff)).max())

    def __add__(self, other):
        return HarmonicQuadratic(self.n, self.coeff + other.coeff)

    def __sub__(self, other):
        return HarmonicQuadratic(self.n, self.coeff - other.coeff)

    def __mul__(self, scalar):
        return HarmonicQuadratic(self.n, self.coeff * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return HarmonicQuadratic(self.n, -self.coeff)

    def rotated(self, q_mat):
        """The form x -> p(Q^T x)."""
        q_mat = np.asarray(q_mat, dtype=np.float64)
        return HarmonicQuadratic(self.n, q_mat @ self.coeff @ q_mat.T)

    def to_json(self):
        return json.dumps({"n": self.n, "coeff": self.coeff.ravel().tolist()})

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        n = int(obj["n"])
        return cls(n, np.array(obj["coeff"], dtype=np.float64).reshape(n, n))


@dataclass
class DeltaState:
    """Normal-form state (tau, delta) with the rotation back to ambient frame.

    The represented polynomial is tau * p_delta(Q^T x).  `delta` entries are
    kept in ascending order by the diagonalization convention.  Whether the
    state lies in the small-delta ball is a question for the map
    (`MapConfig.in_ball`), not for the state; its start is `check_start`'s.
    """

    n: int
    tau: float
    delta: np.ndarray
    Q: np.ndarray = None
    consistency_defect: float = 0.0

    def __post_init__(self):
        _, self.delta = check_start(self.n, self.tau, np.atleast_1d(self.delta))
        if self.Q is None:
            self.Q = np.eye(self.n)
        self.Q = np.asarray(self.Q, dtype=np.float64)
        if self.Q.shape != (self.n, self.n):
            raise DomainError(f"Q must be {self.n}x{self.n}")
        # a step's new frame permutes and signs Q's columns, exactly, so a
        # frame checked here stays orthonormal; NaN fails too
        if not np.abs(self.Q @ self.Q.T - np.eye(self.n)).max() <= _ORTHO_TOL:
            raise DomainError("Q must be orthogonal")

    @property
    def delta_tilde(self):
        """Recomputed sum of delta entries (never cached)."""
        return float(self.delta.sum())

    def ratio(self):
        """max(delta) / (1 - delta_tilde); 0 for n = 2."""
        return float(delta_ratios(self.delta[None])[0])

    def polynomial(self):
        base = np.diag(self.tau * normal_form_diagonal(self.delta))
        return HarmonicQuadratic.from_matrix(self.Q @ base @ self.Q.T)

    def to_json(self):
        return json.dumps(
            {
                "n": self.n,
                "tau": self.tau,
                "delta": self.delta.tolist(),
                "Q": self.Q.ravel().tolist(),
            }
        )

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        n = int(obj["n"])
        q_mat = np.array(obj["Q"], dtype=np.float64)
        return cls(
            n=n,
            tau=float(obj["tau"]),
            delta=np.array(obj["delta"], dtype=np.float64),
            # a wrong entry count is left unshaped for the shape check
            Q=q_mat.reshape(n, n) if q_mat.size == n * n else q_mat,
        )


def check_start(n, tau, delta):
    """A run's start, tau (...) and delta (..., n-2), checked and as float64 arrays.

    The one test of a start, `DeltaState`'s and `renorm.sweep`'s: tau must be
    finite and > 0, delta finite with n-2 entries a row; DomainError otherwise.
    """
    tau = np.asarray(tau, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != tau.shape + (n - 2,) or not np.isfinite(delta).all():
        raise DomainError(f"delta must have length n-2 = {n - 2} and finite entries")
    if not ((0.0 < tau) & (tau < np.inf)).all():
        raise DomainError("tau must be positive and finite")
    return tau, delta


def normal_form_diagonal(delta):
    """The diagonal (delta_1..delta_{n-2}, 1 - sum(delta), -1) of p_delta.

    `delta` may be a stack (..., n-2); the result is then (..., n).
    """
    out = np.empty(delta.shape[:-1] + (delta.shape[-1] + 2,))
    out[..., :-2] = delta
    out[..., -2] = 1.0 - delta.sum(axis=-1)
    out[..., -1] = -1.0
    return out


def delta_norms(delta):
    """|delta| of one delta (n-2,) or of each row of a stack (..., n-2).

    The dot product is BLAS's, the one np.linalg.norm takes for a single
    vector, so a row's norm is bit for bit that of its own
    `np.linalg.norm`; a sum of squares can differ from it in the last bit.
    """
    delta = np.asarray(delta, dtype=np.float64)
    return np.sqrt((delta[..., None, :] @ delta[..., :, None])[..., 0, 0])


def delta_ratios(delta):
    """max(delta) / (1 - sum(delta)) of each row of a stack (B, n-2); 0 for n = 2."""
    if delta.shape[1] == 0:
        return np.zeros(delta.shape[0])
    return delta.max(axis=1) / (1.0 - delta.sum(axis=1))


@lru_cache(maxsize=64)
def _axis_order(n):
    """Normal-form axes of ascending values: the middle ones, then the largest, then the most negative."""
    order = np.array(list(range(1, n - 1)) + [n - 1, 0])
    order.setflags(write=False)  # cached and shared
    return order


def make_p_delta(n, delta):
    """The normal form diag(delta_1..delta_{n-2}, 1 - sum(delta), -1)."""
    delta = np.atleast_1d(np.asarray(delta, dtype=np.float64))
    if n < 2:
        raise DomainError("n must be >= 2")
    if delta.shape != (n - 2,):
        raise DomainError(f"delta must have length n-2 = {n - 2}, got {delta.shape}")
    return HarmonicQuadratic(n, np.diag(normal_form_diagonal(delta)))


def sup_norm_ball(q):
    """sup_{|x| <= 1} |q(x)| = max |eigenvalue|."""
    return q.sup_norm_ball()


def _order_ties(eigvals, eigvecs):
    """Deterministic ordering within (numerically) equal eigenvalue groups.

    Within a group, sort by descending coordinate index of the dominant
    eigenvector component; always make the dominant component positive.
    """
    n = eigvals.shape[0]
    scale = max(np.abs(eigvals).max(), 1e-300)
    order = list(range(n))
    i = 0
    while i < n:
        j = i + 1
        while j < n and abs(eigvals[order[j]] - eigvals[order[i]]) <= 1e-13 * scale:
            j += 1
        if j - i > 1:
            group = order[i:j]
            group.sort(key=lambda k: -int(np.argmax(np.abs(eigvecs[:, k]))))
            order[i:j] = group
        i = j
    vecs = eigvecs[:, order].copy()
    for k in range(n):
        dom = np.argmax(np.abs(vecs[:, k]))
        if vecs[dom, k] < 0:
            vecs[:, k] = -vecs[:, k]
    return eigvals[order], vecs


def normal_forms(values):
    """Normal forms tau * p_delta of a stack of diagonal forms, from their values.

    `values` (B, n) holds each form's values, ascending.  They are not
    re-sorted, so the caller's order within ties stands.  Values are
    assigned: most negative to axis n, largest to axis n-1, the remaining
    ones in the given order on axes 1..n-2 (`normal_frame` moves a frame's
    columns the same way).

    Returns tau (B,), delta (B, n-2), the consistency defect (B,) and a dict
    mapping each row with no strictly negative value to scale to -1 to the
    DegeneracyError `normal_form` raises for it.  Such a row's entries are
    meaningless.
    """
    n = values.shape[1]
    tau = -values[:, 0]
    failed = {}
    degenerate = values[:, 0] >= 0.0
    if degenerate.any():
        failed = {
            j: DegeneracyError("no strictly negative eigenvalue; p_delta needs -1 on x_n")
            for j in np.flatnonzero(degenerate).tolist()
        }
        tau = np.where(degenerate, 1.0, tau)  # keeps the division below quiet
    vals = values[:, _axis_order(n)]
    delta = vals[:, : n - 2] / tau[:, None]
    defect = np.abs(vals[:, n - 2] / tau - (1.0 - delta.sum(axis=1)))
    return tau, delta, defect, failed


def normal_frame(vecs):
    """The frame of a normal form whose values lie, ascending, on the
    orthonormal columns of `vecs` (n, n): the columns in `normal_forms`'
    axis order, the last one's sign making the frame a rotation."""
    vecs = vecs[:, _axis_order(vecs.shape[0])]
    if np.linalg.det(vecs) < 0:
        vecs[:, -1] = -vecs[:, -1]
    return vecs


def normal_form(eigvals, eigvecs):
    """The state tau * p_delta of the form with values `eigvals`, ascending,
    on the orthonormal columns of `eigvecs`: `normal_forms` and
    `normal_frame` for one form.

    Raises DegeneracyError when there is no strictly negative value to
    scale to -1, and DomainError when the frame is not orthogonal.
    """
    tau, delta, defect, failed = normal_forms(eigvals[None])
    if failed:
        raise failed[0]
    return DeltaState(
        n=eigvals.shape[0],
        tau=float(tau[0]),
        delta=delta[0],
        Q=normal_frame(eigvecs),
        consistency_defect=float(defect[0]),
    )


def diagonalize(q):
    """Bring a trace-free form to the normal form tau * p_delta in a rotated frame.

    The eigendecomposition, with `_order_ties` fixing the basis within
    equal eigenvalues, feeds `normal_form`, which sets the axis convention.
    Raises DegeneracyError for the zero form and when there is no strictly
    negative eigenvalue to scale to -1.
    """
    if np.abs(q.coeff).max() == 0.0:
        raise DegeneracyError("cannot normalize the zero form")
    eigvals, eigvecs = _order_ties(*np.linalg.eigh(q.coeff))
    return normal_form(eigvals, eigvecs)
