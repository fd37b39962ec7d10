"""Acceptance criteria suite.

Each criterion is a function returning a CriterionResult; `run_all` powers
both the pytest acceptance module and the `verify` CLI subcommand.  Every
tolerance is fixed here; criteria that fail do so honestly (see the
detail strings for the measured values).

To add a criterion, define a function that returns `(passed, detail)` and
decorate it with `@_criterion(key, name, tags)`: that registers it in
`CRITERIA` (in definition order, which is `run_all`'s order) and makes the
call return a timed `CriterionResult` named `"{key} {name}"`.  `--filter`
matches the key, the tags and the first docstring line.
"""

import functools
import math
import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import correction, gridproj, moments, renorm, sphere
from .quadratic import DeltaState, make_p_delta

LN2_OVER_2PI = math.log(2.0) / (2.0 * math.pi)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0


CRITERIA = {}


def _criterion(key, name, tags):
    """Register a criterion returning (passed, detail) as `CRITERIA[key]`.

    The registered function times the call and returns the CriterionResult
    named `"{key} {name}"`; `tags` are extra words for `run_all`'s filter.
    """

    def register(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.time()
            passed, detail = fn(*args, **kwargs)
            return CriterionResult(f"{key} {name}", bool(passed), detail, time.time() - t0)

        timed.tags = tags
        CRITERIA[key] = timed
        return timed

    return register


def _seed(label):
    return zlib.crc32(label.encode("utf-8"))


@_criterion("A1", "surface measure", "surface measure weights")
def a1_surface_measure(order=16):
    """Sum of product-rule weights equals |S^{n-1}| to 1e-10 for n = 2..6."""
    worst = 0.0
    for n in range(2, 7):
        rule = sphere.build_rule(n, order)
        rel = abs(rule.weights().sum() / sphere.surface_area(n) - 1.0)
        worst = max(worst, rel)
    return worst <= 1e-10, f"max rel err {worst:.2e} (tol 1e-10)"


@_criterion("A2", "zero-delta moments", "zero-delta moments baseline")
def a2_zero_delta_moments():
    """B(0) = -omega/2, B_i(0) = -omega/(2n) for i <= n-2, and the n^2 B_i - n B = 0 claim."""
    worst_b = worst_bi = worst_claim = 0.0
    for n in range(2, 7):
        omega = sphere.surface_area(n)
        b0, bi0 = moments.analytic_baseline(n)
        m = moments.compute_moments(np.zeros(n - 2), n)
        worst_b = max(worst_b, abs(m.B / b0 - 1.0))
        for i in range(n - 2):
            worst_bi = max(worst_bi, abs(m.B_i[i] / bi0[i] - 1.0))
            worst_claim = max(
                worst_claim, abs(n * n * m.B_i[i] - n * m.B) / omega
            )
    ok = worst_b <= 1e-8 and worst_bi <= 1e-8 and worst_claim <= 1e-8
    return ok, f"rel err B {worst_b:.2e}, B_i {worst_bi:.2e}, claim {worst_claim:.2e} (tol 1e-8)"


@_criterion("A3", "2-D oracle", "fourier2d oracle reconstruction projection")
def a3_two_dimensional_oracle(max_degree=40, n_points=100):
    """Degree-40 reconstruction vs the closed form, and the r = 1/2 projection."""
    p_rot = np.array([[0.0, 0.5], [0.5, 0.0]])
    from .quadratic import HarmonicQuadratic

    dec = correction.fourier_series_2d(HarmonicQuadratic(2, p_rot), max_degree)
    rng = sphere.philox(_seed("a3-points"))
    angles = rng.uniform(0.0, 2.0 * math.pi, n_points)
    radii = np.sqrt(rng.uniform(0.0, 1.0, n_points))
    radii = np.maximum(radii, 1e-3)
    pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    recon_err = float(
        np.abs(correction.reconstruct(dec, pts) - correction.explicit_solution_2d(pts)).max()
    )

    proj = correction.scale_projection(dec, 0.5)
    err_rot = abs(proj.coeff[0, 1] - LN2_OVER_2PI) + abs(proj.coeff[0, 0])

    m0 = moments.compute_moments(np.zeros(0), 2)
    dec_axis = correction.from_fourier_block(moments.fourier_block2(m0))
    proj_axis = correction.scale_projection(dec_axis, 0.5)
    err_axis = abs(proj_axis.coeff[0, 0] - LN2_OVER_2PI) + abs(proj_axis.coeff[0, 1])

    ok = recon_err <= 1e-5 and err_rot <= 1e-6 and err_axis <= 1e-6
    return (
        ok,
        f"recon max err {recon_err:.2e} (tol 1e-5, truncation tail bound "
        f"{dec.tail_bound:.1e}); proj err rotated {err_rot:.1e}, axis {err_axis:.1e} (tol 1e-6)",
    )


SCALING_BRACKET = (1.0, 6.0)


@_criterion("A4", "increment scaling", "scaling monotonicity increments")
def a4_increment_scaling():
    """C_i scaling bracket and drift, plus ordering monotonicity on random delta."""
    ratios = {}
    for n in (3, 4):
        for s in (1e-3, 1e-4, 1e-5):
            d = np.zeros(n - 2)
            d[0] = s
            m = moments.compute_moments(d, n)
            ratios[(n, s)] = float(np.abs(m.C_i).sum() / (s * abs(math.log(s))))
    in_bracket = all(SCALING_BRACKET[0] <= r <= SCALING_BRACKET[1] for r in ratios.values())
    drift_ok = True
    for n in (3, 4):
        for s_hi, s_lo in ((1e-3, 1e-4), (1e-4, 1e-5)):
            drift = abs(ratios[(n, s_lo)] / ratios[(n, s_hi)] - 1.0)
            drift_ok = drift_ok and drift < 0.25

    rng = sphere.philox(_seed("a4-monotonicity"))
    mono_ok = True
    n = 4
    for _ in range(100):
        d = rng.uniform(-1.0, 1.0, n - 2)
        d *= rng.uniform(0.2, 1.0) * 1e-2 / np.linalg.norm(d)
        m = moments.compute_moments(d, n)
        for i in range(n - 2):
            for j in range(n - 2):
                if d[i] > d[j] and not (m.C_i[i] < m.C_i[j]):
                    mono_ok = False
    ok = in_bracket and drift_ok and mono_ok
    rspan = (min(ratios.values()), max(ratios.values()))
    return (
        ok,
        f"ratios in [{rspan[0]:.3f}, {rspan[1]:.3f}] (bracket {SCALING_BRACKET}), "
        f"drift ok {drift_ok}, monotonicity ok {mono_ok}",
    )


@_criterion("A5", "quartic moment matrix", "quartic matrix spectrum")
def a5_quartic_matrix():
    """Quartic moment matrix equals lambda1 I + lambda2 J with its eigensystem."""
    worst = 0.0
    eig_ok = True
    for n in (4, 5, 6):
        lam1, lam2 = moments.quartic_moment_eigenvalues(n)
        mat = moments.quartic_moment_matrix(n)
        d = n - 2
        target = lam1 * np.eye(d) + lam2 * np.ones((d, d))
        worst = max(worst, float(np.abs(mat - target).max()))
        ones = np.ones(d)
        eig_ok = eig_ok and np.allclose(
            mat @ ones, (lam1 + d * lam2) * ones, atol=1e-8, rtol=0.0
        )
        for j in range(1, d):
            v = np.zeros(d)
            v[0], v[j] = 1.0, -1.0
            eig_ok = eig_ok and np.allclose(mat @ v, lam1 * v, atol=1e-8, rtol=0.0)
    ok = worst <= 1e-8 and eig_ok
    return ok, f"max entry err {worst:.2e} (tol 1e-8), eigenvector checks {eig_ok}"


@_criterion("A6", "inner-slab asymptotic", "inner-slab asymptotic")
def a6_inner_slab(mu=0.1):
    """Inner-slab numeric vs leading asymptotic at kappa = 1e-4, 1e-6."""
    r4 = moments.inner_slab_integral(1e-4, mu)
    r6 = moments.inner_slab_integral(1e-6, mu)
    q4 = r4.numeric / r4.asymptotic
    q6 = r6.numeric / r6.asymptotic
    bracket_ok = 0.85 <= q4 <= 1.15 and 0.85 <= q6 <= 1.15
    improving = abs(q6 - 1.0) < abs(q4 - 1.0)
    ok = bracket_ok and improving
    return (
        ok,
        f"ratio {q4:.4f} at kappa=1e-4, {q6:.4f} at 1e-6 (bracket [0.85, 1.15]); "
        f"improving {improving}",
    )


@_criterion("A7", "fixed point", "fixed point tau increment")
def a7_fixed_point():
    """delta = 0 invariance and the per-step tau increment ln2/(2 pi) for n = 2..5."""
    worst_incr = worst_delta = 0.0
    for n in (2, 3, 4, 5):
        cfg = renorm.MapConfig(n=n, C_gamma=0.0)
        for tau in (10.0, 100.0):
            state = DeltaState(n=n, tau=tau, delta=np.zeros(n - 2))
            new = renorm.half_step(state, cfg)
            worst_incr = max(worst_incr, abs(new.tau - tau - LN2_OVER_2PI))
            if n > 2:
                worst_delta = max(worst_delta, float(np.abs(new.delta).max()))
    ok = worst_incr <= 1e-4 and worst_delta <= 1e-10
    return (
        ok,
        f"max |incr - ln2/(2pi)| {worst_incr:.2e} (tol 1e-4), max |delta'| "
        f"{worst_delta:.2e} (tol 1e-10)",
    )


@_criterion("A8", "dichotomy", "dichotomy convergence escape")
def a8_dichotomy(gamma=0.1, max_steps=200):
    """Convergence below the calibrated threshold, escape with growing ratio above."""
    t0 = time.time()  # for the 300 s cap
    n = 4
    cfg = renorm.MapConfig(n=n, gamma=gamma)
    c_gamma = cfg.effective_C_gamma()

    delta0 = np.zeros(n - 2)
    delta0[0] = 0.5 * c_gamma * 10.0 ** (-gamma)
    rec_a = renorm.iterate(DeltaState(n=n, tau=10.0, delta=delta0), cfg, max_steps)
    a_ok = rec_a.classification.kind == "converged"
    fitted = rec_a.classification.fitted_C
    a_ok = a_ok and fitted is not None and np.isfinite(fitted)

    rec_b = renorm.iterate(
        DeltaState(n=n, tau=10.0, delta=np.array([0.05, 0.0])),
        cfg,
        max_steps + 50,
        record_monotonicity=True,
    )
    ratios = [r.ratio for r in rec_b.steps]
    strictly_up = all(b > a for a, b in zip(ratios, ratios[1:]))
    claims = all(m.deltajclaim_holds for m in rec_b.monotonicity)
    b_ok = rec_b.classification.kind == "escaped" and strictly_up and claims

    elapsed = time.time() - t0
    ok = a_ok and b_ok and elapsed <= 300.0
    return (
        ok,
        f"(a) {rec_a.classification.kind} at calibrated C_gamma={c_gamma:g}, fitted C "
        f"{fitted:.3g}; (b) {rec_b.classification.kind} at step "
        f"{rec_b.classification.step}, ratio strictly increasing {strictly_up}, "
        f"growth predicate {claims}; runtime {elapsed:.0f}s (cap 300s)",
    )


@_criterion("A9", "grid-vs-analytic", "grid projection refinement")
def a9_grid_consistency():
    """Grid half-step against the analytic correction projection."""
    p0 = make_p_delta(2, np.zeros(0))
    target = np.diag([LN2_OVER_2PI, -LN2_OVER_2PI])

    def u(pts):
        quad = 10.0 * np.einsum("ij,pi,pj->p", p0.coeff, pts, pts)
        return quad + correction.explicit_solution_2d(pts, frame="axis")

    errs = {}
    for h in (1 / 32, 1 / 64, 1 / 128, 1 / 256):
        fld = gridproj.SampledField.from_function(u, 2, h, 1.0 + 5 * h)
        ra, rb = gridproj.half_step_empirical(fld, 1.0)
        errs[h] = float(np.abs((rb.raw - ra.raw).coeff - target).max())
    final_ok = errs[1 / 256] <= 1e-3
    hs = sorted(errs)
    slope = float(
        np.polyfit(np.log(hs), np.log([max(errs[h], 1e-16) for h in hs]), 1)[0]
    )
    order_ok = slope >= 1.7
    ok = final_ok and order_ok
    return (
        ok,
        f"err(h=1/256) {errs[1/256]:.2e} (tol 1e-3); fitted refinement order "
        f"{slope:.2f} (needs >= 1.7 for O(h^2); 0/1 cell weighting caps it, see ledger)",
    )


@_criterion("A10", "oracle agreement", "monte carlo oracle agreement")
def a10_oracle_agreement(samples=10**6):
    """Every quadrature moment used in A2/A4/A7 vs Monte Carlo within 3 sigma."""
    configs = [(n, np.zeros(n - 2)) for n in range(2, 7)]
    for n in (3, 4):
        for s in (1e-3, 1e-4, 1e-5):
            d = np.zeros(n - 2)
            d[0] = s
            configs.append((n, d))
    worst_z = 0.0
    for n, d in configs:
        m = moments.compute_moments(d, n)
        label = f"a10-{n}-{d.tobytes().hex()}"
        estimates = moments.mc_moment_check(d, n, samples, _seed(label))
        worst_z = max(worst_z, moments.mc_max_abs_z(m, *estimates))
    ok = worst_z <= 3.0
    return (
        ok,
        f"max |z| {worst_z:.2f} over {len(configs)} moment sets (tol 3 sigma, "
        f"{samples} samples)",
    )


def run_all(name_filter=None):
    results = []
    for key, fn in CRITERIA.items():
        doc = fn.__doc__.splitlines()[0] if fn.__doc__ else ""
        label = f"{key} {fn.tags} {doc}"
        if name_filter and name_filter.lower() not in label.lower():
            continue
        results.append(fn())
    return results
