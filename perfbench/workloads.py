"""The four benchmark workloads: seeded case selection, timed calls, checks.

Every workload is a closed loop with one caller.  A pass calls the package
once per base case, on one sibling of each; pass `p` uses sibling
`(offset + p) mod SIBLINGS`, so consecutive passes never repeat an input and
the lru caches see no hits a real caller would not get.  The seed picks each
base's sibling offset and the order of the base cases.

Each call is timed on its own, then its result is checked against the stored
reference; a call that raises or misses its reference is a failed operation.
Calls go through module attributes looked up at call time, so the tracer's
wrappers see them.
"""

import math
import os
import random
import resource
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class PassStats:
    """What one pass did: operations, failures, per-operation samples, work."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    samples_ms: list = field(default_factory=list)
    op_s: float = 0.0  # summed wall time of the package calls
    units: int = 0  # operations that count toward throughput
    work: dict = field(default_factory=dict)
    busy_s: float = 0.0  # child-process CPU time (sweep only)

    def add_work(self, key, value, seconds=None):
        self.work[key] = self.work.get(key, 0) + value
        if seconds is not None:
            self.work[key + ".s"] = self.work.get(key + ".s", 0.0) + seconds

    def fail(self, case_id, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{case_id}: {why}")


def _direct(fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _timed(stats, call, fn, *args, **kwargs):
    """Result and wall time of one package call; the time counts even if it raises."""
    t0 = time.perf_counter()
    try:
        out = call(fn, *args, **kwargs)
    finally:
        dt = time.perf_counter() - t0
        stats.op_s += dt
    return out, dt


class Workload:
    name = ""
    unit = ""  # what ops_per_s counts
    dist_name = ""  # name of the per-operation time distribution
    rates = {}  # workload-specific throughput name -> work key
    first_base = 0  # base case whose first sibling is the set-up operation

    def __init__(self, bl, refs, seed):
        self.bl = bl
        self.spec = refs[self.name]
        self.bases = self.spec["bases"]
        rng = random.Random(seed)
        self.offsets = [rng.randrange(len(sibs)) for sibs in self.bases]
        self.order = list(range(len(self.bases)))
        rng.shuffle(self.order)

    def case(self, base, position):
        sibs = self.bases[base]
        return sibs[(self.offsets[base] + position) % len(sibs)]

    def run_pass(self, position, call=_direct, **kw):
        stats = PassStats()
        for b in self.order:
            case = self.case(b, position)
            stats.attempted += 1
            try:
                self.run_case(case, stats, call, **kw)
            except Exception as exc:  # noqa: BLE001 - any error is a failed operation
                stats.fail(case["id"], f"{type(exc).__name__}: {exc}")
        return stats

    def first_op(self):
        """The set-up operation; its check result is left to the measured passes."""
        self.run_case(self.case(self.first_base, 0), PassStats(), _direct)

    def run_case(self, case, stats, call):
        raise NotImplementedError


def rate(stats, key):
    """Work of one kind per second of the calls that did it."""
    seconds = stats.work.get(key + ".s", 0.0)
    return stats.work.get(key, 0) / seconds if seconds > 0 else 0.0


class Trajectory(Workload):
    name = "trajectory"
    unit = "steps"
    dist_name = "step_ms"
    rates = {"steps_per_s": "steps"}

    def run_case(self, case, stats, call):
        renorm = self.bl.renorm
        cfg = renorm.MapConfig(
            n=case["n"],
            order=self.spec["order"],
            noise=case["noise"],
            c_noise=case["c_noise"],
            seed=case["noise_seed"],
        )
        state = self.bl.quadratic.DeltaState(
            n=case["n"], tau=case["tau0"], delta=np.array(case["delta0"])
        )
        rec, dt = _timed(
            stats, call, renorm.iterate, state, cfg, self.spec["max_steps"],
            record_monotonicity=case["monotonicity"],
        )
        ref = case["ref"]
        cls = rec.classification
        steps = len(rec.steps) - 1
        stats.samples_ms.append(1e3 * dt / max(steps, 1))
        stats.add_work("iterate." + cls.kind, 1)
        gap = float(np.abs(rec.steps[-1].delta - np.array(ref["final_delta"])).max())
        if cls.kind != ref["kind"] or cls.step != ref["step"]:
            stats.fail(case["id"], f"{cls.kind}@{cls.step}, reference {ref['kind']}@{ref['step']}")
        elif gap > self.spec["delta_atol"]:
            stats.fail(case["id"], f"final delta off by {gap:.2e}")
        else:
            stats.units += steps
            stats.add_work("steps", steps, dt)


class MomentsHighdim(Workload):
    name = "moments_highdim"
    unit = "moment sets"
    dist_name = "moment_set_ms"
    rates = {"moment_sets_per_s": "moment_sets"}

    def run_case(self, case, stats, call):
        n = case["n"]
        m, dt = _timed(
            stats, call, self.bl.moments.compute_moments, np.array(case["delta"]), n, case["order"]
        )
        stats.samples_ms.append(1e3 * dt)
        got = np.array([m.B, *m.B_i])
        ref = np.array(case["ref_columns"])
        err = float(np.abs(got - ref).max() / np.abs(ref).max())
        stats.work[f"max_rel_err.n{n}"] = max(stats.work.get(f"max_rel_err.n{n}", 0.0), err)
        if err > case["rtol"]:
            stats.fail(case["id"], f"relative error {err:.2e} > {case['rtol']:g}")
        else:
            stats.units += 1
            stats.add_work("moment_sets", 1, dt)


def _sample_2d(bl, case):
    p0 = bl.quadratic.make_p_delta(2, np.zeros(0))
    tau = case["tau"]

    def u(pts):
        quad = tau * np.einsum("ij,pi,pj->p", p0.coeff, pts, pts)
        return quad + bl.correction.explicit_solution_2d(pts, frame="axis")

    h = case["h"]
    return bl.gridproj.SampledField.from_function(u, 2, h, case["r"] + 5 * h)


def _sample_3d(bl, case):
    p = bl.quadratic.make_p_delta(3, np.array(case["delta"]))
    tau = case["tau"]
    h = case["h"]
    return bl.gridproj.SampledField.from_function(lambda x: tau * p(x), 3, h, case["r"] + 5 * h)


class Crosscheck(Workload):
    name = "crosscheck"
    unit = "checks"
    dist_name = "check_ms"
    rates = {"mc_samples_per_s": "mc_samples", "grid_points_per_s": "grid_points"}
    first_base = 3  # the n = 4 Monte Carlo case

    def __init__(self, bl, refs, seed):
        super().__init__(bl, refs, seed)
        # Sampling the grid fields is input generation: done here, never timed.
        samplers = {"grid2d": _sample_2d, "grid3d": _sample_3d}
        self.fields = {
            case["id"]: samplers[case["kind"]](bl, case)
            for sibs in self.bases for case in sibs if case["kind"] in samplers
        }

    def run_case(self, case, stats, call):
        if case["kind"] == "mc":
            self._mc(case, stats, call)
        else:
            self._grid(case, stats, call)

    def _mc(self, case, stats, call):
        (b_est, bi_est), dt = _timed(
            stats, call, self.bl.moments.mc_moment_check,
            np.array(case["delta"]), case["n"], case["samples"], case["seed"],
        )
        stats.samples_ms.append(1e3 * dt)
        ests = [b_est, *bi_est]
        z = max(abs(e.value - r) / e.std_error for e, r in zip(ests, case["ref_columns"]))
        stats.work["max_z"] = max(stats.work.get("max_z", 0.0), z)
        if z > case["z_max"]:
            stats.fail(case["id"], f"|z| {z:.2f} > {case['z_max']:g}")
        else:
            stats.units += 1
            stats.add_work("mc_samples", case["samples"], dt)

    def _grid(self, case, stats, call):
        fld = self.fields[case["id"]]
        (ra, rb), dt = _timed(stats, call, self.bl.gridproj.half_step_empirical, fld, case["r"])
        stats.samples_ms.append(1e3 * dt)
        if case["kind"] == "grid2d":
            err = float(np.abs((rb.raw - ra.raw).coeff - np.array(case["target_increment"])).max())
            tol = case["atol"]
        else:
            target = case["tau"] * self.bl.quadratic.make_p_delta(3, np.array(case["delta"])).coeff
            err = max(float(np.abs(r.raw.coeff - target).max()) for r in (ra, rb))
            tol = case["rtol"] * case["tau"]
        stats.work["max_grid_err." + case["kind"]] = max(
            stats.work.get("max_grid_err." + case["kind"], 0.0), err
        )
        if err > tol:
            stats.fail(case["id"], f"grid error {err:.2e} > {tol:g}")
        else:
            stats.units += 1
            stats.add_work("grid_points", ra.points_used + rb.points_used, dt)


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Sweep(Workload):
    name = "sweep"
    unit = "cells"
    dist_name = "cell_ms"
    rates = {"cells_per_s": "cells", "steps_per_s": "steps"}
    workers = len(os.sched_getaffinity(0))  # nproc

    def run_case(self, case, stats, call, workers=None):
        renorm = self.bl.renorm
        workers = workers or self.workers
        cfg = renorm.MapConfig(n=self.spec["n"], order=self.spec["order"])
        cpu0 = _children_cpu()
        rows, dt = _timed(
            stats, call, renorm.sweep, case["tau0"], case["delta0"], cfg, self.spec["max_steps"],
            workers=workers,
        )
        if workers > 1:
            stats.busy_s += _children_cpu() - cpu0
        cells = len(rows)
        stats.samples_ms.append(1e3 * dt / max(cells, 1))
        misses = [] if cells == len(case["ref_rows"]) else [
            f"{cells} rows, reference {len(case['ref_rows'])}"]
        for i, (row, ref) in enumerate(zip(rows, case["ref_rows"])):
            if row["classification"] != ref["classification"] or row["step"] != ref["step"]:
                misses.append(f"cell {i}: {row['classification']}@{row['step']}, "
                              f"reference {ref['classification']}@{ref['step']}")
            elif (abs(row["final_tau"] - ref["final_tau"]) > self.spec["tau_rtol"] * ref["final_tau"]
                  or abs(row["final_ratio"] - ref["final_ratio"]) > self.spec["ratio_atol"]):
                misses.append(f"cell {i}: final state off the reference")
            stats.add_work("sweep." + row["classification"], 1)
        if misses:  # the sweep call is one operation, failed once however many cells miss
            stats.fail(case["id"], f"{len(misses)} misses, first {misses[0]}")
        else:
            stats.units += cells
            stats.add_work("cells", cells, dt)
            stats.add_work("steps", sum(r["step"] for r in rows), dt)


WORKLOADS = {w.name: w for w in (Trajectory, MomentsHighdim, Crosscheck, Sweep)}


def make(name, bl, refs, seed):
    return WORKLOADS[name](bl, refs, seed)


def merge(passes):
    """Sum a list of PassStats into one."""
    total = PassStats()
    for s in passes:
        total.attempted += s.attempted
        total.failed += s.failed
        total.failures.extend(s.failures[: max(0, 20 - len(total.failures))])
        total.samples_ms.extend(s.samples_ms)
        total.op_s += s.op_s
        total.units += s.units
        total.busy_s += s.busy_s
        for k, v in s.work.items():
            if k.startswith("max_"):
                total.work[k] = max(total.work.get(k, 0.0), v)
            else:
                total.work[k] = total.work.get(k, 0) + v
    return total


def percentile(samples, q):
    """The q-th percentile (0-100) by linear interpolation between order statistics."""
    xs = sorted(samples)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
