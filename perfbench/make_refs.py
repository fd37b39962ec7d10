#!/usr/bin/env python3
"""Build perfbench/refs.json: the committed case pools and their references.

    python3 perfbench/make_refs.py [workload ...]   # all: about five minutes

Each workload has base cases; each base case has SIBLINGS variants whose
inputs are shifted by a fraction of a percent, so they cost nearly the same
but are distinct inputs with their own stored reference.  A run's seed picks
which sibling of every base case comes first and the order of the base
cases; `run.py` never computes a reference itself, so a run on any seed is
checked as strictly as any other.

References are computed at a higher order than the benchmark runs at and
stored with that order.  The script also prints, for every case, how far the
benchmark's own order lands from the reference; it drops nothing.
"""

import json
import math
import sys
import time

from common import REFS, import_package, pin_threads

SIBLINGS = 4

TRAJECTORY_STEPS = 24
TRAJECTORY_ORDER = 64  # MapConfig's default order
TRAJECTORY_REF_ORDER = 128
# README: n = 3, 4 moments are accurate to ~1e-13 relative at every order >= 24;
# over 24 half-steps the unstable delta direction amplifies an error by at
# most ~150x (measured 1e-6 -> 1.4e-4 over 60 steps), so 1e-10 absolute on
# the final delta keeps a 10x margin over 1e-13 * 150 * |delta| <= 0.2.
TRAJECTORY_DELTA_ATOL = 1e-10

MC_SAMPLES = 200_000
MC_Z_MAX = 3.0  # A10's criterion

GRID_2D_H = 1.0 / 256.0
GRID_2D_ATOL = 1e-3  # A9's accuracy cap at h = 1/256
GRID_3D_H = 1.0 / 32.0
GRID_3D_RTOL = 1e-10  # finite differences are exact on quadratics up to rounding

SWEEP_STEPS = 24
SWEEP_ORDER = 64
SWEEP_REF_ORDER = 128
SWEEP_RATIO_ATOL = 1e-10
SWEEP_TAU_RTOL = 1e-12


# (n, tau0, delta0, noise, c_noise, record_monotonicity); mostly n = 4 as in
# the CLI and A8, with a random-noise share and a monotonicity share, and
# initial states chosen so that converged, escaped and exhausted all occur.
TRAJECTORY_BASES = [
    (4, 10.0, (0.0, 0.0), "off", 0.0, False),
    (4, 30.0, (0.0, 0.0), "off", 0.0, False),
    (4, 5.0, (0.18, 0.0), "off", 0.0, False),
    (4, 10.0, (0.17, 0.0), "off", 0.0, False),
    (4, 5.0, (-0.17, 0.0), "off", 0.0, False),
    (4, 5.0, (-0.15, 0.0), "off", 0.0, False),
    (4, 10.0, (0.19, 0.0), "off", 0.0, False),
    (4, 10.0, (1e-3, 0.0), "off", 0.0, False),
    (4, 10.0, (0.01, -0.005), "off", 0.0, False),
    (4, 30.0, (-0.02, 0.01), "off", 0.0, False),
    (4, 10.0, (0.05, 0.02), "off", 0.0, False),
    (4, 10.0, (1e-6, 0.0), "off", 0.0, False),
    (4, 20.0, (0.1, -0.05), "off", 0.0, False),
    (4, 10.0, (-0.05, 0.0), "off", 0.0, False),
    (4, 10.0, (0.01, 0.0), "random", 0.05, False),
    (4, 10.0, (0.0, 0.0), "random", 0.05, False),
    (4, 20.0, (-0.01, 0.005), "random", 0.05, False),
    (4, 5.0, (0.17, 0.0), "random", 0.1, False),
    (4, 10.0, (0.01, -0.005), "off", 0.0, True),
    (4, 5.0, (0.17, 0.0), "off", 0.0, True),
    (4, 10.0, (-0.03, 0.0), "off", 0.0, True),
    (3, 10.0, (0.0,), "off", 0.0, False),
    (3, 5.0, (0.18,), "off", 0.0, False),
    (3, 5.0, (-0.17,), "off", 0.0, False),
    (3, 10.0, (1e-3,), "off", 0.0, False),
    (3, 30.0, (0.05,), "off", 0.0, False),
    (3, 10.0, (0.01,), "random", 0.05, False),
    (3, 10.0, (0.01,), "off", 0.0, True),
]

# (n, order, delta): n = 5 at the default order, n = 6 at order 32 and one
# n = 7 case at order 16, mixed-sign deltas plus delta = 0.
MOMENT_BASES = [
    (5, 64, (1e-2, -5e-3, 2e-3)),
    (5, 64, (0.03, -0.02, 0.01)),
    (5, 64, (-0.01, 4e-3, 2e-3)),
    (5, 64, (0.05, -0.05, 0.0)),
    (5, 64, (1e-3, -1e-3, 5e-4)),
    (5, 64, (0.02, 0.01, -0.03)),
    (5, 64, (-0.04, 0.01, 0.01)),
    (5, 64, (5e-3, 5e-3, -2e-3)),
    (5, 64, (0.0, 0.0, 0.0)),
    (6, 32, (1e-2, 0.0, 0.0, -1e-2)),
    (6, 32, (0.01, -0.005, 0.002, -0.001)),
    (6, 32, (0.0, 0.0, 0.0, 0.0)),
    (7, 16, (1e-2, 0.0, 0.0, 0.0, -1e-2)),
]
MOMENT_REF_ORDER = {5: 128, 6: 64, 7: 32}
# README accuracy notes: delta = 0 is accurate to ~1e-13 relative in every
# dimension; for n >= 5 with sign-changing delta the plain prefix product
# rule caps accuracy near 1e-6 relative.  The references for those cases are
# themselves only that good, so the check is one decade above the cap.
MOMENT_RTOL_ZERO = 1e-13
MOMENT_RTOL_MIXED = 1e-5

# Monte Carlo cross-checks (n, delta); the quadrature side is stored.
MC_BASES = [
    (2, ()),
    (3, (1e-3,)),
    (3, (-0.02,)),
    (4, (1e-3, 0.0)),
    (4, (0.01, -0.005)),
    (5, (0.01, -0.005, 0.002)),
    (6, (0.01, 0.0, 0.0, -0.01)),
]
MC_REF_ORDER = {2: 96, 3: 96, 4: 96, 5: 96, 6: 48}

# Basin sweep grid at n = 4, taken from the README's documented sweep
# (`--tau0-range 5:50:20 --delta0-range 0:0.1:20 --steps 200`): the same
# ranges, built the way the CLI builds them (delta0 along the first
# coordinate), at 4 x 8 instead of 20 x 20 cells.  renorm.sweep hands cells to
# the pool in chunks of 4, so the 32 cells make 8 chunks that the workers
# take as they finish.  The documented 200-step budget takes about 25 s per
# sweep of this grid on two workers, longer than a whole run, so the budget
# is cut to SWEEP_STEPS; escapes in this delta0 range need 48 or more steps,
# so every cell ends converged or exhausted.
SWEEP_TAU0 = tuple(5.0 + 15.0 * i for i in range(4))  # linspace(5, 50, 4)
SWEEP_DELTA0 = tuple((0.1 * i / 7, 0.0) for i in range(8))  # linspace(0, 0.1, 8)


def sibling_scale(j, step):
    return 1.0 + step * j


def trajectory_pool(bl):
    import numpy as np
    from blowuplab import renorm
    from blowuplab.quadratic import DeltaState

    bases = []
    worst = 0.0
    for b, (n, tau0, delta0, noise, c_noise, mono) in enumerate(TRAJECTORY_BASES):
        sibs = []
        for j in range(SIBLINGS):
            case = {
                "id": f"t{b:02d}.{j}",
                "n": n,
                "tau0": tau0 * sibling_scale(j, 0.02),
                "delta0": [d * sibling_scale(j, 0.01) for d in delta0],
                "noise": noise,
                "c_noise": c_noise,
                "noise_seed": 1000 * b + j,
                "monotonicity": mono,
            }
            outs = {}
            for order in (TRAJECTORY_REF_ORDER, TRAJECTORY_ORDER):
                cfg = renorm.MapConfig(
                    n=n, order=order, noise=noise, c_noise=c_noise, seed=case["noise_seed"]
                )
                state = DeltaState(n=n, tau=case["tau0"], delta=np.array(case["delta0"]))
                rec = renorm.iterate(state, cfg, TRAJECTORY_STEPS, record_monotonicity=mono)
                outs[order] = {
                    "kind": rec.classification.kind,
                    "step": rec.classification.step,
                    "final_delta": [float(d) for d in rec.steps[-1].delta],
                }
            ref, got = outs[TRAJECTORY_REF_ORDER], outs[TRAJECTORY_ORDER]
            gap = max(abs(a - r) for a, r in zip(got["final_delta"], ref["final_delta"]))
            worst = max(worst, gap)
            same = got["kind"] == ref["kind"] and got["step"] == ref["step"]
            print(f"  {case['id']} n={n} {ref['kind']}@{ref['step']} "
                  f"order-{TRAJECTORY_ORDER} gap {gap:.1e}{'' if same else ' OUTCOME DIFFERS'}")
            case["ref"] = ref
            sibs.append(case)
        bases.append(sibs)
    print(f"trajectory: worst final-delta gap {worst:.2e} (atol {TRAJECTORY_DELTA_ATOL:g})")
    return {
        "max_steps": TRAJECTORY_STEPS,
        "order": TRAJECTORY_ORDER,
        "ref_order": TRAJECTORY_REF_ORDER,
        "delta_atol": TRAJECTORY_DELTA_ATOL,
        "bases": bases,
    }


def moment_columns(m):
    return [m.B, *[float(v) for v in m.B_i]]


def rel_gap(a, b):
    return max(abs(x - y) for x, y in zip(a, b)) / max(abs(y) for y in b)


def moments_pool(bl):
    import numpy as np
    from blowuplab import moments

    bases = []
    cache = {}
    for b, (n, order, delta) in enumerate(MOMENT_BASES):
        sibs = []
        zero = not any(delta)
        for j in range(SIBLINGS):
            d = [x * sibling_scale(j, 0.05) for x in delta]
            ref_order = MOMENT_REF_ORDER[n]
            key = (n, ref_order, tuple(d))
            if key not in cache:
                cache[key] = moment_columns(moments.compute_moments(np.array(d), n, ref_order))
            ref = cache[key]
            got = moment_columns(moments.compute_moments(np.array(d), n, order))
            rtol = MOMENT_RTOL_ZERO if zero else MOMENT_RTOL_MIXED
            gap = rel_gap(got, ref)
            print(f"  m{b:02d}.{j} n={n} order {order} vs {ref_order}: {gap:.2e} "
                  f"(rtol {rtol:g}){'' if gap <= rtol else ' MISS'}", flush=True)
            sibs.append({
                "id": f"m{b:02d}.{j}",
                "n": n,
                "order": order,
                "delta": d,
                "ref_order": ref_order,
                "ref_columns": ref,
                "rtol": rtol,
            })
        bases.append(sibs)
    return {"bases": bases}


def crosscheck_pool(bl):
    import numpy as np
    from blowuplab import moments

    bases = []
    for b, (n, delta) in enumerate(MC_BASES):
        sibs = []
        for j in range(SIBLINGS):
            d = [x * sibling_scale(j, 0.05) for x in delta]
            seed = 7919 * (b + 1) + 104729 * j
            ref_order = MC_REF_ORDER[n]
            ref = moment_columns(moments.compute_moments(np.array(d), n, ref_order))
            b_est, bi_est = moments.mc_moment_check(np.array(d), n, MC_SAMPLES, seed)
            z = max(abs(e.value - r) / e.std_error for e, r in zip([b_est, *bi_est], ref))
            print(f"  c{b:02d}.{j} mc n={n} max |z| {z:.2f}{'' if z <= MC_Z_MAX else ' MISS'}",
                  flush=True)
            sibs.append({
                "id": f"c{b:02d}.{j}",
                "kind": "mc",
                "n": n,
                "delta": d,
                "samples": MC_SAMPLES,
                "seed": seed,
                "ref_order": ref_order,
                "ref_columns": ref,
                "z_max": MC_Z_MAX,
            })
        bases.append(sibs)
    ln2_2pi = math.log(2.0) / (2.0 * math.pi)
    b = len(bases)
    bases.append([{
        "id": f"c{b:02d}.{j}",
        "kind": "grid2d",
        "tau": 10.0 * sibling_scale(j, 0.1),
        "h": GRID_2D_H,
        "r": 1.0,
        "target_increment": [[ln2_2pi, 0.0], [0.0, -ln2_2pi]],
        "atol": GRID_2D_ATOL,
    } for j in range(SIBLINGS)])
    b += 1
    bases.append([{
        "id": f"c{b:02d}.{j}",
        "kind": "grid3d",
        "tau": 7.0 * sibling_scale(j, 0.1),
        "delta": [0.05 * sibling_scale(j, 0.2)],
        "h": GRID_3D_H,
        "r": 1.0,
        "rtol": GRID_3D_RTOL,
    } for j in range(SIBLINGS)])
    return {"bases": bases}


def sweep_pool(bl):
    from blowuplab import renorm

    sibs = []
    for j in range(SIBLINGS):
        tau0 = [t * sibling_scale(j, 0.01) for t in SWEEP_TAU0]
        delta0 = [[d * sibling_scale(j, 0.005) for d in dd] for dd in SWEEP_DELTA0]
        rows = {}
        for order in (SWEEP_REF_ORDER, SWEEP_ORDER):
            cfg = renorm.MapConfig(n=4, order=order)
            rows[order] = renorm.sweep(tau0, [list(d) for d in delta0], cfg, SWEEP_STEPS, workers=1)
        ref = [{
            "classification": r["classification"],
            "step": r["step"],
            "final_tau": float(r["final_tau"]),
            "final_ratio": float(r["final_ratio"]),
        } for r in rows[SWEEP_REF_ORDER]]
        got = rows[SWEEP_ORDER]
        same = all(
            a["classification"] == r["classification"] and a["step"] == r["step"]
            for a, r in zip(got, ref)
        )
        tau_gap = max(abs(a["final_tau"] - r["final_tau"]) / r["final_tau"]
                      for a, r in zip(got, ref))
        ratio_gap = max(abs(a["final_ratio"] - r["final_ratio"]) for a, r in zip(got, ref))
        kinds = [r["classification"][0] for r in ref]
        print(f"  s.{j} {''.join(kinds)} order-{SWEEP_ORDER} tau gap {tau_gap:.1e} "
              f"(rtol {SWEEP_TAU_RTOL:g}), ratio gap {ratio_gap:.1e} "
              f"(atol {SWEEP_RATIO_ATOL:g}){'' if same else ' OUTCOME DIFFERS'}", flush=True)
        sibs.append({"id": f"s.{j}", "tau0": tau0, "delta0": delta0, "ref_rows": ref})
    return {
        "n": 4,
        "order": SWEEP_ORDER,
        "ref_order": SWEEP_REF_ORDER,
        "max_steps": SWEEP_STEPS,
        "ratio_atol": SWEEP_RATIO_ATOL,
        "tau_rtol": SWEEP_TAU_RTOL,
        "bases": [sibs],
    }


def main():
    pin_threads()
    bl = import_package()
    t0 = time.perf_counter()
    refs = {
        "generated_by": "python3 perfbench/make_refs.py",
        "siblings": SIBLINGS,
        "tolerances": {
            "trajectory": "kind and step exact; final delta within delta_atol (README: "
                          "n = 3, 4 moments ~1e-13, amplified <= ~150x over 24 steps)",
            "moments_highdim": "norm-wise relative error of [B, B_i] within rtol: 1e-13 at "
                               "delta = 0, 1e-5 for n >= 5 sign-changing delta (README cap ~1e-6)",
            "crosscheck": "Monte Carlo within z_max = 3 standard errors of the stored "
                          "quadrature moments (A10); 2-D grid half-step within 1e-3 of "
                          "ln2/(2 pi) at h = 1/256 (A9 cap); 3-D quadratic recovered to 1e-10",
            "sweep": "kind and step exact; final tau within tau_rtol, final ratio within "
                     "ratio_atol of the order-128 sweep",
        },
    }
    pools = (
        ("trajectory", trajectory_pool),
        ("moments_highdim", moments_pool),
        ("crosscheck", crosscheck_pool),
        ("sweep", sweep_pool),
    )
    only = set(sys.argv[1:])
    if only and REFS.exists():
        refs = json.loads(REFS.read_text())
    for name, build in pools:
        if only and name not in only:
            continue
        print(f"{name}:", flush=True)
        refs[name] = build(bl)
    REFS.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {REFS} in {time.perf_counter() - t0:.0f} s")


if __name__ == "__main__":
    main()
