#!/usr/bin/env python3
"""blowuplab benchmark: the half-scale loop end to end, checked against references.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists): trajectory,
moments_highdim, crosscheck, sweep.  `--workload all` runs the four in turn,
each in its own interpreter.

With `--trace 0` the run times the package untraced and reports the
end-to-end metrics; with `--trace 1` it alternates traced and untraced passes
and reports the per-layer split, work counts and tracing overhead.  Every run
first measures set-up time in fresh interpreters, then makes one untimed
warm-up pass, then passes until `--seconds` have been measured.

Human-readable lines go first; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The full record
(environment stamp, workload-specific figures, work counts) is appended to
<out>/results.jsonl, and a traced run writes its spans to <out>/spans-*.json.
Compare two result sets with perfbench/compare.py.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from common import HERE, REFS, ROOT, THREAD_ENV, SetupError, child_env, import_package, pin_threads

pin_threads()  # before numpy loads

import workloads  # noqa: E402 - imports numpy
from layertrace import BOOKKEEPING, LAYERS, Tracer  # noqa: E402

SETUP_RUNS = 3
SETUP_TIMEOUT_S = 120
PERCENTILES = (50, 90, 95, 99, 99.9)


def git_commit():
    """Commit of the checkout from .git files, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(bl):
    import numpy
    import scipy

    return {
        "backend": bl._kernels.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": git_commit(),
    }


def measure_setup(workload, seed, runs):
    """(set-up seconds, import seconds) of `runs` fresh interpreters."""
    out = []
    for _ in range(runs):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            env=child_env(), capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            raise SetupError(f"set-up probe failed: {tail}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((rec["done"] - t0 - rec["own_s"], rec["import_s"]))
    return out


def percentile_lines(name, samples):
    """Median, p90 and the highest percentile with at least ten samples beyond it."""
    n = len(samples)

    def beyond(q):
        return n - int(-(-q * n // 100))

    supported = [q for q in PERCENTILES if beyond(q) >= 10]
    shown = sorted({50, 90, *supported[-1:]})
    lines = []
    for q in shown:
        note = "" if beyond(q) >= 10 else f", only {beyond(q)} beyond: indicative"
        lines.append(f"{name}.p{q:g} = {workloads.percentile(samples, q):.4f} ms "
                     f"({n} samples{note})")
    return lines


def run_timed(wl, seconds):
    """Warm-up pass, then passes until `seconds` have been measured."""
    warm = wl.run_pass(0)  # caches fill, lazy set-up finishes
    passes = []
    t0 = time.perf_counter()
    position = 1
    while True:
        passes.append(wl.run_pass(position))
        position += 1
        if time.perf_counter() - t0 >= seconds:
            return warm, passes


def run_traced(wl, seconds, tracer):
    """Alternate traced and untraced passes over distinct sibling positions.

    sweep cycles traced in-process, untraced in-process and untraced pool
    passes: the per-layer split needs the cells in this process, the worker
    busy share needs the pool.
    """
    is_sweep = isinstance(wl, workloads.Sweep)
    kinds = ("traced", "serial", "pool") if is_sweep else ("traced", "plain")
    serial = {"workers": 1} if is_sweep else {}
    warm = wl.run_pass(0)
    runs = {k: [] for k in kinds}
    walls = []
    first = None
    t0 = time.perf_counter()
    position = 1
    while True:
        kind = kinds[(position - 1) % len(kinds)]
        if kind == "traced":
            tracer.install()
            caches0 = tracer.cache_info()
            counts0 = dict(tracer.counts)
            w0 = time.perf_counter()
            try:
                stats = wl.run_pass(position, tracer.op, **serial)
            finally:
                walls.append(time.perf_counter() - w0)
                tracer.restore()
            if first is None:
                caches1 = tracer.cache_info()
                first = {k: v - counts0.get(k, 0) for k, v in tracer.counts.items()}
                first["caches"] = {k: (caches1[k][0] - h, caches1[k][1] - m)
                                   for k, (h, m) in caches0.items()}
                first["cells"] = stats.work.get("cells", 0)
        elif kind == "pool":
            stats = wl.run_pass(position)
        else:
            stats = wl.run_pass(position, **serial)
        runs[kind].append(stats)
        position += 1
        done = all(runs[k] for k in kinds)
        if done and time.perf_counter() - t0 >= seconds:
            return warm, runs, walls, first


def layer_metrics(tracer, runs, walls, first, import_s):
    """Per-layer metrics of a traced run: self times per traced pass, counts of the first."""
    merge = workloads.merge
    n_traced = len(walls)
    self_s = tracer.self_times()
    wall = sum(walls) / n_traced
    layered = sum(self_s.get(name, 0.0) for name in LAYERS)
    book = self_s.get(BOOKKEEPING, 0.0)
    traced = merge(runs["traced"])
    plain = merge(runs["plain"] if "plain" in runs else runs["serial"])
    per_unit_traced = traced.op_s / max(traced.units, 1)
    per_unit_plain = plain.op_s / max(plain.units, 1)
    pool = merge(runs.get("pool", []))

    def hit_share(name):
        hits, misses = first["caches"][name]
        return hits / (hits + misses) if hits + misses else 0.0

    rows = first.get("kernels.row_reductions.rows", 0)
    m = {
        "import.blowuplab_s": (import_s, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": ((sum(walls) - layered - book) / n_traced, "s"),
        "trace.bookkeeping_s": (book / n_traced, "s"),
        "trace.overhead_share": (per_unit_traced / per_unit_plain - 1.0, "share"),
    }
    for name in LAYERS:
        m[name + ".self_s"] = (self_s.get(name, 0.0) / n_traced, "s")
    for name in ("kernels.row_reductions", "sphere.adaptive_prefix", "sphere.prefix_rule",
                 "sphere.mc_integrate", "moments.compute_moments", "moments.mc_moment_check",
                 "quadratic.diagonalize", "renorm.half_step", "renorm.iterate",
                 "gridproj.project"):
        m[name + ".calls"] = (first.get(name + ".calls", 0), "count")
    m["kernels.row_reductions.rows"] = (rows, "count")
    m["kernels.row_reductions.row_nodes"] = (first.get("kernels.row_reductions.row_nodes", 0), "count")
    m["kernels.row_reductions.distinct_row_share"] = (
        first.get("kernels.row_reductions.distinct_rows", 0) / rows if rows else 0.0, "share")
    m["sphere.adaptive_prefix.hit_share"] = (hit_share("sphere.adaptive_prefix"), "share")
    m["sphere.prefix_rule.hit_share"] = (hit_share("sphere.prefix_rule"), "share")
    m["moments.zero_columns.hit_share"] = (hit_share("moments.zero_columns"), "share")
    m["sphere.mc_integrate.samples"] = (first.get("sphere.mc_integrate.samples", 0), "count")
    m["renorm.iterate.steps"] = (first.get("renorm.iterate.steps", 0), "count")
    m["gridproj.project.points_used"] = (first.get("gridproj.project.points_used", 0), "count")
    m["renorm.sweep.cells"] = (first.get("cells", 0), "count")
    m["renorm.sweep.worker_busy_share"] = (
        pool.busy_s / (pool.op_s * workloads.Sweep.workers) if pool.op_s else 0.0, "share")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for results.jsonl and span files")
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    try:
        bl = import_package()
        refs = json.loads(REFS.read_text())
    except (SetupError, ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    try:
        record = run_workload(bl, refs, args.workload, args)
    except SetupError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args):
    """Each workload in its own interpreter, so none inherits another's heap or caches."""
    rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", args.out]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name, *rest],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def run_workload(bl, refs, name, args):
    setup = measure_setup(name, args.seed, SETUP_RUNS)
    setup_s = statistics.median(s for s, _ in setup)
    import_s = statistics.median(i for _, i in setup)
    wl = workloads.make(name, bl, refs, args.seed)
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(bl),
        "setup_s_samples": [s for s, _ in setup],
    }
    if args.trace:
        tracer = Tracer(bl)
        warm, runs, walls, first = run_traced(wl, args.seconds, tracer)
        every = [warm, *[s for k in runs for s in runs[k]]]
        layer = layer_metrics(tracer, runs, walls, first, import_s)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        record["work_first_traced_pass"] = first
        out = os.path.join(args.out, f"spans-{name}-seed{args.seed}.json")
        os.makedirs(args.out, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": args.seed, "spans": tracer.dump()}, fh)
        timed = workloads.merge(runs["plain"] if "plain" in runs else runs["pool"])
        first_timed = runs["traced"][0]
    else:
        warm, passes = run_timed(wl, args.seconds)
        every = [warm, *passes]
        timed = workloads.merge(passes)
        first_timed = passes[0]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": statistics.median(p.units / p.op_s for p in passes),
                          "unit": "1/s"},
        }
    total = workloads.merge(every)

    lines = [f"# {name} seed={args.seed} trace={args.trace} backend={record['env']['backend']} "
             f"nproc={record['env']['nproc']} commit={record['env']['commit'][:12]}",
             f"setup_s = {setup_s:.4f} s (median of {len(setup)} fresh interpreters; "
             f"import {import_s:.4f} s)"]
    reported = {}
    for key, work in wl.rates.items():
        value = workloads.rate(timed, key=work)
        lines.append(f"{key} = {value:.4f} 1/s")
        reported[key] = {"value": value, "unit": "1/s"}
    samples = timed.samples_ms
    lines += percentile_lines(wl.dist_name, samples)
    reported[wl.dist_name] = {"p50": workloads.percentile(samples, 50),
                              "p90": workloads.percentile(samples, 90),
                              "unit": "ms", "samples": len(samples)}
    lines.append(f"operations counted: {wl.unit}; "
                 f"failed/attempted = {total.failed}/{total.attempted}")
    lines += [f"FAILED {f}" for f in total.failures]
    lines.append("work and accuracy (first measured pass): " + json.dumps(
        {k: v for k, v in sorted(first_timed.work.items()) if not k.endswith(".s")}))
    lines += [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    print("\n".join(lines), flush=True)

    record.update({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "failures": total.failures,
        "metrics": metrics,
        "reported": reported,
        "work_first_pass": {k: v for k, v in first_timed.work.items() if not k.endswith(".s")},
    })
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


if __name__ == "__main__":
    sys.exit(main())
