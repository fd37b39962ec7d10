"""The benchmark's layer tracer must still find and reach the names it wraps.

`perfbench/layertrace.py` wraps package attributes by name from outside the
package, so renaming a traced name, or no longer calling through it, breaks
traced benchmark runs.  These tests install the tracer on the package, run
a Monte Carlo moment check, moment sets, a recorded trajectory and a sweep,
and check the counts and the cache statistics the tracer reads.  The
benchmark's workloads also still pass a node count to `compute_moments` and
`MapConfig`, which both accept and ignore, and `run.py`'s `environment()`
stamps every measured process with `_kernels.backend_name()`; the last two
tests pin those.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import blowuplab as bl

_LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
_MODULES = (bl._kernels, bl.sphere, bl.moments, bl.renorm, bl.quadratic, bl.gridproj)


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", _LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reaches_wrapped_layers_and_restores():
    before = [dict(vars(m)) for m in _MODULES]
    tracer = _load_layertrace().Tracer(bl).install()
    try:
        bl.moments.mc_moment_check(np.array([0.01]), 3, 2000, 5)
        bl.moments.compute_moments(np.array([1e-2, -5e-3, 2e-3]), 5)
        # run.py --trace 1 reads the lru caches it names through the wrappers
        caches = tracer.cache_info()
    finally:
        tracer.restore()
    counts = tracer.counts
    assert counts["moments.mc_moment_check.calls"] == 1
    assert counts["sphere.mc_integrate.calls"] == 1
    assert counts["sphere.mc_integrate.samples"] == 2000
    assert counts["kernels.indicator_moment_block.calls"] >= 1
    assert set(caches) == {"sphere.adaptive_prefix", "sphere.prefix_rule", "moments.zero_columns"}
    assert all(len(c) == 2 for c in caches.values())
    for module, attrs in zip(_MODULES, before):
        assert vars(module).keys() == attrs.keys()
        assert all(vars(module)[k] is v for k, v in attrs.items())


def test_tracer_reaches_the_step_path_and_restores():
    # `run.py --trace 1` on the trajectory and sweep workloads: one traced
    # `iterate` with its monotonicity reports, and a sweep block, each
    # stepping through one kernel call a step
    before = [dict(vars(m)) for m in _MODULES]
    cfg = bl.renorm.MapConfig(n=4, C_gamma=0.0)
    tracer = _load_layertrace().Tracer(bl).install()
    try:
        rec = bl.renorm.iterate(
            bl.DeltaState(n=4, tau=10.0, delta=np.array([0.05, -0.02])),
            cfg,
            12,
            record_monotonicity=True,
        )
        iterate_kernel_calls = tracer.counts["kernels.indicator_moment_block.calls"]
        rows = bl.renorm.sweep([10.0, 20.0], [np.zeros(2), np.array([0.03, 0.0])], cfg, 8, workers=1)
    finally:
        tracer.restore()
    counts = tracer.counts
    steps = len(rec.steps) - 1
    assert steps == len(rec.monotonicity) == 12
    assert counts["renorm.iterate.calls"] == 1
    assert counts["renorm.iterate.steps"] == steps
    assert iterate_kernel_calls >= steps
    assert [row["step"] for row in rows] == [8] * 4
    assert counts["kernels.indicator_moment_block.calls"] >= steps + 8
    for module, attrs in zip(_MODULES, before):
        assert vars(module).keys() == attrs.keys()
        assert all(vars(module)[k] is v for k, v in attrs.items())


@pytest.mark.parametrize("n, delta", [(4, [3e-2, -1e-2]), (5, [1e-2, -5e-3, 2e-3])])
def test_kernel_counts_read_rows_and_nodes(n, delta):
    # the tracer counts rows and row nodes on `row_reductions`, a placeholder
    # that nothing calls since 0.9.0, so traced runs report no rows and the
    # whole kernel layer is one `indicator_moment_block` call per moment set
    bl.moments._zero_columns(n)  # cached, so only the delta set is traced
    tracer = _load_layertrace().Tracer(bl).install()
    try:
        bl.moments.compute_moments(np.array(delta), n)
    finally:
        tracer.restore()
    counts = tracer.counts
    assert counts["kernels.indicator_moment_block.calls"] == 1
    assert counts["sphere.indicator_moment_columns.calls"] == 1
    for name in ("calls", "rows", "row_nodes", "distinct_rows"):
        assert counts["kernels.row_reductions." + name] == 0


@pytest.mark.parametrize("k", [2, 16, 64])
def test_benchmark_call_forms_ignore_order(k):
    # perfbench/workloads.py calls compute_moments(delta, n, case["order"])
    # and builds MapConfig(n=..., order=...)
    delta, n = np.array([1e-2, -5e-3, 2e-3]), 5
    got, want = bl.moments.compute_moments(delta, n, k), bl.moments.compute_moments(delta, n)
    assert got.B == want.B and np.array_equal(got.B_i, want.B_i)
    assert got.C == want.C and np.array_equal(got.C_i, want.C_i)
    cfg = bl.renorm.MapConfig(n=4, order=k)
    assert cfg == bl.renorm.MapConfig(n=4)
    assert "order" not in cfg.to_dict()


def test_backend_name_stamps_the_environment():
    # perfbench/run.py's environment() calls it in every measured process,
    # and each manifest records it, so a replay warns when it changes
    assert bl._kernels.backend_name() == "pure"
