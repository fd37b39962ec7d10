"""The benchmark's layer tracer must still find and reach the names it wraps.

`perfbench/layertrace.py` wraps package attributes by name from outside the
package, so renaming a traced name, or no longer calling through it, breaks
traced benchmark runs.  These tests install the tracer on the package, run
a Monte Carlo moment check and moment sets, and check the counts and the
cache statistics the tracer reads.
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
        bl.moments.compute_moments(np.array([1e-2, -5e-3, 2e-3]), 5, order=16)
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


@pytest.mark.parametrize("n, delta", [(4, [3e-2, -1e-2]), (5, [1e-2, -5e-3, 2e-3])])
def test_kernel_counts_read_rows_and_nodes(n, delta):
    # the tracer counts rows and row nodes on `row_reductions`, a placeholder
    # that nothing calls since 0.9.0, so traced runs report no rows and the
    # whole kernel layer is one `indicator_moment_block` call per moment set
    order = 64
    bl.moments._zero_columns(n, order)  # cached, so only the delta set is traced
    tracer = _load_layertrace().Tracer(bl).install()
    try:
        bl.moments.compute_moments(np.array(delta), n, order)
    finally:
        tracer.restore()
    counts = tracer.counts
    assert counts["kernels.indicator_moment_block.calls"] == 1
    assert counts["sphere.indicator_moment_columns.calls"] == 1
    for name in ("calls", "rows", "row_nodes", "distinct_rows"):
        assert counts["kernels.row_reductions." + name] == 0
