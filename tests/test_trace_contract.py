"""The benchmark's layer tracer must still find and reach the names it wraps.

`perfbench/layertrace.py` wraps package attributes by name from outside the
package, so renaming a traced name, or no longer calling through it, breaks
traced benchmark runs.  These tests install the tracer on the package, run
a Monte Carlo moment check and moment sets, and check the counts.
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
    finally:
        tracer.restore()
    counts = tracer.counts
    assert counts["moments.mc_moment_check.calls"] == 1
    assert counts["sphere.mc_integrate.calls"] == 1
    assert counts["sphere.mc_integrate.samples"] == 2000
    assert counts["kernels.row_reductions.calls"] >= 1
    for module, attrs in zip(_MODULES, before):
        assert vars(module).keys() == attrs.keys()
        assert all(vars(module)[k] is v for k, v in attrs.items())


@pytest.mark.parametrize("n, delta", [(4, [3e-2, -1e-2]), (5, [1e-2, -5e-3, 2e-3])])
def test_kernel_counts_read_rows_and_nodes(n, delta):
    # the tracer counts rows as the length of the kernel's first argument and
    # nodes as the length of its fifth; a kernel signature that moved either
    # would miscount traced runs without an error.  n = 4 has an interior
    # root (delta of both signs), so the kernel runs on every graded prefix
    # row; n >= 5 runs it once on the graded table in a = zsq @ coeffs[:-1]
    order = 64
    coeffs = bl.moments._coeff_vector(n, np.array(delta))
    bl.moments._zero_columns(n, order)  # cached, so only the delta set is traced
    tracer = _load_layertrace().Tracer(bl).install()
    try:
        bl.moments.compute_moments(np.array(delta), n, order)
    finally:
        tracer.restore()
    counts = tracer.counts
    rows = counts["kernels.row_reductions.rows"]
    assert counts["kernels.row_reductions.calls"] == 1
    if n == 4:
        zsq, _ = bl.sphere._adaptive_circle_prefix(float(coeffs[0]), float(coeffs[1]), order)
        assert rows == zsq.shape[0]
    else:
        assert 0 < rows <= 209
    nodes = bl._kernels.last_angle_nodes(n, order, coeffs)
    assert counts["kernels.row_reductions.row_nodes"] == rows * 2 * nodes
