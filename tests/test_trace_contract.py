"""The benchmark's layer tracer must still find and reach the names it wraps.

`perfbench/layertrace.py` wraps package attributes by name from outside the
package, so renaming a traced name, or no longer calling through it, breaks
traced benchmark runs.  This test installs the tracer on the package, runs
one Monte Carlo moment check and one moment set, and checks the counts.
"""

import importlib.util
from pathlib import Path

import numpy as np

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
