import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import blowuplab
from blowuplab import _kernels, moments, sphere


def _block(n, coeffs, order):
    """Kernel block at (n, order)."""
    if n == 3:
        zsq, wts = np.ones((1, 1)), np.ones(1)
    else:
        zsq, wts = sphere._prefix_rule(n, order)
    glx, glw = sphere._gauss_legendre(order)
    return _kernels.indicator_moment_block(zsq, wts, coeffs, n, glx, glw)


class TestBlock:
    def test_zero_delta_is_half_sphere(self):
        out = _block(3, np.array([0.0, 1.0]), 32)
        assert out[0] == pytest.approx(2 * math.pi, rel=1e-13)

    def test_deterministic(self):
        coeffs = np.array([1e-3, -2e-3, 1.0])
        a = _block(4, coeffs, 48)
        b = _block(4, coeffs, 48)
        assert np.array_equal(a, b)

    def test_column_sum_identity(self):
        # sum of x_i^2 columns equals the chi column (sum x_i^2 = 1)
        coeffs = np.array([5e-2, -1e-2, 0.96])
        out = _block(4, coeffs, 32)
        assert out[1:].sum() == pytest.approx(out[0], rel=1e-13)

    def test_snap_floor_treats_tiny_as_touch(self):
        # below the 1e-11 floor the boundary coefficient is an exact touch,
        # so the response stays smooth at machine scale instead of being
        # amplified through the near-degenerate root maps
        base = _block(3, np.array([0.0, 1.0]), 32)
        tiny = _block(3, np.array([1e-13, 1.0]), 32)
        assert np.abs(base - tiny).max() < 1e-12


class TestSinPowerPair:
    @pytest.mark.parametrize("ndim", [3, 4, 5, 6, 7, 8])
    def test_matches_quad(self, ndim):
        # (J_{ndim-2}, J_ndim) are the integrals of sin^m over the resolved
        # inner interval [psi*, pi - psi*], tan(psi*) = 1/sqrt(q); shifted by
        # pi/2 that is cos^m over [-a, a], a = arctan(sqrt(q)), which keeps
        # the reference free of asin's cancellation near psi* = pi/2
        q = np.array([1e-6, 1e-2, 0.3, 1.0, 4.0, 250.0])
        j_lo, j_hi = _kernels._j_pair(q, ndim)
        for k, a in enumerate(np.arctan(np.sqrt(q))):
            for m, got in ((ndim - 2, j_lo[k]), (ndim, j_hi[k])):
                ref, _ = quad(lambda s: math.cos(s) ** m, -a, a, epsabs=0.0, epsrel=1e-13)
                assert got == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("ndim", [3, 4, 5, 6, 7, 8])
    def test_zero_q_is_exact_zero(self, ndim):
        # q = 0 is an empty interval; the kernel relies on this instead of
        # masking q <= 0 out
        j_lo, j_hi = _kernels._j_pair(np.zeros(3), ndim)
        assert np.array_equal(j_lo, np.zeros(3)) and np.array_equal(j_hi, np.zeros(3))


def _rows_inputs(n, order, delta):
    """Arguments of `row_reductions` as `indicator_moment_columns` builds them."""
    coeffs = moments._coeff_vector(n, np.asarray(delta, dtype=np.float64))
    if n == 4:
        zsq, _ = sphere._adaptive_circle_prefix(float(coeffs[0]), float(coeffs[1]), order)
    else:
        zsq, _ = sphere._prefix_rule(n, order)
    glx, glw = sphere._gauss_legendre(_kernels.last_angle_nodes(n, order, coeffs))
    return zsq @ coeffs[:-1], coeffs[-1], n, glx, glw


class TestRowBlocks:
    @pytest.mark.parametrize(
        "n, order, delta",
        [
            (4, 64, [0.0, 0.0]),
            (4, 64, [3e-2, -1e-2]),
            (5, 64, [0.0, 0.0, 0.0]),
            (5, 64, [1e-2, -5e-3, 2e-3]),
            (6, 32, [0.0] * 4),
            (6, 32, [2e-2, -1e-2, 5e-3, -3e-3]),
            (7, 16, [0.0] * 5),
            (7, 16, [1e-2, -2e-2, 3e-3, 4e-3, -1e-3]),
        ],
    )
    def test_partition_invariant(self, monkeypatch, n, order, delta):
        # each row's arithmetic and its pairwise sum over the nodes are the
        # same in any block, so one row per block and all rows in one block
        # give the same bits as the default
        args = _rows_inputs(n, order, delta)
        default = _kernels.row_reductions(*args)
        monkeypatch.setattr(_kernels, "_BLOCK_ELEMS", 1)
        one_row = _kernels.row_reductions(*args)
        monkeypatch.setattr(_kernels, "_BLOCK_ELEMS", args[0].shape[0] * len(args[4]))
        one_block = _kernels.row_reductions(*args)
        assert np.array_equal(one_row, default)
        assert np.array_equal(one_block, default)

    @pytest.mark.parametrize(
        "n, order, delta, rows",
        [(6, 32, [2e-2, -1e-2, 5e-3, -3e-3], 2048), (4, 512, [3e-2, -1e-2], 812)],
    )
    def test_bounded_working_set(self, monkeypatch, n, order, delta, rows):
        # temporaries scale with the block, not with rows x nodes: all rows
        # at once would peak at 11 MiB (n=6/32) and 64 MiB (n=4/512).  The
        # last-angle rule is set to `order` nodes explicitly, since
        # indicator_moment_columns would hand the kernel only 32 at n = 4.
        # Fresh scratch, so the peak includes the buffers themselves and not
        # only what a call adds to the ones earlier tests allocated
        monkeypatch.setattr(_kernels, "_SCRATCH", _kernels._Scratch())
        args = _rows_inputs(n, order, delta)[:3] + sphere._gauss_legendre(order)
        assert args[0].shape[0] == rows
        tracemalloc.start()
        try:
            _kernels.row_reductions(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize(
        "n, order, delta, rows, nodes",
        [(5, 64, [1e-2, -5e-3, 2e-3], 208, 40), (4, 64, [3e-2, -1e-2], 364, 32)],
    )
    def test_benchmark_shapes_are_one_block(self, monkeypatch, n, order, delta, rows, nodes):
        # each block pays a fixed dispatch cost, so the kernel calls the
        # benchmark makes, the n >= 5 table and an n = 4 prefix with an
        # interior root, run as one block: one _piece call per quarter piece
        calls = []
        piece = _kernels._piece
        kernel = _kernels.row_reductions

        def piece_spy(out, piece_rows, *args):
            calls.append(len(piece_rows))
            return piece(out, piece_rows, *args)

        def kernel_spy(a, b, ndim, glx, glw):
            assert (len(a), len(glx)) == (rows, nodes)
            return kernel(a, b, ndim, glx, glw)

        monkeypatch.setattr(_kernels, "_piece", piece_spy)
        monkeypatch.setattr(_kernels, "row_reductions", kernel_spy)
        sphere.indicator_moment_columns(n, order, moments._coeff_vector(n, np.array(delta)))
        assert calls == [rows, rows]


_TABLE_ORDERS = [(5, 64), (5, 33), (5, 30), (6, 32), (6, 15), (7, 16), (7, 14), (8, 12)]
_TABLE_DELTAS = {
    "mixed": [1e-2, -5e-3, 2e-3, -4e-3, 3e-3, -1e-3],
    "positive": [2e-2, 1e-2, 5e-3, 3e-3, 1e-3, 4e-3],
    "negative": [-2e-2, -1e-2, -5e-3, -3e-3, -1e-3, -4e-3],
    "zeros": [1e-2, 0.0, -5e-3, 0.0, 2e-3, 0.0],
    "tiny": [1e-6, -7e-7, 3e-7, -5e-7, 8e-7, -2e-7],
    "large": [0.3, 0.0, 0.0, 0.0, 0.0, 0.0],
}


class TestScratch:
    # the kernel writes its (rows, G) temporaries into per-thread buffers
    # that every block and call reuses; what it returns must not share them

    def test_result_survives_next_call(self):
        args = _rows_inputs(4, 64, [3e-2, -1e-2])
        first = _kernels.row_reductions(*args)
        kept = first.copy()
        _kernels.row_reductions(*_rows_inputs(5, 64, [1e-2, -5e-3, 2e-3]))
        _kernels.row_reductions(*_rows_inputs(4, 24, [0.05, 1e-10]))
        assert np.array_equal(first, kept)
        assert np.array_equal(_kernels.row_reductions(*args), kept)

    def test_threads_match_serial(self):
        cases = [
            (3, [1e-5]),
            (4, [3e-2, -1e-2]),
            (4, [0.05, 1e-10]),
            (4, [-0.1436, -4.9e-6]),
            (5, [1e-2, -5e-3, 2e-3]),
            (6, [2e-2, -1e-2, 5e-3, -3e-3]),
        ]
        coeffs = [moments._coeff_vector(n, np.array(d)) for n, d in cases]

        def columns(k):
            return sphere.indicator_moment_columns(cases[k][0], 32, coeffs[k])

        serial = [columns(k) for k in range(len(cases))]
        jobs = [k for _ in range(8) for k in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(columns, jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == len(jobs)
        for k, value in zip(jobs, got):
            assert np.array_equal(value, serial[k])


def _table_case(n, order, delta, kernel_order=None):
    """(block, per-row value, row count of each kernel call of the block).

    The per-row value runs the kernel on every prefix row and then the
    block's weighted sums; `kernel_order` replaces the kernel's
    Gauss-Legendre order on the same prefix rule.
    """
    a, b, _, glx, glw = _rows_inputs(n, order, delta)
    if kernel_order is not None:
        glx, glw = sphere._gauss_legendre(kernel_order)
    zsq, wts = sphere._prefix_rule(n, order)
    coeffs = moments._coeff_vector(n, np.asarray(delta, dtype=np.float64))
    kernel = _kernels.row_reductions
    calls = []

    def counted(a, *args):
        calls.append(len(a))
        return kernel(a, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "row_reductions", counted)
        block = _kernels.indicator_moment_block(zsq, wts, coeffs, n, glx, glw)
    R = kernel(a, b, n, glx, glw)
    chi_w, sin_w, cos_w = (R * wts[:, None]).T
    per_row = np.empty(n + 1)
    per_row[0] = np.sum(chi_w)
    per_row[1 : n - 1] = np.sum(zsq * sin_w[:, None], axis=0)
    per_row[n - 1] = np.sum(cos_w)
    per_row[n] = per_row[0] - np.sum(sin_w) - per_row[n - 1]
    return block, per_row, calls


# At n = 8 / order 12 the kernel's own R is 1e-3 off at a prefix row with
# a = 6.9e-11, just above the 1e-11 snap (0.1070138 against 0.1071165 at
# orders 24-256), and the per-row path and the table take that error
# differently; see test_low_order_gap_is_the_kernels.
_KERNEL_LIMITED = pytest.mark.xfail(
    strict=True,
    reason="order-12 kernel is 1e-3 off near the snap; paths differ by 1.6e-8",
)


def _table_params():
    for n, order in _TABLE_ORDERS:
        for kind in sorted(_TABLE_DELTAS):
            marks = _KERNEL_LIMITED if (n, order, kind) == (8, 12, "tiny") else ()
            yield pytest.param(n, order, kind, marks=marks)


class TestKernelTable:
    @pytest.mark.parametrize("n, order, kind", _table_params())
    def test_matches_per_row(self, n, order, kind):
        # one kernel call on at most 2 sides x 13 panels x 8 nodes, and the
        # interpolated rows sum to the per-row value
        block, per_row, calls = _table_case(n, order, _TABLE_DELTAS[kind][: n - 2])
        assert len(calls) == 1 and calls[0] <= 2 * 13 * 8
        assert np.abs(block - per_row).max() <= 1e-9 * np.abs(per_row).max()

    def test_low_order_gap_is_the_kernels(self):
        # where the two paths differ by more than 1e-9, both are 8e-6 away
        # from the same prefix with an order-96 kernel; the table adds under
        # 1% to the per-row path's own error
        n, order, delta = 8, 12, _TABLE_DELTAS["tiny"]
        block, per_row, _ = _table_case(n, order, delta)
        fine = _table_case(n, order, delta, kernel_order=96)[1]
        assert np.abs(block - per_row).max() <= 1e-2 * np.abs(per_row - fine).max()

    @pytest.mark.parametrize("n, order", _TABLE_ORDERS)
    def test_zero_delta_is_one_row(self, n, order):
        block, per_row, calls = _table_case(n, order, np.zeros(n - 2))
        assert calls == [1]
        assert np.array_equal(block, per_row)


def _floor_grid(n):
    """(a, b) the kernel meets for |delta| < 1/2: a = zsq @ coeffs[:-1]
    log-spaced in +-[1.1e-11, 1/2], b = coeffs[-1] in 1 +- sqrt(n-2)/2."""
    mag = np.logspace(math.log10(1.1e-11), math.log10(0.5), 60)
    half = 0.5 * math.sqrt(n - 2)
    return np.concatenate([-mag[::-1], mag]), np.linspace(1.0 - half, 1.0 + half, 21)


def _grid_reductions(n, a, b, nodes):
    glx, glw = sphere._gauss_legendre(nodes)
    return np.stack([_kernels.row_reductions(a, b_cos, n, glx, glw) for b_cos in b])


class TestLastAngleNodes:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_rounding_floor(self, n):
        # K(n) nodes reach the 256-node values norm-wise to 3e-13 on every
        # (a, b) a normal form can give the kernel; K(n) - 8 do not
        k = _kernels.last_angle_nodes(n, 256, np.array([0.0] * (n - 2) + [1.0]))
        a, b = _floor_grid(n)
        ref = _grid_reductions(n, a, b, 256)
        err = [np.abs(_grid_reductions(n, a, b, m) - ref).max() / np.abs(ref).max() for m in (k, k - 8)]
        assert err[0] <= 3e-13 < err[1]

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_far_root_switch(self, n):
        # a piece with alpha > 0 > beta and its root beyond the end takes the
        # plain rule once 4*q_end >= alpha and the sin map below that; rows on
        # both sides of the switch, on the left piece (alpha = b > 0, switch at
        # a = -b/2) and on the right (alpha = a, b < 0, switch at a = -2b),
        # reach the 256-node values at K(n) nodes
        k = _kernels.last_angle_nodes(n, 256, np.array([0.0] * (n - 2) + [1.0]))
        rel = np.array([-0.3, -0.05, -1e-3, -1e-9, 0.0, 1e-9, 1e-3, 0.05, 0.3])
        for b in (0.6, 0.8, 1.0, -0.1, -0.2):
            a = (-0.5 * b if b > 0 else -2.0 * b) * (1.0 + rel)
            alpha = np.full_like(a, b) if b > 0 else a
            q_end = 0.5 * (a + b)
            far = 4.0 * q_end >= alpha
            assert np.all(q_end > 0.0) and 0 < np.count_nonzero(far) < len(a)
            ref = _grid_reductions(n, a, np.array([b]), 256)
            got = _grid_reductions(n, a, np.array([b]), k)
            assert np.abs(got - ref).max() <= 3e-13 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "n, order, nodes",
        [(3, 64, 48), (4, 64, 32), (4, 24, 24), (5, 64, 40), (6, 32, 32), (7, 16, 16)],
    )
    def test_columns_use_min_of_order_and_floor(self, monkeypatch, n, order, nodes):
        seen = []
        block = _kernels.indicator_moment_block

        def spy(zsq, weights, coeffs, ndim, glx, glw):
            seen.append(len(glx))
            return block(zsq, weights, coeffs, ndim, glx, glw)

        monkeypatch.setattr(_kernels, "indicator_moment_block", spy)
        delta = np.array([3e-2, -1e-2, 5e-3, -3e-3, 1e-3, 2e-3][: n - 2])
        sphere.indicator_moment_columns(n, order, moments._coeff_vector(n, delta))
        assert seen == [nodes]


def _fresh_interpreter(code):
    """Stdout of `code` run in a new interpreter that imports this blowuplab."""
    env = dict(os.environ, PYTHONPATH=str(Path(blowuplab.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


_N4_START = """
import numpy as np
from blowuplab import moments, renorm
from blowuplab.quadratic import DeltaState
cfg = renorm.MapConfig(n=4, C_gamma=0.0)
start = DeltaState(n=4, tau=10.0, delta=np.array([0.05, -0.01]), kappa0=cfg.kappa0)
"""


class TestProcessFootprint:
    def test_no_scipy_import(self):
        # nothing the package computes loads scipy, so an import and a first
        # computation pay only for numpy
        out = _fresh_interpreter(_N4_START + """
import sys
renorm.half_step(start, cfg)
moments.compute_moments(np.array([1e-2, -5e-3, 2e-3]), 5, 32)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""")
        assert out == "[]"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor faults as Linux counts them")
    def test_steady_steps_fault_nothing_in(self):
        # with the kernel's temporaries allocated per panel, a process that
        # never imports scipy keeps glibc's 128 KB trim threshold, returns
        # them to the OS at every call and faults them in again: about 190
        # minor faults a step on x86_64 Linux, against none with the scratch
        # buffers
        out = _fresh_interpreter(_N4_START + """
import resource
renorm.iterate(start, cfg, 24)  # rules, prefix cache and scratch are built
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
steps = sum(len(renorm.iterate(start, cfg, 24).steps) for _ in range(3))
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps)
""")
        assert float(out) < 1.0
