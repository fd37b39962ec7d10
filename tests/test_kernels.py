import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, quad_vec

import blowuplab
from blowuplab import _kernels, moments, sphere
from blowuplab.quadratic import HarmonicQuadratic


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
        # give the same bits as the default; n = 4 is closed form per row
        # and runs no blocks at all
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
        [(6, 32, [2e-2, -1e-2, 5e-3, -3e-3], 2048), (5, 128, [1e-2, -5e-3, 2e-3], 2048)],
    )
    def test_bounded_working_set(self, monkeypatch, n, order, delta, rows):
        # temporaries scale with the block, not with rows x nodes: as one
        # block, a call would peak at 6.8 MiB (n=6/32) and 26 MiB (n=5/128).  The
        # kernel runs on the prefix rows themselves, not on the n >= 5
        # table, and its last-angle rule is set to `order` nodes explicitly,
        # where indicator_moment_columns would hand it only 40 at n = 5.
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
        [(5, 64, [1e-2, -5e-3, 2e-3], 208, 40), (4, 64, [3e-2, -1e-2], 364, 0)],
    )
    def test_benchmark_shapes_are_one_block(self, monkeypatch, n, order, delta, rows, nodes):
        # each block pays a fixed dispatch cost, so the n >= 5 table the
        # benchmark runs is one block: one _piece call per quarter piece.
        # An n = 4 prefix with an interior root is closed form, on an empty
        # rule, and makes no _piece call at all
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
        assert calls == ([rows, rows] if nodes else [])


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


def _far_root_rows():
    """(b, a rows) on both sides of the kernel's far-root switch, per b."""
    rel = np.array([-0.3, -0.05, -1e-3, -1e-9, 0.0, 1e-9, 1e-3, 0.05, 0.3])
    return [(b, (-0.5 * b if b > 0 else -2.0 * b) * (1.0 + rel)) for b in (0.6, 0.8, 1.0, -0.1, -0.2)]


def _grid_reductions(n, a, b, nodes):
    glx, glw = sphere._gauss_legendre(nodes)
    return np.stack([_kernels.row_reductions(a, b_cos, n, glx, glw) for b_cos in b])


class TestLastAngleNodes:
    # n = 4 runs no last-angle rule; TestClosedFormN4 checks it on the same
    # (a, b) grid and on the rows of the far-root switch

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 8])
    def test_rounding_floor(self, n):
        # K(n) nodes reach the 256-node values norm-wise to 3e-13 on every
        # (a, b) a normal form can give the kernel; K(n) - 8 do not
        k = _kernels.last_angle_nodes(n, 256, np.array([0.0] * (n - 2) + [1.0]))
        a, b = _floor_grid(n)
        ref = _grid_reductions(n, a, b, 256)
        err = [np.abs(_grid_reductions(n, a, b, m) - ref).max() / np.abs(ref).max() for m in (k, k - 8)]
        assert err[0] <= 3e-13 < err[1]

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 8])
    def test_far_root_switch(self, n):
        # a piece with alpha > 0 > beta and its root beyond the end takes the
        # plain rule once 4*q_end >= alpha and the sin map below that; rows on
        # both sides of the switch, on the left piece (alpha = b > 0, switch at
        # a = -b/2) and on the right (alpha = a, b < 0, switch at a = -2b),
        # reach the 256-node values at K(n) nodes
        k = _kernels.last_angle_nodes(n, 256, np.array([0.0] * (n - 2) + [1.0]))
        for b, a in _far_root_rows():
            alpha = np.full_like(a, b) if b > 0 else a
            q_end = 0.5 * (a + b)
            far = 4.0 * q_end >= alpha
            assert np.all(q_end > 0.0) and 0 < np.count_nonzero(far) < len(a)
            ref = _grid_reductions(n, a, np.array([b]), 256)
            got = _grid_reductions(n, a, np.array([b]), k)
            assert np.abs(got - ref).max() <= 3e-13 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "n, order, nodes",
        [(3, 64, 48), (4, 64, 0), (4, 24, 0), (5, 64, 40), (6, 32, 32), (7, 16, 16)],
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


def _hopf_integrand(phi, a, b):
    """The u-integrals of chi_{p>0} times 1, 1 - u and u cos^2(phi) at fixed phi.

    In the coordinates of `_kernels._closed_form_n4`, p = a (1 - u) + B u
    with B = b cos^2(phi) - sin^2(phi), so the u-set is [0, 1], empty, or
    an interval ending at u* = a / (a - B).
    """
    c2 = math.cos(phi) ** 2
    big_b = b * c2 - math.sin(phi) ** 2
    if a > 0.0 and big_b >= 0.0:
        return (1.0, 0.5, 0.5 * c2)
    if a < 0.0 and big_b <= 0.0:
        return (0.0, 0.0, 0.0)
    u = a / (a - big_b)
    if a > 0.0:  # [0, u*)
        return (u, u - 0.5 * u * u, 0.5 * c2 * u * u)
    return (1.0 - u, 0.5 * (1.0 - u) ** 2, 0.5 * c2 * (1.0 - u * u))  # (u*, 1]


def _hopf_quad(a, b):
    """R(a; b) at n = 4 by scipy quad over phi in [0, pi/2], times 2.

    The integrand is analytic on each side of phi0 = arctan(sqrt b), where
    B changes sign; on the side where the u-set ends at u*, a layer of width
    about |a| sits next to phi0, so that side also breaks at phi0 +- |a| 10^k.
    """
    phi0 = math.atan(math.sqrt(b)) if b > 0.0 else 0.0
    out = np.zeros(3)
    for lo, hi, side in ((0.0, phi0, -1.0), (phi0, 0.5 * math.pi, 1.0)):
        if hi <= lo:
            continue
        d = abs(a) * 10.0 ** np.arange(13)
        points = phi0 + side * d[d < 0.5 * (hi - lo)]
        for k in range(3):
            out[k] += quad(
                lambda phi: _hopf_integrand(phi, a, b)[k], lo, hi,
                points=points if points.size else None, epsabs=1e-13, epsrel=0.0, limit=200,
            )[0]
    return 2.0 * out


_HALF_SQRT2 = 0.5 * math.sqrt(2.0)

# (a, b, R(a; b)) at n = 4 from mpmath 1.3.0 at 40 digits, printed to 30:
# mp.quad over phi of `_hopf_integrand`, broken at phi0 and at phi0 +- |a|
# 10^k on the live side as in `_hopf_quad`.  Rows: the ends and middle of
# `_floor_grid(4)`; a = b and |a - b| small (the series of `_h_pair`, on
# both sides of x = 0); b = 1e-9; b <= 0; a = -1 (e = 0) and a < -1;
# |a| just above the 1e-11 snap.  The quadrature kernel of 0.7.0 is within
# 4.8e-16 of them, norm-wise, on 256 nodes, and 1.4e-11 on its default 32
# (off at b = 1e-9).
_MP_N4 = [
    (0.5, 1.0 - _HALF_SQRT2, (2.07159744749642483014339334338, 1.26957928265347524750943202092, 0.603563103135367173155086693451)),
    (-0.5, 1.0 - _HALF_SQRT2, (0.262161083610481161655907848204, 0.0399703897558437880676493853748, 0.210265141508616643101459873696)),
    (0.3, 1.0, (2.16008553089011939908456684094, 1.23899287758529200110153314815, 0.686703809831378854639979758568)),
    (-0.3, 1.0, (0.981507122699673839378076542338, 0.33180344920960461812978854349, 0.551009319923999766272606911596)),
    (1.1e-11, 1.0, (1.570796327080085622491913064, 0.785398163677137312876252217789, 0.642699081701474154807076403348)),
    (-1.1e-11, 1.0, (1.57079632650970761597073031928, 0.785398163117759306355069473851, 0.642699081695974154807076402954)),
    (0.001, 1.0 + _HALF_SQRT2, (1.8410595057945422819417999327, 0.923143615960098847939583429065, 0.700227853917460838675793473604)),
    (-0.001, 1.0 + _HALF_SQRT2, (1.82906931172364801589057851279, 0.911918785083124562334862369567, 0.699945129494857757522438444767)),
    (0.45, 0.45, (2.10701500822178566424024980073, 1.26621313811800719024150764405, 0.633106569059003595120753822024)),
    (0.6, 0.62, (2.29300301854741897543902057377, 1.34656056780713465844672875135, 0.67492302002209403302235521508)),
    (0.3, 0.36, (1.88572895472319091400375968173, 1.15113978443886451810902779631, 0.587626719172469670163956405635)),
    (0.4, 0.25, (1.93919730791445983869242341237, 1.20486006112083764007876770276, 0.573091864442301449213147682727)),
    (0.4, 0.3, (1.97279600953353767726342133418, 1.2142245252011071231962471642, 0.589168923283387137683079262141)),
    (0.001, 1e-09, (0.0992962965463165521729077108694, 0.0744473983423890138387267338929, 0.0248240989290552905179165303957)),
    (-0.001, 1e-09, (4.21636683877801315318447313562e-11, 1.68654519347889646483855844654e-17, 4.21636515138954635546632871026e-11)),
    (0.3, 1e-09, (1.50917229739602130220060750977, 1.04481158924739154257487369014, 0.377293075606543501650028334657)),
    (0.2, 0.0, (1.2825498301618641252089603529, 0.908472796364653752884269917199, 0.320637457540466031302240088224)),
    (0.2, -0.2, (0.906899682117108946273308047814, 0.755749735097590786813067629929, 0.113362460264638618284163505977)),
    (-1.0, 1.0, (0.57079632679489661923132169164, 0.118731496730781642948994179153, 0.39269908169872415480783042291)),
    (-1.0, 0.5, (0.288150375758711316267136695442, 0.0393186277035708397038136274089, 0.229172434203355056711416254328)),
    (-0.9, 0.5, (0.310761055794549216032805403786, 0.0455672812789864411943441496086, 0.244030210656520232795880463202)),
    (-1.5, 0.8, (0.354158294017813415469409505713, 0.0502927909282282446437884723228, 0.271070443803238219069083221471)),
    (1.2e-11, 1.0, (1.5707963271049677589917276242, 0.785398163701519449376066778095, 0.642699081701724154806936209632)),
    (-1.2e-11, 0.7, (1.39339672198670504222521518642, 0.696698360816613309123029301649, 0.594425658976788258255084972104)),
]

# (b, a rows) of the corners the closed form branches on
_N4_CORNERS = [
    (0.45, 0.45 * (1.0 + np.array([0.0, -1e-8, 1e-8, -1e-3, 1e-3, 0.3]))),
    (0.3, np.array([0.4, 0.3 * (1.0 - 1e-6), 0.36, -0.9, -1.0 + 1e-9])),
    (1e-9, np.array([-0.3, -1e-3, -1e-6, -1.1e-11, 1.1e-11, 1e-6, 1e-3, 0.3])),
    (0.0, np.array([-0.2, 1e-6, 0.2, 0.5])),
    (-0.2, np.array([-0.2, 1e-9, 0.2, 0.9])),
    (1.0, np.array([-1.5, -1.0 - 1e-9, -1.0, -1.0 + 1e-9, -1.0000001e-11, 1.0000001e-11, 2e-11])),
    (0.5, np.array([-1.0, -0.9, -1.2e-11, 1.2e-11])),
]


def _n4_quad_cases(case):
    if case == "floor_grid":
        a, b = _floor_grid(4)
        return [(b_cos, a) for b_cos in b[::5]]
    return _far_root_rows() if case == "far_root" else _N4_CORNERS


class TestClosedFormN4:
    def test_matches_mpmath(self):
        got = np.array([_kernels.row_reductions(np.array([a]), b, 4, None, None)[0] for a, b, _ in _MP_N4])
        want = np.array([r for _, _, r in _MP_N4])
        assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()

    @pytest.mark.parametrize("case", ["floor_grid", "far_root", "corners"])
    def test_matches_quad(self, case):
        # norm-wise per b: the floor grid is every (a, b) a normal form with
        # |delta| < 1/2 gives the kernel, the far-root rows are those of
        # TestLastAngleNodes, and the corners are the branch points that
        # _MP_N4 samples
        for b, a in _n4_quad_cases(case):
            got = _kernels.row_reductions(a, b, 4, None, None)
            want = np.array([_hopf_quad(x, b) for x in a])
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("b", [1.0, 0.3, 1e-9, 0.0, -0.2])
    def test_snap_is_the_touch_bit_for_bit(self, b):
        # |a| < 1e-11 is an exact touch: the a ln|a| response of the closed
        # form would otherwise turn rounding noise at delta = 0 into a seed
        # of the unstable fixed point
        R = _kernels.row_reductions(np.array([0.0, 9e-12, -9e-12, 1e-13, -0.0]), b, 4, None, None)
        assert all(np.array_equal(row, R[0]) for row in R)

    def test_general_quadratic_with_small_b(self):
        # b = 1e-9 puts a layer of width sqrt(b / a) on the last angle, on
        # which the 32-node rule of 0.7.0 was 2.9e-11 off; the reference
        # integrates _hopf_quad over the prefix circle
        p = HarmonicQuadratic(4, np.diag([0.9, 0.1 - 1e-9, 1e-9, -1.0]))
        c1, c2, b = 0.9, 0.1 - 1e-9, 1e-9

        def columns(psi):
            z1, z2 = math.cos(psi) ** 2, math.sin(psi) ** 2
            r = _hopf_quad(c1 * z1 + c2 * z2, b)
            squares = [z1 * r[1], z2 * r[1], r[2]]
            return np.array([r[0], *squares, r[0] - sum(squares)])

        want = 4.0 * quad_vec(columns, 0.0, 0.5 * math.pi, epsabs=1e-13, epsrel=0.0)[0]
        rule = sphere.build_rule(4, 64)
        got = [sphere.integrate_indicator_quadratic(rule, p, ax) for ax in (None, 0, 1, 2, 3)]
        assert np.abs(np.subtract(got, want)).max() <= 1e-14 * np.abs(want).max()


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
