import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, quad_vec

import blowuplab
from blowuplab import _kernels, moments, renorm, sphere
from blowuplab.errors import DomainError
from blowuplab.quadratic import HarmonicQuadratic, normal_form_diagonal

from helpers import coeff_vector


def _block(n, coeffs):
    """The kernel's columns at its default step."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    assert coeffs.shape == (n - 1,)
    return _kernels.indicator_moment_block(coeffs, _kernels.STEP)


class TestBlock:
    def test_zero_delta_is_half_sphere(self):
        out = _block(3, np.array([0.0, 1.0]))
        assert out[0] == pytest.approx(2 * math.pi, rel=1e-13)

    def test_deterministic(self):
        coeffs = np.array([1e-3, -2e-3, 1.0])
        a = _block(4, coeffs)
        b = _block(4, coeffs)
        assert np.array_equal(a, b)

    def test_column_sum_identity(self):
        # sum of x_i^2 columns equals the chi column (sum x_i^2 = 1)
        coeffs = np.array([5e-2, -1e-2, 0.96])
        out = _block(4, coeffs)
        assert out[1:].sum() == pytest.approx(out[0], rel=1e-13)

    def test_snap_floor_treats_tiny_as_touch(self):
        # below the 1e-11 floor a coefficient is an exact touch, so the
        # columns are those of a zero coefficient bit for bit
        base = _block(3, np.array([0.0, 1.0]))
        tiny = _block(3, np.array([1e-13, 1.0]))
        assert np.array_equal(base, tiny)


def _mixed_rows(n, rng):
    """60 coefficient rows at n: general ones of magnitudes 1e-14..10, so
    node counts differ and some entries snap to exact touches, and rows
    with no positive entry, whose indicator is empty."""
    mags = 10.0 ** rng.uniform(-14.0, 1.0, (60, n - 1))
    rows = np.where(rng.random((60, n - 1)) < 0.5, -mags, mags)
    rows[::7] = -np.abs(rows[::7])
    return rows


class TestBatch:
    """A stack of rows is one kernel call, each row bit for bit its own 1-D call."""

    # the ids name the steps of 0.11.0's rule in s = ln t, kept as labels:
    # the cases are STEP and STEP / 2 of the mapped rule
    @pytest.mark.parametrize("step", [_kernels.STEP, 0.5 * _kernels.STEP], ids=["0.27", "0.135"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_rows_equal_one_dimensional_calls(self, n, step):
        rows = _mixed_rows(n, np.random.default_rng(n))
        got = _kernels.indicator_moment_block(rows.reshape(3, 20, n - 1), step).reshape(60, n + 1)
        for row, out in zip(rows, got):
            assert np.array_equal(out, _kernels.indicator_moment_block(row, step))
        counts = {_node_count(lam, step) for lam in _live_rows(rows)}
        # slices of several bucketed node counts; at n = 8 each row has both
        # an entry near 10 and one near the snap, so only the two widest occur
        assert len(counts) >= (2 if n == 8 else 3)
        assert (np.abs(rows) < _kernels.SNAP_EPS).any()
        assert not got[::7].any()  # the rows with no positive entry

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_normal_form_rows_equal_moment_sets(self, n):
        # a sweep step's rows, of 65 and 97 nodes at n = 4, mixed in one block
        deltas = np.random.default_rng(1).uniform(-0.1, 0.1, (40, n - 2))
        deltas[:3] = 0.0
        deltas[3, 0] = 4e-12  # snaps to the touch
        b, b_i, c, c_i = moments.moment_block(normal_form_diagonal(deltas))
        for j, delta in enumerate(deltas):
            m = moments.compute_moments(delta, n)
            assert m.B == b[j] and m.C == c[j]
            assert np.array_equal(m.B_i, b_i[j]) and np.array_equal(m.C_i, c_i[j])

    def test_all_empty_rows(self):
        rows = -np.abs(np.random.default_rng(3).uniform(0.0, 1.0, (9, 4)))
        assert np.array_equal(_kernels.indicator_moment_block(rows, _kernels.STEP), np.zeros((9, 6)))

    def test_working_set_is_bounded(self):
        # unsliced, 4,000 n = 4 rows of 65-97 nodes make 12 MB temporaries;
        # in slices of BLOCK_ELEMS the peak grows by well under 1 KB a row
        # (the output and per-row bookkeeping) beyond a few slices
        rng = np.random.default_rng(2)

        def peak(count):
            rows = coeff_vector(rng.uniform(-0.1, 0.1, (count, 2)))
            tracemalloc.start()
            try:
                _kernels.indicator_moment_block(rows, _kernels.STEP)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2000), peak(4000)
        per_row = (large - small) / 2000
        assert per_row < 1024
        assert small - 2000 * per_row < 16 * 8 * _kernels.BLOCK_ELEMS


class TestScratch:
    # the kernel keeps no state between calls (0.8.0 kept scratch buffers),
    # so what it returns is its own and threads give the serial bits

    def test_result_survives_next_call(self):
        first = _block(4, coeff_vector(np.array([3e-2, -1e-2])))
        kept = first.copy()
        _block(5, coeff_vector(np.array([1e-2, -5e-3, 2e-3])))
        _block(4, coeff_vector(np.array([0.05, 1e-10])))
        assert np.array_equal(first, kept)
        assert np.array_equal(_block(4, coeff_vector(np.array([3e-2, -1e-2]))), kept)

    def test_threads_match_serial(self):
        cases = [
            (3, [1e-5]),
            (4, [3e-2, -1e-2]),
            (4, [0.05, 1e-10]),
            (4, [-0.1436, -4.9e-6]),
            (5, [1e-2, -5e-3, 2e-3]),
            (6, [2e-2, -1e-2, 5e-3, -3e-3]),
        ]
        coeffs = [coeff_vector(np.array(d)) for n, d in cases]

        def columns(k):
            return sphere.indicator_moment_columns(cases[k][0], coeffs[k])

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


def _norm_err(got, want):
    return np.abs(np.subtract(got, want)).max() / np.abs(want).max()


def _n2_closed_form(c1):
    """n = 2: chi_{c1 x^2 > y^2} on the circle is four arcs; each column is elementary."""
    if c1 <= 0.0:
        return np.zeros(3)
    st = 1.0 / math.sqrt(1.0 + c1)
    ct = math.sqrt(c1) * st
    j0 = 2.0 * math.atan(math.sqrt(c1))  # pi - 2 asin(st), without its cancellation
    j2 = ct * st + 0.5 * j0
    return 2.0 * np.array([j0, j2, j0 - j2])


def _n3_quad(c1, c2):
    """n = 3 columns: the polar angle in closed form, the azimuth by scipy quad.

    With x = (sin(psi) cos(phi), sin(psi) sin(phi), cos(psi)) and
    A(phi) = c1 cos^2(phi) + c2 sin^2(phi), p > 0 is |cos(psi)| < c with
    c = sqrt(A / (1 + A)) where A > 0, so the psi-integrals of sin(psi)
    times 1, sin^2(psi) and cos^2(psi) are 2c, 2c - 2c^3/3 and 2c^3/3.
    A quarter of the azimuth (times 4) is broken at the root of A, so that
    its sqrt kink is an endpoint, and at l 10^k from an end where A is
    small, with l = sqrt(|A(end) / A''(end)|) the width of the layer there.
    """

    def columns(phi):
        cos2 = math.cos(phi) ** 2
        big_a = c1 * cos2 + c2 * (1.0 - cos2)
        if big_a <= 0.0:
            return np.zeros(4)
        c = math.sqrt(big_a / (1.0 + big_a))
        side = 2.0 * c - 2.0 * c**3 / 3.0
        return np.array([2.0 * c, side * cos2, side * (1.0 - cos2), 2.0 * c**3 / 3.0])

    breaks = {0.0, 0.5 * math.pi}
    if c1 * c2 < 0.0:
        breaks.add(math.atan(math.sqrt(-c1 / c2)))
    for end, at, other in ((0.0, c1, c2), (0.5 * math.pi, c2, c1)):
        if 0.0 < abs(at) < abs(other):
            d = math.sqrt(abs(at / other)) * 10.0 ** np.arange(13)
            breaks.update(abs(end - d[d < 0.25 * math.pi]))
    breaks = sorted(breaks)
    out = np.zeros(4)
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        for k in range(4):
            out[k] += quad(lambda phi: columns(phi)[k], lo, hi, epsabs=1e-15, epsrel=0.0, limit=200)[0]
    return 4.0 * out


def _hopf_integrand(phi, a, b):
    """The u-integrals of chi_{p>0} times 1, 1 - u and u cos^2(phi) at fixed phi.

    In Hopf coordinates x = (cos(alpha) z, sin(alpha) (cos(phi), sin(phi)))
    of S^3, with z on the prefix circle and u = sin^2(alpha), the area
    element is du dz dphi / 2 and p = a (1 - u) + B u, with
    a = c1 z_1^2 + c2 z_2^2 and B = b cos^2(phi) - sin^2(phi).  So the u-set
    is [0, 1], empty, or an interval ending at u* = a / (a - B).
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
    """`_hopf_integrand` times the area element's 1/2 over phi in [0, 2 pi), by scipy quad.

    phi in [0, 2 pi) is four mirror images of [0, pi/2], hence the factor 2.

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


def _n4_quad(c1, c2, b):
    """n = 4 columns: `_hopf_quad` integrated over the prefix circle by scipy quad_vec.

    The prefix angle psi carries a = c1 cos^2(psi) + c2 sin^2(psi); a quarter
    of it (times 4) is broken where a changes sign, the a ln|a| kink.
    """

    def columns(psi):
        z1, z2 = math.cos(psi) ** 2, math.sin(psi) ** 2
        r = _hopf_quad(c1 * z1 + c2 * z2, b)
        squares = [z1 * r[1], z2 * r[1], r[2]]
        return np.array([r[0], *squares, r[0] - sum(squares)])

    points = [math.atan(math.sqrt(-c1 / c2))] if c1 * c2 < 0.0 else None
    return 4.0 * quad_vec(columns, 0.0, 0.5 * math.pi, epsabs=1e-13, epsrel=0.0, points=points)[0]


_N3_DELTAS = [1e-10, 1e-7, -1e-5, 1e-3, -0.02, 0.3, -0.45]
_N4_DELTAS = [(1e-7, 0.0), (1e-3, 1e-3), (0.2, 0.2), (-0.2, -0.1), (0.3, 0.1), (-0.1436, -4.9e-6)]

# `_n4_quad(*coeff_vector(delta))` for deltas of both signs, printed with
# repr: quad_vec subdivides toward the a ln|a| kink at the root of the prefix
# angle, which takes 7-38 s a delta, so these are kept as constants.
_N4_QUAD = {
    (3e-2, -1e-2): [10.078459259412956, 2.7001254083219877, 2.4436296889671394, 4.03656458805528, 0.8981395740685505],
    (0.3, -0.1): [10.567753085790626, 3.450737396928051, 2.219236876393244, 3.9552906242796624, 0.9424881881896691],
    (1e-4, -3e-5): [9.871589695721058, 2.4693879923619995, 2.467399502824843, 4.038197379997433, 0.8966048205367848],
    (-0.05, 0.02): [9.613371108811167, 2.145397979781913, 2.5328363042954383, 4.034709251200936, 0.9004275735328873],
}


class TestIndependentReferences:
    @pytest.mark.parametrize("c1", [-0.5, 0.0, 1e-12, 1e-9, 1e-3, 0.5, 1.0, 4.0])
    def test_n2_closed_form(self, c1):
        # the closed form that n = 2 took before it joined the one path;
        # 1e-12 is below the snap, so it is the empty indicator
        want = _n2_closed_form(0.0 if abs(c1) < _kernels.SNAP_EPS else c1)
        got = sphere.indicator_moment_columns(2, np.array([c1]))
        assert np.abs(got - want).max() <= 1e-15 * 2 * math.pi

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 12])
    def test_zero_delta_matches_analytic(self, n):
        b0, bi0 = moments.analytic_baseline(n)
        got = sphere.indicator_moment_columns(n, coeff_vector(np.zeros(n - 2)))
        assert _norm_err(got, -np.concatenate([[b0], bi0])) <= 1e-15

    # quad reports roundoff against its 1e-15 absolute request beside the
    # sqrt kink, well under the 1e-14 relative tolerance checked here
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("delta", _N3_DELTAS)
    def test_n3_matches_quad(self, delta):
        c1, c2 = coeff_vector(np.array([delta]))
        got = sphere.indicator_moment_columns(3, np.array([c1, c2]))
        assert _norm_err(got, _n3_quad(c1, c2)) <= 1e-14

    @pytest.mark.parametrize("delta", _N4_DELTAS)
    def test_n4_matches_quad(self, delta):
        coeffs = coeff_vector(np.array(delta))
        got = sphere.indicator_moment_columns(4, coeffs)
        assert _norm_err(got, _n4_quad(*coeffs)) <= 1e-14

    @pytest.mark.parametrize("delta", sorted(_N4_QUAD))
    def test_n4_matches_stored_quad(self, delta):
        got = sphere.indicator_moment_columns(4, coeff_vector(np.array(delta)))
        assert _norm_err(got, _N4_QUAD[delta]) <= 1e-14


def _floor_grid(n):
    """(a, b) with a log-spaced in +-[1.1e-11, 1/2] and b in 1 +- sqrt(n-2)/2."""
    mag = np.logspace(math.log10(1.1e-11), math.log10(0.5), 60)
    half = 0.5 * math.sqrt(n - 2)
    return np.concatenate([-mag[::-1], mag]), np.linspace(1.0 - half, 1.0 + half, 21)


def _far_root_rows():
    """(b, a rows) around a = -b/2 (b > 0) and a = -2b (b < 0), per b."""
    rel = np.array([-0.3, -0.05, -1e-3, -1e-9, 0.0, 1e-9, 1e-3, 0.05, 0.3])
    return [(b, (-0.5 * b if b > 0 else -2.0 * b) * (1.0 + rel)) for b in (0.6, 0.8, 1.0, -0.1, -0.2)]


def _hopf_columns(r):
    """The n = 4 columns of coeffs (a, a, b) from R(a; b) = `_hopf_quad(a, b)`.

    With both prefix coefficients a, p does not depend on the prefix angle,
    so the circle contributes its length 2 pi to the chi column and pi to
    each x_1^2, x_2^2 column (the mean of cos^2 is 1/2); R's third entry is
    the x_3^2 column per unit prefix length.
    """
    r0, r1, r2 = r
    return np.array([2.0 * math.pi * r0, math.pi * r1, math.pi * r1,
                     2.0 * math.pi * r2, 2.0 * math.pi * (r0 - r1 - r2)])


_HALF_SQRT2 = 0.5 * math.sqrt(2.0)

# (a, b, R(a; b)) at n = 4 from mpmath 1.3.0 at 40 digits, printed to 30:
# mp.quad over phi of `_hopf_integrand`, broken at phi0 and at phi0 +- |a|
# 10^k on the live side as in `_hopf_quad`; `_hopf_columns` turns each into
# the columns of coeffs (a, a, b).  Rows: the ends and middle of
# `_floor_grid(4)`; a = b and |a - b| small; b = 1e-9; b <= 0; a = -1 and
# a < -1; |a| just above the 1e-11 snap.
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

# (b, a rows) of the corners where the u-set of `_hopf_integrand` changes shape
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
    # n = 4 checks; `_hopf_quad` is the closed form in u of Hopf coordinates

    def test_matches_mpmath(self):
        # the formula to the references' digits at half the step, and the
        # default step's trapezoid error on top, on these O(1) coefficients
        want = np.array([_hopf_columns(r) for _, _, r in _MP_N4])
        for step, tol in ((0.5 * _kernels.STEP, 2e-15), (_kernels.STEP, 1e-14)):
            got = np.array([_kernels.indicator_moment_block(np.array([a, a, b]), step) for a, b, _ in _MP_N4])
            assert _norm_err(got, want) <= tol

    @pytest.mark.parametrize("case", ["floor_grid", "far_root", "corners"])
    def test_matches_quad(self, case):
        # norm-wise per b, coeffs (a, a, b): the floor grid spans prefix
        # values a normal form with |delta| < 1/2 gives, the far-root rows
        # put the u-set's end u* near the far side, and the corners are the
        # shapes that _MP_N4 samples
        for b, a in _n4_quad_cases(case):
            got = np.array([_block(4, [x, x, b]) for x in a])
            want = np.array([_hopf_columns(_hopf_quad(x, b)) for x in a])
            assert _norm_err(got, want) <= 1e-14

    @pytest.mark.parametrize("b", [1.0, 0.3, 1e-9, 0.0, -0.2])
    def test_snap_is_the_touch_bit_for_bit(self, b):
        # a coefficient within 1e-11 of 0 is an exact touch: its a ln|a|
        # response would otherwise turn rounding noise at delta = 0 into a
        # seed of the unstable fixed point
        cols = [_block(4, np.array([a, 0.3, b])) for a in (0.0, 9e-12, -9e-12, 1e-13, -0.0)]
        assert all(np.array_equal(c, cols[0]) for c in cols)

    def test_general_quadratic_with_small_b(self):
        # b = 1e-9 puts a layer of width sqrt(b / a) on the Hopf angle
        p = HarmonicQuadratic(4, np.diag([0.9, 0.1 - 1e-9, 1e-9, -1.0]))
        want = _n4_quad(0.9, 0.1 - 1e-9, 1e-9)
        got = [sphere.integrate_indicator_quadratic(p, ax) for ax in (None, 0, 1, 2, 3)]
        assert np.abs(np.subtract(got, want)).max() <= 1e-14 * np.abs(want).max()


class TestInputs:
    @pytest.mark.parametrize("n, length", [(4, 2), (4, 4), (3, 1), (5, 3)])
    def test_wrong_coeff_length_is_domain_error(self, n, length):
        with pytest.raises(DomainError, match="coeffs must have length"):
            sphere.indicator_moment_columns(n, np.full(length, 0.1))

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_only_the_negative_axis_left_is_zero(self, n):
        # every coefficient but the -1 snaps to 0, so p > 0 nowhere
        got = sphere.indicator_moment_columns(n, np.full(n - 1, 5e-12) * (-1) ** np.arange(n - 1))
        assert np.array_equal(got, np.zeros(n + 1))

    @pytest.mark.parametrize("tiny", [1e-9, -1e-9])
    def test_general_n5_quadratic_against_monte_carlo(self, tiny):
        # a coefficient of +-1e-9 beside O(1) ones; every column within 3 sigma
        diag = np.array([0.6, -0.3, 0.7, tiny, -1.0 - tiny])
        p = HarmonicQuadratic(5, np.diag(diag))
        got = [sphere.integrate_indicator_quadratic(p, ax) for ax in (None, 0, 1, 2, 3, 4)]

        def columns(x):
            sq = x * x
            chi = (sq @ diag > 0.0).astype(np.float64)
            return np.vstack([chi, chi * sq.T])

        est = sphere.mc_integrate(5, columns, 10**6, 20261019)
        assert all(abs(g - e.value) <= 3.0 * e.std_error for g, e in zip(got, est))


def _imhof_quad(coeffs):
    """The columns of `coeffs` by scipy quad_vec of Imhof's integrals in t on (0, inf).

    The integrands of `_kernels.indicator_moment_block`, divided by t, on
    decade panels from 100 times below the smallest scale 1/(2 |lambda_j|)
    to 10^8 times above the largest, then [last, inf): independent of the
    kernel's substitution s = ln t, its step and its truncation.  A single
    (last, inf) panel from 10^2 above the largest scale missed 2.5e-12 of
    the chi column at n = 5, which mpmath confirms the kernel has.
    """
    lam = np.append(np.where(np.abs(coeffs) < _kernels.SNAP_EPS, 0.0, coeffs), -1.0)

    def integrands(t):
        u = 2.0 * lam * t
        theta = 0.5 * np.arctan(u).sum()
        rho = np.prod((1.0 + u * u) ** 0.25)
        sin, cos = math.sin(theta), math.cos(theta)
        return np.concatenate([[sin], (sin + u * cos) / (1.0 + u * u)]) / (rho * t)

    scale = 0.5 / np.abs(lam[lam != 0.0])
    decades = np.arange(math.floor(math.log10(scale.min())) - 2, math.ceil(math.log10(scale.max())) + 9)
    ends = [0.0, *10.0**decades, math.inf]
    total = sum(
        quad_vec(integrands, lo, hi, epsabs=1e-17, epsrel=1e-14, limit=400)[0]
        for lo, hi in zip(ends[:-1], ends[1:])
    )
    out = 0.5 + total / math.pi
    area = sphere.surface_area(lam.size)
    return out * np.concatenate([[area], np.full(lam.size, area / lam.size)])


_TABLE_ORDERS = [(5, 64), (5, 33), (5, 30), (6, 32), (6, 15), (7, 16), (7, 14), (8, 12)]
_TABLE_DELTAS = {
    "mixed": [1e-2, -5e-3, 2e-3, -4e-3, 3e-3, -1e-3],
    "positive": [2e-2, 1e-2, 5e-3, 3e-3, 1e-3, 4e-3],
    "negative": [-2e-2, -1e-2, -5e-3, -3e-3, -1e-3, -4e-3],
    "zeros": [1e-2, 0.0, -5e-3, 0.0, 2e-3, 0.0],
    "tiny": [1e-6, -7e-7, 3e-7, -5e-7, 8e-7, -2e-7],
    "large": [0.3, 0.0, 0.0, 0.0, 0.0, 0.0],
}


@lru_cache(maxsize=None)
def _table_reference(n, kind):
    return _imhof_quad(coeff_vector(np.array(_TABLE_DELTAS[kind][: n - 2])))


class TestKernelTable:
    # the (n, order, delta) cases of the n >= 5 table of 0.8.0, which these
    # ids compared with its per-row kernel, now check the one 1-D integral
    # against `_imhof_quad`, every column (row of the kernel's output) at
    # once; the orders remain as labels only

    @pytest.mark.parametrize(
        "n, order, kind", [(n, order, kind) for n, order in _TABLE_ORDERS for kind in sorted(_TABLE_DELTAS)]
    )
    def test_matches_per_row(self, n, order, kind):
        coeffs = coeff_vector(np.array(_TABLE_DELTAS[kind][: n - 2]))
        got = sphere.indicator_moment_columns(n, coeffs)
        assert _norm_err(got, _table_reference(n, kind)) <= 1e-14

    def test_low_order_gap_is_the_kernels(self):
        # at n = 8 / order 12 the kernel of 0.8.0 was 1e-3 off at a prefix
        # row just above the snap, so the low order cost 8e-6 in the columns;
        # the integral has no order, and gives the quarter-step values to
        # its rounding floor
        n, delta = 8, np.array(_TABLE_DELTAS["tiny"])
        coeffs = coeff_vector(delta)
        got = sphere.indicator_moment_columns(n, coeffs)
        fine = _kernels.indicator_moment_block(coeffs, 0.25 * _kernels.STEP)
        assert _norm_err(got, fine) <= 6e-15

    @pytest.mark.parametrize("n, order", _TABLE_ORDERS)
    def test_zero_delta_is_one_row(self, n, order):
        # at delta = 0 only the pair (1, -1) is live: the zero coefficients
        # add exact zeros to theta and to ln(rho), so the integral is that
        # of n = 2 ("one row"), P(Q > 0) = 1/2 and every zero axis has the
        # same column to the bit
        got = sphere.indicator_moment_columns(n, coeff_vector(np.zeros(n - 2)))
        pair = _block(2, [1.0])
        area, pair_area = sphere.surface_area(n), sphere.surface_area(2)
        assert np.all(got[1 : n - 1] == got[1])
        assert got[0] / area == pytest.approx(0.5, rel=1e-15)
        assert np.abs(n * got[n - 1 :] / area - 2.0 * pair[1:] / pair_area).max() <= 1e-15
        assert got[1] * n / area == pytest.approx(0.5, rel=1e-15)


def _floor_deltas(n):
    """80 normal forms with |delta| log-spaced in [1.1e-11, 0.49], both signs."""
    mags = np.logspace(math.log10(1.1e-11), math.log10(0.49), 40)
    dirs = np.random.default_rng(n).standard_normal((mags.size, n - 2))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return np.concatenate([mags[:, None] * dirs, -mags[:, None] * dirs])


class TestLastAngleNodes:
    # the node count of 0.8.0's last-angle rule is now the trapezoid step
    # and the node range of the one integral; these ids check both

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 8])
    def test_rounding_floor(self, n):
        # STEP reaches the quarter-step values norm-wise to 6e-15 on normal
        # forms with |delta| < 1/2; a step of 0.3 does not
        def worst(step):
            errs = []
            for delta in _floor_deltas(n):
                coeffs = coeff_vector(delta)
                ref = _kernels.indicator_moment_block(coeffs, 0.25 * _kernels.STEP)
                errs.append(_norm_err(_kernels.indicator_moment_block(coeffs, step), ref))
            return max(errs)

        assert worst(_kernels.STEP) <= 6e-15 < worst(0.3)

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 8])
    def test_far_root_switch(self, monkeypatch, n):
        # the band of scales runs from the largest |lambda| to the smallest;
        # as the last coefficient b crosses 1 the -1 axis hands the band's
        # lower end to it, and the map switches.  On both sides the columns
        # reach a quarter step with SPAN + 12 to 6e-15, and they move
        # smoothly through the switch
        rel = np.array([-0.3, -0.05, -1e-3, -1e-9, 0.0, 1e-9, 1e-3, 0.05, 0.3])
        prefix = np.array([1e-2, -5e-3, 2e-3, -4e-3, 3e-3, -1e-3][: n - 2])
        rows = [np.append(prefix, 1.0 + r) for r in rel]
        got = np.array([_block(n, c) for c in rows])
        monkeypatch.setattr(_kernels, "SPAN", _kernels.SPAN + 12.0)
        ref = np.array([_kernels.indicator_moment_block(c, 0.25 * _kernels.STEP) for c in rows])
        assert _norm_err(got, ref) <= 6e-15
        kink = got[3] - 2.0 * got[4] + got[5]  # rel -1e-9, 0, 1e-9
        assert np.abs(kink).max() <= 1e-14 * np.abs(got).max()


def _live_rows(coeffs):
    """The snapped rows (-1 last) of `coeffs` (r, n-1) with a positive coefficient."""
    lam = np.where(np.abs(coeffs) < _kernels.SNAP_EPS, 0.0, coeffs)
    return [[*row, -1.0] for row in lam.tolist() if max(row) > 0.0]


def _node_map(lam, step=_kernels.STEP):
    """`_kernels._node_map` of one row (-1 last) from its largest and smallest nonzero |lambda|."""
    mags = [abs(a) for a in lam if a != 0.0]
    return _kernels._node_map(max(mags), min(mags), step)


def _node_count(lam, step=_kernels.STEP):
    return 2 * _node_map(lam, step)[2] + 1


def _widest_normal_forms(n):
    """Normal forms with |delta| just under 1/2 whose bands are widest: one
    component at the snap (or just above it) beside the largest last
    coefficient, 1 - sum(delta) up to 1 + sqrt(n-2)/2."""
    rest = np.full(n - 2, -0.4999 / math.sqrt(max(n - 3, 1)))
    out = []
    for tiny in (_kernels.SNAP_EPS, -_kernels.SNAP_EPS, 3e-11, 1e-9):
        delta = rest.copy()
        delta[0] = tiny
        out.append(delta)
    out.append(np.full(n - 2, -0.4999 / math.sqrt(n - 2)))
    return np.array(out)


class TestMappedRule:
    # the sinh-mapped trapezoid rule: s(w) = m + w + k sinh(w) on |w| <= W,
    # W rounded up to a bucket of half-counts and k refitted to it

    @pytest.mark.parametrize("step", [_kernels.STEP, 0.5 * _kernels.STEP])
    def test_nodes_finite_and_tails_end_span_past_the_band(self, step):
        # a rounded-up W with the unrefitted k runs s far past the tail,
        # where exp(s) overflows and a snapped 0 times inf is NaN; every
        # node stays finite, and both tails end SPAN past the band's scales
        rng = np.random.default_rng(11)
        for n in range(2, 9):
            coeffs = np.concatenate([
                _mixed_rows(n, rng),
                coeff_vector(_floor_deltas(n)) if n > 2 else np.empty((0, 1)),
                coeff_vector(_widest_normal_forms(n)) if n > 2 else np.empty((0, 1)),
                np.full((1, n - 1), _kernels.SNAP_EPS),
            ])
            for lam in _live_rows(coeffs):
                m, k, half = _node_map(lam, step)
                w, sinh, _ = _kernels._grid(half, step)
                s = m + w + k * sinh
                assert k > 0.0 and np.isfinite(np.exp(s)).all()
                scales = [-math.log(2.0 * abs(a)) for a in lam if a != 0.0]
                assert s[0] == pytest.approx(min(scales) - _kernels.SPAN, abs=1e-12)
                assert s[-1] == pytest.approx(max(scales) + _kernels.SPAN, abs=1e-12)
            assert np.isfinite(_kernels.indicator_moment_block(coeffs, step)).all()

    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_half_step_nests(self, n):
        # the check pass keeps STEP's map, so every other node of h/2 is a
        # node of h, bit for bit
        for lam in _live_rows(coeff_vector(_floor_deltas(n)[::7])):
            nodes = []
            for step in (_kernels.STEP, 0.5 * _kernels.STEP):
                m, k, half = _node_map(lam, step)
                w, sinh, _ = _kernels._grid(half, step)
                nodes.append(m + w + k * sinh)
            assert np.array_equal(nodes[1][::2], nodes[0])

    @pytest.mark.parametrize("n", range(3, 9))
    def test_normal_forms_take_at_most_161_nodes(self, n):
        # |delta| < 1/2 from 1.1e-11 to 0.49, and the widest bands: 65, 97,
        # 129 or 161 nodes a row, against 283-285 for the rule of 0.11.0
        counts = [_node_count(lam) for lam in _live_rows(coeff_vector(_floor_deltas(n)))]
        widest = [_node_count(lam) for lam in _live_rows(coeff_vector(_widest_normal_forms(n)))]
        assert set(counts + widest) <= {65, 97, 129, 161}
        assert max(widest) == 161 and np.median(counts) <= 129

    @pytest.mark.parametrize("n", range(2, 9))
    def test_coefficients_near_the_snap_take_bounded_nodes(self, n):
        # a coefficient between SNAP_EPS and 1e-6 widens the band of scales
        # by up to 24.6 in s; beside others in [1e-3, 1] a row takes at
        # most 161 nodes, and the count only grows as the coefficient shrinks
        tiny = np.logspace(math.log10(_kernels.SNAP_EPS), -6.0, 25)
        for other in (1e-3, 0.1, 1.0):
            coeffs = np.full((tiny.size, n - 1), other)
            coeffs[:, 0] = tiny
            counts = [_node_count(lam) for lam in _live_rows(coeffs)]
            assert len(counts) == tiny.size and max(counts) <= 161
            assert counts == sorted(counts, reverse=True)

    def test_sweep_block_takes_few_counts(self, monkeypatch):
        # a 40-cell n = 4 sweep block over the README's ranges: each step's
        # kernel call slices its rows by node count, and the rows fall into
        # at most 3 counts (283-285 nodes, 3 counts, under the rule of 0.11.0)
        seen = []
        block = _kernels.indicator_moment_block

        def spy(coeffs, step):
            if coeffs.ndim == 2:
                seen.append({_node_count(lam, step) for lam in _live_rows(coeffs)})
            return block(coeffs, step)

        monkeypatch.setattr(_kernels, "indicator_moment_block", spy)
        cfg = renorm.MapConfig(n=4)
        cells = [(t, np.array([d, 0.0])) for t in np.linspace(5, 50, 5) for d in np.linspace(0, 0.1, 8)]
        renorm._sweep_block((cells, cfg, 24))
        assert len(seen) >= 10
        assert max(map(len, seen)) <= 3


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
    def test_partition_invariant(self, n, order, delta):
        # `order` chose the prefix rule and the kernel's row blocks up to
        # 0.8.0 and is a label only since 0.10.0: the columns are one kernel
        # block, and the moment set carries their bits
        coeffs = coeff_vector(np.array(delta))
        cols = sphere.indicator_moment_columns(n, coeffs)
        assert np.array_equal(cols, _block(n, coeffs))
        m = moments.compute_moments(np.array(delta), n)
        assert m.B == -cols[0] and np.array_equal(m.B_i, -cols[1:])


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
start = DeltaState(n=4, tau=10.0, delta=np.array([0.05, -0.01]))
"""


class TestProcessFootprint:
    def test_import_loads_no_process_pool(self):
        # only a sweep on more than one worker starts processes, so an import
        # leaves their machinery unloaded; the sweep forks plain processes,
        # so even then no executor is loaded
        out = _fresh_interpreter("""
import sys
import blowuplab
print(sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent")))
import numpy as np
blowuplab.sweep([10.0, 20.0], [np.zeros(2)], blowuplab.MapConfig(n=4, C_gamma=0.0), 3, workers=2)
print(sorted(m for m in sys.modules if m.split(".")[0] == "concurrent"))
""")
        assert out == "[]\n[]"

    def test_no_scipy_import(self):
        # nothing the package computes loads scipy, so an import and a first
        # computation pay only for numpy
        out = _fresh_interpreter(_N4_START + """
import sys
renorm.half_step(start, cfg)
moments.compute_moments(np.array([1e-2, -5e-3, 2e-3]), 5)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""")
        assert out == "[]"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor faults as Linux counts them")
    def test_steady_steps_fault_nothing_in(self):
        # a step's temporaries stay far under glibc's 128 KB trim threshold
        # (the kernel's are (n, 65-97) arrays), so steady steps return no
        # memory to the OS and fault none in again
        out = _fresh_interpreter(_N4_START + """
import resource
renorm.iterate(start, cfg, 24)  # caches are built
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
steps = sum(len(renorm.iterate(start, cfg, 24).steps) for _ in range(3))
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps)
""")
        assert float(out) < 1.0

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor faults as Linux counts them")
    def test_steady_block_steps_fault_nothing_in(self):
        # a 32-cell sweep block evaluates its moments in slices of
        # BLOCK_ELEMS, small enough that steady steps fault nothing in;
        # slices of 1 << 15 elements faulted in about 275 pages a step
        out = _fresh_interpreter(_N4_START + """
import resource
cells = [(t, np.array([d, 0.0])) for t in np.linspace(5, 50, 4) for d in np.linspace(0, 0.1, 8)]
renorm._sweep_block((cells, cfg, 24))  # caches are built
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    renorm._sweep_block((cells, cfg, 24))
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 72)
""")
        assert float(out) < 1.0
