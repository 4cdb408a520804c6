import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from relaycap import (
    ChannelParams,
    DomainError,
    InvalidInput,
    NumericalError,
    capacity_full_cooperation,
    capacity_no_relay,
    capacity_upper_bound,
    compress_forward_rate,
    conditional_entropy_bound,
    cutset_bound,
    entropy_difference_bound,
    gap_certificate,
    sweep,
)
from relaycap import bounds
from relaycap.bounds import cf_quantization_variance

from oracles import brent_sup, capacity_upper_bound_always_bisect, inner_min

P11 = ChannelParams(1.0, 1.0)
# a `curves` pool point where the clamp to the certified bound changes the
# value, and keeps it strictly below C(inf)
BINDS_SNR, BINDS_C0 = 2.316564672937749, 24.828750947545497
HALF_PI = math.pi / 2
EPS = sys.float_info.epsilon


def kernel_min(p, theta):
    """(omega*, k*): the kernel's minimizer over omega and its minimum value.

    omega* = 2 asin(sqrt((1 - c*)/2)) from the closed-form 1 - c*; near pi/2
    the half-angle form can round one ulp past the interval's right end.
    """
    one_minus_c, value = inner_min(p.P, p.N, theta)
    return min(HALF_PI, 2.0 * math.asin(math.sqrt(one_minus_c / 2.0))), value


def np_kernel(P, N, theta, omega):
    """Vectorised kernel for the dense-grid oracles, in half-angle form.

    With c = cos(omega) and e = pi/2 - theta: 1 - c = 2 sin^2(omega/2) and
    sin(theta) - c = 2 sin((omega + e)/2) sin((omega - e)/2), so the grids
    can reach omega -> 0 at theta = pi/2 without cancelling.
    """
    e = HALF_PI - theta
    c = np.cos(omega)
    one_minus_c = 2 * np.sin(omega / 2) ** 2
    s_minus_c = 2 * np.sin((omega + e) / 2) * np.sin((omega - e) / 2)
    s = np.sin(theta)
    return 0.5 * np.log2(
        one_minus_c * (2 * P + N + N * c) * s * s / ((P + N) * s_minus_c * (s + c))
    )


def mp_kernel(P, N, theta, omega):
    """Arbitrary-precision re-evaluation of the kernel (independent oracle)."""
    mp.mp.dps = 50
    P, N, theta, omega = map(mp.mpf, (P, N, theta, omega))
    s_half = mp.sin(omega / 2) ** 2
    num = 4 * s_half * (P + N - N * s_half) * mp.sin(theta) ** 2
    den = (P + N) * (mp.sin(theta) ** 2 - mp.cos(omega) ** 2)
    return float(mp.log(num / den, 2) / 2)


class TestKernel:
    def test_value_at_pi_half_is_theta_free(self):
        rng = np.random.default_rng(11)
        target = 0.5 * math.log2(1.5)
        for theta in rng.uniform(0.0, HALF_PI, 20):
            theta = float(theta) or 0.1
            assert abs(entropy_difference_bound(P11, theta, HALF_PI) - target) <= 1e-12

    def test_value_at_pi_half_general_params(self):
        for P, N in [(3.0, 1.0), (0.1, 1.0), (2.0, 0.5)]:
            p = ChannelParams(P, N)
            target = 0.5 * math.log2((2 * P + N) / (P + N))
            assert abs(entropy_difference_bound(p, 0.7, HALF_PI) - target) <= 1e-12

    def test_limit_theta_pi_half_small_omega(self):
        # numerator and denominator are both quadratic in omega; value -> 0
        assert abs(entropy_difference_bound(P11, HALF_PI, 1e-4)) <= 1e-6

    def test_against_mpmath(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            theta = float(rng.uniform(0.1, HALF_PI))
            omega = float(rng.uniform(HALF_PI - theta + 0.05, HALF_PI))
            P = float(10 ** rng.uniform(-1, 1))
            N = float(10 ** rng.uniform(-1, 1))
            ours = entropy_difference_bound(ChannelParams(P, N), theta, omega)
            assert ours == pytest.approx(mp_kernel(P, N, theta, omega), abs=1e-11)

    def test_symbolic_spot_value(self):
        assert entropy_difference_bound(P11, math.pi / 3, math.pi / 3) == pytest.approx(
            mp_kernel(1, 1, math.pi / 3, math.pi / 3), abs=1e-13
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            entropy_difference_bound(P11, 0.0, 1.0)
        with pytest.raises(DomainError):
            entropy_difference_bound(P11, math.pi / 4, math.pi / 4)  # on the boundary

    def test_divergence_at_left_edge(self):
        for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
            edge = entropy_difference_bound(P11, theta, HALF_PI - theta + 1e-6)
            center = entropy_difference_bound(P11, theta, HALF_PI)
            assert edge - center > 5.0

    def test_conditional_entropy_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            theta = float(rng.uniform(0.1, HALF_PI))
            omega = float(rng.uniform(HALF_PI - theta + 0.02, HALF_PI))
            lhs = conditional_entropy_bound(P11, theta, omega)
            rhs = entropy_difference_bound(P11, theta, omega) - math.log2(math.sin(theta))
            assert abs(lhs - rhs) <= 1e-12

    def test_conditional_entropy_values(self):
        assert conditional_entropy_bound(P11, HALF_PI, HALF_PI) == pytest.approx(
            0.5 * math.log2(1.5), abs=1e-12
        )
        assert conditional_entropy_bound(P11, math.pi / 4, HALF_PI) == pytest.approx(
            0.5 * math.log2(1.5) + 0.5, abs=1e-12
        )

    def test_conditional_entropy_decreases_in_theta(self):
        omega = 1.2
        thetas = np.linspace(HALF_PI - omega + 0.05, HALF_PI, 30)
        vals = [conditional_entropy_bound(P11, float(t), omega) for t in thetas]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_conditional_entropy_minimum_vanishes_at_pi_half(self):
        _, value = kernel_min(P11, HALF_PI)
        # at theta = pi/2 the two bounds coincide (log sin = 0)
        assert abs(value) <= 1e-6


class TestMinimize:
    @pytest.mark.parametrize("theta", [0.3, 0.8, 1.3, HALF_PI])
    def test_against_dense_grid(self, theta):
        _, value = kernel_min(P11, theta)
        grid = np.linspace(HALF_PI - theta + 1e-9, HALF_PI, 1_000_000)
        dense = float(np.min(np_kernel(1.0, 1.0, theta, grid)))
        assert value <= dense + 1e-9
        assert abs(value - dense) <= 1e-7

    def test_never_exceeds_right_endpoint(self):
        for theta in (0.2, 0.7, 1.1, HALF_PI):
            _, value = kernel_min(P11, theta)
            assert value <= entropy_difference_bound(P11, theta, HALF_PI) + 1e-15

    def test_minimizer_in_open_interval(self):
        for theta in (0.4, 1.0, HALF_PI):
            omega_star, value = kernel_min(P11, theta)
            assert HALF_PI - theta < omega_star <= HALF_PI
            assert math.isfinite(value)

    def test_domain_error_at_zero(self):
        with pytest.raises(DomainError):
            kernel_min(P11, 0.0)


class TestCutset:
    def test_values(self):
        assert cutset_bound(P11, 0.2) == pytest.approx(0.7, abs=1e-12)
        assert cutset_bound(P11, math.inf) == capacity_full_cooperation(P11)
        assert cutset_bound(P11, 0.0) == capacity_no_relay(P11)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            cutset_bound(P11, -0.1)


class TestUpperBound:
    def test_zero_pipe_equals_direct_capacity(self):
        assert capacity_upper_bound(P11, 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_strictly_below_full_cooperation(self):
        ci = capacity_full_cooperation(P11)
        for c0 in (0.1, 0.5, 1.0, 2.0, 5.0):
            assert capacity_upper_bound(P11, c0) < ci

    def test_never_exceeds_cutset(self):
        for c0 in (0.05, 0.3, 1.0, 3.0):
            assert capacity_upper_bound(P11, c0) <= cutset_bound(P11, c0) + 1e-9

    def test_at_least_direct_capacity(self):
        for c0 in (0.01, 0.5, 4.0):
            assert capacity_upper_bound(P11, c0) >= capacity_no_relay(P11) - 1e-12

    def test_monotone_in_c0(self):
        vals = [capacity_upper_bound(P11, c0) for c0 in np.linspace(0.05, 4.0, 25)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_against_brute_force_grid(self):
        # Independent two-level dense-grid reference; its own resolution
        # limits agreement to ~1e-5.
        c0 = 0.5
        theta0 = math.asin(2.0 ** -c0)
        best = -math.inf
        for theta in np.linspace(theta0, HALF_PI, 2000):
            omegas = np.linspace(HALF_PI - theta + 1e-9, HALF_PI, 2000)
            inner = float(np.min(np_kernel(1.0, 1.0, float(theta), omegas)))
            best = max(best, min(c0 + math.log2(math.sin(theta)), inner))
        brute = capacity_no_relay(P11) + best
        ours = capacity_upper_bound(P11, c0)
        assert ours >= brute - 1e-9
        assert abs(ours - brute) <= 5e-5

    @pytest.mark.parametrize("snr", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("c0", [1e-300, 1e-200, 1e-100, 1e-30])
    def test_outer_sup_at_tiny_c0(self, snr, c0):
        # the sup is C0 (1 + O(C0 (1 + 1/s))), far below an ulp of C(0); the
        # closed form must still hold C(0) + sup from above
        assert_rounded_up(bounds._closed_form_bound(snr, c0), mp_closed_form(snr, c0))

    def test_infinite_c0_rejected(self):
        with pytest.raises(InvalidInput):
            capacity_upper_bound(P11, math.inf)

    def test_negative_c0_rejected(self):
        with pytest.raises(InvalidInput):
            capacity_upper_bound(P11, -1.0)


class TestGapCertificate:
    def test_derivative_closed_form(self):
        for P, N in [(1.0, 1.0), (3.0, 1.0), (0.1, 1.0)]:
            cert = gap_certificate(ChannelParams(P, N), 1.0)
            assert abs(cert.derivative_at_pi_half - P / ((2 * P + N) * math.log(2))) <= 1e-15

    def test_derivative_value_unit_snr(self):
        cert = gap_certificate(P11, 1.0)
        assert cert.derivative_at_pi_half == pytest.approx(1 / (3 * math.log(2)), abs=1e-15)

    @pytest.mark.parametrize("P,N", [(1.0, 1.0), (3.0, 1.0), (0.1, 1.0)])
    def test_finite_difference_matches_derivative(self, P, N):
        p = ChannelParams(P, N)
        theta0 = math.asin(0.5)
        step = 1e-6
        fd = (
            entropy_difference_bound(p, theta0, HALF_PI + step)
            - entropy_difference_bound(p, theta0, HALF_PI - step)
        ) / (2 * step)
        assert abs(fd - P / ((2 * P + N) * math.log(2))) <= 1e-4

    @pytest.mark.parametrize("c0", [0.3, 1.0, 10.0])
    def test_certificate_structure(self, c0):
        cert = gap_certificate(P11, c0)
        assert 0.0 < cert.delta1 < cert.theta0
        assert cert.gap_lower_bound > 0.0
        assert cert.certified_bound == pytest.approx(
            capacity_full_cooperation(P11) - cert.gap_lower_bound, abs=1e-15
        )
        # The certifying finite-difference condition holds at delta1; the
        # bisection stops exactly on the boundary, so re-evaluating in plain
        # float64 needs an allowance for differencing noise.
        h_end = entropy_difference_bound(P11, cert.theta0, HALF_PI)
        h_back = entropy_difference_bound(P11, cert.theta0, HALF_PI - cert.delta1)
        fd = (h_end - h_back) / cert.delta1
        assert abs(fd - cert.derivative_at_pi_half) <= 0.5 * cert.derivative_at_pi_half + 1e-8

    @pytest.mark.parametrize("snr", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("c0", [0.5, 2.0])
    def test_upper_bound_respects_certificate(self, snr, c0):
        p = ChannelParams.from_snr(snr)
        cert = gap_certificate(p, c0)
        ub = capacity_upper_bound(p, c0)
        assert capacity_full_cooperation(p) - ub >= cert.gap_lower_bound - 1e-6

    @pytest.mark.parametrize("c0", [20.0, 30.0, 60.0])
    def test_large_c0_certificate(self, c0):
        # The valid step scales like theta0^2, far below float differencing
        # noise of a direct difference; the log1p form must still deliver a
        # strictly positive certificate.
        cert = gap_certificate(P11, c0)
        assert 0.0 < cert.delta1 < cert.theta0
        assert cert.gap_lower_bound > 0.0

    def test_bisection_runs_only_where_the_clamp_may_bind(self, monkeypatch):
        calls = []
        real = bounds.gap_certificate

        def counted(params, c0):
            calls.append(c0)
            return real(params, c0)

        monkeypatch.setattr(bounds, "gap_certificate", counted)
        capacity_upper_bound(P11, 1.0)
        assert calls == []
        p = ChannelParams.from_snr(BINDS_SNR)
        ub = capacity_upper_bound(p, BINDS_C0)
        assert calls == [BINDS_C0]
        assert ub == real(p, BINDS_C0).certified_bound

    def test_large_c0_condition_against_mpmath(self):
        # Independent re-check of the certifying condition at 80 digits.
        cert = gap_certificate(P11, 30.0)
        mp.mp.dps = 80
        theta0 = mp.asin(mp.mpf(2) ** -30)
        half_pi = mp.pi / 2

        def kernel(omega):
            s_half = mp.sin(omega / 2) ** 2
            num = 4 * s_half * (2 - s_half) * mp.sin(theta0) ** 2
            den = 2 * (mp.sin(theta0) ** 2 - mp.cos(omega) ** 2)
            return mp.log(num / den, 2) / 2

        delta = mp.mpf(cert.delta1)
        fd = (kernel(half_pi) - kernel(half_pi - delta)) / delta
        deriv = mp.mpf(1) / (3 * mp.log(2))
        assert abs(float(fd - deriv)) <= 0.5 * float(deriv) + 1e-12


class TestHugeSnr:
    """Near float64's top the forms' products overflow before their values do."""

    @pytest.mark.parametrize("snr, c0", [
        (1e300, 1e-9),   # P / (4^C0 - 1) overflows in the sup
        (1e305, 10.0),   # (P + N)(4^C0 - 1) overflows in sigma^2
        (4.4e307, 1.0),  # just below 2(2P + N) overflowing
    ])
    def test_bound_and_rate_against_mpmath(self, snr, c0):
        p = ChannelParams.from_snr(snr)
        with mp.workdps(60):
            P, N, e = mp.mpf(p.P), mp.mpf(p.N), mp.mpf(4) ** c0 - 1
            c_star = P / ((P + N) * e + P)
            c_no_relay = mp.log(1 + P / N, 2) / 2
            bound = c_no_relay + mp.log(1 + P * (1 - c_star) / (P + N), 2) / 2
            sigma2 = N * (2 * P + N) / ((P + N) * e)
            rate = mp.log(1 + P / N + P / (N + sigma2), 2) / 2
            ub = capacity_upper_bound(p, c0)
            # not below the correctly rounded bound (the float cut-set clamp,
            # C(0) + C0 rounded to nearest, can sit half an ulp under the exact
            # one at tiny C0), and above it by at most the form's round-up
            assert float(bound) <= ub <= round_up_limit(bound)
            assert abs(compress_forward_rate(p, c0) - rate) <= 4 * EPS * rate
        assert gap_certificate(p, c0).gap_lower_bound > 0

    @pytest.mark.parametrize("P, N", [
        (1e308, 1.0), (2.0 ** 1022, 1.0), (1e300, 1e-10),
        (1e-300, 1e300),  # P/N underflows to 0
    ])
    def test_overflowing_snr_is_numerical(self, P, N):
        with pytest.raises(NumericalError, match="SNR"):
            ChannelParams(P, N)

    @pytest.mark.parametrize("scale", [3e307, 1.7e308, 1e-300])
    def test_only_the_snr_enters(self, scale):
        # SNR 1 with P and N near float64's ends, where 2(2P + N) or 2P
        # overflows: every rate equals SNR 1's at unit noise, bit for bit
        big, unit = ChannelParams(scale, scale), ChannelParams.from_snr(1.0)
        assert capacity_full_cooperation(big) == capacity_full_cooperation(unit)
        assert entropy_difference_bound(big, 1.0, 1.2) == entropy_difference_bound(unit, 1.0, 1.2)
        for c0 in (1.0, 4.0, 10.0):
            assert capacity_upper_bound(big, c0) == capacity_upper_bound(unit, c0)
            assert compress_forward_rate(big, c0) == compress_forward_rate(unit, c0)
            assert gap_certificate(big, c0) == gap_certificate(unit, c0)
            assert cf_quantization_variance(big, c0) == pytest.approx(
                scale * cf_quantization_variance(unit, c0), rel=4 * EPS)


class TestCompressForward:
    def test_limits(self):
        assert compress_forward_rate(P11, 0.0) == capacity_no_relay(P11)
        assert compress_forward_rate(P11, math.inf) == capacity_full_cooperation(P11)
        # large pipe approaches full cooperation from below
        assert compress_forward_rate(P11, 30.0) == pytest.approx(
            capacity_full_cooperation(P11), abs=1e-9
        )

    def test_continuous_at_tiny_c0(self):
        # 2^(2 C0) - 1 must not cancel to zero for subnormal C0
        for c0 in (1e-300, 5e-324, 1e-18):
            assert compress_forward_rate(P11, c0) == pytest.approx(
                capacity_no_relay(P11), abs=1e-12
            )

    def test_quantization_fills_the_pipe_exactly(self):
        # Oracle: with Var(Zhat | Y) = (N(2P+N) + s2(P+N)) / (P+N), the bin
        # rate (1/2) log2(Var(Zhat|Y) / s2) must equal C0.
        rng = np.random.default_rng(21)
        for _ in range(60):
            P = float(10 ** rng.uniform(-1, 1))
            N = float(10 ** rng.uniform(-1, 1))
            c0 = float(rng.uniform(0.05, 6.0))
            s2 = cf_quantization_variance(ChannelParams(P, N), c0)
            var_given_y = (N * (2 * P + N) + s2 * (P + N)) / (P + N)
            assert 0.5 * math.log2(var_given_y / s2) == pytest.approx(c0, abs=1e-12)

    def test_specific_value(self):
        # P = N = 1, C0 = 1: s2 = 3 / (2 * 3) = 0.5, rate = (1/2) log2(2 + 1/1.5)
        s2 = cf_quantization_variance(P11, 1.0)
        assert s2 == pytest.approx(0.5, abs=1e-14)
        assert compress_forward_rate(P11, 1.0) == pytest.approx(
            0.5 * math.log2(2.0 + 1.0 / 1.5), abs=1e-14
        )

    def test_monotone_in_c0(self):
        vals = [compress_forward_rate(P11, c0) for c0 in np.linspace(0.0, 6.0, 50)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_below_both_bounds(self):
        for c0 in (0.1, 0.7, 2.0):
            cf = compress_forward_rate(P11, c0)
            assert cf <= capacity_upper_bound(P11, c0) + 1e-9
            assert cf <= cutset_bound(P11, c0) + 1e-12


class TestSweep:
    def test_families_and_order(self):
        grid = [0.2, 0.5, 1.0]
        rows = sweep(P11, grid)
        assert [row[0] for row in rows] == grid
        for c0, cutset, new_bound, cf_rate in rows:
            assert cutset == cutset_bound(P11, c0)
            assert new_bound == capacity_upper_bound(P11, c0)
            assert cf_rate == compress_forward_rate(P11, c0)

    def test_singleton_grid(self):
        rows = sweep(P11, [1.0])
        assert len(rows) == 1 and len(rows[0]) == 4

    def test_grid_validation(self):
        with pytest.raises(InvalidInput):
            sweep(P11, [])
        with pytest.raises(InvalidInput):
            sweep(P11, [0.5, 0.5])
        with pytest.raises(InvalidInput):
            sweep(P11, [0.5, math.inf])
        with pytest.raises(InvalidInput):
            sweep(P11, [-1.0, 0.5])
        assert sweep(P11, [0.0])[0][0] == 0.0

    def test_point_failure_names_offender(self, monkeypatch):
        def boom(params, c0):
            if c0 == 0.5:
                raise FloatingPointError("synthetic")
            return capacity_full_cooperation(params)

        monkeypatch.setattr(bounds, "capacity_upper_bound", boom)
        with pytest.raises(NumericalError, match="C0=0.5"):
            sweep(P11, [0.25, 0.5])


# ---------------------------------------------------------------------------
# Property tests over the domain edges
# ---------------------------------------------------------------------------

# The closed form is never below the true, monotone bound and at most 10 eps
# relative above it, and the bound is at most C(0) + C0; so two evaluations
# come out of order by less than twice this.
def _rounding(c0, params):
    return 8 * EPS * (1 + c0 + capacity_no_relay(params))


def _snr(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


def mp_kstar(P, N, theta):
    """k*(theta) from the exact smaller root c* of the stationarity quadratic."""
    s, co = mp.sin(theta), mp.cos(theta)
    b = 2 * P + N * co ** 2
    c = (b - co * mp.sqrt(4 * P * (P + N) + N ** 2 * co ** 2)) / (2 * P)
    return mp.log((1 - c) * (2 * P + N + N * c) * s ** 2 / ((P + N) * (s ** 2 - c ** 2)), 2) / 2


def mp_outer_sup(P, N, c0):
    """The bound's sup to 60 digits: the crossing of C0 + log2 sin and k*.

    Below C0 = 1 the working precision grows by the digits that
    2^-C0 = 1 - O(C0) spends on its leading nines.
    """
    if c0 == 0:
        return mp.mpf(0)
    with mp.workdps(60 + max(0, -math.floor(math.log10(c0)))):
        P, N, c0 = mp.mpf(P), mp.mpf(N), mp.mpf(c0)
        theta0 = mp.asin(mp.mpf(2) ** -c0)
        hi = mp.asin(min(mp.mpf(1), mp.mpf(2) ** (mp_kstar(P, N, theta0) - c0)))
        root = mp.findroot(
            lambda t: c0 + mp.log(mp.sin(t), 2) - mp_kstar(P, N, t),
            (theta0, hi), solver="anderson",
        )
        return c0 + mp.log(mp.sin(root), 2)


def mp_upper_bound(P, N, c0):
    """The bound at 60 digits, C(0) + the sup, before any rounding or clamp."""
    with mp.workdps(60):
        return mp.log(1 + mp.mpf(P) / mp.mpf(N), 2) / 2 + mp_outer_sup(P, N, c0)


def mp_closed_form(s, c0):
    """1/2 log2(1 + s (2 - c*)) at 90 digits, c* = s / ((s + 1)(4^C0 - 1) + s).

    4^C0 - 1 is taken as expm1: at 90 digits 4^C0 - 1 loses C0 below ~1e-90.
    """
    with mp.workdps(90):
        s, e = mp.mpf(s), mp.expm1(2 * mp.mpf(c0) * mp.log(2))
        return mp.log1p(s * (2 - s / ((s + 1) * e + s))) / (2 * mp.log(2))


def mp_gap(s, c0):
    """The exact gap C(inf) - bound = -log1p(-s c* / (1 + 2s)) / (2 ln 2), 90 digits."""
    with mp.workdps(90):
        s, e = mp.mpf(s), mp.expm1(2 * mp.mpf(c0) * mp.log(2))
        return -mp.log1p(-s * (s / ((s + 1) * e + s)) / (1 + 2 * s)) / (2 * mp.log(2))


def round_up_limit(exact):
    """Highest value the rounded-up closed form may take: its 1 + 5 eps round-up
    of the exact value, plus 3 ulps for the float error it rounds up from."""
    return exact * (1 + 5 * EPS) + 3 * math.ulp(float(exact))


def assert_rounded_up(value, exact):
    assert exact <= mp.mpf(value) <= round_up_limit(exact), float(mp.mpf(value) / exact - 1)


def mp_delta1(P, N, c0):
    """Certificate step by bisection in log delta at C0-scaled precision."""
    with mp.workdps(max(50, int(0.7 * c0) + 30)):
        P, N = mp.mpf(P), mp.mpf(N)
        theta0 = mp.asin(mp.mpf(2) ** -mp.mpf(c0))
        deriv = P / ((2 * P + N) * mp.log(2))

        def kernel(omega):
            s_half = mp.sin(omega / 2) ** 2
            num = 4 * s_half * (P + N - N * s_half) * mp.sin(theta0) ** 2
            return mp.log(num / ((P + N) * (mp.sin(theta0) ** 2 - mp.cos(omega) ** 2)), 2) / 2

        def holds(delta):
            fd = (kernel(mp.pi / 2) - kernel(mp.pi / 2 - delta)) / delta
            return abs(fd - deriv) <= deriv / 2

        lo, hi = mp.log(theta0 ** 2 * P / (2 * P + N) * mp.mpf("1e-6")), mp.log(theta0)
        assert holds(mp.exp(lo)) and not holds(mp.exp(hi) * (1 - mp.mpf("1e-30")))
        while hi - lo > mp.mpf("1e-20"):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if holds(mp.exp(mid)) else (lo, mid)
        return mp.exp(lo)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(snr=_snr(-6, 6))
    def test_kstar_nonincreasing_in_theta(self, snr):
        p = ChannelParams.from_snr(snr)
        thetas = np.linspace(HALF_PI / 4000, HALF_PI, 4000)
        vals = [kernel_min(p, float(t))[1] for t in thetas]
        rises = np.diff(vals)
        assert np.all(rises <= 8 * EPS), float(np.max(rises))

    @settings(max_examples=200, deadline=None)
    @given(
        snr=_snr(-6, 6),
        theta=st.floats(0.0, HALF_PI, exclude_min=True),
        u=st.floats(0.0, 1.0, exclude_min=True),
    )
    # theta below half an ulp of pi/2, where the float HALF_PI - theta rounds
    # up to HALF_PI
    @example(snr=1.0, theta=9.610770977609913e-17, u=1.0)
    def test_kstar_below_kernel(self, snr, theta, u):
        p = ChannelParams.from_snr(snr)
        omega = HALF_PI - (1.0 - u) * theta
        try:
            k = entropy_difference_bound(p, theta, omega)
        except DomainError:
            assume(False)
        omega_star, value = kernel_min(p, theta)
        # the interval check in exact rational arithmetic on these floats
        assert Fraction(HALF_PI) - Fraction(theta) < Fraction(omega_star) <= Fraction(HALF_PI)
        assert value <= k + 8 * EPS * (1 + abs(k))

    @settings(max_examples=200, deadline=None)
    @given(snr=_snr(-6, 6), c0=st.floats(0.0, 1e3))
    # C(0) + C0 at the edge of float resolution, and a compress-and-forward
    # rate within a few thousand ulps of the certified bound
    @example(snr=1000.0, c0=2.0 ** -52)
    @example(snr=10.0 ** -3.859375, c0=19.5)
    # beyond C0 ~ 1075, where 2^-C0 underflows and the bound is the cut-set bound
    @example(snr=1.0, c0=1100.0)
    def test_ordering(self, snr, c0):
        p = ChannelParams.from_snr(snr)
        ub = capacity_upper_bound(p, c0)
        assert compress_forward_rate(p, c0) <= ub <= cutset_bound(p, c0)

    @settings(max_examples=300, deadline=None)
    @given(
        snr=_snr(-300, 300),
        c0=st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
                     st.floats(0.0, 60.0)),
    )
    @example(snr=BINDS_SNR, c0=BINDS_C0)
    # theta0 = asin(2^-C0) underflows to 0
    @example(snr=1.0, c0=1075.0)
    @example(snr=1.0, c0=5e-324)
    # a guard of 0.23, near the 1/2 from which the bisection always runs
    @example(snr=1e-12, c0=2e-13)
    def test_same_bits_as_always_bisect(self, snr, c0):
        p = ChannelParams.from_snr(snr)

        def outcome(f):
            try:
                return f(p, c0).hex()
            except Exception as exc:
                return type(exc), str(exc)

        assert outcome(capacity_upper_bound) == outcome(capacity_upper_bound_always_bisect)

    @settings(max_examples=100, deadline=None)
    # below C0 ~ 1e-60 the oracle's root-find in theta stalls within
    # sqrt(C0) of pi/2; TestUpperBound::test_outer_sup_at_tiny_c0 covers it
    @given(snr=_snr(-6, 6), c0=st.one_of(st.just(0.0), st.floats(1e-60, 60.0)))
    def test_outer_sup_against_mpmath_and_brent(self, snr, c0):
        # the closed form against the sup found as the crossing of
        # C0 + log2 sin(theta) and the kernel's minimum, by two root-finds
        p = ChannelParams.from_snr(snr)
        ours = bounds._closed_form_bound(snr, c0)
        assert_rounded_up(ours, mp_upper_bound(p.P, p.N, c0))
        assert abs(ours - capacity_no_relay(p) - brent_sup(p.P, p.N, c0)) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        snr=st.floats(-300.0, math.log10(4.4e307)).map(lambda e: 10.0 ** e),
        c0=st.one_of(st.sampled_from([0.0, 5e-324, 1075.0]),
                     st.floats(-300.0, 3.0).map(lambda e: 10.0 ** e), st.floats(0.0, 60.0)),
    )
    # (s + 1)(4^C0 - 1) overflows, which s / ((s + 1)(4^C0 - 1) + s) would not survive
    @example(snr=1e305, c0=10.0)
    def test_closed_form_against_mpmath(self, snr, c0):
        # before the clamps: never below the exact value, and above it by no
        # more than the proven round-up
        assert_rounded_up(bounds._closed_form_bound(snr, c0), mp_closed_form(snr, c0))

    @settings(max_examples=200, deadline=None)
    @given(snr=_snr(-6, 6), c0=st.floats(0.01, 40.0))
    def test_certified_gap_below_exact_gap(self, snr, c0):
        cert = gap_certificate(ChannelParams.from_snr(snr), c0)
        assert mp.mpf(cert.gap_lower_bound) <= mp_gap(snr, c0)

    @pytest.mark.xfail(
        strict=True,
        reason="below SNR ~1e-8 the certificate's log1p terms cancel to ~2sc and its "
        "gap can exceed the exact one (1.44e-4 relative here); see ROADMAP item 2",
    )
    @settings(max_examples=100, deadline=None)
    @given(snr=_snr(-12, -6), c0=st.floats(0.01, 40.0))
    @example(snr=1.1510259745384709e-12, c0=37.94588580451066)
    def test_certified_gap_below_exact_gap_at_low_snr(self, snr, c0):
        cert = gap_certificate(ChannelParams.from_snr(snr), c0)
        assert mp.mpf(cert.gap_lower_bound) <= mp_gap(snr, c0)

    @pytest.mark.xfail(
        strict=True,
        reason="where the certified gap falls below half an ulp of C(inf) (SNR 1e-4, "
        "C0 >= ~19.4) the bound rounds to C(inf); see CHANGES.md",
    )
    @settings(max_examples=200, deadline=None)
    @given(snr=_snr(-4, 4), c0=st.floats(0.0, 20.0))
    @example(snr=1e-4, c0=20.0)
    def test_strictly_below_full_cooperation(self, snr, c0):
        p = ChannelParams.from_snr(snr)
        assert capacity_upper_bound(p, c0) < capacity_full_cooperation(p)

    @settings(max_examples=200, deadline=None)
    @given(snr=_snr(-6, 6), c0a=st.floats(0.0, 1e3), c0b=st.floats(0.0, 1e3))
    def test_monotone_in_c0(self, snr, c0a, c0b):
        p = ChannelParams.from_snr(snr)
        lo, hi = sorted((c0a, c0b))
        slack = 2 * _rounding(hi, p)
        assert capacity_upper_bound(p, hi) >= capacity_upper_bound(p, lo) - slack

    @settings(max_examples=30, deadline=None)
    @given(snr=_snr(-4, 4), c0=st.floats(0.01, 100.0))
    def test_delta1_against_mpmath(self, snr, c0):
        p = ChannelParams.from_snr(snr)
        oracle = mp_delta1(p.P, p.N, c0)
        assert abs(gap_certificate(p, c0).delta1 / oracle - 1) <= 1e-9

    @pytest.mark.xfail(
        strict=True,
        reason="C(inf) = 1/2 log2(1 + 2P/N) in channel.py is low by up to ~1.6e-16 bits; "
        "where the certified gap is smaller, the certificate clamp puts the bound "
        "below the oracle; see CHANGES.md",
    )
    @settings(max_examples=60, deadline=None)
    @given(snr=_snr(-4, 4), c0=st.floats(0.0, 20.0))
    @example(snr=0.0010396161071825546, c0=18.235666362590443)
    def test_upper_bound_not_below_mpmath_oracle(self, snr, c0):
        p = ChannelParams.from_snr(snr)
        assert mp.mpf(capacity_upper_bound(p, c0)) >= mp_upper_bound(p.P, p.N, c0)
