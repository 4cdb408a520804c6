import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc

from relaycap import (
    BallPairSpec,
    CapSpec,
    DomainError,
    MeasureKind,
    ShellSpec,
    ball_overlap_lambda,
    cap_intersection_exponent,
    log_ball_intersection,
    log_cap_area,
    log_cap_intersection,
    log_shell_cap_volume,
    log_shell_volume,
    log_shellcap_intersection_bounds,
    log_sphere_area,
    reg_inc_beta,
)
from relaycap.errors import NumericalError
import relaycap
from relaycap import geometry
from relaycap.geometry import (
    LOG2_2PIE,
    _logaddexp2,
    _lens_piece_log2_integrand,
    _log2_sin_integral_zero_to,
    log2_reg_inc_beta,
)

from oracles import (
    betainc_mpmath,
    lens_piece_log2_integrand_frozen,
    log2_cap_area_mpmath,
    log2_reg_inc_beta_frozen,
    log2_sin_power_integral,
    log_cap_area_quadrature,
    reg_inc_beta_frozen,
)

deg = math.radians
HALF_PI = math.pi / 2


def _bits(f, *args):
    """f(*args) as exact float bits, or the type and message of the error it raised."""
    try:
        return float(f(*args)).hex()
    except (DomainError, NumericalError) as exc:
        return type(exc).__name__, str(exc)


def _lens_angles():
    """Valid lens angles: theta2 = pi/2 - theta1 * u with u in [0, 1), or a 1e-7 overlap.

    The overlap theta1 + theta2 - pi/2 = 1e-7 is the near-degenerate input
    of the benchmark.  Callers still drop pairs whose float overlap rounds
    to sin^2 theta1 + sin^2 theta2 - 1 <= 0.
    """
    spread = st.tuples(
        st.floats(0.0, HALF_PI, exclude_min=True), st.floats(0.0, 1.0, exclude_max=True)
    ).map(lambda p: (p[0], HALF_PI - p[0] * p[1]))
    thin = st.floats(1e-6, HALF_PI).map(lambda t: (t, HALF_PI - t + 1e-7))
    return st.one_of(spread, thin)


def _lens_pieces(theta1, theta2):
    """(phi_ref, theta_cap) of both log_cap_intersection pieces."""
    phi = math.atan2(math.cos(theta1), math.cos(theta2))
    return (phi, theta2), (HALF_PI - phi, theta1)


def _closed_window(k, lo, hi):
    """log2 of the sin^k integral over [lo, hi] in [0, pi/2], from the beta form."""
    upper = _log2_sin_integral_zero_to(k, hi)
    lower = _log2_sin_integral_zero_to(k, lo)
    return upper + math.log2(-math.expm1((lower - upper) * math.log(2.0)))


class TestRegIncBeta:
    def test_endpoints(self):
        assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_symmetry_at_half(self):
        for a in (0.5, 1.0, 7.5):
            assert reg_inc_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("b", [0.5, 3.0])
    def test_closed_form_a_equals_one(self, x, b):
        # I_x(1, b) = 1 - (1-x)^b
        assert reg_inc_beta(x, 1.0, b) == pytest.approx(
            1.0 - (1.0 - x) ** b, rel=1e-13
        )

    def test_against_mpmath(self):
        mp.mp.dps = 40
        rng = np.random.default_rng(0)
        for _ in range(40):
            a = float(10 ** rng.uniform(-1, 3))
            b = float(10 ** rng.uniform(-1, 3))
            x = float(rng.random())
            ref = float(mp.betainc(a, b, 0, x, regularized=True))
            if ref > 1e-280:
                assert reg_inc_beta(x, a, b) == pytest.approx(ref, rel=1e-12)

    def test_against_scipy_outside_deep_tail(self):
        # scipy loses accuracy below ~1e-290; compare where it is reliable.
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = float(10 ** rng.uniform(-1, 3.5))
            b = float(10 ** rng.uniform(-1, 3.5))
            x = float(rng.random())
            ref = float(betainc(a, b, x))
            if ref > 1e-250:
                assert reg_inc_beta(x, a, b) == pytest.approx(ref, rel=1e-7)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(1.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 1.0, -2.0)

    def test_log2_matches_linear(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = float(10 ** rng.uniform(-1, 2.5))
            b = float(10 ** rng.uniform(-1, 2.5))
            x = float(rng.random())
            lin = reg_inc_beta(x, a, b)
            if lin > 1e-290:
                assert log2_reg_inc_beta(x, a, b) == pytest.approx(
                    math.log2(lin), abs=1e-10
                )

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(-2.0, 6.0).map(lambda e: 10.0**e),
        m=st.integers(2, 10**6),
        half=st.booleans(),
        where=st.sampled_from(["any", "switch", "below switch", "above switch"]),
        u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @example(a=1088.9086506914473, m=73, half=False, where="any", u=0.5019729558724252)
    @example(a=596799.6494214116, m=61, half=False, where="any", u=0.9987642023117856)
    @example(a=1e6, m=999995, half=False, where="below switch", u=0.5)
    def test_against_scipy_betainc(self, a, m, half, where, u):
        # The shapes the package uses: b = 1/2 (caps) or (m - 1)/2 (bands).
        # The continued fraction's front factor x^a (1 - x)^b / B(a, b) is
        # formed from log terms as large as lgamma(a + b), so its relative
        # error is a few ulps of their sum.  scipy is itself off in the deep
        # tail (the examples: 22% at I ~ 1e-270, 1e-6 at I ~ 5e-269); where
        # the two disagree, a 40-digit mpmath value decides.
        b = 0.5 if half else (m - 1) / 2.0
        switch = (a + 1.0) / (a + b + 2.0)
        x = {
            "any": u,
            "switch": switch,
            "below switch": math.nextafter(switch, 0.0),
            "above switch": math.nextafter(switch, 1.0),
        }[where]
        assume(0.0 < x < 1.0)
        ref = float(betainc(a, b, x))
        assume(ref >= 2.2250738585072014e-308)  # scipy has no value below the normal range
        scale = (
            1.0 + abs(math.lgamma(a)) + abs(math.lgamma(b)) + abs(math.lgamma(a + b))
            + abs(a * math.log(x)) + abs(b * math.log1p(-x))
        )
        rel = 64 * 2.0**-52 * scale
        lin = reg_inc_beta(x, a, b)
        log2 = log2_reg_inc_beta(x, a, b)
        if not (abs(lin - ref) <= rel * ref and abs(log2 - math.log2(ref)) <= rel / math.log(2)):
            ref = betainc_mpmath(a, b, x)
        assert abs(lin - ref) <= rel * ref
        assert abs(log2 - math.log2(ref)) <= rel / math.log(2)

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.one_of(st.floats(-3, 7).map(lambda e: 10.0 ** e), st.sampled_from([0.0, -1.0])),
        b=st.one_of(st.floats(-3, 7).map(lambda e: 10.0 ** e), st.just(0.5)),
        x=st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.0, -1e-300, 1.0 + 2.0 ** -52])),
        at_switch=st.booleans(),
    )
    def test_same_floats_as_frozen_loop(self, a, b, x, at_switch):
        if at_switch and a > 0.0:
            x = (a + 1.0) / (a + b + 2.0)
        assert _bits(reg_inc_beta, x, a, b) == _bits(reg_inc_beta_frozen, x, a, b)
        assert _bits(log2_reg_inc_beta, x, a, b) == _bits(log2_reg_inc_beta_frozen, x, a, b)

    @pytest.mark.parametrize("x, a, b", [(0.5, 1e8, 1e8), (0.49999, 1e8, 1e8), (float("nan"), 2.0, 3.0)])
    def test_same_errors_as_frozen_loop(self, x, a, b):
        # (0.5, 1e8, 1e8) and (0.49999, 1e8, 1e8) hit the iteration cap on either side
        # of the switch point; NaN fails the domain check
        for ours, frozen in ((reg_inc_beta, reg_inc_beta_frozen),
                             (log2_reg_inc_beta, log2_reg_inc_beta_frozen)):
            outcome = _bits(ours, x, a, b)
            assert outcome == _bits(frozen, x, a, b)
            assert outcome[0] in ("NumericalError", "DomainError")

    def test_cached_shape_gives_frozen_floats(self):
        # One shape's continued-fraction tables are shared by every x and grow
        # as deeper rows are first needed; in whatever order the x values
        # come, and after the shape is evicted and rebuilt, each value keeps
        # the bits of a fresh table.
        cache = geometry._inc_beta_shape
        a, b = 499.5, 0.5
        switch = (a + 1.0) / (a + b + 2.0)
        xs = [1e-3, 0.9, math.nextafter(switch, 0.0), switch, math.nextafter(switch, 1.0),
              0.9999, 0.999999999]

        def check(order):
            for x in order:
                assert _bits(reg_inc_beta, x, a, b) == _bits(reg_inc_beta_frozen, x, a, b)
                assert _bits(log2_reg_inc_beta, x, a, b) == _bits(
                    log2_reg_inc_beta_frozen, x, a, b)

        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and maxsize <= 1024
        cache.cache_clear()
        check(xs)
        for i in range(maxsize):
            cache(1.0 + i, 2.0)
        misses = cache.cache_info().misses
        check(reversed(xs))
        assert cache.cache_info().misses == misses + 1

    def test_log2_deep_tail_against_mpmath(self):
        # Values like 2^-806 underflow float64; the log route stays exact.
        mp.mp.dps = 400
        x = math.sin(deg(35)) ** 2
        ours = log2_reg_inc_beta(x, 499.5, 0.5)
        ref = mp.log(mp.betainc(mp.mpf("499.5"), mp.mpf("0.5"), 0, x, regularized=True)) / mp.log(2)
        assert ours == pytest.approx(float(ref), rel=1e-12)


class TestSphereArea:
    def test_circle(self):
        assert log_sphere_area(2, 1.0).log2_value == pytest.approx(
            math.log2(2 * math.pi), abs=1e-14
        )

    def test_two_sphere(self):
        assert log_sphere_area(3, 1.0).log2_value == pytest.approx(
            math.log2(4 * math.pi), abs=1e-14
        )

    def test_kind(self):
        assert log_sphere_area(5, 2.0).kind is MeasureKind.SURFACE_AREA

    def test_high_dimension_exponent(self):
        # At radius sqrt(m) the area grows like 2^{(m/2) log2(2 pi e)} up to
        # polynomial factors; the normalized gap shrinks below 0.05 by m=1000.
        m = 1000
        v = log_sphere_area(m, math.sqrt(m)).log2_value
        gap = 2.0 / m * v - LOG2_2PIE
        assert abs(gap) <= 0.05


class TestCapArea:
    def test_hemisphere_exact(self):
        for m in (3, 10, 257):
            spec = CapSpec(m, math.sqrt(m), math.pi / 2)
            assert (
                abs(log_cap_area(spec).log2_value - (log_sphere_area(m, math.sqrt(m)).log2_value - 1.0))
                <= 1e-12
            )

    def test_full_sphere_exact(self):
        spec = CapSpec(6, 1.5, math.pi)
        assert abs(log_cap_area(spec).log2_value - log_sphere_area(6, 1.5).log2_value) <= 1e-12

    @pytest.mark.parametrize("m", [4, 17, 64, 257])
    @pytest.mark.parametrize("theta_deg", [10, 45, 89])
    def test_closed_form_vs_quadrature(self, m, theta_deg):
        spec = CapSpec(m, math.sqrt(m), deg(theta_deg))
        a = log_cap_area(spec).log2_value
        b = log_cap_area_quadrature(spec).log2_value
        assert abs(a - b) <= 1e-8 * abs(a)

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(3, 5000), theta=st.floats(0.0, math.pi, exclude_min=True,
                                                    exclude_max=True))
    # 1e-9 past the equator: the complement 1 - I/2 at sin^2 theta cancelled,
    # and the cap read the hemisphere plus 1.9e-12 bits instead of 6.3e-8
    @example(m=3000, theta=1.5707963277948966)
    def test_against_mpmath_oracle(self, m, theta):
        v = log_cap_area(CapSpec(m, 1.0, theta)).log2_value
        assert abs(v - log2_cap_area_mpmath(m, 1.0, theta)) <= 1e-12 * max(1.0, abs(v))

    @pytest.mark.parametrize("m, theta", [
        (3000, 1.5707963277948966), (152, HALF_PI + 3.7e-7), (5000, HALF_PI + 1e-8),
        (40, HALF_PI + 1e-4), (300, 2.0), (7, 3.0),
    ])
    def test_excess_over_hemisphere_against_mpmath(self, m, theta):
        # past pi/2 the cap is the hemisphere plus the band [pi/2, theta], so
        # log2(cap / hemisphere) = log2(1 + I_{cos^2 theta}(1/2, (m-1)/2))
        with mp.workdps(40):
            a = mp.mpf(m - 1) / 2
            band = mp.betainc(mp.mpf(1) / 2, a, 0, mp.cos(mp.mpf(theta)) ** 2, regularized=True)
            excess = float(mp.log(1 + band, 2))
        got = _log2_sin_integral_zero_to(m - 2, theta) - _log2_sin_integral_zero_to(m - 2, HALF_PI)
        assert got == pytest.approx(excess, rel=1e-10)

    def test_complementarity(self):
        # cap(theta) + cap(pi - theta) = sphere, checked in linear space after
        # factoring the sphere area out.
        for m in (5, 40, 200):
            for theta in (0.4, 1.0, 2.0):
                s = log_sphere_area(m, math.sqrt(m)).log2_value
                a = log_cap_area(CapSpec(m, math.sqrt(m), theta)).log2_value
                b = log_cap_area(CapSpec(m, math.sqrt(m), math.pi - theta)).log2_value
                total = 2.0 ** (a - s) + 2.0 ** (b - s)
                assert total == pytest.approx(1.0, rel=1e-10)

    def test_monotone_in_angle(self):
        # Strict growth while increments are representable; towards theta = pi
        # the remaining complement is ~2^-m and the log saturates in float64.
        thetas = np.linspace(0.05, 2.4, 40)
        vals = [log_cap_area(CapSpec(30, 1.0, float(t))).log2_value for t in thetas]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        tail = np.linspace(2.4, math.pi - 0.01, 10)
        tail_vals = [log_cap_area(CapSpec(30, 1.0, float(t))).log2_value for t in tail]
        assert all(b >= a for a, b in zip(tail_vals, tail_vals[1:]))

    def test_normalized_exponent_decays(self):
        # (2/m) log2 mu(cap) approaches log2(2 pi e N sin^2 theta) from below.
        theta = deg(60)
        target = LOG2_2PIE + math.log2(math.sin(theta) ** 2)
        gaps = []
        for m in (100, 1000, 10000):
            v = log_cap_area(CapSpec(m, math.sqrt(m), theta)).log2_value
            gaps.append(abs(2.0 / m * v - target))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 0.05

    def test_rejects_nonpositive_angle(self):
        with pytest.raises(DomainError):
            CapSpec(10, 1.0, 0.0)


class TestSinPowerIntegral:
    def test_against_scipy_quad(self):
        for k, lo, hi in [(3, 0.2, 1.0), (25, 0.5, 2.5), (60, 1.2, 1.9)]:
            ours = 2.0 ** log2_sin_power_integral(k, lo, hi)
            ref, _ = quad(lambda r: math.sin(r) ** k, lo, hi)
            assert ours == pytest.approx(ref, rel=1e-9)

    def test_thin_interval(self):
        # A 1e-10-wide band must not lose precision to cancellation.
        k, c, w = 298, math.pi / 2, 5e-11
        ours = 2.0 ** log2_sin_power_integral(k, c - w, c + w)
        assert ours == pytest.approx(2 * w, rel=1e-6)

    def test_empty(self):
        assert log2_sin_power_integral(5, 1.0, 1.0) == -math.inf

    @pytest.mark.parametrize("k", [3, 50, 1000, 10**5])
    @pytest.mark.parametrize("lo, hi", [(0.3, 1.2), (1.9, 2.8), (1.0, 2.2)])
    def test_against_closed_form_windows(self, k, lo, hi):
        # windows below, above and across the peak at pi/2; the part above
        # pi/2 is reflected onto [0, pi/2], where the beta form has no
        # cancellation
        if hi <= HALF_PI:
            ref = _closed_window(k, lo, hi)
        elif lo >= HALF_PI:
            ref = _closed_window(k, math.pi - hi, math.pi - lo)
        else:
            ref = float(np.logaddexp2(_closed_window(k, lo, HALF_PI),
                                      _closed_window(k, math.pi - hi, HALF_PI)))
        assert log2_sin_power_integral(k, lo, hi) == pytest.approx(ref, abs=1e-9)


class TestCapIntersection:
    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(4, 10**6), angles=_lens_angles())
    def test_piece_integrands_nondecreasing(self, m, angles):
        # the quadrature takes each piece's peak at theta_cap on this premise
        theta1, theta2 = angles
        assume(math.sin(theta1) ** 2 + math.sin(theta2) ** 2 - 1.0 > 0.0)
        for phi_ref, theta_cap in _lens_pieces(theta1, theta2):
            if theta_cap - phi_ref <= geometry._MIN_PIECE_WIDTH:
                continue
            g = _lens_piece_log2_integrand(m, phi_ref)
            vals = [g(float(r)) for r in np.linspace(phi_ref, theta_cap, 65)]
            assert all(b >= a for a, b in zip(vals, vals[1:])), (phi_ref, theta_cap)

    @settings(max_examples=300, deadline=None)
    @given(
        m=st.integers(4, 10**6),
        angles=_lens_angles(),
        where=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    )
    @example(m=90, angles=(1.0, HALF_PI - 1.0 + 1e-7), where=[0.0, 1e-9, 0.5, 1.0])
    @example(m=10**4, angles=(HALF_PI, deg(35)), where=[0.0, 0.25, 1.0])
    def test_piece_integrand_same_floats_as_frozen_route(self, m, angles, where):
        # one piece integrand now serves every node of its piece; each value
        # must be the very float of the per-node incomplete-beta route
        theta1, theta2 = angles
        assume(math.sin(theta1) ** 2 + math.sin(theta2) ** 2 - 1.0 > 0.0)
        for phi_ref, theta_cap in _lens_pieces(theta1, theta2):
            g = _lens_piece_log2_integrand(m, phi_ref)
            frozen = lens_piece_log2_integrand_frozen(m, phi_ref)
            for w in where:
                rho = phi_ref + w * (theta_cap - phi_ref)
                assert _bits(g, rho) == _bits(frozen, rho), (phi_ref, theta_cap, rho)

    def test_incomplete_beta_call_budget(self, monkeypatch):
        # each piece-integrand evaluation is one incomplete-beta evaluation
        calls = 0
        make = geometry._lens_piece_log2_integrand

        def counted_piece(m, phi_ref):
            g = make(m, phi_ref)

            def counted(rho):
                nonlocal calls
                calls += 1
                return g(rho)

            return counted

        monkeypatch.setattr(geometry, "_lens_piece_log2_integrand", counted_piece)
        log_cap_intersection(10_000, 1.0, deg(70), deg(35))
        assert 0 < calls <= 400

    def test_hemisphere_halves_the_other_cap(self):
        for m in (50, 300, 1000):
            v = log_cap_intersection(m, 1.0, math.pi / 2, deg(40)).log2_value
            c = log_cap_area(CapSpec(m, math.sqrt(m), deg(40))).log2_value
            assert v == pytest.approx(c - 1.0, abs=1e-9)

    def test_two_hemispheres_quarter_sphere(self):
        for m in (50, 400):
            v = log_cap_intersection(m, 1.0, math.pi / 2, math.pi / 2).log2_value
            s = log_sphere_area(m, math.sqrt(m)).log2_value
            assert v == pytest.approx(s - 2.0, abs=1e-9)

    def test_swap_symmetry(self):
        a = log_cap_intersection(60, 1.0, deg(70), deg(35)).log2_value
        b = log_cap_intersection(60, 1.0, deg(35), deg(70)).log2_value
        assert a == pytest.approx(b, abs=1e-9)

    def test_monotone_in_each_angle(self):
        base = log_cap_intersection(40, 1.0, deg(60), deg(45)).log2_value
        assert log_cap_intersection(40, 1.0, deg(65), deg(45)).log2_value > base
        assert log_cap_intersection(40, 1.0, deg(60), deg(50)).log2_value > base

    def test_empty_interior_rejected(self):
        with pytest.raises(DomainError):
            log_cap_intersection(100, 1.0, deg(40), deg(50))

    def test_near_degenerate_flag(self):
        gap = 5e-7
        v = log_cap_intersection(100, 1.0, deg(45), math.pi / 2 - deg(45) + gap)
        assert v.near_degenerate
        v2 = log_cap_intersection(100, 1.0, deg(70), deg(35))
        assert not v2.near_degenerate

    def test_exponent_convergence(self):
        theta1, theta2 = deg(70), deg(35)
        target = cap_intersection_exponent(1.0, theta1, theta2)
        gaps = []
        for m in (100, 1000, 10000):
            v = log_cap_intersection(m, 1.0, theta1, theta2).log2_value
            gaps.append(abs(2.0 / m * v - target))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 0.05

    @pytest.mark.parametrize("t1,t2", [(70, 35), (60, 45), (85, 20)])
    def test_against_direct_two_dimensional_quadrature(self, t1, t2):
        # Independent oracle with a different decomposition: parametrize the
        # sphere by the polar angle rho to one pole and the azimuth psi
        # toward the other, and integrate the uniform density over the
        # membership region; feasible in linear arithmetic at small m.
        m = 6
        theta1, theta2 = deg(t1), deg(t2)
        R = math.sqrt(m)
        sub_sphere = 2.0 ** log_sphere_area(m - 2, 1.0).log2_value

        def psi_len(rho):
            # psi-interval where angle(z, pole2) <= theta2 given rho to pole1
            if math.sin(rho) == 0.0:
                return 0.0
            c = math.cos(theta2) / math.sin(rho)
            if c >= 1.0:
                return 0.0
            if c <= -1.0:
                return math.pi
            return math.acos(c)

        val, _ = quad(
            lambda rho: math.sin(rho) ** (m - 2)
            * quad(
                lambda psi: math.sin(psi) ** (m - 3), 0.0, psi_len(rho)
            )[0],
            0.0,
            theta1,
            limit=200,
        )
        oracle = sub_sphere * R ** (m - 1) * val
        ours = 2.0 ** log_cap_intersection(m, 1.0, theta1, theta2).log2_value
        assert ours == pytest.approx(oracle, rel=1e-7)


class TestShellCap:
    def test_hemispherical_shell_cap(self):
        spec = ShellSpec(100, 1.0, 0.1)
        half = log_shell_cap_volume(spec, math.pi / 2).log2_value
        assert half == pytest.approx(log_shell_volume(spec).log2_value - 1.0, abs=1e-10)

    def test_degenerate_shell_sentinel(self):
        spec = ShellSpec(50, 1.0, 0.0)
        assert log_shell_cap_volume(spec, 1.0).log2_value == -math.inf

    def test_two_sided_exponents(self):
        # Empirical slack from the convergence study: the exact volume sits
        # between the (N - delta) and (N + delta) exponents by m = 500.
        m, n, delta, theta = 500, 1.0, 0.05, math.pi / 3
        v = log_shell_cap_volume(ShellSpec(m, n, delta), theta).log2_value
        s2 = math.sin(theta) ** 2
        lo = m / 2 * (LOG2_2PIE + math.log2((n - delta) * s2))
        hi = m / 2 * (LOG2_2PIE + math.log2((n + delta) * s2))
        assert lo <= v <= hi

    def test_delta_must_be_below_scale(self):
        with pytest.raises(DomainError):
            ShellSpec(50, 1.0, 1.0)

    # In the first three the two radii round to one float; in the last three
    # they are ~1, ~800 and ~8e5 ulps apart, and a radial factor formed from
    # the rounded radii read 1.15 bits (1e-16), 1.15e-3 bits (1e-13) and
    # 1.2e-7 bits (1e-10) high.
    @pytest.mark.parametrize("n, delta", [
        (1e200, 0.1), (1.0, 1e-320), (1e10, 5e-324), (1.0, 1e-16), (1.0, 1e-13), (1.0, 1e-10),
    ])
    def test_thin_shell_against_mpmath(self, n, delta):
        # the radial factor is the integral of (r / base)^49 over [r_lower, r_upper]
        spec = ShellSpec(50, n, delta)

        def radial(base_scale):
            with mp.workdps(800):
                N, d = mp.mpf(n), mp.mpf(delta)
                r_lo, r_hi = mp.sqrt(50 * (N - d)), mp.sqrt(50 * (N + d))
                base = mp.sqrt(50 * base_scale(N, d))
                return float(mp.log(base / 50 * ((r_hi / base) ** 50 - (r_lo / base) ** 50), 2))

        r_lo = spec.r_lower
        cap = log_cap_area(CapSpec(50, r_lo, 1.0)).log2_value
        inner = radial(lambda N, d: N - d)
        assert log_shell_cap_volume(spec, 1.0).log2_value == pytest.approx(cap + inner, rel=1e-14)
        sphere = log_sphere_area(50, r_lo).log2_value
        assert log_shell_volume(spec).log2_value == pytest.approx(sphere + inner, rel=1e-14)
        lens = log_cap_intersection(50, n, 1.0, 0.7).log2_value
        exact = log_shellcap_intersection_bounds(spec, 1.0, 0.7).exact.log2_value
        assert exact == pytest.approx(lens + radial(lambda N, d: N), rel=1e-14)

    def test_thin_shell_with_large_growth(self):
        # m delta / N = 1000: the radii round together, and expm1(m delta / N)
        # is beyond float64 while the measure's log is not
        m, delta = 10 ** 20, 1e-17
        spec = ShellSpec(m, 1.0, delta)
        assert spec.r_upper == spec.r_lower
        with mp.workdps(60):
            d = mp.mpf(delta)
            # (r_upper / r_lower)^m = ((1 + d) / (1 - d))^(m/2)
            growth = mp.expm1(m / 2 * mp.log((1 + d) / (1 - d)))
            r_lo = mp.sqrt(m * (1 - d))
            inner = float(mp.log(r_lo / m * growth, 2))
        cap = log_cap_area(CapSpec(m, spec.r_lower, 1.0)).log2_value
        assert log_shell_cap_volume(spec, 1.0).log2_value == pytest.approx(cap + inner, rel=1e-14)


class TestShellCapIntersection:
    def test_omega_hemisphere_halves_shell_cap(self):
        spec = ShellSpec(200, 1.0, 0.1)
        r = log_shellcap_intersection_bounds(spec, deg(70), math.pi / 2)
        sc = log_shell_cap_volume(spec, deg(70)).log2_value
        assert r.exact.log2_value == pytest.approx(sc - 1.0, abs=1e-9)

    def test_quarter_shell(self):
        spec = ShellSpec(100, 1.0, 0.1)
        r = log_shellcap_intersection_bounds(spec, math.pi / 2, math.pi / 2)
        assert r.exact.log2_value == pytest.approx(
            log_shell_volume(spec).log2_value - 2.0, abs=1e-9
        )

    @pytest.mark.parametrize("m", [200, 1000])
    def test_two_sided_bounds_large_m(self, m):
        spec = ShellSpec(m, 1.0, 0.1)
        r = log_shellcap_intersection_bounds(spec, deg(70), deg(35))
        assert r.lower.log2_value <= r.exact.log2_value <= r.upper.log2_value

    def test_small_m_recorded_slack(self):
        # At m = 50 the polynomial finite-size factors still outweigh the
        # delta-driven radial growth and the exact value sits below the
        # zero-slack lower exponent; the normalized deficit is bounded by the
        # recorded empirical constant and vanishes by m = 200 (test above).
        spec = ShellSpec(50, 1.0, 0.1)
        r = log_shellcap_intersection_bounds(spec, deg(70), deg(35))
        assert r.exact.log2_value <= r.upper.log2_value
        deficit = (r.lower.log2_value - r.exact.log2_value) / (50 / 2)
        assert deficit <= 0.35


class TestBallIntersection:
    @pytest.mark.parametrize("m", [50, 3000])
    @pytest.mark.parametrize("cos_theta", [-1e-9, -1e-7, -1e-3, -0.5])
    def test_cap_past_half_ball_against_mpmath(self, m, cos_theta):
        # a cap past the half-ball is the half-ball plus a slab, so
        # log2(cap / half-ball) = log2(1 + I_{cos^2 theta}(1/2, (m+1)/2)); the
        # complement 1 - I/2 at sin^2 theta read 0 at m = 3000, cos = -1e-9
        with mp.workdps(40):
            a = mp.mpf(m + 1) / 2
            slab = mp.betainc(mp.mpf(1) / 2, a, 0, mp.mpf(cos_theta) ** 2, regularized=True)
            excess = float(mp.log(1 + slab, 2))
        half = geometry._log2_ball_cap_volume(m, 1.0, 0.0)
        got = geometry._log2_ball_cap_volume(m, 1.0, cos_theta) - half
        assert got == pytest.approx(excess, rel=1e-10)

    def test_lambda_symmetric_case(self):
        assert ball_overlap_lambda(BallPairSpec(10, 1.0, 1.0, 1.0)) == 1.5

    def test_lambda_tangency_limit(self):
        lam = ball_overlap_lambda(BallPairSpec(10, 1.0, 1.0, 3.9999))
        assert 0.0 < lam < 1e-3

    def test_lambda_cap_aperture_identity(self):
        # lambda = 2 R1 sin^2(theta1) with cos(theta1) = (R1+D-R2)/(2 sqrt(R1 D)).
        rng = np.random.default_rng(3)
        for _ in range(100):
            r1 = float(10 ** rng.uniform(-1, 1))
            r2 = float(10 ** rng.uniform(-1, 1))
            lo = (math.sqrt(r1) - math.sqrt(r2)) ** 2
            hi = (math.sqrt(r1) + math.sqrt(r2)) ** 2
            d = float(rng.uniform(lo * 1.001 + 1e-9, hi * 0.999))
            spec = BallPairSpec(8, r1, r2, d)
            cos1 = (r1 + d - r2) / (2 * math.sqrt(r1 * d))
            assert ball_overlap_lambda(spec) == pytest.approx(
                2 * r1 * (1 - cos1 ** 2), rel=1e-12
            )

    def test_invalid_configurations(self):
        with pytest.raises(DomainError):
            BallPairSpec(10, 1.0, 1.0, 4.5)  # disjoint
        with pytest.raises(DomainError):
            BallPairSpec(10, 4.0, 0.25, 0.5)  # nested

    def test_symmetric_case_is_twice_one_cap(self):
        res = log_ball_intersection(BallPairSpec(50, 1.0, 1.0, 1.0))
        m, r = 50, math.sqrt(50)
        cos1 = 0.5
        log2_ball = (m / 2) * math.log2(math.pi) + m * math.log2(r) - math.lgamma(m / 2 + 1) / math.log(2)
        log2_cap = log2_ball - 1.0 + math.log2(reg_inc_beta(1 - cos1 ** 2, (m + 1) / 2, 0.5))
        assert res.exact.log2_value == pytest.approx(log2_cap + 1.0, abs=1e-10)

    @pytest.mark.parametrize("r1,r2,d", [(1.0, 1.0, 1.0), (2.0, 0.7, 1.5)])
    @pytest.mark.parametrize("m", [7, 12])
    def test_exact_volume_against_slab_quadrature(self, m, r1, r2, d):
        # Independent oracle: integrate (m-1)-ball cross sections across the
        # lens; feasible in linear arithmetic at small m.
        res = log_ball_intersection(BallPairSpec(m, r1, r2, d))
        rad1, rad2, dist = math.sqrt(m * r1), math.sqrt(m * r2), math.sqrt(m * d)
        x1 = (dist ** 2 + rad1 ** 2 - rad2 ** 2) / (2 * dist)

        def slice_ball(rho, dim):
            return math.pi ** (dim / 2) * rho ** dim / math.gamma(dim / 2 + 1)

        v1, _ = quad(
            lambda x: slice_ball(math.sqrt(max(rad1 ** 2 - x ** 2, 0.0)), m - 1), x1, rad1
        )
        v2, _ = quad(
            lambda y: slice_ball(math.sqrt(max(rad2 ** 2 - y ** 2, 0.0)), m - 1),
            dist - x1, rad2,
        )
        assert 2.0 ** res.exact.log2_value == pytest.approx(v1 + v2, rel=1e-8)

    def test_normalized_exponent_monotone_convergence(self):
        target = math.log2(math.pi * math.e * 1.5)
        per_dim = []
        for m in (100, 1000, 10000):
            res = log_ball_intersection(BallPairSpec(m, 1.0, 1.0, 1.0))
            per_dim.append(2.0 / m * res.exact.log2_value)
        assert per_dim[0] < per_dim[1] < per_dim[2] < target

    def test_bound_holds(self):
        for m in (100, 1000):
            res = log_ball_intersection(BallPairSpec(m, 1.3, 0.8, 1.1))
            assert res.exact.log2_value <= res.bound_log2

    def test_tangency_shrinks(self):
        res = log_ball_intersection(BallPairSpec(200, 1.0, 1.0, 3.999))
        assert res.exact.log2_value < log_ball_intersection(
            BallPairSpec(200, 1.0, 1.0, 1.0)
        ).exact.log2_value
        assert math.log2(math.pi * math.e * res.lambda_scale) < 0


class TestIntersectionExponent:
    def test_orthogonal_hemispheres(self):
        assert cap_intersection_exponent(1.0, math.pi / 2, math.pi / 2) == pytest.approx(
            LOG2_2PIE, abs=1e-14
        )

    def test_direct_value(self):
        th, om = deg(70), deg(35)
        expected = math.log2(
            2 * math.pi * math.e * (math.sin(th) ** 2 + math.sin(om) ** 2 - 1.0)
        )
        assert cap_intersection_exponent(1.0, th, om) == pytest.approx(expected, abs=1e-14)

    def test_swap_is_bit_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            th = float(rng.uniform(0.2, math.pi / 2))
            om = float(rng.uniform(math.pi / 2 - th + 0.01, math.pi / 2))
            assert cap_intersection_exponent(2.0, th, om) == cap_intersection_exponent(2.0, om, th)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            cap_intersection_exponent(1.0, deg(40), deg(45))


class TestLogAddExp2:
    """The math port of numpy's logaddexp2 returns numpy's floats."""

    @staticmethod
    def same(x, y):
        assert _logaddexp2(x, y) == float(np.logaddexp2(x, y))

    @settings(max_examples=500, deadline=None)
    @given(
        x=st.floats(-1e6, 1e6),
        log10_gap=st.floats(-6.0, math.log10(2000.0)),
        sign=st.sampled_from((-1.0, 1.0)),
    )
    # libm's pow(2, -d) is an ulp off numpy's exp2 here
    @example(x=0.0, log10_gap=-0.6081414919364025, sign=-1.0)
    def test_finite_pairs(self, x, log10_gap, sign):
        y = x + sign * 10.0 ** log10_gap
        self.same(x, y)
        self.same(y, x)

    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(-1e6, 1e6))
    def test_equal_and_minus_inf(self, x):
        self.same(x, x)
        self.same(x, -math.inf)
        self.same(-math.inf, x)

    def test_both_minus_inf(self):
        assert _logaddexp2(-math.inf, -math.inf) == -math.inf
        self.same(-math.inf, -math.inf)


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        for name in relaycap.__all__:
            assert getattr(relaycap, name) is not None, name

    def test_monte_carlo_names_come_from_montecarlo(self):
        from relaycap import montecarlo

        for name in ("McConfig", "SphereSet", "Verdict", "verify_concentration"):
            assert getattr(relaycap, name) is getattr(montecarlo, name)
            assert name in dir(relaycap)

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError):
            relaycap.no_such_name  # noqa: B018
