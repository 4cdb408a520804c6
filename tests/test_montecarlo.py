import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import beta as beta_law
from scipy.stats import ks_2samp, kstest

from relaycap import (
    CapSpec,
    DomainError,
    McConfig,
    NumericalError,
    ShellSpec,
    SphereSet,
    ShellSet,
    UnsupportedSet,
    Verdict,
    log_cap_area,
    log_cap_intersection,
    log_shell_cap_volume,
    montecarlo,
    verify_blowup,
    verify_concentration,
    verify_isoperimetry_shell,
    verify_isoperimetry_sphere,
)
from relaycap.geometry import _log2_sin_integral_zero_to, reg_inc_beta
from relaycap.montecarlo import (
    HALF_PI,
    _end_cosines,
    _log2_band_mass,
    _polar_cosines,
    _reachable_w_ranges,
    _u_range,
    estimate_cap_intersection,
    trial_rng,
)

from oracles import (
    log2_interval_mass_mpmath,
    log2_set_mass_quadrature,
    log2_sin_power_integral,
    polar_angles,
    sample_uniform_cap,
    sample_uniform_sphere,
    verify_isoperimetry_shell_frozen,
    verify_isoperimetry_sphere_frozen,
)

deg = math.radians


class TestSphereSampler:
    def test_norms(self):
        pts = sample_uniform_sphere(12, 3.0, trial_rng(1, 0), size=2000)
        assert np.allclose(np.linalg.norm(pts, axis=1), 3.0, atol=1e-12)

    def test_single_point_shape(self):
        p = sample_uniform_sphere(5, 1.0, trial_rng(1, 0))
        assert p.shape == (5,)

    def test_coordinate_means_vanish(self):
        n, m = 1_000_000, 10
        pts = sample_uniform_sphere(m, 1.0, trial_rng(2, 0), size=n)
        assert np.abs(pts.mean(axis=0)).max() <= 4.0 / math.sqrt(n)

    def test_coordinate_second_moment(self):
        n, m, R = 200_000, 25, 2.0
        pts = sample_uniform_sphere(m, R, trial_rng(3, 0), size=n)
        second = float(np.mean(pts[:, 0] ** 2))
        expect = R * R / m
        sd = float(np.std(pts[:, 0] ** 2)) / math.sqrt(n)
        assert abs(second - expect) <= 3 * sd

    def test_determinism(self):
        a = sample_uniform_sphere(8, 1.0, trial_rng(9, 4), size=5)
        b = sample_uniform_sphere(8, 1.0, trial_rng(9, 4), size=5)
        assert np.array_equal(a, b)

    def test_streams_disjoint(self):
        a = sample_uniform_sphere(8, 1.0, trial_rng(9, 0), size=5)
        b = sample_uniform_sphere(8, 1.0, trial_rng(9, 1), size=5)
        assert not np.allclose(a, b)

    def test_rejects_m1(self):
        with pytest.raises(DomainError):
            sample_uniform_sphere(1, 1.0, trial_rng(0, 0))


class TestPolarCosines:
    @pytest.mark.parametrize("m", [3, 50, 1000, 10**6])
    def test_law(self, m):
        # cos^2 ~ Beta(1/2, (m-1)/2), and the sign is a fair coin
        n = 20_000
        cos = _polar_cosines(m, n, trial_rng(7, 0))
        assert kstest(cos * cos, beta_law(0.5, (m - 1) / 2).cdf).pvalue > 0.01
        assert abs(float(np.mean(cos > 0.0)) - 0.5) <= 4 * 0.5 / math.sqrt(n)


class TestCapSampler:
    def test_membership(self):
        m, angle = 20, deg(60)
        pole = np.zeros(m)
        pole[0] = 1.0
        pts = sample_uniform_cap(m, 1.0, pole, angle, trial_rng(4, 0), size=20_000)
        ang = np.arccos(np.clip(pts @ pole, -1.0, 1.0))
        assert float(ang.max()) <= angle + 1e-9
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_full_sphere_reduction(self):
        # angle = pi reduces to the uniform sphere law; compare the polar
        # cosine samples with a two-sample KS test.
        m, n = 12, 20_000
        pole = np.zeros(m)
        pole[0] = 1.0
        cap_pts = sample_uniform_cap(m, 1.0, pole, math.pi, trial_rng(5, 0), size=n)
        sph_pts = sample_uniform_sphere(m, 1.0, trial_rng(5, 1), size=n)
        stat = ks_2samp(cap_pts @ pole, sph_pts @ pole)
        assert stat.pvalue > 0.01

    def test_subcap_fraction_matches_geometry(self):
        m, R = 20, 1.0
        outer, inner = deg(60), deg(45)
        pole = np.zeros(m)
        pole[0] = 1.0
        n = 100_000
        pts = sample_uniform_cap(m, R, pole, outer, trial_rng(6, 0), size=n)
        ang = np.arccos(np.clip(pts @ pole, -1.0, 1.0))
        frac = float(np.mean(ang <= inner))
        expected = 2.0 ** (
            log_cap_area(CapSpec(m, R, inner)).log2_value
            - log_cap_area(CapSpec(m, R, outer)).log2_value
        )
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(frac - expected) <= 3 * se

    def test_off_axis_pole(self):
        m = 9
        pole = np.arange(1.0, m + 1.0)
        pts = sample_uniform_cap(m, 2.0, pole, deg(30), trial_rng(7, 0), size=500)
        cosang = pts @ (pole / np.linalg.norm(pole)) / 2.0
        assert float(np.arccos(np.clip(cosang, -1, 1)).max()) <= deg(30) + 1e-9


class TestSphereSet:
    def test_cap_effective_angle_is_exact(self):
        s = SphereSet.cap(40, deg(55))
        assert s.effective_theta == deg(55)

    def test_band_effective_angle(self):
        m, target = 120, deg(65)
        s = SphereSet.band_with_effective_angle(m, target)
        # invariant: measures agree in the log domain to 1e-6 relative
        a = log_cap_area(CapSpec(m, 1.0, s.effective_theta)).log2_value
        b = log_cap_area(CapSpec(m, 1.0, target)).log2_value
        assert abs(a - b) <= 1e-6 * abs(b)
        assert abs(s.effective_theta - target) <= 1e-8

    def test_band_is_thin_at_high_dimension(self):
        s = SphereSet.band_with_effective_angle(300, deg(70))
        lo, hi = s.intervals[0]
        assert hi - lo < 1e-8

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(4, 5000), w=st.floats(1e-6, HALF_PI))
    def test_band_mass_closed_form_matches_quadrature(self, m, w):
        # Below w ~ 1e-6 the float endpoints pi/2 +- w move the quadrature's
        # interval itself; the closed form takes w exactly.
        closed = _log2_band_mass(m, w)
        quad = log2_sin_power_integral(m - 2, HALF_PI - w, HALF_PI + w)
        assert abs(closed - quad) * math.log(2.0) <= 1e-9

    @settings(max_examples=300, deadline=None)
    @given(
        m=st.integers(4, 5000),
        shape=st.sampled_from(["cap", "band", "twocaps", "interval"]),
        p=st.floats(0.0, 1.0),
        q=st.floats(0.0, 1.0),
    )
    def test_mass_closed_form_matches_quadrature(self, m, shape, p, q):
        # Every interval is at least 1e-3 wide.  A band is centred anywhere, so
        # it may reach a pole, cross the equator or lie on one side of it;
        # "interval" is a general [lo, hi].
        if shape == "cap":
            s = SphereSet.cap(m, 1e-3 + (math.pi - 1e-3) * p)
        elif shape == "band":
            s = SphereSet.band(m, math.pi * p, 5e-4 + (HALF_PI - 5e-4) * q)
        elif shape == "twocaps":
            a1 = 1e-3 + (math.pi - 3e-3) * p
            s = SphereSet.two_cap_union(m, a1, 1e-3 + (math.pi - a1 - 2e-3) * q)
        else:
            lo = (math.pi - 1e-3) * p
            s = SphereSet(m, ((lo, lo + 1e-3 + (math.pi - lo - 1e-3) * q),))
        closed = s.log2_angular_mass()
        quad = log2_set_mass_quadrature(m, s.intervals)
        assert abs(closed - quad) * math.log(2.0) <= 1e-9

    # (shape, m, theta in degrees, frac) -> float.hex of effective_theta of
    # the set the CLI builds for `mc ... --set shape --theta theta --deg`, or
    # with frac, of that set extruded over [0, frac] of a delta = 0.1 shell
    # (as `mc isoperimetry-shell --extrude-hi frac` does).  Recorded with
    # the set masses by quadrature; the closed forms keep every bit, except
    # twocaps at m = 50, 80 deg, where the bisection to 1e-13 ends 402 ulps
    # away (0x1.657184ae742dfp+0 by quadrature; the 50-digit root,
    # 0x1.657184ae743a6p+0, lies between the two).
    EFFECTIVE_PINNED = [
        ("band", 50, 60, None, "0x1.0c152382d74b3p+0"),
        ("band", 200, 70, None, "0x1.38c35418c7115p+0"),
        ("band", 400, 80, None, "0x1.657184ae74471p+0"),
        ("band", 1000, 70, None, "0x1.53da1e6c6a7cep+0"),
        ("twocaps", 50, 80, None, "0x1.657184ae74471p+0"),
        ("twocaps", 300, 70, None, "0x1.38c35418a5c94p+0"),
        ("twocaps", 1000, 60, None, "0x1.0c152382d7321p+0"),
        ("band", 200, 70, 0.1, "0x1.08d9df00f1703p+0"),
        ("twocaps", 500, 65, 0.1, "0x1.f425c83863586p-1"),
        ("cap", 800, 75, 0.1, "0x1.154ebbbe67727p+0"),
        ("band", 100, 60, 1.0, "0x1.0c152383524e9p+0"),
    ]

    @pytest.mark.parametrize("m", [7, 50, 1000])
    @pytest.mark.parametrize("lo", [0.3, 1.0, 2.0])
    def test_narrow_interval_mass_against_mpmath(self, m, lo):
        # An interval on one side of the equator, from 1e-3 wide down to one
        # ulp.  The log-difference of two caps cancelled here (3.5e-7
        # relative off at width 1e-9, -inf at one ulp).  The error allowed
        # is a few rounding errors of the log2 terms the mass is built from,
        # (m - 2) log2 sin and the value itself.
        for width in [10.0**-j for j in range(3, 16)] + [math.ulp(lo)]:
            hi = lo + width
            ref = log2_interval_mass_mpmath(m, lo, hi)
            got = montecarlo._log2_interval_mass(m, lo, hi)
            assert abs(got - ref) <= 8 * 2.0**-52 * (m + abs(ref)), (width, got, ref)

    @pytest.mark.parametrize("shape, m, theta_deg, frac, theta_hex", EFFECTIVE_PINNED)
    def test_effective_theta_bits_pinned(self, shape, m, theta_deg, frac, theta_hex):
        make = {
            "cap": SphereSet.cap,
            "band": SphereSet.band_with_effective_angle,
            "twocaps": SphereSet.two_caps_with_effective_angle,
        }[shape]
        s = make(m, deg(theta_deg))
        if frac is not None:
            s = ShellSet.extruded(ShellSpec(m, 1.0, 0.1), s, 0.0, frac)
        assert s.effective_theta.hex() == theta_hex

    @pytest.mark.parametrize("m", [4, 20, 120, 300, 440, 460, 500, 1000, 3000])
    def test_band_floor_at_one_ulp(self, m):
        theta, u = deg(70), math.ulp(HALF_PI)
        s = SphereSet.band_with_effective_angle(m, theta)
        (lo, hi), = s.intervals
        target = _log2_sin_integral_zero_to(m - 2, theta)
        mass = s.log2_angular_mass()
        if _log2_band_mass(m, u) >= target:
            # the matching band is thinner than ulp(pi/2): floored, so the
            # stored band carries more than the target mass
            assert (lo, hi) == (HALF_PI - u, HALF_PI + u)
            assert mass > target
        else:
            # within 1e-6 relative, up to the rounding of the float endpoints
            tol = 1e-6 * abs(target) + math.log2(1.0 + u / (hi - lo))
            assert abs(mass - target) <= tol

    def test_floored_band_reports_its_real_angle(self):
        m, u = 1000, math.ulp(HALF_PI)
        s = SphereSet.band_with_effective_angle(m, deg(70))
        mass = s.log2_angular_mass()
        assert mass == pytest.approx(math.log2(2 * u), abs=1e-9)
        assert _log2_sin_integral_zero_to(m - 2, s.effective_theta) == pytest.approx(
            mass, rel=1e-9
        )
        assert s.effective_theta == pytest.approx(deg(76.06), abs=deg(0.01))

    def test_band_rejects_nonpositive_angle(self):
        with pytest.raises(DomainError):
            SphereSet.band_with_effective_angle(50, 0.0)

    def test_two_caps_effective_angle(self):
        m, target = 150, deg(70)
        s = SphereSet.two_caps_with_effective_angle(m, target)
        assert len(s.intervals) == 2
        assert abs(s.effective_theta - target) <= 1e-8
        # each antipodal cap is smaller than the single matching cap
        assert s.intervals[0][1] < target

    def test_two_cap_union_requires_disjoint(self):
        with pytest.raises(UnsupportedSet):
            SphereSet.two_cap_union(30, deg(100), deg(100))

    def test_interval_merging(self):
        s = SphereSet(10, ((0.2, 0.5), (0.4, 0.9)))
        assert s.intervals == ((0.2, 0.9),)

    def test_expanded_intervals_clip(self):
        s = SphereSet.cap(10, deg(30))
        (lo, hi), = s.expanded_intervals(deg(70))
        assert lo == 0.0 and hi == pytest.approx(deg(100))

    def test_membership(self):
        s = SphereSet.two_cap_union(10, 0.5, 0.4)
        polar = np.array([0.1, 0.6, math.pi - 0.3, math.pi - 0.5])
        assert list(s.contains_polar(polar)) == [True, False, True, False]


class TestIntersectionEstimator:
    def test_whole_sphere_set_recovers_cap_area(self):
        m, beta = 20, deg(50)
        s = SphereSet(m, ((0.0, math.pi),))
        est, se = estimate_cap_intersection(s, 0.0, beta, 20_000, trial_rng(8, 0), 1.0)
        exact = log_cap_area(CapSpec(m, 1.0, beta)).log2_value
        assert abs(est - exact) <= 4 * se

    @pytest.mark.parametrize("m", [20, 150])
    def test_orthogonal_pole_cap_matches_quadrature(self, m):
        theta, beta = deg(70), deg(35) + 0.1
        s = SphereSet.cap(m, theta)
        R = math.sqrt(m)
        ests, ses = [], []
        for t in range(6):
            e, se = estimate_cap_intersection(s, 0.0, beta, 10_000, trial_rng(10, t), R)
            ests.append(e)
            ses.append(se)
        exact = log_cap_intersection(m, 1.0, theta, beta).log2_value
        pooled_se = max(np.mean(ses) / math.sqrt(len(ests)), 1e-6)
        assert abs(float(np.mean(ests)) - exact) <= 5 * pooled_se

    def test_set_inside_cap_recovers_set_measure(self):
        # Y at e1 with a wide cap: the intersection is the whole set; also
        # exercises the degenerate branch where Y is parallel to e1.
        m = 20
        s = SphereSet.cap(m, deg(30))
        est, se = estimate_cap_intersection(s, 1.0, deg(50), 20_000, trial_rng(11, 0), 1.0)
        exact = log_cap_area(CapSpec(m, 1.0, deg(30))).log2_value
        assert abs(est - exact) <= 4 * se

    def test_empty_intersection(self):
        m = 12
        s = SphereSet.cap(m, deg(10))
        # antipodal pole (cy = -1), small cap: empty overlap
        est, _ = estimate_cap_intersection(s, -1.0, deg(20), 2_000, trial_rng(12, 0), 1.0)
        assert est == -math.inf

    def test_determinism(self):
        m = 30
        s = SphereSet.cap(m, deg(60))
        a = estimate_cap_intersection(s, 0.0, deg(50), 5_000, trial_rng(13, 3), 1.0)
        b = estimate_cap_intersection(s, 0.0, deg(50), 5_000, trial_rng(13, 3), 1.0)
        assert a == b

    # Sets built from explicit angles, so the pinned bits depend on the
    # estimator alone and not on the effective-angle solvers.
    BITS_SETS = {
        "cap": lambda m: SphereSet.cap(m, deg(70)),
        "cap(pi)": lambda m: SphereSet.cap(m, math.pi),
        "band": lambda m: SphereSet.band(m, HALF_PI, 0.3),
        "twocaps": lambda m: SphereSet.two_cap_union(m, deg(50), deg(60)),
        "3 bands": lambda m: SphereSet(
            m, ((deg(10), deg(30)), (deg(60), deg(100)), (deg(140), deg(170)))
        ),
    }
    # (set, m, beta, samples, y) -> float.hex of (estimate, se); y is "+axis",
    # "-axis" (cy = +-1 exactly) or "rng" (cy = y[0] / |y| of a Gaussian draw
    # y from the trial's stream, which then feeds the estimator, as the
    # verifiers do).  Recorded
    # from the cosine-coordinate estimator (w = 1 - cos rho drawn on the
    # reachable ranges, u = cos psi on the member range) with numpy 2.4 on
    # x86-64; seeded mc output is byte-stable only while these hold.
    BITS_PINNED = [
        ("cap", 7, deg(40) + 0.1, 1000, "rng", "0x1.66bcfba9695d1p+2", "0x1.cee29af0e4013p-5"),
        ("cap", 7, math.pi, 2, "rng", "0x1.803e529b8e598p+3", "0x1.07e6ccf839a5dp+0"),
        ("band", 7, deg(40) + 0.1, 1000, "rng", "0x1.f12fb7d1a6226p+2", "0x1.2656cec4b51cap-5"),
        ("band", 7, math.pi, 2, "rng", "0x1.95b907684a2e2p+3", "0x1.4cf23134ec4e2p-3"),
        ("twocaps", 7, deg(40) + 0.1, 1000, "rng", "0x1.9899189777e2cp+0", "0x1.0f9728f7405eap-4"),
        ("twocaps", 7, math.pi, 2, "rng", "0x1.71d6a915ab922p+3", "0x1.9cf5bd14ed8eep-1"),
        ("cap(pi)", 7, deg(35) + 0.1, 1000, "rng", "0x1.d97d7b09653f0p+2", "0x1.9f76645443599p-5"),
        ("cap", 7, 1e-9, 1000, "+axis", "-0x1.512701956e844p+7", "0x1.aeca158722f38p-5"),
        ("cap", 7, 1e-9, 1, "rng", "-inf", "inf"),
        ("twocaps", 7, 0.5, 1000, "-axis", "0x1.254c3cfb430c5p+2", "0x1.a6dc59616f2eep-5"),
        ("band", 7, HALF_PI + 0.05, 1000, "+axis", "0x1.7956a97127adbp+3", "0x1.9d15e26b3de7dp-6"),
        ("band", 7, HALF_PI + 0.05, 1, "-axis", "0x1.761de0b746056p+3", "inf"),
        ("cap", 300, deg(40) + 0.1, 1000, "rng", "0x1.a06f504016c9ep+8", "0x1.559499da3b2d0p+0"),
        ("cap", 300, math.pi, 2, "rng", "0x1.1e99356eb84d2p+9", "0x1.71547652b82fep+0"),
        ("band", 300, deg(40) + 0.1, 1000, "rng", "0x1.d078fac33cbb9p+8", "0x1.6949dd5c6bcc9p-1"),
        ("band", 300, math.pi, 2, "rng", "0x1.2e4e9678ff9dap+9", "0x1.699af531b1cc0p+0"),
        ("twocaps", 300, deg(40) + 0.1, 1000, "rng", "0x1.1630bc9a66132p+8", "0x1.6fdbb12cf0692p+0"),
        ("twocaps", 300, math.pi, 2, "rng", "0x1.b11f395e9a9e3p+8", "0x1.71547652b82fep+0"),
        ("cap(pi)", 300, deg(35) + 0.1, 1000, "rng", "0x1.a9a44594b84e3p+8", "0x1.e53dbcf2a3729p-1"),
        ("cap", 300, 1e-9, 1000, "+axis", "-0x1.0452c1f50c3ecp+13", "0x1.52e479ea74c35p+0"),
        ("cap", 300, 1e-9, 1, "rng", "-inf", "inf"),
        ("twocaps", 300, 0.5, 1000, "-axis", "0x1.23f68ca97ca4dp+8", "0x1.4b80a49c4596ep+0"),
        ("band", 300, HALF_PI + 0.05, 1000, "+axis", "0x1.327e3d40fbcaep+9", "0x1.abfd5714b45dfp-3"),
        ("band", 300, HALF_PI + 0.05, 1, "-axis", "0x1.29a949f3f925cp+9", "inf"),
        ("3 bands", 7, deg(40) + 0.1, 1000, "rng", "0x1.f8ea6346a2ccep+2", "0x1.2ba02832348e2p-5"),
        ("3 bands", 300, math.pi, 1000, "rng", "0x1.32807011eba91p+9", "0x1.5366cdef55375p-2"),
        ("3 bands", 300, 0.5, 2, "-axis", "0x1.adbd864c2d710p+7", "0x1.71547652b82fep+0"),
    ]

    @pytest.mark.parametrize("name, m, beta, k, y_kind, est_hex, se_hex", BITS_PINNED)
    def test_bits_pinned(self, name, m, beta, k, y_kind, est_hex, se_hex):
        s = self.BITS_SETS[name](m)
        rng = trial_rng(23, m)
        cy = {"+axis": 1.0, "-axis": -1.0}.get(y_kind)
        if cy is None:
            y = rng.standard_normal(m)
            cy = y[0] / np.linalg.norm(y)
        est, se = estimate_cap_intersection(s, cy, beta, k, rng, math.sqrt(m))
        assert (est.hex(), se.hex()) == (est_hex, se_hex)


def _set_of_shape(shape, m, p, q):
    """A cap, band or two-cap set at m from two numbers p, q in (0, 1)."""
    if shape == "cap":
        return SphereSet.cap(m, math.pi * max(p, 1e-3))
    if shape == "band":
        return SphereSet.band(m, math.pi * p, HALF_PI * max(q, 1e-3))
    a1 = math.pi * max(p, 1e-3) * 0.95
    return SphereSet.two_cap_union(m, a1, (math.pi - a1) * max(q, 1e-3) * 0.95)


def _frame(m, alpha):
    """y at angle alpha from the axis e1, and the unit t orthogonal to y in
    span(e1, y) with t . e1 = sin(alpha) >= 0 (the psi = 0 direction)."""
    y = np.zeros(m)
    t = np.zeros(m)
    y[0], y[1] = math.cos(alpha), math.sin(alpha)
    t[0], t[1] = math.sin(alpha), -math.cos(alpha)
    return y, t


def _cy_ca(y):
    """cos and sin of the angle between y and e1, as the estimator forms them."""
    cy = min(max(float(y[0] / np.linalg.norm(y)), -1.0), 1.0)
    return cy, math.sqrt(max(0.0, 1.0 - cy * cy))


_SHAPES = st.sampled_from(["cap", "band", "twocaps"])
_UNIT = st.floats(0.0, 1.0, exclude_max=True)
# y at +-e1 (alpha = 0 or pi, so cy = +-1 exactly) or off the axis.
_ALPHA = st.one_of(st.sampled_from([0.0, math.pi]), st.floats(1e-6, math.pi - 1e-6))


class TestCosineCoordinates:
    """Laws of the estimator's coordinates w = 1 - cos(rho), u = cos(psi)."""

    @settings(max_examples=300, deadline=None)
    @given(
        m=st.integers(4, 3000),
        shape=_SHAPES,
        p=_UNIT,
        q=_UNIT,
        alpha=_ALPHA,
        rho=st.floats(1e-6, math.pi - 1e-6),
        u=st.floats(-1.0, 1.0),
    )
    def test_u_range_is_exact_membership(self, m, shape, p, q, alpha, rho, u):
        s = _set_of_shape(shape, m, p, q)
        y, t = _frame(m, alpha)
        e3 = np.zeros(m)
        e3[2] = 1.0
        x = math.cos(rho) * y + math.sin(rho) * (u * t + math.sqrt(1.0 - u * u) * e3)
        polar = math.acos(min(max(float(x[0]), -1.0), 1.0))
        cy, ca = _cy_ca(y)
        cc = np.array([math.cos(rho) * cy])
        den = np.array([max(math.sin(rho) * ca, 1e-300)])
        in_range = False
        for lo, hi in s.intervals:
            a, length = _u_range(_end_cosines(lo, hi), cc, den, np.empty(1), np.empty(1))
            a, length = float(np.asarray(a).item()), float(np.asarray(length).item())
            assert -1.0 <= a <= 1.0 and 0.0 <= length <= 2.0
            if length == 0.0:
                continue
            # An end inside (-1, 1) is a point on the interval's edge.
            for end, edge in ((a, hi), (a + length, lo)):
                if 0.0 < edge < math.pi and abs(end) < 1.0 - 1e-9:
                    x_end = math.cos(rho) * y + math.sin(rho) * (
                        end * t + math.sqrt(1.0 - end * end) * e3
                    )
                    assert float(x_end[0]) == pytest.approx(math.cos(edge), abs=1e-12)
            # Points within rounding of an end are not decided here.
            assume(min(abs(u - a), abs(u - (a + length))) > 1e-7)
            in_range |= a <= u <= a + length
        assume(min(abs(polar - e) for iv in s.intervals for e in iv) > 1e-7)
        assert in_range == bool(s.contains_polar(np.array([polar]))[0])

    @settings(max_examples=300, deadline=None)
    @given(
        pieces=st.lists(
            st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=4
        ),
        v=st.lists(_UNIT, min_size=1, max_size=8),
    )
    def test_spread_lands_in_its_piece(self, pieces, v):
        starts = [np.full(len(v), a) for a, _ in pieces]
        lengths = [np.full(len(v), b) for _, b in pieces]
        point, total = montecarlo._spread(np.array(v), starts, lengths)
        cums = np.cumsum([b for _, b in pieces])
        assert total[0] == pytest.approx(cums[-1], abs=1e-12)
        for vi, pi in zip(v, point):
            j = min(int(np.searchsorted(cums, vi * cums[-1], side="left")), len(pieces) - 1)
            a, b = pieces[j]
            assert a - 1e-12 <= pi <= a + b + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        shape=_SHAPES,
        p=_UNIT,
        q=_UNIT,
        alpha=_ALPHA,
        beta=st.floats(1e-3, math.pi),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reachable_ranges_hold_every_member_of_the_cap(self, shape, p, q, alpha, beta, seed):
        m = 6
        s = _set_of_shape(shape, m, p, q)
        y, _ = _frame(m, alpha)
        ranges = _reachable_w_ranges(s.intervals, _cy_ca(y)[0], beta)
        if shape != "twocaps":
            assert len(ranges) <= 1  # one piece: no dead draw for a cap or band
        pts = sample_uniform_cap(m, 1.0, y, beta, trial_rng(seed, 0), size=400)
        member = s.contains_polar(polar_angles(pts))
        w = 1.0 - np.clip(pts[member] @ y, -1.0, 1.0)
        inside = np.zeros(w.shape, dtype=bool)
        for a, b in ranges:
            inside |= (w >= a - 1e-9) & (w <= b + 1e-9)
        assert inside.all()

    @pytest.mark.parametrize(
        "shape, p, q", [("cap", 0.4, 0.0), ("band", 0.5, 0.2), ("twocaps", 0.3, 0.5)]
    )
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.4, 2.9, math.pi])
    def test_no_draw_outside_reachable_ranges(self, monkeypatch, shape, p, q, alpha):
        # beta = 150 deg: at alpha = 0.3 the two caps are reached on two
        # disjoint rho-ranges.
        m, beta = 40, deg(150)
        s = _set_of_shape(shape, m, p, q)
        y, _ = _frame(m, alpha)
        draws = []
        spread = montecarlo._spread

        def recording_spread(v, starts, lengths):
            point, total = spread(v, starts, lengths)
            draws.append(np.array(point, copy=True))
            return point, total

        monkeypatch.setattr(montecarlo, "_spread", recording_spread)
        cy = _cy_ca(y)[0]
        estimate_cap_intersection(s, cy, beta, 5_000, trial_rng(31, 0), 1.0)
        ranges = _reachable_w_ranges(s.intervals, cy, beta)
        if not ranges:
            assert draws == []
            return
        if (shape, alpha) == ("twocaps", 0.3):
            assert len(ranges) == 2
        w = draws[0]  # the first spread places w; the second, u
        inside = np.zeros(w.shape, dtype=bool)
        for a, b in ranges:
            inside |= (w >= a - 4 * math.ulp(a)) & (w <= b + 4 * math.ulp(b))
        assert inside.all()

    def test_unresolvable_tiny_cap_raises(self):
        # w = 1 - cos(rho) underflows for rho ~ 1e-200; the estimate must not
        # silently read as an empty intersection.
        s = SphereSet.cap(20, 1.0)
        with pytest.raises(NumericalError):
            estimate_cap_intersection(s, 1.0, 1e-200, 100, trial_rng(1, 0), 1.0)
        est, _ = estimate_cap_intersection(s, 1.0, 1e-140, 100, trial_rng(1, 0), 1.0)
        assert math.isfinite(est)

    def test_m4_pole_draws_are_not_nan(self):
        # At m = 4 the (1 - u^2) exponent is 0; with y at +-e1 every u in
        # [-1, 1] is a member and u = -1 + 2v reaches -1 at v = 0.
        class Edges:
            def random(self, k):
                return np.resize([0.0, 0.5, 1.0 - 2.0**-53], k)

        m = 4
        s = SphereSet.cap(m, deg(30))
        for cy in (1.0, -1.0):
            est, se = estimate_cap_intersection(s, cy, math.pi, 3, Edges(), 1.0)
            assert not math.isnan(est) and not math.isnan(se)
            assert math.isfinite(est)
        est, se = estimate_cap_intersection(s, 1.0, deg(50), 20_000, trial_rng(11, 0), 1.0)
        assert abs(est - log_cap_area(CapSpec(m, 1.0, deg(30))).log2_value) <= 4 * se


def _state(rng):
    """A generator's bit-generator state with arrays as lists, for ==."""
    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x

    return plain(rng.bit_generator.state)


def _outcome(verify, *args):
    """("report", bits of every field) or ("raise", type, message)."""
    try:
        rep = verify(*args)
    except (DomainError, NumericalError) as exc:
        return ("raise", type(exc), str(exc))

    def bits(x):
        return x.hex() if isinstance(x, float) else x

    details = {k: bits(v) for k, v in rep.details.items()}
    return ("report", bits(rep.estimate), bits(rep.std_error), rep.n_used,
            bits(rep.threshold), rep.verdict, rep.seed, details)


_SEEDS = st.one_of(
    st.integers(0, 2**32), st.integers(2**64, 2**70), st.integers(-(2**70), -1)
)


@st.composite
def _iso_case(draw):
    """(verify, frozen verify, args) of one sphere or shell isoperimetry request."""
    m = draw(st.integers(4, 1000))
    shape = draw(st.sampled_from(["cap", "band", "twocaps", "intervals"]))
    theta = draw(st.floats(deg(30), deg(89)))
    if shape == "cap":
        s = SphereSet.cap(m, theta)
    elif shape == "band":
        s = SphereSet.band_with_effective_angle(m, theta)
    elif shape == "twocaps":
        s = SphereSet.two_caps_with_effective_angle(m, theta)
    else:
        ends = sorted(draw(st.lists(st.floats(0.0, math.pi), min_size=2, max_size=6)))
        ivs = [(lo, hi) for lo, hi in zip(ends[::2], ends[1::2]) if lo < hi]
        assume(ivs)
        s = SphereSet(m, ivs)
    shell = draw(st.booleans())
    if shell:
        s = ShellSet.extruded(ShellSpec(m, 1.0, 0.1), s, 0.0, draw(st.sampled_from([1.0, 0.1])))
    # omega in (pi/2 - theta, pi/2] when theta <= pi/2, so most cases run
    theta_eff = s.effective_theta
    omega = HALF_PI - min(theta_eff, HALF_PI) * draw(st.floats(0.0, 0.95))
    cfg = McConfig(
        seed=draw(_SEEDS),
        samples_per_estimate=draw(st.integers(1, 5000)),
        trials=draw(st.integers(1, 30)),
        epsilon=draw(st.floats(0.01, 0.5)),
        angular_slack=draw(st.one_of(st.none(), st.floats(-0.5, math.pi))),
    )
    if shell:
        return verify_isoperimetry_shell, verify_isoperimetry_shell_frozen, (s, omega, cfg)
    return verify_isoperimetry_sphere, verify_isoperimetry_sphere_frozen, (s, omega, cfg)


class TestTrialRoute:
    """The trial loop against a frozen copy of its one-generator-per-trial route."""

    @settings(max_examples=200, deadline=None)
    @given(seed=_SEEDS, trials=st.integers(1, 6), n=st.integers(0, 9))
    def test_rekeyed_generator_is_a_fresh_stream(self, seed, trials, n):
        for t, rng in enumerate(montecarlo._trial_streams(seed, trials)):
            fresh = trial_rng(seed, t)
            assert _state(rng) == _state(fresh)
            assert np.array_equal(rng.standard_normal(n), fresh.standard_normal(n))
            assert np.array_equal(rng.random(n), fresh.random(n))
            # a 32-bit draw leaves half a word buffered, which the next
            # re-key must drop
            assert rng.integers(2**32, dtype=np.uint32) == fresh.integers(2**32, dtype=np.uint32)
            assert _state(rng) == _state(fresh)

    @settings(max_examples=120, deadline=None)
    @given(case=_iso_case())
    def test_reports_equal_frozen_route(self, case):
        verify, frozen, args = case
        assert _outcome(verify, *args) == _outcome(frozen, *args)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(4, 200),
        seed=_SEEDS,
        cut=st.floats(-0.2, 1.0),
        shell=st.booleans(),
    )
    def test_numerical_error_at_the_same_trial(self, m, seed, cut, shell):
        # No verifier input makes beta small enough for the estimator's
        # NumericalError (theta + omega > pi/2 keeps beta above ~1e-32), so
        # the ranges are computed at beta = 1e-200 for poles with cosine
        # below `cut`, in both routes alike: the first such pole inside the
        # set raises, and both routes must stop at the same trial.
        s = SphereSet.cap(m, deg(89))  # about half of the poles lie inside
        if shell:
            s = ShellSet.extruded(ShellSpec(m, 1.0, 0.1), s)
        cfg = McConfig(seed=seed, samples_per_estimate=50, trials=30, epsilon=0.1)
        reach = montecarlo._reachable_w_ranges
        outcomes = []
        for verify in (
            (verify_isoperimetry_shell, verify_isoperimetry_shell_frozen)
            if shell else (verify_isoperimetry_sphere, verify_isoperimetry_sphere_frozen)
        ):
            poles = []

            def shrunk(intervals, cy, beta):
                poles.append(cy)
                return reach(intervals, cy, 1e-200 if cy < cut else beta)

            with mock.patch.object(montecarlo, "_reachable_w_ranges", shrunk):
                outcomes.append((_outcome(verify, s, deg(35), cfg), poles))
        assert outcomes[0] == outcomes[1]


class TestShellSet:
    def test_full_extrusion_volume_matches_shell_cap(self):
        spec = ShellSpec(80, 1.0, 0.1)
        s = ShellSet.extruded(spec, SphereSet.cap(80, deg(40)))
        assert s.log2_volume() == pytest.approx(
            log_shell_cap_volume(spec, deg(40)).log2_value, abs=1e-9
        )
        assert s.effective_theta == pytest.approx(deg(40), abs=1e-9)

    def test_partial_extrusion_shrinks_effective_angle(self):
        spec = ShellSpec(200, 1.0, 0.1)
        s = ShellSet.extruded(spec, SphereSet.cap(200, deg(70)), 0.0, 0.1)
        assert s.effective_theta < deg(70)
        assert s.effective_theta > deg(45)

    def test_radial_interval_validation(self):
        spec = ShellSpec(50, 1.0, 0.1)
        with pytest.raises(DomainError):
            ShellSet(spec, SphereSet.cap(50, 1.0), spec.r_lower - 1.0, spec.r_upper)


class TestConcentration:
    def test_vacuous_bound_passes(self):
        cfg = McConfig(seed=3, samples_per_estimate=4000, trials=1, epsilon=0.1)
        rep = verify_concentration(2, 0.5, cfg)
        assert rep.threshold == 1.0
        assert rep.verdict is Verdict.PASS

    def test_bound_holds_high_dimension(self):
        cfg = McConfig(seed=7, samples_per_estimate=30_000, trials=1, epsilon=0.1)
        rep = verify_concentration(1000, 0.1, cfg)
        assert rep.verdict is Verdict.PASS
        assert rep.estimate <= rep.threshold
        # the variance bound is loose by ~two orders of magnitude here
        assert rep.estimate <= 0.01 + 3 * rep.std_error
        assert rep.n_used == 30_000

    def test_tail_decreases_with_dimension(self):
        cfg = McConfig(seed=5, samples_per_estimate=50_000, trials=1, epsilon=0.1)
        estimates = [verify_concentration(m, 0.3, cfg).estimate for m in (10, 100, 1000)]
        assert estimates[0] > estimates[1] > estimates[2]

    @pytest.mark.parametrize("m", [10**3, 10**5, 10**7])
    def test_tail_matches_exact_law(self, m):
        # P(|cos| >= mu) = I_{1 - mu^2}((m-1)/2, 1/2)
        mu, n = 2.5 / math.sqrt(m), 100_000
        cfg = McConfig(seed=7, samples_per_estimate=n, trials=1, epsilon=0.1)
        rep = verify_concentration(m, mu, cfg)
        exact = reg_inc_beta(1.0 - mu * mu, (m - 1) / 2, 0.5)
        assert abs(rep.estimate - exact) <= 4 * math.sqrt(exact * (1.0 - exact) / n)

    def test_invalid_mu(self):
        with pytest.raises(DomainError):
            verify_concentration(10, 1.5, McConfig(seed=0, samples_per_estimate=10,
                                                   trials=1, epsilon=0.1))


class TestBlowup:
    def test_cap_neighborhood(self):
        cfg = McConfig(seed=5, samples_per_estimate=20_000, trials=1, epsilon=0.1)
        rep = verify_blowup(SphereSet.cap(500, deg(70)), cfg)
        assert rep.estimate >= rep.threshold
        assert rep.verdict is Verdict.PASS

    def test_band_neighborhood(self):
        cfg = McConfig(seed=5, samples_per_estimate=20_000, trials=1, epsilon=0.1)
        s = SphereSet.band_with_effective_angle(500, deg(70))
        rep = verify_blowup(s, cfg)
        assert rep.verdict is Verdict.PASS

    def test_large_epsilon_trivial(self):
        cfg = McConfig(seed=5, samples_per_estimate=2_000, trials=1, epsilon=0.99)
        rep = verify_blowup(SphereSet.cap(50, deg(45)), cfg)
        assert rep.verdict is Verdict.PASS


class TestIsoperimetrySphere:
    CFG = McConfig(seed=17, samples_per_estimate=3000, trials=50, epsilon=0.1)

    def test_cap_set_passes(self):
        rep = verify_isoperimetry_sphere(SphereSet.cap(150, deg(70)), deg(35), self.CFG)
        assert rep.estimate >= 0.9
        assert rep.verdict is Verdict.PASS

    def test_band_set_passes(self):
        s = SphereSet.band_with_effective_angle(150, deg(70))
        rep = verify_isoperimetry_sphere(s, deg(35), self.CFG)
        assert rep.verdict is Verdict.PASS

    def test_determinism_bit_identical(self):
        s = SphereSet.cap(60, deg(70))
        a = verify_isoperimetry_sphere(s, deg(35), self.CFG)
        b = verify_isoperimetry_sphere(s, deg(35), self.CFG)
        assert a == b

    def test_success_fraction_nondecreasing_in_m(self):
        cfg = McConfig(seed=13, samples_per_estimate=3000, trials=60, epsilon=0.1)
        fracs, ses = [], []
        for m in (50, 100, 200, 400):
            rep = verify_isoperimetry_sphere(SphereSet.cap(m, deg(70)), deg(35), cfg)
            fracs.append(rep.estimate)
            ses.append(rep.std_error)
        for i in range(len(fracs) - 1):
            assert fracs[i + 1] >= fracs[i] - max(ses[i], ses[i + 1], 1.0 / 60)

    def test_degenerate_slack_covers_sphere(self):
        cfg = McConfig(seed=2, samples_per_estimate=500, trials=10, epsilon=0.1,
                       angular_slack=math.pi)
        rep = verify_isoperimetry_sphere(SphereSet.cap(30, deg(70)), deg(35), cfg)
        assert rep.verdict is Verdict.PASS
        assert rep.estimate == 1.0

    def test_precondition_angle_sum(self):
        with pytest.raises(DomainError):
            verify_isoperimetry_sphere(SphereSet.cap(50, deg(40)), deg(45), self.CFG)


class TestIsoperimetryShell:
    CFG = McConfig(seed=19, samples_per_estimate=3000, trials=50, epsilon=0.1)

    def test_extruded_cap_passes(self):
        spec = ShellSpec(200, 1.0, 0.1)
        s = ShellSet.extruded(spec, SphereSet.cap(200, deg(70)))
        rep = verify_isoperimetry_shell(s, deg(35), self.CFG)
        assert rep.verdict is Verdict.PASS

    def test_inner_slab_adversary_passes(self):
        spec = ShellSpec(200, 1.0, 0.1)
        s = ShellSet.extruded(spec, SphereSet.cap(200, deg(70)), 0.0, 0.1)
        rep = verify_isoperimetry_shell(s, deg(35), self.CFG)
        assert rep.verdict is Verdict.PASS

    def test_thin_shell_matches_sphere_variant(self):
        m = 80
        spec = ShellSpec(m, 1.0, 1e-6)
        s = ShellSet.extruded(spec, SphereSet.cap(m, deg(70)))
        shell_rep = verify_isoperimetry_shell(s, deg(35), self.CFG)
        sphere_rep = verify_isoperimetry_sphere(SphereSet.cap(m, deg(70)), deg(35), self.CFG)
        tol = 2 * (shell_rep.std_error + sphere_rep.std_error) + 1e-12
        assert abs(shell_rep.estimate - sphere_rep.estimate) <= tol


class TestReportSemantics:
    def test_inconclusive_band(self):
        # estimate == threshold with nonzero standard error is inconclusive
        cfg = McConfig(seed=9, samples_per_estimate=1000, trials=20, epsilon=0.1)
        rep = verify_isoperimetry_sphere(SphereSet.cap(80, deg(70)), deg(35), cfg)
        if abs(rep.estimate - rep.threshold) < 3 * rep.std_error:
            assert rep.verdict is Verdict.INCONCLUSIVE
        else:
            assert rep.verdict in (Verdict.PASS, Verdict.FAIL)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            McConfig(seed=0, samples_per_estimate=0, trials=1, epsilon=0.1)
        with pytest.raises(DomainError):
            McConfig(seed=0, samples_per_estimate=1, trials=1, epsilon=1.0)
