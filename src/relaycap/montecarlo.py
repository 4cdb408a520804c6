"""Seeded Monte Carlo verification of high-dimensional sphere/shell geometry.

Verifies, at finite dimension, the probabilistic statements the capacity
bound rests on: measure concentration around equators, the blowing-up
property of set neighborhoods, and the cap-intersection property (a random
cap of slightly enlarged angle captures at least the orthogonal-pole
cap-intersection volume from any set of matching effective angle, with
high probability).

Sets here are axially symmetric about e1: a cap, a band, or a union of two
antipodal caps, each described by polar-angle intervals to e1, so a random
pole y enters only through its cosine cy to e1.  That structure is what
makes the intersection measure estimable at m ~ several hundred, where
the intersection occupies a ~2^-70 fraction of the random cap and
hit-or-miss sampling is hopeless.  The estimator works in cosine
coordinates around the cap's pole y: w = 1 - cos(rho) is drawn uniformly
only on the rho-ranges where the circle around y can meet the set, and
u = cos(psi) (psi the azimuth toward e1) uniformly over exactly the range
where membership holds, which is linear in u; the true density is folded
into log-domain weights, so no sample needs a trigonometric function.
The estimator is unbiased and its calibration against the closed-form
measures is part of the test suite.

All randomness of a request comes from one counter-based Philox
generator, trial_rng(seed, 0).  Every verifier first draws the polar
cosines of its n random points from their exact law (`_polar_cosines`);
the isoperimetry verifiers then draw each trial's estimator uniforms from
the same generator, in trial order.  Output is reproducible bit-for-bit
from the seed.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import geometry
from .errors import DomainError, NumericalError, UnsupportedSet
from .geometry import (
    ShellSpec,
    _log2_band_mass,
    _log2_shell_radial,
    _log2_sin_integral_zero_to,
    _logaddexp2,
)

LN2 = math.log(2.0)
HALF_PI = math.pi / 2.0
# pi - fl(pi): intervals past the equator are mirrored at the true pi, so
# that [lo, pi] keeps the sliver where sin^k is largest.
_PI_LO = 1.2246467991473532e-16
# Width at which the effective-angle bisection stops; it returns the midpoint.
_ANGLE_BRACKET = 1e-13


def trial_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for (seed, stream); streams are disjoint."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _polar_cosines(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Cosines to e1 of n uniform points on the sphere in R^m.

    Exact law without drawing the points: for a standard Gaussian vector,
    the first coordinate z and the squared norm of the other m - 1
    coordinates (chi-square with m - 1 degrees of freedom) are independent,
    so cos = z / sqrt(z^2 + chi2_{m-1}); equivalently cos^2 ~ Beta(1/2,
    (m-1)/2) with a random sign.  Work and memory scale with n, not n * m.
    """
    z = rng.standard_normal(n)
    return z / np.sqrt(z * z + rng.chisquare(m - 1, n))


# ---------------------------------------------------------------------------
# Axially symmetric sets
# ---------------------------------------------------------------------------


def _merge_intervals(intervals) -> tuple[tuple[float, float], ...]:
    ivs = sorted((float(lo), float(hi)) for lo, hi in intervals)
    merged: list[list[float]] = []
    for lo, hi in ivs:
        if not 0.0 <= lo < hi <= math.pi:
            raise DomainError(f"polar interval must satisfy 0 <= lo < hi <= pi, got ({lo}, {hi})")
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def _contains_polar(intervals, polar: np.ndarray) -> np.ndarray:
    """Which polar angles lie in one of the closed intervals."""
    member = np.zeros(polar.shape, dtype=bool)
    for lo, hi in intervals:
        member |= (polar >= lo) & (polar <= hi)
    return member


def _solve_angle_for_mass(m: int, target_log2: float) -> float:
    """Cap angle whose sin^(m-2) mass equals target_log2 (bisection to _ANGLE_BRACKET)."""
    lo, hi = 0.0, math.pi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _log2_sin_integral_zero_to(m - 2, mid) < target_log2:
            lo = mid
        else:
            hi = mid
        if hi - lo < _ANGLE_BRACKET:
            break
    return 0.5 * (lo + hi)


def _log2_interval_mass(m: int, lo: float, hi: float) -> float:
    """log2 of the sin^(m-2) mass of the polar interval [lo, hi].

    An interval from a pole is a cap, and one across the equator is two
    half-bands.  Any other lies on one side of the equator and is the
    difference of two caps, mirrored onto [0, pi/2] so that neither cap
    passes the equator, unless it holds less than half of the larger cap:
    there the difference cancels, and a fixed rule is exact.  Mirrors are
    taken at the true pi, not at fl(pi).
    """
    k = m - 2
    if lo == 0.0:
        return _log2_sin_integral_zero_to(k, hi)
    if hi == math.pi:
        return _log2_sin_integral_zero_to(k, (math.pi - lo) + _PI_LO)
    if lo < HALF_PI < hi:
        return _logaddexp2(
            _log2_band_mass(m, HALF_PI - lo) - 1.0, _log2_band_mass(m, hi - HALF_PI) - 1.0
        )
    if lo >= HALF_PI:
        cap_lo, cap_hi = (math.pi - hi) + _PI_LO, (math.pi - lo) + _PI_LO
    else:
        cap_lo, cap_hi = lo, hi
    outer = _log2_sin_integral_zero_to(k, cap_hi)
    rest = -math.expm1((_log2_sin_integral_zero_to(k, cap_lo) - outer) * LN2)
    if rest >= 0.5:
        return outer + math.log2(rest)
    # Here hi <= 2 lo, so hi - lo is exact; cap_hi - cap_lo may not be.
    return _log2_sin_power_gauss(k, cap_lo, hi - lo)


def _log2_sin_power_gauss(k: int, start: float, width: float) -> float:
    """log2 of the integral of sin^k over [start, start + width], by 12-point Gauss-Legendre.

    For an interval on one side of the equator that holds less than half of
    the cap it closes, sin^k varies by less than a factor 2 over it (sin^k
    is log-concave), and as an entire function it is then integrated to
    rounding by the fixed rule.  The interval is given as start and width,
    so that one mirrored at the true pi keeps its float width; nodes near
    pi, placed at pi's spacing, would move sin^k by k ulp(pi) / (pi - x)
    relative.  The nodes are shifted by their largest log2 value, so
    nothing underflows.
    """
    nodes, weights = np.polynomial.legendre.leggauss(12)
    half = 0.5 * width
    log2_f = k * np.log2(np.sin((start + half) + half * nodes))
    shift = float(log2_f.max())
    return shift + math.log2(half * float(weights @ np.exp2(log2_f - shift)))


@dataclass(eq=False)
class SphereSet:
    """An axially symmetric subset of the sphere: polar-angle intervals to e1.

    Covers the three built-in shapes (cap, band, two antipodal caps) in one
    representation; membership depends only on the angle to e1.
    """

    m: int
    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.m < 2:
            raise DomainError(f"sphere sets need m >= 2, got {self.m}")
        self.intervals = _merge_intervals(self.intervals)
        if not self.intervals:
            raise DomainError("set must contain at least one polar interval")

    # -- constructors ------------------------------------------------------

    @classmethod
    def cap(cls, m: int, angle: float) -> "SphereSet":
        if not 0.0 < angle <= math.pi:
            raise DomainError(f"cap angle must lie in (0, pi], got {angle}")
        return cls(m, ((0.0, angle),))

    @classmethod
    def band(cls, m: int, center: float, half_width: float) -> "SphereSet":
        if not 0.0 < half_width <= math.pi / 2.0:
            raise DomainError(f"band half-width must lie in (0, pi/2], got {half_width}")
        lo = max(0.0, center - half_width)
        hi = min(math.pi, center + half_width)
        return cls(m, ((lo, hi),))

    @classmethod
    def two_cap_union(cls, m: int, angle1: float, angle2: float) -> "SphereSet":
        """Two caps at the antipodal poles +-e1; they must be disjoint."""
        if angle1 + angle2 >= math.pi:
            raise UnsupportedSet(
                "two-cap union supports disjoint antipodal caps only: "
                f"angle1 + angle2 = {angle1 + angle2} >= pi"
            )
        return cls(m, ((0.0, angle1), (math.pi - angle2, math.pi)))

    @classmethod
    def band_with_effective_angle(cls, m: int, theta: float) -> "SphereSet":
        """Equatorial band whose measure matches a cap of angle theta.

        Half-width found by bisection in log space on the band's closed-form
        mass (the matching band can be astronomically thin at large m).
        """
        if not theta > 0.0:
            raise DomainError(f"band effective angle must be positive, got {theta}")
        target = _log2_sin_integral_zero_to(m - 2, theta)
        ln_lo, ln_hi = math.log(HALF_PI) - 800.0, math.log(HALF_PI)
        for _ in range(120):
            ln_mid = 0.5 * (ln_lo + ln_hi)
            if _log2_band_mass(m, math.exp(ln_mid)) < target:
                ln_lo = ln_mid
            else:
                ln_hi = ln_mid
        # Polar intervals are float angles: above m ~ 450 (theta = 70 deg) the
        # matching band is thinner than ulp(pi/2) and would round to an empty
        # interval, so it is floored at one ulp either side of the equator.
        # Its measure then exceeds the target and effective_theta is the
        # floored band's real angle, not theta.
        w = max(math.exp(0.5 * (ln_lo + ln_hi)), math.ulp(HALF_PI))
        return cls.band(m, HALF_PI, w)

    @classmethod
    def two_caps_with_effective_angle(cls, m: int, theta: float) -> "SphereSet":
        """Two equal antipodal caps whose total measure matches a theta-cap."""
        target = _log2_sin_integral_zero_to(m - 2, theta) - 1.0
        a = _solve_angle_for_mass(m, target)
        return cls.two_cap_union(m, a, a)

    # -- measures ----------------------------------------------------------

    def log2_angular_mass(self) -> float:
        """log2 of the sin^(m-2) mass of the polar-interval union."""
        total = -math.inf
        for lo, hi in self.intervals:
            total = _logaddexp2(total, _log2_interval_mass(self.m, lo, hi))
        return total

    @property
    def effective_theta(self) -> float:
        """Angle of the cap with the same measure as this set."""
        if self._effective is None:
            if len(self.intervals) == 1 and self.intervals[0][0] == 0.0:
                self._effective = self.intervals[0][1]
            else:
                self._effective = _solve_angle_for_mass(self.m, self.log2_angular_mass())
        return self._effective

    _effective: float | None = field(default=None, repr=False, init=False)

    # -- membership --------------------------------------------------------

    def contains_polar(self, polar: np.ndarray) -> np.ndarray:
        return _contains_polar(self.intervals, polar)

    def expanded_intervals(self, t: float) -> tuple[tuple[float, float], ...]:
        """Polar intervals of the t-neighborhood of the set."""
        return _merge_intervals(
            (max(0.0, lo - t), min(math.pi, hi + t)) for lo, hi in self.intervals
        )


@dataclass(eq=False)
class ShellSet:
    """An axially symmetric angular set extruded over a slice of a shell.

    The slice runs over the fractions [frac_lo, frac_hi] of the shell
    height, measured from the inner radius.
    """

    spec: ShellSpec
    angular: SphereSet
    frac_lo: float = 0.0
    frac_hi: float = 1.0

    def __post_init__(self) -> None:
        if self.angular.m != self.spec.m:
            raise DomainError("angular set dimension must match the shell dimension")
        if not 0.0 <= self.frac_lo < self.frac_hi <= 1.0:
            raise DomainError(
                f"need 0 <= frac_lo < frac_hi <= 1, got {self.frac_lo}, {self.frac_hi}"
            )
        if self.spec.delta == 0.0:
            raise DomainError("a shell set needs a shell of positive thickness, got delta = 0")

    @property
    def base_radius(self) -> float:
        return math.sqrt(self.spec.m * self.spec.N)

    def log2_radial_part(self) -> float:
        return _log2_shell_radial(self.spec, self.base_radius, self.frac_lo, self.frac_hi)

    def log2_volume(self) -> float:
        front = geometry._log2_cap_front(self.spec.m, self.base_radius)
        return front + self.angular.log2_angular_mass() + self.log2_radial_part()

    @property
    def effective_theta(self) -> float:
        """Angle theta with |self| = |ShellCap(theta)| over the full shell."""
        radial_full = _log2_shell_radial(self.spec, self.base_radius)
        target = (
            self.angular.log2_angular_mass() + self.log2_radial_part() - radial_full
        )
        return _solve_angle_for_mass(self.spec.m, target)


# ---------------------------------------------------------------------------
# Intersection estimator
# ---------------------------------------------------------------------------


# Rounding in alpha = acos(cy) and in the interval ends moves a reachable
# rho-range by a few ulp(pi).  Each range is widened by far more than that:
# cutting off a reachable sliver would bias the estimate, while a draw in the
# pad only carries weight 0.
_REACH_PAD = 1e-12


def _reachable_w_ranges(
    intervals: tuple[tuple[float, float], ...], cy: float, beta: float
) -> tuple[tuple[float, float], ...]:
    """Disjoint w = 1 - cos(rho) ranges where the circle around y meets the set.

    The circle at polar angle rho from y spans the polar angles [|rho - alpha|,
    min(rho + alpha, 2 pi - rho - alpha)], alpha = acos(cy), so it meets the
    polar interval [lo, hi] exactly for rho in [max(alpha - hi, lo - alpha),
    min(alpha + hi, 2 pi - lo - alpha)].  These ranges, cut to [0, beta],
    padded by _REACH_PAD and merged, are mapped to w = 2 sin^2(rho / 2).
    """
    alpha = math.acos(cy)
    reach = []
    for lo, hi in intervals:
        a = max(0.0, alpha - hi - _REACH_PAD, lo - alpha - _REACH_PAD)
        b = min(beta, alpha + hi + _REACH_PAD, 2.0 * math.pi - lo - alpha + _REACH_PAD)
        if a < b:
            reach.append((a, b))
    return tuple(
        (2.0 * math.sin(0.5 * a) ** 2, 2.0 * math.sin(0.5 * b) ** 2)
        for a, b in _merge_intervals(reach)
    )


def _spread(v: np.ndarray, starts, lengths):
    """Map v in [0, 1) uniformly onto the union of [start_j, start_j + length_j].

    Starts and lengths are per-sample arrays or scalars, the pieces taken in
    order.  With total the summed length and target = v * total, the point
    is target + (start_j - cum_{j-1}) for the piece j whose running-sum
    range (cum_{j-1}, cum_j] holds target; the piece's offset is selected
    arithmetically, since masked ufuncs are several times slower.
    Overwrites v, and returns it as the point when there is one piece;
    returns (point, total).
    """
    cums = []
    total = lengths[0]
    for length in lengths[1:]:
        cums.append(total)
        total = total + length
    target = np.multiply(v, total, out=v)
    if not cums:
        return np.add(target, starts[0], out=target), total
    point = target + starts[0]
    prev = starts[0]
    for start, cum in zip(starts[1:], cums):
        offset = start - cum
        point += (target > cum) * (offset - prev)
        prev = offset
    return point, total


def _end_cosines(lo: float, hi: float) -> tuple[float | None, float | None]:
    """(cos hi, cos lo) of a polar interval, None for an end at a pole."""
    return (None if hi == math.pi else math.cos(hi), None if lo == 0.0 else math.cos(lo))


def _u_range(ends, cc: np.ndarray, den: np.ndarray, a_out: np.ndarray, b_out: np.ndarray):
    """u-range [a, a + length] of the samples' circles inside a polar interval.

    `ends` is the interval's `_end_cosines`.  A point at u = cos(psi) has
    cosine cc + den * u to e1, so it lies in [lo, hi] exactly for u in
    [(cos hi - cc) / den, (cos lo - cc) / den] intersected with [-1, 1].
    An end at a pole is the exact bound -1 or 1.  The start a is kept inside
    [-1, 1] even where the range is empty, so `_spread`'s offsets stay at
    the scale of one.  a and the length are written to a_out and b_out.
    """
    cos_hi, cos_lo = ends
    if cos_hi is None:
        a = -1.0
    else:
        a = np.subtract(cos_hi, cc, out=a_out)
        a /= den
        np.maximum(a, -1.0, out=a)
        np.minimum(a, 1.0, out=a)
    if cos_lo is None:
        b = 1.0
    else:
        b = np.subtract(cos_lo, cc, out=b_out)
        b /= den
        np.minimum(b, 1.0, out=b)
    length = np.subtract(b, a, out=b_out)
    return a, np.maximum(length, 0.0, out=length)


def _check_cap_angle(beta: float) -> None:
    if not 0.0 < beta <= math.pi:
        raise DomainError(f"cap angle must lie in (0, pi], got {beta}")


class _Estimator:
    """The intersection estimate of one set at one sample count and radius.

    What does not depend on the pole or the cap angle is built once: the
    interval end cosines, the weight exponent (m - 4)/2, the three terms of
    the estimate's constant and k-length work buffers, which every estimate
    overwrites.  The caller checks m >= 4, k >= 1 and the cap angle, and
    enters np.errstate(divide="ignore"), under which log2(0) = -inf is a
    dead draw's weight.
    """

    def __init__(self, sphere_set: SphereSet, k: int, radius: float):
        m = sphere_set.m
        self.m, self.k = m, k
        self.intervals = sphere_set.intervals
        self.ends = [_end_cosines(lo, hi) for lo, hi in self.intervals]
        self.exponent = 0.5 * (m - 4)
        self.log2_k = math.log2(k)
        self.log2_radius_term = (m - 1) * math.log2(radius)
        self.log2_area = geometry.log_sphere_area(m - 2, 1.0).log2_value
        self.w, self.v, self.s2, self.s, self.den = (np.empty(k) for _ in range(5))
        self.a_out = [np.empty(k) for _ in self.intervals]
        self.b_out = [np.empty(k) for _ in self.intervals]

    def estimate(
        self, cy: float, beta: float, uniforms: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[float, np.ndarray | None, float]:
        """(log2 estimate, relative weights, their sum) for the pole cosine cy.

        `uniforms(out)` returns len(out) uniforms in [0, 1), written to out
        or not; it is called for the w draws, then for the u draws, and not
        at all when the cap cannot reach the set.  The weights are a work
        buffer, valid until the next estimate; they are None, with an
        estimate of -inf, when no sample carries weight.
        """
        k = self.k
        cy = min(max(float(cy), -1.0), 1.0)
        ca = math.sqrt(max(0.0, 1.0 - cy * cy))

        ranges = _reachable_w_ranges(self.intervals, cy, beta)
        if not ranges:
            return -math.inf, None, 0.0
        # Below rho ~ 1e-150, w = 1 - cos(rho) nears the subnormal range and
        # loses its bits (or underflows to 0), so such a cap is out of reach.
        if ranges[-1][1] < 2.0**-1000:
            raise NumericalError(
                f"every reachable polar angle is below ~1e-150 (beta = {beta}); "
                "w = 1 - cos(rho) cannot resolve it"
            )
        w, w_len = _spread(uniforms(self.w), [a for a, _ in ranges], [b - a for a, b in ranges])
        v = uniforms(self.v)
        s2 = np.subtract(2.0, w, out=self.s2)
        s2 *= w
        np.maximum(s2, 0.0, out=s2)  # w may leave [0, 2] by an ulp
        s = np.sqrt(s2, out=self.s)
        cc = np.multiply(w, -cy, out=w)
        cc += cy
        den = np.multiply(s, ca, out=self.den)
        np.maximum(den, 1e-300, out=den)
        starts, lengths = zip(
            *(_u_range(e, cc, den, a, b) for e, a, b in zip(self.ends, self.a_out, self.b_out))
        )
        u, total = _spread(v, starts, lengths)

        # log2 w = log2(total * s) + ((m-4)/2) log2(s^2 (1 - u^2)); the second
        # term is 0 at m = 4 and is skipped there, since u = +-1 would make it
        # 0 * -inf.  A dead draw (in a pad, or one that rounding puts outside
        # every member range) has total = 0 and weight exactly 0.
        log_w = np.multiply(s, total, out=s)
        np.log2(log_w, out=log_w)
        if self.m > 4:
            q = np.multiply(u, u, out=u)
            np.subtract(1.0, q, out=q)
            q *= s2
            np.maximum(q, 0.0, out=q)  # |u| may pass 1 by an ulp
            np.log2(q, out=q)
            q *= self.exponent
            log_w += q

        w_max = float(np.maximum.reduce(log_w))
        if w_max == -math.inf:
            return -math.inf, None, 0.0
        log_w -= w_max
        # Weights below 2^-1000 of the largest are below an ulp of the sum (which
        # is >= 1); lifting them to 2^-1000 keeps exp2 off its slow subnormal path.
        np.maximum(log_w, -1000.0, out=log_w)
        wt = np.exp2(log_w, out=log_w)
        total_w = float(np.add.reduce(wt))
        # The terms are added in this order, not pre-summed: the sum's last
        # bits depend on it.
        log2_est = (
            math.log2(w_len) - self.log2_k + self.log2_radius_term + self.log2_area
            + w_max + math.log2(total_w)
        )
        return log2_est, wt, total_w


def estimate_cap_intersection(
    sphere_set: SphereSet,
    cy: float,
    beta: float,
    n_samples: int,
    rng: np.random.Generator,
    radius: float = 1.0,
) -> tuple[float, float]:
    """Unbiased log-domain estimate of mu(A intersect Cap(y, beta)).

    A is symmetric about e1, so the pole y enters only through its cosine
    cy = y . e1 / |y|, which is clamped to [-1, 1].  Parametrize the cap
    around y by w = 1 - cos(rho), rho the polar angle to y, and u =
    cos(psi), psi the azimuth toward e1; the remaining directions integrate
    out exactly into the unit (m-3)-sphere area, and the uniform measure is
    s^(m-3) (1 - u^2)^((m-4)/2) dw du with s = sin(rho) = sqrt(w (2 - w)).
    w is drawn uniformly on the ranges where the circle around y can meet
    A (`_reachable_w_ranges`), u uniformly on the range where the point
    lies in A (`_u_range`, exact), and the density is carried as the log-domain weight log2(total * s) +
    ((m-4)/2) log2(s^2 (1 - u^2)), total being the u-range's length.

    Returns (log2 estimate, standard error in bits).  An estimate of -inf
    means no sample carried weight (empty intersection at every draw).
    """
    m = sphere_set.m
    if m < 4:
        raise DomainError(f"intersection estimation needs m >= 4, got {m}")
    _check_cap_angle(beta)
    k = int(n_samples)
    if k < 1:
        raise DomainError("need at least one sample")
    with np.errstate(divide="ignore"):
        log2_est, wt, total_w = _Estimator(sphere_set, k, radius).estimate(
            cy, beta, lambda out: rng.random(len(out))
        )
    if wt is None:
        return -math.inf, math.inf
    if k == 1:
        return log2_est, math.inf
    mean = total_w / k
    wt -= mean
    wt *= wt
    sd = math.sqrt(float(np.add.reduce(wt)) / (k - 1))
    return log2_est, sd / (math.sqrt(k) * mean) / LN2


# ---------------------------------------------------------------------------
# Experiment configuration and reports
# ---------------------------------------------------------------------------


class Verdict(Enum):
    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class McConfig:
    """Seeded experiment configuration.

    epsilon plays the double role it has in the verified statements (angular
    slack and probability level); angular_slack overrides the slack alone
    for sensitivity studies.
    """

    seed: int
    samples_per_estimate: int = 10_000
    trials: int = 200
    epsilon: float = 0.1
    angular_slack: float | None = None

    def __post_init__(self) -> None:
        if self.samples_per_estimate < 1 or self.trials < 1:
            raise DomainError("counts must be >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError(f"epsilon must lie in (0, 1), got {self.epsilon}")

    @property
    def slack(self) -> float:
        return self.epsilon if self.angular_slack is None else self.angular_slack


@dataclass(frozen=True)
class McReport:
    """Outcome of one verification experiment."""

    estimate: float
    std_error: float
    n_used: int
    threshold: float
    verdict: Verdict
    seed: int
    details: dict = field(default_factory=dict)


def _report(
    hits: int, n: int, threshold: float, passes_when: str, seed: int, details: dict
) -> McReport:
    """The report of `hits` successes in n draws, checked against threshold.

    The estimate is the hit fraction, with its binomial standard error.  It
    is inconclusive within 3 standard errors of the threshold, and passes
    otherwise when `estimate passes_when threshold` holds (">=" or "<=").
    """
    estimate = hits / n
    se = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / n)
    if abs(estimate - threshold) < 3.0 * se:
        verdict = Verdict.INCONCLUSIVE
    elif estimate >= threshold if passes_when == ">=" else estimate <= threshold:
        verdict = Verdict.PASS
    else:
        verdict = Verdict.FAIL
    return McReport(estimate, se, n, threshold, verdict, seed, details)


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


def verify_concentration(m: int, mu_cut: float, cfg: McConfig) -> McReport:
    """Empirical tail P(|cos angle(e1, Y)| >= mu) against the 1/(m mu^2) bound."""
    if not 0.0 < mu_cut < 1.0:
        raise DomainError(f"mu must lie in (0, 1), got {mu_cut}")
    if m < 2:
        raise DomainError(f"need m >= 2, got {m}")
    n = cfg.samples_per_estimate
    cos1 = _polar_cosines(m, n, trial_rng(cfg.seed, 0))
    hits = int(np.count_nonzero(np.abs(cos1) >= mu_cut))
    one_sided_hits = int(np.count_nonzero(cos1 >= mu_cut))
    # Chebyshev's 1/(m mu^2), capped at the vacuous 1; m mu^2 underflows to 0
    # for mu below ~1e-155, where the cap applies anyway.
    x = m * mu_cut * mu_cut
    threshold = 1.0 if x <= 1.0 else 1.0 / x
    details = {"one_sided_estimate": one_sided_hits / n, "m": m, "mu": mu_cut}
    return _report(hits, n, threshold, "<=", cfg.seed, details)


def verify_blowup(sphere_set: SphereSet, cfg: McConfig) -> McReport:
    """P(Y within angle pi/2 - theta + epsilon of the set) against 1 - epsilon.

    epsilon is cfg.epsilon, which McConfig has already checked.
    """
    m, epsilon = sphere_set.m, cfg.epsilon
    theta = sphere_set.effective_theta
    if theta <= 0.0:
        raise DomainError("set must have positive effective angle")
    t = HALF_PI - theta + epsilon
    expanded = sphere_set.expanded_intervals(max(t, 0.0))
    n = cfg.samples_per_estimate
    polar = np.arccos(np.clip(_polar_cosines(m, n, trial_rng(cfg.seed, 0)), -1.0, 1.0))
    hits = int(np.count_nonzero(_contains_polar(expanded, polar)))
    details = {"neighborhood_angle": t, "effective_theta": theta, "m": m}
    return _report(hits, n, 1.0 - epsilon, ">=", cfg.seed, details)


def _isoperimetry_trials(
    target: SphereSet | ShellSet,
    angular: SphereSet,
    omega: float,
    radius: float,
    log2_v: Callable[[float], float],
    log2_offset: float,
    cfg: McConfig,
) -> McReport:
    """Shared cap-intersection verification loop.

    `target` is the set whose effective angle theta is verified (a SphereSet
    or a ShellSet) and `angular` the sphere set the estimator samples at
    `radius`.  `log2_v(theta)` gives log2 of the orthogonal-pole
    intersection volume V, and `log2_offset` is added to every estimate.
    The cosines cy of all trials' uniform poles Y are drawn first; then, per
    trial, mu(angular intersect Cap(Y, omega + slack)) is estimated with
    cfg.samples_per_estimate importance samples from the same generator,
    and the trial succeeds when the estimate exceeds (1 - epsilon) V.  The
    report compares the success fraction with 1 - epsilon.
    """
    m = angular.m
    if m < 4:
        raise DomainError(f"need m >= 4, got {m}")
    theta = target.effective_theta
    # a mass one ulp above the hemisphere's (a 90 deg band or two caps, whose
    # masses make a round trip, or a full shell cap's (angular + part) - full)
    # solves to just past pi/2, within the bisection's bracket
    if HALF_PI < theta <= HALF_PI + _ANGLE_BRACKET:
        theta = HALF_PI
    if not 0.0 < theta <= HALF_PI:
        raise DomainError(f"effective angle must lie in (0, pi/2], got {theta}")
    if not 0.0 < omega <= HALF_PI:
        raise DomainError(f"omega must lie in (0, pi/2], got {omega}")
    if theta + omega <= HALF_PI:
        raise DomainError(
            f"need theta + omega > pi/2, got {theta} + {omega} = {theta + omega}"
        )
    v_log2 = log2_v(theta)
    log2_required = math.log2(1.0 - cfg.epsilon) + v_log2
    beta = min(omega + cfg.slack, math.pi)
    _check_cap_angle(beta)

    estimator = _Estimator(angular, cfg.samples_per_estimate, radius)
    rng = trial_rng(cfg.seed, 0)
    cys = _polar_cosines(m, cfg.trials, rng)
    margins = []
    with np.errstate(divide="ignore"):
        for cy in cys.tolist():
            log2_est, _, _ = estimator.estimate(cy, beta, lambda out: rng.random(out=out))
            margins.append(log2_est + log2_offset - log2_required)
    successes = sum(margin > 0.0 for margin in margins)
    finite = [x for x in margins if math.isfinite(x)]
    details = {
        "log2_required": log2_required,
        "margin_bits_min": min(margins),
        "margin_bits_median": float(np.median(finite)) if finite else -math.inf,
        "successes": successes,
        "m": m,
        "theta": theta,
        "omega": omega,
        "beta": beta,
        "log2_V": v_log2,
    }
    return _report(successes, cfg.trials, 1.0 - cfg.epsilon, ">=", cfg.seed, details)


def verify_isoperimetry_sphere(
    sphere_set: SphereSet, omega: float, cfg: McConfig, n_scale: float = 1.0
) -> McReport:
    """Cap-intersection verification on the sphere of radius sqrt(m n_scale).

    m is the set's dimension; V is the orthogonal-pole cap intersection
    volume by quadrature.
    """
    m = sphere_set.m
    return _isoperimetry_trials(
        sphere_set,
        sphere_set,
        omega,
        math.sqrt(m * n_scale),
        lambda theta: geometry.log_cap_intersection(m, n_scale, theta, omega).log2_value,
        0.0,
        cfg,
    )


def verify_isoperimetry_shell(shell_set: ShellSet, omega: float, cfg: McConfig) -> McReport:
    """Cap-intersection verification on a shell.

    Shell caps are radial cones, so the intersection volume factorizes into
    the angular intersection on the base sphere times the set's exact
    radial integral; only the angular factor is estimated by sampling.
    For the same reason only the direction of Y matters: its radius, under
    any rotationally invariant law on the shell, cannot change the result,
    so it is not drawn.
    """
    def log2_v(theta: float) -> float:
        bounds = geometry.log_shellcap_intersection_bounds(shell_set.spec, theta, omega)
        return bounds.exact.log2_value

    return _isoperimetry_trials(
        shell_set,
        shell_set.angular,
        omega,
        shell_set.base_radius,
        log2_v,
        shell_set.log2_radial_part(),
        cfg,
    )
