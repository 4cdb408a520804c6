"""High-dimensional sphere, cap, shell, and ball measures in log2 domain.

Surface areas and volumes at dimensions m in the thousands scale like
2^(m/2 * log2(2*pi*e*N)) and overflow float64 around m ~ 700, so every
measure here is represented by its base-2 logarithm (see LogMeasure) and
measures are combined with log-sum-exp instead of addition.

Caps, bands, shells and balls are closed forms built on the regularized
incomplete beta function, with one route per measure: every sin^k mass
from a pole is `_log2_sin_integral_zero_to` and every equatorial band
`_log2_band_mass`, both through the incomplete beta, whose shape (front
factor and continued-fraction tables) is cached per (a, b); every
shell's radial factor, of the whole shell or a slice of its height, is
`_log2_shell_radial`, one closed form in delta/N.  Only the
cap-intersection (lens) integral has no closed form; it is evaluated by
adaptive quadrature carried out in the log domain.  The tests keep a
quadrature of the defining sin^k integrals and a high-precision mpmath
evaluation as oracles for the closed forms.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, NumericalError

LN2 = math.log(2.0)
LOG2E = 1.4426950408889634  # log2(e), numpy's NPY_LOG2E
LOG2_PI = math.log2(math.pi)
LOG2_2PIE = math.log2(2.0 * math.pi * math.e)
LOG2_PIE = math.log2(math.pi * math.e)

# Lentz's iteration count near the switch point grows like sqrt(max(a, b)):
# 516 at a = 1e6, b = 499997 (500 did not suffice), ~5300 at a = b = 1e8.
_BETA_MAX_ITER = 1000
_BETA_EPS = 1e-15
_FPMIN = 1e-300


class MeasureKind(Enum):
    SURFACE_AREA = "surface_area"
    VOLUME = "volume"


@dataclass(frozen=True)
class LogMeasure:
    """A surface area or volume stored as log2(measure).

    Additive composition of log2_value corresponds to multiplication of
    the underlying measures.  -inf encodes a degenerate (zero) measure.
    near_degenerate marks results evaluated within 1e-6 of a precondition
    boundary, where the exponent diverges and tolerance claims lapse.
    """

    log2_value: float
    kind: MeasureKind
    near_degenerate: bool = False


@dataclass(frozen=True)
class CapSpec:
    """A spherical cap: dimension m, sphere radius R, half-angle theta."""

    m: int
    R: float
    theta: float

    def __post_init__(self) -> None:
        if self.m < 3:
            raise DomainError(f"cap dimension must satisfy m >= 3, got {self.m}")
        if not 0 < self.R < math.inf:
            raise DomainError(f"sphere radius must be finite and > 0, got {self.R}")
        if not 0.0 < self.theta <= math.pi:
            raise DomainError(f"cap angle must lie in (0, pi], got {self.theta}")


@dataclass(frozen=True)
class ShellSpec:
    """A spherical shell of squared-radius scale N and half-thickness delta.

    The shell is { y : sqrt(m(N - delta)) <= |y| <= sqrt(m(N + delta)) }.
    """

    m: int
    N: float
    delta: float

    def __post_init__(self) -> None:
        if self.m < 3:
            raise DomainError(f"shell dimension must satisfy m >= 3, got {self.m}")
        if not 0 < self.N < math.inf:
            raise DomainError(f"shell scale N must be finite and > 0, got {self.N}")
        if not 0.0 <= self.delta < self.N:
            raise DomainError(
                f"shell half-thickness must satisfy 0 <= delta < N, got delta={self.delta}"
            )

    @property
    def r_lower(self) -> float:
        return _radius(self.m, self.N - self.delta)

    @property
    def r_upper(self) -> float:
        return _radius(self.m, self.N + self.delta)


def _radius(m: int, scale: float) -> float:
    """sqrt(m * scale), the radius at squared-radius scale `scale` in R^m."""
    r = math.sqrt(m * scale)
    if r == math.inf:
        raise NumericalError(f"radius sqrt(m * N) overflows float64 at m={m}, N={scale}")
    return r


@dataclass(frozen=True)
class BallPairSpec:
    """Two balls of radii sqrt(m*R1), sqrt(m*R2) with centers sqrt(m*D) apart.

    The scales must satisfy (sqrt(R1)-sqrt(R2))^2 < D < (sqrt(R1)+sqrt(R2))^2,
    i.e. the boundary spheres intersect (lens configuration).
    """

    m: int
    R1: float
    R2: float
    D: float

    def __post_init__(self) -> None:
        if self.m < 3:
            raise DomainError(f"ball dimension must satisfy m >= 3, got {self.m}")
        if not (self.R1 > 0 and self.R2 > 0 and self.D > 0):
            raise DomainError("R1, R2, D must all be > 0")
        lo = (math.sqrt(self.R1) - math.sqrt(self.R2)) ** 2
        hi = (math.sqrt(self.R1) + math.sqrt(self.R2)) ** 2
        if not lo < self.D < hi:
            raise DomainError(
                "balls are nested or disjoint: need "
                f"(sqrt(R1)-sqrt(R2))^2 < D < (sqrt(R1)+sqrt(R2))^2, got D={self.D} "
                f"outside ({lo}, {hi})"
            )


@dataclass(frozen=True)
class ShellCapIntersection:
    """Exact shell-cap intersection volume plus its two-sided exponent pair."""

    exact: LogMeasure
    lower: LogMeasure
    upper: LogMeasure


@dataclass(frozen=True)
class BallIntersection:
    """Exact two-ball intersection volume and the lambda exponent bound."""

    exact: LogMeasure
    bound_log2: float
    lambda_scale: float


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------


def _logaddexp2(x: float, y: float) -> float:
    """log2(2^x + 2^y), step for step as numpy's npy_logaddexp2 (same floats).

    2^-|d| comes from exp2, as in numpy; pow differs from it by an ulp at
    rare points (d = 10^-0.6081414919364025).
    """
    if x == y:
        return x + 1.0  # also equal infinities
    d = x - y
    if d > 0:
        return x + LOG2E * math.log1p(math.exp2(-d))
    return y + LOG2E * math.log1p(math.exp2(d))  # also nan


def _log2_gamma(x: float) -> float:
    return math.lgamma(x) / LN2


def _log2_beta_fn(a: float, b: float) -> float:
    return (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)) / LN2


def _beta_cf(a: float, b: float, x: float, table: list) -> float:
    """Continued fraction for the incomplete beta function (Lentz's method).

    Row i of `table` holds iteration i + 1's two (numerator, denominator)
    pairs, which depend on (a, b) alone; rows are appended as first needed,
    so a caller sweeping x at one shape passes one list and builds each once.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if -_FPMIN < d < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    rows = table
    while True:
        for num1, den1, num2, den2 in rows:
            aa = num1 * x / den1
            d = 1.0 + aa * d
            if -_FPMIN < d < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if -_FPMIN < c < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            h *= d * c
            aa = num2 * x / den2
            d = 1.0 + aa * d
            if -_FPMIN < d < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if -_FPMIN < c < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < _BETA_EPS:
                return h
        it = len(table) + 1
        if it > _BETA_MAX_ITER:
            raise NumericalError(
                f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
            )
        m2 = 2 * it
        rows = [(it * (b - it), (qam + m2) * (a + m2),
                 -(a + it) * (qab + it), (a + m2) * (qap + m2))]
        table.extend(rows)


@functools.lru_cache(maxsize=64, typed=True)
def _inc_beta_shape(a: float, b: float) -> tuple:
    """(a, b, log2 B(a, b), switch point, _beta_cf tables for x and 1 - x).

    Cached per (a, b): the tables depend on the shape alone and grow as
    deeper iterations are first needed, so every caller that evaluates one
    shape shares them and gets the floats a fresh table would give.  The
    key includes the argument types, so one caller's types (an int, a numpy
    float) never reach another's results.  The cache is bounded, since a
    table near the iteration cap holds 1000 rows.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"beta parameters must be > 0, got a={a}, b={b}")
    return a, b, _log2_beta_fn(a, b), (a + 1.0) / (a + b + 2.0), [], []


def _reg_inc_beta(x: float, shape: tuple) -> float:
    a, b, log2_beta, switch, lower, upper = shape
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"incomplete beta argument must lie in [0, 1], got x={x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - LN2 * log2_beta
    if x < switch:
        return math.exp(ln_front) * _beta_cf(a, b, x, lower) / a
    return 1.0 - math.exp(ln_front) * _beta_cf(b, a, 1.0 - x, upper) / b


def _log2_reg_inc_beta(x: float, shape: tuple) -> float:
    a, b, log2_beta, switch, lower, _ = shape
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"incomplete beta argument must lie in [0, 1], got x={x}")
    if x == 0.0:
        return -math.inf
    if x == 1.0:
        return 0.0
    if x < switch:
        log2_front = (a * math.log(x) + b * math.log1p(-x)) / LN2 - log2_beta
        return log2_front + math.log2(_beta_cf(a, b, x, lower) / a)
    # Above the switch the value is O(1); the linear route cannot underflow.
    return math.log2(_reg_inc_beta(x, shape))


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Continued-fraction evaluation with the standard symmetry switch at
    x = (a+1)/(a+b+2).  The relative error grows with lgamma(a + b), since
    the front factor is formed from lgamma terms of that size: against
    40-digit mpmath it is ~3e-15 for a, b <= 10, ~1e-13 up to 100, ~1e-12 up
    to 1e3, and 5.9e-10 at a = 596799.65, b = 30, x = 0.99876.
    """
    return _reg_inc_beta(x, _inc_beta_shape(a, b))


def log2_reg_inc_beta(x: float, a: float, b: float) -> float:
    """log2 of I_x(a, b), finite (not underflowed) even when I_x ~ 2^-10000."""
    return _log2_reg_inc_beta(x, _inc_beta_shape(a, b))


# ---------------------------------------------------------------------------
# Log-domain adaptive quadrature
# ---------------------------------------------------------------------------


def _log2_quad(log2_f, a: float, b: float, peak_x: float, drop_bits: float = 70.0) -> float:
    """log2 of the integral of 2^log2_f over [a, b].

    log2_f must rise (weakly) up to peak_x in [a, b] and fall after it;
    callers know their integrand's argmax and pass it in.  The integrand
    may span thousands of orders of magnitude (log2_f values like
    -m/2 * 50 at m in the thousands), so it is shifted by its peak value
    log2_f(peak_x), which makes its maximum exactly 1, and the interval is
    truncated one 129-point grid cell beyond where the integrand has
    fallen drop_bits below the grid's highest value (discarded mass is
    relatively ~2^-55 or less).  On a unimodal integrand those cut points
    are found by bisection on either side of the peak.  Only then is the
    shifted integrand handed to adaptive Gauss-Kronrod quadrature.
    """
    if not b > a:
        return -math.inf
    # loaded on first use: numpy costs ~0.17 s of start-up, scipy.integrate ~0.7 s
    import numpy as np
    from scipy.integrate import quad

    inset = (b - a) * 1e-12
    xs = np.linspace(a + inset, b - inset, 129)
    last = len(xs) - 1
    at = functools.cache(lambda i: log2_f(float(xs[i])))
    # The grid's highest point is one of the two that bracket the peak.
    k = int(np.searchsorted(xs, peak_x))
    j = max((i for i in (k - 1, k) if 0 <= i <= last), key=at)
    if not at(j) > -math.inf:
        return -math.inf
    floor = at(j) - drop_bits
    # Unimodality makes at(i) >= floor false-then-true on [0, j] and
    # true-then-false on [j, last], so both ends of the kept run bisect.
    first = bisect.bisect_left(range(j + 1), True, key=lambda i: at(i) >= floor)
    final = j - 1 + bisect.bisect_left(
        range(j, last + 1), True, key=lambda i: not at(i) >= floor
    )
    lo = float(xs[first - 1]) if first > 0 else a
    hi = float(xs[final + 1]) if final < last else b

    shift = log2_f(peak_x)

    def integrand(x: float) -> float:
        v = log2_f(x) - shift
        if v == -math.inf:
            return 0.0
        return 2.0 ** min(v, 500.0)

    value, abserr, *_ = quad(
        integrand, lo, hi, epsabs=0.0, epsrel=1e-11, limit=400, full_output=1
    )
    if value <= 0.0:
        return -math.inf
    if abserr > 1e-7 * value:
        raise NumericalError(
            f"log-domain quadrature failed to converge on [{a}, {b}]: "
            f"value={value}, abserr={abserr}"
        )
    return shift + math.log2(value)


def _log2_sin_integral_zero_to(k: int, theta: float) -> float:
    """log2 of the integral of sin^k over [0, theta], via the closed beta form.

    With B = B((k+1)/2, 1/2), the integral is (B/2) I_{sin^2 theta}((k+1)/2,
    1/2) up to pi/2, and past it half of B plus the band [pi/2, theta],
    (B/2)(1 + I_{cos^2 theta}(1/2, (k+1)/2)); neither argument is formed as
    1 - x near the equator, where that would cancel.  Below theta = 1e-150,
    where sin^2 theta heads for underflow, it is the small-angle form
    theta^(k+1) / (k+1), whose relative error ~k theta^2 is far below an ulp.
    """
    if theta <= 0.0:
        return -math.inf
    if theta < 1e-150:
        return (k + 1) * math.log2(theta) - math.log2(k + 1)
    a = (k + 1) / 2.0
    log2_b = _inc_beta_shape(a, 0.5)[2]
    if theta >= math.pi:
        return log2_b
    if theta <= math.pi / 2.0:
        return log2_b - 1.0 + log2_reg_inc_beta(math.sin(theta) ** 2, a, 0.5)
    return log2_b - 1.0 + math.log1p(reg_inc_beta(math.cos(theta) ** 2, 0.5, a)) / LN2


def _log2_band_mass(m: int, w: float) -> float:
    """log2 of the sin^(m-2) mass of the equatorial band [pi/2 - w, pi/2 + w].

    Substituting v = cos^2(rho) gives B(1/2, (m-1)/2) I_{sin^2 w}(1/2, (m-1)/2);
    the incomplete beta's log form stays finite for bands far thinner than
    the float spacing near pi/2.
    """
    shape = _inc_beta_shape(0.5, (m - 1) / 2.0)
    return shape[2] + _log2_reg_inc_beta(math.sin(w) ** 2, shape)


# ---------------------------------------------------------------------------
# Sphere, cap, shell, ball measures
# ---------------------------------------------------------------------------


def log_sphere_area(m: int, R: float) -> LogMeasure:
    """Surface area of the (m-1)-sphere of radius R in R^m, as a LogMeasure."""
    if m < 1:
        raise DomainError(f"dimension must satisfy m >= 1, got {m}")
    if not R > 0:
        raise DomainError(f"radius must be > 0, got {R}")
    value = 1.0 + (m / 2.0) * LOG2_PI - _log2_gamma(m / 2.0) + (m - 1) * math.log2(R)
    return LogMeasure(value, MeasureKind.SURFACE_AREA)


def _log2_cap_front(m: int, R: float) -> float:
    """log2 of the (m-2)-sphere prefactor 2 pi^((m-1)/2)/Gamma((m-1)/2) R^(m-1)."""
    return 1.0 + ((m - 1) / 2.0) * LOG2_PI - _log2_gamma((m - 1) / 2.0) + (m - 1) * math.log2(R)


def log_cap_area(spec: CapSpec) -> LogMeasure:
    """Surface area of a spherical cap, exact in the log domain.

    For theta <= pi/2 this is the closed form (1/2) A_(m-1)(R)
    I_{sin^2 theta}((m-1)/2, 1/2); larger angles go through the complement.
    """
    m, R, theta = spec.m, spec.R, spec.theta
    sphere = log_sphere_area(m, R).log2_value
    if theta == math.pi / 2.0:
        return LogMeasure(sphere - 1.0, MeasureKind.SURFACE_AREA)
    if theta == math.pi:
        return LogMeasure(sphere, MeasureKind.SURFACE_AREA)
    value = _log2_cap_front(m, R) + _log2_sin_integral_zero_to(m - 2, theta)
    return LogMeasure(value, MeasureKind.SURFACE_AREA)


def _sin2_minus_cos2(theta: float, omega: float) -> float:
    """sin^2 theta - cos^2 omega; positive when orthogonal-pole caps overlap.

    Taken in the swap-symmetric form sin^2 theta + sin^2 omega - 1, so the
    result is bit-identical under argument exchange.
    """
    return math.sin(theta) ** 2 + math.sin(omega) ** 2 - 1.0


def cap_intersection_exponent(n_scale: float, theta: float, omega: float) -> float:
    """Per-two-dimensions exponent log2(2 pi e N (sin^2 theta - cos^2 omega)).

    This is the asymptotic growth rate (per pair of dimensions) shared by
    the cap-cap and shell-cap intersection measures with orthogonal poles.
    Bit-identical under argument exchange (see _sin2_minus_cos2).
    """
    if not 0 < n_scale < math.inf:
        raise DomainError(f"scale must be finite and > 0, got {n_scale}")
    if not (math.isfinite(theta) and math.isfinite(omega)):
        raise DomainError(f"angles must be finite, got theta={theta}, omega={omega}")
    d = _sin2_minus_cos2(theta, omega)
    if d <= 0.0:
        raise DomainError(
            f"need sin^2(theta) > cos^2(omega), violated: sin^2+sin^2-1 = {d}"
        )
    return LOG2_2PIE + math.log2(n_scale) + math.log2(d)


_MIN_PIECE_WIDTH = 1e-9


def _lens_piece_log2_integrand(m: int, phi_ref: float):
    """log2 of sin^(m-2)(rho) I_x((m-2)/2, 1/2), x = 1 - tan^2(phi_ref)/tan^2(rho).

    The integrand of one log_cap_intersection piece; nondecreasing in rho
    on [phi_ref, pi/2].  Everything that depends on (m, phi_ref) alone is
    built once here, not at each quadrature node.
    """
    a = (m - 2) / 2.0
    tan_ref = math.tan(phi_ref)
    shape = _inc_beta_shape(a, 0.5)

    def g(rho: float) -> float:
        s = math.sin(rho)
        if s <= 0.0:
            return -math.inf
        t = tan_ref / math.tan(rho)
        x = 1.0 - t * t
        if x < 0.0:
            x = 0.0
        elif x > 1.0:
            x = 1.0
        lb = _log2_reg_inc_beta(x, shape)
        if lb == -math.inf:
            return -math.inf
        return (m - 2) * math.log2(s) + lb

    return g


def log_cap_intersection(m: int, n_scale: float, theta1: float, theta2: float) -> LogMeasure:
    """Area of the intersection of two caps with orthogonal poles.

    The caps have half-angles theta1, theta2 <= pi/2 with theta1 + theta2 >
    pi/2 on the sphere of radius sqrt(m * n_scale).  The hyperplane through
    the boundary circle splits the lens into two pieces; each piece is an
    integral over rho in [phi_ref, theta_cap] of sin^(m-2)(rho) times the
    fraction I_x((m-2)/2, 1/2), x = 1 - tan^2(phi_ref)/tan^2(rho), of an
    (m-2)-dimensional sub-sphere.  On that interval (inside (0, pi/2]) sin
    rho, x and I_x all increase, so each integrand peaks at theta_cap, and
    the log-domain quadrature is told so instead of searching for it.
    """
    if m < 4:
        raise DomainError(f"cap intersection needs m >= 4, got {m}")
    if not 0 < n_scale < math.inf:
        raise DomainError(f"scale must be finite and > 0, got {n_scale}")
    for label, th in (("theta1", theta1), ("theta2", theta2)):
        if not 0.0 < th <= math.pi / 2.0:
            raise DomainError(f"{label} must lie in (0, pi/2], got {th}")
    gap = theta1 + theta2 - math.pi / 2.0
    if _sin2_minus_cos2(theta1, theta2) <= 0.0:
        raise DomainError(
            "empty-interior regime: need theta1 + theta2 > pi/2, "
            f"got theta1={theta1}, theta2={theta2}"
        )
    near_degenerate = gap <= 1e-6

    # Radius sqrt(m * n_scale) enters through (pi m N)^((m-1)/2) in the front;
    # its log is taken as a sum only where the product overflows.
    scale = math.pi * m * n_scale
    if scale < math.inf:
        log2_scale = math.log2(scale)
    else:
        log2_scale = math.log2(math.pi * m) + math.log2(n_scale)
    log2_front = ((m - 1) / 2.0) * log2_scale - _log2_gamma((m - 1) / 2.0)
    phi = math.atan2(math.cos(theta1), math.cos(theta2))

    def piece(phi_ref: float, theta_cap: float) -> float:
        # A piece this narrow is the rounding artifact of a hemisphere input
        # (cos(pi/2) rounds to 6.1e-17, leaving a one-ulp sliver on which the
        # integrand is numerical noise); its true contribution is relatively
        # below 2^-25 everywhere in the valid domain, so drop it.
        if theta_cap - phi_ref <= _MIN_PIECE_WIDTH:
            return -math.inf
        g = _lens_piece_log2_integrand(m, phi_ref)
        return log2_front + _log2_quad(g, phi_ref, theta_cap, theta_cap)

    j1 = piece(phi, theta2)
    j2 = piece(math.pi / 2.0 - phi, theta1)
    value = _logaddexp2(j1, j2)
    return LogMeasure(value, MeasureKind.SURFACE_AREA, near_degenerate)


def _log2_shell_radial(
    spec: ShellSpec, base_R: float, f_lo: float = 0.0, f_hi: float = 1.0
) -> float:
    """log2 of the integral of (r / base_R)^(m-1) dr over a slice of the shell.

    The slice runs over the fractions [f_lo, f_hi] of the shell height.  With
    t = delta/N, r_upper / r_lower = exp(atanh t), so the radius at fraction
    f is r_lower e^L(f), L(f) = log1p(f expm1(atanh t)), and the integral is
    (base_R/m) (r_lower/base_R)^m e^(m L(f_lo)) expm1(m (L(f_hi) - L(f_lo))).
    L(f_hi) - L(f_lo) is taken as one log1p, and nothing is formed from the
    rounded upper radius, so a shell of any thickness keeps its digits.
    Below t = 1e-150, L(f) = f t to rounding, and log2 t is taken as log2
    delta - log2 N, which stays finite where delta/N is subnormal or
    underflows.  delta = 0 gives the -inf sentinel.
    """
    m = spec.m
    if spec.delta == 0.0:
        return -math.inf
    t = spec.delta / spec.N
    if t < 1e-150:
        lead = m * f_lo * t
        x = m * (f_hi - f_lo) * t
        log2_x = math.log2(m * (f_hi - f_lo)) + math.log2(spec.delta) - math.log2(spec.N)
    else:
        e = math.expm1(math.atanh(t))
        lead = m * math.log1p(f_lo * e)
        y = (f_hi - f_lo) * e / (1.0 + f_lo * e)
        x = m * math.log1p(y)
        if y < 1e-300:
            # y may be subnormal or 0: take log2 x from its factors
            log2_x = (math.log2(m) + math.log2(f_hi - f_lo) + math.log2(e)
                      - math.log2(1.0 + f_lo * e))
        else:
            log2_x = math.log2(x)
    if x < 1.0:
        growth = log2_x + (math.log2(math.expm1(x) / x) if x else 0.0)
    else:
        # expm1(x) overflows from x ~ 709.8
        growth = x / LN2 + math.log2(-math.expm1(-x))
    return math.log2(base_R / m) + m * math.log2(spec.r_lower / base_R) + lead / LN2 + growth


def log_shell_cap_volume(spec: ShellSpec, theta: float) -> LogMeasure:
    """Volume of a shell cap (radially extruded spherical cap).

    Exact factorization: cap area on the inner sphere times the radial
    integral of (r/R_L)^(m-1).  A zero-thickness shell yields the -inf
    sentinel; callers needing bounds use the two-sided exponents instead.
    """
    if not 0.0 < theta <= math.pi / 2.0:
        raise DomainError(f"shell cap angle must lie in (0, pi/2], got {theta}")
    if spec.delta >= spec.N:
        raise DomainError(f"delta must be < N, got {spec.delta} >= {spec.N}")
    r_lo = spec.r_lower
    cap = log_cap_area(CapSpec(spec.m, r_lo, theta)).log2_value
    return LogMeasure(cap + _log2_shell_radial(spec, r_lo), MeasureKind.VOLUME)


def log_shell_volume(spec: ShellSpec) -> LogMeasure:
    """Volume of the whole shell: the inner sphere's area times the radial integral."""
    r_lo = spec.r_lower
    radial = _log2_shell_radial(spec, r_lo)
    return LogMeasure(log_sphere_area(spec.m, r_lo).log2_value + radial, MeasureKind.VOLUME)


def log_shellcap_intersection_bounds(
    spec: ShellSpec, theta: float, omega: float
) -> ShellCapIntersection:
    """Intersection volume of two orthogonal-pole shell caps, with exponent pair.

    exact = cap-cap intersection area on the base sphere sqrt(mN) times the
    radial factor; lower/upper are the asymptotic exponents (m/2) log2(2 pi e
    N (sin^2 theta - cos^2 omega)) at scales N and N + delta.  The exponents
    carry no finite-m correction, so at small m the exact value can sit
    below the lower exponent; tests record the empirical slack.
    """
    base_R = _radius(spec.m, spec.N)
    base = log_cap_intersection(spec.m, spec.N, theta, omega)
    radial = _log2_shell_radial(spec, base_R)
    exact = LogMeasure(base.log2_value + radial, MeasureKind.VOLUME, base.near_degenerate)
    d = _sin2_minus_cos2(theta, omega)
    half_m = spec.m / 2.0
    lower = LogMeasure(
        half_m * (LOG2_2PIE + math.log2(spec.N) + math.log2(d)), MeasureKind.VOLUME
    )
    upper = LogMeasure(
        half_m * (LOG2_2PIE + math.log2(spec.N + spec.delta) + math.log2(d)),
        MeasureKind.VOLUME,
    )
    return ShellCapIntersection(exact=exact, lower=lower, upper=upper)


def ball_overlap_lambda(spec: BallPairSpec) -> float:
    """Exponent scale lambda(R1, R2, D) of the two-ball intersection volume.

    lambda = (2 R1 D + 2 R1 R2 + 2 D R2 - R1^2 - R2^2 - D^2) / (2 D); it is
    positive exactly when the lens configuration holds and equals
    2 R_i sin^2(theta_i) for the aperture angle of either ball cap.  The
    numerator is taken in Heron's grouping with a = sqrt(R1), b = sqrt(R2),
    c = sqrt(D): (a + b + c)(c - (a - b))(c + (a - b))((a + b) - c), which
    does not cancel when D is tiny next to R1 = R2.
    """
    a, b, c = math.sqrt(spec.R1), math.sqrt(spec.R2), math.sqrt(spec.D)
    num = (a + b + c) * (c - (a - b)) * (c + (a - b)) * ((a + b) - c)
    return num / (2.0 * spec.D)


def _log2_ball_volume(m: int, radius: float) -> float:
    return (m / 2.0) * LOG2_PI + m * math.log2(radius) - _log2_gamma(m / 2.0 + 1.0)


def _log2_ball_cap_volume(m: int, radius: float, cos_theta: float) -> float:
    """log2 volume of the cap of an m-ball cut at distance radius*cos_theta.

    cos_theta may be negative (cap larger than a half-ball): then the cap is
    the half-ball plus a slab, (V/2)(1 + I_{cos^2 theta}(1/2, (m+1)/2)), as
    for a sphere cap past pi/2 (see _log2_sin_integral_zero_to).
    """
    log2_ball = _log2_ball_volume(m, radius)
    a = (m + 1) / 2.0
    if cos_theta >= 0.0:
        s2 = min(max(1.0 - cos_theta * cos_theta, 0.0), 1.0)
        return log2_ball - 1.0 + log2_reg_inc_beta(s2, a, 0.5)
    slab = reg_inc_beta(min(cos_theta * cos_theta, 1.0), 0.5, a)
    return log2_ball - 1.0 + math.log1p(slab) / LN2


def log_ball_intersection(spec: BallPairSpec) -> BallIntersection:
    """Exact two-ball intersection volume plus the lambda exponent bound.

    The lens is the disjoint union of one cap from each ball, cut by the
    radical hyperplane; each cap volume is exact via the incomplete beta.
    The bound exponent is m * (1/2) log2(pi e lambda).
    """
    lam = ball_overlap_lambda(spec)
    m = spec.m
    r1 = math.sqrt(m * spec.R1)
    r2 = math.sqrt(m * spec.R2)
    cos1 = (spec.R1 + spec.D - spec.R2) / (2.0 * math.sqrt(spec.R1 * spec.D))
    cos2 = (spec.R2 + spec.D - spec.R1) / (2.0 * math.sqrt(spec.R2 * spec.D))
    cap1 = _log2_ball_cap_volume(m, r1, cos1)
    cap2 = _log2_ball_cap_volume(m, r2, cos2)
    exact = LogMeasure(_logaddexp2(cap1, cap2), MeasureKind.VOLUME)
    bound = m * 0.5 * (LOG2_PIE + math.log2(lam))
    return BallIntersection(exact=exact, bound_log2=bound, lambda_scale=lam)
