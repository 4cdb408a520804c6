"""Capacity bounds and achievable rates for the symmetric Gaussian relay channel.

The centerpiece is a capacity upper bound of the form

    C(C0) <= 1/2 log2(1 + P/N)
             + sup_{theta in [arcsin 2^-C0, pi/2]}
                 min{ C0 + log2 sin(theta),
                      min_{omega in (pi/2 - theta, pi/2]} k(theta, omega) }

where the kernel k (entropy_difference_bound here) bounds the per-letter
conditional-entropy difference between what the destination and the source
know about the relay's message index.  Unlike the cut-set bound, this bound
stays strictly below the full-cooperation capacity at every finite C0, and
gap_certificate produces an explicit positive margin for that strictness.

Everything is evaluated in float64 from closed forms: the inner minimum
over omega is the smaller root of a quadratic in cos(omega), and C(0) plus
the outer sup is 1/2 log2(1 + s (2 - c*)) with s = P/N and
c* = s / ((s + 1)(4^C0 - 1) + s), below C(inf) exactly when c* > 0, i.e. at
every finite C0; it is rounded up by a proven bound on its float error.
The certificate bisects a log1p-form finite difference.  No search is
stochastic, so sweeps are exactly reproducible.

Every rate depends on P and N only through s, so the formulas run at
P = s, N = 1: no intermediate such as 2(2P + N) overflows where 2(2s + 1),
which ChannelParams checks, does not.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .channel import ChannelParams, capacity_full_cooperation, capacity_no_relay
from .errors import DomainError, InvalidInput, NumericalError

LN2 = math.log(2.0)
HALF_PI = math.pi / 2.0
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class GapCertificate:
    """Certified strict gap between the upper bound and full cooperation.

    delta1 is a backward step from omega = pi/2 at which the finite
    difference of the kernel matches its derivative to within 50%, giving
    the strict bound  C(C0) <= C(inf) - gap_lower_bound  with
    gap_lower_bound = s delta1 / (2 (2s + 1) ln 2) > 0 at SNR s = P/N.
    """

    theta0: float
    delta1: float
    derivative_at_pi_half: float
    gap_lower_bound: float
    certified_bound: float


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------


def _kernel_cos(P: float, s: float, co: float, c: float, one_minus_c: float) -> float:
    """Kernel at SNR P (unit noise), sin(theta) = s, cos(theta) = co and cos(omega) = c.

    The kernel is 1/2 log2[(1-c)(2P+1+c) s^2 / ((P+1)(s - c)(s + c))].
    1 - c is passed in separately so callers can form it without
    cancellation; s - c is taken directly where s < co and as
    (1 - c) - (1 - s) = (1 - c) - co^2/(1 + s) otherwise, so it keeps full
    relative accuracy at theta -> 0 and at theta -> pi/2 with omega -> 0.
    s^2 enters only through ratios of order one, so nothing underflows
    while s is normal.  Raises DomainError on or beyond the wall |c| >= s.
    """
    s_minus_c = s - c if s < co else one_minus_c - co * co / (1.0 + s)
    if not (s_minus_c > 0.0 and s + c > 0.0):
        raise DomainError(
            "omega outside the open interval (pi/2 - theta, pi/2]: "
            f"sin^2(theta) - cos^2(omega) <= 0 at sin(theta)={s}, cos(omega)={c}"
        )
    x = one_minus_c * (2.0 * P + 1.0 + c) / (P + 1.0) * (s / s_minus_c) * (s / (s + c))
    return 0.5 * math.log2(x)


def entropy_difference_bound(params: ChannelParams, theta: float, omega: float) -> float:
    """Per-letter bound on the destination-vs-source entropy difference.

    Finite on omega in (pi/2 - theta, pi/2]; diverges to +inf at the left
    endpoint where sin^2(theta) - cos^2(omega) vanishes, and may be
    negative in the interior.  omega slightly above pi/2 is accepted (the
    formula is analytic there), which central-difference derivative checks
    rely on.
    """
    if not 0.0 < theta <= HALF_PI:
        raise DomainError(f"theta must lie in (0, pi/2], got {theta}")
    return _kernel_cos(
        params.P / params.N, math.sin(theta), math.cos(theta),
        math.cos(omega), 2.0 * math.sin(omega / 2.0) ** 2,
    )


def conditional_entropy_bound(params: ChannelParams, theta: float, omega: float) -> float:
    """Per-letter bound on what the destination does not know about the index.

    Identical to entropy_difference_bound minus log2 sin(theta).
    """
    return entropy_difference_bound(params, theta, omega) - math.log2(math.sin(theta))


def _four_pow_minus_one(c0: float) -> float:
    """4^C0 - 1 as expm1(2 C0 ln 2), so it keeps C0 down to subnormal C0; inf past C0 = 512."""
    try:
        return math.expm1(2.0 * c0 * LN2)
    except OverflowError:
        return math.inf


def _closed_form_bound(s: float, c0: float) -> float:
    """C(0) + sup at SNR s (unit noise), rounded up; before any clamp.

    The kernel's minimum over omega sits at the smaller root c = cos(omega)
    of s c^2 - (2s + cos^2 theta) c + s sin^2 theta = 0, where it is
    k* = 1/2 log2(sin^2 theta (s + c) / ((s + 1) c)).  C0 + log2 sin(theta)
    increases and k* does not; they cross where 4^C0 (s + 1) c = s + c, at
    c* = 1 / (e + 1 + e/s) with e = 4^C0 - 1, and there C(0) + sup is
    1/2 log2(1 + s (2 - c*)).  e + 1 + e/s overflows only where
    c* < 2^-1023, and c* = 0 can only raise the value.

    Error bound, first order in u = 2^-53, for s >= 2^-1000, with expm1 and
    log1p within 1 ulp (glibc): x = s (2 - c*) moves by c* (1 - c*) / (2 - c*)
    times e's relative error, which is expm1's 2u plus t (1 + 1/e) 1.5u from
    rounding t = 2 C0 ln 2 (and t (1 + 1/e) <= ln(1/c*) / (1 - c*) since
    c* <= e^-t); forming c* adds c* / (2 - c*) 3u.  These total <= 3u, at
    c* = 1.  2 - c* and the product add u each; log1p passes x's error on
    with a factor <= 1 and adds 2u; dividing by 2 LN2 adds 1.5u.  A
    subnormal e (2^-1073 off) moves 2 - c* by < 2^-1072 / s <= 2^-72.  So v
    is within 8.6u of the exact value b, and fl(v (1 + 10u)) >=
    b (1 - 8.6u)(1 + 10u)(1 - u) > b: the round-up is 5-10 ulps.  Measured
    against 90-digit values, v itself is within 2.7u.
    """
    e = _four_pow_minus_one(c0)
    c_star = 1.0 / (e + 1.0 + e / s)
    return math.log1p(s * (2.0 - c_star)) / (2.0 * LN2) * (1.0 + 5.0 * _EPS)


# ---------------------------------------------------------------------------
# Bounds and rates
# ---------------------------------------------------------------------------


def cutset_bound(params: ChannelParams, c0: float) -> float:
    """Classical cut-set bound min{C(inf), C(0) + C0}; c0 may be +inf."""
    if c0 < 0 or math.isnan(c0):
        raise DomainError(f"C0 must be >= 0, got {c0}")
    return min(capacity_full_cooperation(params), capacity_no_relay(params) + c0)


def capacity_upper_bound(params: ChannelParams, c0: float) -> float:
    """Geometric capacity upper bound at finite C0.

    The closed form 1/2 log2(1 + s (2 - c*)) (_closed_form_bound), rounded
    up by a proven bound on its float evaluation error and then clamped
    below by C(0) and above by the cut-set bound.  Only where that value
    rounds to C(inf), because the true gap is smaller than the round-up
    (e.g. SNR ~ 1e-4 with C0 ~ 15), is it also clamped to the certified
    bound, which keeps it strictly below C(inf) wherever the certified gap
    is at least half an ulp.  Below C(inf) the value is kept as it is: the
    clamp could only lower it by rounding noise, and where float C(inf)
    reads low (low SNR) below the exact bound.  Last, it is raised to
    compress_forward_rate, so the float values keep the true order
    cf_rate <= bound <= cut-set at every input.  Every finite C0 >= 0 gives
    a value.
    """
    if math.isinf(c0):
        raise InvalidInput("capacity_upper_bound requires finite C0; use "
                           "capacity_full_cooperation for the C0 = inf asymptote")
    if c0 < 0 or math.isnan(c0):
        raise InvalidInput(f"C0 must be finite and >= 0, got {c0}")
    value = _closed_form_bound(params.P / params.N, c0)
    value = max(min(value, cutset_bound(params, c0)), capacity_no_relay(params))
    if not value < capacity_full_cooperation(params):
        try:
            value = min(value, gap_certificate(params, c0).certified_bound)
        except NumericalError:
            # certificate step below float64 range (C0 in the hundreds)
            pass
    # the capacity is at least the compress-and-forward rate; where the true
    # gap between them is below the rounding of either, the float rate can
    # land above the clamped bound (e.g. SNR 10^-3.859375, C0 = 19.5)
    return max(value, compress_forward_rate(params, c0))


def _step_condition(delta: float, sin0: float, rho: float, deriv: float) -> bool:
    """Whether the certificate accepts the backward step delta.

    With c = sin(delta), sin0 = sin(theta0) and rho = 1 / (2P + 1) at SNR P,
    the kernel's finite difference at omega = pi/2 is
    -1/2 [log1p(-c) + log1p(rho c) - log1p(-(c/sin0)^2)] / ln 2; the step is
    accepted when that difference over delta lies within 50% of deriv.
    """
    c = math.sin(delta)
    if c >= sin0:
        return False
    diff = -0.5 * (math.log1p(-c) + math.log1p(rho * c)
                   - math.log1p(-((c / sin0) ** 2))) / LN2
    return abs(diff / delta - deriv) <= deriv / 2.0


def gap_certificate(params: ChannelParams, c0: float) -> GapCertificate:
    """Certify a strict gap below full cooperation at finite C0.

    Bisects for the largest backward step delta1 in (0, theta0) at which
    the one-sided finite difference of the kernel at omega = pi/2 stays
    within 50% of the exact derivative P / ((2P + 1) ln 2), P the SNR; the
    certified bound is then C(inf) - P*delta1 / (2 (2P+1) ln 2).

    With c = sin(delta) the difference is
    -1/2 [log1p(-c) + log1p(c/(2P+1)) - log1p(-(c/sin theta0)^2)] / ln 2,
    which float64 resolves at any step, so the bisection runs in float64 and
    in log delta.  The valid step shrinks like theta0^2; once the bisection
    floor leaves float64's normal range (C0 in the hundreds) the
    certificate raises NumericalError.

    Every call runs the full bisection.  capacity_upper_bound calls it only
    where its closed form rounds to C(inf), the one case where the clamp to
    certified_bound is what keeps the bound strictly below C(inf).
    """
    if not math.isfinite(c0) or c0 < 0:
        raise InvalidInput(f"C0 must be finite and >= 0, got {c0}")
    P = params.P / params.N
    deriv = P / ((2.0 * P + 1.0) * LN2)
    sin0 = 2.0 ** (-c0)
    theta0 = math.asin(sin0)
    rho = 1.0 / (2.0 * P + 1.0)

    lo, hi = theta0 * theta0 * (P / (2.0 * P + 1.0)) * 1e-6, theta0
    if lo < sys.float_info.min:
        raise NumericalError(
            f"C0 = {c0} puts the certificate step below float64 range"
        )
    if not _step_condition(lo, sin0, rho, deriv):
        raise NumericalError(
            f"finite-difference certificate failed at the bisection floor for c0={c0}"
        )
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            break
        if _step_condition(mid, sin0, rho, deriv):
            lo = mid
        else:
            hi = mid

    gap = P * lo / (2.0 * (2.0 * P + 1.0) * LN2)
    return GapCertificate(
        theta0=theta0,
        delta1=lo,
        derivative_at_pi_half=deriv,
        gap_lower_bound=gap,
        certified_bound=capacity_full_cooperation(params) - gap,
    )


def compress_forward_rate(params: ChannelParams, c0: float) -> float:
    """Compress-and-forward rate with Gaussian quantization and binning.

    The quantization noise sigma^2 = N(2P+N) / ((P+N)(2^(2 C0) - 1)) makes
    the bin index exactly fill the C0 pipe given the destination's side
    information; the rate is then 1/2 log2(1 + P/N + P/(N + sigma^2)).
    C0 = 0 disables the relay (rate C(0)); C0 = inf reaches C(inf).  At
    finite C0 > 0 the rate is clamped to the float cut-set bound.
    """
    if c0 < 0 or math.isnan(c0):
        raise DomainError(f"C0 must be >= 0, got {c0}")
    if c0 == 0.0:
        return capacity_no_relay(params)
    if math.isinf(c0):
        return capacity_full_cooperation(params)
    s = params.P / params.N
    rate = 0.5 * math.log2(1.0 + s + s / (1.0 + _unit_cf_variance(s, c0)))
    # an achievable rate never exceeds the cut-set bound; in float the two
    # can cross by a few ulps where C0 is below C(0)'s resolution (e.g.
    # SNR 1000, C0 = 2^-52)
    return min(rate, cutset_bound(params, c0))


def cf_quantization_variance(params: ChannelParams, c0: float) -> float:
    """The sigma^2 solving the pipe-filling identity; exposed for oracle tests."""
    if not (math.isfinite(c0) and c0 > 0):
        raise DomainError(f"need finite C0 > 0, got {c0}")
    return params.N * _unit_cf_variance(params.P / params.N, c0)


def _unit_cf_variance(s: float, c0: float) -> float:
    """sigma^2 / N = (2s + 1) / ((s + 1)(2^(2 C0) - 1)) at SNR s and finite C0 > 0."""
    e = _four_pow_minus_one(c0)
    den = (s + 1.0) * e
    if den < math.inf:
        return (2.0 * s + 1.0) / den
    # at huge SNR the product overflows while sigma^2 ~ 2N / (4^C0 - 1) still
    # moves the rate (e.g. SNR 1e305, C0 = 10), so form the ratio first; past
    # C0 = 512, where e is inf, sigma^2 is below N's last ulp and this is 0
    return (2.0 * s + 1.0) / (s + 1.0) / e


def sweep(params: ChannelParams, c0_grid: list[float]) -> list[tuple[float, float, float, float]]:
    """(C0, cut-set bound, upper bound, compress-and-forward rate) at each grid point.

    The grid must be nonempty, finite, nonnegative, and strictly increasing.
    Points are evaluated in grid order, so output is deterministic.
    """
    grid = [float(c) for c in c0_grid]
    if not grid:
        raise InvalidInput("C0 grid must be nonempty")
    if any(not (math.isfinite(c) and c >= 0.0) for c in grid):
        raise InvalidInput(f"C0 grid must be finite and >= 0, got {grid}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidInput("C0 grid must be strictly increasing")

    def point(c0: float) -> tuple[float, float, float, float]:
        try:
            return (
                c0,
                cutset_bound(params, c0),
                capacity_upper_bound(params, c0),
                compress_forward_rate(params, c0),
            )
        except Exception as exc:
            raise NumericalError(f"bound evaluation failed at C0={c0!r}: {exc}") from exc

    return [point(c0) for c0 in grid]
