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
over omega is the smaller root of a quadratic in cos(omega), and the outer
sup is 1/2 log2(1 + P (1 - c*) / (P + N)) with c* = P / ((P + N)(4^C0 - 1)
+ P), below C(inf) - C(0) exactly when c* > 0, i.e. at every finite C0.
The certificate bisects a log1p-form finite difference.  No search is
stochastic, so sweeps are exactly reproducible.

Every rate depends on P and N only through the SNR s = P/N, so the
formulas run at P = s, N = 1.  No intermediate such as 2(2P + N) then
overflows where 2(2s + 1) does not, which ChannelParams checks, and at
N = 1 the two are the same floats.
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
    gap_lower_bound = P * delta1 / (2 (2P+N) ln 2) > 0.
    """

    theta0: float
    delta1: float
    derivative_at_pi_half: float
    gap_lower_bound: float
    certified_bound: float


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------


def _kernel_cos(P: float, N: float, s: float, co: float, c: float, one_minus_c: float) -> float:
    """Kernel at sin(theta) = s, cos(theta) = co and cos(omega) = c.

    The kernel is 1/2 log2[(1-c)(2P+N+Nc) s^2 / ((P+N)(s - c)(s + c))].
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
    x = one_minus_c * (2.0 * P + N + N * c) / (P + N) * (s / s_minus_c) * (s / (s + c))
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
        params.P / params.N, 1.0, math.sin(theta), math.cos(theta),
        math.cos(omega), 2.0 * math.sin(omega / 2.0) ** 2,
    )


def conditional_entropy_bound(params: ChannelParams, theta: float, omega: float) -> float:
    """Per-letter bound on what the destination does not know about the index.

    Identical to entropy_difference_bound minus log2 sin(theta).
    """
    return entropy_difference_bound(params, theta, omega) - math.log2(math.sin(theta))


def _outer_sup(P: float, N: float, c0: float) -> float:
    """The bound's sup over theta of min{C0 + log2 sin(theta), k*(theta)}, in bits.

    With c = cos(omega) the kernel's minimum over omega sits at the smaller
    root c of P c^2 - (2P + N cos^2 theta) c + P sin^2 theta = 0, where
    sin^2 theta - c^2 = c (1 - c)(2P + N + N c) / (P + N c), so
    k* = 1/2 log2(sin^2 theta (P + N c) / ((P + N) c)).  C0 + log2 sin(theta)
    increases in theta and k* does not, so the sup sits at their crossing,
    which is linear in c:  4^C0 (P + N) c = P + N c, i.e.
    c* = P / ((P + N)(4^C0 - 1) + P).  There the sup is
    1/2 log2(1 + P (1 - c*) / (P + N)), below C(inf) - C(0) exactly when
    c* > 0, i.e. at every finite C0.  P (1 - c*) / (P + N) is formed as
    P / (P + N + P / (4^C0 - 1)), free of cancellation at either end.
    """
    try:
        e = math.expm1(2.0 * c0 * LN2)
    except OverflowError:
        # 4^C0 beyond float64 (C0 > 512): c* < 2^-1024 moves no bit of the
        # sup, which is C(inf) - C(0)
        e = math.inf
    if not e:
        return 0.0
    d = P + N + P / e
    # at huge SNR and tiny C0 (e.g. 1e300 and 1e-9) P / e overflows, which
    # would drop the sup to 0; there P / (P + N + P / e) = e / (e + 1 + e N / P)
    return 0.5 * math.log1p(P / d if d < math.inf else e / (e + 1.0 + e * N / P)) / LN2


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

    C(0) plus the closed-form sup (_outer_sup), rounded up by a bound on
    its float evaluation error and then clamped: below by C(0), above by
    the cut-set bound and by the certified bound, which keeps the result
    strictly below C(inf) even where the true gap is smaller than the sum's
    rounding (e.g. SNR ~ 1e-4 with C0 ~ 15).  Last, it is raised to
    compress_forward_rate, so the float values keep the true order
    cf_rate <= bound <= cut-set at every input.  Every finite C0 >= 0 gives
    a value.

    The certificate's bisection runs only where one evaluation of its step
    condition cannot rule the clamp out (_certificate_may_bind): away from
    that, the certified bound is provably >= the value, so the min would
    return the value unchanged and skipping it moves no bit.
    """
    if math.isinf(c0):
        raise InvalidInput("capacity_upper_bound requires finite C0; use "
                           "capacity_full_cooperation for the C0 = inf asymptote")
    if c0 < 0 or math.isnan(c0):
        raise InvalidInput(f"C0 must be finite and >= 0, got {c0}")
    best = _outer_sup(params.P / params.N, 1.0, c0)
    c_no_relay = capacity_no_relay(params)
    # the sup (at most 1/2) is good to a few eps, plus c* times the ~1.4 C0
    # eps relative error that expm1's rounded argument puts on 4^C0 - 1; the
    # sum carries an ulp of C(0)
    value = c_no_relay + best + 8.0 * _EPS * (1.0 + c0 + c_no_relay)
    value = max(min(value, cutset_bound(params, c0)), c_no_relay)
    if _certificate_may_bind(params, c0, value):
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

    With c = sin(delta), sin0 = sin(theta0) and rho = N / (2P + N), the
    kernel's finite difference at omega = pi/2 is
    -1/2 [log1p(-c) + log1p(rho c) - log1p(-(c/sin0)^2)] / ln 2; the step is
    accepted when that difference over delta lies within 50% of deriv.
    """
    c = math.sin(delta)
    if c >= sin0:
        return False
    diff = -0.5 * (math.log1p(-c) + math.log1p(rho * c)
                   - math.log1p(-((c / sin0) ** 2))) / LN2
    return abs(diff / delta - deriv) <= deriv / 2.0


def _certificate_may_bind(params: ChannelParams, c0: float, value: float) -> bool:
    """False only where gap_certificate's certified bound is >= value for sure.

    value <= C(inf) is the bound after its cut-set and C(0) clamps, and
    margin = C(inf) - value is exact by Sterbenz (value >= C(0) >= C(inf)/2
    wherever 1 + P/N does not round) and within half an ulp otherwise.  The
    certified bound C(inf) - P delta1 / (2 (2P+N) ln 2) reaches value at
    delta_t = margin 2 (2P+N) ln 2 / P; the test point is delta_t lowered by
    a guard.  The bisection keeps its step delta1 below theta0 and the step
    condition true at delta1, and the exact condition holds below one
    transition step and fails above it.  So if the test point is >= theta0,
    or the float condition fails there, delta1 < delta_t: the certified
    bound is >= value and clamping to it changes nothing.

    The guard covers the roundings of margin, delta_t and the certified
    bound (~10 eps), and the band around the transition where the float
    condition can disagree with the exact one.  At the transition the three
    log1p terms, each of size up to ~c and good to an ulp, cancel to
    ~(1 - rho) c / 2 = P c / (2P + N), so the difference quotient is good to
    ~8 eps (2P+N)/P relative; the quotient falls at least linearly in delta,
    so that error moves the float transition by at most twice as much, and
    the test, which must clear both ends of that band, needs
    ~32 eps (2P+N)/P + 10 eps.  1024 eps (2P+N)/P leaves a factor of 30 over
    that estimate; where the guard reaches 1/2 (SNR below ~1e-13) the
    bisection always runs.
    """
    P, N = params.P / params.N, 1.0
    guard = 1024.0 * _EPS * (2.0 * P + N) / P
    if not guard < 0.5:
        return True
    margin = capacity_full_cooperation(params) - value
    delta = margin * (2.0 * (2.0 * P + N) * LN2 / P) * (1.0 - guard)
    sin0 = 2.0 ** (-c0)
    if delta >= math.asin(sin0):
        return False
    if not delta >= sys.float_info.min:
        # margin 0, or a step too small for the band estimate to hold
        return True
    return _step_condition(delta, sin0, N / (2.0 * P + N), P / ((2.0 * P + N) * LN2))


def gap_certificate(params: ChannelParams, c0: float) -> GapCertificate:
    """Certify a strict gap below full cooperation at finite C0.

    Bisects for the largest backward step delta1 in (0, theta0) at which
    the one-sided finite difference of the kernel at omega = pi/2 stays
    within 50% of the exact derivative P / ((2P + N) ln 2); the certified
    bound is then C(inf) - P*delta1 / (2 (2P+N) ln 2).

    With c = sin(delta) the difference is
    -1/2 [log1p(-c) + log1p(Nc/(2P+N)) - log1p(-(c/sin theta0)^2)] / ln 2,
    which float64 resolves at any step, so the bisection runs in float64 and
    in log delta.  The valid step shrinks like theta0^2; once the bisection
    floor leaves float64's normal range (C0 in the hundreds) the
    certificate raises NumericalError.

    Every call runs the full bisection.  capacity_upper_bound calls it only
    where the clamp to certified_bound may bind; elsewhere one evaluation
    of the step condition shows delta1 lies below the step at which the
    certified bound would reach the bound's value.
    """
    if not math.isfinite(c0) or c0 < 0:
        raise InvalidInput(f"C0 must be finite and >= 0, got {c0}")
    P, N = params.P / params.N, 1.0
    deriv = P / ((2.0 * P + N) * LN2)
    sin0 = 2.0 ** (-c0)
    theta0 = math.asin(sin0)
    rho = N / (2.0 * P + N)

    lo, hi = theta0 * theta0 * (P / (2.0 * P + N)) * 1e-6, theta0
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

    gap = P * lo / (2.0 * (2.0 * P + N) * LN2)
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
    try:
        # expm1 keeps 2^(2 C0) - 1 exact down to subnormal C0
        e = math.expm1(2.0 * c0 * LN2)
    except OverflowError:
        # 2^(2 C0) beyond float64 (C0 > 512): sigma^2 is below N's last ulp
        return 0.0
    den = (s + 1.0) * e
    if den < math.inf:
        return (2.0 * s + 1.0) / den
    # at huge SNR the product overflows while sigma^2 ~ 2N / (4^C0 - 1) still
    # moves the rate (e.g. SNR 1e305, C0 = 10), so form the ratio first
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
