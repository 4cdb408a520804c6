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
over omega is the smaller root of a quadratic in cos(omega), the outer sup
is the crossing of an increasing and a nonincreasing function of theta
(found by a bracketed root-find), and the certificate bisects a
log1p-form finite difference.  No search is stochastic, so sweeps are
exactly reproducible.
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
_BRENT_MAX_ITER = 100


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
        params.P, params.N, math.sin(theta), math.cos(theta),
        math.cos(omega), 2.0 * math.sin(omega / 2.0) ** 2,
    )


def conditional_entropy_bound(params: ChannelParams, theta: float, omega: float) -> float:
    """Per-letter bound on what the destination does not know about the index.

    Identical to entropy_difference_bound minus log2 sin(theta).
    """
    return entropy_difference_bound(params, theta, omega) - math.log2(math.sin(theta))


def _inner_min(P: float, N: float, theta: float) -> tuple[float, float]:
    """(1 - c*, k*) for the kernel's minimum over omega at this theta.

    With c = cos(omega) the minimizer c* is the smaller root of
    P c^2 - (2P + N cos^2 theta) c + P sin^2 theta = 0.  Both 1 - c* and
    q = c*/sin(theta) < tan(theta/2) come from rationalized forms of the
    root, free of cancellation.
    """
    s, co = math.sin(theta), math.cos(theta)
    r = math.sqrt(4.0 * P * (P + N) + (N * co) ** 2)
    den = 2.0 * P + N * co * co + co * r
    one_minus_c = co * ((2.0 * P + N) * co + r) / den
    q = 2.0 * P * s / den
    return one_minus_c, _kernel_cos(P, N, s, co, q * s, one_minus_c)


def _brentq(f, xpre: float, xcur: float, fpre: float, fcur: float,
            xtol: float, rtol: float) -> float:
    """Root of f on [xpre, xcur] by Brent's method, given f there.

    fpre = f(xpre) and fcur = f(xcur) must be nonzero and of opposite
    sign.  A step-for-step port of scipy's Zeros/brentq.c, so it returns
    the same float as scipy.optimize.brentq(f, xpre, xcur, xtol, rtol)
    without importing scipy.optimize.  xblk is the point that brackets the
    root with xcur; the step is secant or inverse-quadratic when that is
    short enough and bisection otherwise, and never shorter than delta.
    Raises NumericalError after _BRENT_MAX_ITER steps, where scipy raises
    RuntimeError.
    """
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAX_ITER):
        # brentq.c also requires both nonzero; only a new fcur can be zero,
        # and then xcur is returned below whichever way this test goes
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise NumericalError(
        f"Brent root-find did not converge in {_BRENT_MAX_ITER} steps on [{xpre}, {xcur}]"
    )


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

    The first term C0 + log2 sin(theta) increases in theta and the inner
    minimum k*(theta) does not, so the sup of their min over
    [arcsin 2^-C0, pi/2] sits at their crossing.  Since 0 <= k* <= k*(theta0),
    the crossing lies where sin(theta) <= 2^(k*(theta0) - C0); _brentq finds
    it to a relative tolerance, and max(first, k*) at the root bounds the
    sup from above whichever side of the crossing the root landed on.  The
    sum is rounded up by a bound on its float evaluation error and then
    clamped: below by C(0), above by the cut-set bound (log2 sin <= 0) and
    by the certified bound, which keeps the result strictly below C(inf)
    even where the true gap is smaller than the kernel's float evaluation
    noise (e.g. SNR ~ 1e-4 with C0 ~ 15).  Last, it is raised to
    compress_forward_rate, so the float values keep the true order
    cf_rate <= bound <= cut-set at every input.
    """
    if math.isinf(c0):
        raise InvalidInput("capacity_upper_bound requires finite C0; use "
                           "capacity_full_cooperation for the C0 = inf asymptote")
    if c0 < 0 or math.isnan(c0):
        raise InvalidInput(f"C0 must be finite and >= 0, got {c0}")
    theta0 = math.asin(2.0 ** (-c0))
    if theta0 <= 0.0:
        raise DomainError(f"C0 = {c0} underflows arcsin(2^-C0) to zero")
    P, N = params.P, params.N

    def excess(theta: float) -> float:
        return c0 + math.log2(math.sin(theta)) - _inner_min(P, N, theta)[1]

    lo, hi = theta0, math.asin(min(1.0, 2.0 ** (_inner_min(P, N, theta0)[1] - c0)))
    f_lo = excess(lo)
    if f_lo >= 0.0:
        root = lo
    elif (f_hi := excess(hi)) <= 0.0:
        root = hi
    else:
        # near theta0 = arcsin 2^-C0 only a relative tolerance resolves theta
        root = _brentq(excess, lo, hi, f_lo, f_hi, xtol=sys.float_info.min, rtol=4.0 * _EPS)
    best = max(c0 + math.log2(math.sin(root)), _inner_min(P, N, root)[1])

    c_no_relay = capacity_no_relay(params)
    # k* (at most 1/2) is good to ~3 eps; the first term and the sum carry a
    # few ulp of C0 and C(0)
    value = c_no_relay + best + 8.0 * _EPS * (1.0 + c0 + c_no_relay)
    value = max(min(value, cutset_bound(params, c0)), c_no_relay)
    try:
        value = min(value, gap_certificate(params, c0).certified_bound)
    except NumericalError:
        # certificate step below float64 range (C0 in the hundreds)
        pass
    # the capacity is at least the compress-and-forward rate; where the true
    # gap between them is below the rounding of either, the float rate can
    # land above the clamped bound (e.g. SNR 10^-3.859375, C0 = 19.5)
    return max(value, compress_forward_rate(params, c0))


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
    """
    if not math.isfinite(c0) or c0 < 0:
        raise InvalidInput(f"C0 must be finite and >= 0, got {c0}")
    P, N = params.P, params.N
    deriv = P / ((2.0 * P + N) * LN2)
    sin0 = 2.0 ** (-c0)
    theta0 = math.asin(sin0)
    rho = N / (2.0 * P + N)

    def condition(delta: float) -> bool:
        c = math.sin(delta)
        if c >= sin0:
            return False
        diff = -0.5 * (math.log1p(-c) + math.log1p(rho * c)
                       - math.log1p(-((c / sin0) ** 2))) / LN2
        return abs(diff / delta - deriv) <= deriv / 2.0

    lo, hi = theta0 * theta0 * (P / (2.0 * P + N)) * 1e-6, theta0
    if lo < sys.float_info.min:
        raise NumericalError(
            f"C0 = {c0} puts the certificate step below float64 range"
        )
    if not condition(lo):
        raise NumericalError(
            f"finite-difference certificate failed at the bisection floor for c0={c0}"
        )
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            break
        if condition(mid):
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
    P, N = params.P, params.N
    sigma2 = cf_quantization_variance(params, c0)
    rate = 0.5 * math.log2(1.0 + P / N + P / (N + sigma2))
    # an achievable rate never exceeds the cut-set bound; in float the two
    # can cross by a few ulps where C0 is below C(0)'s resolution (e.g.
    # SNR 1000, C0 = 2^-52)
    return min(rate, cutset_bound(params, c0))


def cf_quantization_variance(params: ChannelParams, c0: float) -> float:
    """The sigma^2 solving the pipe-filling identity; exposed for oracle tests."""
    if not (math.isfinite(c0) and c0 > 0):
        raise DomainError(f"need finite C0 > 0, got {c0}")
    P, N = params.P, params.N
    try:
        # expm1 keeps 2^(2 C0) - 1 exact down to subnormal C0
        return N * (2.0 * P + N) / ((P + N) * math.expm1(2.0 * c0 * LN2))
    except OverflowError:
        # 2^(2 C0) beyond float64 (C0 > 512): sigma^2 is below N's last ulp
        return 0.0


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
