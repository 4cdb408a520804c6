"""Independent reference routes the tests check the package against.

Nothing here is used by the package itself:

- point samplers for the sphere and for caps, whose empirical laws check
  the estimator's coordinates and the cap-area ratios;
- log-domain quadrature of the sin^k integrals behind cap and band
  masses, over `geometry._log2_quad` (the package's closed forms are
  checked against it);
- 40-digit mpmath cap areas and 50-digit masses of polar-interval sets;
- a frozen copy of the incomplete beta and the lens-piece integrand as they
  were before the package built their constants once per shape: one
  continued fraction per call, its coefficients formed inside the loop.
  The package must return the same floats and raise the same errors;
- a frozen copy of the isoperimetry trial route as it was before the loop
  built its constants and buffers once per request: one `trial_rng(seed,
  0)`, from which every trial's pole cosine is drawn first, then a full
  `estimate_cap_intersection` call (standard error included) per trial on
  newly allocated arrays.  The verifiers must report the same bits and
  raise the same errors at the same trial;
- the kernel's float minimum over omega at one theta, and the bound's sup
  as the package found it before the closed form: scipy's `brentq` for the
  crossing of C0 + log2 sin(theta) and that minimum;
- a frozen copy of `capacity_upper_bound` as it was before it ran the
  certificate's bisection only where the clamp can bind: it runs it at
  every point.  The package must return the same floats and raise the
  same errors;
- a frozen copy of `OutputRecord.to_json` as it was before the CLI's
  module-level JSON writer: a closure rebuilt per call, every key and
  string through `json.dumps`.  The writer must give the same text.
"""

from __future__ import annotations

import json
import math
import sys
from functools import lru_cache

import mpmath as mp
import numpy as np
import scipy.optimize
from scipy.interpolate import PchipInterpolator

from relaycap import bounds, geometry, montecarlo
from relaycap.bounds import _kernel_cos
from relaycap.channel import ChannelParams, capacity_no_relay
from relaycap.errors import DomainError, InvalidInput, NumericalError
from relaycap.geometry import (
    LN2,
    CapSpec,
    LogMeasure,
    MeasureKind,
    _log2_beta_fn,
    _log2_cap_front,
    _log2_quad,
    _log2_sin_integral_zero_to,
)

_POLAR_TABLE_NODES = 4096


def sample_uniform_sphere(m: int, R: float, rng: np.random.Generator, size: int | None = None):
    """Uniform (rotation-invariant) points on the sphere of radius R in R^m.

    Standard Gaussian vectors normalized and scaled; returns shape (m,) for
    size=None, else (size, m).
    """
    if m < 2:
        raise DomainError(f"sphere sampling needs m >= 2, got {m}")
    n = 1 if size is None else int(size)
    g = rng.standard_normal((n, m))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    pts = R * g
    return pts[0] if size is None else pts


@lru_cache(maxsize=64)
def _polar_angle_table(m: int, angle: float) -> PchipInterpolator:
    """Monotone inverse of the polar-angle CDF on [0, angle] at sin^(m-2) density.

    Tabulates the log2 cumulative mass at Chebyshev-clustered nodes (dense
    at both endpoints, where all the probability lives when m is large) and
    interpolates angle as a function of log2(CDF) with a monotone cubic.
    Working on the log scale keeps the table meaningful where the CDF
    itself underflows.
    """
    n = _POLAR_TABLE_NODES
    j = np.arange(1, n + 1)
    nodes = angle * 0.5 * (1.0 - np.cos(math.pi * j / n))
    total = _log2_sin_integral_zero_to(m - 2, angle)
    log_cdf = np.array(
        [_log2_sin_integral_zero_to(m - 2, float(r)) for r in nodes]
    ) - total
    log_cdf[-1] = 0.0
    # PCHIP needs strictly increasing abscissae: drop -inf heads and, where
    # the log-CDF saturates in float64 (mass beyond a node below one ulp,
    # e.g. past the equator for angle = pi), keep the last node of each flat
    # run so log_cdf = 0 still maps to rho = angle.
    keep = np.isfinite(log_cdf)
    keep[:-1] &= np.diff(log_cdf) > 0.0
    log_cdf, nodes = log_cdf[keep], nodes[keep]
    return PchipInterpolator(log_cdf, nodes, extrapolate=False)


def sample_uniform_cap(
    m: int,
    R: float,
    pole,
    angle: float,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Uniform points on the cap of half-angle `angle` around `pole`.

    Polar angle by numeric inverse-CDF of the sin^(m-2) density restricted
    to [0, angle]; the orthogonal component is an independent uniform
    direction in the pole's orthocomplement.
    """
    if m < 2:
        raise DomainError(f"cap sampling needs m >= 2, got {m}")
    if not 0.0 < angle <= math.pi:
        raise DomainError(f"cap angle must lie in (0, pi], got {angle}")
    pole = np.asarray(pole, dtype=float)
    p_hat = pole / np.linalg.norm(pole)
    n = 1 if size is None else int(size)

    table = _polar_angle_table(m, float(angle))
    u = 1.0 - rng.random(n)  # (0, 1]
    log_u = np.log2(u)
    lo = float(table.x[0])
    rho = np.asarray(table(np.clip(log_u, lo, 0.0)))

    g = rng.standard_normal((n, m))
    g -= np.outer(g @ p_hat, p_hat)
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    pts = R * (np.cos(rho)[:, None] * p_hat + np.sin(rho)[:, None] * g)
    return pts[0] if size is None else pts


def polar_angles(points: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Angles of points on the sphere of the given radius to e1."""
    return np.arccos(np.clip(points[..., 0] / radius, -1.0, 1.0))


def log2_sin_power_integral(k: int, lo: float, hi: float) -> float:
    """log2 of the integral of sin(rho)^k over [lo, hi] in [0, pi], by quadrature.

    sin^k rises up to pi/2 and falls after it, so the peak on [lo, hi] is
    pi/2 clipped to the window.
    """
    if not (0.0 <= lo <= math.pi and 0.0 <= hi <= math.pi):
        raise DomainError(f"integration bounds must lie in [0, pi], got [{lo}, {hi}]")
    if not hi > lo:
        return -math.inf

    def g(rho: float) -> float:
        s = math.sin(rho)
        if s <= 0.0:
            return -math.inf
        return k * math.log2(s)

    return _log2_quad(g, lo, hi, min(max(math.pi / 2.0, lo), hi))


def log_cap_area_quadrature(spec: CapSpec) -> LogMeasure:
    """Cap area via log-domain quadrature of the sin^(m-2) integral."""
    value = _log2_cap_front(spec.m, spec.R) + log2_sin_power_integral(
        spec.m - 2, 0.0, spec.theta
    )
    return LogMeasure(value, MeasureKind.SURFACE_AREA)


def log2_cap_area_mpmath(m: int, R: float, theta: float) -> float:
    """log2 of the cap area at 40 digits, from mpmath's regularized betainc.

    A(theta) = (A_m / 2) I_{sin^2 theta}((m-1)/2, 1/2) up to pi/2, and
    A_m (1 - I / 2) beyond it, with the sphere area A_m = 2 pi^(m/2) /
    Gamma(m/2) R^(m-1).  The shape b = 1/2 keeps mpmath's hypergeometric
    series convergent at every m the tests use.
    """
    with mp.workdps(40):
        t = mp.mpf(theta)
        sphere = 2 * mp.pi ** (mp.mpf(m) / 2) / mp.gamma(mp.mpf(m) / 2) * mp.mpf(R) ** (m - 1)
        reg = mp.betainc(mp.mpf(m - 1) / 2, mp.mpf(1) / 2, 0, mp.sin(t) ** 2, regularized=True)
        frac = reg / 2 if 2 * t <= mp.pi else 1 - reg / 2
        return float(mp.log(sphere * frac, 2))


def log2_set_mass_mpmath(m: int, intervals) -> float:
    """log2 of the integral of sin^(m-2) over disjoint float polar intervals, at 50 digits.

    Each interval is split at pi/2 and each part is a difference of two caps
    through mpmath's regularized betainc, the part past the equator mirrored
    at the exact pi, so that no cap passes the equator.  At 50 digits the
    difference keeps ~34 of them even for an interval one ulp wide; a plain
    difference of caps from 0 across the equator loses them.
    """
    with mp.workdps(50):
        a = mp.mpf(m - 1) / 2
        half_pi = mp.pi / 2

        def cap(t):
            return mp.betainc(a, mp.mpf(1) / 2, 0, mp.sin(t) ** 2, regularized=True)

        total = mp.mpf(0)
        for lo, hi in intervals:
            lo, hi = mp.mpf(lo), mp.mpf(hi)
            if lo < half_pi:
                total += cap(min(hi, half_pi)) - cap(lo)
            if hi > half_pi:
                total += cap(mp.pi - max(lo, half_pi)) - cap(mp.pi - hi)
        return float(mp.log(mp.beta(a, mp.mpf(1) / 2) / 2 * total, 2))


def log2_interval_mass_mpmath(m: int, lo: float, hi: float) -> float:
    """log2 of the integral of sin^(m-2) over the float interval [lo, hi], at 50 digits."""
    return log2_set_mass_mpmath(m, ((lo, hi),))


def betainc_mpmath(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta I_x(a, b) at 40 digits, rounded to a float."""
    with mp.workdps(40):
        return float(mp.betainc(mp.mpf(a), mp.mpf(b), 0, mp.mpf(x), regularized=True))


_BETA_MAX_ITER = 1000  # the package's cap, so both raise on the same shapes
_BETA_EPS = 1e-15
_FPMIN = 1e-300


def beta_cf_frozen(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz's method)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for it in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * it
        aa = it * (b - it) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + it) * (qab + it) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise NumericalError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def reg_inc_beta_frozen(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"beta parameters must be > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"incomplete beta argument must lie in [0, 1], got x={x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        a * math.log(x) + b * math.log1p(-x) - LN2 * _log2_beta_fn(a, b)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_front) * beta_cf_frozen(a, b, x) / a
    return 1.0 - math.exp(ln_front) * beta_cf_frozen(b, a, 1.0 - x) / b


def log2_reg_inc_beta_frozen(x: float, a: float, b: float) -> float:
    """log2 of I_x(a, b), finite (not underflowed) even when I_x ~ 2^-10000."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"beta parameters must be > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"incomplete beta argument must lie in [0, 1], got x={x}")
    if x == 0.0:
        return -math.inf
    if x == 1.0:
        return 0.0
    if x < (a + 1.0) / (a + b + 2.0):
        log2_front = (a * math.log(x) + b * math.log1p(-x)) / LN2 - _log2_beta_fn(a, b)
        return log2_front + math.log2(beta_cf_frozen(a, b, x) / a)
    return math.log2(reg_inc_beta_frozen(x, a, b))


def lens_piece_log2_integrand_frozen(m: int, phi_ref: float):
    """log2 of sin^(m-2)(rho) I_x((m-2)/2, 1/2), x = 1 - tan^2(phi_ref)/tan^2(rho)."""
    a = (m - 2) / 2.0
    tan_ref = math.tan(phi_ref)

    def g(rho: float) -> float:
        s = math.sin(rho)
        if s <= 0.0:
            return -math.inf
        t = tan_ref / math.tan(rho)
        x = min(max(1.0 - t * t, 0.0), 1.0)
        lb = log2_reg_inc_beta_frozen(x, a, 0.5)
        if lb == -math.inf:
            return -math.inf
        return (m - 2) * math.log2(s) + lb

    return g


def _spread_frozen(v, starts, lengths):
    cums = []
    total = lengths[0]
    for length in lengths[1:]:
        cums.append(total)
        total = total + length
    target = np.multiply(v, total, out=v)
    point = target + starts[0]
    prev = starts[0]
    for start, cum in zip(starts[1:], cums):
        offset = start - cum
        point += (target > cum) * (offset - prev)
        prev = offset
    return point, total


def _u_range_frozen(lo, hi, cc, den):
    if hi == math.pi:
        a = -1.0
    else:
        a = np.subtract(math.cos(hi), cc)
        a /= den
        np.maximum(a, -1.0, out=a)
        np.minimum(a, 1.0, out=a)
    if lo == 0.0:
        b = 1.0
    else:
        b = np.subtract(math.cos(lo), cc)
        b /= den
        np.minimum(b, 1.0, out=b)
    return a, np.maximum(b - a, 0.0)


def estimate_cap_intersection_frozen(sphere_set, cy, beta, n_samples, rng, radius=1.0):
    """The intersection estimate with its standard error, one call per trial.

    Reads the reachable w-ranges through `montecarlo._reachable_w_ranges`,
    so a test that wraps that function wraps it for both routes.
    """
    m = sphere_set.m
    if m < 4:
        raise DomainError(f"intersection estimation needs m >= 4, got {m}")
    if not 0.0 < beta <= math.pi:
        raise DomainError(f"cap angle must lie in (0, pi], got {beta}")
    k = int(n_samples)
    if k < 1:
        raise DomainError("need at least one sample")

    cy = min(max(float(cy), -1.0), 1.0)
    ca = math.sqrt(max(0.0, 1.0 - cy * cy))

    ranges = montecarlo._reachable_w_ranges(sphere_set.intervals, cy, beta)
    if not ranges:
        return -math.inf, math.inf
    if ranges[-1][1] < 2.0**-1000:
        raise NumericalError(
            f"every reachable polar angle is below ~1e-150 (beta = {beta}); "
            "w = 1 - cos(rho) cannot resolve it"
        )
    w, w_len = _spread_frozen(rng.random(k), [a for a, _ in ranges], [b - a for a, b in ranges])
    v = rng.random(k)
    s2 = np.subtract(2.0, w)
    s2 *= w
    np.maximum(s2, 0.0, out=s2)
    s = np.sqrt(s2)
    cc = np.multiply(w, -cy, out=w)
    cc += cy
    den = s * ca
    np.maximum(den, 1e-300, out=den)
    starts, lengths = zip(*(_u_range_frozen(lo, hi, cc, den) for lo, hi in sphere_set.intervals))
    u, total = _spread_frozen(v, starts, lengths)

    with np.errstate(divide="ignore"):
        log_w = np.multiply(s, total, out=s)
        np.log2(log_w, out=log_w)
        if m > 4:
            q = np.multiply(u, u, out=u)
            np.subtract(1.0, q, out=q)
            q *= s2
            np.maximum(q, 0.0, out=q)
            np.log2(q, out=q)
            q *= 0.5 * (m - 4)
            log_w += q

    w_max = float(np.maximum.reduce(log_w))
    if w_max == -math.inf:
        return -math.inf, math.inf
    log_w -= w_max
    np.maximum(log_w, -1000.0, out=log_w)
    wt = np.exp2(log_w, out=log_w)
    total_w = float(np.add.reduce(wt))
    const = (
        math.log2(w_len)
        - math.log2(k)
        + (m - 1) * math.log2(radius)
        + geometry.log_sphere_area(m - 2, 1.0).log2_value
    )
    log2_est = const + w_max + math.log2(total_w)
    if k == 1:
        return log2_est, math.inf
    mean = total_w / k
    wt -= mean
    wt *= wt
    sd = math.sqrt(float(np.add.reduce(wt)) / (k - 1))
    return log2_est, sd / (math.sqrt(k) * mean) / LN2


def _isoperimetry_trials_frozen(target, angular, omega, radius, log2_v, log2_offset, cfg):
    half_pi = math.pi / 2.0
    m = angular.m
    if m < 4:
        raise DomainError(f"need m >= 4, got {m}")
    theta = target.effective_theta
    if not 0.0 < theta <= half_pi:
        raise DomainError(f"effective angle must lie in (0, pi/2], got {theta}")
    if not 0.0 < omega <= half_pi:
        raise DomainError(f"omega must lie in (0, pi/2], got {omega}")
    if theta + omega <= half_pi:
        raise DomainError(
            f"need theta + omega > pi/2, got {theta} + {omega} = {theta + omega}"
        )
    v_log2 = log2_v(theta)
    log2_required = math.log2(1.0 - cfg.epsilon) + v_log2
    beta = min(omega + cfg.slack, math.pi)

    rng = montecarlo.trial_rng(cfg.seed, 0)
    # the pole cosines z / sqrt(z^2 + chi2_{m-1}) of all trials come first
    z = rng.standard_normal(cfg.trials)
    cys = z / np.sqrt(z * z + rng.chisquare(m - 1, cfg.trials))
    successes = 0
    margins = []
    for cy in cys:
        log2_est, _ = estimate_cap_intersection_frozen(
            angular, cy, beta, cfg.samples_per_estimate, rng, radius
        )
        margin = log2_est + log2_offset - log2_required
        margins.append(margin)
        if margin > 0.0:
            successes += 1
    estimate = successes / cfg.trials
    se = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / cfg.trials)
    threshold = 1.0 - cfg.epsilon
    if abs(estimate - threshold) < 3.0 * se:
        verdict = montecarlo.Verdict.INCONCLUSIVE
    else:
        verdict = montecarlo.Verdict.PASS if estimate >= threshold else montecarlo.Verdict.FAIL
    finite = [x for x in margins if math.isfinite(x)]
    return montecarlo.McReport(
        estimate=estimate,
        std_error=se,
        n_used=cfg.trials,
        threshold=threshold,
        verdict=verdict,
        seed=cfg.seed,
        details={
            "log2_required": log2_required,
            "margin_bits_min": min(margins),
            "margin_bits_median": float(np.median(finite)) if finite else -math.inf,
            "successes": successes,
            "m": m,
            "theta": theta,
            "omega": omega,
            "beta": beta,
            "log2_V": v_log2,
        },
    )


def verify_isoperimetry_sphere_frozen(sphere_set, omega, cfg, n_scale=1.0):
    m = sphere_set.m
    return _isoperimetry_trials_frozen(
        sphere_set,
        sphere_set,
        omega,
        math.sqrt(m * n_scale),
        lambda theta: geometry.log_cap_intersection(m, n_scale, theta, omega).log2_value,
        0.0,
        cfg,
    )


def verify_isoperimetry_shell_frozen(shell_set, omega, cfg):
    def log2_v(theta):
        bounds = geometry.log_shellcap_intersection_bounds(shell_set.spec, theta, omega)
        return bounds.exact.log2_value

    return _isoperimetry_trials_frozen(
        shell_set,
        shell_set.angular,
        omega,
        shell_set.base_radius,
        log2_v,
        shell_set.log2_radial_part(),
        cfg,
    )


def inner_min(P: float, N: float, theta: float) -> tuple[float, float]:
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
    return one_minus_c, _kernel_cos(P / N, s, co, q * s, one_minus_c)


def brent_sup(P: float, N: float, c0: float) -> float:
    """The bound's sup over theta in [arcsin 2^-C0, pi/2], by a root-find.

    C0 + log2 sin(theta) increases in theta and k*(theta) does not, and
    0 <= k* <= k*(theta0), so their crossing lies where
    sin(theta) <= 2^(k*(theta0) - C0).  brentq finds it to a relative
    tolerance, and max(first, k*) at the root bounds the sup from above
    whichever side of the crossing the root landed on.
    """
    theta0 = math.asin(2.0 ** (-c0))

    def excess(theta: float) -> float:
        return c0 + math.log2(math.sin(theta)) - inner_min(P, N, theta)[1]

    lo, hi = theta0, math.asin(min(1.0, 2.0 ** (inner_min(P, N, theta0)[1] - c0)))
    if excess(lo) >= 0.0:
        root = lo
    elif excess(hi) <= 0.0:
        root = hi
    else:
        root = scipy.optimize.brentq(excess, lo, hi, xtol=sys.float_info.min,
                                     rtol=4.0 * sys.float_info.epsilon)
    return max(c0 + math.log2(math.sin(root)), inner_min(P, N, root)[1])


def capacity_upper_bound_always_bisect(params: ChannelParams, c0: float) -> float:
    """capacity_upper_bound with the certificate clamp applied at every point."""
    if math.isinf(c0):
        raise InvalidInput("capacity_upper_bound requires finite C0; use "
                           "capacity_full_cooperation for the C0 = inf asymptote")
    if c0 < 0 or math.isnan(c0):
        raise InvalidInput(f"C0 must be finite and >= 0, got {c0}")
    value = bounds._closed_form_bound(params.P / params.N, c0)
    value = max(min(value, bounds.cutset_bound(params, c0)), capacity_no_relay(params))
    try:
        value = min(value, bounds.gap_certificate(params, c0).certified_bound)
    except NumericalError:
        pass
    return max(value, bounds.compress_forward_rate(params, c0))


def to_json_frozen(record) -> str:
    """`OutputRecord.to_json` before the module-level writer, verbatim."""
    def render(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return format(v, ".17g") if math.isfinite(v) else json.dumps(v)
        if isinstance(v, int):
            return str(v)
        if isinstance(v, str):
            return json.dumps(v)
        if isinstance(v, (list, tuple)):
            return "[" + ", ".join(render(x) for x in v) + "]"
        if isinstance(v, dict):
            return "{" + ", ".join(
                f"{json.dumps(str(k))}: {render(x)}" for k, x in v.items()
            ) + "}"
        raise TypeError(f"cannot serialize {type(v).__name__}")

    doc = {
        "schema_version": "1",
        "command": record.command,
        "params": record.params,
        "rows": record.rows,
    }
    return render(doc)
