"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from relaycap import (
    BallPairSpec,
    CapSpec,
    ChannelParams,
    McConfig,
    ShellSpec,
    ShellSet,
    SphereSet,
    ball_overlap_lambda,
    capacity_full_cooperation,
    capacity_no_relay,
    capacity_upper_bound,
    cap_intersection_exponent,
    compress_forward_rate,
    cutset_bound,
    cutset_c0_threshold,
    entropy_difference_bound,
    gap_certificate,
    log_ball_intersection,
    log_cap_area,
    log_cap_intersection,
    log_sphere_area,
    verify_concentration,
    verify_isoperimetry_shell,
    verify_isoperimetry_sphere,
)
from relaycap.montecarlo import trial_rng

from oracles import log_cap_area_quadrature, sample_uniform_cap

deg = math.radians
HALF_PI = math.pi / 2


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {status}: {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_01_upper_bound_below_full_cooperation_with_certified_margin():
    t0 = time.time()
    worst = math.inf
    ok = True
    for snr in (0.1, 1.0, 10.0):
        params = ChannelParams.from_snr(snr)
        ci = capacity_full_cooperation(params)
        for c0 in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            ub = capacity_upper_bound(params, c0)
            cert = gap_certificate(params, c0)
            margin = ci - ub
            worst = min(worst, margin - cert.gap_lower_bound)
            ok &= ub < ci and margin >= cert.gap_lower_bound - 1e-6
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    report(1, "upper bound sits below full cooperation by at least the certified gap",
           ok, f"worst slack {worst:.3e} bits, {elapsed:.1f}s")


def test_02_kernel_value_at_right_endpoint():
    rng = np.random.default_rng(2024)
    params = ChannelParams(1.0, 1.0)
    target = 0.5 * math.log2(1.5)
    errs = []
    for _ in range(20):
        theta = float(rng.uniform(0.0, HALF_PI)) or 0.3
        errs.append(abs(entropy_difference_bound(params, theta, HALF_PI) - target))
    report(2, "kernel at omega = pi/2 equals (1/2) log2((2P+N)/(P+N)) to 1e-12",
           max(errs) <= 1e-12, f"max err {max(errs):.2e}")


def test_03_kernel_derivative_at_right_endpoint():
    worst = 0.0
    for P, N in ((1.0, 1.0), (3.0, 1.0), (0.1, 1.0)):
        params = ChannelParams(P, N)
        theta0 = math.asin(0.5)
        step = 1e-6
        fd = (
            entropy_difference_bound(params, theta0, HALF_PI + step)
            - entropy_difference_bound(params, theta0, HALF_PI - step)
        ) / (2 * step)
        worst = max(worst, abs(fd - P / ((2 * P + N) * math.log(2))))
    report(3, "central finite difference at pi/2 matches P/((2P+N) ln 2) to 1e-4",
           worst <= 1e-4, f"max err {worst:.2e}")


def test_04_bound_ordering_on_grid():
    params = ChannelParams(1.0, 1.0)
    grid = np.linspace(0.1, 3.0, 60)
    cuts = [cutset_bound(params, float(c)) for c in grid]
    ubs = [capacity_upper_bound(params, float(c)) for c in grid]
    cfs = [compress_forward_rate(params, float(c)) for c in grid]
    ci = capacity_full_cooperation(params)
    thr = cutset_c0_threshold(params)
    ok = all(cf <= ub + 1e-6 and ub <= cs + 1e-6 for cf, ub, cs in zip(cfs, ubs, cuts))
    for series in (cuts, ubs, cfs):
        ok &= all(b >= a - 1e-9 for a, b in zip(series, series[1:]))
    ok &= all(cuts[i] == ci for i in range(len(grid)) if grid[i] >= thr)
    report(4, "cf <= upper bound <= cut-set on a 60-point grid; curves nondecreasing; "
              "cut-set exactly flat beyond its threshold", ok)


def test_05_cutset_saturation_point():
    val = cutset_c0_threshold(ChannelParams(1.0, 1.0))
    err = abs(val - (0.5 * math.log2(3.0) - 0.5))
    report(5, "cut-set saturation C0 equals (1/2) log2(3) - 1/2 to 1e-12",
           err <= 1e-12, f"err {err:.2e}")


def test_06_cap_area_exactness():
    ok = True
    worst = 0.0
    for m in (4, 17, 64, 257):
        for theta_deg in (10, 45, 89):
            spec = CapSpec(m, math.sqrt(m), deg(theta_deg))
            a = log_cap_area(spec).log2_value
            b = log_cap_area_quadrature(spec).log2_value
            rel = abs(a - b) / abs(a)
            worst = max(worst, rel)
            ok &= rel <= 1e-8
    for m in (4, 64, 257):
        hemi = log_cap_area(CapSpec(m, math.sqrt(m), HALF_PI)).log2_value
        full = log_cap_area(CapSpec(m, math.sqrt(m), math.pi)).log2_value
        sphere = log_sphere_area(m, math.sqrt(m)).log2_value
        ok &= abs(hemi - (sphere - 1.0)) <= 1e-12
        ok &= abs(full - sphere) <= 1e-12
    report(6, "cap area closed form vs quadrature <= 1e-8 relative; hemisphere and "
              "full sphere exact to 1e-12", ok, f"worst rel {worst:.2e}")


def test_07_cap_intersection_exponent_convergence():
    t0 = time.time()
    ok = True
    gaps = []
    m = 10_000
    for th1, th2 in ((70, 35), (60, 45)):
        v = log_cap_intersection(m, 1.0, deg(th1), deg(th2)).log2_value
        gap = abs(2.0 / m * v - cap_intersection_exponent(1.0, deg(th1), deg(th2)))
        gaps.append(gap)
        ok &= gap <= 0.05
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    report(7, "two-cap intersection normalized exponent within 0.05 at m = 10^4",
           ok, f"gaps {gaps[0]:.4f}/{gaps[1]:.4f}, {elapsed:.1f}s")


def test_08_ball_intersection_bound():
    lam = ball_overlap_lambda(BallPairSpec(1000, 1.0, 1.0, 1.0))
    res = log_ball_intersection(BallPairSpec(1000, 1.0, 1.0, 1.0))
    fitted_eps = max(0.0, (res.exact.log2_value - res.bound_log2) / 1000)
    ok = lam == 1.5 and fitted_eps <= 0.05
    report(8, "exact two-ball intersection sits below the lambda exponent bound "
              "(fitted eps <= 0.05 at m = 10^3); lambda(1,1,1) = 3/2 exactly",
           ok, f"fitted eps {fitted_eps:.4f}")


def test_09_subcap_fraction_calibration():
    m, R, n = 20, 1.0, 100_000
    outer, inner = deg(60), deg(45)
    pole = np.zeros(m)
    pole[0] = 1.0
    pts = sample_uniform_cap(m, R, pole, outer, trial_rng(2024, 0), size=n)
    ang = np.arccos(np.clip(pts @ pole, -1.0, 1.0))
    frac = float(np.mean(ang <= inner))
    expected = 2.0 ** (
        log_cap_area(CapSpec(m, R, inner)).log2_value
        - log_cap_area(CapSpec(m, R, outer)).log2_value
    )
    sigma = math.sqrt(expected * (1.0 - expected) / n)
    ok = abs(frac - expected) <= 3 * sigma
    report(9, "cap sampler sub-cap fraction matches exact area ratio within 3 sigma",
           ok, f"{frac:.5f} vs {expected:.5f} ({abs(frac-expected)/sigma:.2f} sigma)")


def test_10_random_cap_intersection_property():
    t0 = time.time()
    cfg = McConfig(seed=7, samples_per_estimate=10_000, trials=200, epsilon=0.1)
    ok = True
    fractions = {}
    m = 300
    sets = {
        "cap": SphereSet.cap(m, deg(70)),
        "band": SphereSet.band_with_effective_angle(m, deg(70)),
        "twocaps": SphereSet.two_caps_with_effective_angle(m, deg(70)),
    }
    for name, sphere_set in sets.items():
        rep = verify_isoperimetry_sphere(sphere_set, deg(35), cfg)
        fractions[name] = rep.estimate
        ok &= rep.estimate >= 0.9
    spec = ShellSpec(200, 1.0, 0.1)
    for name, shell_set in {
        "shell": ShellSet(spec, SphereSet.cap(200, deg(70))),
        "shell-inner": ShellSet(spec, SphereSet.cap(200, deg(70)), 0.0, 0.1),
    }.items():
        rep = verify_isoperimetry_shell(shell_set, deg(35), cfg)
        fractions[name] = rep.estimate
        ok &= rep.estimate >= 0.9
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    detail = ", ".join(f"{k}={v:.3f}" for k, v in fractions.items())
    report(10, "random-cap intersection success fraction >= 0.9 for cap/band/two-cap "
               "sets at m=300 and on the shell at m=200", ok,
           f"{detail}, {elapsed:.0f}s")


def test_11_concentration_tail():
    cfg = McConfig(seed=7, samples_per_estimate=100_000, trials=1, epsilon=0.1)
    rep = verify_concentration(1000, 0.1, cfg)
    one_sided = rep.details["one_sided_estimate"]
    ok = rep.estimate <= 1.0 / (1000 * 0.01) and one_sided <= 1e-3
    report(11, "empirical equator tail below the variance bound and at the "
               "one-sided Gaussian scale 1e-3",
           ok, f"two-sided {rep.estimate:.2e}, one-sided {one_sided:.2e}")


@pytest.mark.parametrize(
    "args",
    [
        ["mc", "concentration", "--m", "200", "--mu", "0.2", "--samples", "3000",
         "--seed", "7"],
        ["mc", "blowup", "--m", "200", "--set", "cap", "--theta", "70", "--deg",
         "--samples", "3000", "--seed", "7"],
        ["mc", "isoperimetry-sphere", "--m", "100", "--set", "twocaps", "--theta",
         "70", "--omega", "35", "--deg", "--trials", "25", "--samples", "1500",
         "--seed", "7"],
        ["mc", "isoperimetry-shell", "--m", "80", "--delta", "0.1", "--set", "cap",
         "--theta", "70", "--omega", "35", "--deg", "--trials", "25", "--samples",
         "1500", "--seed", "7"],
    ],
    ids=["concentration", "blowup", "isoperimetry-sphere", "isoperimetry-shell"],
)
def test_12_mc_commands_byte_identical(args):
    cmd = [sys.executable, "-m", "relaycap", *args]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (
        first.stdout == second.stdout
        and first.returncode == second.returncode
        and len(first.stdout) > 0
    )
    report(12, f"repeated `{args[1]}` run is byte-identical", ok,
           f"exit {first.returncode}")
