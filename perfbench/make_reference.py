"""Regenerate `reference.json`: the request pool and its reference outputs.

    python3 perfbench/make_reference.py

The pool is drawn once from a fixed seed.  It is organised in strata; a
workload seed later picks one candidate per stratum (see workloads.py), so
every seed runs the same mix of C0 ranges, dimensions and subcommands while
the individual inputs differ.  Each candidate's exit code and rows are
recorded from the code as it stands, which makes them the reference later
commits are checked against.  Requests that fail at that commit are kept in
the pool with their exit code: they are known failures, and a later fix is
credited through the failure count rather than hidden.

Only `curves` and `geom` have reference outputs; `mc` requests are generated
from the workload seed alone and checked for internal consistency.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path

from client import execute, load_cli

POOL_SEED = 20170107
CANDIDATES = {"curves": 4, "geom": 2}
BOUND_POINTS, GAPS = 80, 40
OUT = Path(__file__).resolve().parent / "reference.json"

HALF_PI = math.pi / 2.0
DEG = math.pi / 180.0


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _stratum_log(rng: random.Random, i: int, n: int, lo: float, hi: float) -> float:
    """Log-uniform draw inside the i-th of n equal log-width strata of [lo, hi]."""
    a, b = math.log10(lo), math.log10(hi)
    return 10.0 ** (a + (b - a) * (i + rng.random()) / n)


def _m(rng, i, n) -> str:
    return str(round(_stratum_log(rng, i, n, 4, 1e6)))


def _general_pair(rng) -> tuple[float, float]:
    """Two cap angles in (0, pi/2] with theta1 + theta2 > pi/2 by at least 1 degree."""
    t1 = rng.uniform(5 * DEG, HALF_PI)
    t2 = rng.uniform(HALF_PI - t1 + 1 * DEG, HALF_PI)
    return t1, t2


def curves_strata(rng: random.Random):
    """The default sweep, 80 single-point bound strata and 40 gap strata.

    The cheap requests are the certificates (~25-45 ms below C0 ~ 100) and
    the bound points that fail fast above C0 ~ 31 (~4 ms).  With 60/60 or
    70/50 they are about half the list, so the median request latency sits
    on the lower edge of the bound points' cluster (~60-85 ms) and moves
    with the seed's draws; 80/40 puts it well inside that cluster.
    """
    k = CANDIDATES["curves"]
    yield [("sweep", ["bounds-sweep"])]
    for i in range(BOUND_POINTS):
        yield [("bound", ["bounds-sweep",
                          "--snr", repr(_log_uniform(rng, 1e-4, 1e4)),
                          "--c0-min", repr(_stratum_log(rng, i, BOUND_POINTS, 0.01, 100.0)),
                          "--c0-steps", "1"]) for _ in range(k)]
    for i in range(GAPS):
        yield [("gap", ["gap",
                        "--snr", repr(_log_uniform(rng, 1e-4, 1e4)),
                        "--c0", repr(_stratum_log(rng, i, GAPS, 0.01, 1000.0))])
               for _ in range(k)]


def geom_strata(rng: random.Random):
    """About 1000 geometry strata across all five subcommands.

    m is log-uniform in [4, 1e6], stratified within each group.  The groups
    include the acceptance pairs at m = 1e4, hemisphere inputs (an angle of
    exactly pi/2) and near-degenerate inputs with theta1 + theta2 =
    pi/2 + 1e-7.  Angles are passed in radians with all 17 digits.
    """
    k = CANDIDATES["geom"]

    def group(n, make):
        for i in range(n):
            yield [("geom", ["geom", *make(i, n)]) for _ in range(k)]

    def cap_area(i, n):
        return ["cap-area", "--m", _m(rng, i, n), "--theta",
                repr(rng.uniform(1 * DEG, 179 * DEG))]

    def hemisphere_area(i, n):
        return ["cap-area", "--m", _m(rng, i, n), "--theta", repr(HALF_PI)]

    def intersect(i, n):
        t1, t2 = _general_pair(rng)
        return ["cap-intersect", "--m", _m(rng, i, n), "--theta", repr(t1), "--theta2", repr(t2)]

    def hemisphere_intersect(i, n):
        t2 = HALF_PI if i % 5 == 0 else rng.uniform(1 * DEG, HALF_PI)
        return ["cap-intersect", "--m", _m(rng, i, n), "--theta", repr(HALF_PI),
                "--theta2", repr(t2)]

    def degenerate_intersect(i, n):
        t1 = rng.uniform(10 * DEG, 80 * DEG)
        return ["cap-intersect", "--m", _m(rng, i, n), "--theta", repr(t1),
                "--theta2", repr(HALF_PI - t1 + 1e-7)]

    def shell_cap(i, n):
        return ["shell-cap", "--m", _m(rng, i, n), "--delta", repr(rng.uniform(0.01, 0.5)),
                "--theta", repr(rng.uniform(1 * DEG, HALF_PI))]

    def shell_cap_omega(i, n):
        t1, t2 = _general_pair(rng)
        return ["shell-cap", "--m", _m(rng, i, n), "--delta", repr(rng.uniform(0.01, 0.5)),
                "--theta", repr(t1), "--omega", repr(t2)]

    def degenerate_shell_cap(i, n):
        t1 = rng.uniform(10 * DEG, 80 * DEG)
        return ["shell-cap", "--m", _m(rng, i, n), "--theta", repr(t1),
                "--omega", repr(HALF_PI - t1 + 1e-7)]

    def ball(i, n):
        r1, r2 = _log_uniform(rng, 0.25, 4.0), _log_uniform(rng, 0.25, 4.0)
        lo, hi = (math.sqrt(r1) - math.sqrt(r2)) ** 2, (math.sqrt(r1) + math.sqrt(r2)) ** 2
        d = lo + (hi - lo) * rng.uniform(0.05, 0.95)
        return ["ball-intersect", "--m", _m(rng, i, n), "--r1", repr(r1), "--r2", repr(r2),
                "--d", repr(d)]

    def exponent(i, n):
        t1, t2 = _general_pair(rng)
        return ["exponent", "--theta", repr(t1), "--omega", repr(t2)]

    for theta2 in ("35", "45"):
        theta = "70" if theta2 == "35" else "60"
        yield [("geom", ["geom", "cap-intersect", "--m", "10000", "--theta", theta,
                         "--theta2", theta2, "--deg"])]
    yield from group(195, cap_area)
    yield from group(5, hemisphere_area)
    yield from group(268, intersect)
    yield from group(10, hemisphere_intersect)
    yield from group(20, degenerate_intersect)
    yield from group(100, shell_cap)
    yield from group(90, shell_cap_omega)
    yield from group(10, degenerate_shell_cap)
    yield from group(150, ball)
    yield from group(150, exponent)


def record(cli, kind: str, argv: list[str]) -> dict:
    out = execute(cli, argv)
    rows = json.loads(out.stdout)["rows"] if out.rc == 0 else None
    return {"kind": kind, "argv": argv, "rc": out.rc, "rows": rows}


def main() -> int:
    cli = load_cli()
    rng = random.Random(POOL_SEED)
    pool = {}
    for name, strata in (("curves", curves_strata(rng)), ("geom", geom_strata(rng))):
        t0 = time.perf_counter()
        pool[name] = [[record(cli, kind, argv) for kind, argv in stratum] for stratum in strata]
        failed = sum(e["rc"] != 0 for s in pool[name] for e in s)
        print(f"{name}: {len(pool[name])} strata, {failed} candidates exit nonzero, "
              f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    with open(OUT, "w") as fh:
        fh.write("{\n")
        for n, (name, strata) in enumerate(pool.items()):
            fh.write(f'"{name}": [\n')
            fh.write(",\n".join(json.dumps(s, separators=(",", ":")) for s in strata))
            fh.write("\n]" + (",\n" if n < len(pool) - 1 else "\n"))
        fh.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
