"""Seeded request lists for the `curves`, `geom` and `mc` workloads.

The program only ever sees the generated argv lists.  `curves` and `geom`
pick one candidate per stratum of the reference pool (see
make_reference.py), so their outputs can be compared with reference values;
`mc` requests are drawn from the seed directly.  The same seed always yields
the same list, in the same order.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from checks import check_rows

WORKLOADS = ("curves", "geom", "mc")
REFERENCE = Path(__file__).resolve().parent / "reference.json"

MC_SETS = ("cap", "band", "twocaps")
MC_PER_COMMAND = {"concentration": 23, "blowup": 23, "isoperimetry-sphere": 24,
                  "isoperimetry-shell": 24}
# Largest drawn work per request: m * samples for the full-vector samplers,
# trials * samples for the intersection estimator.  They keep one round at
# 8-12 s on a 2-core machine, so a run fits two rounds and most of a third;
# only the acceptance-size requests below go beyond them.
MC_VECTOR_WORK = 750_000
MC_ESTIMATOR_WORK = 200_000

_ISO = ["--theta", "70", "--omega", "35", "--deg"]
MC_ACCEPTANCE = [
    ["mc", "concentration", "--m", "1000", "--mu", "0.1", "--samples", "100000"],
    *(["mc", "isoperimetry-sphere", "--m", "300", "--set", s, *_ISO,
       "--trials", "200", "--samples", "10000"] for s in MC_SETS),
    ["mc", "isoperimetry-shell", "--m", "200", "--delta", "0.1", "--set", "cap", *_ISO,
     "--trials", "200", "--samples", "10000"],
    ["mc", "isoperimetry-shell", "--m", "200", "--delta", "0.1", "--set", "cap", *_ISO,
     "--trials", "200", "--samples", "10000", "--extrude-lo", "0", "--extrude-hi", "0.1"],
]

# Run once before timing so lazy imports and first-call set-up are paid.
WARMUP = {
    "curves": [["gap", "--snr", "1", "--c0", "1"],
               ["bounds-sweep", "--snr", "1", "--c0-min", "1", "--c0-steps", "1"]],
    "geom": [["geom", "cap-area", "--m", "100", "--theta", "1"],
             ["geom", "cap-intersect", "--m", "100", "--theta", "1.2", "--theta2", "0.7"],
             ["geom", "shell-cap", "--m", "100", "--theta", "1.2", "--omega", "0.7"],
             ["geom", "ball-intersect", "--m", "100", "--r1", "1", "--r2", "1", "--d", "1"],
             ["geom", "exponent", "--theta", "1.2", "--omega", "0.7"]],
    "mc": [["mc", "concentration", "--m", "100", "--mu", "0.3", "--samples", "1000"],
           ["mc", "blowup", "--m", "100", "--set", "band", "--theta", "1.2",
            "--epsilon", "0.3", "--samples", "1000"],
           ["mc", "isoperimetry-sphere", "--m", "100", "--set", "twocaps", *_ISO,
            "--trials", "5", "--samples", "500"],
           ["mc", "isoperimetry-shell", "--m", "100", "--set", "band", *_ISO,
            "--trials", "5", "--samples", "500"]],
}


@dataclass(frozen=True)
class Request:
    """One CLI request and what its output is checked against.

    `known_failure` marks a request whose reference output already failed
    its check; failing again counts as a failure but not as a regression.
    """

    kind: str
    argv: tuple[str, ...]
    ref_rows: list | None = None
    known_failure: bool = False


def load_pool(path: Path = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _from_entry(entry: dict) -> Request:
    known = check_rows(entry["kind"], entry["rc"], entry["rows"]) is not None
    return Request(entry["kind"], tuple(entry["argv"]), entry["rows"], known)


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return 10.0 ** (math.log10(lo) + (math.log10(hi) - math.log10(lo)) * u)


def _grid(n: int) -> list[float]:
    """The midpoints of n equal strata of [0, 1)."""
    return [(c + 0.5) / n for c in range(n)]


def mc_requests(rng: random.Random) -> list[Request]:
    """The acceptance-size requests plus 94 drawn ones across all four commands.

    m is log-uniform in [50, 1000], samples in [1e3, 1e5] and trials in
    [20, 200], on a fixed grid of stratum midpoints, and the sets take turns
    in a fixed order: every seed asks for the same amount of work, so a
    seed's latency percentiles differ from another's only by the machine.
    Samples are paired with m and trials in opposite rank order, so the work
    of a request (m x samples, trials x samples) varies little.  The seed
    draws the tail levels, angles, `--seed` values and the order.  Tail
    levels are set relative to the dimension (mu = c / sqrt(m),
    epsilon = c / sqrt(m)) so the verified statements hold with margin at
    every m; the cap set enters the intersection experiments from m = 200,
    below which its success fraction sits near the 0.9 threshold.
    """
    argvs = [list(a) for a in MC_ACCEPTANCE]
    for command, n in MC_PER_COMMAND.items():
        ms = [round(_log_uniform(50, 1000, u)) for u in _grid(n)]
        samples = [_log_uniform(1e3, 1e5, u) for u in reversed(_grid(n))]
        trials = [round(_log_uniform(20, 200, u)) for u in _grid(n)]
        for i, (m, s, t) in enumerate(zip(ms, samples, trials)):
            if command == "concentration":
                s = min(s, MC_VECTOR_WORK / m)
                argv = ["mc", command, "--m", str(m),
                        "--mu", repr(rng.uniform(1.5, 3.0) / math.sqrt(m))]
            elif command == "blowup":
                s = min(s, MC_VECTOR_WORK / m)
                argv = ["mc", command, "--m", str(m), "--set", MC_SETS[i % 3],
                        "--theta", repr(math.radians(rng.uniform(60.0, 80.0))),
                        "--epsilon", repr(rng.uniform(2.5, 3.5) / math.sqrt(m))]
            else:
                s = min(s, MC_ESTIMATOR_WORK / t)
                sets = MC_SETS if m >= 200 else MC_SETS[1:]
                argv = ["mc", command, "--m", str(m), "--set", sets[i % len(sets)], *_ISO,
                        "--trials", str(t)]
                if command == "isoperimetry-shell":
                    argv += ["--delta", "0.1", "--extrude-hi", ("1", "0.1")[i % 2]]
            argvs.append(argv + ["--samples", str(round(s))])
    return [Request("mc", tuple(a + ["--seed", str(rng.randrange(2**31))])) for a in argvs]


def requests(workload: str, seed: int, pool: dict | None = None) -> list[Request]:
    """The request list of `workload` for `seed`, in execution order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mc":
        reqs = mc_requests(rng)
    else:
        pool = load_pool() if pool is None else pool
        reqs = [_from_entry(rng.choice(stratum)) for stratum in pool[workload]]
    rng.shuffle(reqs)
    return reqs
