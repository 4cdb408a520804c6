"""relaycap benchmark: seeded CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload {curves,geom,mc,all} --seed N \
        --seconds S --trace {0,1}

One closed-loop client in one process sends the workload's requests through
`relaycap.cli.main(argv)`, each after the previous one completed, and checks
every output record (checks.py).  It cycles through the request list for
`--seconds` (at least one round; two for `mc`, so its seeded stdout can be
compared across runs); later rounds go cheapest request first, and a
request runs again only while its last latency fits in the time left.  Each
request's latency is the median of its runs.

`--trace 0` prints the end-to-end metrics:
  setup_s      median of 5 fresh interpreters importing relaycap.cli
  wall_s       one pass over the request list: the sum of the per-request
               median latencies
  req_p50_ms   median of the per-request latencies (one per request)
  req_p90_ms   their 90th percentile (>= 100 requests per workload)
  ok_frac      1 - failed_frac, the share of requests that passed their check
  peak_rss_mb  peak resident memory of this process
`--trace 1` runs each request once untraced and once traced and prints the
per-layer metrics (tracing.py); the spans go to perfbench/out/.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `attempted` counts the distinct
requests of the list and `failed` those that, in any run, exited
unexpectedly or failed their check; `correct` is false only when a
request fails that passed at the reference commit, or an `mc` record is
inconsistent.  Requests that already failed there (known failures, kept on
purpose) count in `failed` without clearing `correct`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from client import ROOT, SRC, MissingProgram, execute, load_cli
from checks import check_output
from tracing import Tracer, per_layer_metrics, percentile
from workloads import WARMUP, WORKLOADS, requests

SETUP_REPS = 5
MIN_ROUNDS = {"curves": 1, "geom": 1, "mc": 2}
TRACE_DIR = Path(__file__).resolve().parent / "out"
LAYER_MODULES = ("bounds", "geometry", "montecarlo")


def measure_setup(reps: int) -> float:
    """Median seconds from spawning a fresh interpreter until relaycap.cli is imported."""
    cmd = [sys.executable, "-c", "import relaycap.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # fills the bytecode cache
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Tally:
    """Request outcomes of one invocation, per distinct request.

    A request counts once in `attempted`, and once in `failed` if any of its
    runs exited unexpectedly or failed its check, so both are fixed by the
    seed however many times the time budget lets a request repeat.
    """

    reqs: list
    problems: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    latencies: list = field(init=False)

    def __post_init__(self) -> None:
        self.latencies = [[] for _ in self.reqs]

    @property
    def attempted(self) -> int:
        return len(self.reqs)

    @property
    def failed(self) -> int:
        return len(self.problems)

    @property
    def known(self) -> list:
        return [i for i, (_, known) in self.problems.items() if known]

    @property
    def regressions(self) -> list:
        return [problem for problem, known in self.problems.values() if not known]

    def add(self, i: int, out) -> None:
        req = self.reqs[i]
        self.latencies[i].append(out.seconds)
        problem = check_output(req.kind, out.rc, out.stdout, req.ref_rows)
        known = req.known_failure
        if req.kind == "mc":
            digest = hashlib.sha256(out.stdout.encode()).hexdigest()
            if self.digests.setdefault(i, digest) != digest:
                problem, known = "stdout differs from an earlier run of the same request", False
        if problem is None or (i in self.problems and not self.problems[i][1]):
            return
        said = out.stderr.strip().splitlines()
        self.problems[i] = (f"{' '.join(req.argv)}: {problem}"
                            + (f" ({said[-1][:160]})" if said else ""), known)

    def request_latencies(self) -> list:
        """Each request's median latency over its runs, in request order."""
        return [statistics.median(runs) for runs in self.latencies if runs]


def measure(cli, reqs, seconds: float, min_rounds: int) -> tuple[Tally, int]:
    """Cycle through the request list until `seconds` are used up.

    The first `min_rounds` rounds run every request in list order.  Later
    rounds go from the cheapest request (by its last latency) up, and run a
    request only while that latency still fits in the time left, so a long
    request such as the default sweep does not crowd out the repeats of the
    short ones, and the run ends on time.
    """
    tally = Tally(reqs)
    start, rounds = time.perf_counter(), 0
    while True:
        order = range(len(reqs))
        if rounds >= min_rounds:
            order = sorted(order, key=lambda i: tally.latencies[i][-1])
        ran = False
        gc.collect()
        for i in order:
            if rounds >= min_rounds:
                left = seconds - (time.perf_counter() - start)
                if tally.latencies[i][-1] > left:
                    continue
            tally.add(i, execute(cli, reqs[i].argv))
            ran = True
        if not ran:
            return tally, rounds
        rounds += 1


def _flag(argv, name: str, default: int) -> int:
    return int(argv[argv.index(name) + 1]) if name in argv else default


def estimator_samples(reqs) -> int:
    """Importance samples the isoperimetry requests ask for (trials x samples)."""
    return sum(_flag(r.argv, "--trials", 200) * _flag(r.argv, "--samples", 10_000)
               for r in reqs if r.argv[:2] in (("mc", "isoperimetry-sphere"),
                                                ("mc", "isoperimetry-shell")))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, reqs, seconds: int) -> tuple[dict, Tally]:
    cli = load_cli()
    setup_s = measure_setup(SETUP_REPS)
    for argv in WARMUP[workload]:
        execute(cli, argv)
    tally, rounds = measure(cli, reqs, seconds, MIN_ROUNDS[workload])
    lat = tally.request_latencies()
    runs = [len(r) for r in tally.latencies]
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(math.fsum(lat), "s"),
        "req_p50_ms": _metric(percentile(lat, 50) * 1e3, "ms"),
        "req_p90_ms": _metric(percentile(lat, 90) * 1e3, "ms"),
        "ok_frac": _metric(1.0 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    print(f"# {workload}: {len(reqs)} requests in {rounds} rounds, {min(runs)}-{max(runs)} "
          f"runs each ({sum(runs)} latency samples); latencies are per-request medians; "
          f"setup_s over {SETUP_REPS} interpreters")
    return metrics, tally


def per_layer(workload: str, reqs, trace_path: Path) -> tuple[dict, Tally]:
    """Run every request once untraced and once traced, back to back.

    Adjacent runs see the same machine load, so the summed latencies give a
    steadier tracing overhead than two separate passes; the order within a
    pair alternates so neither side always runs on warmer caches.
    """
    cli = load_cli()
    modules = {"cli": cli}
    for name in LAYER_MODULES:
        modules[name] = importlib.import_module(f"relaycap.{name}")
    for argv in WARMUP[workload]:
        execute(cli, argv)
    tally, tracer = Tally(reqs), Tracer(modules)
    walls = {False: 0.0, True: 0.0}
    traced_outcomes = []
    gc.collect()
    for i, req in enumerate(reqs):
        tracer.request = i
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer:
                    out = execute(cli, req.argv)
                traced_outcomes.append(out)
            else:
                out = execute(cli, req.argv)
            walls[traced] += out.seconds
            tally.add(i, out)
    trace_path.parent.mkdir(exist_ok=True)
    tracer.dump(trace_path)
    stdout_bytes = sum(len(o.stdout.encode()) for o in traced_outcomes)
    layers = per_layer_metrics(tracer, estimator_samples(reqs), stdout_bytes,
                               walls[True], walls[False])
    if tracer.absent:
        print(f"# absent from the program, reported as 0: {', '.join(tracer.absent)}")
    print(f"# {workload}: {len(reqs)} requests, untraced {walls[False]:.3f} s, "
          f"traced {walls[True]:.3f} s; spans in {trace_path}")
    return {k: _metric(v, u) for k, (v, u) in layers.items()}, tally


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    reqs = requests(workload, seed)
    if trace:
        metrics, tally = per_layer(workload, reqs, TRACE_DIR / f"trace-{workload}-{seed}.json")
    else:
        metrics, tally = end_to_end(workload, reqs, seconds)
    for name, m in metrics.items():
        print(f"{workload:7s} {name:50s} {m['value']:>16.6g} {m['unit']}")
    print(f"# {tally.failed} of {tally.attempted} requests failed "
          f"(failed_frac {tally.failed / tally.attempted:.4f}); "
          f"{len(tally.known)} distinct known failures, {len(tally.regressions)} regressions")
    for problem in tally.regressions[:10]:
        print(f"# regression: {problem}", file=sys.stderr)
    return {"correct": not tally.regressions, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_all(seed: int, seconds: int, trace: bool) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        one = json.loads(lines[-1])
        result["correct"] &= one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        result["metrics"].update({f"{workload}.{k}": v for k, v in one["metrics"].items()})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=34)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        load_cli()
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
