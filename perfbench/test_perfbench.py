"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import copy
import hashlib
import importlib
import json
import shutil
import subprocess
import sys
import types

import pytest

import run
import workloads
from checks import check_output, check_rows
from client import ROOT, execute, load_cli
from tracing import Tracer, per_layer_metrics
from workloads import Request, requests

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return load_cli()


@pytest.fixture(scope="module")
def pool():
    return workloads.load_pool()


def tiny(workload: str, seed: int = 1) -> list[Request]:
    """A few cheap requests of the workload, as the benchmark would send them."""
    if workload == "mc":
        return [Request("mc", tuple(a) + ("--seed", str(i)))
                for i, a in enumerate(workloads.WARMUP["mc"])]
    reqs = requests(workload, seed)
    if workload == "curves":
        cheap = [r for r in reqs if r.kind == "bound" and float(r.argv[4]) < 1]
        return cheap[:2] + [r for r in reqs if r.kind == "gap" and float(r.argv[4]) < 1][:2]
    return reqs[:6]


def _assert_metrics(emitted: dict, declared: list) -> None:
    assert list(emitted) == [m["name"] for m in declared]
    for m in declared:
        value = emitted[m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    metrics, tally = run.end_to_end(workload, tiny(workload), seconds=1)
    _assert_metrics(metrics, BENCHMARK["end_to_end"])
    assert tally.attempted == len(tiny(workload))
    assert min(len(runs) for runs in tally.latencies) >= run.MIN_ROUNDS[workload]
    assert not tally.regressions
    for name in ("setup_s", "wall_s", "req_p50_ms", "req_p90_ms", "peak_rss_mb"):
        assert metrics[name]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_metrics_emitted_with_units(workload, tmp_path):
    metrics, tally = run.per_layer(workload, tiny(workload), tmp_path / "trace.json")
    _assert_metrics(metrics, BENCHMARK["per_layer"])
    assert metrics["cli.main.calls"]["value"] == len(tiny(workload))
    spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
    assert {s[4] for s in spans} == set(range(len(tiny(workload))))
    layer = {"curves": "bounds.capacity_upper_bound.calls",
             "geom": "geometry.log2_reg_inc_beta.calls",
             "mc": "montecarlo.trial_rng.calls"}[workload]
    assert metrics[layer]["value"] > 0


def test_wrappers_are_removed_after_tracing(cli):
    modules = {"cli": cli, **{n: importlib.import_module(f"relaycap.{n}")
                              for n in run.LAYER_MODULES}}
    before = {(o, a): modules[o].__dict__[a] for o, a, _ in [("cli", "main", 0),
                                                             ("bounds", "sweep", 0)]}
    band = modules["montecarlo"].SphereSet.__dict__["band_with_effective_angle"]
    with Tracer(modules):
        assert cli.main is not before["cli", "main"]
    for (owner, attr), fn in before.items():
        assert modules[owner].__dict__[attr] is fn
    assert modules["montecarlo"].SphereSet.__dict__["band_with_effective_angle"] is band


def test_self_time_leaf_aggregation_and_absent_functions():
    fake = types.ModuleType("fake")
    fake.inner = lambda: sum(range(1000))
    fake.leaf = lambda: fake.inner()
    fake.sweep = lambda: [fake.leaf() for _ in range(50)]
    fake.main = lambda argv: fake.sweep() and 0
    tracer = Tracer({"cli": fake, "bounds": fake},
                    spans=[("cli", "main", "cli.main"), ("bounds", "sweep", "bounds.sweep"),
                           ("bounds", "gone", "bounds.gone")],
                    leaves=[("bounds", "leaf", "bounds.minimize_entropy_difference"),
                            ("bounds", "inner", "bounds.inner")])
    with tracer:
        fake.main([])
    assert tracer.absent == ["bounds.gone"]
    main, sweep = tracer.spans
    assert sweep.parent == 0 and main.parent == -1
    calls, total, covered = sweep.leaves["bounds.minimize_entropy_difference"]
    assert calls == 50 and covered == total
    nested = sweep.leaves["bounds.inner"]
    assert nested[0] == 50 and nested[2] == 0.0  # counted, not double-covered
    own = tracer.self_seconds()
    assert own[0] == pytest.approx(main.seconds - sweep.seconds)
    assert own[1] == pytest.approx(sweep.seconds - total)
    metrics = per_layer_metrics(tracer, 0, 0, 1.0, 1.0)
    assert metrics["bounds.minimize_entropy_difference.calls"] == (50, "count")
    assert metrics["geometry.log_cap_intersection.calls"] == (0, "count")


def test_absent_layer_function_reports_zero_not_crash(cli, monkeypatch):
    from relaycap import geometry

    monkeypatch.delattr(geometry, "reg_inc_beta")
    modules = {"cli": cli, "bounds": None, "geometry": geometry, "montecarlo": None}
    modules = {k: v for k, v in modules.items() if v is not None}
    with Tracer(modules) as tracer:
        pass
    assert "geometry.reg_inc_beta" in tracer.absent
    assert "bounds.sweep" in tracer.absent
    assert per_layer_metrics(tracer, 0, 0, 1.0, 1.0)["geometry.reg_inc_beta.calls"][0] == 0


def _first(pool, kind, accept=lambda row: True):
    """The first reference entry of `kind` that passed its check at the reference commit."""
    for stratum in pool["curves" if kind in ("bound", "gap") else "geom"]:
        for e in stratum:
            if (e["kind"] == kind and check_rows(kind, e["rc"], e["rows"]) is None
                    and accept(e["rows"][0])):
                return e
    raise LookupError(kind)


def test_bound_validator_flags_corruption(pool):
    entry = _first(pool, "bound", lambda row: row["new_bound"] - row["cf_rate"] > 1e-3)
    rows = entry["rows"]
    assert check_rows("bound", 0, rows, rows) is None
    bad = copy.deepcopy(rows)
    bad[0]["new_bound"] = bad[0]["cutset"] * 1.01 + 1e-3
    assert "ordering" in check_rows("bound", 0, bad, rows)
    drift = copy.deepcopy(rows)
    drift[0]["new_bound"] -= 1e-6
    assert "reference" in check_rows("bound", 0, drift, rows)
    equal = copy.deepcopy(rows)
    equal[0]["new_bound"] = equal[0]["c_infinity"]
    assert check_rows("bound", 0, equal, rows) is not None
    assert check_rows("bound", 3, None, rows) == "exit 3"


def test_gap_and_geom_validators_flag_corruption(pool):
    gap = _first(pool, "gap")
    assert check_rows("gap", 0, gap["rows"], gap["rows"]) is None
    bad = copy.deepcopy(gap["rows"])
    bad[0]["delta1"] *= 1 + 1e-6
    assert "delta1" in check_rows("gap", 0, bad, gap["rows"])
    bad = copy.deepcopy(gap["rows"])
    bad[0]["certified_bound"] = bad[0]["c_infinity"]
    assert check_rows("gap", 0, bad, gap["rows"]) is not None
    geom = _first(pool, "geom")
    assert check_rows("geom", 0, geom["rows"], geom["rows"]) is None
    bad = copy.deepcopy(geom["rows"])
    key = list(bad[0])[-1]
    bad[0][key] = bad[0][key] * (1 + 1e-6) + 1e-6
    assert key in check_rows("geom", 0, bad, geom["rows"])
    bad[0][key] = float("inf")
    assert "finite" in check_rows("geom", 0, bad, geom["rows"])
    assert "malformed" in check_output("geom", 0, "not json", geom["rows"])


def test_mc_validator_flags_flipped_verdict_and_changed_bytes(cli):
    req = tiny("mc")[0]
    out = execute(cli, req.argv)
    assert check_output("mc", out.rc, out.stdout) is None
    doc = json.loads(out.stdout)
    doc["rows"][0]["verdict"] = "inconclusive"
    assert "does not match" in check_output("mc", out.rc, json.dumps(doc))
    doc["rows"][0]["verdict"] = "fail"
    assert check_output("mc", 4, json.dumps(doc)) == "verdict fail"
    tally = run.Tally([req])
    changed = type(out)(out.rc, out.stdout.replace('"seed"', '"seed" '), out.stderr, out.seconds)
    tally.add(0, out)
    tally.add(0, changed)
    assert tally.attempted == 1 and tally.failed == 1 and tally.regressions


def test_known_failures_are_kept_and_counted(pool):
    known = [e for name in ("curves", "geom") for s in pool[name] for e in s
             if workloads._from_entry(e).known_failure]
    kinds = {(e["kind"], e["rc"]) for e in known}
    assert ("bound", 3) in kinds and ("gap", 2) in kinds and ("geom", 3) in kinds
    assert any(e["rc"] == 0 and e["kind"] == "bound" for e in known)  # new_bound == C(inf)
    req = workloads._from_entry(next(e for e in known if e["rc"] == 3))
    tally = run.Tally([req])
    for _ in range(3):
        tally.add(0, execute(load_cli(), req.argv))
    assert tally.attempted == 1 and tally.failed == 1 and not tally.regressions


def test_rounds_repeat_requests_but_count_each_once(cli):
    reqs = tiny("geom")
    tally, rounds = run.measure(cli, reqs, seconds=0, min_rounds=2)
    assert rounds == 2 and [len(r) for r in tally.latencies] == [2] * len(reqs)
    tally, rounds = run.measure(cli, reqs, seconds=1, min_rounds=1)
    assert rounds > 1 and tally.attempted == len(reqs) and tally.failed == 0
    assert len(tally.request_latencies()) == len(reqs)


def test_same_seed_same_requests_and_stdout(cli):
    for workload in workloads.WORKLOADS:
        assert requests(workload, 5) == requests(workload, 5)
        assert [r.argv for r in requests(workload, 5)] != [r.argv for r in requests(workload, 6)]
    mc = sorted(requests("mc", 5), key=lambda r: run._flag(r.argv, "--samples", 0)
                * run._flag(r.argv, "--trials", 1) * run._flag(r.argv, "--m", 1))[:3]
    for req in mc:
        digests = {hashlib.sha256(execute(cli, req.argv).stdout.encode()).digest()
                   for _ in range(2)}
        assert len(digests) == 1


def test_mc_work_is_the_same_for_every_seed():
    def sizes(seed):
        return sorted((*r.argv[:2], *(r.argv[i + 1] for i, a in enumerate(r.argv)
                                      if a in ("--m", "--samples", "--trials", "--set")))
                      for r in requests("mc", seed))
    assert sizes(1) == sizes(2) == sizes(9)


def test_workload_sizes_and_argv_constraints():
    curves = requests("curves", 3)
    assert sum(r.kind == "sweep" for r in curves) == 1
    assert sum(r.kind == "bound" for r in curves) == 80
    assert sum(r.kind == "gap" for r in curves) == 40
    assert len(requests("geom", 3)) == 1000
    mc = requests("mc", 3)
    assert len(mc) == 100
    assert {r.argv[1] for r in mc} == {"concentration", "blowup", "isoperimetry-sphere",
                                       "isoperimetry-shell"}
    for r in curves + mc:
        assert "--radial-law" not in r.argv


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "geom",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
