"""Per-layer tracing by wrapping module attributes from outside the program.

`cli` reaches `bounds.sweep`, `geometry.log_cap_intersection` and
`montecarlo.verify_*` through module attributes, and `bounds` and
`geometry` call their own hot functions through module globals, so
replacing those attributes catches every call without touching `src/`.

A *span* is recorded per call of a layer-boundary function: name, start,
end, parent span, request id, and whether it raised.  Hot leaves (~100k
`minimize_entropy_difference` calls per `curves` pass, ~1M
`log2_reg_inc_beta` calls per `geom` pass) are not spans: each keeps a
call count and summed time on its parent span.  A leaf called inside
another leaf (`reg_inc_beta` inside `log2_reg_inc_beta`) is counted but
does not add to its parent's child coverage a second time.  A span's self
time is its duration minus the time covered by its child spans and leaves.

A function named here that the program no longer has is reported as
absent: its metrics read 0 and the run goes on.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field

SPANS = [
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
    ("bounds", "sweep", "bounds.sweep"),
    ("bounds", "capacity_upper_bound", "bounds.capacity_upper_bound"),
    ("bounds", "gap_certificate", "bounds.gap_certificate"),
    ("geometry", "log_cap_intersection", "geometry.log_cap_intersection"),
    ("geometry", "log_cap_area", "geometry.log_cap_area"),
    ("geometry", "log_shellcap_intersection_bounds", "geometry.log_shellcap_intersection_bounds"),
    ("geometry", "log_shell_cap_volume", "geometry.log_shell_cap_volume"),
    ("geometry", "log_ball_intersection", "geometry.log_ball_intersection"),
    ("geometry", "log2_sin_power_integral", "geometry.log2_sin_power_integral"),
    ("montecarlo", "verify_concentration", "montecarlo.verify_concentration"),
    ("montecarlo", "verify_blowup", "montecarlo.verify_blowup"),
    ("montecarlo", "verify_isoperimetry_sphere", "montecarlo.verify_isoperimetry_sphere"),
    ("montecarlo", "verify_isoperimetry_shell", "montecarlo.verify_isoperimetry_shell"),
    ("montecarlo.SphereSet", "band_with_effective_angle", "montecarlo.set_solve"),
    ("montecarlo.SphereSet", "two_caps_with_effective_angle", "montecarlo.set_solve"),
]
LEAVES = [
    ("bounds", "minimize_entropy_difference", "bounds.minimize_entropy_difference"),
    ("geometry", "log2_reg_inc_beta", "geometry.log2_reg_inc_beta"),
    ("geometry", "reg_inc_beta", "geometry.reg_inc_beta"),
    ("montecarlo", "estimate_cap_intersection", "montecarlo.estimate_cap_intersection"),
    ("montecarlo", "trial_rng", "montecarlo.trial_rng"),
]


@dataclass
class Span:
    name: str
    start: float
    parent: int
    request: int
    end: float = 0.0
    raised: bool = False
    # leaf name -> [calls, summed seconds, seconds not nested in another leaf]
    leaves: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and leaf counts in memory while its wrappers are installed."""

    def __init__(self, modules: dict, spans=SPANS, leaves=LEAVES):
        self.modules = modules
        self.specs = ((spans, self._span), (leaves, self._leaf))
        self.spans: list[Span] = []
        self.orphan_leaves: dict = {}
        self.absent: list[str] = []
        self.request = -1
        self._stack: list[int] = []
        self._in_leaf = False
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def _owner(self, path: str):
        head, _, rest = path.partition(".")
        obj = self.modules[head]
        return getattr(obj, rest) if rest else obj

    def install(self) -> None:
        self.absent = []
        for specs, make in self.specs:
            for owner_path, attr, name in specs:
                try:
                    owner = self._owner(owner_path)
                    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (AttributeError, KeyError):
                    self.absent.append(f"{owner_path}.{attr}")
                    continue
                self._saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    # bind to the class now; the wrapper is then a plain callable
                    setattr(owner, attr, staticmethod(make(name, getattr(owner, attr))))
                else:
                    setattr(owner, attr, make(name, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1,
                        self.request)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    def _leaf(self, name: str, fn):
        def counted(*args, **kwargs):
            outer = not self._in_leaf
            self._in_leaf = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if outer:
                    self._in_leaf = False
                sink = self.spans[self._stack[-1]].leaves if self._stack else self.orphan_leaves
                rec = sink.get(name)
                if rec is None:
                    rec = sink[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                if outer:
                    rec[2] += dt

        return counted

    # -- analysis --------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Self time of every span: duration minus child span and leaf coverage."""
        covered = [sum(rec[2] for rec in s.leaves.values()) for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.seconds
        return [s.seconds - c for s, c in zip(self.spans, covered)]

    def dump(self, path) -> None:
        """Write every span and leaf aggregate as JSON, one span per line."""
        with open(path, "w") as fh:
            fh.write('{"absent": %s,\n"spans": [\n' % json.dumps(self.absent))
            fh.write(",\n".join(
                json.dumps([s.name, s.start, s.end, s.parent, s.request, s.raised, s.leaves])
                for s in self.spans))
            fh.write("\n]}\n")


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    durations: list = field(default_factory=list)


def layer_stats(tracer: Tracer) -> tuple[dict, dict, dict]:
    """(span stats by name, leaf [calls, seconds] by name, leaf calls by (parent, leaf))."""
    spans: dict[str, LayerStats] = {}
    for s, own in zip(tracer.spans, tracer.self_seconds()):
        st = spans.setdefault(s.name, LayerStats())
        st.calls += 1
        st.total_s += s.seconds
        st.self_s += own
        st.errors += s.raised
        st.durations.append(s.seconds)
    leaves: dict[str, list] = {}
    by_parent: dict[tuple[str, str], int] = {}
    sinks = [(s.name, s.leaves) for s in tracer.spans] + [("", tracer.orphan_leaves)]
    for parent, sink in sinks:
        for name, (calls, seconds, _) in sink.items():
            rec = leaves.setdefault(name, [0, 0.0])
            rec[0] += calls
            rec[1] += seconds
            by_parent[parent, name] = by_parent.get((parent, name), 0) + calls
    return spans, leaves, by_parent


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values: list, q: int) -> float:
    """q-th percentile (q in 1..99) by the same rule as the end-to-end metrics."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def per_layer_metrics(tracer: Tracer, estimator_samples: int, stdout_bytes: int,
                      traced_s: float, untraced_s: float) -> dict:
    """Every per-layer metric, as name -> (value, unit).

    `estimator_samples` is the number of importance samples the traced
    requests asked the intersection estimator for (trials x samples of every
    isoperimetry request), taken from the request argv.  `traced_s` and
    `untraced_s` are the summed latencies of the same requests with and
    without tracing.  `trace.accounted_frac` is the sum of every span's self
    time and leaf time (the root spans' durations) over `untraced_s`: the
    share of the untraced wall time the trace accounts for.
    """
    spans, leaves, by_parent = layer_stats(tracer)

    def sp(name: str) -> LayerStats:
        return spans.get(name, LayerStats())

    def lf(name: str) -> list:
        return leaves.get(name, [0, 0.0])

    ms = 1e3
    gap = sp("bounds.gap_certificate")
    m = {
        "cli.main.calls": (sp("cli.main").calls, "count"),
        "cli.main.self_ms": (sp("cli.main").self_s * ms, "ms"),
        "cli.build_parser.total_ms": (sp("cli.build_parser").total_s * ms, "ms"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        "bounds.sweep.self_ms": (sp("bounds.sweep").self_s * ms, "ms"),
        "bounds.capacity_upper_bound.calls": (sp("bounds.capacity_upper_bound").calls, "count"),
        "bounds.capacity_upper_bound.self_ms":
            (sp("bounds.capacity_upper_bound").self_s * ms, "ms"),
        "bounds.capacity_upper_bound.errors": (sp("bounds.capacity_upper_bound").errors, "count"),
        "bounds.minimize_entropy_difference.calls":
            (lf("bounds.minimize_entropy_difference")[0], "count"),
        "bounds.minimize_entropy_difference.total_ms":
            (lf("bounds.minimize_entropy_difference")[1] * ms, "ms"),
        "bounds.inner_per_bound": (_ratio(lf("bounds.minimize_entropy_difference")[0],
                                          sp("bounds.capacity_upper_bound").calls), "calls/call"),
        "bounds.gap_certificate.calls": (gap.calls, "count"),
        "bounds.gap_certificate.total_ms": (gap.total_s * ms, "ms"),
        "bounds.gap_certificate.p50_ms": (percentile(gap.durations, 50) * ms, "ms"),
        "bounds.gap_certificate.p90_ms": (percentile(gap.durations, 90) * ms, "ms"),
        "geometry.log_cap_intersection.calls": (sp("geometry.log_cap_intersection").calls, "count"),
        "geometry.log_cap_intersection.self_ms":
            (sp("geometry.log_cap_intersection").self_s * ms, "ms"),
        "geometry.log2_reg_inc_beta.calls": (lf("geometry.log2_reg_inc_beta")[0], "count"),
        "geometry.log2_reg_inc_beta.total_ms": (lf("geometry.log2_reg_inc_beta")[1] * ms, "ms"),
        "geometry.reg_inc_beta.calls": (lf("geometry.reg_inc_beta")[0], "count"),
        "geometry.reg_inc_beta.total_ms": (lf("geometry.reg_inc_beta")[1] * ms, "ms"),
        "geometry.inc_beta_per_intersection": (_ratio(
            by_parent.get(("geometry.log_cap_intersection", "geometry.log2_reg_inc_beta"), 0),
            sp("geometry.log_cap_intersection").calls), "calls/call"),
        "geometry.log_shellcap_intersection_bounds.self_ms":
            (sp("geometry.log_shellcap_intersection_bounds").self_s * ms, "ms"),
        "geometry.log_cap_area.total_ms": (sp("geometry.log_cap_area").total_s * ms, "ms"),
        "geometry.log_ball_intersection.total_ms":
            (sp("geometry.log_ball_intersection").total_s * ms, "ms"),
        "geometry.log2_sin_power_integral.calls":
            (sp("geometry.log2_sin_power_integral").calls, "count"),
        "geometry.log2_sin_power_integral.self_ms":
            (sp("geometry.log2_sin_power_integral").self_s * ms, "ms"),
        "montecarlo.verify_concentration.self_ms":
            (sp("montecarlo.verify_concentration").self_s * ms, "ms"),
        "montecarlo.verify_blowup.self_ms": (sp("montecarlo.verify_blowup").self_s * ms, "ms"),
        "montecarlo.verify_isoperimetry_sphere.self_ms":
            (sp("montecarlo.verify_isoperimetry_sphere").self_s * ms, "ms"),
        "montecarlo.verify_isoperimetry_shell.self_ms":
            (sp("montecarlo.verify_isoperimetry_shell").self_s * ms, "ms"),
        "montecarlo.estimate_cap_intersection.calls":
            (lf("montecarlo.estimate_cap_intersection")[0], "count"),
        "montecarlo.estimate_cap_intersection.total_ms":
            (lf("montecarlo.estimate_cap_intersection")[1] * ms, "ms"),
        "montecarlo.estimator_samples_per_s": (_ratio(
            estimator_samples, lf("montecarlo.estimate_cap_intersection")[1]), "1/s"),
        "montecarlo.trial_rng.calls": (lf("montecarlo.trial_rng")[0], "count"),
        "montecarlo.set_solve.total_ms": (sp("montecarlo.set_solve").total_s * ms, "ms"),
        "trace.overhead_frac": (_ratio(traced_s, untraced_s) - 1.0, "ratio"),
        "trace.accounted_frac": (_ratio(sp("cli.main").total_s, untraced_s), "ratio"),
    }
    return m
