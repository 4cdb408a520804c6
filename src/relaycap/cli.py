"""Command-line front end: bound sweeps, gap certificates, geometry, Monte Carlo.

Output is a single machine-readable record on stdout (JSON by default or
CSV), with diagnostics on stderr.  Exit codes: 0 success / Monte Carlo
pass, 2 invalid flags or violated preconditions, 3 numerical failure
(inside a sweep, a certificate step below float64 range, or any other
internal arithmetic or math-domain failure), 4 Monte Carlo fail, 5 Monte
Carlo inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, field

from . import bounds, channel, geometry, montecarlo
from .errors import DomainError, InvalidInput, NumericalError, UnsupportedSet

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_MC_FAIL = 4
EXIT_MC_INCONCLUSIVE = 5

_VERDICT_EXIT = {
    montecarlo.Verdict.PASS: EXIT_OK,
    montecarlo.Verdict.FAIL: EXIT_MC_FAIL,
    montecarlo.Verdict.INCONCLUSIVE: EXIT_MC_INCONCLUSIVE,
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@dataclass
class OutputRecord:
    """One command's machine-readable result: params plus column-named rows."""

    command: str
    params: dict
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    schema_version: str = SCHEMA_VERSION

    def add(self, **row) -> None:
        missing = set(self.columns) - set(row)
        if missing:
            raise ValueError(f"row missing columns {sorted(missing)}")
        self.rows.append({c: row[c] for c in self.columns})

    def to_json(self) -> str:
        # Hand-rolled so floats appear as unquoted 17-significant-digit
        # JSON numbers; the standard encoder offers no format hook.
        # Non-finite floats take the json module's spelling (Infinity,
        # -Infinity, NaN), which json.loads reads back.
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
            "schema_version": self.schema_version,
            "command": self.command,
            "params": self.params,
            "rows": self.rows,
        }
        return render(doc)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(_fmt(row[c]) for c in self.columns) + "\n")
        return buf.getvalue()

    def render(self, fmt: str) -> str:
        return self.to_csv() if fmt == "csv" else self.to_json()


def _emit(record: OutputRecord, args) -> None:
    text = record.render(args.format)
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _angle(value: float, args) -> float:
    return math.radians(value) if args.deg else value


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_bounds_sweep(args) -> int:
    snrs = args.snr if args.snr else [0.1, 1.0, 10.0]
    if args.c0_steps < 1:
        raise InvalidInput(f"--c0-steps must be >= 1, got {args.c0_steps}")
    if args.c0_steps == 1:
        grid = [args.c0_min]
    else:
        step = (args.c0_max - args.c0_min) / (args.c0_steps - 1)
        grid = [args.c0_min + i * step for i in range(args.c0_steps)]
    record = OutputRecord(
        command="bounds-sweep",
        params={
            "snr": snrs,
            "c0_min": args.c0_min,
            "c0_max": args.c0_max,
            "c0_steps": args.c0_steps,
        },
        columns=["snr", "c0", "cutset", "new_bound", "cf_rate", "c_infinity"],
    )
    for snr in snrs:
        params = channel.ChannelParams.from_snr(snr)
        c_inf = channel.capacity_full_cooperation(params)
        curves = bounds.sweep(params, grid)
        by_family = {c.family: c.points for c in curves}
        for i, c0 in enumerate(grid):
            record.add(
                snr=snr,
                c0=c0,
                cutset=by_family[bounds.BoundFamily.CUTSET][i][1],
                new_bound=by_family[bounds.BoundFamily.NEW_BOUND][i][1],
                cf_rate=by_family[bounds.BoundFamily.COMPRESS_FORWARD][i][1],
                c_infinity=c_inf,
            )
    _emit(record, args)
    return EXIT_OK


def _cmd_gap(args) -> int:
    if not (math.isfinite(args.c0) and args.c0 > 0):
        raise InvalidInput(f"--c0 must be finite and > 0, got {args.c0}")
    params = channel.ChannelParams.from_snr(args.snr)
    cert = bounds.gap_certificate(params, args.c0)
    record = OutputRecord(
        command="gap",
        params={"snr": args.snr, "c0": args.c0},
        columns=[
            "theta0",
            "delta1",
            "derivative",
            "gap_lower_bound",
            "certified_bound",
            "c_infinity",
        ],
    )
    record.add(
        theta0=cert.theta0,
        delta1=cert.delta1,
        derivative=cert.derivative_at_pi_half,
        gap_lower_bound=cert.gap_lower_bound,
        certified_bound=cert.certified_bound,
        c_infinity=channel.capacity_full_cooperation(params),
    )
    _emit(record, args)
    return EXIT_OK


def _cmd_geom(args) -> int:
    sub = args.geom_command
    n = args.n_scale
    if sub == "cap-area":
        theta = _angle(args.theta, args)
        if args.m < 3 or not n > 0:
            raise DomainError(f"cap-area needs m >= 3 and n_scale > 0, got m={args.m}, "
                              f"n_scale={n}")
        spec = geometry.CapSpec(args.m, math.sqrt(args.m * n), theta)
        value = geometry.log_cap_area(spec).log2_value
        exponent = (args.m / 2.0) * (
            geometry.LOG2_2PIE + math.log2(n) + 2.0 * math.log2(math.sin(theta))
        )
        record = OutputRecord(
            "geom cap-area",
            {"m": args.m, "n_scale": n, "theta": theta},
            ["m", "theta", "log2_measure", "asymptotic_exponent", "per_dim_gap"],
        )
        record.add(
            m=args.m,
            theta=theta,
            log2_measure=value,
            asymptotic_exponent=exponent,
            per_dim_gap=(2.0 / args.m) * (value - exponent),
        )
    elif sub == "cap-intersect":
        theta = _angle(args.theta, args)
        theta2 = _angle(args.theta2, args)
        value = geometry.log_cap_intersection(args.m, n, theta, theta2).log2_value
        exponent = (args.m / 2.0) * geometry.cap_intersection_exponent(n, theta, theta2)
        record = OutputRecord(
            "geom cap-intersect",
            {"m": args.m, "n_scale": n, "theta": theta, "theta2": theta2},
            ["m", "theta", "theta2", "log2_measure", "asymptotic_exponent", "per_dim_gap"],
        )
        record.add(
            m=args.m,
            theta=theta,
            theta2=theta2,
            log2_measure=value,
            asymptotic_exponent=exponent,
            per_dim_gap=(2.0 / args.m) * (value - exponent),
        )
    elif sub == "shell-cap":
        theta = _angle(args.theta, args)
        spec = geometry.ShellSpec(args.m, n, args.delta)
        if args.omega is not None:
            omega = _angle(args.omega, args)
            res = geometry.log_shellcap_intersection_bounds(spec, theta, omega)
            record = OutputRecord(
                "geom shell-cap",
                {"m": args.m, "n_scale": n, "delta": args.delta, "theta": theta,
                 "omega": omega},
                ["m", "theta", "omega", "log2_measure", "lower_exponent",
                 "upper_exponent", "per_dim_gap"],
            )
            record.add(
                m=args.m,
                theta=theta,
                omega=omega,
                log2_measure=res.exact.log2_value,
                lower_exponent=res.lower.log2_value,
                upper_exponent=res.upper.log2_value,
                per_dim_gap=(2.0 / args.m)
                * (res.exact.log2_value - res.lower.log2_value),
            )
        else:
            value = geometry.log_shell_cap_volume(spec, theta).log2_value
            half_m = args.m / 2.0
            s2 = math.sin(theta) ** 2
            lower = half_m * (geometry.LOG2_2PIE + math.log2((n - args.delta) * s2))
            upper = half_m * (geometry.LOG2_2PIE + math.log2((n + args.delta) * s2))
            record = OutputRecord(
                "geom shell-cap",
                {"m": args.m, "n_scale": n, "delta": args.delta, "theta": theta},
                ["m", "theta", "log2_measure", "lower_exponent", "upper_exponent",
                 "per_dim_gap"],
            )
            record.add(
                m=args.m,
                theta=theta,
                log2_measure=value,
                lower_exponent=lower,
                upper_exponent=upper,
                per_dim_gap=(2.0 / args.m) * (value - lower),
            )
    elif sub == "ball-intersect":
        spec = geometry.BallPairSpec(args.m, args.r1, args.r2, args.d)
        res = geometry.log_ball_intersection(spec)
        record = OutputRecord(
            "geom ball-intersect",
            {"m": args.m, "r1": args.r1, "r2": args.r2, "d": args.d},
            ["m", "lambda", "log2_measure", "bound_exponent", "per_dim_gap"],
        )
        record.add(
            m=args.m,
            **{"lambda": res.lambda_scale},
            log2_measure=res.exact.log2_value,
            bound_exponent=res.bound_log2,
            per_dim_gap=(2.0 / args.m) * (res.exact.log2_value - res.bound_log2),
        )
    elif sub == "exponent":
        theta = _angle(args.theta, args)
        omega = _angle(args.omega, args)
        value = geometry.cap_intersection_exponent(n, theta, omega)
        record = OutputRecord(
            "geom exponent",
            {"n_scale": n, "theta": theta, "omega": omega},
            ["theta", "omega", "exponent_per_two_dims"],
        )
        record.add(theta=theta, omega=omega, exponent_per_two_dims=value)
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidInput(f"unknown geom subcommand {sub!r}")
    _emit(record, args)
    return EXIT_OK


def _build_sphere_set(args, m: int) -> montecarlo.SphereSet:
    theta = _angle(args.theta, args)
    if args.set == "cap":
        return montecarlo.SphereSet.cap(m, theta)
    if args.set == "band":
        return montecarlo.SphereSet.band_with_effective_angle(m, theta)
    if args.set == "twocaps":
        return montecarlo.SphereSet.two_caps_with_effective_angle(m, theta)
    raise InvalidInput(f"unknown set shape {args.set!r}")


def _mc_record(command: str, params: dict, report: montecarlo.McReport) -> OutputRecord:
    record = OutputRecord(
        command=command,
        params=params,
        columns=list(params) + ["estimate", "std_error", "n_used", "threshold",
                                "verdict", "seed"],
    )
    record.add(
        **params,
        estimate=report.estimate,
        std_error=report.std_error,
        n_used=report.n_used,
        threshold=report.threshold,
        verdict=report.verdict.value,
        seed=report.seed,
    )
    return record


def _cmd_mc(args) -> int:
    sub = args.mc_command
    if sub == "concentration":
        cfg = montecarlo.McConfig(
            seed=args.seed, samples_per_estimate=args.samples, trials=1,
            epsilon=args.epsilon,
        )
        report = montecarlo.verify_concentration(args.m, args.mu, cfg)
        params = {"m": args.m, "mu": args.mu, "samples": args.samples}
    elif sub == "blowup":
        cfg = montecarlo.McConfig(
            seed=args.seed, samples_per_estimate=args.samples, trials=1,
            epsilon=args.epsilon,
        )
        sphere_set = _build_sphere_set(args, args.m)
        report = montecarlo.verify_blowup(args.m, sphere_set, args.epsilon, cfg)
        params = {
            "m": args.m, "set": args.set,
            "theta": _angle(args.theta, args), "epsilon": args.epsilon,
            "samples": args.samples,
        }
    elif sub == "isoperimetry-sphere":
        cfg = montecarlo.McConfig(
            seed=args.seed, samples_per_estimate=args.samples, trials=args.trials,
            epsilon=args.epsilon,
            angular_slack=_angle(args.angular_slack, args)
            if args.angular_slack is not None else None,
        )
        sphere_set = _build_sphere_set(args, args.m)
        report = montecarlo.verify_isoperimetry_sphere(
            args.m, sphere_set, _angle(args.omega, args), cfg
        )
        params = {
            "m": args.m, "set": args.set,
            "theta": _angle(args.theta, args), "omega": _angle(args.omega, args),
            "epsilon": args.epsilon, "trials": args.trials, "samples": args.samples,
        }
    elif sub == "isoperimetry-shell":
        cfg = montecarlo.McConfig(
            seed=args.seed, samples_per_estimate=args.samples, trials=args.trials,
            epsilon=args.epsilon,
            angular_slack=_angle(args.angular_slack, args)
            if args.angular_slack is not None else None,
        )
        spec = geometry.ShellSpec(args.m, args.n_scale, args.delta)
        angular = _build_sphere_set(args, args.m)
        shell_set = montecarlo.ShellSet.extruded(
            spec, angular, args.extrude_lo, args.extrude_hi
        )
        report = montecarlo.verify_isoperimetry_shell(
            shell_set, _angle(args.omega, args), cfg
        )
        params = {
            "m": args.m, "n_scale": args.n_scale, "delta": args.delta,
            "set": args.set, "theta": _angle(args.theta, args),
            "omega": _angle(args.omega, args), "epsilon": args.epsilon,
            "trials": args.trials, "samples": args.samples,
            "extrude_lo": args.extrude_lo, "extrude_hi": args.extrude_hi,
        }
    else:  # pragma: no cover
        raise InvalidInput(f"unknown mc subcommand {sub!r}")
    record = _mc_record(f"mc {sub}", params, report)
    _emit(record, args)
    return _VERDICT_EXIT[report.verdict]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="also write the record to this path")
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    parser.add_argument("--deg", action="store_true",
                        help="interpret angle flags as degrees")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The relaycap argument parser, built once per process and shared.

    Sharing is safe: parse_args does not change the parser, each parse
    starts a fresh list for an `append` option, and the `func` defaults
    bind the module's command functions.
    """
    parser = argparse.ArgumentParser(
        prog="relaycap",
        description="Gaussian relay channel capacity bounds and geometry tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds-sweep", help="evaluate bound curves on a C0 grid")
    p.add_argument("--snr", type=float, action="append",
                   help="P/N (repeatable; default 0.1, 1, 10)")
    p.add_argument("--c0-min", type=float, default=0.05)
    p.add_argument("--c0-max", type=float, default=3.0)
    p.add_argument("--c0-steps", type=int, default=60)
    _add_common(p)
    p.set_defaults(func=_cmd_bounds_sweep)

    p = sub.add_parser("gap", help="strict-gap certificate below full cooperation")
    p.add_argument("--snr", type=float, required=True)
    p.add_argument("--c0", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("geom", help="log-domain geometry queries")
    geom_sub = p.add_subparsers(dest="geom_command", required=True)
    for name in ("cap-area", "cap-intersect", "shell-cap", "ball-intersect", "exponent"):
        g = geom_sub.add_parser(name)
        g.add_argument("--m", type=int, default=100)
        g.add_argument("--n-scale", type=float, default=1.0)
        if name in ("cap-area", "cap-intersect", "shell-cap", "exponent"):
            g.add_argument("--theta", type=float, required=True)
        if name == "cap-intersect":
            g.add_argument("--theta2", type=float, required=True)
        if name in ("shell-cap", "exponent"):
            g.add_argument("--omega", type=float, default=None,
                           required=(name == "exponent"))
        if name == "shell-cap":
            g.add_argument("--delta", type=float, default=0.1)
        if name == "ball-intersect":
            g.add_argument("--r1", type=float, required=True)
            g.add_argument("--r2", type=float, required=True)
            g.add_argument("--d", type=float, required=True)
        _add_common(g)
        g.set_defaults(func=_cmd_geom)

    p = sub.add_parser("mc", help="seeded Monte Carlo experiments")
    mc_sub = p.add_subparsers(dest="mc_command", required=True)
    for name in ("concentration", "blowup", "isoperimetry-sphere", "isoperimetry-shell"):
        g = mc_sub.add_parser(name)
        g.add_argument("--m", type=int, required=True)
        g.add_argument("--seed", type=int, default=0)
        g.add_argument("--samples", type=int, default=10000)
        g.add_argument("--epsilon", type=float, default=0.1)
        if name == "concentration":
            g.add_argument("--mu", type=float, required=True)
        else:
            g.add_argument("--set", choices=("cap", "band", "twocaps"), default="cap")
            g.add_argument("--theta", type=float, required=True,
                           help="target effective angle of the set")
        if name.startswith("isoperimetry"):
            g.add_argument("--omega", type=float, required=True)
            g.add_argument("--trials", type=int, default=200)
            g.add_argument("--angular-slack", type=float, default=None,
                           help="override the angular slack (defaults to epsilon)")
        if name == "isoperimetry-shell":
            g.add_argument("--n-scale", type=float, default=1.0)
            g.add_argument("--delta", type=float, default=0.1)
            g.add_argument("--extrude-lo", type=float, default=0.0)
            g.add_argument("--extrude-hi", type=float, default=1.0)
        _add_common(g)
        g.set_defaults(func=_cmd_mc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, InvalidInput, UnsupportedSet) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalError, ValueError, ArithmeticError) as exc:
        # any other ValueError (e.g. a math domain error) is an internal failure
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
