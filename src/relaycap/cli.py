"""Command-line front end: bound sweeps, gap certificates, geometry, Monte Carlo.

Output is a single machine-readable record on stdout (JSON by default or
CSV), with diagnostics on stderr.  Exit codes: 0 success / Monte Carlo
pass, 2 invalid flags, violated preconditions or an unwritable --out, 3
numerical failure (inside a sweep, a certificate step below float64 range,
or any other internal arithmetic or math-domain failure), 4 Monte Carlo
fail, 5 Monte Carlo inconclusive.

Each command declares its flags once in _COMMANDS and returns its record
with one dict per output row; the dict's keys are the columns.  A request
in plain form (command words, then the command's own flags, each with one
value) is parsed from that table without argparse; all other argv (help,
errors, abbreviations, "=" forms, negative values) go to the argparse
parser that build_parser makes from the same table.
"""

from __future__ import annotations

import functools
import io
import json
import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import bounds, channel, geometry
from .errors import DomainError, InvalidInput, NumericalError, UnsupportedSet

if TYPE_CHECKING:
    import argparse

    from .montecarlo import McReport, SphereSet

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_MC_FAIL = 4
EXIT_MC_INCONCLUSIVE = 5

# keyed by Verdict.value: the mc handlers alone import montecarlo, which
# loads numpy (~0.17 s of start-up the other commands never use)
_VERDICT_EXIT = {
    "pass": EXIT_OK,
    "fail": EXIT_MC_FAIL,
    "inconclusive": EXIT_MC_INCONCLUSIVE,
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


_json_str = json.encoder.encode_basestring_ascii  # json.dumps's route for a str


@functools.lru_cache(maxsize=256, typed=True)
def _json_key(key) -> str:
    return json.dumps(str(key)) + ": "


def _json_text(v) -> str:
    """v as JSON text, floats as unquoted 17-significant-digit numbers.

    Hand-rolled because the standard encoder offers no float format hook.
    Non-finite floats take the json module's spelling (Infinity, -Infinity,
    NaN), which json.loads reads back.
    """
    if isinstance(v, float):
        return format(v, ".17g") if math.isfinite(v) else json.dumps(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return _json_str(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join([_json_text(x) for x in v]) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join([_json_key(k) + _json_text(x) for k, x in v.items()]) + "}"
    raise TypeError(f"cannot serialize {type(v).__name__}")


@dataclass
class OutputRecord:
    """One command's machine-readable result: params plus rows keyed by column."""

    command: str
    params: dict
    rows: list[dict]

    def to_json(self) -> str:
        return _json_text({
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "params": self.params,
            "rows": self.rows,
        })

    def to_csv(self) -> str:
        columns = list(self.rows[0])
        buf = io.StringIO()
        buf.write(",".join(columns) + "\n")
        for row in self.rows:
            buf.write(",".join(_fmt(row[c]) for c in columns) + "\n")
        return buf.getvalue()

    def render(self, fmt: str) -> str:
        return self.to_csv() if fmt == "csv" else self.to_json()


def _emit(record: OutputRecord, args) -> None:
    text = record.render(args.format)
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        # before stdout, so an unwritable path prints no record
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInput(f"cannot write --out: {exc}") from exc
    sys.stdout.write(text)


def _angle(value: float, args) -> float:
    return math.radians(value) if args.deg else value


# ---------------------------------------------------------------------------
# Commands: each returns its record and exit code
# ---------------------------------------------------------------------------


def _cmd_bounds_sweep(args) -> tuple[OutputRecord, int]:
    snrs = args.snr if args.snr else [0.1, 1.0, 10.0]
    if args.c0_steps < 1:
        raise InvalidInput(f"--c0-steps must be >= 1, got {args.c0_steps}")
    if args.c0_steps == 1:
        grid = [args.c0_min]
    else:
        step = (args.c0_max - args.c0_min) / (args.c0_steps - 1)
        grid = [args.c0_min + i * step for i in range(args.c0_steps)]
    rows = []
    for snr in snrs:
        params = channel.ChannelParams.from_snr(snr)
        c_inf = channel.capacity_full_cooperation(params)
        rows += [
            {"snr": snr, "c0": c0, "cutset": cutset, "new_bound": new_bound,
             "cf_rate": cf_rate, "c_infinity": c_inf}
            for c0, cutset, new_bound, cf_rate in bounds.sweep(params, grid)
        ]
    params = {"snr": snrs, "c0_min": args.c0_min, "c0_max": args.c0_max,
              "c0_steps": args.c0_steps}
    return OutputRecord("bounds-sweep", params, rows), EXIT_OK


def _cmd_gap(args) -> tuple[OutputRecord, int]:
    if not (math.isfinite(args.c0) and args.c0 > 0):
        raise InvalidInput(f"--c0 must be finite and > 0, got {args.c0}")
    params = channel.ChannelParams.from_snr(args.snr)
    cert = bounds.gap_certificate(params, args.c0)
    row = {
        "theta0": cert.theta0,
        "delta1": cert.delta1,
        "derivative": cert.derivative_at_pi_half,
        "gap_lower_bound": cert.gap_lower_bound,
        "certified_bound": cert.certified_bound,
        "c_infinity": channel.capacity_full_cooperation(params),
    }
    return OutputRecord("gap", {"snr": args.snr, "c0": args.c0}, [row]), EXIT_OK


def _per_dim_gap(m: int, value: float, reference: float) -> float:
    return (2.0 / m) * (value - reference)


# Each geom query returns (params, row).


def _geom_cap_area(args) -> tuple[dict, dict]:
    m, n = args.m, args.n_scale
    theta = _angle(args.theta, args)
    if m < 3 or not 0 < n < math.inf:
        raise DomainError(
            f"cap-area needs m >= 3 and finite n_scale > 0, got m={m}, n_scale={n}")
    # the product of roots only where m * n overflows, so other radii keep their bits
    radius = math.sqrt(m * n) if m * n < math.inf else math.sqrt(m) * math.sqrt(n)
    value = geometry.log_cap_area(geometry.CapSpec(m, radius, theta)).log2_value
    exponent = (m / 2.0) * (
        geometry.LOG2_2PIE + math.log2(n) + 2.0 * math.log2(math.sin(theta))
    )
    return {"m": m, "n_scale": n, "theta": theta}, {
        "m": m, "theta": theta, "log2_measure": value, "asymptotic_exponent": exponent,
        "per_dim_gap": _per_dim_gap(m, value, exponent),
    }


def _geom_cap_intersect(args) -> tuple[dict, dict]:
    m, n = args.m, args.n_scale
    theta, theta2 = _angle(args.theta, args), _angle(args.theta2, args)
    value = geometry.log_cap_intersection(m, n, theta, theta2).log2_value
    exponent = (m / 2.0) * geometry.cap_intersection_exponent(n, theta, theta2)
    return {"m": m, "n_scale": n, "theta": theta, "theta2": theta2}, {
        "m": m, "theta": theta, "theta2": theta2, "log2_measure": value,
        "asymptotic_exponent": exponent, "per_dim_gap": _per_dim_gap(m, value, exponent),
    }


def _geom_shell_cap(args) -> tuple[dict, dict]:
    m, n, delta = args.m, args.n_scale, args.delta
    theta = _angle(args.theta, args)
    spec = geometry.ShellSpec(m, n, delta)
    if args.omega is None:
        value = geometry.log_shell_cap_volume(spec, theta).log2_value
        log2_s2 = 2.0 * math.log2(math.sin(theta))  # sin(theta) ** 2 underflows below 1e-154
        lower = (m / 2.0) * (geometry.LOG2_2PIE + math.log2(n - delta) + log2_s2)
        upper = (m / 2.0) * (geometry.LOG2_2PIE + math.log2(n + delta) + log2_s2)
        return {"m": m, "n_scale": n, "delta": delta, "theta": theta}, {
            "m": m, "theta": theta, "log2_measure": value, "lower_exponent": lower,
            "upper_exponent": upper, "per_dim_gap": _per_dim_gap(m, value, lower),
        }
    omega = _angle(args.omega, args)
    res = geometry.log_shellcap_intersection_bounds(spec, theta, omega)
    value, lower = res.exact.log2_value, res.lower.log2_value
    return {"m": m, "n_scale": n, "delta": delta, "theta": theta, "omega": omega}, {
        "m": m, "theta": theta, "omega": omega, "log2_measure": value,
        "lower_exponent": lower, "upper_exponent": res.upper.log2_value,
        "per_dim_gap": _per_dim_gap(m, value, lower),
    }


def _geom_ball_intersect(args) -> tuple[dict, dict]:
    res = geometry.log_ball_intersection(geometry.BallPairSpec(args.m, args.r1, args.r2, args.d))
    value = res.exact.log2_value
    return {"m": args.m, "r1": args.r1, "r2": args.r2, "d": args.d}, {
        "m": args.m, "lambda": res.lambda_scale, "log2_measure": value,
        "bound_exponent": res.bound_log2,
        "per_dim_gap": _per_dim_gap(args.m, value, res.bound_log2),
    }


def _geom_exponent(args) -> tuple[dict, dict]:
    theta, omega = _angle(args.theta, args), _angle(args.omega, args)
    value = geometry.cap_intersection_exponent(args.n_scale, theta, omega)
    return {"n_scale": args.n_scale, "theta": theta, "omega": omega}, {
        "theta": theta, "omega": omega, "exponent_per_two_dims": value,
    }


_GEOM = {
    "cap-area": _geom_cap_area,
    "cap-intersect": _geom_cap_intersect,
    "shell-cap": _geom_shell_cap,
    "ball-intersect": _geom_ball_intersect,
    "exponent": _geom_exponent,
}


def _cmd_geom(args) -> tuple[OutputRecord, int]:
    params, row = _GEOM[args.geom_command](args)
    return OutputRecord(f"geom {args.geom_command}", params, [row]), EXIT_OK


def _sphere_set(args) -> SphereSet:
    from . import montecarlo

    theta = _angle(args.theta, args)
    if args.set == "band":
        return montecarlo.SphereSet.band_with_effective_angle(args.m, theta)
    if args.set == "twocaps":
        return montecarlo.SphereSet.two_caps_with_effective_angle(args.m, theta)
    return montecarlo.SphereSet.cap(args.m, theta)


# Each mc experiment returns (params, report); params lead the output row.


def _mc_concentration(args, cfg) -> tuple[dict, McReport]:
    from . import montecarlo

    report = montecarlo.verify_concentration(args.m, args.mu, cfg)
    return {"m": args.m, "mu": args.mu, "samples": args.samples}, report


def _mc_blowup(args, cfg) -> tuple[dict, McReport]:
    from . import montecarlo

    report = montecarlo.verify_blowup(_sphere_set(args), cfg)
    return {"m": args.m, "set": args.set, "theta": _angle(args.theta, args),
            "epsilon": args.epsilon, "samples": args.samples}, report


def _mc_isoperimetry_sphere(args, cfg) -> tuple[dict, McReport]:
    from . import montecarlo

    omega = _angle(args.omega, args)
    report = montecarlo.verify_isoperimetry_sphere(_sphere_set(args), omega, cfg)
    return {"m": args.m, "set": args.set, "theta": _angle(args.theta, args),
            "omega": omega, "epsilon": args.epsilon, "trials": args.trials,
            "samples": args.samples}, report


def _mc_isoperimetry_shell(args, cfg) -> tuple[dict, McReport]:
    from . import montecarlo

    spec = geometry.ShellSpec(args.m, args.n_scale, args.delta)
    shell_set = montecarlo.ShellSet(spec, _sphere_set(args), args.extrude_lo, args.extrude_hi)
    omega = _angle(args.omega, args)
    report = montecarlo.verify_isoperimetry_shell(shell_set, omega, cfg)
    return {"m": args.m, "n_scale": args.n_scale, "delta": args.delta, "set": args.set,
            "theta": _angle(args.theta, args), "omega": omega, "epsilon": args.epsilon,
            "trials": args.trials, "samples": args.samples,
            "extrude_lo": args.extrude_lo, "extrude_hi": args.extrude_hi}, report


_MC = {
    "concentration": _mc_concentration,
    "blowup": _mc_blowup,
    "isoperimetry-sphere": _mc_isoperimetry_sphere,
    "isoperimetry-shell": _mc_isoperimetry_shell,
}


def _cmd_mc(args) -> tuple[OutputRecord, int]:
    from . import montecarlo

    # only the isoperimetry commands run trials; concentration reads no epsilon
    slack = getattr(args, "angular_slack", None)
    cfg = montecarlo.McConfig(
        seed=args.seed,
        samples_per_estimate=args.samples,
        trials=getattr(args, "trials", 1),
        epsilon=getattr(args, "epsilon", 0.1),
        angular_slack=None if slack is None else _angle(slack, args),
    )
    params, report = _MC[args.mc_command](args, cfg)
    row = {
        **params,
        "estimate": report.estimate,
        "std_error": report.std_error,
        "n_used": report.n_used,
        "threshold": report.threshold,
        "verdict": report.verdict.value,
        "seed": report.seed,
    }
    code = _VERDICT_EXIT[report.verdict.value]
    return OutputRecord(f"mc {args.mc_command}", params, [row]), code


# ---------------------------------------------------------------------------
# Flags and parsing
# ---------------------------------------------------------------------------

_ANGLE_FLAGS = {"--theta", "--theta2", "--omega", "--angular-slack"}


def _required(kind):
    return {"type": kind, "required": True}


def _optional(kind, default):
    return {"type": kind, "default": default}


def _leaf(func, flags: list, **kwargs) -> tuple:
    """A command's (handler, flags, add_parser keywords).

    `flags` are (option, add_argument keywords) pairs.  Every command also
    takes --out and --format; --deg comes only with an angle flag.
    """
    flags = [
        *flags,
        ("--out", {"default": None, "help": "also write the record to this path"}),
        ("--format", {"choices": ("csv", "json"), "default": "json"}),
    ]
    if any(option in _ANGLE_FLAGS for option, _ in flags):
        flags.append(("--deg", {"action": "store_true",
                                "help": "interpret angle flags as degrees"}))
    return func, flags, kwargs


_M = ("--m", _optional(int, 100))
_N_SCALE = ("--n-scale", _optional(float, 1.0))
_THETA = ("--theta", _required(float))
_DELTA = ("--delta", _optional(float, 0.1))
_MC_COMMON = [("--m", _required(int)), ("--seed", _optional(int, 0)),
              ("--samples", _optional(int, 10000))]
_MC_SETS = [
    ("--epsilon", _optional(float, 0.1)),
    ("--set", {"choices": ("cap", "band", "twocaps"), "default": "cap"}),
    ("--theta", {**_required(float), "help": "target effective angle of the set"}),
]
_MC_TRIALS = [
    ("--omega", _required(float)),
    ("--trials", _optional(int, 200)),
    ("--angular-slack", {**_optional(float, None),
                         "help": "override the angular slack (defaults to epsilon)"}),
]

# command words, such as ("gap",) or ("geom", "cap-area") -> that command's
# declaration; build_parser and the quick path both read it
_COMMANDS = {
    ("bounds-sweep",): _leaf(_cmd_bounds_sweep, [
        ("--snr", {"type": float, "action": "append",
                   "help": "P/N (repeatable; default 0.1, 1, 10)"}),
        ("--c0-min", _optional(float, 0.05)),
        ("--c0-max", _optional(float, 3.0)),
        ("--c0-steps", _optional(int, 60)),
    ], help="evaluate bound curves on a C0 grid"),
    ("gap",): _leaf(_cmd_gap, [("--snr", _required(float)), ("--c0", _required(float))],
                    help="strict-gap certificate below full cooperation"),
    ("geom", "cap-area"): _leaf(_cmd_geom, [_M, _N_SCALE, _THETA]),
    ("geom", "cap-intersect"): _leaf(_cmd_geom, [
        _M, _N_SCALE, _THETA, ("--theta2", _required(float))]),
    ("geom", "shell-cap"): _leaf(_cmd_geom, [
        _M, _N_SCALE, _THETA, ("--omega", _optional(float, None)), _DELTA]),
    ("geom", "ball-intersect"): _leaf(_cmd_geom, [
        _M, ("--r1", _required(float)), ("--r2", _required(float)), ("--d", _required(float))]),
    ("geom", "exponent"): _leaf(_cmd_geom, [
        _N_SCALE, _THETA, ("--omega", _required(float))]),
    ("mc", "concentration"): _leaf(_cmd_mc, [*_MC_COMMON, ("--mu", _required(float))]),
    ("mc", "blowup"): _leaf(_cmd_mc, [*_MC_COMMON, *_MC_SETS]),
    ("mc", "isoperimetry-sphere"): _leaf(_cmd_mc, [*_MC_COMMON, *_MC_SETS, *_MC_TRIALS]),
    ("mc", "isoperimetry-shell"): _leaf(_cmd_mc, [
        *_MC_COMMON, *_MC_SETS, *_MC_TRIALS, _N_SCALE, _DELTA,
        ("--extrude-lo", _optional(float, 0.0)), ("--extrude-hi", _optional(float, 1.0)),
    ]),
}
_GROUP_HELP = {"geom": "log-domain geometry queries", "mc": "seeded Monte Carlo experiments"}

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The relaycap argument parser, built from _COMMANDS once per process and shared.

    Sharing is safe: parse_args does not change the parser, each parse
    starts a fresh list for an `append` option, and the `func` defaults
    bind the module's command functions.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="relaycap",
        description="Gaussian relay channel capacity bounds and geometry tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for words, (func, flags, kwargs) in _COMMANDS.items():
        parent = sub
        if len(words) == 2:
            if words[0] not in groups:
                groups[words[0]] = sub.add_parser(
                    words[0], help=_GROUP_HELP[words[0]]
                ).add_subparsers(dest=f"{words[0]}_command", required=True)
            parent = groups[words[0]]
        p = parent.add_parser(words[-1], **kwargs)
        for option, options in flags:
            p.add_argument(option, **options)
        p.set_defaults(func=func)
    return parser


@functools.cache
def _flag_table(words: tuple) -> tuple:
    """The quick path's view of a command's flags, derived from _COMMANDS.

    (option string -> (dest, type, action, choices); the namespace a request
    with no flags would get, command words and func included; the dests of
    required flags).  Dests, defaults and the store_true default False are
    those argparse derives from the same declarations.
    """
    func, flags, _ = _COMMANDS[words]
    by_option, defaults, required = {}, {"command": words[0]}, set()
    if len(words) == 2:
        defaults[f"{words[0]}_command"] = words[1]
    for option, options in flags:
        dest = option[2:].replace("-", "_")
        action = options.get("action")
        by_option[option] = (dest, options.get("type"), action, options.get("choices"))
        if options.get("required"):
            required.add(dest)
        else:
            defaults[dest] = options.get("default", False if action == "store_true" else None)
    defaults["func"] = func
    return by_option, defaults, frozenset(required)


def _quick_parse(argv: list) -> SimpleNamespace | None:
    """Parse a request in plain form from the flag table; None for any other argv.

    Plain form: the command words, then only that command's own option
    strings, each followed by exactly one value that does not start with
    "-" (a store_true flag takes none).  Values convert with the declared
    type and lie within its choices, `append` accumulates, a repeated flag
    keeps its last value, and every required flag is present.  The
    namespace then holds what argparse would set.  Help, abbreviations,
    "=" forms, negative values, "--", unknown words and every error go to
    argparse, the only source of help, usage and error text.
    """
    words = tuple(argv[:2])
    if words not in _COMMANDS:
        words = words[:1]
        if words not in _COMMANDS:
            return None
    by_option, defaults, required = _flag_table(words)
    values = dict(defaults)
    seen = set()
    i, n = len(words), len(argv)
    while i < n:
        flag = by_option.get(argv[i])
        if flag is None:
            return None
        dest, kind, action, choices = flag
        if action == "store_true":
            values[dest] = True
            i += 1
            continue
        if i + 1 == n or argv[i + 1].startswith("-"):
            return None
        value = argv[i + 1]
        if kind is not None:
            try:
                value = kind(value)
            except (TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        if action == "append":
            value = [*(values[dest] or ()), value]
        values[dest] = value
        seen.add(dest)
        i += 2
    if not required <= seen:
        return None
    return SimpleNamespace(**values)


def _parse(argv: list):
    """Parse argv: the quick path for a request in plain form, else argparse."""
    args = _quick_parse(argv)
    if args is not None:
        return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        record, code = args.func(args)
        _emit(record, args)
        return code
    except (DomainError, InvalidInput, UnsupportedSet) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalError, ValueError, ArithmeticError) as exc:
        # any other ValueError (e.g. a math domain error) is an internal failure
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
