"""Output checks: every record is validated, and a failed check fails the request.

Reference values come from `reference.json`, recorded by `make_reference.py`
at the commit that introduced the benchmark.  Tolerances:

* `new_bound`: 1e-8 bits absolute.  With the CLI's default `--tol 1e-6` the
  outer search under-resolves the supremum by up to ~1e-9 bits (measured
  against `--tol 1e-10`), so an exact method may sit that far above.
* closed forms (`cutset`, `cf_rate`, `c_infinity`): 1e-12 relative.
* `delta1` of a gap certificate: 1e-9 relative.
* every `geom` value: 1e-9 relative to max(1, |reference|).

`mc` records are not compared with reference bytes, because a faster
sampler legitimately changes seeded output; they are checked for a
consistent exit code, a verdict other than `fail`, and (in run.py) for
byte-identical stdout across repeated runs within one invocation.
"""

from __future__ import annotations

import json
import math

VERDICT_EXIT = {"pass": 0, "fail": 4, "inconclusive": 5}

NEW_BOUND_ABS_TOL = 1e-8
CLOSED_FORM_REL_TOL = 1e-12
DELTA1_REL_TOL = 1e-9
GEOM_REL_TOL = 1e-9


def _near(value: float, ref: float, rel: float, floor: float = 0.0) -> bool:
    return abs(value - ref) <= rel * max(floor, abs(ref))


def _bounds_rows(rows, ref_rows) -> str | None:
    for row in rows:
        if not row["cf_rate"] <= row["new_bound"] <= row["cutset"]:
            return (f"ordering cf_rate <= new_bound <= cutset violated at "
                    f"snr={row['snr']} c0={row['c0']}")
        if not row["new_bound"] < row["c_infinity"]:
            return (f"new_bound not strictly below c_infinity at "
                    f"snr={row['snr']} c0={row['c0']}")
    if ref_rows is None:
        return None
    if len(rows) != len(ref_rows):
        return f"{len(rows)} rows, reference has {len(ref_rows)}"
    for row, ref in zip(rows, ref_rows):
        if (row["snr"], row["c0"]) != (ref["snr"], ref["c0"]):
            return f"row for snr={row['snr']} c0={row['c0']} out of order"
        for col in ("cutset", "cf_rate", "c_infinity"):
            if not _near(row[col], ref[col], CLOSED_FORM_REL_TOL):
                return f"{col}={row[col]!r} differs from reference {ref[col]!r}"
        if abs(row["new_bound"] - ref["new_bound"]) > NEW_BOUND_ABS_TOL:
            return f"new_bound={row['new_bound']!r} differs from reference {ref['new_bound']!r}"
    return None


def _gap_rows(rows, ref_rows) -> str | None:
    (row,) = rows
    if not row["gap_lower_bound"] > 0.0:
        return f"gap_lower_bound={row['gap_lower_bound']!r} is not positive"
    if not row["certified_bound"] < row["c_infinity"]:
        return "certified_bound not strictly below c_infinity"
    if ref_rows is not None and not _near(row["delta1"], ref_rows[0]["delta1"], DELTA1_REL_TOL):
        return f"delta1={row['delta1']!r} differs from reference {ref_rows[0]['delta1']!r}"
    return None


def _geom_rows(rows, ref_rows) -> str | None:
    (row,) = rows
    for key, value in row.items():
        if not math.isfinite(value):
            return f"{key}={value!r} is not finite"
    if ref_rows is None:
        return None
    ref = ref_rows[0]
    if list(row) != list(ref):
        return f"columns {list(row)} differ from reference {list(ref)}"
    for key, value in row.items():
        if not _near(value, ref[key], GEOM_REL_TOL, floor=1.0):
            return f"{key}={value!r} differs from reference {ref[key]!r}"
    return None


def _mc_rows(rc: int, rows) -> str | None:
    (row,) = rows
    verdict = row["verdict"]
    if verdict not in VERDICT_EXIT:
        return f"unknown verdict {verdict!r}"
    if rc != VERDICT_EXIT[verdict]:
        return f"exit {rc} does not match verdict {verdict!r}"
    if verdict == "fail":
        return "verdict fail"
    return None


_ROW_CHECKS = {"sweep": _bounds_rows, "bound": _bounds_rows, "gap": _gap_rows,
               "geom": _geom_rows}


def check_rows(kind: str, rc: int, rows, ref_rows=None) -> str | None:
    """Problem with one request's parsed rows, or None when it is correct.

    `kind` is the request family ("sweep", "bound", "gap", "geom", "mc");
    `ref_rows` are the reference rows, or None where the reference request
    itself failed (then only the invariants apply).
    """
    if kind == "mc":
        if rows is None:
            return f"exit {rc} without a record"
        return _mc_rows(rc, rows)
    if rc != 0:
        return f"exit {rc}"
    return _ROW_CHECKS[kind](rows, ref_rows)


def check_output(kind: str, rc: int, stdout: str, ref_rows=None) -> str | None:
    """Like check_rows, starting from the raw stdout of the request."""
    try:
        rows = json.loads(stdout)["rows"] if stdout else None
        return check_rows(kind, rc, rows, ref_rows)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed record: {exc!r}"
