"""Compare what two relaycap source trees print for the benchmark's requests.

    python3 tools/output_digest.py OLD_TREE NEW_TREE [--mc-seeds 1 2]

The requests are every argv of `perfbench/reference.json` (the `curves` and
`geom` pools) and the `mc` requests that `perfbench/workloads.py` draws for
each of `--mc-seeds`.  Both are read from this repository's `perfbench/`,
which is only read (no bytecode is written there).  Each tree runs them in
one fresh interpreter that imports `relaycap.cli` from `TREE/src` and calls
`main(argv)` with stdout and stderr captured, as the benchmark's client
does; the digest of a request is the sha256 of (exit code, stdout, stderr).

Prints, per group, how many requests have the same digest in both trees,
then each differing argv with both exit codes and, where both stdouts are
JSON records with the same layout, the relative move of each number that
differs, named by its key.  Exits 0 when every digest matches and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _requests(mc_seeds) -> list[tuple[str, list[str]]]:
    """(group, argv) of every request, in a fixed order."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    pool = workloads.load_pool()
    out = [(kind, list(entry["argv"]))
           for kind in ("curves", "geom") for stratum in pool[kind] for entry in stratum]
    for seed in mc_seeds:
        out += [(f"mc seed {seed}", list(r.argv)) for r in workloads.requests("mc", seed)]
    return out


def _worker(tree: str) -> None:
    """Run the argv lists on stdin through TREE's cli; one JSON line per request."""
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    from relaycap import cli

    for line in sys.stdin:
        argv = json.loads(line)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        blob = json.dumps([rc, out.getvalue(), err.getvalue()])
        sha = hashlib.sha256(blob.encode()).hexdigest()
        print(json.dumps([sha, rc, out.getvalue()]), flush=True)


def _run(tree: str, argvs) -> list:
    stdin = "".join(json.dumps(a) + "\n" for a in argvs)
    proc = subprocess.run(
        [sys.executable, "-B", __file__, "--worker", tree],
        input=stdin, capture_output=True, text=True, check=True,
    )
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _numbers(record, path=()):
    if isinstance(record, bool) or record is None or isinstance(record, str):
        return
    if isinstance(record, (int, float)):
        yield path, float(record)
    elif isinstance(record, dict):
        for key, value in record.items():
            yield from _numbers(value, path + (key,))
    elif isinstance(record, list):
        for i, value in enumerate(record):
            yield from _numbers(value, path + (i,))


def _moves(old: str, new: str) -> dict | None:
    """Relative move of each number that differs, by its path in the record.

    None where either stdout is not JSON or the two records differ in layout.
    """
    try:
        a = dict(_numbers(json.loads(old)))
        b = dict(_numbers(json.loads(new)))
    except ValueError:
        return None
    if a.keys() != b.keys():
        return None
    moves = {}
    for path, x in a.items():
        y = b[path]
        if x != y and not (math.isnan(x) and math.isnan(y)):
            finite = math.isfinite(x) and math.isfinite(y)
            moves[path] = abs(y - x) / max(abs(x), abs(y)) if finite else math.inf
    return moves


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_tree")
    ap.add_argument("new_tree")
    ap.add_argument("--mc-seeds", type=int, nargs="*", default=[1, 2])
    args = ap.parse_args(argv)

    reqs = _requests(args.mc_seeds)
    argvs = [a for _, a in reqs]
    old, new = _run(args.old_tree, argvs), _run(args.new_tree, argvs)
    groups: dict[str, list] = {}
    for (group, a), o, n in zip(reqs, old, new):
        groups.setdefault(group, []).append((a, o, n))
    differ = 0
    for group, rows in groups.items():
        moved = [(a, o, n) for a, o, n in rows if o[0] != n[0]]
        differ += len(moved)
        print(f"{group}: {len(rows)} requests, {len(rows) - len(moved)} identical, "
              f"{len(moved)} differ")
        for a, o, n in moved:
            moves = _moves(o[2], n[2]) if o[1] == n[1] else None
            note = "".join(f"; {p[-1]} {m:.3g}" for p, m in (moves or {}).items())
            print(f"  exit {o[1]} -> {n[1]}{note}: {' '.join(a)}")
    whole = [hashlib.sha256("".join(d[0] for d in side).encode()).hexdigest()
             for side in (old, new)]
    print(f"all requests: old {whole[0]}, new {whole[1]}")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(sys.argv[2])
    else:
        sys.exit(main())
