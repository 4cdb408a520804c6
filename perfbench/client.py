"""In-process client for the relaycap CLI: one closed-loop caller, no threads.

Each request is a full `relaycap.cli.main(argv)` call with stdout and
stderr captured, so argument parsing, computation and record rendering are
all inside the timed region, exactly as a user of the CLI pays for them.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no relaycap sources to benchmark."""


def load_cli():
    """Import `relaycap.cli` from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "relaycap" / "cli.py").is_file():
        raise MissingProgram(f"no relaycap sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from relaycap import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise MissingProgram(f"relaycap imported from {cli.__file__}, not from {SRC}")
    return cli


@dataclass(frozen=True)
class Outcome:
    """What one CLI request returned: exit code, stdout, stderr, latency."""

    rc: int
    stdout: str
    stderr: str
    seconds: float


def execute(cli, argv) -> Outcome:
    """Run one request through `cli.main`, the attribute a tracer may wrap."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a flag
            rc = exc.code if isinstance(exc.code, int) else 2
    seconds = time.perf_counter() - t0
    return Outcome(rc, out.getvalue(), err.getvalue(), seconds)
