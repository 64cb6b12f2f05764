"""Start ``repro serve``, optionally with span recorders in the daemon.

Usage::

    python3 perfbench/serve.py [--spans FILE] -- serve --store DIR ...

Everything after ``--`` is handed to the package's own command line.  With
``--spans`` the daemon records spans around planning, job submission,
worker-pool dispatch and persistence, keeps them in memory and writes them
to FILE as JSON when the daemon exits.  Each dispatch span carries the
worker-side execution seconds of the cells it ran, so the time a dispatch
spent queued and in transit is its duration minus that.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Tuple


def _execute_seconds(attributes: Dict, _args: Tuple, _kwargs: Dict, outcome: Any) -> None:
    outcomes = outcome if isinstance(outcome, list) else [outcome]
    attributes["execute_s"] = sum(meta["seconds"] for _, meta in outcomes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="write the daemon's spans here on exit")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    from repro.cli import main as repro_main

    if args.spans is None:
        return repro_main(command)

    from perfbench.spans import Recorder, install
    from repro.service import Scheduler, WorkerPool

    recorder = Recorder()
    installation = install(recorder, extra=[
        (Scheduler, "submit", "service.submit", None),
        (WorkerPool, "run", "service.dispatch", _execute_seconds),
        (WorkerPool, "run_group", "service.dispatch", _execute_seconds),
    ])
    try:
        return repro_main(command)
    finally:
        installation.uninstall()
        Path(args.spans).write_text(json.dumps(recorder.spans))


if __name__ == "__main__":
    sys.exit(main())
