"""Every module under ``src/repro`` imports first, in a fresh interpreter.

A module that only imports cleanly once some other module has been loaded
hides an import cycle: the test suite never notices, because by the time a
test imports it the package is already initialized.  Each module here is
the first thing a brand-new interpreter imports.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from typing import List

import repro

#: Interpreters started at once.
_CONCURRENT = 4


def _module_names() -> List[str]:
    return ["repro"] + sorted(
        module.name for module in pkgutil.walk_packages(repro.__path__, "repro.")
    )


def test_every_module_imports_in_a_fresh_interpreter():
    names = _module_names()
    assert "repro.backends.batch" in names
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    failures = []
    for start in range(0, len(names), _CONCURRENT):
        running = [
            (name, subprocess.Popen(
                [sys.executable, "-c", f"import {name}"],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            ))
            for name in names[start:start + _CONCURRENT]
        ]
        for name, process in running:
            try:
                _, stderr = process.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                process.kill()
                process.communicate()
                failures.append(f"{name}: import did not finish in 120 s")
                continue
            if process.returncode != 0:
                failures.append(f"{name}:\n{stderr.strip()}")
    assert not failures, "\n".join(failures)
