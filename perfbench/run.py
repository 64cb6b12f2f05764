"""End-to-end reproduction benchmark: run one workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload unicast-sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``unicast-sweep`` – cold ``Experiment.run()`` of the unicast family
  against churn, plus one adaptive cell on the reference engine;
* ``flood-sweep`` – cold flooding (k = n) and spanning-tree sweeps on a
  static random graph, where batch lanes and per-lane set-up carry the work;
* ``store-reanalyze`` – warm re-run of a ~4k-record indexed store with a
  small delta, then indexed ``analyze`` and the full report;
* ``service-jobs`` – two closed-loop clients submitting overlapping jobs
  to ``repro serve`` with two workers.

Every pass is one session: run step, analyze, report.  The run builds the
package from ``src/`` of the directory it runs in, times set-up three
times, repeats passes on the same inputs until ``--seconds`` would be
exceeded, and checks outputs outside the timed passes.  Every pass starts
from a fresh store (and, for the service, a fresh daemon).  With
``--trace 0`` it reports the end-to-end metrics (medians over passes);
with ``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics of the traced passes, prints a per-layer self-time
table and writes the spans under ``.perfbench/traces/``.

End-to-end timings are in reference seconds (see
``perfbench.common.CALIBRATION_REFERENCE_S``): each set-up and each timed
step is bracketed by a short calibration loop, so the drift of a shared
box's speed cancels out; the raw seconds are kept in the results file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``error_rate``
(failed ÷ attempted checks) is printed above it.  Exact work counts are
kept per seed under ``.perfbench/counts/``; a later run with the same seed
and the same sources that counts different work is a determinism failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path.cwd()
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

def tail(samples: List[float]) -> Tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.  With
    fewer than 21 samples that percentile would lie below the median, and
    the median is reported instead (a maximum of a few samples is noise)."""
    ordered = sorted(samples)
    index = len(ordered) - 11
    if index < len(ordered) // 2:
        return statistics.median(ordered), f"p50 of {len(ordered)}, too few for a tail"
    return ordered[index], f"p{math.floor(100 * (index + 1) / len(ordered))} of {len(ordered)}"


def fingerprint(calibrations: List[float]) -> Dict[str, Any]:
    """Where the run happened, so readings from two boxes can be compared."""
    import networkx
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "calibration_ms": round(1000 * statistics.median(calibrations), 3),
    }


def source_digest() -> str:
    """Identifies the program and the benchmark that counted the work."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_determinism(checker: Any, workload: str, seed: int, size: str,
                      passes: List[Any]) -> None:
    """Identical inputs must do identical work: every pass of this run, and
    earlier runs with the same seed and sources."""
    counts = [result.counts for result in passes]
    for later in counts[1:]:
        common = set(later) & set(counts[0])
        checker.expect(all(later[key] == counts[0][key] for key in common),
                       f"work counts differ between passes: {later} vs {counts[0]}")
    path = (ROOT / ".perfbench" / "counts"
            / f"{workload}-{size}-seed{seed}-{source_digest()}.json")
    if path.exists():
        earlier = json.loads(path.read_text())
        for before, now in zip(earlier, counts):
            common = set(before) & set(now)
            checker.expect(all(before[key] == now[key] for key in common),
                           f"work counts differ from an earlier run with seed {seed}: "
                           f"{now} vs {before}")
        if len(earlier) >= len(counts):
            return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts))


def end_to_end(workload: Any, setups: List[float], passes: List[Any]) -> Tuple[Dict, Dict]:
    """Medians over untraced passes, in reference seconds."""
    untraced = [result for result in passes if not result.traced]
    jobs = [latency for result in untraced for latency in result.jobs]
    analyze = [sample for result in untraced for sample in result.session.reference("analyze")]
    report = [sample for result in untraced for sample in result.session.reference("report")]
    job_tail, tail_label = tail(jobs)

    def median(attribute: str) -> float:
        return statistics.median(getattr(result, attribute) for result in untraced)

    values = {
        "setup_s": statistics.median(setups),
        "wall_s": median("wall_s"),
        "cells_per_s": statistics.median(result.cells / result.rerun_s for result in untraced),
        "rerun_s": median("rerun_s"),
        "analyze_s": statistics.median(analyze),
        "report_s": statistics.median(report),
        "job_p50_s": statistics.median(jobs),
        "job_tail_s": job_tail,
        "peak_rss_mb": workload.peak_rss_mb,
    }
    samples = {name: len(untraced) for name in values}
    samples.update(setup_s=len(setups), job_p50_s=len(jobs), job_tail_s=len(jobs),
                   analyze_s=len(analyze), report_s=len(report),
                   peak_rss_mb=1)
    return values, {"samples": samples, "job_tail": tail_label}


def per_layer(names: List[str], passes: List[Any]) -> Tuple[Dict, Dict]:
    """Medians over traced passes; the overhead ratio pairs them with the
    untraced passes of the same run."""
    traced = [result for result in passes if result.traced]
    untraced = [result for result in passes if not result.traced]
    values = {name: statistics.median(result.layers[name] for result in traced)
              for name in names if name != "obs.trace_overhead_ratio"}
    values["obs.trace_overhead_ratio"] = (
        statistics.median(result.wall_s for result in traced)
        / statistics.median(result.wall_s for result in untraced))
    median_pass = sorted(traced, key=lambda result: result.wall_s)[(len(traced) - 1) // 2]
    return values, {"samples": {name: len(traced) for name in values},
                    "table_pass": median_pass}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (the benchmark's own tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no package sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.common import Checker, calibrate, speed
    from perfbench.spans import render_self_time_table
    from perfbench.workloads import FULL, TINY, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    size = "tiny" if args.tiny else "full"
    workload = WORKLOADS[args.workload](ROOT, args.seed, TINY if args.tiny else FULL)
    checker = Checker()
    calibrations: List[float] = []
    try:
        setups, raw_setups = [], []
        for _ in range(SETUPS):
            before = calibrate()
            started = time.monotonic()
            workload.setup()
            raw_setups.append(time.monotonic() - started)
            after = calibrate()
            calibrations += [before, after]
            setups.append(raw_setups[-1] * speed(before, after))

        passes: List[Any] = []
        started = time.monotonic()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(workload.run_pass(len(passes), traced))
            calibrations += passes[-1].session.calibrations
            elapsed = time.monotonic() - started
            needs_both = args.trace and len(passes) < 2
            if not needs_both and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        workload.finish(passes)
        workload.check(checker)
        check_determinism(checker, args.workload, args.seed, size, passes)
    finally:
        workload.close()

    machine = fingerprint(calibrations)
    details: Dict[str, Any] = {"workload": args.workload, "seed": args.seed, "size": size,
                               "passes": len(passes), "fingerprint": machine,
                               "counts": [result.counts for result in passes],
                               "raw_setup_s": raw_setups,
                               "pass_steps": [{"traced": result.traced,
                                               "steps": result.session.steps}
                                              for result in passes],
                               "error_rate": checker.error_rate,
                               "failures": checker.failures}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"]
             for metric in declared["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        values, extra = per_layer(list(units), passes)
        table_pass = extra.pop("table_pass")
        table = render_self_time_table(args.workload, table_pass.table, table_pass.measured_s)
        print(table)
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {**details, "layers": values,
             "passes": [{"traced": result.traced, "measured_s": result.measured_s,
                         "table": result.table, "spans": result.spans}
                        for result in passes]}))
    else:
        values, extra = end_to_end(workload, setups, passes)
        print("timings in reference seconds (calibration-adjusted; raw seconds "
              "are in the results file)")
    details.update(extra)

    for name in units:
        note = f"  ({extra['job_tail']})" if name == "job_tail_s" else ""
        print(f"{name:<40} {values[name]:>14.6g} {units[name]:<6} "
              f"n={extra['samples'][name]}{note}")
    print(f"{'error_rate':<40} {checker.error_rate:>14.6g} ratio  "
          f"({checker.failed} of {checker.attempted} checks failed)")
    for failure in checker.failures:
        print(f"  check failed: {failure}")
    print("fingerprint " + json.dumps(machine, sort_keys=True))
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**details, "metrics": values}, indent=1))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
