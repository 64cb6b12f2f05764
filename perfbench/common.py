"""Shared pieces of the workloads: calibrated timing, pass results, output
checks and scenario specs."""

from __future__ import annotations

import json
import statistics
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from perfbench.spans import STAGES, Recorder, self_times, union_seconds


#: Spec seeds stay below this.  Repetition seeds derived from a larger base
#: seed can exceed the signed 64-bit integers of the warehouse index.
SEED_RANGE = 3000


def sub_seed(seed: int, *tags: Any) -> int:
    """A deterministic small seed for one named part of a workload."""
    return zlib.crc32("/".join(str(part) for part in (seed, *tags)).encode()) % SEED_RANGE


#: The speed of a shared box drifts by a quarter within seconds to tens of
#: seconds, and a plain CPU loop drifts with it.  Every timed step is
#: bracketed by calibration loops and reported in reference seconds: the
#: seconds it would take on a box where one loop takes this long.
CALIBRATION_REFERENCE_S = 0.012
CALIBRATION_ITERATIONS = 150_000


def calibrate() -> float:
    """Median seconds of three runs of a fixed pure-Python loop."""
    loops = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(CALIBRATION_ITERATIONS):
            total += value * value
        loops.append(time.perf_counter() - started)
    return statistics.median(loops)


def speed(before: float, after: float) -> float:
    """Reference seconds per measured second between two calibrations."""
    return CALIBRATION_REFERENCE_S / ((before + after) / 2)


class Session:
    """The timed steps of one pass.  A step is one or more pieces of work,
    each bracketed by calibration loops whose own time is not counted."""

    def __init__(self) -> None:
        #: ``(name, [(start, end, speed), ...])`` per step, in order.
        self.steps: List[Tuple[str, List[Tuple[float, float, float]]]] = []
        self.calibrations: List[float] = []

    def step(self, name: str, function: Callable[[], Any]) -> Any:
        return self.stream(name, [function], lambda _: False)[-1]

    def stream(self, name: str, items: Iterable[Any],
               boundary: Callable[[Any], bool]) -> List[Any]:
        """Consume ``items`` as one step, calibrating again after every
        item for which ``boundary`` holds.  Callable items are called."""
        pieces: List[Tuple[float, float, float]] = []
        results: List[Any] = []
        before = calibrate()
        started = time.monotonic()
        piece_open = True
        for item in items:
            piece_open = True
            results.append(item() if callable(item) else item)
            if boundary(results[-1]):
                ended = time.monotonic()
                after = calibrate()
                pieces.append((started, ended, speed(before, after)))
                self.calibrations += [before, after]
                before = after
                started = time.monotonic()
                piece_open = False
        if piece_open:
            ended = time.monotonic()
            after = calibrate()
            pieces.append((started, ended, speed(before, after)))
            self.calibrations += [before, after]
        self.steps.append((name, pieces))
        return results

    def pieces(self, name: str) -> List[Tuple[float, float, float]]:
        """``(start, end, speed)`` of each piece of the first such step."""
        return next(pieces for step, pieces in self.steps if step == name)

    def reference(self, name: str) -> List[float]:
        """Reference seconds of every step called ``name``."""
        return [sum((end - start) * factor for start, end, factor in pieces)
                for step, pieces in self.steps if step == name]

    @property
    def windows(self) -> List[Tuple[float, float]]:
        return [(start, end) for _, pieces in self.steps for start, end, _ in pieces]


@dataclass
class Pass:
    """One timed pass: a user session of run step, analyze and report."""

    traced: bool
    session: Session
    #: Plan cells the run step resolved (executed or served from the store).
    cells: int
    #: Reference seconds of every job the run step waited on.
    jobs: List[float]
    #: Exact work counts; two passes on the same inputs must agree.
    counts: Dict[str, float]
    #: Per-layer metrics (traced passes only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Per-layer self-time rows (traced passes only).
    table: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Raw spans of a traced pass, written out when the run ends.
    spans: Optional[Dict[str, Any]] = None

    @property
    def rerun_s(self) -> float:
        return self.session.reference("run")[0]

    @property
    def analyze_s(self) -> float:
        return statistics.median(self.session.reference("analyze"))

    @property
    def report_s(self) -> float:
        return statistics.median(self.session.reference("report"))

    @property
    def wall_s(self) -> float:
        return self.rerun_s + self.analyze_s + self.report_s

    @property
    def measured_s(self) -> float:
        """Raw seconds inside the pass's timed steps."""
        return sum(end - start for start, end in self.session.windows)


class Checker:
    """Counts output checks; ``error_rate`` is failed ÷ attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def expect(self, condition: bool, message: str) -> bool:
        self.attempted += 1
        if not condition:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)
        return condition

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def make_spec(algorithm: str, n: int, repetitions: int, seed: int,
              adversary: str = "churn"):
    """One grid cell: a paper algorithm on its natural problem at size n."""
    from repro import ScenarioSpec

    problem, params = {
        "single-source": ("single-source", {"num_nodes": n, "num_tokens": n + n // 3}),
        "multi-source": ("multi-source",
                         {"num_nodes": n, "num_tokens": (5 * n) // 6, "num_sources": 3}),
        "naive-unicast": ("multi-source",
                          {"num_nodes": n, "num_tokens": (3 * n) // 4, "num_sources": 4}),
        "one-shot-flooding": ("random-placement", {"num_nodes": n, "num_tokens": n // 2}),
        "oblivious": ("multi-source", {"num_nodes": n, "num_tokens": n, "num_sources": 2}),
        "flooding": ("single-source", {"num_nodes": n, "num_tokens": n}),
        "spanning-tree": ("single-source", {"num_nodes": n, "num_tokens": n}),
    }[algorithm]
    adversary_params = {
        "churn": {"changes_per_round": 2},
        "static-random": {"num_nodes": n, "seed": sub_seed(seed, "graph", n)},
        "adaptive-rewiring": {},
    }[adversary]
    return ScenarioSpec(problem=problem, problem_params=params, algorithm=algorithm,
                        adversary=adversary, adversary_params=adversary_params,
                        repetitions=repetitions, seed=seed)


def disseminated(record: Mapping[str, Any]) -> bool:
    """Whether a record reached the outcome its algorithm guarantees.

    One-shot flooding is the paper's optimistic baseline: it broadcasts each
    token once per node and may legitimately stop short under churn, so its
    outcome is checked against the bitset backend instead."""
    return bool(record["completed"]) or record["spec"]["algorithm"] == "one-shot-flooding"


def _without_backend(record: Mapping[str, Any]) -> Dict[str, Any]:
    copy = dict(record)
    copy["spec"] = {key: value for key, value in record["spec"].items() if key != "backend"}
    return copy


def check_sweep_records(checker: Checker, plan_cells: int,
                        records: Sequence[Mapping[str, Any]]) -> None:
    """Every record disseminates, one per plan cell, and one repetition per
    scenario re-executed on the ``bitset`` backend matches field by field."""
    from dataclasses import replace

    from repro import ScenarioSpec
    from repro.api import execute_cell

    checker.expect(len(records) == plan_cells,
                   f"{len(records)} records for {plan_cells} plan cells")
    for record in records:
        checker.expect(disseminated(record),
                       f"{record['scenario']} repetition {record['repetition']} incomplete")
    first: Dict[str, Mapping[str, Any]] = {}
    for record in records:
        first.setdefault(json.dumps(record["spec"], sort_keys=True), record)
    for record in first.values():
        spec = replace(ScenarioSpec.from_dict(record["spec"]), backend="bitset")
        again, _ = execute_cell(spec, record["repetition"])
        checker.expect(_without_backend(again) == _without_backend(record),
                       f"{record['scenario']} repetition {record['repetition']} "
                       f"differs on the bitset backend")


def record_counts(records: Sequence[Mapping[str, Any]]) -> Dict[str, float]:
    """Work counts read off executed records."""
    return {
        "rounds": sum(record["rounds"] for record in records),
        "messages": sum(record["total_messages"] for record in records),
        "topological_changes": sum(record["topological_changes"] for record in records),
    }


def kernel_layers(stage_seconds: Mapping[str, float], execute_group_s: float,
                  executed: Sequence[Mapping[str, Any]], batch_cells: int) -> Dict[str, float]:
    """Kernel, adversary, algorithm and batch metrics of executed cells."""
    counts = record_counts(executed)
    adversary_s = stage_seconds.get("adversary", 0.0)
    delivery_s = stage_seconds.get("delivery", 0.0)
    layers = {f"kernel.{stage}_s": stage_seconds.get(stage, 0.0) for stage in STAGES}
    layers.update({
        "kernel.unattributed_s": execute_group_s - sum(stage_seconds.values()),
        "kernel.rounds": counts["rounds"],
        "adversaries.topological_changes": counts["topological_changes"],
        "adversaries.us_per_round": (1e6 * adversary_s / counts["rounds"]
                                     if counts["rounds"] else 0.0),
        "algorithms.messages": counts["messages"],
        "algorithms.delivery_ns_per_message": (1e9 * delivery_s / counts["messages"]
                                               if counts["messages"] else 0.0),
        "batch.lanes": batch_cells,
        "batch.fallback_cells": len(executed) - batch_cells,
        "api.execute_group_s": execute_group_s,
        "api.vectorized_ratio": batch_cells / len(executed) if executed else 0.0,
    })
    return layers


def recorder_layers(recorder: Recorder) -> Dict[str, float]:
    """Span totals and counts of the results, warehouse and api layers."""
    seconds = recorder.seconds
    return {
        "api.plan_s": seconds("api.plan"),
        "scenarios.materialize_s": seconds("scenarios.materialize"),
        "scenarios.record_build_s": seconds("scenarios.record_build"),
        "results.store_add_s": seconds("results.store_add"),
        "results.aggregate_s": seconds("results.aggregate"),
        "results.bootstrap_s": seconds("results.bootstrap"),
        "results.bootstrap_draws": recorder.total("bootstrap_draws"),
        "results.report_render_s": seconds("results.report_render"),
        "warehouse.sync_s": seconds("warehouse.sync"),
        "warehouse.lookup_s": seconds("warehouse.lookup"),
        "warehouse.query_aggregate_s": seconds("warehouse.query_aggregate"),
        "warehouse.shards_read": recorder.total("shards_read"),
        "warehouse.shards_skipped": recorder.total("shards_skipped"),
    }


def covered_seconds(spans: Sequence[Sequence[Any]],
                    windows: Sequence[Tuple[float, float]]) -> float:
    """Seconds of the timed steps covered by at least one root span."""
    roots = [(span[1], span[2]) for span in spans if span[3] is None]
    return sum(union_seconds(roots, window) for window in windows)


def layer_table(spans: Sequence[Sequence[Any]], windows: Sequence[Tuple[float, float]],
                stage_seconds: Mapping[str, float],
                stage_parent: str) -> Dict[str, Dict[str, float]]:
    """Self-time rows of one pass.  Kernel stages count as children of
    ``stage_parent`` and the step time outside every span is its own row."""
    rows = self_times(spans)
    if stage_seconds and stage_parent in rows:
        rows[stage_parent]["self_s"] -= sum(stage_seconds.values())
        for stage, value in stage_seconds.items():
            rows[f"kernel.{stage}"] = {"calls": 0, "total_s": value, "self_s": value}
    outside = sum(end - start for start, end in windows) - covered_seconds(spans, windows)
    rows["(outside spans)"] = {"calls": 0, "total_s": outside, "self_s": outside}
    return rows


def coverage(spans: Sequence[Sequence[Any]], windows: Sequence[Tuple[float, float]]) -> float:
    """Share of the timed steps' wall clock covered by at least one span."""
    measured = sum(end - start for start, end in windows)
    return covered_seconds(spans, windows) / measured if measured > 0 else 0.0
