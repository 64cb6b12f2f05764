"""In-memory span recording around the public entry points of each layer.

The benchmark never edits the package: :func:`install` swaps each listed
entry point for a thin wrapper that records a span (name, start, end,
parent, work counts) into a :class:`Recorder`, and
:meth:`Installation.uninstall` puts the originals back.  Functions
re-exported under other module names (for example ``repro.api`` importing
``render_report``) are rebound everywhere they appear, so a call through
any binding is recorded.

Spans stay in memory; the caller writes them out when the run ends.
Timestamps come from :func:`time.monotonic`, which on Linux is the
system-wide monotonic clock, so spans recorded in the service daemon line
up with the client's own timestamps.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Kernel stages reported by ``Experiment.observe(timings=True)``.
STAGES = ("commit", "adversary", "delivery", "accounting")


class Recorder:
    """Spans of one traced run, kept in memory."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, attributes]`` per span, in
        #: start order; hooks put work counts into ``attributes``.
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []

    def open(self, name: str, nested: bool = True) -> int:
        parent = self._stack[-1] if (nested and self._stack) else None
        self.spans.append([name, time.monotonic(), None, parent, {}])
        index = len(self.spans) - 1
        if nested:
            self._stack.append(index)
        return index

    def close(self, index: int, nested: bool = True) -> None:
        self.spans[index][2] = time.monotonic()
        if nested:
            self._stack.pop()

    def seconds(self, name: str) -> float:
        """Total duration of every closed span called ``name``."""
        return sum(span[2] - span[1] for span in self.spans
                   if span[0] == name and span[2] is not None)

    def total(self, attribute: str) -> float:
        """Sum of one attribute over every span that carries it."""
        return sum(span[4].get(attribute, 0) for span in self.spans)


def _bootstrap_draws(attributes: Dict, args: Tuple, kwargs: Dict, _result: Any) -> None:
    from repro.results.aggregate import DEFAULT_RESAMPLES

    values = args[0] if args else kwargs["values"]
    if len(values) > 1:
        attributes["bootstrap_draws"] = (
            kwargs.get("resamples", DEFAULT_RESAMPLES) * len(values))


def _sync_stats(attributes: Dict, _args: Tuple, _kwargs: Dict, stats: Any) -> None:
    attributes["shards_read"] = stats.shards_read
    attributes["shards_skipped"] = stats.shards_skipped


def _targets() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, count hook)`` for every entry point."""
    # import_module, because packages re-export functions under the names
    # of their modules (``repro.results.aggregate`` is also a function).
    api = importlib.import_module("repro.api")
    aggregate = importlib.import_module("repro.results.aggregate")
    report = importlib.import_module("repro.results.report")
    runner = importlib.import_module("repro.scenarios.runner")
    from repro.results.store import RunStore
    from repro.warehouse import WarehouseIndex, WarehouseQuery

    return [
        (api.Experiment, "plan", "api.plan", None),
        (api, "execute_group", "api.execute_group", None),
        (runner, "materialize", "scenarios.materialize", None),
        (runner, "record_from_result", "scenarios.record_build", None),
        (RunStore, "add", "results.store_add", None),
        (RunStore, "flush", "results.store_flush", None),
        (RunStore, "records", "results.store_read", None),
        (WarehouseIndex, "sync", "warehouse.sync", _sync_stats),
        (WarehouseQuery, "repetitions_present", "warehouse.lookup", None),
        (WarehouseQuery, "aggregate", "warehouse.query_aggregate", None),
        (WarehouseQuery, "records", "warehouse.records", None),
        (aggregate, "aggregate", "results.aggregate", None),
        (aggregate, "bootstrap_ci", "results.bootstrap", _bootstrap_draws),
        (report, "render_report", "results.report_render", None),
    ]


def _wrap(recorder: Recorder, name: str, original: Callable,
          hook: Optional[Callable]) -> Callable:
    if inspect.iscoroutinefunction(original):
        # Coroutines interleave on the event loop, so their spans are
        # recorded flat instead of on the nesting stack.
        @functools.wraps(original)
        async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
            index = recorder.open(name, nested=False)
            try:
                result = await original(*args, **kwargs)
            finally:
                recorder.close(index, nested=False)
            if hook is not None:
                hook(recorder.spans[index][4], args, kwargs, result)
            return result

        return async_wrapper

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = recorder.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(index)
        if hook is not None:
            hook(recorder.spans[index][4], args, kwargs, result)
        return result

    return wrapper


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (module functions imported under several names)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


class Installation:
    """The wrappers :func:`install` put in place, ready to be removed."""

    def __init__(self) -> None:
        self._patches: List[Tuple[Any, str, Any, Any]] = []

    def patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        original = vars(owner)[attribute]
        if inspect.ismodule(owner):
            _rebind(original, replacement)
        else:
            setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original, replacement))

    def uninstall(self) -> None:
        for owner, attribute, original, replacement in reversed(self._patches):
            if inspect.ismodule(owner):
                _rebind(replacement, original)
            else:
                setattr(owner, attribute, original)
        self._patches.clear()


def install(recorder: Recorder,
            extra: Sequence[Tuple[Any, str, str, Optional[Callable]]] = ()) -> Installation:
    """Wrap every layer entry point (plus ``extra`` targets) in spans."""
    installation = Installation()
    for owner, attribute, name, hook in list(_targets()) + list(extra):
        original = vars(owner)[attribute]
        installation.patch(owner, attribute, _wrap(recorder, name, original, hook))
    return installation


# -- analysis ----------------------------------------------------------------


def union_seconds(intervals: Sequence[Tuple[float, float]],
                  window: Tuple[float, float]) -> float:
    """Length of the union of ``intervals`` clipped to ``window``."""
    low, high = window
    clipped = sorted((max(start, low), min(end, high)) for start, end in intervals
                     if end is not None and end > low and start < high)
    covered = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans: Sequence[Sequence[Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds and self seconds (total minus
    the time its child spans cover)."""
    child_seconds: Dict[int, float] = defaultdict(float)
    for _name, start, end, parent, _attributes in spans:
        if parent is not None and end is not None:
            child_seconds[parent] += end - start
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for index, (name, start, end, _parent, _attributes) in enumerate(spans):
        if end is None:
            continue
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - child_seconds[index]
    return dict(table)


def render_self_time_table(workload: str, rows: Dict[str, Dict[str, float]],
                           wall_s: float) -> str:
    """A fixed-width per-layer self-time table, largest self time first.
    Shares are of the pass's timed steps; spans that overlap in time (the
    service's concurrent worker dispatches) can add up to more than 100%."""
    lines = [
        f"per-layer self time, {workload} (median traced pass, {wall_s:.3f} s of timed steps)",
        f"{'layer':<30} {'calls':>8} {'total_s':>10} {'self_s':>10} {'share':>7}",
    ]
    for name, row in sorted(rows.items(), key=lambda item: -item[1]["self_s"]):
        share = row["self_s"] / wall_s if wall_s > 0 else 0.0
        lines.append(f"{name:<30} {int(row['calls']):>8} {row['total_s']:>10.4f} "
                     f"{row['self_s']:>10.4f} {share:>6.1%}")
    return "\n".join(lines)
