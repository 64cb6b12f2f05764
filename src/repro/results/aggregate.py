"""Group-by aggregation of run records with bootstrap confidence intervals.

:func:`aggregate` groups records along any spec axis (record fields,
component names, or dotted component parameters — see
:meth:`repro.results.records.RunRecord.axis_value`) and summarizes each
metric with mean / median / stddev / min / max plus a percentile-bootstrap
confidence interval for the mean.

Everything is deterministic **and order-independent**: group values are
sorted before any statistic is computed and the bootstrap generator is
seeded from the group key and metric name, so aggregating records produced
by a parallel sweep yields byte-identical rows to aggregating the serial
run — or the same records shuffled.

The bootstrap works on arrays without changing a single result.  The
resample draws replay the caller's :class:`random.Random` Mersenne Twister
in numpy — the same 53-bit doubles, hence the same indices
``random.choices`` would pick — and each resample mean is exact integer
arithmetic: the metric values (floats) are scaled once to a shared
power-of-two denominator, every resample is summed in int64 and divided
once, which CPython rounds correctly.  The means therefore equal
``statistics.mean``'s exact-fraction results, and the generator is left in
the state ``random.choices`` would leave it in.
"""

from __future__ import annotations

import json
import math
import random
import threading
from statistics import mean, median, pstdev
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.results.records import RunRecord, coerce_record
from repro.utils.rng import derive_seed
from repro.utils.validation import ConfigurationError

#: Metrics summarized when the caller does not choose.
DEFAULT_METRICS: Tuple[str, ...] = (
    "total_messages",
    "amortized_messages",
    "rounds",
    "topological_changes",
    "amortized_adversary_competitive",
)

#: Group-by axes used when the caller does not choose.
DEFAULT_GROUP_BY: Tuple[str, ...] = ("algorithm", "adversary", "n", "k")

#: Bootstrap resamples for the confidence interval of the mean.
DEFAULT_RESAMPLES = 200

#: Most bootstrap draws held in memory at once (bounds the index arrays).
_BLOCK_DRAWS = 1 << 18

#: Resample sums below this magnitude cannot overflow int64.
_INT64_SAFE = 1 << 62

#: Holds each thread's scratch numpy generator.
_THREAD_LOCAL = threading.local()


def bootstrap_ci(
    values: Sequence[float],
    *,
    confidence: float = 0.95,
    resamples: int = DEFAULT_RESAMPLES,
    rng: random.Random,
) -> Tuple[float, float]:
    """A percentile-bootstrap confidence interval for the mean of ``values``.

    Returns exactly what sorting ``statistics.mean(rng.choices(values,
    k=len(values)))`` over ``resamples`` draws would, and leaves ``rng`` in
    the same state.  Finite ``float`` samples (what
    :meth:`RunRecord.metric_value` yields) drawn with a plain
    :class:`random.Random` take the array path; anything else (another
    generator class, ints, bools, fractions, non-finite values) runs that
    loop.
    """
    if not values:
        raise ConfigurationError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must lie in (0, 1), got {confidence}")
    if len(values) == 1:
        return (values[0], values[0])
    means = _exact_resample_means(values, resamples, rng)
    if means is None:
        means = [mean(rng.choices(values, k=len(values))) for _ in range(resamples)]
    means.sort()
    tail = (1.0 - confidence) / 2.0
    low_index = int(tail * (resamples - 1))
    high_index = int((1.0 - tail) * (resamples - 1))
    return (means[low_index], means[high_index])


def _scaled_numerators(values: Sequence[Any]) -> Optional[Tuple[List[int], int]]:
    """``(numerators, denominator)`` with ``values[i] == numerators[i] /
    denominator`` exactly, or ``None`` unless every value is a finite
    ``float``.  Float denominators are powers of two, so the largest one is
    a multiple of all of them."""
    ratios = []
    for value in values:
        if type(value) is not float or not math.isfinite(value):
            return None
        ratios.append(value.as_integer_ratio())
    denominator = max(ratio[1] for ratio in ratios)
    return [numerator * (denominator // scale) for numerator, scale in ratios], denominator


def _twister() -> np.random.RandomState:
    """This thread's scratch generator; its state is overwritten before
    every use.  Building a ``RandomState`` costs about 0.2 ms, several
    times a small group's whole bootstrap: a fresh one per call made the
    unicast-sweep benchmark's analyze and report steps 37-50% slower."""
    twister = getattr(_THREAD_LOCAL, "twister", None)
    if twister is None:
        twister = _THREAD_LOCAL.twister = np.random.RandomState()
    return twister


def _replayed_indices(rng: random.Random, n: int, resamples: int) -> Iterator[np.ndarray]:
    """The indices ``rng.choices(population_of_n, k=n)`` would pick, one
    ``(rows, n)`` block at a time, ``resamples`` rows in all.

    numpy's legacy ``RandomState`` is the same MT19937 as CPython's
    ``random``, and ``random_sample`` builds its doubles from two words the
    same way ``random()`` does (``genrand_res53``).  Loaded with a copy of
    ``rng``'s state it yields the same doubles, and ``floor(u * n)`` is the
    index ``choices`` computes.  Once the blocks are exhausted ``rng`` is
    advanced to the state after the last draw; its cached ``gauss_next``
    is kept.
    """
    version, internal, gauss_next = rng.getstate()
    twister = _twister()
    twister.set_state(("MT19937", internal[:-1], internal[-1]))
    rows_per_block = max(1, _BLOCK_DRAWS // n)
    scale = float(n)
    for start in range(0, resamples, rows_per_block):
        rows = min(rows_per_block, resamples - start)
        yield (twister.random_sample(rows * n) * scale).astype(np.int64).reshape(rows, n)
    _, keys, position = twister.get_state()[:3]
    rng.setstate((version, tuple(keys.tolist()) + (int(position),), gauss_next))


def _exact_resample_means(
    values: Sequence[Any], resamples: int, rng: random.Random
) -> Optional[List[float]]:
    """The bootstrap resample means in draw order, equal to
    ``statistics.mean``'s — or ``None``, with ``rng`` untouched, when the
    generator or the sample needs the generic loop."""
    if type(rng) is not random.Random:
        return None
    scaled = _scaled_numerators(values)
    if scaled is None:
        return None
    numerators, denominator = scaled
    n = len(numerators)
    sums: List[int] = []
    fits_int64 = max(abs(numerator) for numerator in numerators) * n < _INT64_SAFE
    table = np.array(numerators, dtype=np.int64) if fits_int64 else None
    for indices in _replayed_indices(rng, n, resamples):
        if table is not None:
            sums.extend(table[indices].sum(axis=1).tolist())
        else:
            sums.extend(sum(map(numerators.__getitem__, row)) for row in indices.tolist())
    # int / int true division is correctly rounded: the float of the exact
    # fraction, as statistics.mean returns it.
    divisor = denominator * n
    return [total / divisor for total in sums]


def metric_columns(
    row: Dict[str, Any],
    key: Tuple[Any, ...],
    metric: str,
    values: Sequence[float],
    *,
    confidence: float,
    resamples: int,
) -> None:
    """Fill ``row``'s seven columns for ``metric`` from its sorted ``values``.

    The one row recipe shared by :func:`aggregate` and the warehouse's
    cached aggregate: the bootstrap generator is seeded from the group
    ``key`` and the metric name.
    """
    key_json = json.dumps([str(part) for part in key], sort_keys=True)
    rng = random.Random(derive_seed(0, "bootstrap", key_json, metric))
    ci_low, ci_high = bootstrap_ci(
        values, confidence=confidence, resamples=resamples, rng=rng
    )
    row[f"{metric}_mean"] = mean(values)
    row[f"{metric}_median"] = median(values)
    row[f"{metric}_std"] = pstdev(values) if len(values) > 1 else 0.0
    row[f"{metric}_min"] = values[0]
    row[f"{metric}_max"] = values[-1]
    row[f"{metric}_ci_low"] = ci_low
    row[f"{metric}_ci_high"] = ci_high


def _group_sort_key(key: Tuple[Any, ...]) -> Tuple:
    # Numbers sort numerically among themselves, everything else as strings.
    return tuple(
        (0, "", part) if isinstance(part, (int, float)) and not isinstance(part, bool)
        else (1, str(part), 0)
        for part in key
    )


def group_records(
    records: Iterable[Union[RunRecord, Mapping[str, Any]]],
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
) -> Dict[Tuple[Any, ...], List[RunRecord]]:
    """Partition records by the values of the group-by axes.

    Within each group, records are sorted by ``(scenario_key, repetition)``
    so downstream statistics never depend on input order.
    """
    if not group_by:
        raise ConfigurationError("group_by needs at least one axis")
    groups: Dict[Tuple[Any, ...], List[RunRecord]] = {}
    for raw in records:
        record = coerce_record(raw)
        key = tuple(record.axis_value(axis) for axis in group_by)
        groups.setdefault(key, []).append(record)
    for members in groups.values():
        members.sort(key=lambda record: (record.scenario_key(), record.repetition))
    return groups


def aggregate(
    records: Iterable[Union[RunRecord, Mapping[str, Any]]],
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
    metrics: Sequence[str] = DEFAULT_METRICS,
    *,
    confidence: float = 0.95,
    resamples: int = DEFAULT_RESAMPLES,
) -> List[Dict[str, Any]]:
    """Summarize metrics per group; returns one row dictionary per group.

    Each row holds the group-by columns, ``runs`` (the repetition count),
    ``completed`` (whether every member completed) and, for every metric
    ``m``: ``m_mean``, ``m_median``, ``m_std``, ``m_min``, ``m_max``,
    ``m_ci_low`` and ``m_ci_high``.
    """
    groups = group_records(records, group_by)
    rows: List[Dict[str, Any]] = []
    for key in sorted(groups, key=_group_sort_key):
        members = groups[key]
        row: Dict[str, Any] = dict(zip(group_by, key))
        row["runs"] = len(members)
        row["completed"] = all(record.completed for record in members)
        for metric in metrics:
            values = sorted(record.metric_value(metric) for record in members)
            metric_columns(
                row, key, metric, values, confidence=confidence, resamples=resamples
            )
        rows.append(row)
    return rows


def aggregate_columns(
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
    metrics: Sequence[str] = DEFAULT_METRICS,
    *,
    statistics: Sequence[str] = ("mean", "ci_low", "ci_high"),
) -> List[str]:
    """The column order for rendering :func:`aggregate` rows as a table."""
    columns = list(group_by) + ["runs", "completed"]
    for metric in metrics:
        columns.extend(f"{metric}_{statistic}" for statistic in statistics)
    return columns
