"""Joining measured aggregates against the paper's closed-form bounds.

Every built-in algorithm is bound to the theorem that covers it (a
:class:`BoundSpec`): the metric it constrains, the closed-form evaluator
from :mod:`repro.analysis.bounds` and the paper's expression string.  The
comparison has two parts:

* **pointwise**: at each measured ``(n, k, s)`` the bound is evaluated and a
  ratio-to-bound column is computed (constants in the bounds are 1, so the
  ratio is meaningful up to a constant factor);
* **shape**: the measured means are fitted in log-log space against the
  sweep axis (:func:`fit_power_law`) and the resulting scaling exponent is
  compared against the exponent of the bound evaluated at the same points.  The verdict is ``within bound`` when the
  measured exponent does not exceed the bound's exponent by more than
  ``slack`` — asymptotic claims survive constant factors, so the exponent,
  not the ratio, decides.

Third-party algorithms join the comparison with :func:`register_bound`.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.bounds import (
    flooding_amortized_upper_bound,
    multi_source_amortized_bound,
    naive_unicast_amortized_upper_bound,
    oblivious_amortized_bound,
    single_source_competitive_bound,
    static_spanning_tree_amortized,
)
from repro.results.records import RunRecord, coerce_record
from repro.utils.validation import ConfigurationError

#: Verdict strings emitted by the comparison.
VERDICT_WITHIN = "within bound"
VERDICT_ABOVE = "above bound"
VERDICT_INSUFFICIENT = "insufficient data"

#: Allowed excess of the measured scaling exponent over the bound's exponent.
DEFAULT_SLACK = 0.35


@dataclass(frozen=True)
class BoundSpec:
    """The paper bound an algorithm's measurements are compared against."""

    expression: str
    evaluate: Callable[[int, int, int], float]
    metric: str = "amortized_messages"
    source: str = ""

    def __post_init__(self) -> None:
        if not self.expression:
            raise ConfigurationError("a bound needs its paper expression string")
        if not callable(self.evaluate):
            raise ConfigurationError("a bound's evaluate must be callable(n, k, s)")


_ALGORITHM_BOUNDS: Dict[str, BoundSpec] = {}


def register_bound(algorithm: str, bound: BoundSpec, *, replace: bool = False) -> BoundSpec:
    """Attach a bound to an algorithm registry name (extension hook)."""
    if not algorithm or not isinstance(algorithm, str):
        raise ConfigurationError("algorithm must be a non-empty registry name")
    if algorithm in _ALGORITHM_BOUNDS and not replace:
        raise ConfigurationError(
            f"algorithm {algorithm!r} already has a bound; pass replace=True to override"
        )
    _ALGORITHM_BOUNDS[algorithm] = bound
    return bound


def bound_for_algorithm(algorithm: str) -> Optional[BoundSpec]:
    """The registered bound for an algorithm, or ``None``."""
    return _ALGORITHM_BOUNDS.get(algorithm)


def registered_bounds() -> Dict[str, BoundSpec]:
    """A copy of the algorithm → bound mapping."""
    return dict(_ALGORITHM_BOUNDS)


# -- built-in bounds (Section 1 bounds table + Theorems 3.1 / 3.5 / 3.8) ----

register_bound("flooding", BoundSpec(
    expression="n^2",
    evaluate=lambda n, k, s: flooding_amortized_upper_bound(n),
    source="Section 1 (flooding upper bound)",
))
register_bound("one-shot-flooding", BoundSpec(
    expression="n^2",
    evaluate=lambda n, k, s: flooding_amortized_upper_bound(n),
    source="Section 1 (flooding upper bound)",
))
register_bound("naive-unicast", BoundSpec(
    expression="n^2",
    evaluate=lambda n, k, s: naive_unicast_amortized_upper_bound(n),
    source="Section 1 (naive unicast baseline)",
))
register_bound("spanning-tree", BoundSpec(
    expression="n^2/k + n",
    evaluate=lambda n, k, s: static_spanning_tree_amortized(n, k),
    source="Section 1 (static spanning-tree baseline)",
))
register_bound("single-source", BoundSpec(
    expression="(n^2 + nk)/k",
    evaluate=lambda n, k, s: single_source_competitive_bound(n, k) / k,
    metric="amortized_adversary_competitive",
    source="Theorem 3.1",
))
register_bound("multi-source", BoundSpec(
    expression="(n^2 s + nk)/k",
    evaluate=multi_source_amortized_bound,
    metric="amortized_adversary_competitive",
    source="Theorem 3.5",
))
register_bound("oblivious", BoundSpec(
    expression="n^(5/2) log^(5/4) n / k^(3/4)",
    evaluate=lambda n, k, s: oblivious_amortized_bound(n, k),
    source="Theorem 3.8",
))


# -- measured series --------------------------------------------------------


def measured_series(
    records: Iterable[Union[RunRecord, Mapping[str, Any]]],
    *,
    metric: str,
    algorithm: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Mean metric per (algorithm, n, k, s) point, sorted by dimensions."""
    groups: Dict[Tuple[str, int, int, int], List[float]] = {}
    for raw in records:
        record = coerce_record(raw)
        if algorithm is not None and record.algorithm != algorithm:
            continue
        key = (record.algorithm, record.n, record.k, record.s)
        groups.setdefault(key, []).append(record.metric_value(metric))
    series = []
    for (algorithm_name, n, k, s), values in sorted(groups.items()):
        series.append(
            {
                "algorithm": algorithm_name,
                "n": n,
                "k": k,
                "s": s,
                "runs": len(values),
                "measured": mean(sorted(values)),
            }
        )
    return series


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Fit ``y ≈ c · x^α`` by least squares in log-log space; returns ``(α, c)``."""
    if len(xs) != len(ys):
        raise ConfigurationError("xs and ys must have the same length")
    if len(xs) < 2:
        raise ConfigurationError("at least two points are needed for a power-law fit")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ConfigurationError("power-law fitting requires strictly positive data")
    log_x = np.log(np.asarray(xs, dtype=float))
    log_y = np.log(np.asarray(ys, dtype=float))
    exponent, intercept = np.polyfit(log_x, log_y, 1)
    return float(exponent), float(np.exp(intercept))


def fit_scaling_exponent(
    points: Sequence[Mapping[str, Any]],
    *,
    x_axis: str = "n",
    y_key: str = "measured",
) -> Optional[float]:
    """The log-log slope of ``y_key`` against ``x_axis``, or ``None``.

    Points sharing an x value are averaged first; at least two distinct,
    strictly positive x values (with positive y) are required for a fit.
    """
    by_x: Dict[float, List[float]] = {}
    for point in points:
        x = float(point[x_axis])
        y = float(point[y_key])
        if x <= 0 or y <= 0:
            continue
        by_x.setdefault(x, []).append(y)
    if len(by_x) < 2:
        return None
    xs = sorted(by_x)
    ys = [mean(sorted(by_x[x])) for x in xs]
    exponent, _ = fit_power_law(xs, ys)
    return exponent


# -- comparison -------------------------------------------------------------


def bound_ratio_rows(
    records: Iterable[Union[RunRecord, Mapping[str, Any]]],
) -> List[Dict[str, Any]]:
    """Pointwise comparison rows: measured mean, bound value and their ratio.

    Algorithms without a registered bound are omitted.
    """
    records = [coerce_record(record) for record in records]
    rows: List[Dict[str, Any]] = []
    for algorithm in sorted({record.algorithm for record in records}):
        bound = bound_for_algorithm(algorithm)
        if bound is None:
            continue
        for point in measured_series(records, metric=bound.metric, algorithm=algorithm):
            value = bound.evaluate(point["n"], point["k"], point["s"])
            rows.append(
                {
                    "algorithm": algorithm,
                    "metric": bound.metric,
                    "n": point["n"],
                    "k": point["k"],
                    "s": point["s"],
                    "runs": point["runs"],
                    "measured": point["measured"],
                    "bound": value,
                    "ratio": (point["measured"] / value) if value > 0 else float("inf"),
                }
            )
    return rows


def compare_to_bounds(
    records: Iterable[Union[RunRecord, Mapping[str, Any]]],
    *,
    x_axis: str = "n",
    slack: float = DEFAULT_SLACK,
) -> List[Dict[str, Any]]:
    """Per-algorithm paper-vs-measured verdict rows.

    Each row carries the bound expression, the fitted measured exponent, the
    bound's own exponent over the same points, the worst ratio-to-bound and
    the verdict.  With fewer than two distinct x values no exponent can be
    fitted and the verdict falls back to the pointwise ratio (within iff the
    measured mean never exceeds the bound by more than a constant factor).
    """
    records = [coerce_record(record) for record in records]
    ratio_rows = bound_ratio_rows(records)
    comparisons: List[Dict[str, Any]] = []
    for algorithm in sorted({row["algorithm"] for row in ratio_rows}):
        bound = _ALGORITHM_BOUNDS[algorithm]
        points = [row for row in ratio_rows if row["algorithm"] == algorithm]
        measured_exponent = fit_scaling_exponent(points, x_axis=x_axis, y_key="measured")
        bound_exponent = fit_scaling_exponent(points, x_axis=x_axis, y_key="bound")
        max_ratio = max(row["ratio"] for row in points)
        if measured_exponent is None or bound_exponent is None:
            # One sweep point: the shape cannot be checked, only the level.
            verdict = VERDICT_INSUFFICIENT if not points else (
                VERDICT_WITHIN if max_ratio <= _RATIO_FALLBACK_FACTOR else VERDICT_ABOVE
            )
        elif measured_exponent <= bound_exponent + slack:
            verdict = VERDICT_WITHIN
        else:
            verdict = VERDICT_ABOVE
        comparisons.append(
            {
                "algorithm": algorithm,
                "metric": bound.metric,
                "paper_bound": f"O({bound.expression})",
                "source": bound.source,
                "points": len(points),
                "runs": sum(row["runs"] for row in points),
                "measured_exponent": measured_exponent,
                "bound_exponent": bound_exponent,
                "max_ratio": max_ratio,
                "verdict": verdict,
            }
        )
    return comparisons


#: Constant-factor allowance when only the level (not the shape) is checkable.
_RATIO_FALLBACK_FACTOR = 8.0
