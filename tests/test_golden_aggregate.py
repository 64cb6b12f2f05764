"""Pinned aggregate rows: the history net under :func:`aggregate`.

Record semantics are pinned by ``golden_fingerprints.json``; this file pins
what aggregation makes of a fixed record set — means, medians, standard
deviations and the seeded bootstrap intervals, down to the last bit and
the int/float type of every cell.  The rows are compared as canonical JSON
(``sort_keys``) against ``tests/data/golden_aggregate.json``, for the
shard-scan :func:`~repro.results.aggregate.aggregate` and for the warehouse's
incrementally cached aggregate.

The record set spans several algorithms and adversaries, with 32
repetitions in some groups, a single-repetition group, and integer as well
as fractional metrics.  Coarse groupings (by algorithm, by adversary) put
values of very different magnitudes into one group.

A deliberate change to aggregation regenerates the file with::

    PYTHONPATH=src python tests/test_golden_aggregate.py --write
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List

import pytest

from repro.results.aggregate import aggregate
from repro.results.store import RunStore
from repro.scenarios import ScenarioSpec, run_spec
from repro.warehouse import WarehouseIndex

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_aggregate.json")

#: Named group-by choices pinned in the golden file.
GROUPINGS = {
    "default": ("algorithm", "adversary", "n", "k"),
    "algorithm": ("algorithm",),
    "adversary": ("adversary",),
}


def _spec(algorithm, adversary, repetitions, *, num_nodes=8, seed=5,
          adversary_params=None, multi_source=False) -> ScenarioSpec:
    problem_params = {"num_nodes": num_nodes, "num_tokens": 6}
    if multi_source:
        problem_params["num_sources"] = 3
    return ScenarioSpec(
        problem="multi-source" if multi_source else "single-source",
        problem_params=problem_params,
        algorithm=algorithm,
        adversary=adversary,
        adversary_params=dict(adversary_params or {}),
        seed=seed,
        repetitions=repetitions,
        name=f"golden-aggregate-{algorithm}-{adversary}-n{num_nodes}",
    )


def golden_specs() -> List[ScenarioSpec]:
    churn = {"changes_per_round": 2}
    return [
        _spec("flooding", "churn", 32, adversary_params=churn),
        _spec("single-source", "churn", 32, adversary_params=churn),
        _spec("single-source", "churn", 5, num_nodes=6, adversary_params=churn),
        _spec("naive-unicast", "static-random", 6, adversary_params={"num_nodes": 8}),
        _spec("spanning-tree", "static-random", 6, adversary_params={"num_nodes": 8}),
        _spec("multi-source", "churn", 4, adversary_params=churn, multi_source=True),
        _spec("single-source", "request-cutting", 4),
        _spec("flooding", "static", 1),
    ]


def golden_records() -> List[Dict[str, Any]]:
    return [record for spec in golden_specs() for record in run_spec(spec)]


def _canonical(rows: List[Dict[str, Any]]) -> str:
    return json.dumps(rows, sort_keys=True)


def _load_golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def records():
    return golden_records()


def test_golden_file_covers_every_grouping():
    assert set(_load_golden()) == set(GROUPINGS)


@pytest.mark.parametrize("grouping", sorted(GROUPINGS))
def test_aggregate_matches_golden_rows(records, grouping):
    rows = aggregate(records, GROUPINGS[grouping])
    assert _canonical(rows) == _canonical(_load_golden()[grouping])


@pytest.mark.parametrize("grouping", sorted(GROUPINGS))
def test_cached_aggregate_matches_golden_rows(records, grouping, tmp_path):
    store = RunStore(tmp_path / "store")
    store.add(records)
    store.flush()
    index = WarehouseIndex(store.path)
    try:
        index.sync()
        query = index.query()
        cold = query.aggregate(GROUPINGS[grouping])
        warm = query.aggregate(GROUPINGS[grouping])
    finally:
        index.close()
    expected = _canonical(_load_golden()[grouping])
    assert _canonical(cold) == expected
    assert _canonical(warm) == expected


def _write_golden() -> None:
    records = golden_records()
    golden = {name: aggregate(records, group_by) for name, group_by in GROUPINGS.items()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_aggregate.py --write")
    _write_golden()
