"""Pinned record fingerprints: the semantics net under every backend.

``verify-backend`` only compares backends with each other, so a change
applied uniformly to all of them (an adversary drawing different random
numbers, a kernel ordering tweak) slips through it.  This test pins the
records of a small fixed grid to hashes checked into
``tests/data/golden_fingerprints.json`` and re-derives them on the
reference, bitset and batch backends.  On batch it covers both shapes
:func:`repro.api.cell_backend` routes there: a whole repetition group in one
``run_batch`` call (oblivious and adaptive cells) and each repetition alone
as a one-lane ``run_batch(spec, [r])`` call (``batch-single``).

Each fingerprint is the SHA-256 of one record's canonical JSON (the same
flat record :func:`repro.scenarios.runner.record_from_result` writes).
Records carry no wall-clock fields — timings ride in the never-stored cell
metadata — and the spec is always the backend-neutral reference spec, so
one hash holds for every backend.

A deliberate semantics change regenerates the file with::

    PYTHONPATH=src python tests/test_golden_fingerprints.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import replace
from typing import Dict, List, Tuple

import pytest

from repro.scenarios import ScenarioSpec, repetition_seed, run_scenario
from repro.scenarios.runner import record_from_result, record_to_json_line

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_fingerprints.json")

ALGORITHMS = (
    "flooding",
    "one-shot-flooding",
    "single-source",
    "spanning-tree",
    "naive-unicast",
    "multi-source",
    "oblivious",
)
#: Algorithms whose natural problem has several sources.
_MULTI_SOURCE = frozenset({"multi-source", "oblivious"})
NUM_NODES = 8
NUM_TOKENS = 6
SEEDS = (0, 1)
REPETITIONS = 2


def _spec(algorithm: str, adversary: str, seed: int, adversary_params) -> ScenarioSpec:
    problem_params = {"num_nodes": NUM_NODES, "num_tokens": NUM_TOKENS}
    problem = "single-source"
    if algorithm in _MULTI_SOURCE:
        problem = "multi-source"
        problem_params["num_sources"] = 3
    return ScenarioSpec(
        problem=problem,
        problem_params=problem_params,
        algorithm=algorithm,
        adversary=adversary,
        adversary_params=dict(adversary_params),
        seed=seed,
        repetitions=REPETITIONS,
        name=f"golden-{algorithm}-{adversary}-s{seed}",
    )


def oblivious_specs() -> List[ScenarioSpec]:
    """Every algorithm against churn, a static random graph and ``static``."""
    specs = []
    for algorithm in ALGORITHMS:
        for seed in SEEDS:
            specs.append(_spec(algorithm, "churn", seed, {"changes_per_round": 2}))
            specs.append(
                _spec(algorithm, "static-random", seed, {"num_nodes": NUM_NODES})
            )
        specs.append(_spec(algorithm, "static", 0, {}))
    return specs


def adaptive_specs() -> List[ScenarioSpec]:
    """Single-source cells against the two churn-tailed adaptive adversaries."""
    specs = []
    for seed in SEEDS:
        specs.append(_spec("single-source", "adaptive-rewiring", seed, {}))
        specs.append(_spec("single-source", "request-cutting", seed, {}))
        specs.append(_spec("naive-unicast", "request-cutting", seed, {}))
    return specs


def _fingerprint(spec: ScenarioSpec, repetition: int, result) -> str:
    record = record_from_result(spec, repetition, repetition_seed(spec, repetition), result)
    return hashlib.sha256(record_to_json_line(record).encode("utf-8")).hexdigest()


def _key(spec: ScenarioSpec, repetition: int) -> str:
    return f"{spec.name}#r{repetition}"


def fingerprints(spec: ScenarioSpec, backend: str) -> Dict[str, str]:
    """The fingerprint of every repetition of ``spec`` run on ``backend``.

    ``batch`` runs all repetitions in one ``run_batch`` call;
    ``batch-single`` runs each one in its own single-repetition call.
    """
    repetitions = list(range(spec.repetitions))
    if backend in ("batch", "batch-single"):
        from repro.backends import BatchBackend

        batch_spec = replace(spec, backend="batch")
        if backend == "batch":
            results = BatchBackend().run_batch(batch_spec, repetitions)
        else:
            results = [
                BatchBackend().run_batch(batch_spec, [repetition])[0]
                for repetition in repetitions
            ]
    else:
        run_spec = replace(spec, backend=backend)
        results = [run_scenario(run_spec, repetition) for repetition in repetitions]
    return {
        _key(spec, repetition): _fingerprint(spec, repetition, result)
        for repetition, result in zip(repetitions, results)
    }


def _cases() -> List[Tuple[ScenarioSpec, str]]:
    cases = [
        (spec, backend)
        for spec in oblivious_specs()
        for backend in ("reference", "bitset", "batch", "batch-single")
    ]
    cases += [
        (spec, backend)
        for spec in adaptive_specs()
        for backend in ("reference", "bitset", "batch")
    ]
    return cases


def _load_golden() -> Dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_file_covers_the_grid():
    expected = {
        _key(spec, repetition)
        for spec in oblivious_specs() + adaptive_specs()
        for repetition in range(spec.repetitions)
    }
    assert set(_load_golden()) == expected


@pytest.mark.parametrize(
    "spec,backend",
    _cases(),
    ids=[f"{spec.name}-{backend}" for spec, backend in _cases()],
)
def test_records_match_golden_fingerprints(spec, backend):
    golden = _load_golden()
    for key, fingerprint in fingerprints(spec, backend).items():
        assert fingerprint == golden[key], f"{key} on {backend} changed semantics"


def _write_golden() -> None:
    golden: Dict[str, str] = {}
    for spec in oblivious_specs() + adaptive_specs():
        golden.update(fingerprints(spec, "reference"))
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_fingerprints.py --write")
    _write_golden()
