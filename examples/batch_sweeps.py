"""Vectorized batch sweeps: run every repetition of a grid cell in lockstep.

The batch backend (``repro.backends.batch``) executes all pending repetitions of one
scenario as *lanes* of a single vectorized kernel: one ``(lanes, n, k)``
knowledge cube, one program, and per-lane adversaries/RNG streams that
replay exactly what serial runs would have drawn.  This example shows the three ways to reach it:

1. explicitly, through ``BatchBackend.run_batch`` — one call, one record per
   repetition, byte-identical to running each repetition serially;
2. implicitly, through the fluent :class:`~repro.api.Experiment` pipeline,
   which routes every default-backend grid cell to the batch backend on its
   own;
3. measured, with the same timing comparison CI gates
   (``python -m repro bench --sweeps``).

Run with::

    PYTHONPATH=src python examples/batch_sweeps.py
"""

from __future__ import annotations

import time

from repro.scenarios import ScenarioSpec
from repro.scenarios.runner import record_from_result, repetition_seed, run_spec


def make_spec(num_nodes: int = 48, repetitions: int = 8) -> ScenarioSpec:
    """Flooding with k = n over static random graphs, many repetitions."""
    return ScenarioSpec(
        problem="single-source",
        problem_params={"num_nodes": num_nodes, "num_tokens": num_nodes},
        algorithm="flooding",
        algorithm_params={"rounds_per_token": 8},
        adversary="static-random",
        adversary_params={"num_nodes": num_nodes},
        repetitions=repetitions,
        name="batch-demo",
    )


def run_batch_explicitly(num_nodes: int = 48, repetitions: int = 8) -> None:
    """All repetitions in one vectorized pass, records identical to serial."""
    from repro.backends import BatchBackend

    spec = make_spec(num_nodes, repetitions)

    start = time.perf_counter()
    serial_records = run_spec(spec)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    results = BatchBackend().run_batch(spec)
    batch_seconds = time.perf_counter() - start
    batch_records = [
        record_from_result(spec, repetition, repetition_seed(spec, repetition), result)
        for repetition, result in enumerate(results)
    ]

    print(f"n = k = {num_nodes}, flooding, {repetitions} repetitions")
    print(f"  serial bitset-per-repetition: {serial_seconds:.3f}s")
    print(f"  batch (lockstep lanes):       {batch_seconds:.3f}s")
    assert serial_records == batch_records
    print(f"  identical records, {serial_seconds / batch_seconds:.1f}x faster")


def run_batch_through_the_pipeline() -> None:
    """``Experiment.run()`` groups pending repetitions and batches them."""
    from repro import Experiment

    runs = (
        Experiment.grid(
            algorithm="flooding",
            adversary="static-random",
            num_nodes=[24, 32],
            num_tokens=16,
        )
        .seeds(6)  # 6 repetitions per grid point
        .run()     # multi-repetition cells are dispatched to the batch kernel
    )
    print("pipeline sweep (auto-batched):")
    print(runs.aggregate(by=["n"]).table("md", statistics=("mean",)))


def adaptive_scenarios_fall_back() -> None:
    """Adaptive scenarios run too: the backend runs them one lane at a time."""
    from repro.backends import BatchBackend

    spec = ScenarioSpec(
        problem="single-source",
        problem_params={"num_nodes": 16, "num_tokens": 12},
        algorithm="single-source",
        adversary="star-recenter",  # adaptive: observes the algorithm
        repetitions=3,
        name="batch-demo-fallback",
    )
    results = BatchBackend().run_batch(spec)
    # star-recenter is the paper's lower-bound adversary: it is *supposed* to
    # stall dissemination, so runs hitting the round budget is the expected
    # outcome — the point here is only that the batch backend handles it.
    print(
        f"adaptive adversary (star-recenter): {len(results)} repetitions via "
        f"per-lane fallback, {sum(r.completed for r in results)} finished "
        f"within the round budget (the lower-bound adversary stalls the rest)"
    )


def main() -> None:
    run_batch_explicitly()
    print()
    run_batch_through_the_pipeline()
    print()
    adaptive_scenarios_fall_back()


if __name__ == "__main__":
    main()
