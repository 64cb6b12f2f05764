"""E5 — Theorems 3.5 and 3.6: the Multi-Source-Unicast algorithm.

Theorem 3.5: 1-adversary-competitive message complexity O(n²s + nk); the
completeness-announcement term grows linearly with the number of sources s.
Theorem 3.6: O(nk) rounds on 3-edge-stable graphs.  We sweep the number of
sources at fixed n and k, print the measured per-type message counts next to
the analytic bound, and verify the linear-in-s announcement growth.
"""

from __future__ import annotations

import pytest

from benchmarks.helpers import print_section, run_once, run_spec_once, summary_table
from repro.adversaries import ScheduleAdversary
from repro.algorithms.multi_source import MultiSourceUnicastAlgorithm
from repro.analysis.bounds import multi_source_competitive_bound
from repro.core.messages import MessageKind
from repro.core.problem import uniform_multi_source_problem
from repro.dynamics.generators import churn_schedule
from repro.dynamics.stability import stabilize_schedule
from repro.scenarios import ScenarioSpec

NUM_NODES = 16
NUM_TOKENS = 32
SOURCE_SWEEP = [1, 2, 4, 8, 16]


def _multi_source_spec(num_sources: int, churn: int = 3, seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec(
        problem="multi-source",
        problem_params={
            "num_nodes": NUM_NODES,
            "num_sources": num_sources,
            "num_tokens": NUM_TOKENS,
            "seed": seed,
        },
        algorithm="multi-source",
        adversary="churn",
        adversary_params={"changes_per_round": churn, "edge_probability": 0.3},
        seed=seed,
        name="E5-multi-source-under-churn",
    )


def _run_multi_source(num_sources: int, churn: int = 3, seed: int = 0):
    return run_spec_once(_multi_source_spec(num_sources, churn=churn, seed=seed))


@pytest.mark.parametrize("num_sources", [1, 4, 16])
def test_multi_source_under_churn(benchmark, num_sources):
    """Time one Multi-Source-Unicast execution for a given source count."""
    result = benchmark.pedantic(
        _run_multi_source, args=(num_sources,), rounds=2, iterations=1
    )
    assert result.completed


def test_theorem_3_5_cost_vs_source_count(benchmark):
    """E5: measured per-type message counts against the O(n²s + nk) bound."""

    def build_series():
        rows = []
        for num_sources in SOURCE_SWEEP:
            result = _run_multi_source(num_sources, seed=21)
            rows.append(
                {
                    "s": num_sources,
                    "completed": result.completed,
                    "token msgs": result.messages.messages_of_kind(MessageKind.TOKEN),
                    "completeness msgs": result.messages.messages_of_kind(
                        MessageKind.COMPLETENESS
                    ),
                    "request msgs": result.messages.messages_of_kind(MessageKind.REQUEST),
                    "competitive": round(result.adversary_competitive_messages(), 1),
                    "paper bound n^2 s + nk": multi_source_competitive_bound(
                        NUM_NODES, NUM_TOKENS, num_sources
                    ),
                }
            )
        return rows

    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    table = summary_table(
        rows,
        [
            "s",
            "completed",
            "token msgs",
            "completeness msgs",
            "request msgs",
            "competitive",
            "paper bound n^2 s + nk",
        ],
    )
    print_section(
        f"E5 (Theorem 3.5): Multi-Source-Unicast, n = {NUM_NODES}, k = {NUM_TOKENS}", table
    )

    for row in rows:
        assert row["completed"]
        assert row["competitive"] <= 3 * row["paper bound n^2 s + nk"]
        assert row["token msgs"] <= NUM_NODES * NUM_TOKENS
        assert row["completeness msgs"] <= NUM_NODES * (NUM_NODES - 1) * row["s"]
    # Announcement cost grows with s (the O(n²s) term of the theorem).
    announcements = [row["completeness msgs"] for row in rows]
    assert announcements[-1] > announcements[0]


def test_theorem_3_6_rounds_on_stable_graphs(benchmark):
    """E5/E4 companion: O(nk) rounds for the multi-source algorithm."""

    def run_on_stable_graph():
        schedule = stabilize_schedule(
            churn_schedule(NUM_NODES, 8 * NUM_NODES * NUM_TOKENS, churn_fraction=0.4, seed=31),
            sigma=3,
        )
        return run_once(
            lambda: uniform_multi_source_problem(NUM_NODES, 4, NUM_TOKENS, seed=31),
            lambda: MultiSourceUnicastAlgorithm(),
            lambda: ScheduleAdversary(schedule, name="3-edge-stable churn"),
            seed=31,
        )

    result = benchmark.pedantic(run_on_stable_graph, rounds=1, iterations=1)
    print_section(
        "E5 (Theorem 3.6): rounds on a 3-edge-stable graph",
        summary_table(
            [
                {
                    "n": NUM_NODES,
                    "k": NUM_TOKENS,
                    "s": 4,
                    "completed": result.completed,
                    "rounds": result.rounds,
                    "paper bound nk": NUM_NODES * NUM_TOKENS,
                }
            ],
            ["n", "k", "s", "completed", "rounds", "paper bound nk"],
        ),
    )
    assert result.completed
    assert result.rounds <= 5 * NUM_NODES * NUM_TOKENS
