"""E3 / E4 — Theorems 3.1 and 3.4: the Single-Source-Unicast algorithm.

Theorem 3.1: the algorithm has 1-adversary-competitive message complexity
O(n² + nk); for k = Ω(n) the amortized adversary-competitive cost is O(n)
(optimal).  Theorem 3.4: on 3-edge-stable dynamic graphs it terminates in
O(nk) rounds.  We sweep n and k under a churn adversary, print the measured
costs next to the analytic bounds, and fit the scaling exponents.
"""

from __future__ import annotations

import pytest

from benchmarks.helpers import print_section, run_once, run_spec_once, summary_table
from repro.adversaries import ScheduleAdversary
from repro.algorithms.single_source import SingleSourceUnicastAlgorithm
from repro.analysis.bounds import single_source_competitive_bound, single_source_round_bound
from repro.core.problem import single_source_problem
from repro.dynamics.generators import churn_schedule
from repro.dynamics.stability import stabilize_schedule
from repro.results import fit_power_law
from repro.scenarios import ScenarioSpec

N_SWEEP = [8, 12, 16, 24]
K_FACTOR = 2  # k = 2n so that the O(n) amortized regime applies


def _single_source_spec(
    num_nodes: int, num_tokens: int, churn: int, seed: int = 0
) -> ScenarioSpec:
    return ScenarioSpec(
        problem="single-source",
        problem_params={"num_nodes": num_nodes, "num_tokens": num_tokens},
        algorithm="single-source",
        adversary="churn",
        adversary_params={"changes_per_round": churn, "edge_probability": 0.3},
        seed=seed,
        name="E3-single-source-under-churn",
    )


def _run_single_source(num_nodes: int, num_tokens: int, churn: int, seed: int = 0):
    return run_spec_once(_single_source_spec(num_nodes, num_tokens, churn, seed=seed))


@pytest.mark.parametrize("num_nodes", N_SWEEP)
def test_single_source_under_churn(benchmark, num_nodes):
    """Time one Single-Source-Unicast execution with k = 2n under churn."""
    result = benchmark.pedantic(
        _run_single_source,
        args=(num_nodes, K_FACTOR * num_nodes, 3),
        rounds=2,
        iterations=1,
    )
    assert result.completed


def test_theorem_3_1_competitive_message_series(benchmark):
    """E3: adversary-competitive cost vs the O(n² + nk) bound."""

    def build_series():
        rows = []
        for num_nodes in N_SWEEP:
            num_tokens = K_FACTOR * num_nodes
            result = _run_single_source(num_nodes, num_tokens, churn=4, seed=13)
            rows.append(
                {
                    "n": num_nodes,
                    "k": num_tokens,
                    "TC(E)": result.topological_changes,
                    "total messages": result.total_messages,
                    "competitive (total - TC)": round(
                        result.adversary_competitive_messages(), 1
                    ),
                    "paper bound n^2 + nk": single_source_competitive_bound(
                        num_nodes, num_tokens
                    ),
                    "amortized competitive": round(
                        result.amortized_adversary_competitive_messages(), 2
                    ),
                }
            )
        return rows

    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    table = summary_table(
        rows,
        [
            "n",
            "k",
            "TC(E)",
            "total messages",
            "competitive (total - TC)",
            "paper bound n^2 + nk",
            "amortized competitive",
        ],
    )
    print_section("E3 (Theorem 3.1): Single-Source-Unicast under churn", table)

    for row in rows:
        assert row["competitive (total - TC)"] <= 3 * row["paper bound n^2 + nk"]
    xs = [row["n"] for row in rows]
    ys = [max(1.0, row["amortized competitive"]) for row in rows]
    exponent, _ = fit_power_law(xs, ys)
    print(f"fitted exponent of amortized competitive cost vs n: {exponent:.2f}")
    # The O(n) regime: clearly subquadratic growth.
    assert exponent < 1.7


def test_theorem_3_4_round_complexity_on_stable_graphs(benchmark):
    """E4: O(nk) rounds on 3-edge-stable dynamic graphs."""

    def build_series():
        rows = []
        for num_nodes in N_SWEEP:
            num_tokens = K_FACTOR * num_nodes
            schedule = stabilize_schedule(
                churn_schedule(
                    num_nodes, 6 * num_nodes * num_tokens, churn_fraction=0.4, seed=num_nodes
                ),
                sigma=3,
            )
            result = run_once(
                lambda: single_source_problem(num_nodes, num_tokens),
                lambda: SingleSourceUnicastAlgorithm(),
                lambda: ScheduleAdversary(schedule, name="3-edge-stable churn"),
                seed=num_nodes,
            )
            rows.append(
                {
                    "n": num_nodes,
                    "k": num_tokens,
                    "completed": result.completed,
                    "rounds": result.rounds,
                    "paper bound nk": int(single_source_round_bound(num_nodes, num_tokens)),
                }
            )
        return rows

    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    table = summary_table(rows, ["n", "k", "completed", "rounds", "paper bound nk"])
    print_section("E4 (Theorem 3.4): rounds on 3-edge-stable graphs", table)
    for row in rows:
        assert row["completed"]
        assert row["rounds"] <= 4 * row["paper bound nk"] + 4 * row["n"]
