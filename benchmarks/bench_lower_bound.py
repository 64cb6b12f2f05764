"""E2 / E7 — Section 2: the local-broadcast lower bound and Figure 1.

Theorem 2.3: against the strongly adaptive free-edge adversary, any token-
forwarding algorithm using local broadcast pays Ω(n²/log²n) amortized
messages per token.  We run naive flooding (the matching upper bound) against
the lower-bound adversary, report the measured amortized cost next to the
analytic Ω(n²/log²n) and O(n²) curves, and fit the scaling exponent.

Figure 1 illustrates the free-edge structure: in rounds with few broadcasting
nodes the free edges alone connect the graph (Lemma 2.2).  We regenerate the
corresponding statistic: the number of free-edge components in sparse rounds.
"""

from __future__ import annotations

import pytest

from benchmarks.helpers import print_section, run_once, summary_table
from repro.adversaries.lower_bound import LowerBoundAdversary
from repro.algorithms.flooding import FloodingAlgorithm
from repro.analysis.bounds import flooding_amortized_upper_bound, local_broadcast_lower_bound
from repro.analysis.potential import PotentialTracker
from repro.core.engine import Simulator
from repro.core.messages import TokenMessage
from repro.core.observation import RoundObservation
from repro.core.problem import random_assignment_problem
from repro.results import fit_power_law

SIZES = [8, 12, 16, 20]


def _run_flooding_against_lower_bound(num_nodes: int, seed: int = 0):
    problem = random_assignment_problem(num_nodes, num_nodes, seed=seed)
    adversary = LowerBoundAdversary()
    result = Simulator(problem, FloodingAlgorithm(), adversary, seed=seed).run()
    return problem, adversary, result


@pytest.mark.parametrize("num_nodes", SIZES)
def test_flooding_against_lower_bound_adversary(benchmark, num_nodes):
    """Time one flooding execution against the Section-2 adversary."""
    _, _, result = benchmark.pedantic(
        _run_flooding_against_lower_bound, args=(num_nodes,), rounds=2, iterations=1
    )
    assert result.completed


def test_lower_bound_amortized_series(benchmark):
    """Regenerate the paper-vs-measured series for the Ω(n²/log²n) bound."""

    def build_series():
        rows = []
        for num_nodes in SIZES:
            _, adversary, result = _run_flooding_against_lower_bound(num_nodes, seed=3)
            rows.append(
                {
                    "n": num_nodes,
                    "measured amortized": round(result.amortized_messages(), 1),
                    "paper lower bound n^2/log^2 n": round(
                        local_broadcast_lower_bound(num_nodes), 1
                    ),
                    "paper upper bound n^2": flooding_amortized_upper_bound(num_nodes),
                    "max free components": adversary.max_free_components(),
                }
            )
        return rows

    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    table = summary_table(
        rows,
        [
            "n",
            "measured amortized",
            "paper lower bound n^2/log^2 n",
            "paper upper bound n^2",
            "max free components",
        ],
    )
    print_section("E2: local-broadcast amortized cost vs the Section-2 bounds", table)

    xs = [row["n"] for row in rows]
    ys = [row["measured amortized"] for row in rows]
    exponent, _ = fit_power_law(xs, ys)
    print(f"fitted scaling exponent of measured amortized cost: {exponent:.2f}")
    # Superlinear growth (the paper's bound is quadratic up to log factors; at
    # these sizes the log² divisor flattens the curve noticeably).
    assert exponent > 1.2
    for row in rows:
        assert row["measured amortized"] <= 2 * row["paper upper bound n^2"]


def test_potential_growth_bounded_by_free_components(benchmark):
    """The per-round potential increase never exceeds 2·(components − 1)."""

    def check():
        problem, adversary, result = _run_flooding_against_lower_bound(16, seed=5)
        tracker = PotentialTracker(problem, adversary.kprime_sets)
        trajectory = tracker.replay(result.events, result.rounds)
        violations = 0
        for stats, increase in zip(adversary.round_stats, trajectory.increases):
            if increase > 2 * max(0, stats.free_components - 1):
                violations += 1
        return trajectory, violations

    trajectory, violations = benchmark.pedantic(check, rounds=1, iterations=1)
    assert violations == 0
    assert trajectory.final == 16 * 16


def test_figure1_sparse_rounds_have_connected_free_graph(benchmark):
    """Figure 1 / Lemma 2.2: with few broadcasters the free edges connect everything."""

    def count_components():
        problem = random_assignment_problem(24, 18, seed=9)
        adversary = LowerBoundAdversary()
        adversary.reset(problem, __import__("random").Random(11))
        knowledge = {node: problem.initial_knowledge[node] for node in problem.nodes}
        rows = []
        for broadcasters in (0, 1, 2, 3):
            payloads = {node: None for node in problem.nodes}
            for node in list(problem.nodes)[:broadcasters]:
                payloads[node] = TokenMessage(problem.tokens[node % problem.num_tokens])
            observation = RoundObservation(
                round_index=1, knowledge=knowledge, broadcast_payloads=payloads
            )
            adversary.edges_for_round(1, observation)
            stats = adversary.round_stats[-1]
            rows.append(
                {
                    "broadcasting nodes": broadcasters,
                    "free-edge components": stats.free_components,
                    "non-free edges added": stats.non_free_edges_added,
                }
            )
        return rows

    rows = benchmark.pedantic(count_components, rounds=1, iterations=1)
    table = summary_table(
        rows, ["broadcasting nodes", "free-edge components", "non-free edges added"]
    )
    print_section("E7 (Figure 1): free-edge connectivity in sparse rounds", table)
    assert rows[0]["free-edge components"] == 1
    assert all(row["free-edge components"] <= 4 for row in rows)
