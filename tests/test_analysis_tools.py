"""Tests for the potential tracker, experiment sweeps, power-law fitting and the
table helpers."""

import pytest

from repro.adversaries import StaticAdversary
from repro.algorithms.naive_unicast import NaiveUnicastAlgorithm
from repro.api import Experiment
from repro.analysis.potential import PotentialTracker, potential_of_knowledge
from repro.core.engine import run_execution
from repro.core.events import EventLog
from repro.core.problem import single_source_problem
from repro.core.tokens import Token
from repro.results.compare import fit_power_law, fit_scaling_exponent
from repro.results.report import (
    format_table,
    render_aggregates,
    render_comparison,
    render_table1,
)
from repro.utils.validation import ConfigurationError
from tests.conftest import path_edges


class TestPotentialFunction:
    def test_potential_of_knowledge(self):
        knowledge = {0: frozenset({Token(0, 1)}), 1: frozenset()}
        kprime = {0: frozenset({Token(0, 1), Token(0, 2)}), 1: frozenset({Token(0, 1)})}
        assert potential_of_knowledge(knowledge, kprime) == 2 + 1

    def test_initial_potential_counts_union(self):
        problem = single_source_problem(4, 2)
        kprime = {node: frozenset({Token(0, 1)}) for node in problem.nodes}
        tracker = PotentialTracker(problem, kprime)
        # Source: |{t1,t2} ∪ {t1}| = 2; others: |{t1}| = 1 each.
        assert tracker.initial_potential == 2 + 3

    def test_maximum_potential_is_nk(self):
        problem = single_source_problem(4, 2)
        tracker = PotentialTracker(problem, {})
        assert tracker.maximum_potential() == 8

    def test_replay_ignores_learnings_already_in_kprime(self):
        problem = single_source_problem(3, 1)
        token = problem.tokens[0]
        kprime = {1: frozenset({token})}
        tracker = PotentialTracker(problem, kprime)
        events = EventLog()
        events.record(1, 1, token)  # discounted: already in K'_1
        events.record(2, 2, token)  # real progress
        trajectory = tracker.replay(events, num_rounds=2)
        assert trajectory.increases == [0, 1]
        assert trajectory.final == tracker.initial_potential + 1
        assert trajectory.total_increase == 1
        assert trajectory.max_round_increase == 1

    def test_rejects_kprime_for_unknown_node(self):
        problem = single_source_problem(3, 1)
        with pytest.raises(ConfigurationError):
            PotentialTracker(problem, {9: frozenset()})

    def test_full_execution_reaches_nk(self):
        problem = single_source_problem(6, 3)
        result = run_execution(
            problem, NaiveUnicastAlgorithm(), StaticAdversary(6, path_edges(6)), seed=1
        )
        tracker = PotentialTracker(problem, {})
        trajectory = tracker.replay(result.events, result.rounds)
        assert trajectory.final == tracker.maximum_potential()


class TestExperimentSweeps:
    def _experiment(self, **dimensions):
        dimensions.setdefault("num_nodes", 6)
        return Experiment.grid(
            {"adversary.changes_per_round": 2, "adversary.edge_probability": 0.4},
            algorithm="single-source",
            adversary="churn",
            num_tokens=3,
            **dimensions,
        )

    def test_run_produces_one_record_per_repetition(self):
        records = self._experiment().seeds(3).run().records()
        assert len(records) == 3
        assert all(record["completed"] for record in records)
        assert {record["repetition"] for record in records} == {0, 1, 2}

    def test_records_carry_sweep_parameters(self):
        records = self._experiment().run().records()
        assert records[0]["n"] == 6
        assert records[0]["k"] == 3
        assert records[0]["spec"]["algorithm"] == "single-source"

    def test_repetitions_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            self._experiment().seeds(0)

    def test_runs_are_reproducible_for_same_base_seed(self):
        records_a = self._experiment(seed=5).seeds(2).run().records()
        records_b = self._experiment(seed=5).seeds(2).run().records()
        assert [r["total_messages"] for r in records_a] == [
            r["total_messages"] for r in records_b
        ]

    def test_sweep_runs_every_configuration(self):
        experiment = Experiment.grid(
            algorithm="single-source", adversary="static", num_nodes=[5, 7], num_tokens=3
        )
        records = experiment.seeds(2).run().records()
        assert len(records) == 4
        assert {record["n"] for record in records} == {5, 7}

    def test_aggregate_groups_and_averages(self):
        experiment = Experiment.grid(
            algorithm="single-source", adversary="static", num_nodes=[5, 7], num_tokens=3
        )
        rows = experiment.seeds(2).run().aggregate(by=["n"]).rows
        assert len(rows) == 2
        assert rows[0]["runs"] == 2
        assert all(row["completed"] for row in rows)
        assert rows[0]["total_messages_mean"] > 0


class TestPowerLawFitting:
    def test_recovers_exact_exponent(self):
        xs = [10, 20, 40, 80]
        ys = [3 * x**2 for x in xs]
        exponent, constant = fit_power_law(xs, ys)
        assert exponent == pytest.approx(2.0, abs=1e-9)
        assert constant == pytest.approx(3.0, rel=1e-6)

    def test_scaling_exponent_shortcut(self):
        xs = [8, 16, 32, 64]
        points = [{"n": x, "measured": x**1.5} for x in xs]
        assert fit_scaling_exponent(points) == pytest.approx(1.5, abs=1e-9)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            fit_power_law([1, 2], [1])

    def test_rejects_single_point(self):
        with pytest.raises(ConfigurationError):
            fit_power_law([1], [1])

    def test_rejects_non_positive_values(self):
        with pytest.raises(ConfigurationError):
            fit_power_law([1, 2], [0, 1])


class TestReporting:
    def test_format_table_alignment_and_content(self):
        table = format_table(["a", "b"], [[1, 2.5], ["x", True]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "b" in lines[0]
        assert "yes" in lines[3]

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ConfigurationError):
            format_table(["a", "b"], [[1]])

    def test_format_table_rejects_empty_headers(self):
        with pytest.raises(ConfigurationError):
            format_table([], [])

    def test_render_table1_contains_all_regimes(self):
        rendered = render_table1(256)
        assert "k = n" in rendered
        assert "k = n^2" in rendered
        assert "O(n^2)" in rendered

    def test_render_records(self):
        records = (
            Experiment.grid(
                algorithm="single-source", adversary="static", num_nodes=5, num_tokens=2
            )
            .run()
            .records()
        )
        columns = ["n", "total_messages", "rounds"]
        rendered = format_table(columns, [[r[c] for c in columns] for r in records])
        assert "total_messages" in rendered
        assert "5" in rendered

    def test_render_aggregates(self):
        records = (
            Experiment.grid(
                algorithm="single-source", adversary="static", num_nodes=[5, 7], num_tokens=2
            )
            .run()
            .records()
        )
        rendered = render_aggregates(records, group_by=["n"], metrics=["total_messages"])
        assert "total_messages_mean" in rendered
        for record in records:
            assert f"{record['total_messages']:.2f}" in rendered

    def test_render_paper_vs_measured(self):
        records = (
            Experiment.grid(
                algorithm="flooding", adversary="static-random", num_nodes=[6, 8, 10], num_tokens=4
            )
            .run()
            .records()
        )
        rendered = render_comparison(records)
        assert "flooding" in rendered and "O(n^2)" in rendered
        assert "verdict" in rendered
