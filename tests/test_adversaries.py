"""Unit tests for oblivious and adaptive adversaries."""

import random

import pytest

from repro.adversaries import (
    AdaptiveRewiringAdversary,
    ControlledChurnAdversary,
    RandomChurnObliviousAdversary,
    RequestCuttingAdversary,
    ScheduleAdversary,
    StarRecenterAdversary,
    StaticAdversary,
)
from repro.core.messages import RequestMessage, TokenMessage
from repro.core.observation import RoundObservation, SentRecord
from repro.core.problem import single_source_problem
from repro.core.tokens import Token
from repro.dynamics.connectivity import is_connected
from repro.dynamics.generators import static_path_schedule
from repro.dynamics.graph_sequence import GraphSchedule
from repro.utils.validation import ConfigurationError
from tests.conftest import path_edges


def make_observation(problem, round_index=2, previous_messages=(), broadcasts=None):
    knowledge = {node: problem.initial_knowledge[node] for node in problem.nodes}
    return RoundObservation(
        round_index=round_index,
        knowledge=knowledge,
        broadcast_payloads=broadcasts or {},
        previous_messages=tuple(previous_messages),
    )


class TestScheduleAdversary:
    def test_replays_schedule(self):
        problem = single_source_problem(4, 1)
        schedule = GraphSchedule([0, 1, 2, 3], [path_edges(4), [(0, 1), (1, 2), (2, 3), (0, 3)]])
        adversary = ScheduleAdversary(schedule)
        adversary.reset(problem, random.Random(0))
        assert adversary.edges_for_round(1, None) == frozenset(path_edges(4))
        assert len(adversary.edges_for_round(2, None)) == 4

    def test_last_round_repeats(self):
        problem = single_source_problem(4, 1)
        adversary = ScheduleAdversary(static_path_schedule(4))
        adversary.reset(problem, random.Random(0))
        assert adversary.edges_for_round(99, None) == frozenset(path_edges(4))

    def test_rejects_mismatched_node_set(self):
        problem = single_source_problem(5, 1)
        adversary = ScheduleAdversary(static_path_schedule(4))
        with pytest.raises(ConfigurationError):
            adversary.reset(problem, random.Random(0))

    def test_is_oblivious(self):
        assert ScheduleAdversary(static_path_schedule(4)).oblivious


class TestStaticAdversary:
    def test_rejects_disconnected_edges(self):
        with pytest.raises(ConfigurationError):
            StaticAdversary(4, [(0, 1)])

    def test_keeps_edges_forever(self):
        problem = single_source_problem(4, 1)
        adversary = StaticAdversary(4, path_edges(4))
        adversary.reset(problem, random.Random(0))
        for round_index in (1, 5, 50):
            assert adversary.edges_for_round(round_index, None) == frozenset(path_edges(4))


class TestRandomChurnObliviousAdversary:
    def test_always_connected(self):
        problem = single_source_problem(10, 1)
        adversary = RandomChurnObliviousAdversary(edge_probability=0.1)
        adversary.reset(problem, random.Random(1))
        for round_index in range(1, 15):
            edges = adversary.edges_for_round(round_index, None)
            assert is_connected(problem.nodes, edges)

    def test_period_keeps_graph_stable_between_refreshes(self):
        problem = single_source_problem(10, 1)
        adversary = RandomChurnObliviousAdversary(edge_probability=0.2, period=3)
        adversary.reset(problem, random.Random(2))
        first = adversary.edges_for_round(1, None)
        second = adversary.edges_for_round(2, None)
        third = adversary.edges_for_round(3, None)
        assert first == second == third
        fourth = adversary.edges_for_round(4, None)
        assert isinstance(fourth, (set, frozenset))

    def test_invalid_period(self):
        with pytest.raises(ConfigurationError):
            RandomChurnObliviousAdversary(period=0)


class TestControlledChurnAdversary:
    def test_zero_budget_means_static_after_first_round(self):
        problem = single_source_problem(8, 1)
        adversary = ControlledChurnAdversary(changes_per_round=0)
        adversary.reset(problem, random.Random(3))
        first = adversary.edges_for_round(1, None)
        assert adversary.edges_for_round(2, None) == first
        assert adversary.edges_for_round(3, None) == first

    def test_zero_budget_declares_a_steady_topology(self):
        assert ControlledChurnAdversary(changes_per_round=0).steady_after_round == 1
        assert ControlledChurnAdversary(changes_per_round=2).steady_after_round is None

    def test_zero_budget_is_queried_once_with_unchanged_records(self):
        from repro.backends.differential import diff_results
        from repro.core.engine import Simulator
        from repro.core.rounds import AdversaryStage
        from repro.algorithms.single_source import SingleSourceUnicastAlgorithm

        class Counting(ControlledChurnAdversary):
            rounds = []

            def edge_delta_for_round(self, round_index, observation):
                self.rounds.append(round_index)
                return super().edge_delta_for_round(round_index, observation)

        class Unpromised(ControlledChurnAdversary):
            steady_after_round = None

        problem = single_source_problem(8, 5)
        steady = Counting(changes_per_round=0)
        stage = AdversaryStage(
            problem.nodes,
            {node: node for node in problem.nodes},
            steady,
            require_connected=True,
            keep_trace=True,
        )
        steady.reset(problem, random.Random(1))
        for round_index in range(1, 6):
            stage.advance(round_index, None, None)
        assert Counting.rounds == [1]
        assert stage.trace.topological_changes() == len(stage.trace.edges_in_round(1))

        results = [
            Simulator(
                problem,
                SingleSourceUnicastAlgorithm(),
                adversary,
                seed=11,
            ).run()
            for adversary in (
                ControlledChurnAdversary(changes_per_round=0),
                Unpromised(changes_per_round=0),
            )
        ]
        assert results[0].rounds > 1
        assert diff_results(*results) == []

    def test_budget_changes_edges_each_round(self):
        problem = single_source_problem(10, 1)
        adversary = ControlledChurnAdversary(changes_per_round=4, edge_probability=0.3)
        adversary.reset(problem, random.Random(4))
        first = adversary.edges_for_round(1, None)
        second = adversary.edges_for_round(2, None)
        assert first != second

    def test_always_connected(self):
        problem = single_source_problem(10, 1)
        adversary = ControlledChurnAdversary(changes_per_round=6, edge_probability=0.2)
        adversary.reset(problem, random.Random(5))
        for round_index in range(1, 12):
            assert is_connected(problem.nodes, adversary.edges_for_round(round_index, None))

    def test_rejects_negative_budget(self):
        with pytest.raises(ConfigurationError):
            ControlledChurnAdversary(changes_per_round=-1)

    def test_exposes_budget(self):
        assert ControlledChurnAdversary(changes_per_round=5).changes_per_round == 5


class TestRequestCuttingAdversary:
    def test_cuts_edges_that_carried_requests(self):
        problem = single_source_problem(8, 2)
        adversary = RequestCuttingAdversary(edge_probability=0.4, cut_fraction=1.0)
        adversary.reset(problem, random.Random(6))
        first = set(adversary.edges_for_round(1, make_observation(problem, 1)))
        # Pretend a request was sent over every edge of the first graph.
        records = [
            SentRecord(sender=u, receiver=v, payload=RequestMessage(0, 1)) for u, v in first
        ]
        second = set(
            adversary.edges_for_round(
                2, make_observation(problem, 2, previous_messages=records)
            )
        )
        # Every request-carrying edge that could be removed without breaking
        # connectivity should be gone, so the graphs differ substantially.
        assert first != second
        assert is_connected(problem.nodes, second)

    def test_non_request_messages_do_not_trigger_cuts(self):
        problem = single_source_problem(8, 2)
        adversary = RequestCuttingAdversary(edge_probability=0.4, cut_fraction=1.0)
        adversary.reset(problem, random.Random(7))
        first = set(adversary.edges_for_round(1, make_observation(problem, 1)))
        records = [
            SentRecord(sender=u, receiver=v, payload=TokenMessage(Token(0, 1)))
            for u, v in first
        ]
        second = set(
            adversary.edges_for_round(
                2, make_observation(problem, 2, previous_messages=records)
            )
        )
        assert first == second

    def test_is_adaptive(self):
        assert not RequestCuttingAdversary().oblivious


class TestStarRecenterAdversary:
    def test_produces_stars(self):
        problem = single_source_problem(7, 2)
        adversary = StarRecenterAdversary()
        adversary.reset(problem, random.Random(8))
        edges = set(adversary.edges_for_round(1, make_observation(problem, 1)))
        assert len(edges) == 6
        assert is_connected(problem.nodes, edges)

    def test_center_is_least_informed_node(self):
        problem = single_source_problem(7, 2)
        adversary = StarRecenterAdversary()
        adversary.reset(problem, random.Random(9))
        edges = set(adversary.edges_for_round(1, make_observation(problem, 1)))
        # Node 0 is the source (most informed); the center must not be node 0
        # because every other node knows nothing and has a smaller knowledge set.
        degree = {node: 0 for node in problem.nodes}
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        center = max(degree, key=degree.get)
        assert center != 0

    def test_center_changes_between_rounds(self):
        problem = single_source_problem(7, 2)
        adversary = StarRecenterAdversary()
        adversary.reset(problem, random.Random(10))
        first = set(adversary.edges_for_round(1, make_observation(problem, 1)))
        second = set(adversary.edges_for_round(2, make_observation(problem, 2)))
        assert first != second


class TestAdaptiveRewiringAdversary:
    def test_always_connected(self):
        problem = single_source_problem(10, 3)
        adversary = AdaptiveRewiringAdversary(edge_probability=0.25)
        adversary.reset(problem, random.Random(11))
        for round_index in range(1, 10):
            edges = adversary.edges_for_round(round_index, make_observation(problem, round_index))
            assert is_connected(problem.nodes, edges)

    def test_handles_missing_observation_gracefully(self):
        problem = single_source_problem(10, 3)
        adversary = AdaptiveRewiringAdversary(edge_probability=0.25, targeted_cuts=3)
        adversary.reset(problem, random.Random(12))
        adversary.edges_for_round(1, None)
        edges = adversary.edges_for_round(2, None)
        assert is_connected(problem.nodes, edges)

    def test_rejects_negative_parameters(self):
        with pytest.raises(ConfigurationError):
            AdaptiveRewiringAdversary(targeted_cuts=-1)
        with pytest.raises(ConfigurationError):
            AdaptiveRewiringAdversary(random_churn=-1)
