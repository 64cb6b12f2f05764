"""Oblivious adversaries.

An oblivious adversary commits to the entire topology sequence before the
execution starts (Section 1.3).  We provide two flavours:

* :class:`ScheduleAdversary` replays a pre-committed
  :class:`~repro.dynamics.graph_sequence.GraphSchedule`;
* lazily generated adversaries whose round graphs depend only on the round
  index and the adversary's private randomness (never on the algorithm);
  because the engine seeds the adversary before the execution and never hands
  it an observation, the generated sequence is equivalent to a pre-committed
  one.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from repro.adversaries.base import Adversary
from repro.adversaries.churn import ChurnAdversary, ChurnGraph
from repro.core.observation import RoundObservation
from repro.dynamics.connectivity import is_connected
from repro.dynamics.generators import random_connected_edges
from repro.dynamics.graph_sequence import GraphSchedule
from repro.utils.ids import Edge, normalize_edge
from repro.utils.validation import (
    ConfigurationError,
    require_non_negative_int,
    require_probability,
)


class ScheduleAdversary(Adversary):
    """Replays a pre-committed schedule; the last round graph repeats forever."""

    oblivious = True

    def __init__(self, schedule: GraphSchedule, name: str = "schedule"):
        super().__init__()
        self._schedule = schedule
        self.name = name

    @property
    def schedule(self) -> GraphSchedule:
        """The committed schedule."""
        return self._schedule

    @property
    def steady_after_round(self) -> int:
        """Past the schedule's length the last round graph repeats forever."""
        return self._schedule.num_rounds

    def on_reset(self) -> None:
        if set(self._schedule.nodes) != set(self.problem.nodes):
            raise ConfigurationError(
                "the schedule's node set does not match the problem's node set"
            )

    def edges_for_round(
        self, round_index: int, observation: Optional[RoundObservation]
    ) -> Iterable[Edge]:
        return self._schedule.edges_for_round(round_index)


class StaticAdversary(ScheduleAdversary):
    """A static (never changing) network given by a single connected edge set."""

    def __init__(self, num_nodes: int, edges: Iterable[Edge], name: str = "static"):
        nodes = list(range(num_nodes))
        edge_set = {normalize_edge(u, v) for (u, v) in edges}
        if not is_connected(nodes, edge_set):
            raise ConfigurationError("StaticAdversary requires a connected edge set")
        super().__init__(GraphSchedule(nodes, [edge_set]), name=name)


class RandomChurnObliviousAdversary(Adversary):
    """Fresh connected G(n, p) graph every ``period`` rounds, independent of the algorithm."""

    oblivious = True

    def __init__(
        self,
        edge_probability: float = 0.1,
        period: int = 1,
        name: str = "random-churn",
    ):
        super().__init__()
        require_probability(edge_probability, "edge_probability")
        if period < 1:
            raise ConfigurationError("period must be at least 1")
        self._edge_probability = edge_probability
        self._period = period
        self._current: Optional[Set[Edge]] = None
        self.name = name

    def on_reset(self) -> None:
        self._current = None

    def edges_for_round(
        self, round_index: int, observation: Optional[RoundObservation]
    ) -> Iterable[Edge]:
        needs_refresh = self._current is None or (round_index - 1) % self._period == 0
        if needs_refresh:
            self._current = random_connected_edges(
                self.nodes, self._edge_probability, self.rng
            )
        return set(self._current)


class ControlledChurnAdversary(ChurnAdversary):
    """An oblivious adversary with an explicit per-round churn budget.

    Starting from a connected random graph, every round it removes up to
    ``changes_per_round`` random edges and inserts the same number of fresh
    random edges (then repairs connectivity).  The total number of
    topological changes of an x-round execution is therefore roughly
    ``changes_per_round · x`` plus the initial edges, which makes this
    adversary the workhorse for sweeping ``TC(E)`` in the
    adversary-competitive experiments.  With a zero budget the first
    round's graph stays forever (:attr:`steady_after_round` is 1).
    """

    oblivious = True

    def __init__(
        self,
        changes_per_round: int = 0,
        edge_probability: float = 0.15,
        name: str = "controlled-churn",
    ):
        require_non_negative_int(changes_per_round, "changes_per_round")
        super().__init__(edge_probability)
        self._changes_per_round = changes_per_round
        self.name = name

    @property
    def changes_per_round(self) -> int:
        """The configured per-round churn budget."""
        return self._changes_per_round

    @property
    def steady_after_round(self) -> Optional[int]:
        """A zero budget never changes the round-1 graph."""
        return 1 if self._changes_per_round == 0 else None

    def rewire(self, graph: ChurnGraph, observation: Optional[RoundObservation]) -> None:
        removed = graph.remove_random(self.rng, self._changes_per_round)
        graph.add_random(self.rng, len(removed))
        graph.repair(self.rng)
