"""Base classes for token-forwarding algorithms.

A token-forwarding algorithm (Section 1) may store, copy and forward tokens
but never manipulate them.  The base classes here manage the per-node token
knowledge — delegated to a pluggable
:class:`~repro.core.state.KnowledgeState`, so any registered algorithm runs
unchanged on the dict-of-sets reference representation *or* on the integer
bitmasks of the fast backends — the buffering of token-learning events for
the round kernel, and, for unicast algorithms, the per-edge history
(insertion rounds, last token received) that the unicast algorithms of
Section 3 use to classify edges as *new*, *contributive* or *idle*.
"""

from __future__ import annotations

import abc
import random
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.core.comm import CommunicationModel
from repro.core.messages import Payload, ReceivedMessage, TokenMessage
from repro.core.problem import DisseminationProblem
from repro.core.state import KnowledgeState, MappingKnowledgeState
from repro.core.tokens import Token
from repro.utils.ids import Edge, NodeId, normalize_edge
from repro.utils.validation import SimulationError


class TokenForwardingAlgorithm(abc.ABC):
    """Common state management for all algorithms.

    Subclasses implement either the local broadcast or the unicast interface
    (see :class:`LocalBroadcastAlgorithm` / :class:`UnicastAlgorithm`).  The
    round kernel interacts with algorithms exclusively through these
    interfaces.  All knowledge reads and writes route through the bound
    :class:`~repro.core.state.KnowledgeState` — the per-round knowledge
    delta an algorithm produces is therefore representation-independent.
    """

    #: Human-readable algorithm name used in results and reports.
    name: str = "token-forwarding"
    #: Communication model the algorithm operates in.
    communication_model: CommunicationModel

    def __init__(self) -> None:
        self._problem: Optional[DisseminationProblem] = None
        self._rng: Optional[random.Random] = None
        self._state: Optional[KnowledgeState] = None

    # -- lifecycle -------------------------------------------------------

    def setup(
        self,
        problem: DisseminationProblem,
        rng: random.Random,
        state: Optional[KnowledgeState] = None,
    ) -> None:
        """Initialize per-node state from the problem's initial distribution.

        ``state`` binds an externally owned knowledge representation (the
        round kernel passes its own); when omitted, a fresh
        :class:`~repro.core.state.MappingKnowledgeState` is created.
        """
        self._problem = problem
        self._rng = rng
        self._state = state if state is not None else MappingKnowledgeState(problem)
        self.on_setup()

    def on_setup(self) -> None:
        """Subclass hook called at the end of :meth:`setup`."""

    # -- problem accessors -----------------------------------------------

    @property
    def problem(self) -> DisseminationProblem:
        """The problem instance this algorithm was set up with."""
        if self._problem is None:
            raise SimulationError("the algorithm has not been set up with a problem yet")
        return self._problem

    @property
    def rng(self) -> random.Random:
        """The algorithm's private random generator."""
        if self._rng is None:
            raise SimulationError("the algorithm has not been set up with an RNG yet")
        return self._rng

    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        """The node set ``V``."""
        return self.problem.nodes

    @property
    def knowledge_state(self) -> KnowledgeState:
        """The bound knowledge representation."""
        if self._state is None:
            raise SimulationError("the algorithm has not been set up with a problem yet")
        return self._state

    # -- knowledge tracking ----------------------------------------------

    def known_tokens(self, node: NodeId) -> FrozenSet[Token]:
        """The tokens currently known by ``node`` (``K_v(t)``)."""
        return self.knowledge_state.known_tokens(node)

    def knows(self, node: NodeId, token: Token) -> bool:
        """True iff ``node`` already knows ``token``."""
        return self.knowledge_state.knows(node, token)

    def missing_tokens(self, node: NodeId) -> List[Token]:
        """The tokens ``node`` has not yet learned, in sorted order."""
        return self.knowledge_state.missing_tokens(node)

    def is_node_complete(self, node: NodeId) -> bool:
        """True iff ``node`` knows all ``k`` tokens (Definition 3.1)."""
        return self.knowledge_state.is_node_complete(node)

    def all_complete(self) -> bool:
        """True iff every node knows every token (dissemination solved)."""
        return self.knowledge_state.all_complete()

    def learn(self, node: NodeId, token: Token) -> bool:
        """Record that ``node`` received ``token``; True iff it is new to the node."""
        learned = self.knowledge_state.learn(node, token)
        if learned:
            self.on_learn(node, token)
        return learned

    def on_learn(self, node: NodeId, token: Token) -> None:
        """Subclass hook invoked whenever a node learns a new token."""

    def drain_token_learnings(self) -> List[Tuple[NodeId, Token]]:
        """Return (and clear) the token learnings buffered since the last drain."""
        return self.knowledge_state.drain_learnings()

    # -- engine hooks ------------------------------------------------------

    def fast_program_factory(self) -> Optional[Callable[[object], object]]:
        """A native bit-level round program for this algorithm, or ``None``.

        Algorithms with a fast path return a callable ``kernel ->
        FastRoundProgram`` (see :mod:`repro.core.rounds`); the bitset backend
        runs it instead of the generic exchange program.  Implementations
        must guard on their exact type — a subclass may override behaviour
        the program does not model, and then must fall back to the generic
        path (return ``None``), which drives the subclass's real methods.
        """
        return None

    def batch_program_factory(self) -> Optional[Callable[[object], object]]:
        """A lockstep many-repetition round program, or ``None``.

        Only algorithms whose rounds really step in ``(lanes, n)`` lockstep
        (bulk numpy operations over all repetitions at once) return a
        callable ``batch_kernel -> BatchRoundProgram`` (see
        :mod:`repro.batch.programs`); the batch backend steps all
        repetitions of a scenario with it.  The same exact-type guard as
        :meth:`fast_program_factory` applies.  Algorithms with per-edge
        choices return ``None``: the batch backend runs their repetitions
        one at a time on the bitset kernel, over one shared problem.
        """
        return None

    def is_quiescent(self) -> bool:
        """True if the algorithm will not send any further messages.

        The engine stops an execution as soon as the dissemination problem is
        solved; quiescence is only consulted for algorithms that may finish
        sending before completing (used by tests and diagnostics).
        """
        return False

    def observation_extra(self) -> Dict[str, object]:
        """Additional state exposed to strongly adaptive adversaries."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class LocalBroadcastAlgorithm(TokenForwardingAlgorithm):
    """Base class for algorithms in the local broadcast model.

    Per round the engine calls :meth:`select_broadcasts` *before* the round
    graph is known (nodes commit to their broadcast without neighbourhood
    information, as in the lower-bound model of Section 2), then delivers all
    broadcasts via :meth:`receive_broadcasts`.
    """

    communication_model = CommunicationModel.LOCAL_BROADCAST

    @abc.abstractmethod
    def select_broadcasts(self, round_index: int) -> Dict[NodeId, Optional[Payload]]:
        """Return the payload each node locally broadcasts this round (or ``None``)."""

    def receive_broadcasts(
        self,
        round_index: int,
        inbox: Mapping[NodeId, List[ReceivedMessage]],
        neighbors: Mapping[NodeId, FrozenSet[NodeId]],
    ) -> None:
        """Deliver broadcasts; the default learns every received token."""
        for node, messages in inbox.items():
            for message in messages:
                if isinstance(message.payload, TokenMessage):
                    self.learn(node, message.payload.token)


class UnicastAlgorithm(TokenForwardingAlgorithm):
    """Base class for algorithms in the unicast model.

    In the unicast model each node learns the IDs of its neighbours at the
    start of the round (Section 1.3).  The engine therefore calls, in order,

    1. :meth:`on_topology` with the round's adjacency and edge changes,
    2. :meth:`select_messages` to collect the messages to send,
    3. :meth:`receive_messages` to deliver them.

    The base class maintains per-edge history used by the algorithms of
    Section 3 to classify adjacent edges:

    * an edge is **new** in round ``r`` if it was inserted in round ``r`` or
      ``r - 1``;
    * it is **contributive** if it is not new but a new token was received
      over it since its last insertion;
    * otherwise it is **idle**.
    """

    communication_model = CommunicationModel.UNICAST

    def __init__(self) -> None:
        super().__init__()
        self._current_round = 0
        self._current_neighbors: Dict[NodeId, FrozenSet[NodeId]] = {}
        self._previous_neighbors: Dict[NodeId, FrozenSet[NodeId]] = {}
        self._edge_last_inserted: Dict[Edge, int] = {}
        self._edge_last_token_round: Dict[Edge, int] = {}

    # -- topology tracking -------------------------------------------------

    def on_topology(
        self,
        round_index: int,
        neighbors: Mapping[NodeId, FrozenSet[NodeId]],
        inserted_edges: Iterable[Edge],
        removed_edges: Iterable[Edge],
    ) -> None:
        """Engine callback: the adversary fixed the round graph.

        Subclasses overriding this hook must call ``super().on_topology`` to
        keep the edge history consistent.
        """
        self._current_round = round_index
        self._previous_neighbors = self._current_neighbors
        self._current_neighbors = dict(neighbors)
        for edge in inserted_edges:
            canonical = normalize_edge(*edge)
            self._edge_last_inserted[canonical] = round_index
            # A reinserted edge starts a fresh history: any token received on
            # a previous incarnation no longer makes it contributive.
            self._edge_last_token_round.pop(canonical, None)

    def neighbors_of(self, node: NodeId) -> FrozenSet[NodeId]:
        """The current-round neighbourhood of ``node``."""
        return self._current_neighbors.get(node, frozenset())

    def previous_neighbors_of(self, node: NodeId) -> FrozenSet[NodeId]:
        """The neighbourhood of ``node`` in the previous round."""
        return self._previous_neighbors.get(node, frozenset())

    def edge_inserted_round(self, node: NodeId, neighbor: NodeId) -> int:
        """The round in which the edge ``{node, neighbor}`` was last inserted."""
        return self._edge_last_inserted.get(normalize_edge(node, neighbor), 0)

    def record_token_over_edge(self, node: NodeId, neighbor: NodeId, round_index: int) -> None:
        """Record that a new token was received over ``{node, neighbor}``."""
        self._edge_last_token_round[normalize_edge(node, neighbor)] = round_index

    def is_new_edge(self, node: NodeId, neighbor: NodeId, round_index: int) -> bool:
        """True iff the edge was inserted in round ``round_index`` or ``round_index - 1``."""
        inserted = self.edge_inserted_round(node, neighbor)
        return inserted >= round_index - 1

    def is_contributive_edge(self, node: NodeId, neighbor: NodeId, round_index: int) -> bool:
        """True iff the edge is not new but carried a new token since its last insertion."""
        if self.is_new_edge(node, neighbor, round_index):
            return False
        canonical = normalize_edge(node, neighbor)
        inserted = self._edge_last_inserted.get(canonical, 0)
        token_round = self._edge_last_token_round.get(canonical)
        return token_round is not None and token_round >= inserted

    def is_idle_edge(self, node: NodeId, neighbor: NodeId, round_index: int) -> bool:
        """True iff the edge is neither new nor contributive."""
        return not self.is_new_edge(node, neighbor, round_index) and not self.is_contributive_edge(
            node, neighbor, round_index
        )

    # -- message interface -------------------------------------------------

    @abc.abstractmethod
    def select_messages(
        self, round_index: int, neighbors: Mapping[NodeId, FrozenSet[NodeId]]
    ) -> Dict[NodeId, Dict[NodeId, List[Payload]]]:
        """Return, for each sender, the payloads addressed to each neighbour."""

    def receive_messages(
        self, round_index: int, inbox: Mapping[NodeId, List[ReceivedMessage]]
    ) -> None:
        """Deliver unicast messages; the default learns every received token."""
        for node, messages in inbox.items():
            for message in messages:
                if isinstance(message.payload, TokenMessage):
                    learned = self.learn(node, message.payload.token)
                    if learned:
                        self.record_token_over_edge(node, message.sender, round_index)
