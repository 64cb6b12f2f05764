"""Naive flooding in the local broadcast model.

Section 2 of the paper notes that an ``O(n²)`` amortized message upper bound
per token "is straightforward to obtain by using flooding (each node
broadcasts each token for n rounds)".  :class:`FloodingAlgorithm` implements
this naive algorithm in its phase-by-phase form: the tokens are processed in
a globally known order, and for ``rounds_per_token`` consecutive rounds every
node that knows the current token broadcasts it.  Because every round graph
is connected, at least one new node learns the token per round of its phase,
so ``n - 1`` rounds per token always suffice — even against the strongly
adaptive adversary.

Cost: at most ``n`` broadcasts per node per token, i.e. ``O(n²k)`` messages
in total and ``O(n²)`` amortized per token, matching the lower bound of
Theorem 2.3 up to logarithmic factors.

:class:`OneShotFloodingAlgorithm` is the optimistic variant in which every
node broadcasts every token it knows exactly once (a work queue).  It is much
cheaper on benign dynamic graphs but has no worst-case guarantee against an
adaptive adversary; it is used as a comparison point in the benchmarks.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import LocalBroadcastAlgorithm
from repro.batch.programs import BatchRoundProgram
from repro.core.messages import MessageKind, Payload, TokenMessage
from repro.core.observation import SentRecord
from repro.core.rounds import FastRoundProgram
from repro.core.state import bit_indices
from repro.core.tokens import Token
from repro.utils.ids import NodeId
from repro.utils.validation import require_positive_int

_KIND_TOKEN = MessageKind.TOKEN.value


class FloodingAlgorithm(LocalBroadcastAlgorithm):
    """Phase-based naive flooding: token ``i`` is flooded for ``rounds_per_token`` rounds.

    Args:
        rounds_per_token: length of each token's flooding phase.  Defaults to
            ``n`` (the paper's description); ``n - 1`` already guarantees
            dissemination on always-connected dynamic graphs.
    """

    name = "flooding"

    def __init__(self, rounds_per_token: Optional[int] = None):
        super().__init__()
        if rounds_per_token is not None:
            require_positive_int(rounds_per_token, "rounds_per_token")
        self._rounds_per_token = rounds_per_token
        self._token_order: Tuple[Token, ...] = ()
        self._phase_length = 0

    def on_setup(self) -> None:
        self._token_order = tuple(sorted(self.problem.tokens))
        self._phase_length = self.phase_length_for(self.problem.num_nodes)

    @property
    def configured_rounds_per_token(self) -> Optional[int]:
        """The explicit phase length, or ``None`` for the n-round default."""
        return self._rounds_per_token

    def phase_length_for(self, num_nodes: int) -> int:
        """The phase length used on an ``num_nodes``-node problem.

        Exposed so alternative execution backends reproduce the exact
        phase schedule without going through :meth:`setup`.
        """
        if self._rounds_per_token is not None:
            return self._rounds_per_token
        return max(1, num_nodes)

    def current_token(self, round_index: int) -> Optional[Token]:
        """The token being flooded in the given round (None once all phases ended)."""
        phase = (round_index - 1) // self._phase_length
        if phase >= len(self._token_order):
            return None
        return self._token_order[phase]

    def select_broadcasts(self, round_index: int) -> Dict[NodeId, Optional[Payload]]:
        token = self.current_token(round_index)
        broadcasts: Dict[NodeId, Optional[Payload]] = {}
        for node in self.nodes:
            if token is not None and self.knows(node, token):
                broadcasts[node] = TokenMessage(token)
            else:
                broadcasts[node] = None
        return broadcasts

    def is_quiescent(self) -> bool:
        return False

    def fast_program_factory(self) -> Optional[Callable]:
        if type(self) is not FloodingAlgorithm:
            return None
        return lambda kernel: _FloodingFastProgram(kernel, self)

    def batch_program_factory(self) -> Optional[Callable]:
        if type(self) is not FloodingAlgorithm:
            return None
        return lambda kernel: _FloodingBatchProgram(kernel, self)


class _FloodingFastProgram(FastRoundProgram):
    """Phase-based flooding on bitmask state: one global token per phase.

    Round ``r`` floods token ``(r - 1) // phase_length`` (in sorted token
    order); every node whose knowledge bit is set commits to broadcasting
    it, and after the adversary fixes the graph every neighbour of a holder
    learns the token.  The holder set is one node bitmask, so a round is a
    popcount, a union of adjacency masks and a handful of bit updates.
    """

    def setup(self) -> None:
        self.phase_length = self.algorithm.phase_length_for(self.n)
        self._current_phase = -1
        self._holders_mask = 0

    def commit(self, round_index: int) -> Tuple[int, int]:
        phase = (round_index - 1) // self.phase_length
        if phase >= self.k:
            return phase, 0
        if phase != self._current_phase:
            self._current_phase = phase
            self._holders_mask = self.state.holders_mask(phase)
        return phase, self._holders_mask

    def commit_payloads(self, commitment) -> Dict[NodeId, Optional[Payload]]:
        phase, holders = commitment
        if phase >= self.k:
            return {node: None for node in self.nodes}
        token = self.tokens[phase]
        return {
            node: TokenMessage(token) if (holders >> index) & 1 else None
            for index, node in enumerate(self.nodes)
        }

    def deliver(self, round_index: int, commitment) -> None:
        phase, holders = commitment
        observe = self.kernel.observe_messages
        if phase >= self.k or not holders:
            if observe:
                self.store_sent_records([])
            return
        broadcasters = bit_indices(holders)
        self.accounting.count_bulk(_KIND_TOKEN, len(broadcasters))
        per_node = self.per_node
        adj = self.adj
        reach = 0
        for index in broadcasters:
            per_node[index] += 1
            reach |= adj[index]
        if observe:
            nodes = self.nodes
            token = self.tokens[phase]
            self.store_sent_records(
                [
                    SentRecord(sender=nodes[index], receiver=None, payload=TokenMessage(token))
                    for index in broadcasters
                ]
            )
        learners = reach & ~holders
        if learners:
            learn_index = self.state.learn_index
            mask = learners
            while mask:
                low = mask & -mask
                learn_index(low.bit_length() - 1, phase)
                mask ^= low
            self._holders_mask = holders | learners


class _FloodingBatchProgram(BatchRoundProgram):
    """Phase-based flooding across all lanes: one matmul per round.

    The per-lane round body is identical to :class:`_FloodingFastProgram`,
    lifted to arrays: the phase-token holder sets of every lane form one
    ``(lanes, n)`` bool matrix (a live view into the batch knowledge cube),
    reachability is a batched matrix product against the dense per-lane
    adjacency, and the new learners of every lane are committed in one
    :meth:`~repro.core.state.BatchKnowledgeState.learn_token_bulk` call —
    which appends events node-ascending per lane, exactly the order the
    serial program's ascending-bit learning loop produces.

    Once every active lane's holder set saturates (all ``n`` nodes hold the
    phase token) the matmul is skipped for the rest of the phase — no lane
    can learn anything, only the broadcast counting remains.
    """

    needs_dense_adjacency = True

    def setup(self) -> None:
        self.phase_length = self.algorithm.phase_length_for(self.n)
        self._current_phase = -1
        self._saturated = False

    def commit(self, round_index: int) -> int:
        phase = (round_index - 1) // self.phase_length
        if phase != self._current_phase:
            self._current_phase = phase
            self._saturated = False
        return phase

    def deliver(self, round_index: int, commitment) -> None:
        phase = commitment
        if phase >= self.k:
            return
        active = self.kernel.active_lanes
        holders = self.state.holders_column(phase)
        senders = holders & active[:, None]
        counts = senders.sum(axis=1)
        self.accounting.count_lanes(_KIND_TOKEN, counts)
        self.accounting.per_node += senders
        if self._saturated:
            return
        if bool((counts[active] == self.n).all()):
            self._saturated = True
            return
        reach = (
            np.matmul(
                self.kernel.dense_adj,
                senders.astype(np.float32)[:, :, None],
            )[:, :, 0]
            > 0.5
        )
        learners = reach & ~holders & active[:, None]
        if learners.any():
            self.state.learn_token_bulk(phase, learners)


class OneShotFloodingAlgorithm(LocalBroadcastAlgorithm):
    """Optimistic flooding: every node broadcasts every token it knows exactly once.

    Each node keeps a FIFO queue of tokens it has not broadcast yet (initial
    tokens plus every newly learned token) and broadcasts the head of the
    queue each round.  The total number of broadcasts is at most ``nk`` (each
    node broadcasts each token at most once), i.e. ``O(n)`` amortized, but the
    algorithm can fail to disseminate against worst-case dynamic graphs — it
    exists as an optimistic baseline for benign schedules.
    """

    name = "one-shot-flooding"

    def __init__(self) -> None:
        super().__init__()
        self._queues: Dict[NodeId, Deque[Token]] = {}

    def on_setup(self) -> None:
        self._queues = {
            node: deque(sorted(self.problem.initial_knowledge[node])) for node in self.nodes
        }

    def on_learn(self, node: NodeId, token: Token) -> None:
        self._queues[node].append(token)

    def select_broadcasts(self, round_index: int) -> Dict[NodeId, Optional[Payload]]:
        broadcasts: Dict[NodeId, Optional[Payload]] = {}
        for node in self.nodes:
            queue = self._queues[node]
            broadcasts[node] = TokenMessage(queue.popleft()) if queue else None
        return broadcasts

    def is_quiescent(self) -> bool:
        return all(not queue for queue in self._queues.values())

    def fast_program_factory(self) -> Optional[Callable]:
        if type(self) is not OneShotFloodingAlgorithm:
            return None
        return lambda kernel: _OneShotFloodingFastProgram(kernel, self)

    def batch_program_factory(self) -> Optional[Callable]:
        if type(self) is not OneShotFloodingAlgorithm:
            return None
        return lambda kernel: _OneShotFloodingBatchProgram(kernel, self)


class _OneShotFloodingFastProgram(FastRoundProgram):
    """One-shot flooding on bitmask state: per-node FIFO queues of bit indices.

    Each round every node with a non-empty queue commits its head token;
    after delivery, every first-time learner enqueues the token it learned
    (mirroring :meth:`OneShotFloodingAlgorithm.on_learn`), and the program is
    quiescent once all queues drain.
    """

    def setup(self) -> None:
        initial = self.kernel.problem.initial_knowledge
        token_index = self.token_index
        self.queues: List[Deque[int]] = [
            deque(sorted(token_index[token] for token in initial[node]))
            for node in self.nodes
        ]

    def commit(self, round_index: int) -> Tuple[int, List[int]]:
        token_of = [-1] * self.n
        senders = 0
        for index, queue in enumerate(self.queues):
            if queue:
                token_of[index] = queue.popleft()
                senders |= 1 << index
        return senders, token_of

    def commit_payloads(self, commitment) -> Dict[NodeId, Optional[Payload]]:
        senders, token_of = commitment
        tokens = self.tokens
        return {
            node: TokenMessage(tokens[token_of[index]]) if (senders >> index) & 1 else None
            for index, node in enumerate(self.nodes)
        }

    def deliver(self, round_index: int, commitment) -> None:
        senders, token_of = commitment
        observe = self.kernel.observe_messages
        if not senders:
            if observe:
                self.store_sent_records([])
            return
        broadcasters = bit_indices(senders)
        self.accounting.count_bulk(_KIND_TOKEN, len(broadcasters))
        per_node = self.per_node
        for index in broadcasters:
            per_node[index] += 1
        if observe:
            nodes = self.nodes
            tokens = self.tokens
            self.store_sent_records(
                [
                    SentRecord(
                        sender=nodes[index],
                        receiver=None,
                        payload=TokenMessage(tokens[token_of[index]]),
                    )
                    for index in broadcasters
                ]
            )
        adj = self.adj
        queues = self.queues
        learn_index = self.state.learn_index
        # Delivery order mirrors the exchange program: receivers ascending,
        # and within a receiver the senders ascending.
        for receiver in range(self.n):
            incoming = adj[receiver] & senders
            while incoming:
                low = incoming & -incoming
                sender = low.bit_length() - 1
                incoming ^= low
                token_bit = token_of[sender]
                if learn_index(receiver, token_bit):
                    queues[receiver].append(token_bit)

    def is_quiescent(self) -> bool:
        return all(not queue for queue in self.queues)


class _OneShotFloodingBatchProgram(BatchRoundProgram):
    """One-shot flooding across lanes: array-backed queues, bulk delivery.

    The per-node FIFO queues of every lane live in one ``(lanes, n, k)``
    ring-free buffer (each node enqueues each token at most once, so ``k``
    slots always suffice) with ``(lanes, n)`` head/tail cursors.  A round's
    commit is then pure array work: every node whose cursor window is
    non-empty broadcasts its head token, and the pop is one masked cursor
    increment.  Delivery builds a one-hot ``(lanes, n, k)`` sender cube and
    one batched matmul against the dense per-lane adjacency yields, for all
    lanes at once, which (receiver, token) pairs were reached; learners are
    the reached pairs not yet in the knowledge cube.  Only the actual
    learnings (at most ``n·k`` per lane over the whole run) drop back to
    python — ordered receiver-ascending and, within a receiver, by the
    lowest adjacent sender that carried the token, which is exactly the
    order the serial fast program's ascending-bit delivery loop learns in.
    """

    needs_dense_adjacency = True

    def setup(self) -> None:
        initial = self.kernel.problem.initial_knowledge
        token_index = self.kernel.token_index
        lanes = self.kernel.lanes
        self.queue_buf = np.zeros((lanes, self.n, self.k), dtype=np.int64)
        self.qhead = np.zeros((lanes, self.n), dtype=np.int64)
        self.qtail = np.zeros((lanes, self.n), dtype=np.int64)
        for index, node in enumerate(self.nodes):
            bits = sorted(token_index[token] for token in initial[node])
            if bits:
                self.queue_buf[:, index, : len(bits)] = bits
                self.qtail[:, index] = len(bits)
        # Once every lane's knowledge cube is full no broadcast can teach
        # anything — the remaining rounds only drain queues and count, so
        # the matmul is skipped for the rest of the run.
        self._saturated = False

    def commit(self, round_index: int) -> Tuple[object, object]:
        senders = (self.qhead < self.qtail) & self.kernel.active_lanes[:, None]
        # Head tokens for every node at once; the clip keeps empty-queue
        # reads in bounds — they are masked out by ``senders`` anyway.
        heads = np.minimum(self.qhead, self.k - 1)
        token_of = np.take_along_axis(self.queue_buf, heads[:, :, None], axis=2)[:, :, 0]
        self.qhead += senders
        return senders, token_of

    def deliver(self, round_index: int, commitment) -> None:
        senders, token_of = commitment
        counts = senders.sum(axis=1)
        self.accounting.count_lanes(_KIND_TOKEN, counts)
        self.accounting.per_node += senders
        if self._saturated or not counts.any():
            return
        lane_ids, sender_ids = np.nonzero(senders)
        sent_tokens = token_of[lane_ids, sender_ids]
        one_hot = np.zeros((self.kernel.lanes, self.n, self.k), dtype=np.float32)
        one_hot[lane_ids, sender_ids, sent_tokens] = 1.0
        reached = np.matmul(self.kernel.dense_adj, one_hot) > 0.5
        learned = reached & ~self.state.know
        if not learned.any():
            self._saturated = bool(
                (self.state.known_counts == self.k).all()
            )
            return
        ll, rr, tt = np.nonzero(learned)
        # Serial learning order within a receiver is sender-ascending, and a
        # token's learn event lands at its *first* delivering sender.  Build
        # per-lane token -> sender-bitmask maps (only for lanes that learn
        # this round) and sort the events by that first sender.
        stages = self.kernel.stages
        token_senders: Dict[int, Dict[int, int]] = {}
        for lane in np.unique(ll).tolist():
            bucket: Dict[int, int] = {}
            row = np.nonzero(senders[lane])[0]
            for sender, token_bit in zip(row.tolist(), token_of[lane, row].tolist()):
                bucket[token_bit] = bucket.get(token_bit, 0) | (1 << sender)
            token_senders[lane] = bucket
        lanes_list = ll.tolist()
        receivers_list = rr.tolist()
        tokens_list = tt.tolist()
        first_sender = np.empty(len(lanes_list), dtype=np.int64)
        for position, (lane, receiver, token_bit) in enumerate(
            zip(lanes_list, receivers_list, tokens_list)
        ):
            incoming = stages[lane].adj[receiver] & token_senders[lane][token_bit]
            first_sender[position] = (incoming & -incoming).bit_length() - 1
        learn = self.state.learn_lane_index
        queue_buf = self.queue_buf
        qtail = self.qtail
        for position in np.lexsort((first_sender, rr, ll)).tolist():
            lane = lanes_list[position]
            receiver = receivers_list[position]
            token_bit = tokens_list[position]
            learn(lane, receiver, token_bit)
            queue_buf[lane, receiver, qtail[lane, receiver]] = token_bit
            qtail[lane, receiver] += 1
        self._saturated = bool((self.state.known_counts == self.k).all())

    def quiescent_lanes(self):
        return (self.qhead >= self.qtail).all(axis=1)
