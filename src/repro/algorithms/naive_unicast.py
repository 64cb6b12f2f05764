"""Naive unicast dissemination.

Section 1 notes that in the unicast model "an O(n²) amortized upper bound is
easy to obtain (each node sends each token at most once to each other node)".
:class:`NaiveUnicastAlgorithm` realizes exactly that rule: every node keeps,
per other node, the set of tokens it has already pushed to it; each round it
sends to every current neighbour one token it knows and has not yet sent to
that neighbour.

Total messages are bounded by ``n(n-1)k`` pair-token sends, i.e. ``O(n²)``
amortized per token.  Progress on every connected round graph: as long as
some node misses some token, there is an edge between a knower and a
non-knower, and the knower keeps pushing unsent tokens over it.  (Against a
strongly adaptive adversary the round complexity can be large, but the
message bound above always holds.)
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.algorithms.base import UnicastAlgorithm
from repro.batch.programs import BatchRoundProgram
from repro.core.messages import MessageKind, Payload, TokenMessage
from repro.core.observation import SentRecord
from repro.core.rounds import FastRoundProgram
from repro.core.tokens import Token
from repro.utils.ids import NodeId

_KIND_TOKEN = MessageKind.TOKEN.value


class NaiveUnicastAlgorithm(UnicastAlgorithm):
    """Each node sends each token at most once to each other node."""

    name = "naive-unicast"

    def __init__(self) -> None:
        super().__init__()
        self._sent: Dict[NodeId, Dict[NodeId, Set[Token]]] = {}

    def on_setup(self) -> None:
        self._sent = {node: {} for node in self.nodes}

    def _next_token_for(self, sender: NodeId, receiver: NodeId) -> Token:
        """The smallest token the sender knows and has not yet sent to the receiver."""
        already_sent = self._sent[sender].setdefault(receiver, set())
        for token in sorted(self.known_tokens(sender)):
            if token not in already_sent:
                return token
        return None  # type: ignore[return-value]

    def select_messages(
        self, round_index: int, neighbors: Mapping[NodeId, FrozenSet[NodeId]]
    ) -> Dict[NodeId, Dict[NodeId, List[Payload]]]:
        sends: Dict[NodeId, Dict[NodeId, List[Payload]]] = {}
        for sender in self.nodes:
            outgoing: Dict[NodeId, List[Payload]] = {}
            for receiver in sorted(neighbors.get(sender, frozenset())):
                token = self._next_token_for(sender, receiver)
                if token is None:
                    continue
                self._sent[sender][receiver].add(token)
                outgoing[receiver] = [TokenMessage(token)]
            if outgoing:
                sends[sender] = outgoing
        return sends

    def is_quiescent(self) -> bool:
        """True when every node has pushed all of its tokens to every other node."""
        total_pairs = len(self.nodes) * (len(self.nodes) - 1)
        pushed = sum(
            1
            for sender in self.nodes
            for receiver, tokens in self._sent[sender].items()
            if len(tokens) >= len(self.known_tokens(sender))
        )
        return pushed >= total_pairs

    def fast_program_factory(self) -> Optional[Callable]:
        if type(self) is not NaiveUnicastAlgorithm:
            return None
        return lambda kernel: _NaiveUnicastFastProgram(kernel, self)

    def batch_program_factory(self) -> Optional[Callable]:
        if type(self) is not NaiveUnicastAlgorithm:
            return None
        return lambda kernel: _NaiveUnicastBatchProgram(kernel, self)


class _NaiveUnicastFastProgram(FastRoundProgram):
    """Naive unicast on bitmask state: per-pair sent-token bitmasks.

    Mirrors :class:`NaiveUnicastAlgorithm` exactly, including the
    quiescence rule's bookkeeping quirk: a pair entry exists as soon as a
    sender *considers* a neighbour, even when it has nothing left to send.
    """

    def setup(self) -> None:
        # sent[v][u] = bitmask of tokens v has pushed to u.  An entry is
        # created on first consideration (mirroring the reference
        # ``setdefault``), which the quiescence rule depends on.
        self.sent: List[Dict[int, int]] = [{} for _ in range(self.n)]

    def deliver(self, round_index: int, commitment) -> None:
        n = self.n
        adj = self.adj
        state = self.state
        know = state.know
        per_node = self.per_node
        sent = self.sent
        deliveries: List[Optional[List[Tuple[int, int]]]] = [None] * n
        observe = self.kernel.observe_messages
        records: Optional[List[SentRecord]] = [] if observe else None
        nodes = self.nodes
        tokens = self.tokens

        token_count = 0
        for v in range(n):
            neighbors = adj[v]
            if not neighbors:
                continue
            sent_v = sent[v]
            know_v = know[v]
            to_visit = neighbors
            while to_visit:
                low = to_visit & -to_visit
                u = low.bit_length() - 1
                to_visit ^= low
                already = sent_v.get(u)
                if already is None:
                    already = sent_v[u] = 0
                sendable = know_v & ~already
                if not sendable:
                    continue
                token_low = sendable & -sendable
                token_bit_index = token_low.bit_length() - 1
                sent_v[u] = already | token_low
                token_count += 1
                per_node[v] += 1
                box = deliveries[u]
                if box is None:
                    box = deliveries[u] = []
                box.append((v, token_bit_index))
                if records is not None:
                    records.append(
                        SentRecord(
                            sender=nodes[v],
                            receiver=nodes[u],
                            payload=TokenMessage(tokens[token_bit_index]),
                        )
                    )

        learn_index = state.learn_index
        for u in range(n):
            box = deliveries[u]
            if not box:
                continue
            for _, token_bit_index in box:
                learn_index(u, token_bit_index)

        self.accounting.count_bulk(_KIND_TOKEN, token_count)
        if records is not None:
            self.store_sent_records(records)

    def is_quiescent(self) -> bool:
        total_pairs = self.n * (self.n - 1)
        know_count = self.state.know_count
        pushed = 0
        for v, sent_v in enumerate(self.sent):
            count = know_count[v]
            for mask in sent_v.values():
                if mask.bit_count() >= count:
                    pushed += 1
        return pushed >= total_pairs


class _NaiveUnicastBatchProgram(BatchRoundProgram):
    """Naive unicast across lanes: packed per-pair send history, bulk rounds.

    The per-pair "tokens v already pushed to u" sets of every lane live in
    one ``(lanes, n, n, words)`` uint64 cube (``words = ceil(k / 64)``), so
    a round is pure array work: mask the knowledge words of every sender
    against its per-pair sent words, find the lowest settable bit per
    adjacent pair with a word-at-a-time bit trick, and fold the chosen bits
    back into the history cube — all lanes at once.  The quiescence rule's
    create-on-consideration quirk survives as a ``(lanes, n, n)`` bool
    ``considered`` matrix OR-ed with each round's adjacency, and the
    pair-send tallies it compares against knowledge counts are maintained
    incrementally.  Only the actual learnings (at most ``n·k`` per lane over
    the run) drop back to python, in the serial program's receiver-major,
    sender-ascending order.
    """

    needs_dense_adjacency = True

    def setup(self) -> None:
        lanes = self.kernel.lanes
        n = self.n
        self.words = (self.k + 63) // 64
        initial = self.kernel.problem.initial_knowledge
        token_index = self.kernel.token_index
        # know_words[lane, v, w] mirrors the knowledge cube, 64 tokens per word.
        self.know_words = np.zeros((lanes, n, self.words), dtype=np.uint64)
        for index, node in enumerate(self.nodes):
            for token in initial[node]:
                bit = token_index[token]
                self.know_words[:, index, bit >> 6] |= np.uint64(1 << (bit & 63))
        # sent_words[lane, v, u, w] = tokens v has pushed to u on this lane.
        self.sent_words = np.zeros((lanes, n, n, self.words), dtype=np.uint64)
        self.sent_counts = np.zeros((lanes, n, n), dtype=np.int64)
        self.considered = np.zeros((lanes, n, n), dtype=np.bool_)

    def deliver(self, round_index: int, commitment) -> None:
        n = self.n
        pairs = (self.kernel.dense_adj > 0.5) & self.kernel.active_lanes[:, None, None]
        self.considered |= pairs
        sendable = self.know_words[:, :, None, :] & ~self.sent_words
        # Lowest sendable bit per (sender, receiver) pair: scan the words
        # ascending, first non-empty word wins, isolate its lowest set bit.
        chosen = np.full((self.kernel.lanes, n, n), -1, dtype=np.int64)
        open_pairs = pairs
        one = np.uint64(1)
        for word in range(self.words):
            words = sendable[:, :, :, word]
            hits = open_pairs & (words != 0)
            if not hits.any():
                continue
            lows = words & (~words + one)
            bits = (
                np.bitwise_count(np.where(hits, lows - one, 0)).astype(np.int64)
                + 64 * word
            )
            chosen = np.where(hits, bits, chosen)
            self.sent_words[:, :, :, word] |= np.where(hits, lows, 0)
            open_pairs = open_pairs & ~hits
        messages = chosen >= 0
        self.sent_counts += messages
        self.accounting.count_lanes(_KIND_TOKEN, messages.sum(axis=(1, 2)))
        self.accounting.per_node += messages.sum(axis=2)
        # Learning order mirrors the serial program: receiver-major, then the
        # senders ascending — ``nonzero`` on the transposed cube walks
        # exactly that order lane by lane.
        ll, uu, vv = np.nonzero(messages.transpose(0, 2, 1))
        if ll.size == 0:
            return
        sent_tokens = chosen[ll, vv, uu]
        fresh = ~self.state.know[ll, uu, sent_tokens]
        learn = self.state.learn_lane_index
        know_words = self.know_words
        for lane, receiver, token_bit in zip(
            ll[fresh].tolist(), uu[fresh].tolist(), sent_tokens[fresh].tolist()
        ):
            # learn_lane_index dedups same-round duplicates (two senders
            # pushing one token to the same receiver); the first — lowest —
            # sender wins, matching the serial delivery loop.
            if learn(lane, receiver, token_bit):
                know_words[lane, receiver, token_bit >> 6] |= np.uint64(
                    1 << (token_bit & 63)
                )

    def quiescent_lanes(self):
        total_pairs = self.n * (self.n - 1)
        pushed = self.considered & (
            self.sent_counts >= self.state.known_counts[:, :, None]
        )
        return pushed.sum(axis=(1, 2)) >= total_pairs
