"""Index-native graph state of the in-tree churn adversaries.

:class:`ControlledChurnAdversary` and the random-churn tails of
:class:`RequestCuttingAdversary` and :class:`AdaptiveRewiringAdversary`
rewire a connected random graph a few edges at a time.  They keep that graph
as a :class:`ChurnGraph` — per-node adjacency bitmasks plus an edge count —
and hand the round kernel only what changed: the inserted and removed edge
ids in the :func:`repro.core.state.edge_id` encoding
(:meth:`ChurnAdversary.edge_delta_for_round`).  The tuple-returning
:meth:`~repro.adversaries.base.Adversary.edges_for_round` stays available
for direct callers and returns the same edge sets as ever.

Random edges and non-edges are drawn *by rank*: ``rng.sample(range(count),
m)`` draws exactly the random numbers ``rng.sample(candidates, m)`` drew on
an explicit candidate list, and the r-th edge (or non-edge) in ``(u, v)``
order is then found with a popcount walk over the rows, without building
the O(n²) list.  Connectivity is re-checked with a bitmask BFS, and the
unchanged :func:`~repro.dynamics.connectivity.ensure_connected` runs only
when that BFS finds the graph disconnected, so its repair draws are the
same too.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.adversaries.base import Adversary
from repro.core.observation import RoundObservation
from repro.core.state import edge_id
from repro.dynamics.connectivity import ensure_connected, survives_removals
from repro.dynamics.generators import random_connected_edges
from repro.utils.ids import Edge, NodeId
from repro.utils.validation import require_probability


def _nth_set_bit(mask: int, rank: int) -> int:
    """The position of the ``rank``-th (0-based) set bit of ``mask``."""
    for _ in range(rank):
        mask &= mask - 1
    return (mask & -mask).bit_length() - 1


class ChurnGraph:
    """An undirected graph over a fixed node tuple, kept as adjacency bitmasks.

    Bit ``b`` of ``adj[a]`` is set iff node indices ``a`` and ``b`` are
    adjacent.  Every change is also folded into a net delta of edge ids
    (an edge removed and re-added in the same round cancels out), which
    :meth:`take_delta` hands over and resets.
    """

    __slots__ = ("nodes", "n", "index_of", "adj", "size", "_inserted", "_removed")

    def __init__(self, nodes: Sequence[NodeId], edges: Iterable[Edge]) -> None:
        self.nodes: Tuple[NodeId, ...] = tuple(nodes)
        self.n = len(self.nodes)
        self.index_of: Dict[NodeId, int] = {
            node: index for index, node in enumerate(self.nodes)
        }
        self.adj: List[int] = [0] * self.n
        self.size = 0
        self._inserted: Set[int] = set()
        self._removed: Set[int] = set()
        for u, v in edges:
            self.add_edge(u, v)

    # -- edits (node ids) --------------------------------------------------

    def _pair(self, u: NodeId, v: NodeId) -> Tuple[int, int]:
        a, b = self.index_of[u], self.index_of[v]
        return (a, b) if a < b else (b, a)

    def _edge(self, a: int, b: int) -> Edge:
        return (self.nodes[a], self.nodes[b])

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        a, b = self._pair(u, v)
        return bool((self.adj[a] >> b) & 1)

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        """Insert the (absent) edge ``{u, v}``."""
        a, b = self._pair(u, v)
        self.adj[a] |= 1 << b
        self.adj[b] |= 1 << a
        self.size += 1
        eid = edge_id(a, b, self.n)
        if eid in self._removed:
            self._removed.discard(eid)
        else:
            self._inserted.add(eid)

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Delete the (present) edge ``{u, v}``."""
        a, b = self._pair(u, v)
        self.adj[a] ^= 1 << b
        self.adj[b] ^= 1 << a
        self.size -= 1
        eid = edge_id(a, b, self.n)
        if eid in self._inserted:
            self._inserted.discard(eid)
        else:
            self._removed.add(eid)

    # -- rank sampling -----------------------------------------------------

    def _pairs_at(self, ranks: Sequence[int], non_edges: bool) -> List[Edge]:
        """The edges (or non-edges) of the given ranks in ``(u, v)`` order.

        Rank ``r`` is the r-th entry of the list
        ``[(u, v) for u < v if {u, v} is (not) an edge]`` in row-major order
        — the same list ``sorted(edges)`` (or the candidate comprehension)
        used to build.  One walk over the rows serves every rank.
        """
        n = self.n
        adj = self.adj
        found: Dict[int, Edge] = {}
        a = 0
        before = 0  # entries in the rows above row ``a``
        for position in sorted(range(len(ranks)), key=ranks.__getitem__):
            rank = ranks[position]
            while True:
                row = adj[a] >> (a + 1)
                if non_edges:
                    row ^= (1 << (n - a - 1)) - 1
                count = row.bit_count()
                if rank < before + count:
                    break
                before += count
                a += 1
            found[position] = self._edge(a, a + 1 + _nth_set_bit(row, rank - before))
        return [found[position] for position in range(len(ranks))]

    def remove_random(self, rng: random.Random, count: int) -> List[Edge]:
        """Remove ``min(count, size)`` uniformly sampled edges; return them in draw order.

        Draws exactly what ``rng.sample(sorted(edges), ...)`` drew.
        """
        ranks = rng.sample(range(self.size), min(count, self.size))
        edges = self._pairs_at(ranks, non_edges=False)
        for u, v in edges:
            self.remove_edge(u, v)
        return edges

    def add_random(self, rng: random.Random, count: int) -> List[Edge]:
        """Insert up to ``count`` uniformly sampled non-edges; return them in draw order.

        Draws exactly what ``rng.sample(candidates, ...)`` drew on the
        row-major list of every absent pair.
        """
        free = self.n * (self.n - 1) // 2 - self.size
        ranks = rng.sample(range(free), min(count, free))
        edges = self._pairs_at(ranks, non_edges=True)
        for u, v in edges:
            self.add_edge(u, v)
        return edges

    # -- connectivity ------------------------------------------------------

    def repair(
        self, rng: random.Random, edges: Optional[Set[Edge]] = None
    ) -> Optional[Set[Edge]]:
        """Reconnect the graph the way :func:`ensure_connected` always did.

        A connected graph is left alone: ``ensure_connected`` would have
        returned it unchanged without touching ``rng``.  Otherwise
        ``ensure_connected`` runs on ``edges`` (default: this graph's edge
        set), its connecting edges are inserted here, and its result is
        returned; ``None`` means no repair was needed.
        """
        # The graph was connected at the last take_delta (round 1 draws a
        # connected sample, and every round ends repaired).
        if survives_removals(self.adj, self._removed, self.n):
            return None
        if edges is None:
            edges = self.edge_set()
        repaired = ensure_connected(self.nodes, edges, rng)
        for u, v in repaired - edges:
            self.add_edge(u, v)
        return repaired

    # -- output ------------------------------------------------------------

    def edge_set(self) -> Set[Edge]:
        """A fresh set of the current edges as node tuples."""
        edges: Set[Edge] = set()
        for a, mask in enumerate(self.adj):
            mask >>= a + 1
            while mask:
                low = mask & -mask
                edges.add(self._edge(a, a + low.bit_length()))
                mask ^= low
        return edges

    def take_delta(self) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """The net ``(inserted, removed)`` edge ids since the last call."""
        delta = (frozenset(self._inserted), frozenset(self._removed))
        self._inserted.clear()
        self._removed.clear()
        return delta


class ChurnAdversary(Adversary):
    """Base of the in-tree churn family: a connected G(n, p) graph rewired every round.

    Round 1 plays a fresh connected G(n, p) sample; every later round calls
    :meth:`rewire`, which edits the :class:`ChurnGraph` in place.  The round
    kernel consumes the result as an edge-id delta through
    :meth:`edge_delta_for_round`; :meth:`edges_for_round` returns the
    round's full edge set as node tuples for everyone else.
    """

    def __init__(self, edge_probability: float) -> None:
        super().__init__()
        require_probability(edge_probability, "edge_probability")
        self._edge_probability = edge_probability
        self._graph: Optional[ChurnGraph] = None

    def on_reset(self) -> None:
        self._graph = None

    def initial_edges(self) -> Set[Edge]:
        """The round-1 graph: a connected G(n, p) sample."""
        return random_connected_edges(self.nodes, self._edge_probability, self.rng)

    @abc.abstractmethod
    def rewire(self, graph: ChurnGraph, observation: Optional[RoundObservation]) -> None:
        """Apply one round of churn to ``graph`` (leaving it connected)."""

    def edge_delta_for_round(
        self, round_index: int, observation: Optional[RoundObservation]
    ) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """Advance one round; return the net ``(inserted, removed)`` edge ids.

        Ids use the :func:`~repro.core.state.edge_id` encoding over the
        indices of :attr:`nodes`, and the delta is relative to the graph of
        the previous call (empty before the first round).
        """
        if self._graph is None:
            self._graph = ChurnGraph(self.nodes, self.initial_edges())
        else:
            self.rewire(self._graph, observation)
        return self._graph.take_delta()

    def edges_for_round(
        self, round_index: int, observation: Optional[RoundObservation]
    ) -> Iterable[Edge]:
        self.edge_delta_for_round(round_index, observation)
        return self._graph.edge_set()
