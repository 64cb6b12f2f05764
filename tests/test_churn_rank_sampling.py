"""The rank-sampling churn adversaries draw exactly what the list-based ones drew.

The in-tree churn adversaries used to rebuild the full O(n²) non-edge list
every round and union-find every tuple edge.  They now sample by rank over
adjacency bitmasks and repair only disconnected graphs.  The reference
implementations below are verbatim copies of the list-based round bodies;
every test runs both side by side from the same seed and requires the same
edge set *and* the same RNG state after every round, across sizes, densities
(including p = 0, which repairs every round, and p = 1, the complete graph
with no free pair to insert) and churn budgets.  The edge-id delta path the
round kernel consumes must equal the difference of consecutive edge sets.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.adversaries import (
    AdaptiveRewiringAdversary,
    ControlledChurnAdversary,
    RequestCuttingAdversary,
)
from repro.core.messages import MessageKind, RequestMessage, TokenMessage
from repro.core.observation import RoundObservation, SentRecord
from repro.core.problem import DisseminationProblem, single_source_problem
from repro.core.state import edge_id
from repro.core.tokens import make_tokens
from repro.dynamics.connectivity import ensure_connected
from repro.dynamics.generators import random_connected_edges
from repro.utils.ids import normalize_edge

SIZES = (2, 3, 5, 8, 16, 32, 48)
DENSITIES = (0.0, 0.05, 0.15, 0.5, 1.0)
BUDGETS = (1, 2, 5)
SEEDS = (0, 1, 2, 3)
ROUNDS = 8


# -- reference implementations (the list-based round bodies) -----------------


def reference_controlled_churn(nodes, current, changes_per_round, rng):
    nodes = list(nodes)
    edges = set(current)
    removable = sorted(edges)
    to_remove = rng.sample(removable, min(changes_per_round, len(removable)))
    for edge in to_remove:
        edges.discard(edge)
    candidates = [
        normalize_edge(u, v)
        for index, u in enumerate(nodes)
        for v in nodes[index + 1 :]
        if normalize_edge(u, v) not in edges
    ]
    to_add = rng.sample(candidates, min(len(to_remove), len(candidates)))
    edges.update(to_add)
    return set(ensure_connected(nodes, edges, rng))


def reference_request_cutting(nodes, current, cut_fraction, observation, rng):
    nodes = list(nodes)
    edges = set(current)
    request_edges = set()
    for record in observation.previous_messages:
        if record.receiver is not None and record.payload.kind is MessageKind.REQUEST:
            request_edges.add(normalize_edge(record.sender, record.receiver))
    request_edges = sorted(request_edges & edges)
    num_to_cut = int(round(cut_fraction * len(request_edges)))
    for edge in rng.sample(request_edges, num_to_cut):
        edges.discard(edge)
    candidates = [
        normalize_edge(u, v)
        for index, u in enumerate(nodes)
        for v in nodes[index + 1 :]
        if normalize_edge(u, v) not in edges
    ]
    edges.update(rng.sample(candidates, min(num_to_cut, len(candidates))))
    return set(ensure_connected(nodes, edges, rng))


def reference_adaptive_rewiring(
    nodes, current, targeted_cuts, random_churn, observation, rng
):
    def gap(edge):
        u, v = edge
        return len(observation.knowledge[u] ^ observation.knowledge[v])

    nodes = list(nodes)
    edges = set(current)
    removed = 0
    if targeted_cuts > 0:
        ranked = sorted(edges, key=gap, reverse=True)
        for edge in ranked[:targeted_cuts]:
            if gap(edge) == 0:
                break
            edges.discard(edge)
            removed += 1
    removable = sorted(edges)
    for edge in rng.sample(removable, min(random_churn, len(removable))):
        edges.discard(edge)
        removed += 1
    candidates = [
        normalize_edge(u, v)
        for index, u in enumerate(nodes)
        for v in nodes[index + 1 :]
        if normalize_edge(u, v) not in edges
    ]
    edges.update(rng.sample(candidates, min(removed, len(candidates))))
    return set(ensure_connected(nodes, edges, rng))


# -- harness ------------------------------------------------------------------


def _as_ids(problem, edges):
    index_of = {node: index for index, node in enumerate(problem.nodes)}
    n = len(problem.nodes)
    return frozenset(edge_id(index_of[u], index_of[v], n) for u, v in edges)


def assert_matches_reference(
    make_adversary, problem, p, seed, reference_round, observations
):
    """Tuple path, delta path and reference agree on every round and RNG state."""
    tuple_adversary = make_adversary()
    delta_adversary = make_adversary()
    reference_rng = random.Random(seed)
    tuple_rng = random.Random(seed)
    delta_rng = random.Random(seed)
    tuple_adversary.reset(problem, tuple_rng)
    delta_adversary.reset(problem, delta_rng)

    current = None
    current_ids = frozenset()
    for round_index in range(1, ROUNDS + 1):
        observation = observations(round_index, current)
        if current is None:
            expected = set(random_connected_edges(problem.nodes, p, reference_rng))
        else:
            expected = reference_round(problem.nodes, current, observation, reference_rng)
        got = tuple_adversary.edges_for_round(round_index, observation)
        assert got == expected, f"round {round_index}"
        assert tuple_rng.getstate() == reference_rng.getstate(), f"round {round_index}"

        inserted, removed = delta_adversary.edge_delta_for_round(round_index, observation)
        expected_ids = _as_ids(problem, expected)
        assert inserted == expected_ids - current_ids, f"round {round_index}"
        assert removed == current_ids - expected_ids, f"round {round_index}"
        assert delta_rng.getstate() == reference_rng.getstate(), f"round {round_index}"
        current = expected
        current_ids = expected_ids


def no_observation(round_index, current):
    return None


# -- controlled churn -----------------------------------------------------------


@pytest.mark.parametrize(
    "n,p,budget", list(itertools.product(SIZES, DENSITIES, BUDGETS))
)
def test_controlled_churn_matches_list_sampling(n, p, budget):
    problem = single_source_problem(n, 1)
    for seed in SEEDS:
        assert_matches_reference(
            lambda: ControlledChurnAdversary(changes_per_round=budget, edge_probability=p),
            problem,
            p,
            seed,
            lambda nodes, current, observation, rng: reference_controlled_churn(
                nodes, current, budget, rng
            ),
            no_observation,
        )


def test_controlled_churn_on_sparse_node_ids():
    tokens = make_tokens(3, 2)
    problem = DisseminationProblem((3, 7, 10, 11, 20, 41), tokens, {3: frozenset(tokens)})
    for p in DENSITIES:
        for seed in SEEDS:
            assert_matches_reference(
                lambda: ControlledChurnAdversary(changes_per_round=2, edge_probability=p),
                problem,
                p,
                seed,
                lambda nodes, current, observation, rng: reference_controlled_churn(
                    nodes, current, 2, rng
                ),
                no_observation,
            )


# -- adaptive adversaries with synthetic observations ---------------------------


def _random_knowledge(nodes, rng, universe=6):
    # Few distinct sets, so knowledge-gap ties are common.
    return {
        node: frozenset(token for token in range(universe) if rng.random() < 0.5)
        for node in nodes
    }


def _request_observations(nodes):
    """Requests over current edges and some absent pairs, plus token messages."""
    observation_rng = random.Random(99)

    def build(round_index, current):
        if current is None:
            return None
        records = []
        for u, v in sorted(current):
            roll = observation_rng.random()
            if roll < 0.4:
                records.append(SentRecord(u, v, RequestMessage(source=u, index=0)))
            elif roll < 0.6:
                records.append(SentRecord(v, u, TokenMessage(make_tokens(u, 1)[0])))
        for u, v in itertools.combinations(nodes, 2):
            if observation_rng.random() < 0.05:
                records.append(SentRecord(u, v, RequestMessage(source=u, index=1)))
        # A broadcast request has no receiver and never cuts an edge.
        records.append(SentRecord(nodes[0], None, RequestMessage(nodes[0], 2)))
        return RoundObservation(
            round_index=round_index, knowledge={}, previous_messages=tuple(records)
        )

    return build


def _knowledge_observations(nodes):
    observation_rng = random.Random(7)

    def build(round_index, current):
        return RoundObservation(
            round_index=round_index, knowledge=_random_knowledge(nodes, observation_rng)
        )

    return build


@pytest.mark.parametrize("n,p", list(itertools.product(SIZES, DENSITIES)))
@pytest.mark.parametrize("cut_fraction", (0.0, 0.7, 1.0))
def test_request_cutting_matches_list_sampling(n, p, cut_fraction):
    problem = single_source_problem(n, 1)
    for seed in SEEDS:
        assert_matches_reference(
            lambda: RequestCuttingAdversary(edge_probability=p, cut_fraction=cut_fraction),
            problem,
            p,
            seed,
            lambda nodes, current, observation, rng: reference_request_cutting(
                nodes, current, cut_fraction, observation, rng
            ),
            _request_observations(problem.nodes),
        )


@pytest.mark.parametrize("n,p", list(itertools.product(SIZES, DENSITIES)))
@pytest.mark.parametrize("targeted,churn", ((5, 2), (0, 5), (3, 0)))
def test_adaptive_rewiring_matches_list_sampling(n, p, targeted, churn):
    problem = single_source_problem(n, 1)
    for seed in SEEDS:
        assert_matches_reference(
            lambda: AdaptiveRewiringAdversary(
                edge_probability=p, targeted_cuts=targeted, random_churn=churn
            ),
            problem,
            p,
            seed,
            lambda nodes, current, observation, rng: reference_adaptive_rewiring(
                nodes, current, targeted, churn, observation, rng
            ),
            _knowledge_observations(problem.nodes),
        )
