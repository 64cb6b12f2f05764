"""Property-based tests (hypothesis) on core data structures and invariants."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.metrics import MessageAccountant
from repro.core.comm import CommunicationModel
from repro.core.messages import TokenMessage
from repro.core.problem import single_source_problem, uniform_multi_source_problem
from repro.core.tokens import Token
from repro.dynamics.connectivity import (
    connected_components,
    ensure_connected,
    is_connected,
    spanning_forest,
)
from repro.dynamics.graph_sequence import DynamicGraphTrace, GraphSchedule
from repro.dynamics.stability import is_sigma_edge_stable, minimum_edge_stability, stabilize_schedule
from repro import Experiment
from repro.results import fit_power_law
from repro.scenarios import ScenarioSpec, run_spec
from repro.scenarios.registry import ALGORITHM_REGISTRY
from repro.utils.ids import normalize_edge

# Strategy helpers -------------------------------------------------------------

node_counts = st.integers(min_value=2, max_value=12)


@st.composite
def edge_set(draw, num_nodes):
    """A random edge set over ``num_nodes`` nodes."""
    pairs = [
        (u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)
    ]
    included = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return set(included)


@st.composite
def round_sequences(draw):
    """A random sequence of round edge sets over a shared node set."""
    num_nodes = draw(node_counts)
    num_rounds = draw(st.integers(min_value=1, max_value=8))
    rounds = [draw(edge_set(num_nodes)) for _ in range(num_rounds)]
    return num_nodes, rounds


# Connectivity invariants ---------------------------------------------------------


@given(round_sequences())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_ensure_connected_always_yields_connected_superset(data):
    num_nodes, rounds = data
    nodes = list(range(num_nodes))
    for edges in rounds:
        repaired = ensure_connected(nodes, edges, random.Random(0))
        assert is_connected(nodes, repaired)
        assert {normalize_edge(u, v) for u, v in edges} <= repaired


@given(round_sequences())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_spanning_forest_preserves_components(data):
    num_nodes, rounds = data
    nodes = list(range(num_nodes))
    for edges in rounds:
        forest = spanning_forest(nodes, edges)
        assert len(forest) <= max(0, num_nodes - 1)
        original = {frozenset(c) for c in connected_components(nodes, edges)}
        reduced = {frozenset(c) for c in connected_components(nodes, forest)}
        assert original == reduced


@given(round_sequences())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_component_count_plus_connectors_is_consistent(data):
    num_nodes, rounds = data
    nodes = list(range(num_nodes))
    for edges in rounds:
        components = connected_components(nodes, edges)
        assert sum(len(c) for c in components) == num_nodes
        assert 1 <= len(components) <= num_nodes


# Dynamic-graph trace invariants -----------------------------------------------------


@given(round_sequences())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_trace_insertions_and_removals_are_consistent(data):
    num_nodes, rounds = data
    trace = DynamicGraphTrace(range(num_nodes))
    for edges in rounds:
        trace.record_round(edges)
    # E_r = E_{r-1} + inserted - removed for every round.
    for round_index in range(1, trace.num_rounds + 1):
        previous = trace.edges_in_round(round_index - 1)
        reconstructed = (
            previous | trace.inserted_edges(round_index)
        ) - trace.removed_edges(round_index)
        assert reconstructed == trace.edges_in_round(round_index)
    # Deletions never exceed insertions because E_0 is empty (footnote 5).
    assert trace.total_edge_removals() <= trace.topological_changes()
    # TC equals the sum of per-round insertions.
    assert trace.topological_changes() == sum(
        len(trace.inserted_edges(r)) for r in range(1, trace.num_rounds + 1)
    )


@given(round_sequences())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_trace_and_schedule_topological_changes_agree(data):
    num_nodes, rounds = data
    trace = DynamicGraphTrace(range(num_nodes))
    for edges in rounds:
        trace.record_round(edges)
    schedule = trace.as_schedule()
    assert schedule.topological_changes() == trace.topological_changes()


# σ-edge stability invariants -----------------------------------------------------------


@given(round_sequences(), st.integers(min_value=1, max_value=5))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_stabilize_schedule_reaches_requested_stability(data, sigma):
    num_nodes, rounds = data
    schedule = GraphSchedule(range(num_nodes), rounds)
    stabilized = stabilize_schedule(schedule, sigma)
    assert is_sigma_edge_stable(stabilized, sigma)
    assert minimum_edge_stability(stabilized) >= sigma
    # Stabilization only ever adds edges.
    for round_index, edges in schedule.iter_rounds():
        assert edges <= stabilized.edges_for_round(round_index)


@given(round_sequences())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_sequence_is_at_least_one_edge_stable(data):
    num_nodes, rounds = data
    schedule = GraphSchedule(range(num_nodes), rounds)
    assert minimum_edge_stability(schedule) >= 1
    assert is_sigma_edge_stable(schedule, 1)


# Problem invariants ------------------------------------------------------------------------


@given(
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=1, max_value=30),
)
@settings(deadline=None)
def test_single_source_problem_learning_requirement(num_nodes, num_tokens):
    problem = single_source_problem(num_nodes, num_tokens)
    assert problem.required_token_learnings() == num_tokens * (num_nodes - 1)
    assert problem.num_sources == 1


@given(
    st.integers(min_value=3, max_value=20),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=5, max_value=25),
    st.integers(min_value=0, max_value=1000),
)
@settings(deadline=None)
def test_uniform_multi_source_problem_invariants(num_nodes, num_sources, num_tokens, seed):
    num_sources = min(num_sources, num_nodes)
    num_tokens = max(num_tokens, num_sources)
    problem = uniform_multi_source_problem(num_nodes, num_sources, num_tokens, seed=seed)
    assert problem.num_tokens == num_tokens
    assert problem.num_sources == num_sources
    counts = [len(problem.initial_tokens_of(source)) for source in problem.sources]
    assert max(counts) - min(counts) <= 1
    assert sum(counts) == num_tokens


# Metric invariants ----------------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=10))
@settings(deadline=None)
def test_accountant_total_equals_sum_of_rounds(per_round_counts):
    accountant = MessageAccountant(CommunicationModel.UNICAST)
    token = Token(0, 1)
    for count in per_round_counts:
        accountant.begin_round()
        for index in range(count):
            accountant.count_unicast(0, 1 + index % 3, TokenMessage(token))
        accountant.end_round()
    stats = accountant.snapshot()
    assert stats.total_messages == sum(per_round_counts)
    assert stats.per_round_messages == per_round_counts
    assert sum(stats.per_node_messages.values()) == stats.total_messages


@given(
    st.integers(min_value=1, max_value=10_000),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.0, max_value=4.0),
)
@settings(deadline=None)
def test_adversary_competitive_cost_is_monotone_in_alpha(total, tc, alpha):
    accountant = MessageAccountant(CommunicationModel.UNICAST)
    accountant.begin_round()
    for index in range(min(total, 200)):
        accountant.count_unicast(0, 1, TokenMessage(Token(0, 1)))
    accountant.end_round()
    stats = accountant.snapshot()
    base = stats.adversary_competitive(tc, alpha=0.0)
    discounted = stats.adversary_competitive(tc, alpha=alpha)
    assert 0.0 <= discounted <= base == stats.total_messages


# Power-law fit sanity ----------------------------------------------------------------------------


@given(
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=0.1, max_value=50.0),
)
@settings(deadline=None)
def test_fit_power_law_recovers_planted_exponent(exponent, constant):
    xs = [4.0, 8.0, 16.0, 32.0, 64.0]
    ys = [constant * x**exponent for x in xs]
    fitted_exponent, fitted_constant = fit_power_law(xs, ys)
    assert abs(fitted_exponent - exponent) < 1e-6
    assert abs(fitted_constant - constant) / constant < 1e-4


# Cross-path record identity ----------------------------------------------------------------------

#: Algorithms whose natural problem has several sources.
MULTI_SOURCE_ALGORITHMS = frozenset({"multi-source", "oblivious"})


@st.composite
def scenario_specs(draw):
    """A small spec: any registered algorithm against churn, a static random
    graph or the adaptive rewiring adversary."""
    algorithm = draw(st.sampled_from(sorted(ALGORITHM_REGISTRY.names())))
    adversary = draw(st.sampled_from(["churn", "static-random", "adaptive-rewiring"]))
    num_nodes = draw(st.integers(min_value=4, max_value=10))
    problem, problem_params = "single-source", {"num_nodes": num_nodes}
    if algorithm in MULTI_SOURCE_ALGORITHMS:
        problem = "multi-source"
        problem_params["num_sources"] = 3
    problem_params["num_tokens"] = draw(
        st.integers(min_value=problem_params.get("num_sources", 1), max_value=10)
    )
    return ScenarioSpec(
        problem=problem,
        problem_params=problem_params,
        algorithm=algorithm,
        adversary=adversary,
        adversary_params={"num_nodes": num_nodes} if adversary == "static-random" else {},
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        repetitions=draw(st.integers(min_value=1, max_value=3)),
        name="property-cross-path",
    )


@given(scenario_specs())
@settings(deadline=None, max_examples=20)
def test_experiment_records_match_serial_run_spec(spec):
    """Whatever path the plan routes a group to, its records are the serial ones."""
    assert Experiment.from_specs([spec]).run().records() == run_spec(spec)
