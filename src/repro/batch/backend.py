"""The ``batch`` execution backend: multi-repetition dispatch.

:class:`BatchBackend` is the third registered :class:`~repro.backends.base.
EngineBackend`.  Its defining operation is :meth:`BatchBackend.run_batch`:
run *all* pending repetitions of one grid cell in one call and return one
:class:`~repro.core.result.ExecutionResult` per repetition, field-identical
to running each repetition serially.  It has exactly two paths:

- **lockstep** — algorithms whose rounds really step in ``(lanes, n)``
  lockstep ship a batch program (:meth:`~repro.algorithms.base.
  TokenForwardingAlgorithm.batch_program_factory`: flooding,
  one-shot-flooding, naive-unicast).  Under an oblivious adversary (lockstep
  lanes never build round observations) a
  :class:`~repro.batch.engine.BatchKernel` runs every repetition at once:
  one shared problem, one numpy knowledge cube, per-lane adversaries and RNG
  streams.
- **per lane** — everything else, adaptive scenarios included.  The problem
  is built once; each lane gets a fresh algorithm and adversary and runs
  through the bitset :class:`~repro.core.rounds.RoundKernel` with native
  fast programs.

:meth:`~repro.backends.base.EngineBackend.supports` therefore accepts
every scenario.
"""

from __future__ import annotations

from typing import List, Optional

from repro.backends.base import EngineBackend, register_backend
from repro.backends.bitset import BitsetBackend, has_native_fast_path
from repro.batch.engine import BatchKernel
from repro.core.result import ExecutionResult
from repro.utils.rng import SeedLike

#: Runs one repetition on the bitset kernel with native fast programs.
_PER_LANE = BitsetBackend()


def can_vectorize(algorithm, adversary) -> bool:
    """True iff this (algorithm, adversary) pair can run in lockstep lanes."""
    return (
        algorithm.batch_program_factory() is not None
        and getattr(adversary, "oblivious", False)
    )


def batch_program_names() -> List[str]:
    """Registry names of the algorithms with a lockstep batch program.

    Capability discovery instead of a hardcoded allowlist, mirroring
    :func:`repro.backends.bitset.fast_path_names`: every registered
    algorithm is instantiated with its registry defaults and probed through
    :meth:`~repro.algorithms.base.TokenForwardingAlgorithm.batch_program_factory`.
    """
    from repro.scenarios.registry import ALGORITHM_REGISTRY

    names = []
    for name in ALGORITHM_REGISTRY.names():
        try:
            algorithm = ALGORITHM_REGISTRY.create(name)
        except Exception:  # pragma: no cover - misconfigured third-party entry
            continue
        if algorithm.batch_program_factory() is not None:
            names.append(name)
    return names


def can_vectorize_spec(spec) -> bool:
    """True iff multi-repetition groups of ``spec`` belong on :meth:`run_batch`.

    That holds for an oblivious adversary paired with an algorithm that has
    a lockstep batch program or a native bitset fast program (which the
    per-lane path runs over one shared problem).  Adaptive scenarios stay
    off it.  Instantiates the algorithm and adversary from the registries
    (cheap: constructors only) to ask them; never raises for unknown names —
    the caller's normal dispatch path will surface those errors.
    """
    from repro.scenarios.registry import ADVERSARY_REGISTRY, ALGORITHM_REGISTRY

    try:
        algorithm = ALGORITHM_REGISTRY.create(spec.algorithm, **spec.algorithm_params)
        adversary = ADVERSARY_REGISTRY.create(spec.adversary, **spec.adversary_params)
    except Exception:
        return False
    if not getattr(adversary, "oblivious", False):
        return False
    return algorithm.batch_program_factory() is not None or has_native_fast_path(
        algorithm
    )


@register_backend(
    "batch",
    description=(
        "runs all repetitions of a scenario in one call: lockstep numpy "
        "lanes for flooding, one-shot-flooding and naive-unicast under "
        "oblivious adversaries, the bitset kernel per repetition over one "
        "shared problem otherwise"
    ),
)
class BatchBackend(EngineBackend):
    """Multi-repetition execution: lockstep lanes or per-lane bitset runs."""

    name = "batch"

    def execution_mode(self, algorithm, adversary) -> str:
        """How a scenario would execute: ``"vectorized"`` (lockstep lanes) or
        ``"fallback"`` (the per-lane bitset path)."""
        return "vectorized" if can_vectorize(algorithm, adversary) else "fallback"

    def run(
        self,
        problem,
        algorithm,
        adversary,
        *,
        max_rounds: Optional[int] = None,
        seed: SeedLike = None,
        require_connected: bool = True,
        keep_trace: bool = True,
        tracer=None,
    ) -> ExecutionResult:
        """Run one execution: a single-lane batch kernel, or the bitset kernel."""
        if can_vectorize(algorithm, adversary):
            kernel = BatchKernel(
                problem,
                algorithm,
                [adversary],
                [seed],
                max_rounds=max_rounds,
                require_connected=require_connected,
                keep_trace=keep_trace,
                tracer=tracer,
            )
            return kernel.run()[0]
        return _PER_LANE.run(
            problem,
            algorithm,
            adversary,
            max_rounds=max_rounds,
            seed=seed,
            require_connected=require_connected,
            keep_trace=keep_trace,
            tracer=tracer,
        )

    def run_batch(
        self,
        spec,
        repetitions: Optional[List[int]] = None,
        *,
        keep_trace: bool = True,
        tracer=None,
    ) -> List[ExecutionResult]:
        """Run repetitions of one spec: lockstep lanes or one lane at a time.

        Args:
            spec: the :class:`~repro.scenarios.spec.ScenarioSpec` to run.
            repetitions: which repetition indices to run (default: all of
                ``range(spec.repetitions)``).  Results come back in the same
                order.
            keep_trace: forwarded to the kernels.

        Both paths share one problem: the problem seed has no repetition
        component, so every repetition's problem is identical by
        construction.  Each lane gets its own seed and adversary instance;
        the per-lane path also gives each lane a fresh algorithm.
        """
        # Imported lazily: the scenario layer imports repro.backends.
        from repro.scenarios.registry import ADVERSARY_REGISTRY, ALGORITHM_REGISTRY
        from repro.scenarios.runner import materialize, repetition_seed

        if repetitions is None:
            repetitions = list(range(spec.repetitions))
        if not repetitions:
            return []
        seeds = [repetition_seed(spec, repetition) for repetition in repetitions]

        scenario = materialize(spec)
        new_adversary = ADVERSARY_REGISTRY.bind(spec.adversary, **spec.adversary_params)
        adversaries = [scenario.adversary] + [new_adversary() for _ in repetitions[1:]]
        if can_vectorize(scenario.algorithm, scenario.adversary):
            kernel = BatchKernel(
                scenario.problem,
                scenario.algorithm,
                adversaries,
                seeds,
                max_rounds=spec.max_rounds,
                keep_trace=keep_trace,
                tracer=tracer,
            )
            return kernel.run()

        new_algorithm = ALGORITHM_REGISTRY.bind(spec.algorithm, **spec.algorithm_params)
        algorithms = [scenario.algorithm] + [new_algorithm() for _ in repetitions[1:]]
        return [
            _PER_LANE.run(
                scenario.problem,
                algorithm,
                adversary,
                max_rounds=spec.max_rounds,
                seed=seed,
                keep_trace=keep_trace,
                tracer=tracer,
            )
            for algorithm, adversary, seed in zip(algorithms, adversaries, seeds)
        ]

