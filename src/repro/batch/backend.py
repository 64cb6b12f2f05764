"""The ``batch`` execution backend: multi-repetition dispatch.

:class:`BatchBackend` is the third registered :class:`~repro.backends.base.
EngineBackend`.  Its defining operation is :meth:`BatchBackend.run_batch`:
run *all* pending repetitions of one grid cell in one call and return one
:class:`~repro.core.result.ExecutionResult` per repetition, field-identical
to running each repetition serially.  It has exactly two paths:

- **lockstep** — algorithms whose rounds really step in ``(lanes, n)``
  lockstep ship a batch program (:meth:`~repro.algorithms.base.
  TokenForwardingAlgorithm.batch_program_factory`: flooding,
  one-shot-flooding, naive-unicast).  For two or more repetitions under an
  oblivious adversary (lockstep lanes never build round observations) a
  :class:`~repro.batch.engine.BatchKernel` runs every repetition at once:
  one shared problem, one numpy knowledge cube, per-lane adversaries and RNG
  streams.
- **per lane** — everything else, single repetitions and adaptive
  scenarios included.  The problem is built once; each lane gets a fresh
  algorithm and adversary and runs through the bitset
  :class:`~repro.core.rounds.RoundKernel` with native fast programs.

:meth:`~repro.backends.base.EngineBackend.supports` therefore accepts
every scenario, and :func:`repro.api.cell_backend` sends every
default-backend group here.
"""

from __future__ import annotations

from typing import List, Optional

from repro.backends.base import EngineBackend, register_backend
from repro.backends.bitset import BitsetBackend
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
        """Run one execution: a single-lane batch kernel, or the bitset kernel.

        Unlike :meth:`run_batch`, one lane here still steps the batch
        program: this is the path ``verify-backend --backend batch`` drives,
        so it keeps those programs checked against the reference engine.
        """
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

        Lockstep needs what this call can observe: a batch program, an
        oblivious adversary and at least two lanes; a single repetition
        runs per lane.  Both paths share one problem: the problem seed has
        no repetition component, so every repetition's problem is identical
        by construction.  Each lane gets its own seed and adversary
        instance; the per-lane path also gives each lane a fresh algorithm.
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
        if len(repetitions) > 1 and can_vectorize(
            scenario.algorithm, scenario.adversary
        ):
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

