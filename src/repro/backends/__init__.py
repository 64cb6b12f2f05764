"""Pluggable execution backends.

A backend is one way of executing a materialized scenario; all backends must
produce results structurally identical to the reference engine.  Both
built-in backends assemble the same staged round kernel
(:mod:`repro.core.rounds`) and differ only in the knowledge representation
and program family they plug in.  Importing this package registers:

* ``reference`` — the kernel over the dict-of-sets
  :class:`~repro.core.state.MappingKnowledgeState`, driving each
  algorithm's real ``select``/``receive`` methods (supports everything;
  defines the semantics);
* ``bitset`` — the kernel over integer-bitmask state: native bit-level fast
  programs where algorithms provide them, the generic exchange path
  everywhere else; supports every registered algorithm under oblivious and
  adaptive adversaries;
* ``batch`` — runs all repetitions of a scenario in one call
  (:mod:`repro.backends.batch`): lockstep numpy lanes for the algorithms
  with a batch program under oblivious adversaries, otherwise the bitset
  kernel per repetition over one shared problem.

Select a backend per scenario (``ScenarioSpec(backend="bitset", ...)``,
``python -m repro run --backend bitset``) and check equivalence with the
differential harness (:mod:`repro.backends.differential`, ``python -m repro
verify-backend``).

The differential harness imports the scenario layer, which in turn imports
this package, so it is *not* re-exported here — import it as
``from repro.backends import differential`` (or via the CLI) after the
scenario layer is loaded.
"""

from repro.backends.base import (
    BACKEND_REGISTRY,
    DEFAULT_BACKEND,
    EngineBackend,
    get_backend,
    register_backend,
)
from repro.backends.batch import BatchBackend
from repro.backends.bitset import BitsetBackend
from repro.backends.reference import ReferenceBackend

__all__ = [
    "BACKEND_REGISTRY",
    "DEFAULT_BACKEND",
    "EngineBackend",
    "get_backend",
    "register_backend",
    "BatchBackend",
    "BitsetBackend",
    "ReferenceBackend",
]
