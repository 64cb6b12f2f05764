"""Batch execution: all repetitions of a scenario in one call.

This package holds the numpy-backed lockstep core, used by the algorithms
whose rounds really step in ``(lanes, n)`` lockstep (flooding,
one-shot-flooding, naive-unicast); the ``batch`` backend runs every other
scenario one repetition at a time on the bitset kernel:

- :class:`~repro.batch.programs.BatchRoundProgram` — the per-round protocol
  batch programs implement (they live next to their algorithms);
- :class:`~repro.batch.programs.LaneAccounting` — vectorized per-lane
  message counters;
- :class:`~repro.batch.engine.BatchKernel` — the many-lane round loop.

The ``batch`` *backend* lives in :mod:`repro.backends.batch`, next to the
other registered backends; this package imports nothing from
:mod:`repro.backends`, so algorithm modules can import it without cycling
through the backend registry.
"""

from repro.batch.engine import BatchKernel
from repro.batch.programs import BatchRoundProgram, LaneAccounting

__all__ = [
    "BatchKernel",
    "BatchRoundProgram",
    "LaneAccounting",
]
