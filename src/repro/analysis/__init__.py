"""Analysis tools: the paper's closed-form bounds and the lower-bound potential.

This package turns raw :class:`~repro.core.result.ExecutionResult` objects
into the quantities the paper reports:

* :mod:`repro.analysis.bounds` — closed-form evaluations of every bound
  stated in the paper (Theorems 2.3, 3.1, 3.4, 3.5, 3.6, 3.8 and Table 1);
* :mod:`repro.analysis.potential` — the potential function ``Φ(t)`` of the
  Section-2 lower-bound argument.

Running experiments, aggregating their records, fitting scaling exponents
(``fit_power_law``) and rendering tables (``format_table``,
``render_table1``) live in :mod:`repro.api` and :mod:`repro.results`.
"""

from repro.analysis.bounds import (
    log2n,
    flooding_amortized_upper_bound,
    local_broadcast_lower_bound,
    static_spanning_tree_amortized,
    single_source_competitive_bound,
    multi_source_competitive_bound,
    oblivious_total_message_bound,
    oblivious_amortized_bound,
    table1_amortized_bound,
    table1_rows,
    naive_unicast_amortized_upper_bound,
    single_source_round_bound,
)
from repro.analysis.potential import PotentialTracker, potential_of_knowledge

__all__ = [
    "log2n",
    "flooding_amortized_upper_bound",
    "local_broadcast_lower_bound",
    "static_spanning_tree_amortized",
    "single_source_competitive_bound",
    "multi_source_competitive_bound",
    "oblivious_total_message_bound",
    "oblivious_amortized_bound",
    "table1_amortized_bound",
    "table1_rows",
    "naive_unicast_amortized_upper_bound",
    "single_source_round_bound",
    "PotentialTracker",
    "potential_of_knowledge",
]
