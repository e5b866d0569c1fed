"""Correctness criteria: the paper's special cases and the prior art.

* classical conflict serializability (CSR) and flat OPSR — the textbook
  baselines [BHG87, BBG89];
* SCC, FCC, JCC — the stack/fork/join criteria of the companion papers
  (Def. 21–27), proved equivalent to Comp-C on their configurations
  (Theorems 2–4);
* LLSR — level-by-level serializability [We91], the conservative
  multilevel criterion Comp-C strictly extends;
* a registry that classifies one recorded execution under everything
  applicable.
"""

from repro.criteria.classical import (
    FlatHistory,
    FlatOp,
    csr_serial_order,
    is_conflict_serializable,
    is_order_preserving_serializable,
    precedence_graph,
    read,
    serialization_graph,
    write,
)
from repro.criteria.fork import branch_order_union, fork_parts, is_fcc, is_fork
from repro.criteria.join import ghost_graph, is_jcc, is_join, join_parts
from repro.criteria.llsr import (
    LLSR_OPTIONS,
    conflict_faithfulness_gaps,
    is_conflict_faithful,
    is_llsr,
)
from repro.criteria.opsr import (
    is_opsr,
    is_schedule_opsr,
    opsr_violations,
    schedule_precedence,
)
from repro.criteria.registry import (
    CRITERIA_ORDER,
    RecordedExecution,
    applicable_criteria,
    classify,
)
from repro.criteria.stack import is_scc, is_stack, scc_violations, stack_chain

__all__ = [
    "FlatHistory",
    "FlatOp",
    "csr_serial_order",
    "is_conflict_serializable",
    "is_order_preserving_serializable",
    "precedence_graph",
    "read",
    "serialization_graph",
    "write",
    "branch_order_union",
    "fork_parts",
    "is_fcc",
    "is_fork",
    "ghost_graph",
    "is_jcc",
    "is_join",
    "join_parts",
    "LLSR_OPTIONS",
    "conflict_faithfulness_gaps",
    "is_conflict_faithful",
    "is_llsr",
    "is_opsr",
    "is_schedule_opsr",
    "opsr_violations",
    "schedule_precedence",
    "CRITERIA_ORDER",
    "RecordedExecution",
    "applicable_criteria",
    "classify",
    "is_scc",
    "is_stack",
    "scc_violations",
    "stack_chain",
]
