"""Core model and decision procedure for composite correctness (Comp-C).

This package implements the paper's formal machinery end to end:
transactions (Def. 2), schedules (Def. 3), composite systems and their
levels (Def. 4–9), the observed order (Def. 10), generalized conflicts
(Def. 11), computational fronts (Def. 12–13), calculations (Def. 14),
the level-by-level reduction (Def. 15–16) and composite correctness
itself (Def. 17–20, decided via Theorem 1).
"""

from repro.core.builder import SystemBuilder, build_system
from repro.core.calculation import (
    Grouping,
    calculation_constraints,
    find_isolation_failure,
    grouping_for_level,
    witness_sequence,
)
from repro.core.certificates import (
    CertificateCheck,
    validate_failure_certificate,
)
from repro.core.conflicts import (
    conflict_digest,
    conflict_pairs,
    generalized_conflict,
)
from repro.core.equivalence import (
    abstracts_to_flat,
    front_at_level,
    level_equivalent_systems,
    rename_front,
    root_behaviour,
)
from repro.core.correctness import (
    CorrectnessReport,
    check_composite_correctness,
    is_composite_correct,
)
from repro.core.front import Front, ReductionFailure
from repro.core.observed import ObservedOrderOptions, seed_observed_pairs
from repro.core.orders import Relation, total_order_from_sequence
from repro.core.reduction import (
    ReductionEngine,
    ReductionResult,
    reduce_to_roots,
)
from repro.core.schedule import Schedule
from repro.core.serial import (
    ContainmentCheck,
    check_containment,
    serial_front_of,
    verify_theorem1_if_direction,
)
from repro.core.system import CompositeSystem
from repro.core.transaction import Transaction

__all__ = [
    "SystemBuilder",
    "build_system",
    "Grouping",
    "calculation_constraints",
    "find_isolation_failure",
    "grouping_for_level",
    "witness_sequence",
    "CertificateCheck",
    "validate_failure_certificate",
    "conflict_digest",
    "conflict_pairs",
    "generalized_conflict",
    "abstracts_to_flat",
    "front_at_level",
    "level_equivalent_systems",
    "rename_front",
    "root_behaviour",
    "CorrectnessReport",
    "check_composite_correctness",
    "is_composite_correct",
    "Front",
    "ReductionFailure",
    "ObservedOrderOptions",
    "seed_observed_pairs",
    "Relation",
    "total_order_from_sequence",
    "ReductionEngine",
    "ReductionResult",
    "reduce_to_roots",
    "Schedule",
    "ContainmentCheck",
    "check_containment",
    "serial_front_of",
    "verify_theorem1_if_direction",
    "CompositeSystem",
    "Transaction",
]
