"""The unit the loaders return: a composite system plus its temporal
layout.

:class:`RecordedExecution` lives next to the I/O code that produces it
(``load``/``loads``, the event-log converters and the stream
assembler), so loading a document does not import the correctness
criteria.  :mod:`repro.criteria.registry` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.core.system import CompositeSystem


@dataclass
class RecordedExecution:
    """A composite execution plus its temporal layout.

    ``executions`` maps schedule names to the temporal operation
    sequences actually observed; criteria that only need committed
    orders ignore it.
    """

    system: CompositeSystem
    executions: Dict[str, Sequence[str]] = field(default_factory=dict)

    def is_serial_layout(self) -> bool:
        """True when no schedule interleaved operations of different
        transactions (the strongest, trivially correct layout)."""
        for name, execution in self.executions.items():
            schedule = self.system.schedule(name)
            seen_done = set()
            current: Optional[str] = None
            for op in execution:
                txn = schedule.transaction_of(op)
                if txn != current:
                    if txn in seen_done:
                        return False
                    if current is not None:
                        seen_done.add(current)
                    current = txn
        return True
