"""Message accounting — the simulator's measurement core.

The paper's evaluation reports exactly two metrics: the **number of
messages** and the **data volume** exchanged (Section 6: "the primary
performance measures we chose are the number of messages and bandwidth
usage, because these are the limiting factors for overlay networks").

Every overlay interaction in this library goes through a
:class:`MessageTracer`, which counts messages by type and sums payload
bytes.  Operators annotate messages with a *phase* so experiments can
break down cost (routing vs. candidate shipping vs. result return).
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field


class MessageType(enum.Enum):
    """The message vocabulary of the simulated overlay."""

    ROUTE = "route"  # one routing hop towards a key
    FORWARD = "forward"  # shower/range forwarding inside a subtrie
    DELEGATE = "delegate"  # query plan handed to another peer
    RESULT = "result"  # (partial) results returned
    BROADCAST = "broadcast"  # naive strategy: full query to region peers


@dataclass
class TraceSnapshot:
    """Immutable copy of a tracer's counters (for before/after deltas)."""

    messages: int
    payload_bytes: int
    by_type: dict[str, int]
    by_phase: dict[str, int]

    def delta(self, later: "TraceSnapshot") -> "TraceSnapshot":
        """Counters accumulated between this snapshot and ``later``."""
        return TraceSnapshot(
            messages=later.messages - self.messages,
            payload_bytes=later.payload_bytes - self.payload_bytes,
            by_type={
                key: later.by_type.get(key, 0) - self.by_type.get(key, 0)
                for key in set(self.by_type) | set(later.by_type)
            },
            by_phase={
                key: later.by_phase.get(key, 0) - self.by_phase.get(key, 0)
                for key in set(self.by_phase) | set(later.by_phase)
            },
        )


class MessageTracer:
    """Counts every simulated message and its payload size."""

    def __init__(self):
        self.message_count = 0
        self.payload_bytes = 0
        self.counts_by_type: Counter[str] = Counter()
        self.counts_by_phase: Counter[str] = Counter()

    def send(
        self,
        type: MessageType,
        sender: int,
        receiver: int,
        payload_bytes: int = 0,
        phase: str = "query",
    ) -> None:
        """Account for one message."""
        self.message_count += 1
        self.payload_bytes += payload_bytes
        self.counts_by_type[type.value] += 1
        self.counts_by_phase[phase] += 1

    def send_bulk(
        self,
        type: MessageType,
        count: int,
        payload_bytes: int = 0,
        phase: str = "query",
    ) -> None:
        """Account for ``count`` messages totalling ``payload_bytes`` at once.

        O(1) accounting for flows whose per-message loop is itself the
        cost being avoided — shower forwards and naive broadcast copies
        (instead of iterating 10⁵ peers).  Counters and per-phase totals
        update exactly as ``count`` individual :meth:`send` calls would.
        """
        if count < 0:
            raise ValueError(f"bulk message count must be >= 0, got {count}")
        if count == 0:
            return
        self.message_count += count
        self.payload_bytes += payload_bytes
        self.counts_by_type[type.value] += count
        self.counts_by_phase[phase] += count

    def snapshot(self) -> TraceSnapshot:
        """Copy of the current counters."""
        return TraceSnapshot(
            messages=self.message_count,
            payload_bytes=self.payload_bytes,
            by_type=dict(self.counts_by_type),
            by_phase=dict(self.counts_by_phase),
        )

    def reset(self) -> None:
        """Zero all counters (between experiment cells)."""
        self.message_count = 0
        self.payload_bytes = 0
        self.counts_by_type.clear()
        self.counts_by_phase.clear()


@dataclass
class CostReport:
    """Human-readable cost summary of one query or workload run."""

    messages: int
    payload_bytes: int
    by_type: dict[str, int] = field(default_factory=dict)
    by_phase: dict[str, int] = field(default_factory=dict)
    #: Adaptive-strategy decisions taken while this cost accrued — a list
    #: of :class:`repro.query.cost.StrategyDecision` (untyped here to keep
    #: the accounting layer free of query-layer imports).  Empty for
    #: fixed-strategy runs; populated by the executor / workload runner
    #: whenever ``SimilarityStrategy.ADAPTIVE`` resolved a query, each
    #: entry carrying the chosen strategy plus its predicted and measured
    #: message/byte cost.
    decisions: list = field(default_factory=list)
    #: Completeness of the answer under transport faults — a
    #: :class:`repro.overlay.faults.Completeness` (untyped here, like
    #: ``decisions``, to keep the accounting layer dependency-free).
    #: ``None`` whenever no active fault injector is installed; under an
    #: active plan it records the covered key-space fraction, the dark
    #: partitions, dropped candidates, and the retry/failover tallies of
    #: this operation.
    completeness: object | None = None
    #: Verification-kernel diagnostics of this operation — a plain dict
    #: (untyped here, like ``decisions``, to keep the accounting layer
    #: dependency-free) with the kernel name and the operation's delta of
    #: the shared pool's :class:`~repro.similarity.verify.KernelCounters`
    #: (``computed``, ``memo_hits``, ``prefilter_rejected``,
    #: ``batches_flat``, ``batches_shared``).  ``None`` for costs not
    #: recorded through the engine.  Kernels change wall-clock
    #: only, so nothing here ever feeds back into measured series.
    verifier: dict | None = None

    @classmethod
    def from_delta(cls, before: TraceSnapshot, after: TraceSnapshot) -> "CostReport":
        delta = before.delta(after)
        return cls(
            messages=delta.messages,
            payload_bytes=delta.payload_bytes,
            by_type={k: v for k, v in delta.by_type.items() if v},
            by_phase={k: v for k, v in delta.by_phase.items() if v},
        )

    @property
    def payload_megabytes(self) -> float:
        return self.payload_bytes / 1_000_000.0
