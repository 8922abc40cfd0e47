"""Schedule representation.

:class:`Schedule` is the output of every scheduling path (CP, greedy,
baseline): start cycles for all nodes, plus memory slots for vector data
when allocation was performed.  The independent checker that re-derives
the architecture rules without the CP machinery is
:func:`repro.analysis.audit_schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.arch.eit import EITConfig, ResourceKind
from repro.cp.search import SolveStatus
from repro.cp.stats import SolverStats
from repro.ir.graph import DataNode, Graph, Node, OpNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.certify import Certificate
    from repro.analysis.equivalence import PassCertificate


@dataclass
class Schedule:
    """A (possibly memory-allocated) schedule of one IR graph."""

    graph: Graph
    cfg: EITConfig
    starts: Dict[int, int]  # node id -> start cycle
    makespan: int
    slots: Dict[int, int] = field(default_factory=dict)  # vector data -> slot
    status: SolveStatus = SolveStatus.FEASIBLE
    solve_time_ms: float = 0.0
    search_stats: Optional[SolverStats] = None
    #: True when the CP budget expired without an incumbent and the
    #: starts come from the greedy list scheduler instead (no slots).
    fallback: bool = False
    #: machine-checkable optimality / infeasibility witness (see
    #: :mod:`repro.analysis.certify`), when the solve could prove one.
    certificate: Optional["Certificate"] = None
    #: equivalence-checked IR rewrite chain when the graph was optimized
    #: before scheduling (``optimize=True``); empty when it was not.
    pass_certificates: Tuple["PassCertificate", ...] = ()

    # -- basic accessors -------------------------------------------------
    def start(self, node: Node) -> int:
        return self.starts[node.nid]

    def slot(self, node: Node) -> int:
        return self.slots[node.nid]

    def latency(self, node: Node) -> int:
        return node.op.latency(self.cfg) if isinstance(node, OpNode) else 0

    def duration(self, node: Node) -> int:
        return node.op.duration(self.cfg) if isinstance(node, OpNode) else 0

    def completion(self, node: Node) -> int:
        return self.starts[node.nid] + self.latency(node)

    def slots_used(self) -> int:
        """Number of distinct memory slots the allocation touches."""
        return len(set(self.slots.values()))

    # -- per-cycle views ---------------------------------------------------
    def issue_map(self) -> Dict[int, List[OpNode]]:
        """start cycle -> operations issued there (all units)."""
        out: Dict[int, List[OpNode]] = {}
        for op in self.graph.op_nodes():
            out.setdefault(self.starts[op.nid], []).append(op)
        return {t: sorted(v, key=lambda n: n.nid) for t, v in sorted(out.items())}

    def vector_config_stream(self) -> List[Optional[str]]:
        """Vector-core configuration per cycle, ``None`` when idle.

        This is the stream the reconfiguration model consumes.
        """
        stream: List[Optional[str]] = [None] * (self.makespan + 1)
        for op in self.graph.op_nodes():
            if op.op.resource is ResourceKind.VECTOR_CORE:
                stream[self.starts[op.nid]] = op.config_class
        return stream

    def vector_core_utilization(self) -> float:
        """Fraction of lane-cycles used over the active schedule span."""
        if self.makespan <= 0:
            return 0.0
        used = sum(
            op.op.lanes(self.cfg)
            for op in self.graph.op_nodes()
            if op.op.resource is ResourceKind.VECTOR_CORE
        )
        return used / (self.cfg.n_lanes * self.makespan)

    def lifetime(self, data: DataNode) -> int:
        """Paper eq. 10: last consumer start minus own start.

        Data nodes without consumers live to the end of the schedule.
        """
        succs = self.graph.succs(data)
        if succs:
            end = max(self.starts[s.nid] for s in succs)
        else:
            end = self.makespan
        return end - self.starts[data.nid]

    def __repr__(self) -> str:
        return (
            f"Schedule({self.graph.name}, makespan={self.makespan}, "
            f"slots_used={self.slots_used() if self.slots else 'n/a'}, "
            f"status={self.status.value})"
        )
