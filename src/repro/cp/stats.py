"""Solver telemetry: one stats object shared by engine and search.

:class:`SolverStats` is the observability surface of the whole CP
substrate.  The :class:`~repro.cp.engine.Store` counts propagator work
(propagations, wakeups, failures, per-constraint-class breakdown); the
:class:`~repro.cp.search.Search` counts tree shape (nodes, failures,
backtracks, peak depth), per-phase effort, and the incumbent timeline of
a branch-and-bound run.  Everything is plain data — ``as_dict()`` gives
the JSON payload the bench harness and the CI quick-profile job upload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class SolverStats:
    """Counters and timings of one search run.

    Tree shape
        ``nodes`` (decision points expanded), ``failures`` (dead ends),
        ``backtracks`` (levels popped after a failure), ``solutions``,
        ``peak_depth``.
    Propagator work
        ``propagations`` (propagator invocations during search),
        ``wakeups`` (subscription events delivered), and
        ``propagations_by_class`` keyed by constraint class name.
    Time
        ``time_ms`` total, ``time_to_best_ms`` until the incumbent that
        was finally returned, ``phase_time_ms``/``phase_nodes`` keyed by
        search-phase name, and ``objective_timeline`` — the
        ``(elapsed_ms, objective)`` staircase of incumbents, i.e. the
        best-makespan-over-time curve of a minimization.
    Budget
        ``timed_out`` is True when the wall-clock or node budget expired
        before the search was exhausted; ``cancelled`` is True when an
        external ``should_stop`` hook ended the run (the parallel racing
        search uses this to abandon II candidates that lost the race).
    Determinism
        ``trace_fingerprint`` is a sha256 hex digest over the canonical
        decision trace of the run — every branch decision
        ``(variable, value)`` in DFS order, every failure mark, the
        incumbent objective sequence, and the final node/failure counts.
        No wall-clock quantity enters the hash, so two runs of the same
        problem with the same heuristics and budgets that explore the
        same tree produce the *same* fingerprint; the parallel racer's
        "bit-identical to sequential" claim is checked as fingerprint
        equality (see :mod:`repro.analysis.sanitize`).
    """

    nodes: int = 0
    failures: int = 0
    backtracks: int = 0
    solutions: int = 0
    peak_depth: int = 0
    propagations: int = 0
    wakeups: int = 0
    time_ms: float = 0.0
    time_to_best_ms: float = 0.0
    timed_out: bool = False
    cancelled: bool = False
    propagations_by_class: Dict[str, int] = field(default_factory=dict)
    phase_nodes: Dict[str, int] = field(default_factory=dict)
    phase_time_ms: Dict[str, float] = field(default_factory=dict)
    objective_timeline: List[Tuple[float, int]] = field(default_factory=list)
    trace_fingerprint: Optional[str] = None

    def merge(self, other: "SolverStats") -> "SolverStats":
        """Accumulate another run's counters into this one, in place.

        Used to aggregate telemetry across the many independent solves
        of a design-space sweep (sequential or fanned out over a worker
        pool): counters and times add, ``peak_depth`` takes the max, the
        budget flags OR together, and the per-class / per-phase
        dictionaries add key-wise.  ``objective_timeline`` and
        ``time_to_best_ms`` are per-solve notions and are left untouched.
        Returns ``self`` so calls chain.
        """
        self.nodes += other.nodes
        self.failures += other.failures
        self.backtracks += other.backtracks
        self.solutions += other.solutions
        self.peak_depth = max(self.peak_depth, other.peak_depth)
        self.propagations += other.propagations
        self.wakeups += other.wakeups
        self.time_ms += other.time_ms
        self.timed_out = self.timed_out or other.timed_out
        self.cancelled = self.cancelled or other.cancelled
        for k, v in other.propagations_by_class.items():
            self.propagations_by_class[k] = (
                self.propagations_by_class.get(k, 0) + v
            )
        for k, v in other.phase_nodes.items():
            self.phase_nodes[k] = self.phase_nodes.get(k, 0) + v
        for k, v in other.phase_time_ms.items():
            self.phase_time_ms[k] = self.phase_time_ms.get(k, 0.0) + v
        self.trace_fingerprint = combine_fingerprints(
            self.trace_fingerprint, other.trace_fingerprint
        )
        return self

    def nodes_per_sec(self) -> float:
        """Search-node throughput; 0 when no time was measured."""
        if self.time_ms <= 0.0:
            return 0.0
        return self.nodes / (self.time_ms / 1000.0)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready payload (bench harness, CI profile artifact)."""
        return {
            "nodes": self.nodes,
            "failures": self.failures,
            "backtracks": self.backtracks,
            "solutions": self.solutions,
            "peak_depth": self.peak_depth,
            "propagations": self.propagations,
            "wakeups": self.wakeups,
            "time_ms": round(self.time_ms, 3),
            "time_to_best_ms": round(self.time_to_best_ms, 3),
            "timed_out": self.timed_out,
            "cancelled": self.cancelled,
            "nodes_per_sec": round(self.nodes_per_sec(), 1),
            "propagations_by_class": dict(self.propagations_by_class),
            "phase_nodes": dict(self.phase_nodes),
            "phase_time_ms": {
                k: round(v, 3) for k, v in self.phase_time_ms.items()
            },
            "objective_timeline": [
                (round(t, 3), obj) for t, obj in self.objective_timeline
            ],
            "trace_fingerprint": self.trace_fingerprint,
        }


def combine_fingerprints(a: Optional[str], b: Optional[str]) -> Optional[str]:
    """Order-independent combination of two trace fingerprints.

    Aggregated stats (design-space sweeps, the II ladder) merge solves
    whose *completion order* differs between sequential and parallel
    execution, so the combined fingerprint must be commutative and
    associative: byte-wise XOR of the digests.  (Multiset caveat: a pair
    of identical fingerprints cancels; individual per-solve fingerprints
    are the equality-checked artifact, the combined one is telemetry.)
    """
    if a is None:
        return b
    if b is None:
        return a
    return bytes(x ^ y for x, y in zip(bytes.fromhex(a), bytes.fromhex(b))).hex()
