"""Depth-first search with phases, heuristics and branch-and-bound.

The paper divides one branch-and-bound search into three sequential
phases (section 3.5): operation start times, then data-node start times,
then memory slots — "start with the most influential decisions and end
with the most trivial ones".  :class:`Phase` + :class:`Search` implement
exactly that: a list of phases, each with its own variable- and
value-selection heuristic, explored inside a single backtracking
branch-and-bound run.

Branching is binary: ``var = value`` on the left, ``var != value`` on
the right, which together with the ``smallest_min`` selector gives the
classic set-times-like strategy for scheduling problems.

Telemetry: every run fills a :class:`repro.cp.stats.SolverStats` —
nodes, failures, backtracks, per-phase node counts and wall time,
propagation counters copied from the store, and the incumbent
(best-objective) timeline.  A wall-clock or node budget may expire at
any point, including mid-phase; the search then unwinds through its
``finally`` chain so the store is left exactly as it was entered (all
levels popped, trail empty), with the partial statistics preserved and
``stats.timed_out`` set.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.cp.engine import Inconsistency, Store
from repro.cp.stats import SolverStats
from repro.cp.var import IntVar

VarSelect = Callable[[Sequence[IntVar]], Optional[IntVar]]
ValSelect = Callable[[IntVar], int]


# ----------------------------------------------------------------------
# Variable selection heuristics
# ----------------------------------------------------------------------
def input_order(candidates: Sequence[IntVar]) -> Optional[IntVar]:
    """First unassigned variable in the given order."""
    for v in candidates:
        if not v.is_assigned():
            return v
    return None


def first_fail(candidates: Sequence[IntVar]) -> Optional[IntVar]:
    """Unassigned variable with the smallest domain."""
    best = None
    best_size = None
    for v in candidates:
        if v.is_assigned():
            continue
        s = v.size()
        if best_size is None or s < best_size:
            best, best_size = v, s
    return best


def smallest_min(candidates: Sequence[IntVar]) -> Optional[IntVar]:
    """Unassigned variable with the smallest lower bound (tie: smaller domain).

    The natural choice for start-time variables: schedule what can start
    earliest first.
    """
    best = None
    key = None
    for v in candidates:
        d = v.domain
        if d.lo == d.hi:
            continue
        k = (d.lo, len(d))
        if key is None or k < key:
            best, key = v, k
    return best


# ----------------------------------------------------------------------
# Value selection heuristics
# ----------------------------------------------------------------------
def select_min_value(v: IntVar) -> int:
    return v.min()


def select_max_value(v: IntVar) -> int:
    return v.max()


class Phase:
    """A group of decision variables with selection heuristics."""

    def __init__(
        self,
        variables: Sequence[IntVar],
        var_select: VarSelect = smallest_min,
        value_select: ValSelect = select_min_value,
        name: str = "",
    ):
        self.variables = list(variables)
        self.var_select = var_select
        self.value_select = value_select
        self.name = name

    def pick(self) -> Optional[IntVar]:
        return self.var_select(self.variables)

    def __repr__(self) -> str:
        return f"Phase({self.name or len(self.variables)})"


class SolveStatus(Enum):
    OPTIMAL = "optimal"  # search exhausted; best solution is optimal
    FEASIBLE = "feasible"  # solution found, optimality not proven
    INFEASIBLE = "infeasible"  # search exhausted without a solution
    TIMEOUT = "timeout"  # time/node budget hit without any solution


@dataclass
class SearchResult:
    status: SolveStatus
    objective: Optional[int] = None
    assignment: Dict[str, int] = field(default_factory=dict)
    stats: SolverStats = field(default_factory=SolverStats)

    @property
    def found(self) -> bool:
        return self.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)

    def value(self, var: Union[IntVar, str]) -> int:
        name = var.name if isinstance(var, IntVar) else var
        return self.assignment[name]


class _Budget(Exception):
    """Internal: time or node budget exhausted."""


class Search:
    """Backtracking DFS / branch-and-bound over a :class:`Store`."""

    def __init__(
        self,
        store: Store,
        timeout_ms: Optional[float] = None,
        node_limit: Optional[int] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ):
        self.store = store
        self.timeout_ms = timeout_ms
        self.node_limit = node_limit
        #: cooperative cancellation: polled once per search node; when it
        #: returns True the run unwinds exactly like a budget expiry
        #: (store fully popped, partial stats preserved).  The parallel
        #: racing modulo search points this at a shared Event so losing
        #: II candidates stop burning cycles once a better II is proven.
        self.should_stop = should_stop
        self.stats = SolverStats()
        self._deadline: Optional[float] = None
        self._t0: float = 0.0
        self._last_tick: float = 0.0
        self._best_obj: Optional[int] = None
        self._best_assignment: Dict[str, int] = {}
        self._found: bool = False
        self._objective: Optional[IntVar] = None
        self._phases: List[Phase] = []
        self.on_solution: Optional[Callable[[Dict[str, int], Optional[int]], None]] = None
        #: incremental sha256 over the canonical decision trace; always
        #: on (one short update per node — noise next to propagation),
        #: finalized into ``stats.trace_fingerprint`` by :meth:`_run`.
        self._trace = hashlib.sha256()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(
        self, variables_or_phases: Union[Sequence[IntVar], Sequence[Phase]]
    ) -> SearchResult:
        """Find one solution assigning every decision variable."""
        return self._run(variables_or_phases, objective=None)

    def minimize(
        self,
        objective: IntVar,
        variables_or_phases: Union[Sequence[IntVar], Sequence[Phase]],
    ) -> SearchResult:
        """Branch-and-bound minimization of ``objective``."""
        return self._run(variables_or_phases, objective=objective)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _as_phases(seq) -> List[Phase]:
        seq = list(seq)
        if not seq:
            return []
        if isinstance(seq[0], Phase):
            return seq
        return [Phase(seq)]

    def _phase_name(self, i: int) -> str:
        phase = self._phases[i]
        return phase.name or f"phase{i}"

    def _record_solution(self) -> None:
        stats = self.stats
        stats.solutions += 1
        assignment = {
            v.name: v.domain.lo for v in self.store.vars if v.is_assigned()
        }
        obj = self._objective.min() if self._objective is not None else None
        self._best_obj = obj
        self._best_assignment = assignment
        self._found = True
        elapsed_ms = (time.monotonic() - self._t0) * 1000.0
        stats.time_to_best_ms = elapsed_ms
        self._trace.update(f"s:{obj};".encode())
        if obj is not None:
            stats.objective_timeline.append((elapsed_ms, obj))
        if self.on_solution is not None:
            self.on_solution(assignment, obj)

    def _tick(self, phase_idx: int) -> None:
        """Per-node bookkeeping: budget check and per-phase time/node count.

        Raises :class:`_Budget` when the wall-clock or node budget is
        exhausted — possibly mid-phase; the caller's ``finally`` chain
        then unwinds every pushed level, leaving the store consistent.
        """
        stats = self.stats
        now = time.monotonic()
        name = self._phase_name(phase_idx)
        stats.phase_nodes[name] = stats.phase_nodes.get(name, 0) + 1
        stats.phase_time_ms[name] = (
            stats.phase_time_ms.get(name, 0.0)
            + (now - self._last_tick) * 1000.0
        )
        self._last_tick = now
        if self._deadline is not None and now > self._deadline:
            stats.timed_out = True
            raise _Budget("timeout")
        if self.node_limit is not None and stats.nodes > self.node_limit:
            stats.timed_out = True
            raise _Budget("node limit")
        if self.should_stop is not None and self.should_stop():
            stats.timed_out = True
            stats.cancelled = True
            raise _Budget("cancelled")

    def _pick(self):
        """``(phase_index, phase, variable)`` of the next decision, or None."""
        for i, phase in enumerate(self._phases):
            v = phase.pick()
            if v is not None:
                return i, phase, v
        return None

    def _dfs(self, depth: int) -> None:
        """Explore the subtree under the current store state.

        Only the left branch (``var = value``) recurses; the right branch
        (``var != value``) is handled by looping in the current frame,
        with its domain changes trailed to the level our *caller* pushed.
        This bounds the Python stack depth by the number of decision
        variables instead of the sum of their domain sizes.
        """
        store = self.store
        stats = self.stats
        if depth > stats.peak_depth:
            stats.peak_depth = depth
        while True:
            stats.nodes += 1
            decision = self._pick()
            if decision is None:
                self._record_solution()
                return
            phase_idx, phase, var = decision
            self._tick(phase_idx)
            value = phase.value_select(var)
            self._trace.update(f"d:{var.name}={value};".encode())

            # Left branch: var = value
            store.push_level()
            try:
                self._apply_bound()
                store.assign(var, value)
                store.propagate()
                self._dfs(depth + 1)
            except Inconsistency:
                stats.failures += 1
                stats.backtracks += 1
                self._trace.update(b"f;")
            finally:
                store.pop_level()

            # In pure satisfaction mode, stop after the first solution.
            if self._objective is None and stats.solutions > 0:
                return

            # Right branch: var != value, explored within this frame.
            try:
                self._apply_bound()
                store.remove_value(var, value)
                store.propagate()
            except Inconsistency:
                stats.failures += 1
                stats.backtracks += 1
                self._trace.update(b"f;")
                return

    def _apply_bound(self) -> None:
        if self._objective is not None and self._best_obj is not None:
            self.store.set_max(self._objective, self._best_obj - 1)

    def _run(self, variables_or_phases, objective: Optional[IntVar]) -> SearchResult:
        self._phases = self._as_phases(variables_or_phases)
        self._objective = objective
        self._best_obj = None
        self._best_assignment = {}
        self._found = False
        self._trace = hashlib.sha256()
        self.stats = stats = SolverStats()
        store = self.store
        prop0 = store.n_propagations
        wake0 = store.n_wakeups
        by_class0 = dict(store.propagations_by_class)
        self._t0 = self._last_tick = time.monotonic()
        self._deadline = (
            self._t0 + self.timeout_ms / 1000.0 if self.timeout_ms else None
        )

        timed_out = False
        entry_depth = store.depth
        store.push_level()
        try:
            self._dfs(depth=1)
        except _Budget:
            timed_out = True
        except Inconsistency:
            # Root-level failure (can happen if _apply_bound fires at root).
            pass
        finally:
            # The finally chain in _dfs pops every level it pushed, even
            # on budget expiry mid-phase; this pop restores the entry
            # state exactly.
            store.pop_level()
        assert store.depth == entry_depth, "search left unpopped levels"
        stats.time_ms = (time.monotonic() - self._t0) * 1000.0
        stats.timed_out = timed_out
        stats.propagations = store.n_propagations - prop0
        stats.wakeups = store.n_wakeups - wake0
        stats.propagations_by_class = {
            k: v - by_class0.get(k, 0)
            for k, v in store.propagations_by_class.items()
            if v - by_class0.get(k, 0) > 0
        }
        self._trace.update(
            f"F:{stats.failures};N:{stats.nodes};S:{stats.solutions};".encode()
        )
        stats.trace_fingerprint = self._trace.hexdigest()

        if self._found:
            if objective is None:
                status = SolveStatus.OPTIMAL  # satisfaction: found == done
            else:
                status = SolveStatus.FEASIBLE if timed_out else SolveStatus.OPTIMAL
            return SearchResult(
                status=status,
                objective=self._best_obj,
                assignment=self._best_assignment,
                stats=stats,
            )
        return SearchResult(
            status=SolveStatus.TIMEOUT if timed_out else SolveStatus.INFEASIBLE,
            stats=stats,
        )
