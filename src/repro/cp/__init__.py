"""Finite-domain constraint programming solver.

This package is a from-scratch reimplementation of the constraint
programming substrate the paper obtains from JaCoP: finite-domain integer
variables, a propagation engine with trailing and backtracking, a library
of arithmetic / logical / global constraints (including ``Cumulative`` and
``Diff2``, the two global constraints the paper's scheduling and memory
allocation model is built on), and a depth-first branch-and-bound search
with pluggable variable/value selection heuristics and phased search.

The public surface mirrors what the paper's model needs:

>>> from repro.cp import Store, IntVar, Cumulative, Diff2, Search
>>> store = Store()
>>> x = IntVar(store, 0, 10, name="x")
>>> y = IntVar(store, 0, 10, name="y")
>>> store.post(XPlusCLeqY(x, 3, y))      # x + 3 <= y   (precedence)
>>> Search(store).solve([x, y])

Design notes
------------
* Domains are immutable sorted interval sets (:class:`~repro.cp.domain.Domain`);
  variable mutation goes through the :class:`~repro.cp.engine.Store`, which
  trails the previous domain so search can backtrack in O(changes).
* Constraints are propagators: objects with a ``propagate(store)`` method
  that prune variable domains and raise :class:`~repro.cp.engine.Inconsistency`
  on wipe-out.  Propagators subscribe to typed domain events
  (:class:`~repro.cp.engine.Event`: MIN / MAX / ASSIGN / DOMAIN) and are
  scheduled through priority buckets — cheap arithmetic before expensive
  globals — until fixpoint.  See ``docs/solver-internals.md``.
* Search is recursive DFS over decisions, with branch-and-bound
  minimization used by the scheduler exactly as in section 3.5 of the
  paper (three sequential phases inside one branch-and-bound search).
"""

from repro.cp.domain import Domain, EMPTY_DOMAIN
from repro.cp.engine import Event, Inconsistency, Store
from repro.cp.stats import SolverStats
from repro.cp.var import IntVar
from repro.cp.constraints.arith import (
    Eq,
    Neq,
    LinearEq,
    LinearLeq,
    Max,
    Min,
    ScaledDiv,
    XEqC,
    XNeqC,
    XPlusCLeqY,
    XPlusCEqY,
    XPlusYEqZ,
)
from repro.cp.constraints.reified import (
    EqImpliesEq,
    GuardedEqImpliesEq,
    BinaryTable,
    ConditionalBinaryTable,
)
from repro.cp.constraints.cumulative import Cumulative, Task
from repro.cp.constraints.diff2 import Diff2, Rect2
from repro.cp.search import (
    Phase,
    Search,
    SearchResult,
    SolveStatus,
    first_fail,
    input_order,
    select_max_value,
    select_min_value,
    smallest_min,
)

__all__ = [
    "BinaryTable",
    "ConditionalBinaryTable",
    "Cumulative",
    "Diff2",
    "Domain",
    "EMPTY_DOMAIN",
    "Eq",
    "EqImpliesEq",
    "Event",
    "GuardedEqImpliesEq",
    "Inconsistency",
    "IntVar",
    "LinearEq",
    "LinearLeq",
    "Max",
    "Min",
    "Neq",
    "Phase",
    "Rect2",
    "ScaledDiv",
    "Search",
    "SearchResult",
    "SolveStatus",
    "SolverStats",
    "Store",
    "Task",
    "XEqC",
    "XNeqC",
    "XPlusCEqY",
    "XPlusCLeqY",
    "XPlusYEqZ",
    "first_fail",
    "input_order",
    "select_max_value",
    "select_min_value",
    "smallest_min",
]
