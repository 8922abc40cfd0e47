"""Scheduling and memory allocation (sections 3.3-3.5, 4.3).

* :mod:`repro.sched.model` — the CP scheduling model: precedence (eq. 1),
  lane Cumulative (eq. 2), config exclusivity (eq. 3), data starts
  (eq. 4), makespan objective (eq. 5);
* :mod:`repro.sched.memmodel` — memory allocation: slot/line/page
  channeling (eq. 6), access-compatibility implications (eqs. 7-9),
  lifetimes (eq. 10) and slot reuse via Diff2 (eq. 11);
* :mod:`repro.sched.scheduler` — the three-phase branch-and-bound search
  of section 3.5, producing a :class:`repro.sched.result.Schedule`;
* :mod:`repro.sched.list_sched` — greedy list scheduler (horizon bound
  and sanity baseline);
* :mod:`repro.sched.baseline` — the architects' manual implementation
  procedure (instruction selection minimizing effective instruction
  count, no memory allocation) — Table 2's "Manual" column;
* :mod:`repro.sched.overlap` — overlapped execution of M iterations
  (section 4.3, Table 2);
* :mod:`repro.sched.modulo` — modulo scheduling as a CSP, excluding or
  including reconfigurations (Table 3).
"""

from repro.sched.result import Schedule
from repro.sched.list_sched import greedy_schedule
from repro.sched.model import ScheduleModel
from repro.sched.scheduler import schedule
from repro.sched.baseline import architect_optimize, manual_instruction_sequence
from repro.sched.overlap import (
    InstructionBlock,
    OverlapResult,
    instruction_blocks,
    overlap_blocks,
    overlap_iterations,
)
from repro.sched.modulo import ModuloResult, modulo_schedule
from repro.sched.explore import DesignPoint, explore, pareto_front

__all__ = [
    "DesignPoint",
    "InstructionBlock",
    "ModuloResult",
    "OverlapResult",
    "Schedule",
    "ScheduleModel",
    "explore",
    "greedy_schedule",
    "pareto_front",
    "instruction_blocks",
    "manual_instruction_sequence",
    "modulo_schedule",
    "overlap_iterations",
    "architect_optimize",
    "overlap_blocks",
    "schedule",
]
