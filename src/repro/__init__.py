"""repro — programming support for reconfigurable custom vector architectures.

A full reimplementation of Arslan, Kuchcinski, Liu & Gruian,
*Programming Support for Reconfigurable Custom Vector Architectures*
(PMAM'15): a Python-embedded DSL for the EIT reconfigurable vector
architecture, a dataflow IR, a from-scratch finite-domain constraint
solver (with the Cumulative and Diff2 globals the paper's model needs),
joint instruction scheduling + vector-memory allocation, overlapped
execution and modulo scheduling for multi-iteration throughput, a code
generator and a cycle-accurate simulator.

Quickstart
----------
>>> from repro import EITMatrix, EITVector, trace, merge_pipeline_ops, schedule
>>> with trace("matmul") as t:
...     A = EITMatrix(*[EITVector(i+1, i+2, i+3, i+4) for i in range(4)])
...     rows = [EITVector(*[A(i).dotP(A(j)) for j in range(4)]) for i in range(4)]
>>> sched = schedule(merge_pipeline_ops(t.graph))
>>> sched.makespan >= 8   # bounded below by the 7-stage pipeline + merge
True

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.arch import DEFAULT_CONFIG, EITConfig, MemoryLayout
from repro.dsl import EITMatrix, EITScalar, EITVector, trace
from repro.ir import (
    Graph,
    critical_path,
    merge_pipeline_ops,
    stats,
    to_dot,
    validate,
)
from repro.sched import (
    greedy_schedule,
    modulo_schedule,
    overlap_iterations,
    schedule,
)
from repro.codegen import generate
from repro.sim import simulate

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_CONFIG",
    "EITConfig",
    "EITMatrix",
    "EITScalar",
    "EITVector",
    "Graph",
    "MemoryLayout",
    "critical_path",
    "generate",
    "greedy_schedule",
    "merge_pipeline_ops",
    "modulo_schedule",
    "overlap_iterations",
    "schedule",
    "simulate",
    "stats",
    "to_dot",
    "trace",
    "validate",
]
