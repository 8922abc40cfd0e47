"""End-to-end integration: the full figure-2 flow for every kernel.

DSL program → IR (XML round-trip) → merging → CP scheduling with memory
allocation → verification → machine code → cycle-accurate simulation →
bit-exact value comparison with the DSL trace.
"""

import numpy as np
import pytest

from repro.analysis import audit_modulo, audit_schedule
from repro.apps import build_arf, build_matmul, build_qrd
from repro.codegen import generate
from repro.cp import SolveStatus
from repro.ir import from_xml, merge_pipeline_ops, stats, to_xml, validate
from repro.sched import overlap_iterations, schedule
from repro.sched.modulo import modulo_schedule
from repro.sim import simulate

KERNELS = {"matmul": build_matmul, "arf": build_arf, "qrd": build_qrd}


@pytest.mark.parametrize("name", list(KERNELS))
def test_full_flow(name):
    # 1. DSL -> IR
    g0 = KERNELS[name]()
    validate(g0)

    # 2. XML round trip (figure 2's exchange format)
    g1 = from_xml(to_xml(g0))
    validate(g1)
    assert stats(g1).as_tuple() == stats(g0).as_tuple()

    # 3. merging pass (section 3.3.1)
    g = merge_pipeline_ops(g1)
    validate(g)

    # 4. scheduling + memory allocation (sections 3.3-3.5)
    s = schedule(g, timeout_ms=90_000)
    assert s.status is SolveStatus.OPTIMAL
    assert audit_schedule(s).ok

    # 5. code generation
    prog = generate(s)
    assert prog.n_instructions == len(s.issue_map())

    # 6. simulation replays the DSL values exactly
    res = simulate(prog)
    assert res.ok, (res.access_violations[:3], res.hazards[:3])
    assert res.mismatches(g) == []


@pytest.mark.parametrize("name", list(KERNELS))
def test_multi_iteration_paths_agree_on_graph(name):
    """Overlap and modulo both consume the same single-iteration artifacts."""
    g = merge_pipeline_ops(KERNELS[name]())
    s = schedule(g, timeout_ms=90_000)
    ov = overlap_iterations(s, 8)
    assert ov.throughput > 0
    mod = modulo_schedule(g, timeout_ms=60_000, per_ii_timeout_ms=20_000)
    assert mod.found
    assert audit_modulo(mod, g).ok
    # steady-state modulo throughput beats (or matches) overlapped
    # execution at M=8 on every kernel — modulo is the stronger pipeline
    assert mod.throughput >= ov.throughput * 0.9


def test_schedule_then_degrade_memory_consistently():
    """The same kernel scheduled across a memory sweep keeps identical
    makespan and valid (re)allocations — Table 1 end to end."""
    g = merge_pipeline_ops(build_qrd())
    baseline = None
    for n_slots in (64, 32, 16, 10):
        s = schedule(g, n_slots=n_slots, timeout_ms=90_000)
        assert s.status is SolveStatus.OPTIMAL
        assert audit_schedule(s).ok
        if baseline is None:
            baseline = s.makespan
        assert s.makespan == baseline
        prog = generate(s)
        res = simulate(prog)
        assert res.ok and res.mismatches(g) == []
