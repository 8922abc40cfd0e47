"""Memory model constraints (eqs. 6-11) in isolation."""

import pytest

from repro.analysis import audit_schedule
from repro.arch.eit import DEFAULT_CONFIG, EITConfig
from repro.arch.isa import OpCategory
from repro.arch.memory import MemoryLayout
from repro.cp import SolveStatus
from repro.dsl import EITVector, trace
from repro.ir.graph import Graph
from repro.sched import schedule
from repro.sched.model import ScheduleModel


def one_binary_op():
    with trace("t") as t:
        EITVector(1, 2, 3, 4) + EITVector(5, 6, 7, 8)
    return t.graph


class TestChanneling:
    def test_slot_line_page_consistent_in_solutions(self):
        g = one_binary_op()
        s = schedule(g, timeout_ms=10_000)
        layout = MemoryLayout(s.cfg)
        model_check = []
        for d in g.nodes_of(OpCategory.VECTOR_DATA):
            slot = s.slots[d.nid]
            assert 0 <= slot < s.cfg.n_slots
        assert audit_schedule(s).ok


class TestEq7InputCompatibility:
    def test_binary_op_inputs_coaccessible(self):
        g = one_binary_op()
        s = schedule(g, timeout_ms=10_000)
        layout = MemoryLayout(s.cfg)
        op = g.op_nodes()[0]
        slots = [s.slots[p.nid] for p in g.preds(op)]
        assert layout.simultaneous_access(slots)

    def test_three_operand_op(self):
        with trace() as t:
            x = EITVector(1, 1, 1, 1)
            y = EITVector(2, 2, 2, 2)
            x.axpy(3, y)
        s = schedule(t.graph, timeout_ms=10_000)
        assert audit_schedule(s).ok

    def test_tight_single_page_memory(self):
        """With 4 slots (all in page 0, line 0) inputs trivially share a
        line, so a binary op is schedulable."""
        g = one_binary_op()
        s = schedule(g, n_slots=4, timeout_ms=10_000)
        assert s.status is SolveStatus.OPTIMAL
        assert audit_schedule(s).ok


class TestEq89SimultaneousOps:
    def test_parallel_same_op_memory_legal(self):
        """Four independent v_adds can co-issue; their 8 inputs and 4
        outputs must then be access-compatible — the verifier checks the
        groups the CP model constrained."""
        with trace() as t:
            for i in range(4):
                EITVector(i, i, i, i) + EITVector(1, 2, 3, 4)
        s = schedule(t.graph, timeout_ms=30_000)
        assert s.status is SolveStatus.OPTIMAL
        assert audit_schedule(s).ok
        # optimal schedule co-issues all four adds
        assert s.makespan == 7

    def test_memory_pressure_can_serialize(self):
        """With a single line of four slots, two same-time binary ops
        would need their four inputs in four distinct banks of one line
        — feasible — but outputs also collide with the long-lived
        inputs; the solver must still produce *some* legal schedule."""
        with trace() as t:
            a = EITVector(1, 1, 1, 1) + EITVector(2, 2, 2, 2)
        g = t.graph
        # Inputs die when read at cycle 0; the output (written at cycle
        # 7) may reuse one of their slots: two slots suffice.
        s = schedule(g, n_slots=2, timeout_ms=10_000)
        assert s.status is SolveStatus.OPTIMAL
        assert s.slots_used() == 2
        assert audit_schedule(s).ok


class TestLifetimes:
    def test_dead_data_slot_reuse(self):
        """A chain long enough forces reuse when memory is scarce."""
        with trace() as t:
            v = EITVector(1, 2, 3, 4)
            w = EITVector(4, 3, 2, 1)
            for _ in range(4):
                v = v + w
        g = t.graph
        s = schedule(g, n_slots=3, timeout_ms=20_000)
        assert s.status is SolveStatus.OPTIMAL
        assert s.slots_used() <= 3
        assert audit_schedule(s).ok

    def test_output_distinctness_redundant_constraint(self):
        """Kernels whose outputs outnumber memory are proved infeasible
        fast (the AllDifferent pigeonhole, not a search timeout)."""
        with trace() as t:
            a = EITVector(1, 1, 1, 1)
            b = EITVector(2, 2, 2, 2)
            for i in range(3):
                a + b.scale(i)  # several independent outputs
        g = t.graph
        s = schedule(g, n_slots=2, timeout_ms=5_000)
        assert s.status is SolveStatus.INFEASIBLE
        assert s.solve_time_ms < 4_000


class TestModelObject:
    def test_phases_structure(self):
        g = one_binary_op()
        m = ScheduleModel(g)
        phases = m.phases()
        assert [p.name for p in phases] == ["ops", "data", "slots"]

    def test_without_memory_two_phases(self):
        g = one_binary_op()
        m = ScheduleModel(g, with_memory=False)
        assert [p.name for p in m.phases()] == ["ops", "data"]

    def test_horizon_bounds_domains(self):
        g = one_binary_op()
        m = ScheduleModel(g, horizon=40)
        assert m.horizon == 40
        for v in m.start.values():
            assert v.max() <= 40


class TestTableEncoding:
    """The alternative slot-pair table encoding must agree with the
    paper's implication encoding on optima and validity."""

    def test_same_optimum_small_kernel(self):
        g = one_binary_op()
        a = schedule(g, timeout_ms=10_000)
        b = schedule(g, timeout_ms=30_000, memory_encoding="table")
        assert a.makespan == b.makespan
        assert audit_schedule(b).ok

    def test_parallel_adds_same_optimum(self):
        with trace() as t:
            for i in range(4):
                EITVector(i, i, i, i) + EITVector(1, 2, 3, 4)
        g = t.graph
        a = schedule(g, timeout_ms=30_000)
        b = schedule(g, timeout_ms=60_000, memory_encoding="table")
        assert a.makespan == b.makespan == 7
        assert audit_schedule(b).ok

    def test_unknown_encoding_rejected(self):
        import pytest as _pytest

        g = one_binary_op()
        with _pytest.raises(ValueError, match="encoding"):
            ScheduleModel(g, memory_encoding="bogus")
