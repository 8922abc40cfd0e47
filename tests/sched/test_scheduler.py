"""CP scheduler (sections 3.3-3.5): optimality, memory coupling, statuses."""

import pytest

from repro.analysis import audit_schedule
from repro.apps import build_arf, build_matmul, build_qrd
from repro.arch.eit import DEFAULT_CONFIG, EITConfig
from repro.arch.isa import OpCategory
from repro.cp import SolveStatus
from repro.dsl import EITVector, trace
from repro.ir import critical_path, merge_pipeline_ops
from repro.sched import greedy_schedule, schedule


@pytest.fixture(scope="module")
def matmul_sched():
    g = merge_pipeline_ops(build_matmul())
    return schedule(g, timeout_ms=60_000)


class TestOptimality:
    def test_matmul_optimal_and_valid(self, matmul_sched):
        s = matmul_sched
        assert s.status is SolveStatus.OPTIMAL
        assert audit_schedule(s).ok

    def test_matmul_known_optimum(self, matmul_sched):
        # 16 dotPs on 4 lanes (4 cycles), 7-cycle latency, 4 merges on a
        # single unit, 1-cycle merge latency: 3 + 7 + 1 = 11
        assert matmul_sched.makespan == 11

    def test_never_worse_than_greedy(self):
        g = merge_pipeline_ops(build_arf())
        cp_sched = schedule(g, timeout_ms=60_000)
        greedy = greedy_schedule(g)
        assert cp_sched.makespan <= greedy.makespan

    def test_qrd_reaches_critical_path(self):
        g = merge_pipeline_ops(build_qrd())
        s = schedule(g, timeout_ms=60_000)
        assert s.status is SolveStatus.OPTIMAL
        assert s.makespan == critical_path(g)[0]
        assert audit_schedule(s).ok

    def test_single_op_kernel(self):
        with trace("one") as t:
            EITVector(1, 2, 3, 4) + EITVector(4, 3, 2, 1)
        s = schedule(t.graph, timeout_ms=10_000)
        assert s.makespan == DEFAULT_CONFIG.pipeline_depth
        assert audit_schedule(s).ok


class TestMemoryCoupling:
    def test_without_memory_no_slots(self):
        g = merge_pipeline_ops(build_matmul())
        s = schedule(g, with_memory=False, timeout_ms=30_000)
        assert s.slots == {}
        assert audit_schedule(s, check_memory=False).ok

    def test_slots_cover_all_vector_data(self, matmul_sched):
        g = matmul_sched.graph
        vdata = g.nodes_of(OpCategory.VECTOR_DATA)
        assert set(matmul_sched.slots) == {d.nid for d in vdata}

    def test_memory_sweep_invariant_length(self):
        """Table 1's headline: length doesn't change with memory size."""
        g = merge_pipeline_ops(build_qrd())
        lengths = set()
        for n in (64, 16, 10):
            s = schedule(g, n_slots=n, timeout_ms=60_000)
            assert s.status is SolveStatus.OPTIMAL
            assert s.slots_used() <= n
            lengths.add(s.makespan)
        assert len(lengths) == 1

    def test_too_small_memory_not_feasible(self):
        """MATMUL holds 4 inputs + 4 result vectors at the end: 2 slots
        cannot work, and the solver must not claim success."""
        g = merge_pipeline_ops(build_matmul())
        s = schedule(g, n_slots=2, timeout_ms=3_000)
        assert s.status in (SolveStatus.INFEASIBLE, SolveStatus.TIMEOUT)
        if s.status is SolveStatus.INFEASIBLE:
            # proven: no schedule is claimed, no fallback offered
            assert s.starts == {} and not s.fallback
        else:
            # budget ran out before the proof: the greedy fallback may
            # supply start times, but never a slot assignment
            assert s.slots == {}


class TestTimeoutFallback:
    def test_timeout_without_incumbent_returns_greedy(self):
        g = merge_pipeline_ops(build_qrd())
        s = schedule(g, timeout_ms=0.0001)
        assert s.status is SolveStatus.TIMEOUT
        assert s.fallback
        assert s.slots == {}
        assert s.makespan == greedy_schedule(g).makespan
        assert audit_schedule(s, check_memory=False).ok
        # partial telemetry still attached
        assert s.search_stats is not None and s.search_stats.timed_out

    def test_fallback_never_applies_when_search_finishes(self):
        g = merge_pipeline_ops(build_matmul())
        s = schedule(g, timeout_ms=60_000)
        assert s.status is SolveStatus.OPTIMAL
        assert not s.fallback

    def test_lane_constrained_architecture(self):
        g = merge_pipeline_ops(build_matmul())
        narrow = EITConfig(n_lanes=2)
        s = schedule(g, cfg=narrow, timeout_ms=20_000)
        # the optimality proof may exceed the budget on 2 lanes; a valid
        # schedule of the right length is the point here
        assert s.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)
        assert audit_schedule(s).ok
        # 16 dotPs over 2 lanes need >= 8 issue cycles
        assert s.makespan >= 7 + 8


class TestScheduleObject:
    def test_config_stream_matches_issue_map(self, matmul_sched):
        stream = matmul_sched.vector_config_stream()
        assert stream.count("v_dotP") == 4  # 4 issue cycles of dotP

    def test_utilization_bounds(self, matmul_sched):
        u = matmul_sched.vector_core_utilization()
        assert 0 < u <= 1

    def test_lifetime_of_outputs_reaches_makespan(self, matmul_sched):
        g = matmul_sched.graph
        for d in g.outputs():
            if d.category is OpCategory.VECTOR_DATA:
                assert (
                    matmul_sched.start(d) + matmul_sched.lifetime(d)
                    == matmul_sched.makespan
                )

    def test_repr(self, matmul_sched):
        assert "matmul" in repr(matmul_sched)


class TestVerifierCatchesViolations:
    """Seed known-bad schedules; the independent checker must object."""

    def test_precedence_violation_detected(self, matmul_sched):
        import copy

        bad = copy.copy(matmul_sched)
        bad.starts = dict(matmul_sched.starts)
        victim = matmul_sched.graph.op_nodes()[0]
        bad.starts[victim.nid] = 0
        out = matmul_sched.graph.result(victim)
        bad.starts[out.nid] = 99  # break eq. 4
        assert not audit_schedule(bad, check_memory=False).ok

    def test_lane_overload_detected(self):
        g = merge_pipeline_ops(build_matmul())
        s = schedule(g, timeout_ms=30_000)
        bad_starts = dict(s.starts)
        # move every dotP to cycle 0 (16 ops on 4 lanes)
        for op in g.op_nodes():
            if op.op.name == "v_dotP":
                bad_starts[op.nid] = 0
                bad_starts[g.result(op).nid] = 7
        import copy

        bad = copy.copy(s)
        bad.starts = bad_starts
        report = audit_schedule(bad, check_memory=False)
        assert any("lanes" in d.render() for d in report.errors)

    def test_slot_collision_detected(self, matmul_sched):
        import copy

        bad = copy.copy(matmul_sched)
        bad.slots = dict(matmul_sched.slots)
        inputs = [
            d
            for d in matmul_sched.graph.inputs()
            if d.category is OpCategory.VECTOR_DATA
        ]
        # two long-lived inputs into the same slot
        bad.slots[inputs[0].nid] = 0
        bad.slots[inputs[1].nid] = 0
        report = audit_schedule(bad)
        assert any(
            "slot" in d.render() or "bank" in d.render() for d in report.errors
        )
