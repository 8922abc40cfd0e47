"""The pre-solve bounds engine and its certificates (BND5xx).

Three layers under test:

* the *interval analysis* (ASAP/ALAP windows) and the *energetic
  lower-bound set* of :mod:`repro.analysis.bounds` — soundness against
  real schedules from both independent schedulers;
* the *solver integration* — certified optimal results when the
  incumbent meets a static bound, certified infeasible results with
  **zero** search nodes from the memory pigeonhole / horizon / empty
  II-window pre-checks, on both the sequential and the parallel paths;
* the *independent verifier* (:mod:`repro.analysis.certify`) — every
  emitted certificate re-derives, and targeted mutations of certified
  results trip the exact BND code (the auditor must reject what it did
  not itself compute).
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import (
    Certificate,
    asap_starts,
    audit_bounds,
    makespan_lower_bound,
    memory_precheck,
    min_live_vectors,
    start_windows,
    verify_certificate,
)
from repro.apps import build_arf, build_backsub, build_matmul, build_qrd
from repro.apps.synth import SynthSpec, random_kernel
from repro.arch.eit import DEFAULT_CONFIG
from repro.cp import SolveStatus
from repro.ir import critical_path, merge_pipeline_ops
from repro.sched import greedy_schedule, schedule
from repro.sched.modulo import (
    ii_search_range,
    modulo_schedule,
    resource_lower_bound,
)

BUILDERS = {
    "qrd": build_qrd,
    "arf": build_arf,
    "matmul": build_matmul,
    "backsub": build_backsub,
}


@pytest.fixture(scope="module", params=sorted(BUILDERS))
def kernel(request):
    return merge_pipeline_ops(BUILDERS[request.param]())


@pytest.fixture(scope="module")
def matmul():
    return merge_pipeline_ops(build_matmul())


@pytest.fixture(scope="module")
def qrd_opt():
    """The certified-optimal QRD solve (probe hits the critical path)."""
    g = merge_pipeline_ops(build_qrd())
    return schedule(g, timeout_ms=60_000, audit=True)


class TestIntervals:
    def test_inputs_start_at_zero(self, kernel):
        asap = asap_starts(kernel)
        for d in kernel.inputs():
            assert asap[d.nid] == 0

    def test_windows_contain_greedy_starts(self, kernel):
        greedy = greedy_schedule(kernel)
        windows = start_windows(kernel, greedy.cfg, horizon=greedy.makespan)
        for node in kernel.nodes():
            lo, hi = windows[node.nid]
            assert lo <= greedy.starts[node.nid] <= hi, node.name

    def test_window_below_asap_is_empty(self, kernel):
        # a horizon below the critical path must wipe out at least one
        # window — that emptiness is what ScheduleModel turns into an
        # Inconsistency before any search
        cp = critical_path(kernel)[0]
        windows = start_windows(kernel, DEFAULT_CONFIG, horizon=cp - 1)
        assert any(hi < lo for lo, hi in windows.values())

    def test_bounds_audit_flags_shifted_start(self, kernel):
        greedy = greedy_schedule(kernel)
        assert audit_bounds(greedy).ok
        starts = dict(greedy.starts)
        victim = max(starts)
        starts[victim] = greedy.makespan + 5
        mutated = dataclasses.replace(greedy, starts=starts)
        report = audit_bounds(mutated)
        assert "BND501" in report.codes(), report.render()

    def test_bounds_audit_flags_impossible_makespan(self, kernel):
        greedy = greedy_schedule(kernel)
        lb = makespan_lower_bound(kernel, greedy.cfg)
        mutated = dataclasses.replace(greedy, makespan=lb.value - 1)
        report = audit_bounds(mutated)
        assert "BND502" in report.codes(), report.render()


class TestLowerBounds:
    def test_dominates_critical_path(self, kernel):
        lb = makespan_lower_bound(kernel)
        assert lb.critical_path == critical_path(kernel)[0]
        assert lb.value >= lb.critical_path

    def test_sound_against_greedy(self, kernel):
        greedy = greedy_schedule(kernel)
        lb = makespan_lower_bound(kernel, greedy.cfg)
        assert greedy.makespan >= lb.value

    def test_matmul_energy_beats_critical_path(self, matmul):
        # matmul is wide and shallow: the vector issue-slot argument is
        # strictly stronger than the longest path
        lb = makespan_lower_bound(matmul)
        assert lb.family == "vector-energy"
        assert lb.value > lb.critical_path

    def test_explain_names_the_winning_family(self, kernel):
        lb = makespan_lower_bound(kernel)
        assert lb.family in lb.explain()
        assert str(lb.value) in lb.explain()
        assert lb.as_dict()["value"] == lb.value

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_windows_and_bound_sound(self, seed):
        # seeded population: the greedy schedule (always feasible) can
        # never beat the static bound, and always sits inside its
        # ASAP/ALAP windows
        g = merge_pipeline_ops(random_kernel(SynthSpec(
            n_ops=5 + seed % 9,
            n_inputs=2 + seed % 3,
            p_scalar_op=(seed % 4) * 0.1,
            seed=seed,
        )))
        greedy = greedy_schedule(g)
        lb = makespan_lower_bound(g, greedy.cfg)
        assert greedy.makespan >= lb.value
        windows = start_windows(g, greedy.cfg, horizon=greedy.makespan)
        for node in g.nodes():
            lo, hi = windows[node.nid]
            assert lo <= greedy.starts[node.nid] <= hi


class TestMemoryPrecheck:
    def test_matmul_needs_four_slots(self, matmul):
        n, witness = min_live_vectors(matmul)
        assert n >= 4
        assert "live" in witness

    def test_pigeonhole_fires_below_min_live(self, matmul):
        cert = memory_precheck(matmul, DEFAULT_CONFIG.with_slots(3))
        assert cert is not None
        assert cert.kind == "infeasible"
        assert cert.family == "memory-pigeonhole"
        assert verify_certificate(
            cert, matmul, DEFAULT_CONFIG.with_slots(3)
        ).ok

    def test_no_certificate_at_default_size(self, matmul):
        assert memory_precheck(matmul, DEFAULT_CONFIG) is None


class TestSchedulerIntegration:
    def test_qrd_certified_optimal(self, qrd_opt):
        s = qrd_opt
        assert s.status is SolveStatus.OPTIMAL
        assert s.certificate is not None
        assert s.certificate.kind == "optimal"
        assert s.certificate.bound == s.makespan
        lb = makespan_lower_bound(s.graph, s.cfg)
        assert s.makespan == lb.value

    def test_certificate_reverifies(self, qrd_opt):
        report = verify_certificate(
            qrd_opt.certificate,
            qrd_opt.graph,
            qrd_opt.cfg,
            result_value=qrd_opt.makespan,
        )
        assert report.ok, report.render()

    def test_memory_infeasibility_needs_zero_nodes(self, matmul):
        s = schedule(matmul, n_slots=3, timeout_ms=60_000, audit=True)
        assert s.status is SolveStatus.INFEASIBLE
        assert s.starts == {}
        assert s.search_stats is None  # not one CP node was searched
        assert s.certificate is not None
        assert s.certificate.family == "memory-pigeonhole"

    def test_horizon_infeasibility_needs_zero_nodes(self, matmul):
        lb = makespan_lower_bound(matmul)
        s = schedule(matmul, horizon=lb.value - 1, timeout_ms=60_000,
                     audit=True)
        assert s.status is SolveStatus.INFEASIBLE
        assert s.search_stats is None
        assert s.certificate is not None
        assert s.certificate.family == "horizon"
        assert s.certificate.bound == lb.value


class TestModuloIntegration:
    def test_ii_search_range_rejects_empty_window(self, matmul):
        lb = resource_lower_bound(matmul, DEFAULT_CONFIG, False)
        with pytest.raises(ValueError, match="below the resource lower"):
            ii_search_range(matmul, DEFAULT_CONFIG, max_ii=lb - 1)

    def test_sequential_certified_empty_window(self, matmul):
        lb = resource_lower_bound(matmul, DEFAULT_CONFIG, False)
        m = modulo_schedule(matmul, max_ii=lb - 1, timeout_ms=60_000,
                            audit=True)
        assert m.status is SolveStatus.INFEASIBLE
        assert not m.found
        assert m.certificate is not None
        assert m.certificate.family == "ii-window"
        assert m.certificate.bound == lb
        assert m.tried and all("skipped" in why for _, why in m.tried)

    def test_parallel_certified_empty_window(self, matmul):
        lb = resource_lower_bound(matmul, DEFAULT_CONFIG, False)
        m = modulo_schedule(matmul, max_ii=lb - 1, jobs=2,
                            timeout_ms=60_000, audit=True)
        assert m.status is SolveStatus.INFEASIBLE
        assert m.certificate is not None
        assert m.certificate.family == "ii-window"

    def test_backsub_modulo_certified_at_resource_minimum(self):
        g = merge_pipeline_ops(build_backsub())
        m = modulo_schedule(g, timeout_ms=120_000, audit=True)
        assert m.found
        mii = resource_lower_bound(g, DEFAULT_CONFIG, False)
        assert m.ii == mii
        assert m.status is SolveStatus.OPTIMAL
        assert m.certificate is not None
        assert m.certificate.family == "resource-mii"


class TestCertificateRecord:
    def test_round_trip(self, qrd_opt):
        cert = qrd_opt.certificate
        assert Certificate.from_dict(cert.as_dict()) == cert

    def test_from_dict_total(self):
        assert Certificate.from_dict(None) is None
        mangled = Certificate.from_dict({"kind": "optimal", "bound": "x"})
        assert mangled is not None  # never raises; verification rejects
        report = verify_certificate(
            mangled, merge_pipeline_ops(build_matmul()), DEFAULT_CONFIG
        )
        assert "BND504" in report.codes()

    def test_render_mentions_family(self, qrd_opt):
        out = qrd_opt.certificate.render()
        assert qrd_opt.certificate.family in out
        assert "optimal" in out


class TestCertificateMutations:
    """Corrupt a real certificate; the verifier must name the defect."""

    def _codes(self, cert, graph, cfg, **kw):
        return verify_certificate(cert, graph, cfg, **kw).codes()

    def test_wrong_bound_trips_503(self, matmul):
        cfg = DEFAULT_CONFIG.with_slots(3)
        cert = memory_precheck(matmul, cfg)
        bad = dataclasses.replace(cert, bound=cert.bound + 1)
        assert "BND503" in self._codes(bad, matmul, cfg)

    def test_wrong_achieved_on_optimal_trips_503(self, qrd_opt):
        cert = qrd_opt.certificate
        bad = dataclasses.replace(
            cert, bound=cert.bound - 1, achieved=cert.achieved - 1
        )
        assert "BND503" in self._codes(
            bad, qrd_opt.graph, qrd_opt.cfg,
            result_value=cert.achieved - 1,
        )

    def test_unknown_kind_trips_504(self, qrd_opt):
        bad = dataclasses.replace(qrd_opt.certificate, kind="maybe")
        assert "BND504" in self._codes(bad, qrd_opt.graph, qrd_opt.cfg)

    def test_family_kind_mismatch_trips_504(self, qrd_opt):
        # memory-pigeonhole can only witness infeasibility
        bad = dataclasses.replace(
            qrd_opt.certificate, family="memory-pigeonhole"
        )
        assert "BND504" in self._codes(bad, qrd_opt.graph, qrd_opt.cfg)

    def test_optimal_without_result_trips_505(self, qrd_opt):
        assert "BND505" in self._codes(
            qrd_opt.certificate, qrd_opt.graph, qrd_opt.cfg,
            result_value=None,
        )

    def test_infeasible_with_result_trips_505(self, matmul):
        cfg = DEFAULT_CONFIG.with_slots(3)
        cert = memory_precheck(matmul, cfg)
        assert "BND505" in self._codes(
            cert, matmul, cfg, result_value=12
        )

    def test_nonempty_ii_window_trips_507(self, matmul):
        lb = resource_lower_bound(matmul, DEFAULT_CONFIG, False)
        m = modulo_schedule(matmul, max_ii=lb - 1, timeout_ms=60_000)
        # claim the window reached the bound: then it was NOT empty
        bad = dataclasses.replace(m.certificate, achieved=lb)
        assert "BND507" in self._codes(bad, matmul, DEFAULT_CONFIG)
