"""Process-pool fan-out: determinism, crash isolation, racing modulo."""

import pytest

from repro.analysis import audit_modulo
from repro.apps import SynthSpec, build_backsub, build_matmul, build_qrd, synth_suite
from repro.arch.eit import DEFAULT_CONFIG, EITConfig
from repro.ir import merge_pipeline_ops
from repro.sched.explore import STANDARD_PROFILES, explore_detailed
from repro.sched.modulo import greedy_modulo_fallback, modulo_schedule
from repro.sched.parallel import SolveRequest, default_jobs, solve_many

PROFILES = {
    "eit": STANDARD_PROFILES["eit"],
    "narrow2": STANDARD_PROFILES["narrow2"],
}


def _fingerprint(m):
    """Everything a modulo result decides — must be bit-identical.

    ``decision_fingerprint`` is the winning candidate's canonical
    decision-trace hash (every branch decision, failure and incumbent of
    its search), so this comparison proves the parallel racer *searched*
    identically to the sequential ladder, not merely that it landed on
    the same answer.
    """
    return (m.ii, m.actual_ii, m.status, m.offsets, m.stages, m.tried,
            m.n_reconfigurations, m.fallback, m.decision_fingerprint)


class TestExploreParallel:
    def test_parallel_sweep_identical_to_sequential(self):
        kernels = synth_suite(
            n_kernels=2, seed=3, base_spec=SynthSpec(n_ops=10)
        )
        seq = explore_detailed(
            kernels, PROFILES, timeout_ms=60_000, modulo_timeout_ms=60_000,
            jobs=1,
        )
        par = explore_detailed(
            kernels, PROFILES, timeout_ms=60_000, modulo_timeout_ms=60_000,
            jobs=2,
        )
        assert [p.as_dict() for p in seq.points] == [
            p.as_dict() for p in par.points
        ]
        # same CSPs solved: same total search effort
        assert seq.solver.nodes == par.solver.nodes


class TestCrashIsolation:
    def test_dead_worker_degrades_its_request_only(self):
        graph = merge_pipeline_ops(build_matmul())
        reqs = [
            SolveRequest(
                req_id="boom", kind="_test_crash",
                graph=graph, cfg=DEFAULT_CONFIG,
                options=(("timeout_ms", 5_000.0),),
            ),
            SolveRequest(
                req_id="flat", kind="schedule",
                graph=graph, cfg=DEFAULT_CONFIG,
                options=(("timeout_ms", 20_000.0),),
            ),
            SolveRequest(
                req_id="mod", kind="modulo",
                graph=graph, cfg=DEFAULT_CONFIG,
                options=(("timeout_ms", 20_000.0),),
            ),
        ]
        results = solve_many(reqs, jobs=2)
        assert set(results) == {"boom", "flat", "mod"}
        assert results["boom"].degraded
        # the sweep survives: every real request has a usable payload
        # (solved, or degraded to the greedy fallback if its worker died
        # with the pool)
        assert results["flat"].payload is not None
        assert results["flat"].payload["makespan"] >= 0
        assert results["mod"].payload is not None
        assert results["mod"].payload["actual_ii"] >= 1

    def test_worker_exception_degrades_to_greedy(self):
        graph = merge_pipeline_ops(build_matmul())
        req = SolveRequest(
            req_id="bad", kind="no_such_kind", graph=graph, cfg=DEFAULT_CONFIG
        )
        results = solve_many([req], jobs=1)
        assert not results["bad"].ok
        assert results["bad"].degraded

    def test_greedy_modulo_fallback_is_valid(self):
        for build in (build_matmul, build_backsub):
            graph = merge_pipeline_ops(build())
            for incl in (False, True):
                res = greedy_modulo_fallback(graph, DEFAULT_CONFIG, incl)
                assert res.fallback and res.found
                assert audit_modulo(res, graph, DEFAULT_CONFIG).ok


class TestRacingModulo:
    @pytest.mark.parametrize(
        "name,build", [("qrd", build_qrd), ("backsub", build_backsub)]
    )
    def test_racing_matches_sequential(self, name, build):
        graph = merge_pipeline_ops(build())
        seq = modulo_schedule(graph, DEFAULT_CONFIG, timeout_ms=120_000)
        par = modulo_schedule(
            graph, DEFAULT_CONFIG, timeout_ms=120_000, jobs=2
        )
        assert _fingerprint(par) == _fingerprint(seq)
        # the checked claim is meaningful only if the hash is present
        assert seq.decision_fingerprint is not None
        assert par.decision_fingerprint == seq.decision_fingerprint

    def test_race_with_candidates_in_flight(self):
        # n_lanes=1 widens the II range (16..24 on matmul), so a 3-wide
        # race genuinely has higher candidates in flight when the lower
        # bound proves feasible — they must be cancelled, and the
        # result must still be the sequential one.
        from repro.sched.modulo import ii_search_range

        cfg = EITConfig(n_lanes=1)
        graph = merge_pipeline_ops(build_matmul())
        lb, hi, _ = ii_search_range(graph, cfg)
        assert hi > lb + 1  # the race has something to race over
        seq = modulo_schedule(graph, cfg, timeout_ms=120_000)
        par = modulo_schedule(graph, cfg, timeout_ms=120_000, jobs=3)
        assert _fingerprint(par) == _fingerprint(seq)
        assert seq.decision_fingerprint is not None
        assert par.decision_fingerprint == seq.decision_fingerprint


def test_default_jobs_positive():
    assert default_jobs() >= 1
