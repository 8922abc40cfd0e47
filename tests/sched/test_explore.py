"""Design-space exploration API."""

import pytest

from repro.apps import build_matmul
from repro.arch.eit import EITConfig
from repro.cache import ScheduleCache, cache_key
from repro.ir import merge_pipeline_ops
from repro.sched.explore import (
    STANDARD_PROFILES,
    DesignPoint,
    explore,
    explore_detailed,
    pareto_front,
)
from repro.sched.modulo import derive_per_ii_timeout


@pytest.fixture(scope="module")
def sweep():
    return explore(
        {"matmul": build_matmul},
        profiles={
            "eit": STANDARD_PROFILES["eit"],
            "narrow2": STANDARD_PROFILES["narrow2"],
            "wide8": STANDARD_PROFILES["wide8"],
        },
        timeout_ms=20_000,
        modulo_timeout_ms=20_000,
    )


class TestExplore:
    def test_one_point_per_pair(self, sweep):
        assert len(sweep) == 3
        assert {p.profile for p in sweep} == {"eit", "narrow2", "wide8"}

    def test_lane_scaling_shows(self, sweep):
        by = {p.profile: p for p in sweep}
        assert by["narrow2"].modulo_ii > by["eit"].modulo_ii
        assert by["wide8"].modulo_ii <= by["eit"].modulo_ii

    def test_all_feasible(self, sweep):
        assert all(p.feasible for p in sweep)

    def test_infeasible_point_reported_not_raised(self):
        # 2-slot memory cannot hold matmul's live set
        points = explore(
            {"matmul": build_matmul},
            profiles={"tiny": EITConfig(n_slots=2)},
            timeout_ms=3_000,
            modulo_timeout_ms=3_000,
        )
        assert len(points) == 1
        assert not points[0].feasible

    def test_pareto_front(self, sweep):
        front = pareto_front(sweep, "matmul")
        assert front  # non-empty
        # nothing on the front is dominated by another sweep point
        for p in front:
            for q in sweep:
                if not q.feasible or q.modulo_ii <= 0:
                    continue
                assert not (
                    q.makespan <= p.makespan
                    and q.modulo_ii <= p.modulo_ii
                    and (q.makespan < p.makespan or q.modulo_ii < p.modulo_ii)
                )

    def test_standard_profiles_valid(self):
        for cfg in STANDARD_PROFILES.values():
            assert cfg.n_lanes >= 1


SWEEP_MS = 120_000.0


@pytest.fixture(scope="module")
def cached_sweep():
    cache = ScheduleCache()
    outcome = explore_detailed(
        {"matmul": build_matmul},
        {p: STANDARD_PROFILES[p] for p in ("eit", "tinymem")},
        timeout_ms=SWEEP_MS,
        modulo_timeout_ms=SWEEP_MS,
        cache=cache,
    )
    return outcome, cache


class TestSweepPayloads:
    """The cached payloads, read back with the recipe external readers use."""

    def test_modulo_payload_is_a_hit_under_the_documented_key(
        self, cached_sweep
    ):
        outcome, cache = cached_sweep
        graph = merge_pipeline_ops(build_matmul())
        cfg = STANDARD_PROFILES["eit"]
        key = cache_key(graph, cfg, "modulo", {
            "include_reconfigs": False,
            "timeout_ms": SWEEP_MS,
            "per_ii_timeout_ms": derive_per_ii_timeout(
                SWEEP_MS, graph, cfg, False
            ),
        })
        hits = cache.stats.hits
        payload = cache.get(key)
        assert payload is not None
        assert cache.stats.hits == hits + 1
        assert payload["kind"] == "modulo"
        eit = next(p for p in outcome.points if p.profile == "eit")
        assert payload["actual_ii"] == eit.modulo_ii > 0

    def test_tinymem_cell_certified_infeasible_exactly_once(
        self, cached_sweep
    ):
        outcome, cache = cached_sweep
        assert outcome.certified_infeasible == 1
        assert cache.stats.bound_pruned == 1
        tiny = next(p for p in outcome.points if p.profile == "tinymem")
        assert (tiny.status, tiny.makespan, tiny.modulo_ii) == (
            "infeasible", -1, -1
        )


def _pt(profile, makespan, ii):
    return DesignPoint(
        kernel="k", profile=profile, makespan=makespan, slots_used=1,
        status="optimal", modulo_ii=ii, modulo_throughput=1.0 / ii,
    )


class TestParetoFront:
    def test_tied_pairs_all_reported(self):
        # a and b land on the same (makespan, II) coordinate: both are
        # on the frontier and both must be reported (the old O(n^2)
        # pairwise scan silently deduplicated by list position)
        pts = [
            _pt("a", 10, 4),
            _pt("b", 10, 4),
            _pt("c", 12, 3),
            _pt("d", 12, 5),  # dominated by a/b
            _pt("e", 9, 6),
        ]
        front = pareto_front(pts, "k")
        assert [p.profile for p in front] == ["e", "a", "b", "c"]

    def test_duplicate_points_never_dominate_each_other(self):
        pts = [_pt("x", 5, 5), _pt("y", 5, 5)]
        assert [p.profile for p in pareto_front(pts, "k")] == ["x", "y"]

    def test_single_point(self):
        assert [p.profile for p in pareto_front([_pt("only", 3, 2)], "k")] \
            == ["only"]

    def test_other_kernels_ignored(self):
        pts = [_pt("a", 10, 4)]
        assert pareto_front(pts, "someone-else") == []


class TestPerIITimeout:
    def test_derived_from_window_size_not_a_constant(self):
        from repro.apps import build_qrd
        from repro.ir import merge_pipeline_ops
        from repro.sched.modulo import derive_per_ii_timeout, ii_search_range

        graph = merge_pipeline_ops(build_qrd())
        lb, hi, _ = ii_search_range(graph)
        n = hi - lb + 1
        t = derive_per_ii_timeout(30_000, graph)
        assert t == pytest.approx(30_000 / max(3, n))
        # the old hard-coded /3 over-spends whenever the window is wide
        assert t <= 30_000 / 3
