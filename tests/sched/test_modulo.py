"""Modulo scheduling (Table 3) — both variants, verified independently."""

import pytest

from repro.analysis import audit_modulo
from repro.apps import build_arf, build_matmul
from repro.arch.eit import DEFAULT_CONFIG, EITConfig
from repro.cp import SolveStatus
from repro.dsl import EITVector, trace
from repro.ir import merge_pipeline_ops
from repro.sched.modulo import (
    modulo_schedule,
    resource_lower_bound,
    window_config_stream,
)


@pytest.fixture(scope="module")
def matmul_graph():
    return merge_pipeline_ops(build_matmul())


@pytest.fixture(scope="module")
def arf_graph():
    return merge_pipeline_ops(build_arf())


class TestLowerBound:
    def test_matmul_bound_is_four(self, matmul_graph):
        # 16 dotPs / 4 lanes = 4; 4 merges on one unit = 4
        assert resource_lower_bound(matmul_graph) == 4

    def test_reconfig_bound_adds_runs(self, arf_graph):
        excl = resource_lower_bound(arf_graph, include_reconfigs=False)
        incl = resource_lower_bound(arf_graph, include_reconfigs=True)
        assert incl == excl + 2  # two configuration classes (mul, add)

    def test_single_op_graph(self):
        with trace() as t:
            EITVector(1, 2, 3, 4) + EITVector(4, 3, 2, 1)
        assert resource_lower_bound(t.graph) == 1


class TestMatmulRow:
    """The MATMUL row of Table 3 reproduces exactly."""

    def test_excluding_reconfigs(self, matmul_graph):
        r = modulo_schedule(matmul_graph, include_reconfigs=False,
                            timeout_ms=60_000)
        assert r.status is SolveStatus.OPTIMAL
        assert r.ii == 4
        assert r.n_reconfigurations == 1  # single run = startup load only
        assert r.actual_ii == 4  # no steady-state penalty
        assert r.throughput == pytest.approx(0.25)
        assert audit_modulo(r, matmul_graph).ok

    def test_including_reconfigs(self, matmul_graph):
        r = modulo_schedule(matmul_graph, include_reconfigs=True,
                            timeout_ms=60_000)
        assert r.status is SolveStatus.OPTIMAL
        assert r.ii == 4 and r.throughput == pytest.approx(0.25)
        assert audit_modulo(r, matmul_graph).ok


class TestArfRow:
    def test_excluding_then_patching_costs_more(self, arf_graph):
        r = modulo_schedule(arf_graph, include_reconfigs=False,
                            timeout_ms=60_000)
        assert r.found
        assert r.actual_ii > r.ii  # reconfigurations inflate the real II
        assert audit_modulo(r, arf_graph).ok

    def test_including_beats_patching(self, arf_graph):
        excl = modulo_schedule(arf_graph, include_reconfigs=False,
                               timeout_ms=60_000)
        incl = modulo_schedule(arf_graph, include_reconfigs=True,
                               timeout_ms=60_000)
        assert incl.found
        assert incl.actual_ii < excl.actual_ii  # the paper's Table 3 claim
        assert incl.throughput > excl.throughput
        assert audit_modulo(incl, arf_graph).ok

    def test_reconfig_gaps_in_window(self, arf_graph):
        incl = modulo_schedule(arf_graph, include_reconfigs=True,
                               timeout_ms=60_000)
        # audit_modulo checks the cyclic-distance rule explicitly
        assert audit_modulo(incl, arf_graph).ok


class TestMechanics:
    def test_window_config_stream(self, matmul_graph):
        r = modulo_schedule(matmul_graph, timeout_ms=60_000)
        stream = window_config_stream(matmul_graph, r.offsets, r.ii)
        assert len(stream) == r.ii
        assert set(stream) <= {"v_dotP", None}

    def test_tried_log(self, arf_graph):
        r = modulo_schedule(arf_graph, timeout_ms=60_000)
        assert r.tried  # at least one candidate II explored
        assert r.tried[-1][0] == r.ii

    def test_timeout_status(self, arf_graph):
        r = modulo_schedule(
            arf_graph, include_reconfigs=True, timeout_ms=1
        )
        assert r.status is SolveStatus.TIMEOUT
        assert not r.found

    def test_max_ii_exhaustion(self, matmul_graph):
        r = modulo_schedule(matmul_graph, max_ii=2, timeout_ms=10_000)
        assert not r.found

    def test_stages_give_consistent_absolute_starts(self, matmul_graph):
        r = modulo_schedule(matmul_graph, timeout_ms=60_000)
        for nid, o in r.offsets.items():
            assert 0 <= o < r.ii
            assert r.stages[nid] >= 0

    def test_narrow_architecture(self, matmul_graph):
        narrow = EITConfig(n_lanes=2)
        r = modulo_schedule(matmul_graph, cfg=narrow, timeout_ms=60_000)
        assert r.found
        assert r.ii >= 8  # 16 dotPs over 2 lanes
        assert audit_modulo(r, matmul_graph, narrow).ok
