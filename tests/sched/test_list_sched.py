"""Greedy list scheduler tests."""

import pytest

from repro.analysis import audit_schedule
from repro.apps import build_arf, build_matmul, build_qrd
from repro.arch.eit import EITConfig
from repro.ir import critical_path, merge_pipeline_ops
from repro.sched import greedy_schedule


@pytest.mark.parametrize("builder", [build_matmul, build_arf, build_qrd])
def test_greedy_is_valid(builder):
    g = merge_pipeline_ops(builder())
    s = greedy_schedule(g)
    assert audit_schedule(s, check_memory=False).ok


@pytest.mark.parametrize("builder", [build_matmul, build_arf, build_qrd])
def test_greedy_at_least_critical_path(builder):
    g = merge_pipeline_ops(builder())
    s = greedy_schedule(g)
    assert s.makespan >= critical_path(g)[0]


def test_inputs_start_at_zero():
    g = merge_pipeline_ops(build_matmul())
    s = greedy_schedule(g)
    for d in g.inputs():
        assert s.start(d) == 0


def test_respects_lane_limit_when_narrow():
    """With a single lane, the 16 dotPs of MATMUL serialize."""
    g = merge_pipeline_ops(build_matmul())
    narrow = EITConfig(n_lanes=1)
    s = greedy_schedule(g, narrow)
    assert audit_schedule(s, check_memory=False).ok
    wide = greedy_schedule(g)
    assert s.makespan > wide.makespan


def test_config_exclusivity_in_greedy():
    g = merge_pipeline_ops(build_qrd())
    s = greedy_schedule(g)
    stream = s.vector_config_stream()
    # audit_schedule already covers this, but assert directly too:
    # at most one configuration per cycle by construction
    assert audit_schedule(s, check_memory=False).ok
    assert any(c is not None for c in stream)


def test_issue_map_sorted():
    g = merge_pipeline_ops(build_matmul())
    s = greedy_schedule(g)
    cycles = list(s.issue_map().keys())
    assert cycles == sorted(cycles)
