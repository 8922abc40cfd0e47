"""Ablations of the design choices DESIGN.md calls out.

Not in the paper; they quantify *why* the paper's design decisions
matter on this implementation:

* merging (figure 6) off → more nodes and a longer critical path, hence
  a longer optimal schedule;
* memory model (section 3.4) off → same makespan on QRD (the paper's
  point that memory is "a secondary issue" when the critical path
  dominates), but no allocation;
* search-phase heuristic (section 3.5) ablation: the paper's
  smallest-min ordering vs naive first-fail on the same model.
"""

import pytest

from repro.analysis import audit_schedule
from repro.apps import build_qrd
from repro.cp import Phase, Search, SolveStatus
from repro.cp.search import first_fail, input_order, select_min_value, smallest_min
from repro.ir import merge_pipeline_ops
from repro.sched import schedule
from repro.sched.model import ScheduleModel


def test_ablation_merging(once, capsys):
    def run():
        raw = build_qrd()
        merged = merge_pipeline_ops(raw)
        s_raw = schedule(raw, timeout_ms=60_000)
        s_merged = schedule(merged, timeout_ms=60_000)
        return s_raw, s_merged

    s_raw, s_merged = once(run)
    with capsys.disabled():
        print(f"\nablation merging: raw makespan={s_raw.makespan} "
              f"merged makespan={s_merged.makespan}")
    assert s_merged.status is SolveStatus.OPTIMAL
    # the unmerged graph pays one extra pipeline pass per conj
    assert s_merged.makespan < s_raw.makespan


def test_ablation_memory_model(once, capsys):
    def run():
        g = merge_pipeline_ops(build_qrd())
        with_mem = schedule(g, timeout_ms=60_000)
        without = schedule(g, with_memory=False, timeout_ms=60_000)
        return with_mem, without

    with_mem, without = once(run)
    with capsys.disabled():
        print(f"\nablation memory: with={with_mem.makespan} "
              f"({with_mem.slots_used()} slots), without={without.makespan}")
    # Table 1's observation: memory is secondary — same optimum
    assert with_mem.makespan == without.makespan
    assert with_mem.slots and not without.slots


def test_ablation_search_heuristic(once, capsys):
    """smallest_min (the paper's set-times analog) vs first_fail on the
    operation phase: both must reach the optimum; the point is the node
    count it takes."""

    def run_with(heuristic):
        g = merge_pipeline_ops(build_qrd())
        model = ScheduleModel(g, with_memory=False)
        phases = [
            Phase(
                [model.start[o.nid] for o in g.op_nodes()],
                heuristic,
                select_min_value,
            ),
            Phase([model.start[d.nid] for d in g.data_nodes()]),
        ]
        search = Search(model.store, timeout_ms=60_000)
        return search.minimize(model.makespan, phases)

    def run():
        return run_with(smallest_min), run_with(first_fail)

    by_sm, by_ff = once(run)
    with capsys.disabled():
        print(f"\nablation heuristic: smallest_min nodes={by_sm.stats.nodes} "
              f"obj={by_sm.objective}; first_fail nodes={by_ff.stats.nodes} "
              f"obj={by_ff.objective}")
    assert by_sm.found
    assert by_sm.status is SolveStatus.OPTIMAL
    if by_ff.found and by_ff.status is SolveStatus.OPTIMAL:
        assert by_ff.objective == by_sm.objective


def test_ablation_alternative_architecture(once, capsys):
    """The future-work knob: more lanes shorten resource-bound kernels
    but cannot beat the critical path."""
    from repro.apps import build_matmul
    from repro.arch.eit import EITConfig

    def run():
        g = merge_pipeline_ops(build_matmul())
        base = schedule(g, timeout_ms=60_000)
        wide = schedule(
            g, cfg=EITConfig(n_lanes=8), timeout_ms=60_000
        )
        return base, wide

    base, wide = once(run)
    with capsys.disabled():
        print(f"\nablation lanes: 4-lane={base.makespan} 8-lane={wide.makespan}")
    assert wide.makespan <= base.makespan
    assert audit_schedule(wide).ok


def test_ablation_memory_encoding(once, capsys):
    """Paper's implication encoding (eqs. 6-9) vs a direct slot-pair
    table encoding: both reach the same optimum; the implication form
    (with its page/line channeling) propagates cheaper."""
    import time

    from repro.apps import build_matmul

    def run():
        g = merge_pipeline_ops(build_matmul())
        t0 = time.monotonic()
        s_imp = schedule(g, timeout_ms=60_000)
        t_imp = time.monotonic() - t0
        t0 = time.monotonic()
        s_tab = schedule(g, timeout_ms=120_000, memory_encoding="table")
        t_tab = time.monotonic() - t0
        return s_imp, t_imp, s_tab, t_tab

    s_imp, t_imp, s_tab, t_tab = once(run)
    with capsys.disabled():
        print(f"\nablation encoding: implication {s_imp.makespan} in "
              f"{t_imp:.1f}s; table {s_tab.makespan} in {t_tab:.1f}s")
    assert s_imp.makespan == s_tab.makespan
    assert audit_schedule(s_tab).ok


def test_ablation_cse(once, capsys):
    """Common-subexpression elimination as an architect-level pass:
    listing 1's symmetric products halve, and the schedule shortens —
    a concrete instance of the paper's remark that 'different
    expressions may result in different graphs, which in turn may
    result in different schedules'."""
    from repro.apps import build_matmul
    from repro.ir import common_subexpression_elimination, stats

    def run():
        plain = merge_pipeline_ops(build_matmul())
        cse = merge_pipeline_ops(
            common_subexpression_elimination(build_matmul())
        )
        return (
            stats(plain).as_tuple(),
            stats(cse).as_tuple(),
            schedule(plain, timeout_ms=60_000),
            schedule(cse, timeout_ms=60_000),
        )

    p_stats, c_stats, s_plain, s_cse = once(run)
    with capsys.disabled():
        print(f"\nablation CSE: graph {p_stats} -> {c_stats}; "
              f"makespan {s_plain.makespan} -> {s_cse.makespan}")
    assert c_stats[0] < p_stats[0]
    assert s_cse.makespan <= s_plain.makespan
    assert audit_schedule(s_cse).ok
