#!/usr/bin/env python3
"""Exploring the banked vector memory (section 3.4, figures 7-8).

Shows the slot/line/page geometry, replays figure 8's three example
matrices, and demonstrates how the allocator's access rules shape a real
schedule: the same kernel allocated in a single-line memory vs a paged
one.

Run:  python examples/memory_layout.py
"""

from repro import EITConfig, EITVector, MemoryLayout, schedule, trace
from repro.analysis import audit_schedule
from repro.arch.memory import figure8_examples
from repro.ir import merge_pipeline_ops


def show_geometry() -> None:
    layout = MemoryLayout()
    print("EIT vector memory:", layout)
    print("slot -> (bank, page, line) for the first two lines:")
    for line in range(2):
        row = []
        for bank in range(layout.n_banks):
            s = layout.slot_of(bank, line)
            row.append(f"{s:3d}")
        print(f"  line {line}: " + " ".join(row))
    print("pages group banks 0-3, 4-7, 8-11, 12-15; within a page, one "
          "access descriptor -> simultaneous accesses must share a line\n")


def show_figure8() -> None:
    print("figure 8's example placements (12-bank demo memory):")
    for name, (slots, chk) in figure8_examples().items():
        verdict = (
            "single-cycle accessible"
            if chk
            else f"NOT accessible: {chk.reason}"
        )
        print(f"  matrix {name}: slots {slots} -> {verdict}")
    print()


def show_allocation_effect() -> None:
    # four independent adds want to co-issue; their operands must then
    # be bank-disjoint and line-aligned per page
    with trace("parallel_adds") as t:
        for i in range(4):
            EITVector(i, i, i, i) + EITVector(1, 2, 3, 4)
    g = merge_pipeline_ops(t.graph)

    wide = schedule(g, timeout_ms=30_000)
    print(f"paged 64-slot memory : makespan={wide.makespan}, "
          f"slots used={wide.slots_used()} (all four adds co-issue)")
    assert audit_schedule(wide).ok

    layout = MemoryLayout(wide.cfg)
    for t_issue, ops in wide.issue_map().items():
        reads = sorted(
            wide.slots[p.nid]
            for o in ops
            for p in g.preds(o)
        )
        chk = layout.simultaneous_access(reads)
        print(f"  cycle {t_issue}: reads slots {reads} -> "
              f"{'legal' if chk else chk.reason}")

    # a one-line memory: only 8 slots in 8 distinct banks exist, but 8
    # inputs + 4 outputs still fit via slot reuse
    tiny = schedule(g, cfg=EITConfig(n_slots=12), timeout_ms=30_000)
    print(f"12-slot memory       : makespan={tiny.makespan}, "
          f"slots used={tiny.slots_used()}, status={tiny.status.value}")


if __name__ == "__main__":
    show_geometry()
    show_figure8()
    show_allocation_effect()
