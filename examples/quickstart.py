#!/usr/bin/env python3
"""Quickstart: the full figure-2 flow on a small custom kernel.

Write a DSL program, get its IR, merge the pipeline operations, schedule
it with memory allocation, generate machine code and simulate it —
checking along the way that the hardware-level execution reproduces the
DSL semantics bit-exactly.

Run:  python examples/quickstart.py
"""

from repro import (
    EITVector,
    generate,
    merge_pipeline_ops,
    schedule,
    simulate,
    stats,
    trace,
)
from repro.analysis import audit_schedule


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Write the kernel in the DSL.  Running it computes real values
    #    (debuggable!) and traces the dataflow IR at the same time.
    # ------------------------------------------------------------------
    with trace("quickstart") as t:
        x = EITVector(1 + 1j, 2, 3, 4, name="x")
        y = EITVector(4, 3, 2, 1 - 1j, name="y")

        # a conjugated dot product: conj is a pre-processing operation
        # that the merging pass will fuse into the dot product
        proj = x.conj().dotP(y)

        # normalize x by its energy using the scalar accelerator
        inv_norm = x.squsum().rsqrt()
        x_hat = x.scale(inv_norm)

        # and combine: y - proj * x_hat
        result = y - x_hat.scale(proj)

    graph = t.graph
    print(f"traced IR: {graph!r}")
    print(f"  result computed by the DSL run: {result.values}")

    # ------------------------------------------------------------------
    # 2. Merge pre/core/post chains (figure 6) — one pipeline pass each.
    # ------------------------------------------------------------------
    merged = merge_pipeline_ops(graph)
    print(f"after merging: {stats(merged).as_tuple()} "
          f"(was {stats(graph).as_tuple()})")

    # ------------------------------------------------------------------
    # 3. Schedule with joint memory allocation (sections 3.3-3.5).
    # ------------------------------------------------------------------
    sched = schedule(merged, timeout_ms=30_000)
    print(f"schedule: makespan={sched.makespan} cycles, "
          f"status={sched.status.value}, "
          f"memory slots used={sched.slots_used()}")
    assert audit_schedule(sched).ok, "independent check must pass"

    # ------------------------------------------------------------------
    # 4. Generate machine code.
    # ------------------------------------------------------------------
    program = generate(sched)
    print("\nmachine code listing:")
    print(program.listing())

    # ------------------------------------------------------------------
    # 5. Execute on the cycle-accurate simulator and compare.
    # ------------------------------------------------------------------
    sim = simulate(program)
    assert sim.ok, (sim.access_violations, sim.hazards)
    mismatches = sim.mismatches(merged)
    assert not mismatches, mismatches
    print("\nsimulation replayed every DSL value exactly — flow verified.")


if __name__ == "__main__":
    main()
