"""Differential testing: CP scheduler vs greedy list scheduler.

Two independent implementations of "a valid schedule for this kernel" —
the constraint model solved by branch-and-bound, and the greedy
earliest-fit list scheduler — are run on a population of seeded random
kernels and cross-checked:

* both must pass :func:`repro.analysis.audit_schedule` (an implementation
  bug in either scheduler or in the shared architecture rules shows up
  as a verifier disagreement);
* the CP makespan must never exceed the greedy one (the greedy result
  is a feasible point of the CP model, so B&B can at worst match it).

The seeds are fixed so every run explores the same population; the
specs vary shape (op mix, input count) with the seed so the population
covers scalar-heavy, matrix-heavy and merge-heavy kernels.
"""

import pytest

from repro.analysis import audit_schedule
from repro.apps.synth import SynthSpec, random_kernel
from repro.cp import SolveStatus
from repro.ir import critical_path, merge_pipeline_ops
from repro.sched import greedy_schedule, schedule

N_KERNELS = 20


def _spec(seed: int) -> SynthSpec:
    # deterministic variety: cycle through op mixes as the seed advances
    return SynthSpec(
        n_ops=6 + (seed * 3) % 11,
        n_inputs=2 + seed % 4,
        p_scalar_op=(seed % 5) * 0.1,
        p_matrix_op=(seed % 3) * 0.08,
        p_pre_post=(seed % 4) * 0.1,
        seed=seed,
    )


@pytest.fixture(scope="module", params=range(N_KERNELS))
def kernel_pair(request):
    """(graph, cp_schedule, greedy_schedule) for one seeded kernel.

    The CP solve runs under the propagator contract sanitizer
    (``sanitize=True``): every propagate() call of every solve in this
    suite is checked for contraction, trail integrity, failure soundness
    and missed wakeups — a SAN7xx finding raises AuditError and fails
    the whole parametrization.
    """
    g = merge_pipeline_ops(random_kernel(_spec(request.param)))
    cp = schedule(g, timeout_ms=60_000, sanitize=True)
    greedy = greedy_schedule(g)
    return g, cp, greedy


class TestDifferential:
    def test_cp_schedule_verifies(self, kernel_pair):
        g, cp, _ = kernel_pair
        assert cp.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE), (
            f"{g.name}: CP scheduler returned {cp.status}"
        )
        assert audit_schedule(cp).ok

    def test_greedy_schedule_verifies(self, kernel_pair):
        g, _, greedy = kernel_pair
        assert audit_schedule(greedy, check_memory=False).ok

    def test_cp_schedule_audits_clean(self, kernel_pair):
        # the structured oracle: zero diagnostics of any severity from
        # the full eq. 1-11 re-derivation, memory included
        from repro.analysis import audit_schedule

        _, cp, _ = kernel_pair
        report = audit_schedule(cp)
        assert len(report) == 0, report.render()

    def test_greedy_schedule_audits_clean(self, kernel_pair):
        from repro.analysis import assert_schedule_clean

        _, _, greedy = kernel_pair
        assert_schedule_clean(greedy, check_memory=False)

    def test_cp_never_worse_than_greedy(self, kernel_pair):
        g, cp, greedy = kernel_pair
        assert cp.makespan <= greedy.makespan, (
            f"{g.name}: CP {cp.makespan} > greedy {greedy.makespan}"
        )

    def test_cp_never_beats_critical_path(self, kernel_pair):
        g, cp, _ = kernel_pair
        assert cp.makespan >= critical_path(g)[0]

    def test_solver_stats_attached(self, kernel_pair):
        _, cp, _ = kernel_pair
        st = cp.search_stats
        assert st is not None
        assert st.nodes > 0
        assert st.propagations > 0
        assert st.solutions >= 1

    def test_starts_within_static_windows(self, kernel_pair):
        # interval-analysis soundness: every start of *both* independent
        # schedulers lies inside its ASAP/ALAP window at the schedule's
        # own makespan
        from repro.analysis import start_windows

        g, cp, greedy = kernel_pair
        for sched in (cp, greedy):
            windows = start_windows(g, sched.cfg, horizon=sched.makespan)
            for node in g.nodes():
                lo, hi = windows[node.nid]
                start = sched.starts[node.nid]
                assert lo <= start <= hi, (
                    f"{g.name}/{node.name}: start {start} outside "
                    f"window [{lo}, {hi}]"
                )

    def test_static_lower_bound_sound(self, kernel_pair):
        # no feasible schedule from either implementation may beat the
        # energetic lower-bound set
        from repro.analysis import makespan_lower_bound

        g, cp, greedy = kernel_pair
        lb = makespan_lower_bound(g, cp.cfg)
        assert lb.value >= critical_path(g)[0]
        assert cp.makespan >= lb.value
        assert greedy.makespan >= lb.value

    def test_bounds_audit_clean(self, kernel_pair):
        from repro.analysis import audit_bounds

        _, cp, greedy = kernel_pair
        for sched in (cp, greedy):
            report = audit_bounds(sched)
            assert report.ok, report.render()
