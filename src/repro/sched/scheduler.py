"""The top-level scheduling entry point: section 3.5's phased B&B search.

``schedule(graph)`` builds the unified constraint model (scheduling +
memory allocation), runs the three-phase branch-and-bound minimization
of the makespan, and returns a verified :class:`repro.sched.result.Schedule`.

The CP search is bracketed by the static bounds engine
(:mod:`repro.analysis.bounds`):

1. *Pre-checks* — the memory pigeonhole and (for explicit horizons) the
   energetic lower-bound set can prove UNSAT before a single constraint
   is built; such solves return a certified ``INFEASIBLE`` with **zero**
   search nodes and a machine-checkable
   :class:`~repro.analysis.certify.Certificate` attached.
2. *The lower-bound probe* — a satisfaction solve at
   ``horizon = static lower bound``.  Any solution it finds has makespan
   exactly the bound, i.e. is optimal by arithmetic (no exhaustive
   B&B descent needed); a *proof* of infeasibility at the bound lifts
   the main search's makespan floor by one, pruning the unwinnable part
   of the tree.  A probe timeout teaches nothing and simply hands the
   remaining budget to the ordinary minimization.
3. *Certification* — whenever the returned makespan equals the static
   bound the result carries an ``optimal`` certificate naming the
   witnessing bound family; ``audit=True`` re-verifies every
   certificate (and the ASAP/ALAP window containment) through the
   independent :mod:`repro.analysis.certify` implementation.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple

from repro.arch.eit import DEFAULT_CONFIG, EITConfig
from repro.cp import Inconsistency, Search, SearchResult, SolveStatus, SolverStats
from repro.ir.graph import Graph
from repro.ir.passes import optimize_for_solve
from repro.sched.list_sched import greedy_schedule
from repro.sched.model import ScheduleModel
from repro.sched.result import Schedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.certify import Certificate
    from repro.analysis.equivalence import PassCertificate


def schedule(
    graph: Graph,
    cfg: EITConfig = DEFAULT_CONFIG,
    n_slots: Optional[int] = None,
    with_memory: bool = True,
    timeout_ms: Optional[float] = 60_000.0,
    horizon: Optional[int] = None,
    memory_encoding: str = "implication",
    should_stop: Optional[Callable[[], bool]] = None,
    audit: bool = False,
    sanitize=False,
    optimize: bool = False,
    passes: Optional[Sequence[str]] = None,
) -> Schedule:
    """Schedule a kernel with (optionally) joint memory allocation.

    Parameters
    ----------
    graph:
        the IR to schedule — typically after
        :func:`repro.ir.transform.merge_pipeline_ops`.
    cfg:
        architecture instance.  ``n_slots`` overrides its memory size
        (the Table 1 sweep parameter).
    with_memory:
        include the section 3.4 memory model.  With ``False`` the result
        carries no slot assignment (the paper's "manual" schedules are
        compared against this mode).
    timeout_ms:
        total solver budget, shared between the lower-bound probe (at
        most half) and the main branch-and-bound.  On timeout the best
        incumbent found so far is returned with ``status=FEASIBLE``; if
        the budget expired before *any* incumbent, the greedy list
        schedule is returned instead (``status=TIMEOUT``,
        ``fallback=True``, no slots) so callers always get runnable
        start times.  Provable infeasibility (the Table 1
        too-small-memory rows) is never masked by the fallback: it still
        reports ``INFEASIBLE`` with empty ``starts`` — and, when a
        static bound proves it, with a certificate and zero search.
    should_stop:
        optional cooperative-cancellation hook polled once per search
        node (see :class:`repro.cp.Search`); pool workers point this at
        a shared event so a sweep can be cancelled mid-solve.
    audit:
        run the independent static analyser over the result — the
        eq. 1-11 re-checks (:func:`repro.analysis.audit_schedule`), the
        ASAP/ALAP window containment
        (:func:`repro.analysis.audit_bounds`) and, when a certificate is
        attached, its arithmetic
        (:func:`repro.analysis.verify_certificate`) — raising
        :class:`repro.analysis.AuditError` on any error.  With
        ``optimize=True`` additionally re-verifies the whole pass-
        certificate chain (:func:`repro.analysis.verify_pipeline`),
        including differential-evaluation equivalence.
    sanitize:
        run the solve under the propagator contract sanitizer
        (:class:`repro.analysis.Sanitizer`): every ``propagate()`` call
        is checked for contraction, trail integrity, failure soundness
        and missed wakeups (the ``SAN70x`` codes), raising
        :class:`repro.analysis.AuditError` on any finding.  Accepts
        ``True`` (default config), a
        :class:`repro.analysis.SanitizeConfig`, or an existing
        :class:`~repro.analysis.Sanitizer` to accumulate findings
        across solves.  Orthogonal to ``audit``: ``audit`` re-checks
        the *result*, ``sanitize`` checks the *solver* while it runs.
    optimize:
        run the certified IR optimization pipeline
        (:func:`repro.ir.passes.optimize_graph`) over the graph first
        and schedule the rewritten copy.  The returned schedule refers
        to the *optimized* graph and carries the
        :class:`~repro.analysis.equivalence.PassCertificate` chain in
        ``pass_certificates``.  A graph the pre-flight lint rejects
        raises :class:`repro.analysis.AuditError` instead of being
        silently scheduled un-optimized.
    passes:
        pass-pipeline override (names from
        :data:`repro.ir.passes.PASS_REGISTRY`); None = the default
        pipeline.  Only meaningful with ``optimize=True``.

    Returns a schedule with ``status``:

    * ``OPTIMAL`` — the makespan is provably minimal (search exhausted,
      or the incumbent meets the static lower bound — then
      ``certificate`` is set);
    * ``FEASIBLE`` — a schedule was found but optimality is unproven;
    * ``INFEASIBLE``/``TIMEOUT`` — no schedule exists (e.g. too few
      memory slots, the paper's 8-slot row of Table 1) or none was found
      in budget; ``starts`` is empty then.
    """
    pass_certificates: Tuple["PassCertificate", ...] = ()
    if optimize:
        opt = optimize_for_solve(graph, passes, audit)
        graph, pass_certificates = opt.graph, opt.certificates
    if n_slots is not None:
        cfg = cfg.with_slots(n_slots)

    from repro.analysis.sanitize import make_sanitizer

    san = make_sanitizer(sanitize, subject=f"schedule:{graph.name}")
    sched = _solve(graph, cfg, with_memory, timeout_ms, horizon,
                   memory_encoding, should_stop, san)
    sched.pass_certificates = pass_certificates
    return _audited(sched, audit, san)


def _solve(
    graph: Graph,
    cfg: EITConfig,
    with_memory: bool,
    timeout_ms: Optional[float],
    horizon: Optional[int],
    memory_encoding: str,
    should_stop: Optional[Callable[[], bool]],
    san,
) -> Schedule:
    """The bounds-bracketed search behind :func:`schedule` (unaudited)."""
    from repro.analysis.bounds import (
        horizon_precheck,
        makespan_lower_bound,
        memory_precheck,
    )

    t0 = time.monotonic()

    def elapsed_ms() -> float:
        return (time.monotonic() - t0) * 1000.0

    # -- search-free infeasibility proofs ------------------------------
    cert = memory_precheck(graph, cfg) if with_memory else None
    if cert is None and horizon is not None:
        cert = horizon_precheck(graph, cfg, horizon)
    if cert is not None:
        return infeasible_schedule(graph, cfg, certificate=cert)

    bounds = makespan_lower_bound(graph, cfg)
    merged = SolverStats()

    def model_at(h: Optional[int]) -> ScheduleModel:
        return ScheduleModel(
            graph,
            cfg,
            horizon=h,
            with_memory=with_memory,
            memory_encoding=memory_encoding,
            sanitizer=san,
        )

    def minimize(model: ScheduleModel, **budget) -> SearchResult:
        search = Search(model.store, should_stop=should_stop, **budget)
        return search.minimize(model.makespan, model.phases())

    # -- the destructive lower-bound probe (see the module docstring) ---
    # Only when the caller imposed no horizon: with an explicit horizon
    # the exact legacy search semantics are preserved.  A root wipe-out
    # while building the probe model is a complete refutation too.
    floor_proven_above = False
    if horizon is None:
        try:
            probe_model = model_at(bounds.value)
        except Inconsistency:
            floor_proven_above = True
        else:
            # The node cap bounds the damage of a *hopeless* probe: when
            # the bound is not tight, refuting it can cost as much as the
            # full optimality proof.  A capped probe either decides
            # quickly or hands essentially the whole budget to the main
            # search after a small, graph-proportional effort.
            probe = minimize(
                probe_model,
                timeout_ms=timeout_ms / 2.0 if timeout_ms is not None else None,
                node_limit=max(512, 8 * sum(1 for _ in graph.nodes())),
            )
            # the probe's own caps are not a budget expiry of this solve
            probe.stats.timed_out = False
            merged.merge(probe.stats)
            if probe.found:
                return _solution(
                    probe_model, probe, bounds, elapsed_ms(), merged
                )
            floor_proven_above = probe.status is SolveStatus.INFEASIBLE

    # -- the main minimization -----------------------------------------
    try:
        model = model_at(horizon)
        if floor_proven_above:
            # the probe *proved* nothing fits at the bound itself
            model.store.set_min(model.makespan, bounds.value + 1)
    except Inconsistency:
        # Root propagation already wiped out a domain: provably infeasible.
        return infeasible_schedule(
            graph,
            cfg,
            solve_time_ms=elapsed_ms(),
            search_stats=merged if merged.nodes else None,
        )

    remaining = timeout_ms
    if timeout_ms is not None:
        remaining = timeout_ms - elapsed_ms()
        if remaining <= 0.0:
            merged.timed_out = True
            return greedy_fallback(graph, cfg, elapsed_ms(), merged)

    result = minimize(model, timeout_ms=remaining)
    merged.merge(result.stats)
    merged.time_to_best_ms = result.stats.time_to_best_ms
    merged.objective_timeline = result.stats.objective_timeline
    if result.found:
        return _solution(model, result, bounds, elapsed_ms(), merged)
    if result.status is SolveStatus.TIMEOUT:
        # Graceful degradation: budget exhausted before the search
        # reached its first solution.
        return greedy_fallback(graph, cfg, elapsed_ms(), merged)
    return infeasible_schedule(
        graph, cfg, solve_time_ms=elapsed_ms(), search_stats=merged
    )


def _solution(
    model: ScheduleModel,
    result: SearchResult,
    bounds,
    solve_time_ms: float,
    stats: SolverStats,
) -> Schedule:
    """The schedule of a found incumbent (lower-bound probe or main search).

    An incumbent that meets the static lower bound is optimal by
    arithmetic even if the search itself was cut short: it is reported
    OPTIMAL with an ``optimal`` certificate naming the bound family.
    """
    graph = model.graph
    starts = {
        n.nid: result.value(model.start[n.nid].name) for n in graph.nodes()
    }
    slots = {}
    if model.memory is not None:
        slots = {
            d.nid: result.value(model.memory.slot[d.nid].name)
            for d in model.memory.vdata
        }
    status = result.status
    certificate = None
    if result.objective == bounds.value:
        from repro.analysis.certify import Certificate

        status = SolveStatus.OPTIMAL
        certificate = Certificate(
            kind="optimal",
            subject="schedule",
            family=bounds.family,
            bound=bounds.value,
            achieved=result.objective,
            detail=bounds.explain(),
        )
    return Schedule(
        graph=graph,
        cfg=model.cfg,
        starts=starts,
        makespan=result.objective,
        slots=slots,
        status=status,
        solve_time_ms=solve_time_ms,
        search_stats=stats,
        certificate=certificate,
    )


def infeasible_schedule(
    graph: Graph,
    cfg: EITConfig,
    certificate: Optional["Certificate"] = None,
    solve_time_ms: float = 0.0,
    search_stats: Optional[SolverStats] = None,
) -> Schedule:
    """The INFEASIBLE result: no starts, makespan -1.

    ``certificate`` carries the static proof when a pre-check decided
    the solve with zero search nodes.
    """
    return Schedule(
        graph=graph,
        cfg=cfg,
        starts={},
        makespan=-1,
        status=SolveStatus.INFEASIBLE,
        solve_time_ms=solve_time_ms,
        search_stats=search_stats,
        certificate=certificate,
    )


def greedy_fallback(
    graph: Graph,
    cfg: EITConfig,
    solve_time_ms: float = 0.0,
    search_stats: Optional[SolverStats] = None,
) -> Schedule:
    """The TIMEOUT result: the greedy list schedule instead of nothing.

    Resource-feasible by construction, with no memory allocation
    (``fallback=True``, no slots).  Used when the search budget expires
    before any incumbent, and by :mod:`repro.sched.parallel` when a
    worker crashes or hangs.
    """
    return replace(
        greedy_schedule(graph, cfg),
        status=SolveStatus.TIMEOUT,
        solve_time_ms=solve_time_ms,
        search_stats=search_stats,
        fallback=True,
    )


def _audited(sched: Schedule, audit: bool, san=None) -> Schedule:
    """Post-check a solve result with the independent analyser.

    ``san`` is the solve's :class:`~repro.analysis.Sanitizer` (or None):
    any SAN7xx finding it accumulated raises before — and regardless
    of — the result audit, so a contract violation is never masked by a
    plausible-looking schedule.
    """
    if san is not None and not san.report.ok:
        from repro.analysis import AuditError

        raise AuditError(san.report)
    if not audit:
        return sched
    from repro.analysis import (
        AuditError,
        audit_bounds,
        audit_schedule,
        verify_certificate,
    )

    reports = []
    if sched.starts:
        reports.append(audit_schedule(sched, check_memory=bool(sched.slots)))
        reports.append(audit_bounds(sched))
    if sched.certificate is not None:
        reports.append(
            verify_certificate(
                sched.certificate,
                sched.graph,
                sched.cfg,
                result_value=sched.makespan if sched.starts else None,
            )
        )
    for report in reports:
        if not report.ok:
            raise AuditError(report)
    return sched
