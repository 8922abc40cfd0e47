"""Modulo scheduling as constraint satisfaction (section 4.3, Table 3).

Modulo scheduling initiates a new iteration every II cycles.  Because
the paper's kernels are DAGs (no feedback edges), the initiation
interval is bounded by *resources* only; the CSP per candidate II is:

* every operation *i* gets an offset ``o_i ∈ [0, II)`` and a stage
  ``k_i``; its absolute start is ``s_i = k_i·II + o_i``;
* precedence (paper eq. 1) on absolute starts;
* Cumulatives over *offsets*: in steady state all iterations overlap,
  so the per-window resource usage at each offset is what matters;
* configuration exclusivity (paper eq. 3) on offsets.

Like classic modulo schedulers, the minimal II is found by solving a
sequence of satisfaction problems with increasing II.

Two variants, matching Table 3's two halves:

* ``include_reconfigs=False`` — reconfiguration-oblivious: find minimum
  II, then *post-process*: count the cyclic configuration runs in the
  window and add one load cycle each to get the achievable ("actual")
  II.  A window using a single configuration (MATMUL) pays nothing.
* ``include_reconfigs=True`` — the window length W is the actual II:
  operations with different configurations must sit at cyclic distance
  ≥ 1 + reconfig_cost so every switch has its load cycle inside the
  window.  Harder to solve (the paper's QRD run hits the 10-minute
  timeout) but yields better throughput.

Memory allocation is not part of the modulo model — the paper assumes
enough memory so the single-iteration allocation repeats per iteration
with an offset.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.arch.eit import DEFAULT_CONFIG, EITConfig, ResourceKind
from repro.arch.reconfig import cyclic_config_runs, steady_state_overhead
from repro.cp import (
    Cumulative,
    XPlusCLeqY,
    ScaledDiv,
    Inconsistency,
    IntVar,
    Neq,
    Phase,
    Search,
    SolveStatus,
    SolverStats,
    Store,
    Task,
)
from repro.cp.constraints.alldiff import AllDifferent
from repro.cp.constraints.cyclic import CyclicDistance
from repro.cp.search import select_min_value, smallest_min
from repro.ir.graph import Graph, OpNode
from repro.ir.passes import optimize_for_solve
from repro.sched.list_sched import greedy_schedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.certify import Certificate
    from repro.analysis.equivalence import PassCertificate


@dataclass
class ModuloResult:
    """One Table 3 entry."""

    graph_name: str
    include_reconfigs: bool
    ii: int  # the window found by the CSP (initial II, or actual when included)
    n_reconfigurations: int
    actual_ii: int
    status: SolveStatus
    opt_time_ms: float
    offsets: Dict[int, int] = field(default_factory=dict)  # op nid -> offset
    stages: Dict[int, int] = field(default_factory=dict)  # op nid -> stage
    tried: List[Tuple[int, str]] = field(default_factory=list)
    #: True when this result came from the greedy degradation path (a
    #: crashed/timed-out pool worker) rather than the CP search.
    fallback: bool = False
    #: merged solver telemetry of every candidate II tried (None for
    #: fallback/cached results — no fresh search happened).
    search_stats: Optional["SolverStats"] = None
    #: canonical decision-trace fingerprint of the *winning* candidate's
    #: search (sha256 over branch decisions, incumbent timeline and
    #: failure counts — see :mod:`repro.cp.search`).  The sequential
    #: ladder and the parallel racer solve the winning window with the
    #: same deterministic search, so equal fingerprints — not just equal
    #: IIs — are what "bit-identical" means; None for fallback/cached
    #: results.
    decision_fingerprint: Optional[str] = None
    #: machine-checkable optimality / infeasibility witness (see
    #: :mod:`repro.analysis.certify`), when the search could prove one.
    certificate: Optional["Certificate"] = None
    #: equivalence-checked IR rewrite chain when the graph was optimized
    #: before scheduling (``optimize=True``); empty when it was not.
    pass_certificates: Tuple["PassCertificate", ...] = ()

    @property
    def throughput(self) -> float:
        """Steady-state iterations per cycle (1 / actual II)."""
        return 1.0 / self.actual_ii if self.actual_ii > 0 else 0.0

    @property
    def found(self) -> bool:
        return self.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


def _op_precedences(graph: Graph, cfg: EITConfig) -> List[Tuple[OpNode, OpNode, int]]:
    """Producer→consumer op pairs with the required latency gap."""
    out = []
    for d in graph.data_nodes():
        prod = graph.producer(d)
        if prod is None:
            continue
        for cons in graph.succs(d):
            assert isinstance(cons, OpNode)
            out.append((prod, cons, prod.op.latency(cfg)))
    return out


def resource_lower_bound(
    graph: Graph, cfg: EITConfig = DEFAULT_CONFIG, include_reconfigs: bool = False
) -> int:
    """Resource-constrained minimum II (the DAG has no recurrences).

    Configuration exclusivity partitions the vector-core cycles by
    configuration class, so the vector-core bound is the sum over
    classes of ``ceil(lane_demand / n_lanes)``.  When reconfigurations
    are included, a window with more than one class additionally needs
    one load cycle per class (the minimum number of cyclic runs).
    """
    by_config: Dict[str, int] = {}
    scalar_cycles = 0
    index_cycles = 0
    for op in graph.op_nodes():
        res = op.op.resource
        if res is ResourceKind.VECTOR_CORE:
            by_config[op.config_class] = (
                by_config.get(op.config_class, 0) + op.op.lanes(cfg)
            )
        elif res is ResourceKind.SCALAR_UNIT:
            scalar_cycles += op.op.duration(cfg)
        else:
            index_cycles += op.op.duration(cfg)
    vec_cycles = sum(-(-d // cfg.n_lanes) for d in by_config.values())
    if include_reconfigs and len(by_config) > 1:
        vec_cycles += len(by_config) * cfg.reconfig_cost
    return max(vec_cycles, scalar_cycles, index_cycles, 1)


def ii_search_range(
    graph: Graph,
    cfg: EITConfig = DEFAULT_CONFIG,
    include_reconfigs: bool = False,
    max_ii: Optional[int] = None,
) -> Tuple[int, int, int]:
    """``(lb, hi, flat_makespan)`` — the candidate-II window of a kernel.

    ``lb`` is the resource lower bound, ``hi`` the greedy flat makespan
    plus one (a trivially sufficient II) unless ``max_ii`` overrides it.
    Both the sequential loop and the parallel racer iterate exactly this
    range, which is what makes their results comparable.

    A caller-imposed ``max_ii`` below ``lb`` raises ``ValueError``: the
    window is provably empty, and silently returning an inverted range
    used to make ``range(lb, hi + 1)`` iterate zero candidates and
    report a misleading bare INFEASIBLE.  :func:`modulo_schedule`
    returns :func:`empty_ii_window_result` for this case instead.
    """
    flat = greedy_schedule(graph, cfg)
    lb = resource_lower_bound(graph, cfg, include_reconfigs)
    if max_ii is not None and max_ii < lb:
        raise ValueError(
            f"max_ii={max_ii} is below the resource lower bound {lb}: "
            f"the candidate-II window [{lb}, {max_ii}] is empty — no II "
            f"up to {max_ii} can fit the per-class lane demand"
        )
    hi = max_ii if max_ii is not None else max(flat.makespan + 1, lb)
    return lb, hi, flat.makespan


def derive_per_ii_timeout(
    modulo_timeout_ms: float,
    graph: Graph,
    cfg: EITConfig = DEFAULT_CONFIG,
    include_reconfigs: bool = False,
    max_ii: Optional[int] = None,
) -> float:
    """A per-candidate budget that cannot starve a wide II window.

    A fixed ``modulo_timeout_ms / 3`` slice lets three hard candidates
    exhaust the whole budget while a dozen more go untried.  Instead,
    split the global budget by the *actual* number of candidates between
    the resource lower bound and the greedy makespan (never coarser than
    the old 3-way split), so every window in the range gets a fair share
    of the budget.
    """
    try:
        lb, hi, _ = ii_search_range(graph, cfg, include_reconfigs, max_ii)
    except ValueError:
        # empty window: nothing will be tried, any split works
        return modulo_timeout_ms / 3.0
    n_candidates = max(1, hi - lb + 1)
    return modulo_timeout_ms / max(3, n_candidates)


def stages_for_window(flat_makespan: int, window: int) -> int:
    """Max pipeline stages allowed for one candidate window."""
    return max(1, -(-flat_makespan // window) + 1)


def try_candidate(
    graph: Graph,
    cfg: EITConfig,
    window: int,
    include_reconfigs: bool,
    timeout_ms: float,
    max_stages: int,
    should_stop: Optional[Callable[[], bool]] = None,
    sanitize=False,
):
    """Solve the satisfaction CSP for one candidate window length.

    Returns ``(solution, status, stats)`` where ``solution`` is
    ``(offsets, stages)`` or None and ``stats`` the run's
    :class:`SolverStats` (empty when root posting already failed).

    ``sanitize`` attaches the propagator contract sanitizer
    (:class:`repro.analysis.Sanitizer`) to the store before any
    constraint is posted, so build-time root propagation is checked
    too; any SAN7xx finding raises :class:`repro.analysis.AuditError`
    before the candidate's verdict is returned.

    Decision variables are *absolute* start times ``s``; offsets and
    stages are channeled arc-consistently (``o = s mod W``,
    ``k = s div W``), so resource pruning on offsets removes whole
    residue classes from the start-time domains, and the set-times
    search over ``s`` handles precedence exactly like flat scheduling.
    """
    from repro.analysis.sanitize import make_sanitizer

    san = make_sanitizer(sanitize, subject=f"modulo:{graph.name}@W={window}")
    store = Store()
    if san is not None:
        san.install(store)
    ops = graph.op_nodes()
    horizon = (max_stages + 1) * window - 1
    start: Dict[int, IntVar] = {}
    offset: Dict[int, IntVar] = {}
    stage: Dict[int, IntVar] = {}
    try:
        for op in ops:
            start[op.nid] = IntVar(store, 0, horizon, name=f"s_{op.name}")
            offset[op.nid] = IntVar(store, 0, window - 1, name=f"o_{op.name}")
            stage[op.nid] = IntVar(store, 0, max_stages, name=f"k_{op.name}")
            # channeling: o = s mod W, k = s div W (arc-consistent)
            store.post(ScaledDiv(offset[op.nid], start[op.nid], d=1, m=window))
            store.post(ScaledDiv(stage[op.nid], start[op.nid], d=window))
            dur = op.op.duration(cfg)
            if dur > 1:
                if dur > window:
                    raise Inconsistency(
                        f"{op.name}: duration {dur} exceeds window {window}"
                    )
                # forbid wrap-around occupancy of multi-cycle units
                store.set_max(offset[op.nid], window - dur)

        # precedence on absolute starts
        for prod, cons, lat in _op_precedences(graph, cfg):
            store.post(XPlusCLeqY(start[prod.nid], lat, start[cons.nid]))

        # per-offset resource usage
        vec = [o for o in ops if o.op.resource is ResourceKind.VECTOR_CORE]
        if vec:
            store.post(
                Cumulative(
                    [
                        Task(offset[o.nid], 1, o.op.lanes(cfg))
                        for o in vec
                    ],
                    cfg.n_lanes,
                )
            )
        for res in (ResourceKind.SCALAR_UNIT, ResourceKind.INDEX_MERGE):
            group = [o for o in ops if o.op.resource is res]
            if not group:
                continue
            if all(o.op.duration(cfg) == 1 for o in group):
                # capacity-1 / duration-1: AllDifferent prunes far more
                # than time-tabling in a tight window
                store.post(AllDifferent([offset[o.nid] for o in group]))
            else:
                store.post(
                    Cumulative(
                        [
                            Task(offset[o.nid], o.op.duration(cfg), 1)
                            for o in group
                        ],
                        1,
                    )
                )

        # configuration exclusivity / reconfiguration gaps
        gap = 1 + cfg.reconfig_cost if include_reconfigs else 1
        for i, a in enumerate(vec):
            for b in vec[i + 1 :]:
                if a.config_class == b.config_class:
                    continue
                if gap == 1:
                    store.post(Neq(offset[a.nid], offset[b.nid]))
                else:
                    store.post(
                        CyclicDistance(
                            offset[a.nid], offset[b.nid], gap, window
                        )
                    )
    except Inconsistency:
        if san is not None:
            san.finish(store)
        return None, SolveStatus.INFEASIBLE, SolverStats()

    search = Search(store, timeout_ms=timeout_ms, should_stop=should_stop)
    # Set-times search over absolute start times: always extend the
    # schedule at its earliest open point, as in the flat scheduler.
    result = search.solve(
        [
            Phase(
                [start[o.nid] for o in ops],
                smallest_min,
                select_min_value,
                "modulo-starts",
            )
        ]
    )
    if san is not None:
        san.finish(store)
    if not result.found:
        return None, result.status, result.stats
    offs = {o.nid: result.value(offset[o.nid].name) for o in ops}
    stgs = {o.nid: result.value(stage[o.nid].name) for o in ops}
    return (offs, stgs), result.status, result.stats


def window_config_stream(
    graph: Graph, offsets: Dict[int, int], window: int
) -> List[Optional[str]]:
    """Vector-core configuration at each offset of the steady-state window."""
    stream: List[Optional[str]] = [None] * window
    for op in graph.op_nodes():
        if op.op.resource is ResourceKind.VECTOR_CORE:
            stream[offsets[op.nid]] = op.config_class
    return stream


def result_from_solution(
    graph: Graph,
    cfg: EITConfig,
    include_reconfigs: bool,
    window: int,
    solution: Tuple[Dict[int, int], Dict[int, int]],
    proven_all_below: bool,
    opt_time_ms: float,
    tried: List[Tuple[int, str]],
    search_stats: Optional[SolverStats] = None,
    decision_fingerprint: Optional[str] = None,
) -> ModuloResult:
    """Assemble a feasible :class:`ModuloResult` from one CSP solution.

    Shared by the sequential loop and the parallel racer so both produce
    byte-identical results from the same ``(window, solution)``.
    ``decision_fingerprint`` is the winning candidate's decision-trace
    hash, which makes that claim *checkable* rather than asserted.
    """
    offsets, stages = solution
    stream = window_config_stream(graph, offsets, window)
    n_rec = cyclic_config_runs(stream)
    if include_reconfigs:
        actual = window
    else:
        actual = window + steady_state_overhead(stream, cfg.reconfig_cost)
    certificate: Optional["Certificate"] = None
    mii = resource_lower_bound(graph, cfg, include_reconfigs)
    if window == mii:
        # the window meets the static resource minimum: optimal by
        # arithmetic, independent of how much of the ladder was proven
        from repro.analysis.certify import Certificate

        certificate = Certificate(
            kind="optimal",
            subject="modulo",
            family="resource-mii",
            bound=mii,
            achieved=window,
            detail=(
                f"per-class lane demand needs {mii} cycle(s) per "
                f"iteration (include_reconfigs={include_reconfigs})"
            ),
        )
    return ModuloResult(
        graph_name=graph.name,
        include_reconfigs=include_reconfigs,
        ii=window,
        n_reconfigurations=n_rec,
        actual_ii=actual,
        status=(
            SolveStatus.OPTIMAL
            if proven_all_below or certificate is not None
            else SolveStatus.FEASIBLE
        ),
        opt_time_ms=opt_time_ms,
        offsets=offsets,
        stages=stages,
        tried=tried,
        search_stats=search_stats,
        decision_fingerprint=decision_fingerprint,
        certificate=certificate,
    )


def no_window_result(
    graph: Graph,
    include_reconfigs: bool,
    status: SolveStatus,
    opt_time_ms: float = 0.0,
    tried: Optional[List[Tuple[int, str]]] = None,
    search_stats: Optional[SolverStats] = None,
    certificate: Optional["Certificate"] = None,
) -> ModuloResult:
    """The result of a search that found no window (``ii = -1``).

    ``status`` is INFEASIBLE when every candidate was proven infeasible
    (or a certificate proves the window empty), TIMEOUT otherwise.
    """
    return ModuloResult(
        graph_name=graph.name,
        include_reconfigs=include_reconfigs,
        ii=-1,
        n_reconfigurations=0,
        actual_ii=-1,
        status=status,
        opt_time_ms=opt_time_ms,
        tried=tried if tried is not None else [],
        search_stats=search_stats,
        certificate=certificate,
    )


def empty_ii_window_result(
    graph: Graph, include_reconfigs: bool, max_ii: int, lb: int
) -> ModuloResult:
    """Certified INFEASIBLE for a ``max_ii`` below the resource bound.

    No CSP is ever built: the per-class lane demand already proves no
    window up to ``max_ii`` exists.  ``tried`` reports every skipped
    candidate so callers see the range was considered, not ignored, and
    the attached ``ii-window`` certificate makes the claim
    machine-checkable (:func:`repro.analysis.verify_certificate`).
    """
    from repro.analysis.certify import Certificate

    return no_window_result(
        graph,
        include_reconfigs,
        SolveStatus.INFEASIBLE,
        tried=[
            (w, "skipped: below resource lower bound")
            for w in range(1, max_ii + 1)
        ],
        certificate=Certificate(
            kind="infeasible",
            subject="modulo",
            family="ii-window",
            bound=lb,
            achieved=max_ii,
            detail=(
                f"resource lower bound {lb} exceeds max_ii={max_ii} "
                f"(include_reconfigs={include_reconfigs})"
            ),
        ),
    )


def greedy_modulo_fallback(
    graph: Graph,
    cfg: EITConfig = DEFAULT_CONFIG,
    include_reconfigs: bool = False,
) -> ModuloResult:
    """A valid (but far from minimal) modulo schedule from the greedy flat one.

    With ``W = flat_makespan + 1`` every operation fits in stage 0 at
    offset equal to its flat start, so the steady-state window is just
    the flat schedule — resource-feasible by construction.  Used as the
    degradation path when a pool worker crashes or the CP search never
    returns: the sweep keeps a usable throughput number instead of dying.
    """
    flat = greedy_schedule(graph, cfg)
    window = flat.makespan + 1
    offsets = {op.nid: flat.starts[op.nid] for op in graph.op_nodes()}
    stages = {op.nid: 0 for op in graph.op_nodes()}
    stream = window_config_stream(graph, offsets, window)
    n_rec = cyclic_config_runs(stream)
    actual = window + steady_state_overhead(stream, cfg.reconfig_cost)
    if include_reconfigs:
        window = actual
    return ModuloResult(
        graph_name=graph.name,
        include_reconfigs=include_reconfigs,
        ii=window,
        n_reconfigurations=n_rec,
        actual_ii=actual,
        status=SolveStatus.FEASIBLE,
        opt_time_ms=0.0,
        offsets=offsets,
        stages=stages,
        tried=[(window, "greedy-fallback")],
        fallback=True,
    )


def modulo_schedule(
    graph: Graph,
    cfg: EITConfig = DEFAULT_CONFIG,
    include_reconfigs: bool = False,
    timeout_ms: float = 600_000.0,  # the paper's 10-minute solver budget
    max_ii: Optional[int] = None,
    per_ii_timeout_ms: Optional[float] = None,
    jobs: int = 1,
    audit: bool = False,
    sanitize=False,
    optimize: bool = False,
    passes: Optional[Sequence[str]] = None,
) -> ModuloResult:
    """Find the minimum-II modulo schedule for a kernel.

    Iterates candidate windows upward from the resource lower bound,
    solving one satisfaction CSP each, within a global time budget.
    With ``jobs > 1`` the candidate IIs are raced across a worker pool
    instead (see :mod:`repro.sched.parallel`); the result is still the
    *minimal* feasible II, identical to the sequential search.  With
    ``audit=True`` every result passes one gate (:func:`audited_modulo`):
    a found window is re-checked by the independent analyser
    (:func:`repro.analysis.audit_modulo`) and any certificate is
    re-verified, raising :class:`repro.analysis.AuditError` on
    violations.

    ``optimize=True`` first runs the certified IR optimization pipeline
    (:func:`repro.ir.passes.optimize_graph`) and schedules the rewritten
    copy; the result's ``offsets``/``stages`` then refer to the
    *optimized* graph and ``pass_certificates`` carries the rewrite
    chain (with ``audit=True`` the chain is re-verified end to end via
    :func:`repro.analysis.verify_pipeline` first).  ``passes`` overrides
    the pass pipeline.

    ``sanitize=True`` (or a :class:`repro.analysis.SanitizeConfig`) runs
    every candidate CSP under the propagator contract sanitizer — the
    SAN70x checks of :mod:`repro.analysis.sanitize` — raising
    :class:`repro.analysis.AuditError` on any finding; with ``jobs > 1``
    the flag travels to the pool workers in the solve request.
    """
    pass_certificates: Tuple["PassCertificate", ...] = ()
    if optimize:
        opt = optimize_for_solve(graph, passes, audit)
        graph, pass_certificates = opt.graph, opt.certificates

    lb = resource_lower_bound(graph, cfg, include_reconfigs)
    if max_ii is not None and max_ii < lb:
        # certified-empty candidate window: report the skipped range
        # instead of silently iterating zero candidates
        result = empty_ii_window_result(graph, include_reconfigs, max_ii, lb)
    else:
        t0 = time.monotonic()
        lb, hi, flat_makespan = ii_search_range(
            graph, cfg, include_reconfigs, max_ii
        )
        if jobs > 1 and lb < hi:
            from repro.sched.parallel import _race_candidates

            result = _race_candidates(
                graph, cfg, include_reconfigs, lb, hi, flat_makespan, t0,
                timeout_ms, per_ii_timeout_ms, jobs, sanitize,
            )
        else:
            result = _ladder(
                graph, cfg, include_reconfigs, lb, hi, flat_makespan, t0,
                timeout_ms, per_ii_timeout_ms, sanitize,
            )
    result.pass_certificates = pass_certificates
    return audited_modulo(result, graph, cfg, audit)


def _ladder(
    graph: Graph,
    cfg: EITConfig,
    include_reconfigs: bool,
    lb: int,
    hi: int,
    flat_makespan: int,
    t0: float,
    timeout_ms: float,
    per_ii_timeout_ms: Optional[float],
    sanitize,
) -> ModuloResult:
    """The sequential scan: the first feasible window of ``lb..hi``."""
    tried: List[Tuple[int, str]] = []
    merged = SolverStats()
    proven_all_below = True

    for window in range(lb, hi + 1):
        remaining = timeout_ms - (time.monotonic() - t0) * 1000.0
        if remaining <= 0:
            proven_all_below = False
            break
        budget = remaining
        if per_ii_timeout_ms is not None:
            budget = min(budget, per_ii_timeout_ms)
        solution, status, run_stats = try_candidate(
            graph, cfg, window, include_reconfigs, budget,
            stages_for_window(flat_makespan, window), sanitize=sanitize,
        )
        merged.merge(run_stats)
        tried.append((window, status.value))
        if solution is None:
            if status is not SolveStatus.INFEASIBLE:
                proven_all_below = False
            continue
        return result_from_solution(
            graph,
            cfg,
            include_reconfigs,
            window,
            solution,
            proven_all_below,
            (time.monotonic() - t0) * 1000.0,
            tried,
            search_stats=merged,
            decision_fingerprint=run_stats.trace_fingerprint,
        )

    return no_window_result(
        graph,
        include_reconfigs,
        SolveStatus.INFEASIBLE if proven_all_below else SolveStatus.TIMEOUT,
        (time.monotonic() - t0) * 1000.0,
        tried,
        merged,
    )


def audited_modulo(
    result: ModuloResult, graph: Graph, cfg: EITConfig, audit: bool
) -> ModuloResult:
    """Post-check a modulo result with the independent analyser.

    Found windows get the steady-state re-derivation
    (:func:`repro.analysis.audit_modulo`); any attached certificate —
    including the ``ii-window`` one on certified-INFEASIBLE results —
    is re-verified by :func:`repro.analysis.verify_certificate`.
    """
    if not audit:
        return result
    from repro.analysis import AuditError, audit_modulo, verify_certificate

    reports = []
    if result.found:
        reports.append(audit_modulo(result, graph, cfg))
    if result.certificate is not None:
        reports.append(
            verify_certificate(
                result.certificate,
                graph,
                cfg,
                result_value=result.ii if result.found else None,
                include_reconfigs=result.include_reconfigs,
            )
        )
    for report in reports:
        if not report.ok:
            raise AuditError(report)
    return result
