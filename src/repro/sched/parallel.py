"""Parallel scheduling service: process-pool fan-out for DSE sweeps.

Every cell of a design-space sweep — one ``schedule()`` and one
``modulo_schedule()`` per (kernel, profile) pair — is an independent
CSP, and every candidate II of a modulo search is an independent CSP
too.  This module turns that independence into wall-clock speedup:

* :class:`SolveRequest` / :class:`SolveResult` — picklable request and
  result envelopes; graphs, configs and result payloads all cross the
  process boundary as plain data.
* :class:`WorkerPool` — a ``ProcessPoolExecutor`` whose workers share a
  cancellation :class:`~multiprocessing.Event`; the CP search polls it
  once per node (``Search.should_stop``), so in-flight solves can be
  abandoned cooperatively without killing processes.
* :func:`solve_many` — fan a batch of requests over the pool with
  per-task watchdog timeouts and crash isolation: a worker that dies
  (or hangs past its deadline) degrades *that request* to the greedy
  fallback instead of killing the sweep.
* the racing backend of ``modulo_schedule(jobs=N)`` — race a window
  of candidate IIs; the result is the *minimal* feasible II, assembled
  through the same code path as the sequential search so the two are
  identical (asserted by ``tests/sched/test_parallel.py``).

Determinism: workers run exactly the functions the sequential path
runs, on the same inputs; given budgets large enough that no candidate
times out, parallel and sequential sweeps produce cell-for-cell
identical results.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.arch.eit import EITConfig
from repro.cp.search import SolveStatus
from repro.cp.stats import SolverStats
from repro.ir.graph import Graph
from repro.sched.modulo import (
    ModuloResult,
    greedy_modulo_fallback,
    modulo_schedule,
    no_window_result,
    result_from_solution,
    stages_for_window,
    try_candidate,
)
from repro.sched.scheduler import greedy_fallback, schedule

#: extra wall-clock (ms) a worker gets beyond its solver budget before
#: the parent declares it hung and degrades the request.
WATCHDOG_MARGIN_MS = 30_000.0


# ----------------------------------------------------------------------
# Request / result envelopes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolveRequest:
    """One solve shipped to a worker.  Everything here pickles.

    ``kind`` selects the solve family:

    * ``"schedule"`` — flat scheduling + memory allocation
      (:func:`repro.sched.scheduler.schedule`); options are its kwargs.
    * ``"modulo"`` — the full minimum-II search
      (:func:`repro.sched.modulo.modulo_schedule`).
    * ``"modulo_try"`` — one candidate II of a racing search
      (:func:`repro.sched.modulo.try_candidate`); options carry
      ``window``/``max_stages``/``include_reconfigs``/``timeout_ms``.
    """

    req_id: str
    kind: str
    graph: Graph
    cfg: EITConfig
    options: Tuple[Tuple[str, Any], ...] = ()

    def opts(self) -> Dict[str, Any]:
        return dict(self.options)

    @property
    def budget_ms(self) -> float:
        """The solver budget of this request (for the parent's watchdog)."""
        return float(self.opts().get("timeout_ms") or 600_000.0)


@dataclass
class SolveResult:
    """What comes back from a worker (or the degradation path)."""

    req_id: str
    ok: bool
    payload: Any = None
    stats: Optional[SolverStats] = None
    error: str = ""
    elapsed_ms: float = 0.0
    #: True when this result was synthesized by the greedy fallback
    #: because the worker crashed, hung, or raised.
    degraded: bool = False
    #: True when the worker raised :class:`repro.analysis.AuditError`
    #: (an audit or SAN7xx sanitizer finding).  Fatal failures must
    #: *never* degrade to the greedy fallback — that would mask a
    #: correctness violation as a timeout; the parent re-raises instead.
    #: ``payload`` then carries the pickled
    #: :class:`~repro.analysis.diagnostics.DiagnosticReport`.
    fatal: bool = False


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
_CANCEL_EVENT = None  # set per worker process by _pool_init


def _pool_init(event) -> None:
    global _CANCEL_EVENT
    _CANCEL_EVENT = event


def _worker_should_stop() -> bool:
    return _CANCEL_EVENT is not None and _CANCEL_EVENT.is_set()


def run_request(req: SolveRequest) -> SolveResult:
    """Execute one request; runs inside a worker (or inline for jobs=1).

    Exceptions are converted into failed results — the parent decides
    how to degrade.  The special ``"_test_crash"`` kind hard-exits the
    process to exercise crash isolation in tests.
    """
    t0 = time.monotonic()
    payload: Any
    stats: Optional[SolverStats]
    try:
        opts = req.opts()
        if req.kind == "schedule":
            from repro.cache import schedule_payload

            s = schedule(
                req.graph, req.cfg, should_stop=_worker_should_stop, **opts
            )
            payload, stats = schedule_payload(s), s.search_stats
        elif req.kind == "modulo":
            from repro.cache import modulo_payload

            m = modulo_schedule(req.graph, req.cfg, **opts)
            payload, stats = modulo_payload(m), m.search_stats
        elif req.kind == "modulo_try":
            solution, status, stats = try_candidate(
                req.graph,
                req.cfg,
                opts["window"],
                opts["include_reconfigs"],
                opts["timeout_ms"],
                opts["max_stages"],
                should_stop=_worker_should_stop,
                sanitize=opts.get("sanitize", False),
            )
            payload = {"solution": solution, "status": status.value}
        elif req.kind == "_test_crash":  # crash-isolation test hook
            os._exit(13)
        else:
            raise ValueError(f"unknown request kind {req.kind!r}")
        return SolveResult(
            req_id=req.req_id,
            ok=True,
            payload=payload,
            stats=stats,
            elapsed_ms=(time.monotonic() - t0) * 1000.0,
        )
    except BaseException as exc:  # noqa: BLE001 — isolation boundary
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        from repro.analysis.diagnostics import AuditError

        fatal = isinstance(exc, AuditError)
        return SolveResult(
            req_id=req.req_id,
            ok=False,
            payload=exc.report if fatal else None,
            error="".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip(),
            elapsed_ms=(time.monotonic() - t0) * 1000.0,
            fatal=fatal,
        )


# ----------------------------------------------------------------------
# Parent side: the pool
# ----------------------------------------------------------------------
def default_jobs() -> int:
    """A sensible worker count: all cores, at least one."""
    return max(1, os.cpu_count() or 1)


class WorkerPool:
    """A process pool with a shared cooperative-cancellation event."""

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        ctx = mp.get_context()
        self.cancel_event = ctx.Event()
        self._executor = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=ctx,
            initializer=_pool_init,
            initargs=(self.cancel_event,),
        )

    def submit(self, req: SolveRequest) -> Future:
        return self._executor.submit(run_request, req)

    def cancel_outstanding(self) -> None:
        """Ask every in-flight search to stop at its next node."""
        self.cancel_event.set()

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def _reraise_fatal(res: SolveResult) -> None:
    """Re-raise a worker's AuditError in the parent process.

    Degrading a sanitizer/audit violation to the greedy fallback would
    report a correctness bug as a mere timeout, so fatal results bypass
    the degradation path entirely.
    """
    from repro.analysis.diagnostics import AuditError

    if res.payload is not None:
        raise AuditError(res.payload)
    raise RuntimeError(f"fatal worker error on {res.req_id}: {res.error}")


def _degraded_result(req: SolveRequest, error: str) -> SolveResult:
    """Greedy-fallback stand-in for a crashed/hung/errored request."""
    from repro.cache import modulo_payload, schedule_payload

    opts = req.opts()
    if req.kind == "schedule":
        cfg = req.cfg
        n_slots = opts.get("n_slots")
        if n_slots is not None:
            cfg = cfg.with_slots(n_slots)
        payload = schedule_payload(greedy_fallback(req.graph, cfg))
    elif req.kind == "modulo":
        payload = modulo_payload(
            greedy_modulo_fallback(
                req.graph, req.cfg, opts.get("include_reconfigs", False)
            )
        )
    elif req.kind == "modulo_try":
        payload = {"solution": None, "status": SolveStatus.TIMEOUT.value}
    else:
        payload = None
    return SolveResult(
        req_id=req.req_id,
        ok=payload is not None,
        payload=payload,
        error=error,
        degraded=True,
    )


def _settle(
    req: SolveRequest, res: SolveResult, pool: Optional[WorkerPool] = None
) -> SolveResult:
    """A request's final result: fatal re-raises, failures degrade."""
    if res.fatal:
        if pool is not None:
            pool.cancel_outstanding()
        _reraise_fatal(res)
    return res if res.ok else _degraded_result(req, res.error)


def solve_many(
    requests: Sequence[SolveRequest],
    jobs: int = 1,
    watchdog_margin_ms: float = WATCHDOG_MARGIN_MS,
) -> Dict[str, SolveResult]:
    """Run a batch of requests, fanned out over ``jobs`` workers.

    With ``jobs <= 1`` everything runs inline (no processes, fully
    deterministic, zero overhead) — the reference path the parallel one
    must agree with.  Otherwise requests are submitted eagerly and
    collected as they finish; each task gets a watchdog deadline of its
    own solver budget plus ``watchdog_margin_ms``.  Three failure modes
    degrade a request to its greedy fallback rather than raising:
    a worker exception, a worker crash (``BrokenProcessPool`` — the
    remaining in-flight requests are degraded too, since the pool is
    gone), and a hang past the watchdog deadline.
    """
    results: Dict[str, SolveResult] = {}
    if jobs <= 1:
        for req in requests:
            results[req.req_id] = _settle(req, run_request(req))
        return results

    with WorkerPool(jobs) as pool:
        pending: Dict[Future, SolveRequest] = {}
        deadlines: Dict[Future, float] = {}
        now = time.monotonic()
        try:
            for req in requests:
                fut = pool.submit(req)
                pending[fut] = req
                deadlines[fut] = now + (req.budget_ms + watchdog_margin_ms) / 1000.0
        except BrokenProcessPool:
            pass  # handled below: everything unsubmitted/unfinished degrades

        while pending:
            try:
                done, _ = wait(
                    pending, timeout=1.0, return_when=FIRST_COMPLETED
                )
            except BrokenProcessPool:
                done = set()
            now = time.monotonic()
            # `done` is an unordered set; walk it in submission order so
            # result recording is deterministic (SAN708).
            for fut in [f for f in pending if f in done]:
                req = pending.pop(fut)
                deadlines.pop(fut)
                try:
                    res = fut.result()
                except (BrokenProcessPool, Exception) as exc:
                    res = SolveResult(req.req_id, ok=False, error=repr(exc))
                results[req.req_id] = _settle(req, res, pool)
            # watchdog: a worker hung past its budget + margin
            expired = [f for f in pending if now > deadlines[f]]
            for fut in expired:
                req = pending.pop(fut)
                deadlines.pop(fut)
                fut.cancel()
                results[req.req_id] = _degraded_result(
                    req, "watchdog deadline exceeded"
                )
            # a broken pool fails every remaining future immediately, so
            # the `done` path above drains them on the next iteration.

    # anything never submitted (pool broke during submission)
    for req in requests:
        if req.req_id not in results:
            results[req.req_id] = _degraded_result(req, "worker pool broken")
    return results


# ----------------------------------------------------------------------
# Racing modulo search
# ----------------------------------------------------------------------
def _race_candidates(
    graph: Graph,
    cfg: EITConfig,
    include_reconfigs: bool,
    lb: int,
    hi: int,
    flat_makespan: int,
    t0: float,
    timeout_ms: float,
    per_ii_timeout_ms: Optional[float],
    jobs: int,
    sanitize,
) -> ModuloResult:
    """Race the candidate windows ``lb..hi`` across ``jobs`` workers.

    The backend of :func:`repro.sched.modulo.modulo_schedule` for
    ``jobs > 1``.  Candidates ``lb, lb+1, ...`` are solved concurrently,
    ``jobs`` at a time.  The answer is decided exactly like the
    sequential scan: the smallest feasible window, reported OPTIMAL only
    when every window below it was *proven* infeasible.  The moment the
    winner is decided, the shared cancellation event stops in-flight
    higher candidates at their next search node, and pending ones are
    cancelled outright.  ``tried`` lists every window up to the winner
    with its status, in window order — the same list the sequential
    search produces.

    Bit-identity caveat: if a candidate *times out* under
    ``per_ii_timeout_ms``, its status depends on wall-clock and can
    differ between runs (parallel or not); with budgets that let every
    candidate finish, the result is identical to ``jobs=1`` — including
    the winner's ``decision_fingerprint``, so the claim is checkable.

    ``sanitize`` (True or a picklable
    :class:`repro.analysis.SanitizeConfig`) ships with each candidate
    request, so workers run their CSPs under the SAN7xx propagator
    contract checks; a finding raises
    :class:`repro.analysis.AuditError` in the parent rather than
    degrading to the greedy fallback.
    """
    budget_each = per_ii_timeout_ms if per_ii_timeout_ms is not None else timeout_ms
    deadline = t0 + timeout_ms / 1000.0

    statuses: Dict[int, SolveStatus] = {}
    solutions: Dict[int, Tuple[Dict[int, int], Dict[int, int]]] = {}
    fingerprints: Dict[int, Optional[str]] = {}
    merged = SolverStats()

    def finish(window: Optional[int], timed_out: bool = False) -> ModuloResult:
        elapsed_ms = (time.monotonic() - t0) * 1000.0
        if window is not None:
            tried = [(w, statuses[w].value) for w in range(lb, window + 1)]
            proven = all(
                statuses[w] is SolveStatus.INFEASIBLE
                for w in range(lb, window)
            )
            return result_from_solution(
                graph,
                cfg,
                include_reconfigs,
                window,
                solutions[window],
                proven,
                elapsed_ms,
                tried,
                search_stats=merged,
                decision_fingerprint=fingerprints.get(window),
            )
        # no feasible window: contiguous resolved prefix is what was tried
        tried = []
        w = lb
        while w in statuses:
            tried.append((w, statuses[w].value))
            w += 1
        all_infeasible = (
            not timed_out
            and w > hi
            and all(s is SolveStatus.INFEASIBLE for s in statuses.values())
        )
        return no_window_result(
            graph,
            include_reconfigs,
            SolveStatus.INFEASIBLE if all_infeasible else SolveStatus.TIMEOUT,
            elapsed_ms,
            tried,
            merged,
        )

    with WorkerPool(jobs) as pool:
        pending: Dict[Future, int] = {}
        next_window = lb

        def submit_up_to(limit: int) -> None:
            nonlocal next_window
            while len(pending) < jobs and next_window <= limit:
                w = next_window
                next_window += 1
                req = SolveRequest(
                    req_id=f"ii{w}",
                    kind="modulo_try",
                    graph=graph,
                    cfg=cfg,
                    options=(
                        ("window", w),
                        ("include_reconfigs", include_reconfigs),
                        ("timeout_ms", budget_each),
                        ("max_stages", stages_for_window(flat_makespan, w)),
                        ("sanitize", sanitize),
                    ),
                )
                pending[pool.submit(req)] = w

        def best_decided() -> Optional[int]:
            """Smallest feasible window with everything below resolved."""
            for w in range(lb, hi + 1):
                if w not in statuses:
                    return None
                if w in solutions:
                    return w
            return None

        submit_up_to(hi)
        while pending:
            if time.monotonic() > deadline:
                pool.cancel_outstanding()
                return finish(None, timed_out=True)
            try:
                done, _ = wait(pending, timeout=1.0, return_when=FIRST_COMPLETED)
            except BrokenProcessPool:
                done = set()
            broken = False
            # Walk completions in submission (= window) order so stats
            # merging and status recording are deterministic (SAN708).
            for fut in [f for f in pending if f in done]:
                w = pending.pop(fut)
                try:
                    res = fut.result()
                except (BrokenProcessPool, Exception):
                    res, broken = None, True
                if res is not None and res.fatal:
                    pool.cancel_outstanding()
                    _reraise_fatal(res)
                if res is None or not res.ok:
                    # a crashed candidate is indistinguishable from a
                    # timeout for the search semantics: unproven
                    statuses[w] = SolveStatus.TIMEOUT
                    continue
                if res.stats is not None:
                    merged.merge(res.stats)
                statuses[w] = SolveStatus(res.payload["status"])
                if res.payload["solution"] is not None:
                    solutions[w] = res.payload["solution"]
                    fingerprints[w] = (
                        res.stats.trace_fingerprint
                        if res.stats is not None
                        else None
                    )
            winner = best_decided()
            if winner is not None:
                pool.cancel_outstanding()
                return finish(winner)
            if broken:
                # pool is gone: every unresolved candidate is unproven
                for fut, w in list(pending.items()):
                    statuses.setdefault(w, SolveStatus.TIMEOUT)
                pending.clear()
                break
            # keep the frontier full, but never beyond a known solution
            # (sequential would not try windows above its answer)
            cap = min(solutions) - 1 if solutions else hi
            submit_up_to(min(cap, hi))

        return finish(best_decided())
