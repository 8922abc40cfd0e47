"""Design-space exploration: kernels x architecture profiles.

The paper's future-work direction ("targeting other vector
architectures") made systematic: sweep a set of :class:`EITConfig`
profiles over a set of kernels, collecting single-iteration makespan,
memory footprint and steady-state modulo throughput — the numbers an
architecture team trades off when sizing lanes, pipeline depth and the
banked memory.

The sweep is a grid of *independent* CSPs, so it scales with cores:
``explore(..., jobs=N)`` submits every (kernel, profile) cell — its
flat schedule solve and its modulo solve — as one task graph over a
:class:`repro.sched.parallel.WorkerPool`.  A
:class:`repro.cache.ScheduleCache` short-circuits cells whose content
address (canonical graph hash + config + solver options) was solved
before, so a warm rerun of a full sweep performs zero CP search.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.arch.eit import DEFAULT_CONFIG, EITConfig
from repro.cp.search import SolveStatus
from repro.cp.stats import SolverStats
from repro.ir import merge_pipeline_ops
from repro.ir.graph import Graph
from repro.sched.modulo import derive_per_ii_timeout, no_window_result
from repro.sched.scheduler import infeasible_schedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.equivalence import PassCertificate
    from repro.cache import ScheduleCache

#: ready-made profiles for sweeps (the paper's instance plus variants)
STANDARD_PROFILES: Dict[str, EITConfig] = {
    "eit": DEFAULT_CONFIG,
    "narrow2": EITConfig(n_lanes=2),
    "wide8": EITConfig(n_lanes=8),
    "shallow5": EITConfig(pipeline_depth=5),
    "deep9": EITConfig(pipeline_depth=9),
    "smallmem": EITConfig(n_slots=16),
    # provably too small for kernels with >3 live vectors: exercised by
    # the certificate pre-check, which resolves such cells with zero CP
    # search (see repro.analysis.bounds.memory_precheck)
    "tinymem": EITConfig(n_slots=3),
}


@dataclass(frozen=True)
class DesignPoint:
    """One (kernel, profile) evaluation."""

    kernel: str
    profile: str
    makespan: int
    slots_used: int
    status: str
    modulo_ii: int
    modulo_throughput: float

    @property
    def feasible(self) -> bool:
        return self.makespan >= 0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class ExploreOutcome:
    """A sweep's points plus its own telemetry.

    ``solver`` merges the :class:`SolverStats` of every *fresh* solve
    the sweep performed — cache hits contribute nothing, so a fully
    warm rerun shows ``solver.nodes == 0``.
    """

    points: List[DesignPoint]
    wall_ms: float = 0.0
    jobs: int = 1
    n_cells: int = 0
    solver: SolverStats = field(default_factory=SolverStats)
    cache_stats: Optional[Dict[str, int]] = None
    #: solves whose payload carries an *optimal* certificate (the
    #: objective provably meets a static lower bound)
    certified_optimal: int = 0
    #: solves resolved *infeasible* by a static certificate — the
    #: memory-pigeonhole cells among them never ran any CP search
    certified_infeasible: int = 0
    #: IR nodes removed by the certified pass pipeline (``optimize=True``)
    #: summed over kernels; 0 when the sweep ran un-optimized
    ir_nodes_removed: int = 0
    #: pass certificates emitted across all kernels (``optimize=True``)
    pass_certificates: int = 0

    def as_dict(self) -> Dict[str, object]:
        """JSON payload (bench harness, CI warm-sweep assertions)."""
        return {
            "jobs": self.jobs,
            "n_cells": self.n_cells,
            "wall_ms": round(self.wall_ms, 3),
            "solver": self.solver.as_dict(),
            "cache": self.cache_stats,
            "certified_optimal": self.certified_optimal,
            "certified_infeasible": self.certified_infeasible,
            "ir_nodes_removed": self.ir_nodes_removed,
            "pass_certificates": self.pass_certificates,
            "points": [p.as_dict() for p in self.points],
        }


def _point_from_payloads(
    kname: str, pname: str, sched_payload: Mapping, modulo_payload: Mapping
) -> DesignPoint:
    starts = sched_payload["starts"]
    slots = sched_payload["slots"]
    found = modulo_payload["status"] in ("optimal", "feasible")
    return DesignPoint(
        kernel=kname,
        profile=pname,
        makespan=sched_payload["makespan"],
        slots_used=len(set(slots.values())) if starts else 0,
        status=sched_payload["status"],
        modulo_ii=modulo_payload["actual_ii"] if found else -1,
        modulo_throughput=(
            1.0 / modulo_payload["actual_ii"]
            if found and modulo_payload["actual_ii"] > 0
            else 0.0
        ),
    )


def explore_detailed(
    kernels: Mapping[str, Callable[[], Graph]],
    profiles: Optional[Mapping[str, EITConfig]] = None,
    timeout_ms: float = 30_000.0,
    modulo_timeout_ms: float = 30_000.0,
    include_reconfigs: bool = False,
    jobs: int = 1,
    cache: Optional["ScheduleCache"] = None,
    audit: bool = False,
    sanitize=False,
    optimize: bool = False,
    passes: Optional[Sequence[str]] = None,
) -> ExploreOutcome:
    """Evaluate every kernel on every profile; full telemetry.

    ``kernels`` maps names to graph builders (e.g.
    ``{"matmul": repro.apps.build_matmul}``).  Infeasible or timed-out
    points are reported with ``makespan = -1`` rather than raising, so a
    sweep always completes.  With ``jobs > 1`` the grid fans out over a
    process pool; builders must then be picklable *or* cheap, since
    graphs are built once in the parent and shipped to workers as data
    (builders themselves never cross the process boundary).  A dying
    worker degrades its cell to the greedy fallback.  ``cache``
    short-circuits previously solved cells by content address.

    With ``audit=True`` every payload the sweep trusts is re-checked by
    the independent analyser (:mod:`repro.analysis`): a *cached* entry
    that fails its audit is invalidated (counted in
    ``cache.stats.audit_rejections``) and re-solved as a miss — a
    corrupt or stale cache can never leak an invalid schedule into the
    results — while a *freshly solved* payload that fails raises
    :class:`repro.analysis.AuditError` (that is a solver bug, not a
    cache artifact).

    With ``optimize=True`` every kernel graph is first rewritten by the
    certified pass pipeline (:func:`repro.ir.passes.optimize_graph`) in
    the parent process; workers then solve the smaller graphs.  The
    pipeline configuration is folded into every cell's cache key, so
    optimized and un-optimized sweeps can never collide in the cache
    even when a pipeline happens to be a no-op on some kernel, and the
    per-kernel :class:`~repro.analysis.equivalence.PassCertificate`
    chain rides inside each cached payload (surviving the disk tier and
    the pool wire).  ``audit=True`` additionally re-verifies each chain
    via :func:`repro.analysis.verify_pipeline` before any solving.

    With ``sanitize=True`` every fresh solve runs under the SAN7xx
    propagator contract sanitizer (:mod:`repro.analysis.sanitize`); the
    flag is folded into the solver options — and therefore into every
    cell's cache key — so sanitized and unsanitized sweeps never share
    cache entries.  A finding raises
    :class:`repro.analysis.AuditError` instead of degrading the cell.
    """
    from repro.analysis.bounds import memory_precheck
    from repro.cache import (
        cache_key,
        modulo_from_payload,
        schedule_from_payload,
        schedule_payload,
        modulo_payload as to_modulo_payload,
    )
    from repro.sched.parallel import SolveRequest, solve_many

    def _payload_report(req_id: str, payload: Mapping):
        """Audit one payload; returns the failing report or None."""
        from repro.analysis import audit_modulo, audit_schedule

        kname = req_id.split("/", 1)[0]
        graph, cfg = graphs[kname], profiles[req_id.split("/")[1]]
        if payload.get("kind") == "schedule":
            if not payload.get("starts"):
                return None  # infeasible cells carry nothing to check
            rep = audit_schedule(schedule_from_payload(payload, graph, cfg))
        else:
            result = modulo_from_payload(payload)
            if not result.found:
                return None
            rep = audit_modulo(result, graph, cfg)
        return None if rep.ok else rep

    t0 = time.monotonic()
    profiles = profiles or STANDARD_PROFILES
    outcome = ExploreOutcome(points=[], jobs=jobs)

    # Build every kernel graph once, in the parent, in deterministic
    # order — parallel and sequential sweeps schedule identical graphs.
    graphs: Dict[str, Graph] = {
        kname: merge_pipeline_ops(builder()) for kname, builder in kernels.items()
    }

    # Certified optimization happens in the parent too: workers receive
    # the rewritten graphs; the certificate chains ride in the payloads.
    pass_certs: Dict[str, Tuple["PassCertificate", ...]] = {}
    passes_sig: Optional[str] = None
    if optimize:
        from repro.ir.passes import optimize_for_solve, pipeline_signature

        passes_sig = pipeline_signature(passes)
        for kname, graph in list(graphs.items()):
            opt = optimize_for_solve(graph, passes, audit)
            graphs[kname] = opt.graph
            pass_certs[kname] = opt.certificates
            outcome.ir_nodes_removed += opt.nodes_removed
            outcome.pass_certificates += len(opt.certificates)

    # Assemble the task graph: two solves per cell, all independent.
    cells: List[Tuple[str, str]] = [
        (kname, pname) for kname in kernels for pname in profiles
    ]
    outcome.n_cells = len(cells)
    payloads: Dict[str, Mapping] = {}  # req_id -> result payload
    requests: List[SolveRequest] = []
    keys: Dict[str, str] = {}  # req_id -> cache key

    for kname, pname in cells:
        graph, cfg = graphs[kname], profiles[pname]
        cert = memory_precheck(graph, cfg)
        if cert is not None:
            # The whole cell is provably infeasible before any search:
            # synthesize both payloads, touch neither the cache nor the
            # pool.  Zero CP nodes, zero cache traffic.  A memory-dead
            # cell reports no steady-state throughput either: the modulo
            # model assumes the flat allocation exists.
            flat = infeasible_schedule(graph, cfg, certificate=cert)
            modulo = no_window_result(
                graph, include_reconfigs, SolveStatus.INFEASIBLE
            )
            flat.pass_certificates = modulo.pass_certificates = (
                pass_certs.get(kname, ())
            )
            payloads[f"{kname}/{pname}/schedule"] = schedule_payload(flat)
            payloads[f"{kname}/{pname}/modulo"] = to_modulo_payload(modulo)
            if cache is not None:
                cache.stats.bound_pruned += 1
            continue
        per_ii = derive_per_ii_timeout(
            modulo_timeout_ms, graph, cfg, include_reconfigs
        )
        sched_options: Dict[str, object] = {"timeout_ms": timeout_ms}
        modulo_options: Dict[str, object] = {
            "include_reconfigs": include_reconfigs,
            "timeout_ms": modulo_timeout_ms,
            "per_ii_timeout_ms": per_ii,
        }
        if sanitize:
            # Only when on: keeps sanitize-off cache keys byte-identical
            # to pre-sanitizer sweeps (warm caches stay warm).
            sched_options["sanitize"] = sanitize
            modulo_options["sanitize"] = sanitize
        for kind, options in (
            ("schedule", sched_options),
            ("modulo", modulo_options),
        ):
            req_id = f"{kname}/{pname}/{kind}"
            if cache is not None:
                # the pipeline signature is a *key* ingredient only —
                # workers must never see it as a solver kwarg
                key_opts: Dict[str, object] = dict(options)
                if passes_sig is not None:
                    key_opts["passes"] = passes_sig
                key = cache_key(graph, cfg, kind, key_opts)
                keys[req_id] = key
                hit = cache.get(key)
                if hit is not None:
                    if audit and _payload_report(req_id, hit) is not None:
                        # Corrupt/stale entry: drop it and re-solve the
                        # cell as a miss instead of trusting the payload.
                        cache.invalidate(key)
                    else:
                        payloads[req_id] = hit
                        continue
            requests.append(
                SolveRequest(
                    req_id=req_id,
                    kind=kind,
                    graph=graph,
                    cfg=cfg,
                    options=tuple(sorted(options.items())),
                )
            )

    results = solve_many(requests, jobs=jobs)
    for req_id, res in results.items():
        if audit and not res.degraded:
            failing = _payload_report(req_id, res.payload)
            if failing is not None:
                from repro.analysis import AuditError

                raise AuditError(failing)  # fresh solve: a solver bug
        payload = dict(res.payload)
        # fresh payloads carry their kernel's certificate chain, so it
        # survives the cache (both tiers) and later rehydration
        payload["pass_certificates"] = [
            c.as_dict() for c in pass_certs.get(req_id.split("/", 1)[0], ())
        ]
        payloads[req_id] = payload
        if res.stats is not None:
            outcome.solver.merge(res.stats)
            if cache is not None:
                cache.record_solve(res.stats.nodes)
        if cache is not None and not res.degraded:
            # degraded (greedy-fallback) results are not worth caching:
            # a rerun should attempt the real solve again
            cache.put(keys[req_id], payload)

    for kname, pname in cells:
        outcome.points.append(
            _point_from_payloads(
                kname,
                pname,
                payloads[f"{kname}/{pname}/schedule"],
                payloads[f"{kname}/{pname}/modulo"],
            )
        )

    for payload in payloads.values():
        cert_dict = payload.get("certificate")
        if cert_dict:
            if cert_dict.get("kind") == "optimal":
                outcome.certified_optimal += 1
            else:
                outcome.certified_infeasible += 1

    outcome.wall_ms = (time.monotonic() - t0) * 1000.0
    if cache is not None:
        outcome.cache_stats = cache.stats.as_dict()
    return outcome


def explore(
    kernels: Mapping[str, Callable[[], Graph]],
    profiles: Optional[Mapping[str, EITConfig]] = None,
    **options: Any,
) -> List[DesignPoint]:
    """Evaluate every kernel on every profile; the points only.

    ``options`` are :func:`explore_detailed`'s keyword arguments.
    """
    return explore_detailed(kernels, profiles, **options).points


def pareto_front(
    points: List[DesignPoint], kernel: str
) -> List[DesignPoint]:
    """Profiles not dominated on (makespan, modulo II) for a kernel.

    Lower is better on both axes; infeasible points never appear.
    Runs in O(n log n): a sweep over the sorted *unique* coordinate
    pairs finds the frontier, then every point sitting on a frontier
    coordinate is kept — co-located duplicates (two profiles landing on
    the same (makespan, II)) are all reported, deterministically ordered
    by (makespan, II, profile).
    """
    candidates = [p for p in points if p.kernel == kernel and p.feasible
                  and p.modulo_ii > 0]
    if not candidates:
        return []
    pairs = sorted({(p.makespan, p.modulo_ii) for p in candidates})
    front_pairs = set()
    best_ii: Optional[int] = None
    for makespan, ii in pairs:  # makespan ascending, ii ascending within
        if best_ii is None or ii < best_ii:
            front_pairs.add((makespan, ii))
            best_ii = ii
    front = [
        p for p in candidates if (p.makespan, p.modulo_ii) in front_pairs
    ]
    return sorted(front, key=lambda p: (p.makespan, p.modulo_ii, p.profile))
