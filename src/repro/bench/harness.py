"""Implementations of the paper's experiments (Tables 1-3, Figures 3-8)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.arch.eit import DEFAULT_CONFIG, EITConfig
from repro.arch.memory import figure8_examples
from repro.apps import build_arf, build_backsub, build_matmul, build_qrd
from repro.ir import (
    matrix_op_to_vector_ops,
    merge_pipeline_ops,
    stats,
    to_dot,
)
from repro.ir.graph import Graph
from repro.sched import (
    manual_instruction_sequence,
    overlap_blocks,
    overlap_iterations,
    schedule,
)
from repro.sched.modulo import modulo_schedule

KERNELS: Dict[str, Callable[[], Graph]] = {
    "qrd": build_qrd,
    "arf": build_arf,
    "matmul": build_matmul,
    "backsub": build_backsub,
}


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Plain-text table with right-aligned numeric columns."""
    cells = [[str(h) for h in headers]] + [
        [f"{c:.3f}" if isinstance(c, float) else str(c) for c in row]
        for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for j, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def prepared(kernel: str) -> Graph:
    """Build a kernel and run the pre-scheduling merging pass."""
    return merge_pipeline_ops(KERNELS[kernel]())


# ----------------------------------------------------------------------
# Table 1: scheduling QRD under different memory sizes
# ----------------------------------------------------------------------
@dataclass
class Table1Row:
    n_slots_available: int
    schedule_length: int
    n_slots_used: int
    opt_time_ms: float
    status: str
    nodes: int = 0
    failures: int = 0


def table1_memory_sweep(
    kernel: str = "qrd",
    sizes: Sequence[int] = (64, 32, 16, 10),
    timeout_ms: float = 60_000.0,
    cfg: EITConfig = DEFAULT_CONFIG,
) -> Tuple[List[Table1Row], Dict[str, int]]:
    """Paper Table 1: schedule the kernel with shrinking memory.

    Returns the rows plus the graph properties the paper lists in the
    left column (|V|, |E|, |Cr.P|, #vector data).
    """
    g = prepared(kernel)
    st = stats(g, cfg)
    props = {
        "V": st.n_nodes,
        "E": st.n_edges,
        "CrP": st.critical_path,
        "v_data": st.n_vector_data,
    }
    rows = []
    for n in sizes:
        s = schedule(g, cfg=cfg, n_slots=n, timeout_ms=timeout_ms)
        st = s.search_stats
        rows.append(
            Table1Row(
                n_slots_available=n,
                schedule_length=s.makespan,
                n_slots_used=s.slots_used() if s.starts else 0,
                opt_time_ms=s.solve_time_ms,
                status=s.status.value,
                nodes=st.nodes if st else 0,
                failures=st.failures if st else 0,
            )
        )
    return rows, props


def print_table1(rows: List[Table1Row], props: Dict[str, int]) -> str:
    header = (
        f"Application properties: |V| = {props['V']}, |E| = {props['E']}, "
        f"|Cr.P| = {props['CrP']}, # v_data = {props['v_data']}\n"
    )
    body = format_table(
        ["schedule length (cc)", "#slots available", "#slots used",
         "opt. time (ms)", "nodes", "status"],
        [
            [r.schedule_length, r.n_slots_available, r.n_slots_used,
             round(r.opt_time_ms), r.nodes, r.status]
            for r in rows
        ],
    )
    return header + body


# ----------------------------------------------------------------------
# Solver profiling: one kernel, full SolverStats as JSON-ready dict
# ----------------------------------------------------------------------
def profile_solver(
    kernel: str = "qrd",
    n_slots: Optional[int] = None,
    timeout_ms: float = 60_000.0,
    cfg: EITConfig = DEFAULT_CONFIG,
) -> Dict[str, object]:
    """Schedule one kernel and return its full solver telemetry.

    The returned dict is JSON-serializable: kernel identity, schedule
    outcome, and the complete :class:`repro.cp.stats.SolverStats` dump
    (nodes, failures, propagation counts per constraint class, per-phase
    node/time split, incumbent timeline).  This is what the CI
    quick-profile job uploads so solver-performance regressions show up
    in artifacts, not anecdotes.
    """
    g = prepared(kernel)
    s = schedule(g, cfg=cfg, n_slots=n_slots, timeout_ms=timeout_ms)
    out: Dict[str, object] = {
        "kernel": kernel,
        "n_slots": n_slots if n_slots is not None else cfg.n_slots,
        "status": s.status.value,
        "makespan": s.makespan,
        "fallback": s.fallback,
        "solve_time_ms": s.solve_time_ms,
        "solver_stats": s.search_stats.as_dict() if s.search_stats else None,
    }
    return out


# ----------------------------------------------------------------------
# Table 2: overlapping iterations, manual vs automated
# ----------------------------------------------------------------------
@dataclass
class Table2Result:
    n_iterations: int
    manual_length: int
    automated_length: int
    manual_reconfigs: int
    automated_reconfigs: int
    manual_throughput: float
    automated_throughput: float

    @property
    def manual_rec_per_iter(self) -> float:
        return self.manual_reconfigs / self.n_iterations

    @property
    def automated_rec_per_iter(self) -> float:
        return self.automated_reconfigs / self.n_iterations


def table2_overlap(
    kernel: str = "qrd",
    n_iterations: int = 12,
    timeout_ms: float = 60_000.0,
    cfg: EITConfig = DEFAULT_CONFIG,
) -> Table2Result:
    """Paper Table 2: overlapped execution, manual vs automated flow."""
    g = prepared(kernel)
    s = schedule(g, cfg=cfg, timeout_ms=timeout_ms)
    auto = overlap_iterations(s, n_iterations)

    blocks, gopt = manual_instruction_sequence(KERNELS[kernel](), cfg)
    man = overlap_blocks(gopt, blocks, n_iterations, cfg)

    return Table2Result(
        n_iterations=n_iterations,
        manual_length=man.schedule_length,
        automated_length=auto.schedule_length,
        manual_reconfigs=man.n_reconfigurations,
        automated_reconfigs=auto.n_reconfigurations,
        manual_throughput=man.throughput,
        automated_throughput=auto.throughput,
    )


def print_table2(r: Table2Result) -> str:
    return format_table(
        [f"# iterations = {r.n_iterations}", "Manual", "Automated"],
        [
            ["Schedule length (cc)", r.manual_length, r.automated_length],
            ["# reconfigurations", r.manual_reconfigs, r.automated_reconfigs],
            ["# reconfigs/# iter.",
             round(r.manual_rec_per_iter, 2), round(r.automated_rec_per_iter, 2)],
            ["Throughput (iter./cc)",
             round(r.manual_throughput, 4), round(r.automated_throughput, 4)],
        ],
    )


# ----------------------------------------------------------------------
# Table 3: modulo scheduling, excluding vs including reconfigurations
# ----------------------------------------------------------------------
@dataclass
class Table3Row:
    application: str
    graph_props: Tuple[int, int, int]
    initial_ii: int
    n_reconfigs: int
    actual_ii: int
    throughput_excl: float
    ii_incl: int
    throughput_incl: float
    opt_time_incl_ms: float
    status_excl: str = ""
    status_incl: str = ""


def table3_modulo(
    kernels: Sequence[str] = ("qrd", "arf", "matmul"),
    timeout_ms: float = 600_000.0,
    per_ii_timeout_ms: Optional[float] = 30_000.0,
    cfg: EITConfig = DEFAULT_CONFIG,
) -> List[Table3Row]:
    """Paper Table 3: both modulo-scheduling variants on all kernels."""
    rows = []
    for k in kernels:
        g = prepared(k)
        props = stats(g, cfg).as_tuple()
        excl = modulo_schedule(
            g, cfg, include_reconfigs=False,
            timeout_ms=timeout_ms, per_ii_timeout_ms=per_ii_timeout_ms,
        )
        incl = modulo_schedule(
            g, cfg, include_reconfigs=True,
            timeout_ms=timeout_ms, per_ii_timeout_ms=per_ii_timeout_ms,
        )
        rows.append(
            Table3Row(
                application=k.upper(),
                graph_props=props,
                initial_ii=excl.ii,
                n_reconfigs=excl.n_reconfigurations,
                actual_ii=excl.actual_ii,
                throughput_excl=excl.throughput,
                ii_incl=incl.ii,
                throughput_incl=incl.throughput,
                opt_time_incl_ms=incl.opt_time_ms,
                status_excl=excl.status.value,
                status_incl=incl.status.value,
            )
        )
    return rows


def print_table3(rows: List[Table3Row]) -> str:
    return format_table(
        ["Application", "(|V|,|E|,|Cr.P|)", "initial II", "# rec.",
         "actual II", "thr. (iter/cc)", "II incl.", "thr. incl.",
         "opt time (ms)"],
        [
            [r.application, str(r.graph_props), r.initial_ii, r.n_reconfigs,
             r.actual_ii, round(r.throughput_excl, 3), r.ii_incl,
             round(r.throughput_incl, 3), round(r.opt_time_incl_ms)]
            for r in rows
        ],
    )


# ----------------------------------------------------------------------
# Design-space sweep benchmark (the parallel-scheduling exhibit)
# ----------------------------------------------------------------------
def explore_bench(
    kernels: Sequence[str] = ("qrd", "arf", "matmul"),
    profiles: Optional[Sequence[str]] = None,
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    timeout_ms: float = 30_000.0,
    modulo_timeout_ms: float = 30_000.0,
    optimize: bool = False,
) -> Dict[str, object]:
    """Run the kernels × profiles sweep and return the JSON payload.

    This is what ``python -m repro.bench explore`` emits as
    ``BENCH_explore.json``: every design point, the wall-clock of the
    sweep itself, the merged solver telemetry, and the cache counters —
    the numbers that track the perf trajectory of the sweep across
    commits.
    """
    from repro.cache import ScheduleCache
    from repro.sched.explore import STANDARD_PROFILES, explore_detailed

    profile_names = list(profiles) if profiles else list(STANDARD_PROFILES)
    cache = (
        ScheduleCache(disk_dir=cache_dir) if use_cache or cache_dir else None
    )
    outcome = explore_detailed(
        {k: KERNELS[k] for k in kernels},
        {p: STANDARD_PROFILES[p] for p in profile_names},
        timeout_ms=timeout_ms,
        modulo_timeout_ms=modulo_timeout_ms,
        jobs=jobs,
        cache=cache,
        optimize=optimize,
    )
    payload = outcome.as_dict()
    payload["kernels"] = list(kernels)
    payload["profiles"] = profile_names
    return payload


def print_explore(payload: Dict[str, object]) -> str:
    """Human rendering of an :func:`explore_bench` payload."""
    header = (
        f"sweep: {len(payload['kernels'])} kernels x "
        f"{len(payload['profiles'])} profiles, jobs={payload['jobs']}, "
        f"wall {payload['wall_ms'] / 1000.0:.1f} s, "
        f"{payload['solver']['nodes']} CP nodes"
    )
    if payload["cache"]:
        c = payload["cache"]
        header += f"; cache {c['hits']} hits / {c['misses']} misses"
    certified = (
        payload.get("certified_optimal", 0),
        payload.get("certified_infeasible", 0),
    )
    if any(certified):
        header += (f"; certified: {certified[0]} optimal, "
                   f"{certified[1]} infeasible")
    if payload.get("pass_certificates"):
        header += (
            f"; IR passes: {payload['ir_nodes_removed']} node(s) removed, "
            f"{payload['pass_certificates']} verified certificate(s)"
        )
    body = format_table(
        ["kernel", "profile", "makespan", "slots", "status", "actual II",
         "thr. (iter/cc)"],
        [
            [p["kernel"], p["profile"], p["makespan"], p["slots_used"],
             p["status"], p["modulo_ii"], round(p["modulo_throughput"], 4)]
            for p in payload["points"]
        ],
    )
    return header + "\n" + body


# ----------------------------------------------------------------------
# Static-analysis audit over the shipped kernels
# ----------------------------------------------------------------------
def audit_kernels(
    kernels: Sequence[str] = ("qrd", "arf", "matmul", "backsub"),
    timeout_ms: float = 60_000.0,
    modulo_timeout_ms: float = 60_000.0,
    include_reconfigs: bool = False,
    n_synth: int = 0,
    cfg: EITConfig = DEFAULT_CONFIG,
) -> Dict[str, object]:
    """Run every analysis pass over every shipped kernel; JSON payload.

    For each kernel this lints the raw and merged IR, CP-schedules it
    and audits the schedule (eqs. 1-5) and its memory allocation
    (eqs. 6-11), generates machine code and audits that against the
    schedule, then modulo-schedules it and audits the steady state.
    ``n_synth > 0`` appends seeded synthetic kernels to the sweep.
    The payload's ``ok`` is True iff *zero* error-severity diagnostics
    were reported anywhere — the acceptance bar for the shipped kernels.
    """
    from repro.analysis import (
        audit_modulo,
        audit_program,
        audit_schedule,
        lint_graph,
    )
    from repro.apps import synth_suite
    from repro.codegen.machine_code import generate

    builders: Dict[str, Callable[[], Graph]] = {
        k: KERNELS[k] for k in kernels
    }
    if n_synth > 0:
        builders.update(synth_suite(n_kernels=n_synth))

    results: List[Dict[str, object]] = []
    all_ok = True
    for name, builder in builders.items():
        raw = builder()
        merged = merge_pipeline_ops(raw)
        reports = [lint_graph(raw), lint_graph(merged)]

        s = schedule(merged, cfg=cfg, timeout_ms=timeout_ms)
        sched_status = s.status.value
        if s.starts:
            reports.append(audit_schedule(s, check_memory=bool(s.slots)))
            if s.slots:
                reports.append(audit_program(generate(s), s))

        m = modulo_schedule(
            merged,
            cfg=cfg,
            include_reconfigs=include_reconfigs,
            timeout_ms=modulo_timeout_ms,
        )
        modulo_status = m.status.value
        if m.found:
            reports.append(audit_modulo(m, merged, cfg))

        kernel_ok = all(r.ok for r in reports)
        all_ok = all_ok and kernel_ok
        results.append({
            "kernel": name,
            "ok": kernel_ok,
            "schedule_status": sched_status,
            "makespan": s.makespan,
            "modulo_status": modulo_status,
            "modulo_ii": m.actual_ii if m.found else -1,
            "n_errors": sum(len(r.errors) for r in reports),
            "n_warnings": sum(len(r.warnings) for r in reports),
            "reports": [r.as_dict() for r in reports],
        })

    return {
        "kernels": sorted(builders),
        "include_reconfigs": include_reconfigs,
        "ok": all_ok,
        "results": results,
    }


def print_audit(payload: Dict[str, object]) -> str:
    """Human rendering of an :func:`audit_kernels` payload."""
    rows = []
    findings: List[str] = []
    for r in payload["results"]:  # type: ignore[index]
        rows.append([
            r["kernel"],
            "clean" if r["ok"] else "FAIL",
            r["schedule_status"],
            r["makespan"],
            r["modulo_ii"],
            r["n_errors"],
            r["n_warnings"],
        ])
        for rep in r["reports"]:
            for d in rep["diagnostics"]:
                loc = ", ".join(
                    str(v) for v in (d["node"], d["cycle"], d["slot"])
                    if v is not None
                )
                findings.append(
                    f"  {r['kernel']}/{rep['pass']}: {d['code']} "
                    f"{d['severity']}: {d['message']}"
                    + (f" ({loc})" if loc else "")
                )
    table = format_table(
        ["kernel", "audit", "schedule", "makespan", "actual II",
         "errors", "warnings"],
        rows,
    )
    verdict = "AUDIT CLEAN" if payload["ok"] else "AUDIT FAILED"
    body = table + "\n" + verdict
    if findings:
        body += "\n" + "\n".join(findings)
    return body


# ----------------------------------------------------------------------
# Static bounds + certificate verification over the shipped kernels
# ----------------------------------------------------------------------
def bounds_report(
    kernels: Sequence[str] = ("qrd", "arf", "matmul", "backsub"),
    timeout_ms: float = 60_000.0,
    modulo_timeout_ms: float = 60_000.0,
    include_reconfigs: bool = False,
    cfg: EITConfig = DEFAULT_CONFIG,
) -> Dict[str, object]:
    """Exercise the pre-solve bounds engine on every shipped kernel.

    For each kernel this derives the energetic lower-bound set and the
    memory pigeonhole, CP-schedules and modulo-schedules the kernel,
    reports the gap between the static bounds and the achieved
    makespan/II, and re-verifies every emitted certificate through the
    *independent* :mod:`repro.analysis.certify` arithmetic.  The
    payload's ``ok`` is True iff every certificate re-verifies clean —
    the acceptance bar for the CI ``bounds`` job.
    """
    from repro.analysis import verify_certificate
    from repro.analysis.bounds import makespan_lower_bound, memory_precheck
    from repro.sched.modulo import resource_lower_bound

    results: List[Dict[str, object]] = []
    all_ok = True
    for name in kernels:
        g = prepared(name)
        bounds = makespan_lower_bound(g, cfg)
        mem_cert = memory_precheck(g, cfg)
        mii = resource_lower_bound(g, cfg, include_reconfigs)

        s = schedule(g, cfg=cfg, timeout_ms=timeout_ms)
        m = modulo_schedule(
            g,
            cfg,
            include_reconfigs=include_reconfigs,
            timeout_ms=modulo_timeout_ms,
        )

        reports = []
        for cert, value, reconfigs in (
            (mem_cert, None, False),
            (s.certificate, s.makespan if s.starts else None, False),
            (m.certificate, m.ii if m.found else None, include_reconfigs),
        ):
            if cert is not None:
                reports.append(
                    verify_certificate(
                        cert,
                        g,
                        cfg,
                        result_value=value,
                        include_reconfigs=reconfigs,
                    )
                )
        kernel_ok = all(r.ok for r in reports)
        all_ok = all_ok and kernel_ok
        results.append({
            "kernel": name,
            "ok": kernel_ok,
            "bounds": bounds.as_dict(),
            "memory_precheck": (
                mem_cert.as_dict() if mem_cert is not None else None
            ),
            "schedule_status": s.status.value,
            "makespan": s.makespan,
            "lb": bounds.value,
            "gap": (s.makespan - bounds.value) if s.starts else None,
            "schedule_certificate": (
                s.certificate.as_dict() if s.certificate is not None else None
            ),
            "nodes": s.search_stats.nodes if s.search_stats else 0,
            "modulo_status": m.status.value,
            "modulo_ii": m.ii if m.found else -1,
            "mii": mii,
            "ii_gap": (m.ii - mii) if m.found else None,
            "modulo_certificate": (
                m.certificate.as_dict() if m.certificate is not None else None
            ),
            "n_certificates": len(reports),
            "reports": [r.as_dict() for r in reports],
        })

    return {
        "kernels": list(kernels),
        "include_reconfigs": include_reconfigs,
        "ok": all_ok,
        "results": results,
    }


def print_bounds(payload: Dict[str, object]) -> str:
    """Human rendering of a :func:`bounds_report` payload."""
    rows = []
    findings: List[str] = []
    for r in payload["results"]:  # type: ignore[index]
        fam = r["bounds"]["family"]
        rows.append([
            r["kernel"],
            "ok" if r["ok"] else "FAIL",
            f"{r['lb']} ({fam})",
            r["makespan"],
            "-" if r["gap"] is None else r["gap"],
            "yes" if r["schedule_certificate"] else "no",
            r["mii"],
            r["modulo_ii"],
            "-" if r["ii_gap"] is None else r["ii_gap"],
            "yes" if r["modulo_certificate"] else "no",
        ])
        for rep in r["reports"]:
            for d in rep["diagnostics"]:
                findings.append(
                    f"  {r['kernel']}/{rep['pass']}: {d['code']} "
                    f"{d['severity']}: {d['message']}"
                )
    table = format_table(
        ["kernel", "verify", "static LB", "makespan", "gap", "cert",
         "MII", "II", "II gap", "cert"],
        rows,
    )
    verdict = (
        "ALL CERTIFICATES VERIFIED"
        if payload["ok"]
        else "CERTIFICATE VERIFICATION FAILED"
    )
    body = table + "\n" + verdict
    if findings:
        body += "\n" + "\n".join(findings)
    return body


def passes_report(
    kernels: Sequence[str] = ("qrd", "arf", "matmul", "backsub"),
    timeout_ms: float = 60_000.0,
    cfg: EITConfig = DEFAULT_CONFIG,
) -> Dict[str, object]:
    """Exercise the certified IR pass pipeline on every shipped kernel.

    For each kernel this runs :func:`repro.ir.optimize_graph` through
    the default pipeline, re-verifies the full certificate chain and
    the semantic equivalence of the optimized graph through the
    *independent* :mod:`repro.analysis.equivalence` checker, and
    CP-schedules both versions to report the search-node delta the
    optimization buys.  The payload's ``ok`` is True iff every chain
    verifies clean (equivalence included) and no optimized schedule is
    worse than its unoptimized twin — the acceptance bar for the CI
    ``passes`` job.
    """
    from repro.analysis.equivalence import verify_pipeline
    from repro.ir import optimize_graph

    results: List[Dict[str, object]] = []
    all_ok = True
    for name in kernels:
        g = prepared(name)
        opt = optimize_graph(g)
        report = verify_pipeline(opt.certificates, g, opt.graph)

        s_base = schedule(g, cfg=cfg, timeout_ms=timeout_ms)
        s_opt = schedule(opt.graph, cfg=cfg, timeout_ms=timeout_ms)
        nodes_base = s_base.search_stats.nodes if s_base.search_stats else 0
        nodes_opt = s_opt.search_stats.nodes if s_opt.search_stats else 0

        makespan_ok = (
            not s_base.starts or not s_opt.starts
            or s_opt.makespan <= s_base.makespan
        )
        kernel_ok = report.ok and opt.report.ok and makespan_ok
        all_ok = all_ok and kernel_ok
        results.append({
            "kernel": name,
            "ok": kernel_ok,
            "ir_nodes_before": g.n_nodes(),
            "ir_nodes_after": opt.graph.n_nodes(),
            "nodes_removed": opt.nodes_removed,
            "passes_applied": [c.pass_name for c in opt.certificates],
            "n_certificates": len(opt.certificates),
            "rounds": opt.rounds,
            "certificates": [c.as_dict() for c in opt.certificates],
            "verify_ok": report.ok,
            "verify_report": report.as_dict(),
            "preflight_report": opt.report.as_dict(),
            "makespan_base": s_base.makespan if s_base.starts else None,
            "makespan_opt": s_opt.makespan if s_opt.starts else None,
            "solver_nodes_base": nodes_base,
            "solver_nodes_opt": nodes_opt,
            "solver_nodes_delta": nodes_base - nodes_opt,
        })

    return {
        "kernels": list(kernels),
        "ok": all_ok,
        "results": results,
    }


def print_passes(payload: Dict[str, object]) -> str:
    """Human rendering of a :func:`passes_report` payload."""
    rows = []
    findings: List[str] = []
    for r in payload["results"]:  # type: ignore[index]
        applied = ",".join(r["passes_applied"]) or "-"
        rows.append([
            r["kernel"],
            "ok" if r["ok"] else "FAIL",
            f"{r['ir_nodes_before']}->{r['ir_nodes_after']}",
            r["nodes_removed"],
            applied,
            r["n_certificates"],
            "ok" if r["verify_ok"] else "FAIL",
            "-" if r["makespan_base"] is None else r["makespan_base"],
            "-" if r["makespan_opt"] is None else r["makespan_opt"],
            r["solver_nodes_base"],
            r["solver_nodes_opt"],
            r["solver_nodes_delta"],
        ])
        for d in r["verify_report"]["diagnostics"]:
            findings.append(
                f"  {r['kernel']}: {d['code']} "
                f"{d['severity']}: {d['message']}"
            )
    table = format_table(
        ["kernel", "status", "|V|", "removed", "passes", "certs",
         "verify", "mk", "mk'", "CP nodes", "CP nodes'", "delta"],
        rows,
    )
    verdict = (
        "ALL PASS CERTIFICATES VERIFIED"
        if payload["ok"]
        else "PASS VERIFICATION FAILED"
    )
    body = table + "\n" + verdict
    if findings:
        body += "\n" + "\n".join(findings)
    return body


def sanitize_report(
    kernels: Sequence[str] = ("qrd", "arf", "matmul", "backsub"),
    fingerprint_kernels: Sequence[str] = ("qrd", "backsub"),
    timeout_ms: float = 120_000.0,
    cfg: EITConfig = DEFAULT_CONFIG,
    sweep_every: int = 16,
    jobs: int = 2,
) -> Dict[str, object]:
    """Clean-kernel sweep under the propagator contract sanitizer.

    Three checked claims, one payload (the CI ``sanitize`` gate):

    1. every shipped kernel schedules under ``sanitize=True`` with zero
       SAN7xx diagnostics, and the sanitized search is *bit-identical*
       to the plain one (equal decision-trace fingerprints — the probes
       observe, they must not steer);
    2. the racing modulo scheduler is deterministic: for the
       ``fingerprint_kernels`` the parallel winner's decision trace
       equals the sequential ladder's (SAN707 fingerprint equality);
    3. the SAN source lint reports no findings beyond the checked-in
       baseline, and no baseline entry is stale.

    ``sweep_every`` dials down the all-propagator fixpoint sweep, the
    dominant sanitize cost on node-heavy kernels; every other check
    still runs at full rate.  The per-kernel rows carry the sanitizer's
    check counters, the per-constraint-class propagation breakdown and
    the sanitize-on/off wall-clock ratio as bench telemetry.
    """
    from repro.analysis.diagnostics import AuditError
    from repro.analysis.sanitize import (
        SanitizeConfig,
        Sanitizer,
        fingerprint_equality_report,
        lint_against_baseline,
    )

    all_ok = True
    results: List[Dict[str, object]] = []
    for name in kernels:
        g = prepared(name)
        t0 = time.monotonic()
        plain = schedule(g, cfg=cfg, timeout_ms=timeout_ms)
        t_plain = (time.monotonic() - t0) * 1000.0

        san = Sanitizer(
            SanitizeConfig(sweep_every=sweep_every),
            subject=f"bench:{name}",
        )
        t0 = time.monotonic()
        try:
            sanitized = schedule(
                g, cfg=cfg, timeout_ms=timeout_ms, sanitize=san
            )
        except AuditError:
            sanitized = None
        t_san = (time.monotonic() - t0) * 1000.0

        steer = fingerprint_equality_report(
            name,
            {
                "plain": (
                    plain.search_stats.trace_fingerprint
                    if plain.search_stats else None
                ),
                "sanitized": (
                    sanitized.search_stats.trace_fingerprint
                    if sanitized is not None and sanitized.search_stats
                    else None
                ),
            },
        )
        kernel_ok = (
            san.report.ok
            and sanitized is not None
            and steer.ok
            and sanitized.makespan == plain.makespan
        )
        all_ok = all_ok and kernel_ok
        stats = sanitized.search_stats if sanitized is not None else None
        results.append({
            "kernel": name,
            "ok": kernel_ok,
            "status": plain.status.value,
            "makespan": plain.makespan if plain.starts else None,
            "time_plain_ms": t_plain,
            "time_sanitize_ms": t_san,
            "overhead_x": (t_san / t_plain) if t_plain > 0 else None,
            "n_findings": len(san.report),
            "sanitizer": san.as_dict(),
            "search_identical": steer.ok,
            "propagations_by_class": (
                dict(stats.propagations_by_class) if stats else {}
            ),
        })

    fingerprint_results: List[Dict[str, object]] = []
    for name in fingerprint_kernels:
        g = prepared(name)
        seq = modulo_schedule(g, cfg, timeout_ms=timeout_ms)
        par = modulo_schedule(g, cfg, timeout_ms=timeout_ms, jobs=jobs)
        rep = fingerprint_equality_report(
            name,
            {
                "sequential": seq.decision_fingerprint,
                f"jobs={jobs}": par.decision_fingerprint,
            },
        )
        fp_ok = rep.ok and par.ii == seq.ii and par.offsets == seq.offsets
        all_ok = all_ok and fp_ok
        fingerprint_results.append({
            "kernel": name,
            "ok": fp_ok,
            "ii": seq.ii,
            "fingerprint": seq.decision_fingerprint,
            "report": rep.as_dict(),
        })

    lint_rep, lint_new, lint_stale = lint_against_baseline()
    lint_ok = not lint_new and not lint_stale
    all_ok = all_ok and lint_ok

    return {
        "kernels": list(kernels),
        "ok": all_ok,
        "sweep_every": sweep_every,
        "results": results,
        "fingerprints": fingerprint_results,
        "lint": {
            "ok": lint_ok,
            "n_findings": len(lint_rep),
            "n_new": len(lint_new),
            "stale_baseline": lint_stale,
            "report": lint_rep.as_dict(),
        },
    }


def print_sanitize(payload: Dict[str, object]) -> str:
    """Human rendering of a :func:`sanitize_report` payload."""
    rows = []
    findings: List[str] = []
    for r in payload["results"]:  # type: ignore[index]
        checks = r["sanitizer"]["checks"]
        rows.append([
            r["kernel"],
            "ok" if r["ok"] else "FAIL",
            "-" if r["makespan"] is None else r["makespan"],
            f"{r['time_plain_ms']:.0f}",
            f"{r['time_sanitize_ms']:.0f}",
            "-" if r["overhead_x"] is None else f"{r['overhead_x']:.1f}x",
            checks["narrowings"],
            checks["fixpoint_sweeps"],
            checks["idempotence_reruns"],
            checks["brute_force_failures"],
            "yes" if r["search_identical"] else "NO",
        ])
        for d in r["sanitizer"]["report"]["diagnostics"]:
            findings.append(
                f"  {r['kernel']}: {d['code']} {d['severity']}: "
                f"{d['message']}"
            )
    table = format_table(
        ["kernel", "status", "mk", "plain ms", "san ms", "ovh",
         "narrow", "sweeps", "idem", "brute", "identical"],
        rows,
    )
    fp_rows = [
        [
            f["kernel"],
            "ok" if f["ok"] else "FAIL",
            f["ii"],
            (f["fingerprint"] or "-")[:16],
        ]
        for f in payload["fingerprints"]  # type: ignore[index]
    ]
    fp_table = format_table(
        ["kernel", "seq==par", "ii", "fingerprint"], fp_rows
    )
    lint = payload["lint"]  # type: ignore[index]
    lint_line = (
        f"source lint: {lint['n_findings']} finding(s), "
        f"{lint['n_new']} new, {len(lint['stale_baseline'])} stale "
        f"baseline entr{'y' if len(lint['stale_baseline']) == 1 else 'ies'}"
    )
    verdict = (
        "SANITIZE SWEEP CLEAN" if payload["ok"] else "SANITIZE SWEEP FAILED"
    )
    body = "\n".join([table, "", fp_table, "", lint_line, verdict])
    if findings:
        body += "\n" + "\n".join(findings)
    return body


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------
def fig3_ir() -> Tuple[Graph, str]:
    """Figure 3: the IR of listing 1, as a graph + DOT rendering."""
    g = build_matmul()
    return g, to_dot(g, "figure 3: IR of listing 1 (matmul)")


def fig45_expansion() -> Dict[str, Tuple[int, int, int]]:
    """Figures 4-5: one matrix op vs its 4-vector + merge expansion.

    Returns graph stats before and after expanding the ``m_squsum`` of a
    small kernel, showing the node-count increase the matrix form avoids.
    """
    from repro.dsl import EITMatrix, EITVector, trace

    with trace("fig4") as t:
        rows = [EITVector(i + 1, i + 2, i + 3, i + 4) for i in range(4)]
        A = EITMatrix(*rows)
        A.squsum()
    g_matrix = t.graph
    node = next(o for o in g_matrix.op_nodes() if o.op.name == "m_squsum")
    g_vector = matrix_op_to_vector_ops(g_matrix, node, inplace=False)
    return {
        "matrix_form": stats(g_matrix).as_tuple(),
        "vector_form": stats(g_vector).as_tuple(),
    }


def fig6_merging(kernel: str = "qrd") -> Dict[str, Tuple[int, int, int]]:
    """Figure 6 / section 3.3.1: effect of the pipeline merging pass."""
    g = KERNELS[kernel]()
    merged = merge_pipeline_ops(g)
    return {
        "before": stats(g).as_tuple(),
        "after": stats(merged).as_tuple(),
        "merged_nodes": (  # type: ignore[dict-item]
            sum(1 for o in merged.op_nodes() if o.merged_from),
        ),
    }


def fig8_memory() -> Dict[str, Tuple[List[int], bool, str]]:
    """Figure 8: which of the example matrices is single-cycle accessible."""
    out = {}
    for name, (slots, chk) in figure8_examples().items():
        out[name] = (slots, bool(chk), chk.reason)
    return out
