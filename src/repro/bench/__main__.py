"""CLI: regenerate any of the paper's exhibits.

Usage::

    python -m repro.bench table1 [--sizes 64,32,16,10] [--timeout 60]
    python -m repro.bench table2 [--iterations 12]
    python -m repro.bench table3 [--kernels qrd,arf,matmul] [--timeout 600]
    python -m repro.bench fig3 | fig45 | fig6 | fig8
    python -m repro.bench profile [--profile-kernel qrd] [--out stats.json]
    python -m repro.bench explore [--kernels qrd,arf,matmul] [--jobs 4] \
                                  [--no-cache] [--cache-dir DIR] \
                                  [--out BENCH_explore.json]
    python -m repro.bench audit [--kernels qrd,arf,matmul,backsub] \
                                [--synth 2] [--json] [--out AUDIT.json]
    python -m repro.bench bounds [--kernels qrd,arf,matmul,backsub] \
                                 [--json] [--out BOUNDS.json]
    python -m repro.bench passes [--kernels qrd,arf,matmul,backsub] \
                                 [--json] [--out PASSES.json]
    python -m repro.bench sanitize [--kernels qrd,arf,matmul,backsub] \
                                   [--json] [--out BENCH_sanitize.json]
    python -m repro.bench all

Every report (``profile``, ``explore``, ``audit``, ``bounds``,
``passes``, ``sanitize``) takes ``--json`` (print the payload instead of
its text view) and ``--out FILE`` (write the payload), and exits nonzero
when its payload says ``"ok": false``.  ``--kernels`` is passed through
as given; the bracketed lists above are the defaults.

``audit`` runs every static-analysis pass (IR lint, schedule/memory
audit, codegen hazard check, modulo audit) over the shipped kernels and
exits nonzero if any error-severity diagnostic is reported — the CI
gate that the solver's output verifies against the paper's equations.

``bounds`` exercises the pre-solve bounds engine: it derives the
energetic lower-bound set for every shipped kernel, solves flat and
modulo schedules, reports bound-vs-achieved gaps, and re-verifies every
emitted optimality/infeasibility certificate through the independent
checker — exiting nonzero if any certificate fails to re-derive.

``passes`` exercises the certified IR optimization pipeline: it
optimizes every shipped kernel, re-verifies the full pass-certificate
chain and the seeded semantic-equivalence check through the
independent verifier, and reports the IR node reduction and CP
search-node delta — exiting nonzero on any verification failure.

``sanitize`` runs the clean-kernel sweep under the propagator contract
sanitizer (every solve checked for SAN7xx violations and proved
bit-identical to the unsanitized search), proves sequential-vs-parallel
decision-fingerprint equality for the racing modulo scheduler, and
gates the SAN source lint against its checked-in baseline — exiting
nonzero on any finding.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.harness import (
    audit_kernels,
    bounds_report,
    explore_bench,
    fig3_ir,
    fig45_expansion,
    fig6_merging,
    fig8_memory,
    passes_report,
    print_audit,
    print_bounds,
    print_passes,
    print_sanitize,
    sanitize_report,
    print_explore,
    print_table1,
    print_table2,
    print_table3,
    profile_solver,
    table1_memory_sweep,
    table2_overlap,
    table3_modulo,
)


#: default ``--kernels`` of the paper exhibits and of the gates
PAPER_KERNELS = "qrd,arf,matmul"
ALL_KERNELS = "qrd,arf,matmul,backsub"


def _ms(args: argparse.Namespace) -> float:
    return args.timeout * 1000


def _kernels(args: argparse.Namespace, default: str) -> List[str]:
    return (args.kernels or default).split(",")


#: text exhibits (``all`` runs these, in this order): name -> text
EXHIBITS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "table1": lambda a: print_table1(*table1_memory_sweep(
        sizes=[int(s) for s in a.sizes.split(",")], timeout_ms=_ms(a)
    )),
    "table2": lambda a: print_table2(table2_overlap(
        n_iterations=a.iterations, timeout_ms=_ms(a)
    )),
    "table3": lambda a: print_table3(table3_modulo(
        kernels=_kernels(a, PAPER_KERNELS), timeout_ms=_ms(a)
    )),
    "fig3": lambda a: fig3_ir()[1],
    "fig45": lambda a: "\n".join(
        f"{k}: (|V|, |E|, |Cr.P|) = {v}" for k, v in fig45_expansion().items()
    ),
    "fig6": lambda a: "\n".join(f"{k}: {v}" for k, v in fig6_merging().items()),
    "fig8": lambda a: "\n".join(
        f"matrix {name}: slots {slots}: "
        + ("1-cycle accessible" if ok else f"NOT accessible ({reason})")
        for name, (slots, ok, reason) in fig8_memory().items()
    ),
}

#: JSON reports: name -> (payload builder, text view; None = the JSON).
#: ``--json`` prints the payload, ``--out`` writes it, and a payload
#: with ``"ok": false`` makes the exit code 1.
REPORTS: Dict[str, Tuple[Callable[[argparse.Namespace], dict],
                         Optional[Callable[[dict], str]]]] = {
    "profile": (
        lambda a: profile_solver(kernel=a.profile_kernel, timeout_ms=_ms(a)),
        None,
    ),
    "explore": (
        lambda a: explore_bench(
            kernels=_kernels(a, PAPER_KERNELS),
            jobs=a.jobs,
            use_cache=not a.no_cache,
            cache_dir=a.cache_dir,
            timeout_ms=_ms(a),
            modulo_timeout_ms=_ms(a),
            optimize=a.optimize,
        ),
        print_explore,
    ),
    "audit": (
        lambda a: audit_kernels(
            kernels=_kernels(a, ALL_KERNELS),
            timeout_ms=_ms(a),
            modulo_timeout_ms=_ms(a),
            include_reconfigs=a.include_reconfigs,
            n_synth=a.synth,
        ),
        print_audit,
    ),
    "bounds": (
        lambda a: bounds_report(
            kernels=_kernels(a, ALL_KERNELS),
            timeout_ms=_ms(a),
            modulo_timeout_ms=_ms(a),
            include_reconfigs=a.include_reconfigs,
        ),
        print_bounds,
    ),
    "passes": (
        lambda a: passes_report(
            kernels=_kernels(a, ALL_KERNELS), timeout_ms=_ms(a)
        ),
        print_passes,
    ),
    "sanitize": (
        lambda a: sanitize_report(
            kernels=_kernels(a, ALL_KERNELS),
            timeout_ms=_ms(a),
            jobs=max(a.jobs, 2),
        ),
        print_sanitize,
    ),
}


def _run_report(name: str, args: argparse.Namespace) -> int:
    build, render = REPORTS[name]
    payload = build(args)
    text = json.dumps(payload, indent=2)
    if args.json or (render is None and not args.out):
        print(text)
    elif render is not None:
        print(render(payload))
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
        print(f"wrote {args.out}")
    return 1 if payload.get("ok") is False else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="python -m repro.bench")
    p.add_argument("experiment", choices=[*EXHIBITS, *REPORTS, "all"])
    p.add_argument("--sizes", default="64,32,16,10",
                   help="memory sizes for table1 (comma-separated)")
    p.add_argument("--iterations", type=int, default=12,
                   help="overlap factor M for table2")
    p.add_argument("--kernels", default=None,
                   help=f"comma-separated kernels (default {PAPER_KERNELS} "
                        f"for table3/explore, {ALL_KERNELS} for "
                        f"audit/bounds/passes/sanitize)")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="solver budget per experiment, seconds")
    p.add_argument("--profile-kernel", default="qrd",
                   help="kernel for the profile experiment")
    p.add_argument("--out", default=None,
                   help="write a report's JSON payload here")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the explore sweep")
    p.add_argument("--optimize", action="store_true",
                   help="run the certified IR pass pipeline before "
                        "scheduling (explore sweep)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the content-addressed schedule cache")
    p.add_argument("--cache-dir", default=None,
                   help="persist the schedule cache to this directory")
    p.add_argument("--synth", type=int, default=0,
                   help="append N seeded synthetic kernels to the audit")
    p.add_argument("--include-reconfigs", action="store_true",
                   help="audit modulo schedules with in-model "
                        "reconfigurations (much slower solves)")
    p.add_argument("--json", action="store_true",
                   help="emit a report's payload as JSON on stdout")
    args = p.parse_args(argv)

    rc = 0
    todo = list(EXHIBITS) if args.experiment == "all" else [args.experiment]
    for exp in todo:
        print(f"=== {exp} ===")
        if exp in EXHIBITS:
            print(EXHIBITS[exp](args))
        else:
            rc = max(rc, _run_report(exp, args))
        print()
    return rc


if __name__ == "__main__":
    sys.exit(main())
