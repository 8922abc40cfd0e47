#!/usr/bin/env python3
"""Time the EIT compiler end to end and per layer, from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-kernels --seed 1 \\
        --seconds 30 --trace 0

Workloads are described in ``perfbench/workloads.py``, metrics in
``BENCHMARK.json`` and both in ``perfbench/README.md``.  One client runs
ops in a closed loop for ``--seconds``, stopping only between whole
rounds, and after at least one.  Each op is checked right after it ran,
outside its timing.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  A traced run alternates
traced and untraced rounds, so it can report the tracing overhead; its
spans are written to ``perfbench/.out/`` at exit.

``setup_s`` is the median of three set-ups (import, operand generation
and one untimed, checked warm-up round): this process's own, and two
more in fresh child processes started after the measurement.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

from calibrate import REF_MS, calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, ".out")
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 150


@dataclass
class LegResult:
    """What the report keeps of a checked leg; the compiled objects go."""

    row: str
    ms: float
    counts: Dict[str, float]
    fingerprint: tuple
    quality: tuple


@dataclass
class Done:
    """One checked op: its wall time, its legs and what the checks found."""

    op_id: int
    traced: bool
    ms: float
    cal_ms: float  # the calibration loop, mean of the runs around the op
    legs: List[LegResult]
    errors: List[str]
    extra: bool = False  # run once after the loop; feeds only its row

    @property
    def scale(self) -> float:
        """Wall ms to ref_ms: the machine's speed when the op ran."""
        return REF_MS / self.cal_ms


def import_workloads():
    """Import the benchmark's workloads against this checkout's sources."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no repro sources under {src}")
    sys.path.insert(0, src)
    import workloads

    return workloads


class Runner:
    """Runs ops one at a time and checks each right after it.

    Each op is bracketed by the calibration loop; its ``cal_ms`` is the
    mean of the runs before and after it (the one after an op is the one
    before the next).  Only a summary of each op is kept.
    """

    def __init__(self, workload):
        self.workload = workload
        #: each row's fingerprint at its first compile in this process;
        #: a later compile that differs fails its op
        self.first: Dict[str, tuple] = {}
        self.cal_ms = calibrate()

    def run(self, tracer: Tracer, op, op_id: int, extra: bool = False) -> Done:
        tracer.op = op_id
        cal_before = self.cal_ms
        t0 = time.perf_counter()
        try:
            with tracer.span("op"):
                legs = op(tracer)
            errors: List[str] = []
        except Exception:  # an op that raises is a failed op, not a crash
            legs, errors = [], [traceback.format_exc()]
        ms = (time.perf_counter() - t0) * 1000.0
        self.cal_ms = calibrate()
        kept = []
        try:
            with tracer.span("analysis.audit"):
                errors += [e for leg in legs for e in leg.errors()]
            for leg in legs:
                fp = leg.fingerprint()
                if self.first.setdefault(leg.row, fp) != fp:
                    errors.append(
                        f"{leg.row}: counts/fingerprints {fp} differ from an "
                        f"earlier compile in this run {self.first[leg.row]}"
                    )
                kept.append(LegResult(leg.row, leg.ms, leg.counts(), fp, leg.quality()))
        except Exception:  # a result the checks cannot read fails its op
            errors.append(traceback.format_exc())
        finally:
            self.workload.cleanup(legs)
        cal_ms = (cal_before + self.cal_ms) / 2.0
        return Done(op_id, tracer.enabled, ms, cal_ms, kept, errors, extra)


def measure(args, runner: Runner) -> tuple:
    """The closed loop.  Returns (ops, the tracer of the traced rounds)."""
    off, on = Tracer(False), Tracer(True)
    done: List[Done] = []
    t_start = time.perf_counter()
    k = 0
    while True:
        kinds = {d.traced for d in done}
        if time.perf_counter() - t_start >= args.seconds and kinds == (
            {False, True} if args.trace else {False}
        ):
            break
        tracer = on if args.trace and k % 2 else off
        for op in runner.workload.next_round():
            done.append(runner.run(tracer, op, len(done)))
        k += 1
    if args.trace:
        for op in runner.workload.extras():
            done.append(runner.run(on, op, len(done), extra=True))
    return done, on


def tail(values: List[float]):
    """The highest percentile with at least ten samples above it.

    Returns (value, percentile, n).  With fewer than 21 samples that
    percentile would lie at or below the median, so the median is
    reported instead (as p50).
    """
    xs, n = sorted(values), len(values)
    if n < 21:
        return statistics.median(xs), 50.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def row_ms(ops: List[Done], traced: bool, ref: bool) -> Dict[str, List[float]]:
    """Leg times per row, in wall ms or (``ref``) in ref_ms."""
    rows: Dict[str, List[float]] = {}
    for d in ops:
        if d.traced == traced and not d.extra:
            for leg in d.legs:
                rows.setdefault(leg.row, []).append(leg.ms * (d.scale if ref else 1.0))
    return rows


def quality(ops: List[Done]) -> tuple:
    """Summed flat makespans and achieved IIs, one leg per row."""
    per_row: Dict[str, tuple] = {}
    for d in ops:
        if not d.errors:
            for leg in d.legs:
                per_row.setdefault(leg.row, leg.quality)
    return (
        sum(q[0] for q in per_row.values()),
        sum(q[1] for q in per_row.values()),
    )


def end_to_end(wl_mod, ops, setup_s, rss_mb) -> Dict[str, float]:
    ms = [d.ms * d.scale for d in ops]
    rows = row_ms(ops, traced=False, ref=True)
    makespan_cc, ii_cc = quality(ops)
    t_value, t_pct, t_n = tail(ms)
    print(f"op_ms.tail is p{t_pct:.1f} of {t_n} op samples")
    return {
        # op time only: the checks between ops are not the compiler's
        "ops_per_s": sum(not d.errors for d in ops) / (sum(ms) / 1000.0),
        "op_ms.p50": statistics.median(ms),
        "op_ms.tail": t_value,
        "op_ms.geomean": wl_mod.geomean(
            [statistics.median(v) for v in rows.values()]
        ),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "makespan_cc": makespan_cc,
        "ii_cc": ii_cc,
    }


def per_layer(wl_mod, ops, tracer) -> Dict[str, float]:
    traced = [d for d in ops if d.traced and not d.extra]
    ids = {d.op_id for d in traced}
    n = len(traced)
    counts: Dict[str, float] = {}
    for d in traced:
        for leg in d.legs:
            for k, v in leg.counts.items():
                counts[k] = counts.get(k, 0.0) + v

    def per_op(key: str) -> float:
        return counts.get(key, 0.0) / n

    def span_ms(name: str) -> float:
        return tracer.total_ms(name, ids) / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: Dict[str, float] = {}
    self_ms = tracer.self_times_ms(ids)
    for name in (
        "op", "dsl.trace", "ir.merge", "ir.passes", "sched.schedule",
        "codegen.generate", "sim.simulate", "sched.modulo", "sim.stream",
        "sched.overlap", "sched.explore.cold", "sched.explore.warm",
        "analysis.audit",
    ):
        out[f"self_ms.{name}"] = self_ms.get(name, 0.0) / n
    for metric, name in (
        ("dsl.trace_ms", "dsl.trace"),
        ("ir.merge_ms", "ir.merge"),
        ("ir.passes_ms", "ir.passes"),
        ("sched.schedule_ms", "sched.schedule"),
        ("sched.modulo_ms", "sched.modulo"),
        ("sched.overlap_ms", "sched.overlap"),
        ("codegen.generate_ms", "codegen.generate"),
        ("sim.simulate_ms", "sim.simulate"),
        ("sim.stream_ms", "sim.stream"),
        ("cache.cold_ms", "sched.explore.cold"),
        ("cache.warm_ms", "sched.explore.warm"),
        ("analysis.audit_ms", "analysis.audit"),
    ):
        out[metric] = span_ms(name)
    for key in (
        "ir.nodes", "ir.nodes_removed", "cp.search_ms", "cp.nodes",
        "cp.failures", "cp.propagations", "sched.modulo.candidates",
        "sched.modulo.budget_cut", "sched.modulo.nodes", "cache.hits",
        "cache.misses", "cache.bound_pruned", "analysis.certified",
        "codegen.instructions", "codegen.reconfigurations",
    ):
        out[key] = per_op(key)
    for cls in wl_mod.PROP_CLASSES + ("other",):
        out[f"cp.prop.{cls}"] = per_op(f"cp.prop.{cls}")
    out["sched.nonsearch_ms"] = (
        out["sched.schedule_ms"] - per_op("sched.flat_search_ms")
    )
    out["cp.nodes_per_s"] = ratio(counts.get("cp.nodes", 0.0), counts.get("cp.search_ms", 0.0) / 1000.0)
    out["cp.fail_ratio"] = ratio(counts.get("cp.failures", 0.0), counts.get("cp.nodes", 0.0))
    out["parallel.busy_ratio"] = ratio(
        counts.get("parallel.solver_ms", 0.0), counts.get("parallel.capacity_ms", 0.0)
    )
    out["sim.cycles_per_s"] = ratio(
        counts.get("sim.cycles", 0.0), tracer.total_ms("sim.simulate", ids) / 1000.0
    )

    untraced = [d for d in ops if not d.traced and not d.extra]
    wall = [d.ms for d in untraced]
    out["wall.ops_per_s"] = sum(not d.errors for d in untraced) / (sum(wall) / 1000.0)
    out["wall.op_ms.p50"] = statistics.median(wall)
    out["wall.op_ms.tail"] = tail(wall)[0]
    out["calib.ms"] = statistics.median(d.cal_ms for d in ops)

    # per-kernel rows, timed on the untraced rounds (extras ran traced)
    untraced_rows = row_ms(ops, traced=False, ref=False)
    for row in ("qrd", "arf", "backsub", "matmul", "matmul-opt", "sweep"):
        legs = [leg for d in ops if d.traced for leg in d.legs if leg.row == row]
        times = untraced_rows.get(row) or [leg.ms for leg in legs]
        out[f"kernel.{row}.op_ms"] = statistics.median(times) if times else 0.0
        out[f"kernel.{row}.nodes"] = legs[0].counts["cp.nodes"] if legs else 0
        out[f"kernel.{row}.propagations"] = (
            legs[0].counts["cp.propagations"] if legs else 0
        )

    # in ref_ms, so a slowdown of the machine between rounds cancels
    traced_rows = row_ms(ops, traced=True, ref=True)
    ref_rows = row_ms(ops, traced=False, ref=True)
    out["trace.overhead_pct"] = 100.0 * (
        ratio(
            wl_mod.geomean([statistics.median(v) for v in traced_rows.values()]),
            wl_mod.geomean([statistics.median(v) for v in ref_rows.values()]),
        )
        - 1.0
    )
    out["trace.bookkeeping_ms"] = tracer.bookkeeping_s * 1000.0 / n
    out["trace.spans"] = sum(1 for s in tracer.spans if s["op"] in ids) / n
    return out


def print_rows(wl_mod, ops: List[Done]) -> None:
    """Each row's median op time and its repeatable counts, one line each."""
    wall, ref = row_ms(ops, False, ref=False), row_ms(ops, False, ref=True)
    print(f"{'row':<11} {'n':>3} {'wall ms':>9} {'ref_ms':>9} {'cp.nodes':>9} "
          f"{'cp.propagations':>16} {'fingerprint':>12} {'baseline nodes':>15}")
    seen = set()
    for d in ops:
        for leg in d.legs:
            if leg.row in seen:
                continue
            seen.add(leg.row)
            c = leg.counts
            base = wl_mod.BASELINE_NODES.get(leg.row)
            match = "" if base is None else (
                f"{base} (same)" if base == c["cp.nodes"] else f"{base} (differs)"
            )
            w = wall.get(leg.row, [leg.ms])  # an extra ran traced, once
            r = ref.get(leg.row, [leg.ms * d.scale])
            print(f"{leg.row:<11} {len(w):>3} {statistics.median(w):>9.1f} "
                  f"{statistics.median(r):>9.1f} {int(c['cp.nodes']):>9} "
                  f"{int(c['cp.propagations']):>16} "
                  f"{leg.fingerprint[3][:12]:>12} {match:>15}")


def probe_setup(args) -> float:
    """Set-up time of a fresh child process running this script."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
        "--setup-probe",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def declared_metrics(kind: str) -> List[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)[kind]


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    wl_mod = import_workloads()
    if args.workload not in wl_mod.WORKLOADS:
        p.error(f"--workload must be one of {sorted(wl_mod.WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        # set-up: operands, then one round untimed (and checked) as warm-up
        runner = Runner(wl_mod.WORKLOADS[args.workload](args.seed, scratch))
        warm = [
            runner.run(Tracer(False), op, -1 - i)
            for i, op in enumerate(runner.workload.next_round())
        ]
        setup_s = time.perf_counter() - T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        ops, tracer = measure(args, runner)
        rss_kb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        if not args.trace:
            setup_s = statistics.median(
                [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for d in warm + ops:
        for e in d.errors:
            print(f"op {d.op_id} FAILED: {e}", file=sys.stderr)
    print_rows(wl_mod, ops)
    if args.trace:
        values = per_layer(wl_mod, ops, tracer)
        declared = declared_metrics("per_layer")
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"))
    else:
        values = end_to_end(wl_mod, ops, setup_s, rss_kb / 1024.0)
        declared = declared_metrics("end_to_end")
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise RuntimeError(
            f"BENCHMARK.json and run.py disagree on metrics: "
            f"{sorted(set(names) ^ set(values))}"
        )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed = sum(bool(d.errors) for d in ops)
    print(json.dumps({
        "correct": failed == 0 and not any(d.errors for d in warm),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
