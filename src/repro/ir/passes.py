"""Certified IR optimization pipeline (the pass manager).

:func:`optimize_graph` runs a configurable sequence of rewrite passes
over a *copy* of an IR graph and returns the optimized graph together
with one frozen :class:`~repro.analysis.equivalence.PassCertificate`
per graph-changing pass application.  The passes:

``dce``
    dead-node elimination — everything the liveness analysis proves
    cannot reach a kernel output is removed;
``const-fold``
    operations whose operands are all compile-time constants
    (``const``-marked inputs, transitively) are evaluated with the
    reference DSL semantics and replaced by constant inputs;
``algebraic``
    identity simplification: add-zero, sub-zero, mul-one, scale-one and
    ``axpy`` with a zero coefficient become copy-throughs;
``cse``
    fixpoint common-subexpression elimination
    (:func:`repro.ir.transform.common_subexpression_elimination`).

The manager is deliberately *untrusted*: certificates are claims, and
:mod:`repro.analysis.equivalence` re-derives every one of them from the
graphs alone — structural fingerprints, node arithmetic, independent IR
lint and differential evaluation — without importing this module.  The
pre-flight gate runs the structural linter, the dataflow linter and the
pipeline-merge legality check first; a graph with ERROR-severity
findings is returned unchanged (no certificates), because rewriting a
malformed graph proves nothing.

Required outputs (declared via ``TraceContext.output()``, else the
computed consumer-less data) are *protected*: no pass may remove or
rename them, so the optimized kernel always answers for the same
outputs as the original.

Import discipline: this module sits at the top of :mod:`repro.ir` and
pulls :mod:`repro.analysis` only lazily inside functions — the analysis
package imports the scheduling stack, which imports :mod:`repro.ir`
back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.ir.graph import DataNode, Graph, OpNode
from repro.ir.transform import common_subexpression_elimination

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.diagnostics import DiagnosticReport
    from repro.analysis.equivalence import PassCertificate

#: a pass mutates the graph in place and reports what it did (None = no-op)
PassFn = Callable[[Graph, Set[str]], Optional[str]]

#: the default pipeline; ``dce`` runs last so it sweeps up the operand
#: chains orphaned by folding, simplification and CSE.
DEFAULT_PIPELINE: Tuple[str, ...] = ("const-fold", "algebraic", "cse", "dce")


# ----------------------------------------------------------------------
# The passes
# ----------------------------------------------------------------------
def _pass_dce(g: Graph, protected: Set[str]) -> Optional[str]:
    from repro.analysis.dataflow import liveness

    live = liveness(g)
    dead = [
        n for n in list(g.nodes())
        if n.nid not in live and n.name not in protected
    ]
    for n in dead:
        g.remove_node(n)
    return f"removed {len(dead)} dead node(s)" if dead else None


def _pass_const_fold(g: Graph, protected: Set[str]) -> Optional[str]:
    from repro.analysis.dataflow import constant_values

    consts = constant_values(g)
    folded = 0
    for op in list(g.op_nodes()):
        if op.nid not in consts:
            continue
        out = g.succs(op)[0]  # the analysis only marks single-output ops
        consumers = g.succs(out)
        if consumers and all(c.nid in consts for c in consumers):
            continue  # an outer const op will fold this whole subtree
        if not consumers and out.name not in protected:
            continue  # orphaned mid-pass: DCE's job, nothing to keep
        value = consts[out.nid]
        g.remove_node(op)
        out.value = value
        out.attrs["const"] = True
        folded += 1
    return f"folded {folded} constant op(s)" if folded else None


def _is_zero(value: Any) -> bool:
    if isinstance(value, tuple):
        return all(_is_zero(v) for v in value)
    return bool(value == 0)


def _is_one(value: Any) -> bool:
    if isinstance(value, tuple):
        return all(_is_one(v) for v in value)
    return bool(value == 1)


_SENTINEL = object()


def _identity_operand(
    op: OpNode, operands: List[DataNode], consts: Dict[int, Any]
) -> Optional[DataNode]:
    """The operand the op copies through, or None when no identity fires."""

    def const(i: int) -> Any:
        return consts.get(operands[i].nid, _SENTINEL)

    name = op.op.name
    if name in ("v_add", "s_add"):
        if const(0) is not _SENTINEL and _is_zero(const(0)):
            return operands[1]
        if const(1) is not _SENTINEL and _is_zero(const(1)):
            return operands[0]
    elif name in ("v_sub", "s_sub"):
        if const(1) is not _SENTINEL and _is_zero(const(1)):
            return operands[0]
    elif name in ("v_mul", "s_mul"):
        if const(0) is not _SENTINEL and _is_one(const(0)):
            return operands[1]
        if const(1) is not _SENTINEL and _is_one(const(1)):
            return operands[0]
    elif name == "v_scale":
        if const(1) is not _SENTINEL and _is_one(const(1)):
            return operands[0]
    elif name in ("v_axpy", "v_axmy"):
        # (a, x, y) -> a*x + y  /  y - a*x: a == 0 copies y through
        if const(0) is not _SENTINEL and _is_zero(const(0)):
            return operands[2]
    return None


def _pass_algebraic(g: Graph, protected: Set[str]) -> Optional[str]:
    from repro.analysis.dataflow import constant_values

    consts = constant_values(g)
    rewritten = 0
    for op in list(g.op_nodes()):
        if g.out_degree(op) != 1 or op.merged_from:
            continue
        out = g.succs(op)[0]
        assert isinstance(out, DataNode)
        if g.out_degree(out) == 0 or out.attrs.get("output"):
            continue  # the result is (or may be) a kernel output: keep it
        if out.name in protected:
            continue
        operands = [p for p in g.preds(op) if isinstance(p, DataNode)]
        src = _identity_operand(op, operands, consts)
        if src is None:
            continue
        for consumer in list(g.succs(out)):
            g.redirect_source(out, consumer, src)
        g.remove_node(out)
        g.remove_node(op)
        rewritten += 1
    return f"simplified {rewritten} identity op(s)" if rewritten else None


def _pass_cse(g: Graph, protected: Set[str]) -> Optional[str]:
    n0 = g.n_nodes()
    common_subexpression_elimination(g, inplace=True, protect=protected)
    removed = n0 - g.n_nodes()
    return f"merged {removed // 2} duplicate op(s)" if removed else None


PASS_REGISTRY: Dict[str, PassFn] = {
    "dce": _pass_dce,
    "const-fold": _pass_const_fold,
    "algebraic": _pass_algebraic,
    "cse": _pass_cse,
}


def pipeline_signature(passes: Optional[Sequence[str]] = None) -> str:
    """The cache-key component naming one pass configuration.

    Folding this into :func:`repro.cache.cache_key`'s options keeps
    optimized and unoptimized solves (and differently-optimized solves)
    from ever colliding in the schedule cache.
    """
    names = tuple(passes) if passes is not None else DEFAULT_PIPELINE
    for name in names:
        if name not in PASS_REGISTRY:
            raise ValueError(f"unknown pass {name!r}")
    return "+".join(names)


# ----------------------------------------------------------------------
# The manager
# ----------------------------------------------------------------------
@dataclass
class PassPipelineResult:
    """What :func:`optimize_graph` returns.

    ``graph`` is a rewritten *copy* (the input graph is never mutated);
    ``certificates`` carries one entry per graph-changing pass
    application, chained by fingerprint; ``report`` holds the pre-flight
    lint findings (when it has errors the graph comes back unchanged
    and ``certificates`` is empty).
    """

    graph: Graph
    certificates: Tuple["PassCertificate", ...]
    report: "DiagnosticReport"
    rounds: int
    passes: Tuple[str, ...]

    @property
    def changed(self) -> bool:
        return bool(self.certificates)

    @property
    def nodes_removed(self) -> int:
        return sum(c.node_delta for c in self.certificates)


def optimize_graph(
    graph: Graph,
    passes: Optional[Sequence[str]] = None,
    max_rounds: int = 8,
) -> PassPipelineResult:
    """Run the certified pass pipeline over a copy of ``graph``.

    The pipeline repeats until a full round changes nothing (or
    ``max_rounds`` is hit — a safety stop, not an expected exit: every
    pass only ever shrinks the graph).  Certificates are emitted by
    comparing canonical fingerprints before/after each pass, so a pass
    that fires but produces an isomorphic graph contributes nothing.
    """
    from repro.analysis.dataflow import lint_dataflow
    from repro.analysis.diagnostics import merge_reports
    from repro.analysis.equivalence import certify_rewrite, required_outputs
    from repro.analysis.ir_lint import lint_graph

    names = tuple(passes) if passes is not None else DEFAULT_PIPELINE
    for name in names:
        if name not in PASS_REGISTRY:
            raise ValueError(f"unknown pass {name!r}")

    report = merge_reports(
        "ir-passes", graph.name, [lint_graph(graph), lint_dataflow(graph)]
    )
    if not report.ok:
        return PassPipelineResult(
            graph=graph, certificates=(), report=report, rounds=0,
            passes=names,
        )

    g = graph.copy()
    protected = {d.name for d in required_outputs(g)}
    certificates: List["PassCertificate"] = []
    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        round_changed = False
        for name in names:
            before = g.copy()
            detail = PASS_REGISTRY[name](g, protected)
            if detail is None:
                continue
            cert = certify_rewrite(name, before, g, detail=detail)
            if cert.input_fingerprint == cert.output_fingerprint:
                continue  # cosmetic only: nothing worth certifying
            certificates.append(cert)
            round_changed = True
        if not round_changed:
            break
    return PassPipelineResult(
        graph=g,
        certificates=tuple(certificates),
        report=report,
        rounds=rounds,
        passes=names,
    )


def optimize_for_solve(
    graph: Graph,
    passes: Optional[Sequence[str]] = None,
    audit: bool = False,
) -> PassPipelineResult:
    """The ``optimize=True`` prelude every solve entry point shares.

    Runs :func:`optimize_graph`; a graph the pre-flight lint rejects
    raises :class:`repro.analysis.AuditError` instead of being silently
    scheduled un-optimized.  With ``audit`` the whole certificate chain
    is re-verified first (:func:`repro.analysis.verify_pipeline`,
    including differential-evaluation equivalence).
    """
    from repro.analysis import AuditError, verify_pipeline

    opt = optimize_graph(graph, passes=passes)
    if not opt.report.ok:
        raise AuditError(opt.report)
    if audit:
        chain_report = verify_pipeline(opt.certificates, graph, opt.graph)
        if not chain_report.ok:
            raise AuditError(chain_report)
    return opt


__all__ = [
    "DEFAULT_PIPELINE",
    "PASS_REGISTRY",
    "PassPipelineResult",
    "optimize_for_solve",
    "optimize_graph",
    "pipeline_signature",
]
