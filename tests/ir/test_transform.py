"""Rewrite passes: figure-6 merging and figure-4/5 matrix rewrites."""

import numpy as np
import pytest

from repro.arch.isa import OpCategory
from repro.dsl import EITMatrix, EITVector, eval_expr, trace
from repro.ir import (
    matrix_op_to_vector_ops,
    merge_pipeline_ops,
    stats,
    validate,
    vector_ops_to_matrix_op,
)


def pre_core_graph():
    """conj (pre) feeding dotP (core), single consumer."""
    with trace("precore") as t:
        a = EITVector(1 + 1j, 2, 3, 4)
        b = EITVector(1, 1, 1, 1)
        a.conj().dotP(b)
    return t.graph


def core_post_graph():
    with trace("corepost") as t:
        a = EITVector(4, 3, 2, 1)
        b = EITVector(1, 1, 1, 1)
        (a + b).sort()
    return t.graph


class TestMerging:
    def test_pre_core_fuses(self):
        g = merge_pipeline_ops(pre_core_graph())
        validate(g)
        assert len(g.op_nodes()) == 1
        fused = g.op_nodes()[0]
        assert fused.merged_from == ("v_conj", "v_dotP")
        assert fused.op.result_is_scalar

    def test_core_post_fuses(self):
        g = merge_pipeline_ops(core_post_graph())
        fused = [o for o in g.op_nodes() if o.merged_from]
        assert len(fused) == 1
        assert fused[0].merged_from == ("v_add", "v_sort")

    def test_triple_chain_fuses_fully(self):
        with trace() as t:
            a = EITVector(1 + 2j, 0, 0, 0)
            b = EITVector(1, 2, 3, 4)
            (a.conj() + b).sort()  # pre -> core -> post
        g = merge_pipeline_ops(t.graph)
        validate(g)
        assert len(g.op_nodes()) == 1
        assert g.op_nodes()[0].merged_from == ("v_conj", "v_add", "v_sort")

    def test_expr_tree_preserves_semantics(self):
        with trace() as t:
            a = EITVector(1 + 2j, 3 - 1j, 0.5, 2j)
            b = EITVector(2, 1 + 1j, 0, 1)
            expected = a.conj().dotP(b).value
        g = merge_pipeline_ops(t.graph)
        fused = g.op_nodes()[0]
        operand_vals = [p.value for p in g.preds(fused)]
        assert eval_expr(fused.attrs["expr"], operand_vals) == expected

    def test_multi_consumer_blocks_merge(self):
        with trace() as t:
            a = EITVector(1 + 1j, 2, 3, 4)
            b = EITVector(1, 1, 1, 1)
            c = a.conj()  # used twice: cannot fuse
            c.dotP(b)
            c.dotP(b)
        g = merge_pipeline_ops(t.graph)
        assert all(not o.merged_from for o in g.op_nodes())
        assert len(g.op_nodes()) == 3

    def test_merge_does_not_mutate_original(self):
        g = pre_core_graph()
        n = g.n_nodes()
        merge_pipeline_ops(g)
        assert g.n_nodes() == n

    def test_inplace_variant(self):
        g = pre_core_graph()
        out = merge_pipeline_ops(g, inplace=True)
        assert out is g
        assert len(g.op_nodes()) == 1

    def test_merging_reduces_qrd(self):
        from repro.apps import build_qrd

        g = build_qrd()
        merged = merge_pipeline_ops(g)
        assert merged.n_nodes() < g.n_nodes()
        assert stats(merged).critical_path < stats(g).critical_path

    def test_no_double_pre_absorption(self):
        """A node that already contains a PRE must not absorb another."""
        with trace() as t:
            a = EITVector(1 + 1j, 2, 3, 4)
            # conj(conj(a)) . b : only the inner-most pair may fuse with
            # the core op; the other conj stays.
            b = EITVector(1, 1, 1, 1)
            a.conj().conj().dotP(b)
        g = merge_pipeline_ops(t.graph)
        validate(g)
        fused = [o for o in g.op_nodes() if o.merged_from]
        assert len(fused) == 1
        assert sum(1 for n in fused[0].merged_from if n == "v_conj") == 1


class TestMatrixExpansion:
    def squsum_graph(self):
        with trace("fig4") as t:
            rows = [EITVector(i + 1, i + 2, i + 3, i + 4) for i in range(4)]
            EITMatrix(*rows).squsum()
        return t.graph

    def test_fig5_expansion(self):
        g = self.squsum_graph()
        node = next(o for o in g.op_nodes() if o.op.name == "m_squsum")
        out = matrix_op_to_vector_ops(g, node, inplace=False)
        validate(out)
        names = sorted(o.op.name for o in out.op_nodes())
        assert names == ["merge"] + ["v_squsum"] * 4
        # the expansion adds the 4 scalars + merge = more nodes (fig. 5)
        assert out.n_nodes() > g.n_nodes()

    def test_expansion_then_collapse_roundtrip(self):
        g = self.squsum_graph()
        node = next(o for o in g.op_nodes() if o.op.name == "m_squsum")
        expanded = matrix_op_to_vector_ops(g, node, inplace=False)
        collapsed = vector_ops_to_matrix_op(expanded)
        validate(collapsed)
        assert collapsed.n_nodes() == g.n_nodes()
        assert any(o.op.name == "m_squsum" for o in collapsed.op_nodes())

    def test_four_output_matrix_expansion(self):
        with trace() as t:
            rows = [EITVector(i, i, i, i) for i in range(4)]
            A = EITMatrix(*rows)
            A + A
        g = t.graph
        node = next(o for o in g.op_nodes() if o.op.name == "m_add")
        out = matrix_op_to_vector_ops(g, node, inplace=False)
        validate(out)
        assert sum(1 for o in out.op_nodes() if o.op.name == "v_add") == 4
        # no merge needed: each lane writes its own row
        assert not any(o.op.name == "merge" for o in out.op_nodes())

    def test_expand_non_matrix_rejected(self):
        g = pre_core_graph()
        node = g.op_nodes()[0]
        with pytest.raises(ValueError):
            matrix_op_to_vector_ops(g, node)

    def test_collapse_requires_uniform_op(self):
        with trace() as t:
            vs = [EITVector(i, i, i, i) for i in range(4)]
            scalars = [vs[0].squsum(), vs[1].squsum(), vs[2].squsum(),
                       vs[3].dotP(vs[0])]  # one different op
            EITVector(*scalars)
        g = vector_ops_to_matrix_op(t.graph)
        assert not any(
            o.category is OpCategory.MATRIX_OP for o in g.op_nodes()
        )

    def test_collapse_preserves_semantics(self):
        g = self.squsum_graph()
        expect = next(iter(g.outputs())).value
        node = next(o for o in g.op_nodes() if o.op.name == "m_squsum")
        expanded = matrix_op_to_vector_ops(g, node, inplace=False)
        collapsed = vector_ops_to_matrix_op(expanded)
        got = next(iter(collapsed.outputs())).value
        assert got == expect


class TestCSE:
    def test_matmul_halves_dot_products(self):
        from repro.apps import build_matmul
        from repro.ir import common_subexpression_elimination, stats

        g = build_matmul()
        c = common_subexpression_elimination(g)
        validate(c)
        # dotP(A_i, A_j) == dotP(A_j, A_i): 16 -> 10 (diagonal 4 + upper 6)
        assert sum(1 for o in c.op_nodes() if o.op.name == "v_dotP") == 10
        assert stats(c).n_nodes < stats(g).n_nodes

    def test_semantics_preserved(self):
        import numpy as np

        from repro.apps import build_matmul
        from repro.ir import common_subexpression_elimination
        from repro.ir.evaluate import evaluate

        g = build_matmul()
        c = common_subexpression_elimination(g)
        vals = evaluate(c)
        for d in c.data_nodes():
            assert np.allclose(np.asarray(vals[d.nid]), np.asarray(d.value))

    def test_non_commutative_order_respected(self):
        from repro.ir import common_subexpression_elimination

        with trace() as t:
            a = EITVector(1, 2, 3, 4)
            b = EITVector(4, 3, 2, 1)
            a - b
            b - a  # different value: must NOT merge
        c = common_subexpression_elimination(t.graph)
        assert sum(1 for o in c.op_nodes() if o.op.name == "v_sub") == 2

    def test_exact_duplicates_merge(self):
        from repro.ir import common_subexpression_elimination

        with trace() as t:
            a = EITVector(1, 2, 3, 4)
            b = EITVector(4, 3, 2, 1)
            a - b
            a - b
        c = common_subexpression_elimination(t.graph)
        assert sum(1 for o in c.op_nodes() if o.op.name == "v_sub") == 1

    def test_attrs_distinguish(self):
        from repro.ir import common_subexpression_elimination

        with trace() as t:
            v = EITVector(1, 2, 3, 4)
            v[0]
            v[1]  # different index attr: distinct
            v[1]  # duplicate: merges
        c = common_subexpression_elimination(t.graph)
        assert sum(1 for o in c.op_nodes() if o.op.name == "index") == 2

    def test_chained_duplicates_collapse(self):
        from repro.ir import common_subexpression_elimination

        with trace() as t:
            a = EITVector(1, 2, 3, 4)
            b = EITVector(4, 3, 2, 1)
            x1 = (a + b).conj()
            x2 = (a + b).conj()  # whole chain duplicated
        c = common_subexpression_elimination(t.graph)
        assert len(c.op_nodes()) == 2  # one add + one conj survive

    def test_full_flow_after_cse(self):
        """CSE'd graphs still schedule, compile and replay exactly."""
        from repro.apps import build_matmul
        from repro.codegen import generate
        from repro.ir import common_subexpression_elimination
        from repro.analysis import audit_schedule
        from repro.sched import schedule
        from repro.sim import simulate

        g = merge_pipeline_ops(
            common_subexpression_elimination(build_matmul())
        )
        s = schedule(g, timeout_ms=30_000)
        assert audit_schedule(s).ok
        res = simulate(generate(s))
        assert res.ok and res.mismatches(g) == []
