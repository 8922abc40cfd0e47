"""Back-substitution kernel: values, shapes, and the full flow."""

import numpy as np
import pytest

from repro.analysis import audit_schedule
from repro.apps import backsub, qrd
from repro.arch.eit import ResourceKind
from repro.codegen import generate
from repro.cp import SolveStatus
from repro.ir import merge_pipeline_ops, stats, validate
from repro.sched import schedule
from repro.sim import simulate


class TestValues:
    def test_solution_matches_numpy(self):
        g = backsub.build()
        x_ref = backsub.reference()
        x_node = next(d for d in g.data_nodes() if d.name == "x")
        assert np.allclose(np.asarray(x_node.value), x_ref, atol=1e-9)

    def test_random_systems(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            R = np.triu(rng.standard_normal((4, 4))
                        + 1j * rng.standard_normal((4, 4)))
            R += 3 * np.eye(4)
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            g = backsub.build(R, y)
            x_node = next(d for d in g.data_nodes() if d.name == "x")
            assert np.allclose(
                R @ np.asarray(x_node.value), y, atol=1e-8
            )

    def test_rejects_non_triangular(self):
        R = np.ones((4, 4))
        with pytest.raises(ValueError, match="triangular"):
            backsub.build(R)

    def test_rejects_zero_pivot(self):
        R = np.triu(np.ones((4, 4)))
        R[2, 2] = 0
        with pytest.raises(ValueError, match="pivot"):
            backsub.build(R)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            backsub.build(np.eye(3))


class TestStructure:
    def test_serial_unit_heavy(self):
        """Back-substitution inverts QRD's resource profile."""
        g = backsub.build()
        validate(g)
        by_res = {}
        for op in g.op_nodes():
            by_res[op.op.resource] = by_res.get(op.op.resource, 0) + 1
        assert by_res.get(ResourceKind.SCALAR_UNIT, 0) > by_res.get(
            ResourceKind.VECTOR_CORE, 0
        )
        assert by_res.get(ResourceKind.INDEX_MERGE, 0) >= 10  # indexes + merge

    def test_dependency_chain(self):
        # x_3 -> x_2 -> x_1 -> x_0 is inherently serial
        g = backsub.build()
        cp = stats(g).critical_path
        assert cp > 20  # several scalar ops deep


class TestFullFlow:
    def test_schedule_and_simulate(self):
        g = merge_pipeline_ops(backsub.build())
        s = schedule(g, timeout_ms=60_000)
        assert s.status is SolveStatus.OPTIMAL
        assert audit_schedule(s).ok
        res = simulate(generate(s))
        assert res.ok and res.mismatches(g) == []

    def test_detection_chain_consistency(self):
        """QRD + backsub solve the same system NumPy does: given the
        references' R and Q^H y, back-substitution recovers x."""
        Q, R = qrd.reference()
        rng = np.random.default_rng(9)
        x_true = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        ext = Q @ R  # the extended matrix
        y_ext = ext @ x_true
        y_rot = Q.conj().T @ y_ext  # R x = Q^H y
        g = backsub.build(R, y_rot)
        x_node = next(d for d in g.data_nodes() if d.name == "x")
        assert np.allclose(np.asarray(x_node.value), x_true, atol=1e-8)
