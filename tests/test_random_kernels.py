"""Property-based whole-flow tests on random kernels.

For arbitrary generated DSL programs, the entire pipeline must uphold
its invariants: structural validity survives merging and XML; the CP
schedule passes the independent verifier; the generated machine code
replays the DSL values bit-exactly on the simulator; and the optimal
makespan never exceeds the greedy list schedule nor undercuts the
critical path.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import audit_program, audit_schedule, lint_graph
from repro.apps.synth import SynthSpec, random_kernel
from repro.codegen import generate
from repro.cp import SolveStatus
from repro.ir import critical_path, from_xml, merge_pipeline_ops, to_xml, validate
from repro.ir.evaluate import evaluate
from repro.sched import greedy_schedule, schedule
from repro.sim import simulate

specs = st.builds(
    SynthSpec,
    n_ops=st.integers(3, 14),
    n_inputs=st.integers(2, 5),
    p_scalar_op=st.floats(0.0, 0.4),
    p_matrix_op=st.floats(0.0, 0.25),
    p_pre_post=st.floats(0.0, 0.4),
    seed=st.integers(0, 10_000),
)

flow_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(specs)
@flow_settings
def test_random_kernel_full_flow(spec):
    g0 = random_kernel(spec)
    validate(g0)

    # XML round-trip preserves structure and values
    g1 = from_xml(to_xml(g0))
    validate(g1)
    assert g1.n_nodes() == g0.n_nodes() and g1.n_edges() == g0.n_edges()

    # merging keeps validity and semantics
    g = merge_pipeline_ops(g1)
    validate(g)
    recomputed = evaluate(g)
    for d in g.data_nodes():
        if d.value is not None:
            assert np.allclose(
                np.asarray(recomputed[d.nid]), np.asarray(d.value), atol=1e-9
            )

    # schedule + allocate under the propagator contract sanitizer
    # (sanitize=True raises AuditError on any SAN7xx finding); verify
    # independently, then hold the full static-analysis oracle to zero
    # diagnostics (lint + eqs. 1-11 + codegen hazards)
    s = schedule(g, timeout_ms=20_000, sanitize=True)
    assert s.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)
    assert audit_schedule(s).ok
    lint = lint_graph(g)
    assert lint.ok, lint.render()
    audit = audit_schedule(s)
    assert len(audit) == 0, audit.render()
    genrep = audit_program(generate(s), s)
    assert genrep.ok, genrep.render()

    # bounds
    assert s.makespan >= critical_path(g)[0]
    assert s.makespan <= greedy_schedule(g).makespan

    # machine code replays the trace exactly
    res = simulate(generate(s))
    assert res.ok, (res.access_violations[:2], res.hazards[:2])
    assert res.mismatches(g) == []


@given(specs)
@settings(max_examples=20, deadline=None)
def test_random_kernel_structural_properties(spec):
    g = random_kernel(spec)
    validate(g)
    # bipartite alternation implies |E| >= |V| - #inputs
    assert g.n_edges() >= g.n_nodes() - len(g.inputs())
    # merging never increases any census number
    m = merge_pipeline_ops(g)
    assert m.n_nodes() <= g.n_nodes()
    assert m.n_edges() <= g.n_edges()
    assert critical_path(m)[0] <= critical_path(g)[0]


@given(st.integers(0, 500))
@settings(max_examples=20, deadline=None)
def test_generator_deterministic(seed):
    a = random_kernel(seed=seed, n_ops=8)
    b = random_kernel(seed=seed, n_ops=8)
    assert a.n_nodes() == b.n_nodes() and a.n_edges() == b.n_edges()
    va = [str(d.value) for d in a.data_nodes()]
    vb = [str(d.value) for d in b.data_nodes()]
    assert va == vb


def test_spec_misuse():
    with pytest.raises(TypeError):
        random_kernel(SynthSpec(), n_ops=3)
