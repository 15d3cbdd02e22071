"""The checker's default core against its references (differential).

``AnnotatedChecker(cfg, prop)`` compiles a non-parametric property and
solves on the flat core, answering verdicts from annotation ids.  It
must agree exactly with the object core over the uncompiled monoid
(``algebra=MonoidAlgebra(prop.machine)``) and with the MOPS post*
checker: the same violating nodes, the same ``has_violation``, the same
``states_at`` on every node, and the same canonical fact count.  Its
witness traces come from a provenance re-solve; they must be non-empty,
start at ``main``'s entry and lead to the violating node.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import build_cfg
from repro.core.annotations import CompiledMonoidAlgebra, MonoidAlgebra
from repro.core.budget import Budget
from repro.core.flatcore import FlatSolver
from repro.core.solver import Solver
from repro.modelcheck import AnnotatedChecker, full_privilege_property
from repro.mops import MopsChecker
from repro.synth import TABLE1_PACKAGES, PackageSpec, generate_package

PROP = full_privilege_property()


def _small(spec: PackageSpec) -> PackageSpec:
    """A Table 1 package cut to test size, keeping its seed and verdict."""
    return PackageSpec(
        spec.name, 900, 12, seed=spec.seed, violation=spec.violation
    )


def _assert_agrees(cfg) -> AnnotatedChecker:
    default = AnnotatedChecker(cfg, PROP)
    reference = AnnotatedChecker(cfg, PROP, algebra=MonoidAlgebra(PROP.machine))
    assert isinstance(default.algebra, CompiledMonoidAlgebra)
    assert isinstance(default.solver, FlatSolver)
    assert isinstance(reference.solver, Solver)

    result = default.check()
    expected = reference.check()
    mops = MopsChecker(cfg, PROP).check()
    nodes = {v.node.id for v in result.violations}
    assert nodes == {v.node.id for v in expected.violations}
    assert nodes == {n.id for n in mops.error_nodes}
    assert len(result.violations) == len(nodes)  # one finding per node
    assert result.has_violation == expected.has_violation == mops.has_violation
    assert default.has_violation() == reference.has_violation() == bool(nodes)
    for node in cfg.all_nodes():
        assert default.states_at(node) == reference.states_at(node), node
    assert result.facts == expected.facts
    assert result.facts == default.solver.fact_count()
    assert result.constraints == expected.constraints
    return default


def _leads_to(cfg, step, node) -> bool:
    """Whether ``node`` is reachable from ``step`` along CFG edges and
    call edges (call node -> callee entry).

    A trace ends at the last given constraint its derivation crossed.
    That is usually a predecessor of the violating node, but cycle
    elimination and return edges can leave a few steps between.
    """
    seen = {step.id}
    frontier = [step]
    while frontier:
        current = frontier.pop()
        if current == node:
            return True
        nexts = list(cfg.successors(current))
        if current.kind == "call":
            nexts.append(cfg.functions[current.call.callee].entry)
        for nxt in nexts:
            if nxt.id not in seen:
                seen.add(nxt.id)
                frontier.append(nxt)
    return False


def _assert_traces(cfg, checker: AnnotatedChecker) -> None:
    traced = checker.check(traces=True)
    assert traced.violations
    plain = checker.check()
    assert [(v.node, v.annotation) for v in traced.violations] == [
        (v.node, v.annotation) for v in plain.violations
    ]
    for violation in traced.violations[:25]:
        assert violation.trace, violation.describe()
        assert violation.trace[0] == cfg.main.entry
        assert _leads_to(cfg, violation.trace[-1], violation.node)
        assert checker.witness(violation) == violation.trace
    # One provenance re-solve serves every trace.
    assert checker.reachability() is checker.reachability()


@pytest.mark.parametrize(
    "spec", [_small(spec) for spec in TABLE1_PACKAGES], ids=lambda s: s.name
)
def test_default_core_matches_references_on_table1(spec):
    cfg = build_cfg(generate_package(spec))
    checker = _assert_agrees(cfg)
    assert checker.has_violation() == spec.violation
    if spec.violation:
        _assert_traces(cfg, checker)


@given(
    lines=st.integers(min_value=40, max_value=400),
    functions=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=10_000),
    violation=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_default_core_matches_references_on_generated_packages(
    lines, functions, seed, violation
):
    spec = PackageSpec("generated", lines, functions, seed=seed, violation=violation)
    cfg = build_cfg(generate_package(spec))
    checker = _assert_agrees(cfg)
    if checker.has_violation():
        _assert_traces(cfg, checker)


def test_smallest_accepting_annotation_is_reported():
    cfg = build_cfg(generate_package(_small(TABLE1_PACKAGES[1])))
    checker = AnnotatedChecker(cfg, PROP)
    ids = checker.solver.constant_annotations(checker.pc)
    for violation in checker.check().violations:
        root = checker.solver.root_id(checker.node_var(violation.node))
        accepting = [a for a in ids[root] if checker.algebra.is_accepting(a)]
        assert violation.annotation == min(accepting)


def test_facts_are_counted_on_first_read():
    cfg = build_cfg(generate_package(_small(TABLE1_PACKAGES[0])))
    checker = AnnotatedChecker(cfg, PROP)
    calls = []
    count = checker.solver.fact_count
    checker.solver.fact_count = lambda: calls.append(1) or count()
    result = checker.check()
    assert not calls
    assert result.facts == count()
    assert result.facts == count()
    assert len(calls) == 1


def test_trace_resolve_is_not_charged_to_the_solve_budget():
    cfg = build_cfg(generate_package(_small(TABLE1_PACKAGES[0])))
    steps = AnnotatedChecker(cfg, PROP).solver.facts_processed
    budget = Budget(max_steps=steps + 1)
    checker = AnnotatedChecker(cfg, PROP, budget=budget)
    result = checker.check(traces=True)
    assert result.violations and all(v.trace for v in result.violations)
    assert budget.steps <= steps + 1
