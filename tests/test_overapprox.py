"""The static graph contains every dynamically observed call edge.

Each fixture program is executed by the trace interpreter; every invoke
edge it records (dynamic-invoke edges excepted) must be present in the
statically built graph.
"""

import pytest

from apprepo.callgraph import build_callgraph
from apprepo.classfile import MethodRef

from interp import TraceInterpreter

MAIN_DESC = "([Ljava/lang/String;)V"
PROGRAMS = ["fix/Main1", "fix/Main2", "fix/Main3"]


def static_edge_texts(hierarchy, main_class):
    graph = build_callgraph(hierarchy, {MethodRef(main_class, "main", MAIN_DESC)})
    return {(caller.text, callee.text) for caller, callee in graph.edges}, graph


@pytest.mark.parametrize("main_class", PROGRAMS)
def test_trace_edges_subset_of_static_graph(hierarchy, main_class):
    static_edges, graph = static_edge_texts(hierarchy, main_class)
    trace = TraceInterpreter(hierarchy).run_main(main_class)
    invoke_edges = [(c, t) for c, t, kind in trace if kind not in ("dynamic", "clinit")]
    assert invoke_edges, "trace must exercise calls"
    missing = [edge for edge in invoke_edges if edge not in static_edges]
    assert not missing, f"dynamic edges absent from static graph: {missing}"
    # every executed method must be a graph node
    node_texts = {ref.text for ref in graph.nodes}
    for _, callee, kind in trace:
        if kind != "dynamic":
            assert callee in node_texts


def test_traces_are_nontrivial(hierarchy):
    lengths = {}
    for main_class in PROGRAMS:
        trace = TraceInterpreter(hierarchy).run_main(main_class)
        lengths[main_class] = len(trace)
    assert lengths["fix/Main1"] >= 2
    assert lengths["fix/Main2"] >= 10
    assert lengths["fix/Main3"] >= 5


def test_dispatch_lands_on_overrides(hierarchy):
    trace = TraceInterpreter(hierarchy).run_main("fix/Main2")
    callees = {callee for _, callee, _ in trace}
    assert "fix/Circle.area()I" in callees
    assert "fix/Square.area()I" in callees
    assert "fix/Leaf.speak()Ljava/lang/String;" in callees
    # receiver of type Mid inherits speak from Base
    assert "fix/Base.speak()Ljava/lang/String;" in callees


def test_clinit_body_edges_traced_and_static(hierarchy):
    static_edges, _ = static_edge_texts(hierarchy, "fix/Main3")
    trace = TraceInterpreter(hierarchy).run_main("fix/Main3")
    clinit_edge = ("fix/Counter.<clinit>()V", "fix/Counter.seed()I")
    assert (*clinit_edge, "static") in trace
    assert clinit_edge in static_edges


def test_dynamic_invokes_reported_separately(hierarchy):
    trace = TraceInterpreter(hierarchy).run_main("fix/Main3")
    dynamic = [(c, t) for c, t, kind in trace if kind == "dynamic"]
    assert len(dynamic) == 1
    static_edges, _ = static_edge_texts(hierarchy, "fix/Main3")
    assert dynamic[0] not in static_edges  # exempt, not silently included


def test_interpreter_computes_real_values(hierarchy):
    # sanity: the harness executes code rather than merely walking it
    interp = TraceInterpreter(hierarchy)
    interp.run_main("fix/Main3")
    # Counter.<clinit> seeds n=7, bump makes it 8
    assert interp.statics[("fix/Counter", "n", "I")] == 8
