"""Metamorphic properties of the relaxation value f1 = f(G_1), checked
against the exact oracle on small graphs. A failing example prints its
graph in DIMACS through note()."""

from hypothesis import given, note, settings
from hypothesis import strategies as st

from elpcover.elp import relaxation_engine
from elpcover.graph import Graph, to_dimacs
from elpcover.oracles import exact_vc
from elpcover.reductions import run_pipeline
from exact_oracles import point_values

MAX_N = 9


@st.composite
def _graphs(draw, max_n=MAX_N):
    """A graph on 1..n, n <= max_n, each pair an edge or not."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return Graph.from_edges(range(1, n + 1), [e for e in pairs if draw(st.booleans())])


def _f1(g: Graph):
    return run_pipeline(g).f1


def _relabelled(g: Graph, labels) -> Graph:
    """g with vertex v renamed labels[v - 1]."""
    return Graph.from_edges(labels, [(labels[u - 1], labels[v - 1]) for u, v in g.edges()])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_f1_is_invariant_under_relabelling(data):
    g = data.draw(_graphs())
    note(to_dimacs(g))
    labels = data.draw(
        st.lists(st.integers(1, 1000), min_size=g.n, max_size=g.n, unique=True)
    )
    h = _relabelled(g, labels)
    note(to_dimacs(h))
    assert _f1(h) == _f1(g)
    assert exact_vc(h).opt_size == exact_vc(g).opt_size


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_f1_is_additive_over_disjoint_unions(data):
    g = data.draw(_graphs())
    h = data.draw(_graphs(max_n=MAX_N - g.n))
    shifted = _relabelled(h, [v + g.n for v in h.vertices])
    union = Graph.from_edges(
        g.vertices + shifted.vertices, list(g.edges()) + list(shifted.edges())
    )
    note(to_dimacs(union))
    assert _f1(union) == _f1(g) + _f1(h)
    assert exact_vc(union).opt_size == exact_vc(g).opt_size + exact_vc(h).opt_size


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_graphs())
def test_f1_lies_between_the_edge_lp_and_the_optimum(g):
    note(to_dimacs(g))
    engine = relaxation_engine(g)
    engine.optimize()
    lp = sum(point_values(engine.certified_values()))
    assert lp <= _f1(g) <= exact_vc(g).opt_size
