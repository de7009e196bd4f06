import itertools
import random

import pytest

from elpcover import graph as graph_module
from elpcover.graph import (
    Graph,
    GraphFormatError,
    OddCycle,
    complete_graph,
    cycle_graph,
    detect_format,
    generate,
    parse_graph,
    path_graph,
    petersen_graph,
    random_triangle_free_graph,
    to_dimacs,
    torus_grid_graph,
)
from exact_oracles import nx_odd_cycles, reference_random_triangle_free_graph

K3_DIMACS = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"


def test_parse_dimacs_triangle():
    g = parse_graph(K3_DIMACS, "dimacs")
    assert g.vertices == (1, 2, 3)
    assert g.edge_list() == ((1, 2), (1, 3), (2, 3))


def test_parse_dimacs_single_edge():
    g = parse_graph("p edge 2 1\ne 1 2\n", "dimacs")
    assert g.n == 2 and g.edge_list() == ((1, 2),)


def test_parse_edgelist_c5():
    g = parse_graph("1 2\n2 3\n3 4\n4 5\n5 1\n", "edgelist")
    assert g == cycle_graph(5)


def test_parse_preserves_isolated_vertices():
    g = parse_graph("c isolated vertex 3\np edge 3 1\ne 1 2\n", "dimacs")
    assert g.vertices == (1, 2, 3)
    assert g.neighbors(3) == ()


def test_parse_rejects_self_loop():
    with pytest.raises(GraphFormatError):
        parse_graph("p edge 2 1\ne 1 1\n", "dimacs")
    with pytest.raises(GraphFormatError):
        parse_graph("2 2\n", "edgelist")


def test_parse_rejects_out_of_range_vertex():
    with pytest.raises(GraphFormatError):
        parse_graph("p edge 2 1\ne 1 5\n", "dimacs")


def test_parse_rejects_malformed():
    with pytest.raises(GraphFormatError):
        parse_graph("p edge 2\ne 1 2\n", "dimacs")
    with pytest.raises(GraphFormatError):
        parse_graph("1 2 3\n", "edgelist")
    with pytest.raises(GraphFormatError):
        parse_graph("e 1 2\n", "dimacs")  # edge before problem line


def test_parse_dedupes_duplicate_edges(caplog):
    with caplog.at_level("WARNING"):
        g = parse_graph("p edge 2 2\ne 1 2\ne 2 1\n", "dimacs")
    assert g.m == 1
    assert any("duplicate" in r.message for r in caplog.records)


def test_detect_format():
    assert detect_format(K3_DIMACS) == "dimacs"
    assert detect_format("c comment\np edge 1 0\n") == "dimacs"
    assert detect_format("1 2\n") == "edgelist"


def test_dimacs_roundtrip():
    g = petersen_graph()
    assert parse_graph(to_dimacs(g), "dimacs") == g


def test_find_triangle_k3_is_lexicographic():
    tri = complete_graph(3).find_triangle()
    assert tri is not None and tri.vertices == (1, 2, 3)
    assert complete_graph(4).find_triangle().vertices == (1, 2, 3)


def test_find_triangle_none_on_c5_and_petersen():
    assert cycle_graph(5).find_triangle() is None
    pet = petersen_graph()
    assert pet.find_triangle() is None
    # exhaustive triple scan confirms girth 5
    assert not any(
        pet.has_edge(a, b) and pet.has_edge(b, c) and pet.has_edge(a, c)
        for a, b, c in itertools.combinations(pet.vertices, 3)
    )


def test_delete_vertices():
    assert complete_graph(3).delete_vertices({3}) == Graph.from_edges([1, 2], [(1, 2)])
    c5 = cycle_graph(5)
    assert c5.delete_vertices(set()) == c5
    p5 = path_graph(5)
    assert p5.delete_vertices({3}) == Graph.from_edges(
        [1, 2, 4, 5], [(1, 2), (4, 5)]
    )
    with pytest.raises(KeyError):
        c5.delete_vertices({99})


def test_rewire_p5_middle_edge():
    g, d_i = path_graph(5).rewire_active_edge(2, 3)
    assert d_i == frozenset({1})
    assert g == Graph.from_edges([1, 4, 5], [(1, 4), (4, 5)])


def test_rewire_k2_gives_empty_graph():
    g, d_i = complete_graph(2).rewire_active_edge(1, 2)
    assert g.n == 0 and d_i == frozenset()


def test_rewire_c5_creates_triangle():
    # New triangles in the rewired graph are allowed; only a triangle through
    # the chosen edge in the original graph is excluded by the reduction step.
    g, d_i = cycle_graph(5).rewire_active_edge(1, 2)
    assert d_i == frozenset({5})
    assert g == Graph.from_edges([3, 4, 5], [(3, 4), (4, 5), (3, 5)])
    assert g.find_triangle() is not None


def test_rewire_requires_edge():
    with pytest.raises(ValueError):
        cycle_graph(5).rewire_active_edge(1, 3)


def test_rewire_preserves_untouched_edges_and_labels():
    rng = random.Random(7)
    for trial in range(50):
        n = rng.randint(4, 9)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.5
        ]
        g = Graph.from_edges(range(1, n + 1), edges)
        if g.m == 0:
            continue
        i, j = g.edge_list()[rng.randrange(g.m)]
        h, d_i = g.rewire_active_edge(i, j)
        assert set(h.vertices) == set(g.vertices) - {i, j}
        for u, v in g.edges():
            if i not in (u, v) and j not in (u, v):
                assert h.has_edge(u, v)
        # deterministic: applying the definition twice gives identical graphs
        h2, _ = g.rewire_active_edge(i, j)
        assert h == h2


def test_odd_cycle_canonicalization_and_validation():
    c = OddCycle((3, 2, 1, 5, 4))
    assert c.vertices[0] == 1
    assert c == OddCycle((1, 2, 3, 4, 5)) or c.vertex_set == frozenset({1, 2, 3, 4, 5})
    assert OddCycle((2, 1, 3)) == OddCycle((1, 2, 3))
    assert c.s == 2 and c.rhs == 3
    with pytest.raises(ValueError):
        OddCycle((1, 2, 3, 4))  # even
    with pytest.raises(ValueError):
        OddCycle((1, 2, 1))  # repeated
    with pytest.raises(ValueError):
        OddCycle.in_graph(cycle_graph(5), (1, 2, 4))  # (2,4) not an edge


def test_generator_cycle_and_path():
    c5 = cycle_graph(5)
    assert c5.n == 5 and c5.m == 5
    assert path_graph(1).n == 1 and path_graph(1).m == 0
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_generator_cycle_contains_exactly_one_odd_cycle():
    for s in (1, 2, 3):
        cycles = nx_odd_cycles(cycle_graph(2 * s + 1))
        assert len(cycles) == 1 and len(cycles[0].vertices) == 2 * s + 1


def test_generator_torus():
    g = torus_grid_graph(5, 5)
    assert g.n == 25 and g.m == 50
    assert g.find_triangle() is None
    assert all(len(g.neighbors(v)) == 4 for v in g.vertices)
    with pytest.raises(ValueError):
        torus_grid_graph(2, 5)


def test_generator_petersen():
    g = petersen_graph()
    assert g.n == 10 and g.m == 15
    assert all(len(g.neighbors(v)) == 3 for v in g.vertices)


def test_random_triangle_free_reproducible():
    a = random_triangle_free_graph(20, 0.3, 42)
    b = random_triangle_free_graph(20, 0.3, 42)
    assert a == b
    assert a.find_triangle() is None
    assert random_triangle_free_graph(20, 0.3, 43) != a


def _triangle_free_cases():
    # tests/test_acceptance.py's triangle-free batch parameters, then
    # random sizes up to n = 60.
    rng = random.Random(20260810 + 1)
    for i in range(500):
        n = rng.randint(8, 25)
        p = round(rng.uniform(0.15, 0.45), 4)
        yield n, p, 20260810 + 10 * i
    rng = random.Random(7)
    for _ in range(60):
        yield rng.randint(1, 60), round(rng.uniform(0.05, 0.9), 3), rng.randrange(10**6)


def test_random_triangle_free_matches_rescanning_reference():
    for n, p, seed in _triangle_free_cases():
        got = random_triangle_free_graph(n, p, seed)
        want = reference_random_triangle_free_graph(n, p, seed)
        assert got.vertices == want.vertices, (n, p, seed)
        assert got.edge_list() == want.edge_list(), (n, p, seed)


def test_generate_spec_strings():
    g, name = generate("cycle(5)")
    assert g == cycle_graph(5) and name == "cycle(5)"
    g, name = generate("petersen")
    assert g == petersen_graph()
    g, _ = generate("random_triangle_free(12,0.3,7)")
    assert g.find_triangle() is None
    with pytest.raises(ValueError):
        generate("nosuch(3)")
    with pytest.raises(ValueError):
        generate("cycle(1,2)")


def test_size_limit_rejects_huge_dimacs_header():
    limit = graph_module.MAX_GRAPH_SIZE
    with pytest.raises(GraphFormatError, match="size limit"):
        parse_graph(f"p edge {limit + 1} 0\n")
    with pytest.raises(GraphFormatError, match="size limit"):
        parse_graph(f"p edge 2 {limit + 1}\ne 1 2\n")
    with pytest.raises(GraphFormatError, match="size limit"):
        parse_graph("p edge 99999999999 0\n")


def test_size_limit_rejects_huge_generator_specs():
    # Every spec is rejected from its arguments alone; nothing is allocated.
    limit = graph_module.MAX_GRAPH_SIZE
    for spec in (
        "cycle(99999999999)",
        f"path({limit + 1})",
        "complete(1415)",  # 1415 vertices, 1000405 edges
        "gnp(1415,0.5,1)",
        "random_triangle_free(1415,0.1,1)",
        "torus_grid(1000,501)",  # 501000 vertices, 1002000 edges
    ):
        with pytest.raises(GraphFormatError, match="size limit"):
            generate(spec)


def test_size_limit_boundary(monkeypatch):
    monkeypatch.setattr(graph_module, "MAX_GRAPH_SIZE", 10)
    assert generate("cycle(10)")[0].n == 10
    assert generate("complete(5)")[0].m == 10
    assert parse_graph("p edge 10 1\ne 1 2\n").n == 10
    for spec in ("cycle(11)", "complete(6)", "gnp(6,0.1,1)", "torus_grid(3,4)"):
        with pytest.raises(GraphFormatError):
            generate(spec)
    with pytest.raises(GraphFormatError):
        parse_graph("p edge 11 1\ne 1 2\n")


def fresh_views(g: Graph) -> tuple:
    """vertices, m, edges and index recomputed from the adjacency alone."""
    adj = g._adj
    vertices = tuple(sorted(adj))
    edges = tuple(sorted((u, v) for u in adj for v in adj[u] if u < v))
    m = sum(len(nbrs) for nbrs in adj.values()) // 2
    return vertices, m, edges, {v: j for j, v in enumerate(vertices)}


def check_views(g: Graph) -> None:
    expected = fresh_views(g)
    for _ in range(2):  # computed on the first read, kept for the second
        assert (g.vertices, g.m, g.edge_list(), g.index) == expected
        assert tuple(g.edges()) == expected[2]
    assert g.edge_list() is g.edge_list() and g.index is g.index
    assert list(g.vertices) == list(g._adj)
    assert all(list(g.neighbors(v)) == sorted(g.neighbors(v)) for v in g.vertices)
    assert g == Graph.from_edges(g.vertices, g.edge_list())


GENERATOR_SPECS = [
    "cycle(7)", "path(6)", "complete(5)", "petersen", "torus_grid(3,4)",
    "random_triangle_free(12,0.4,3)", "gnp(11,0.5,2)",
]


def test_cached_views_match_fresh_ones_on_every_constructor_and_surgery():
    assert {spec.split("(")[0] for spec in GENERATOR_SPECS} == set(graph_module.GENERATORS)
    graphs = [generate(spec)[0] for spec in GENERATOR_SPECS]
    graphs += [
        Graph.from_edges(),
        Graph.from_edges([9, 1, 4], [(8, 3), (3, 1), (1, 8)]),
        parse_graph("c\np edge 6 4\ne 5 1\ne 2 1\ne 4 2\ne 1 5\ne 3 1\n", "dimacs"),
        parse_graph("p edge 3 0\n", "dimacs"),
        parse_graph("7 3\n3 1\n1 7\n10 2\n", "edgelist"),
    ]
    rng = random.Random(11)
    for g in graphs:
        check_views(g)
        if g.n:
            drop = set(rng.sample(g.vertices, rng.randint(0, g.n)))
            check_views(g.delete_vertices(drop))
        for i, j in g.edge_list()[:4]:
            if not g.has_triangle_through(i, j):
                check_views(g.rewire_active_edge(i, j)[0])
        check_views(g)  # surgery leaves the parent's views as they were


def test_odd_cycle_views_match_fresh_ones():
    pet = petersen_graph()
    for seq in [(1, 2, 3, 4, 5), (6, 1, 5, 10, 8, 9, 4, 3, 2)]:
        for rotation in range(len(seq)):
            turned = seq[rotation:] + seq[:rotation]
            for order in (turned, turned[::-1]):
                if not all(pet.has_edge(u, v) for u, v in zip(order, order[1:] + order[:1])):
                    continue
                c = OddCycle.in_graph(pet, order)
                n = len(order)
                i = order.index(min(order))
                assert c.vertices == min(
                    tuple(order[(i + k) % n] for k in range(n)), tuple(order[(i - k) % n] for k in range(n))
                )
                assert c.vertex_set == frozenset(order)
                assert c.cycle_edges() == tuple(
                    tuple(sorted((c.vertices[k], c.vertices[(k + 1) % n]))) for k in range(n)
                )
