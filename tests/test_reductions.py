import random

import pytest

from elpcover import reductions
from elpcover._rat import Rat
from elpcover.cover import backtrack, validate_cover
from elpcover.elp import ElpSolution, classify_edges, solve_elp
from elpcover.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_triangle_free_graph,
)
from elpcover.reductions import (
    KIND_ACTIVE,
    KIND_OVER_ACTIVE,
    KIND_RANDOM,
    KIND_TERMINAL,
    KIND_THREE_CYCLE,
    KIND_ZERO_ONE,
    STEP_ORDER,
    PipelineError,
    ReductionTrace,
    choose_edge,
    run_pipeline,
    step,
    zero_one_sets,
)
from elpcover.runner import solve_instance
from exact_oracles import (
    circulant,
    nx_odd_cycles,
    random_connected_gnp,
    run_pipeline_iterates,
    scale_point,
)


def union(*graphs):
    verts = []
    edges = []
    for g in graphs:
        verts.extend(g.vertices)
        edges.extend(g.edges())
    return Graph.from_edges(verts, edges)


def relabel(g, offset):
    return Graph.from_edges(
        [v + offset for v in g.vertices], [(u + offset, v + offset) for u, v in g.edges()]
    )


# ------------------------------------------------------------------ steps


def zero_one_step(g, x):
    """The {0,1}-reduction as an iteration applies it: (G', I0, I1, terminal)."""
    i0, i1 = zero_one_sets(x)
    reduced = g.delete_vertices(i0 | i1)
    return reduced, i0, i1, reduced.n == 0


def triangles(g):
    """The 3-cycle step's candidates: the lexicographically smallest triangle."""
    triangle = g.find_triangle()
    return () if triangle is None else (triangle,)


def test_run_pipeline_rejects_unknown_mode_and_rule():
    # The modes are the keys of the step-order table.
    assert run_pipeline(cycle_graph(5), mode="base").mode in STEP_ORDER
    with pytest.raises(ValueError):
        run_pipeline(cycle_graph(5), mode="greedy")
    with pytest.raises(ValueError):
        run_pipeline(cycle_graph(5), edge_rule="minsum")


def test_step_zero_one_terminal_on_k3():
    k3 = complete_graph(3)
    sol = solve_elp(k3)
    # the optimum of the strengthened relaxation on K3 is integral (1,1,0)
    assert sorted(sol.x.values()) == [0, 1, 1]
    reduced, i0, i1, terminal = zero_one_step(k3, sol.x)
    assert terminal and len(i1) == 2 and len(i0) == 1


def test_step_zero_one_noop_on_uniform():
    t = cycle_graph(5)
    x = {v: Rat(3, 5) for v in t.vertices}
    reduced, i0, i1, terminal = zero_one_step(t, x)
    assert not terminal and reduced == t and i0 == i1 == frozenset()


def test_step_zero_one_star():
    star = Graph.from_edges([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4)])
    x = {1: Rat(1), 2: Rat(0), 3: Rat(0), 4: Rat(0)}
    _, i0, i1, terminal = zero_one_step(star, x)
    assert terminal and i1 == frozenset({1})


def test_step_three_cycle():
    reduced, fields = step(complete_graph(3), KIND_THREE_CYCLE, triangles(complete_graph(3))[0])
    assert reduced.n == 0 and fields["triangle"].vertex_set == {1, 2, 3}
    reduced, fields = step(complete_graph(4), KIND_THREE_CYCLE, triangles(complete_graph(4))[0])
    assert reduced.n == 1 and fields["triangle"].vertices == (1, 2, 3)
    two = union(complete_graph(3), relabel(complete_graph(3), 10))
    reduced, _ = step(two, KIND_THREE_CYCLE, triangles(two)[0])
    assert reduced.find_triangle() is not None
    assert triangles(cycle_graph(5)) == ()


def test_step_active_edge_p3_absorbed_by_zero_one():
    p3 = path_graph(3)
    sol = solve_elp(p3)
    assert sorted(sol.x.values()) == [0, 0, 1]  # (0,1,0): no active-edge step
    _, _, _, terminal = zero_one_step(p3, sol.x)
    assert terminal


def test_step_active_edge_rejects_triangle_through_edge():
    k3 = complete_graph(3)
    x = {1: Rat(1, 2), 2: Rat(1, 2), 3: Rat(1)}
    active, _ = classify_edges(k3, scale_point(k3, x))
    assert active[0] == (1, 2)
    with pytest.raises(PipelineError):
        step(k3, KIND_ACTIVE, active[0])


def test_step_active_edge_rewires_and_records_neighbors():
    p5 = path_graph(5)
    reduced, fields = step(p5, KIND_ACTIVE, (2, 3))
    assert fields == {"pair": (2, 3), "d_i": frozenset({1})}
    assert reduced == Graph.from_edges([1, 4, 5], [(1, 4), (4, 5)])


def test_step_active_edge_projection_feasible():
    # Find organic active-edge reductions and verify the projected values
    # stay feasible for the rewired graph (edge rows and all odd cycles).
    rng = random.Random(20)
    seen = 0
    for _ in range(200):
        g = random_connected_gnp(rng.randint(4, 9), rng.uniform(0.25, 0.6), rng)
        trace, graphs, xs = run_pipeline_iterates(g)
        for idx, rec in enumerate(trace.records):
            if rec.kind != KIND_ACTIVE:
                continue
            seen += 1
            nxt = graphs[idx + 1]
            xhat = {v: xs[idx][v] for v in nxt.vertices}
            for u, v in nxt.edges():
                assert xhat[u] + xhat[v] >= 1
            for cycle in nx_odd_cycles(nxt):
                assert sum(xhat[v] for v in cycle.vertices) >= cycle.rhs
    assert seen >= 3  # the sweep must actually exercise the reduction


def test_active_edge_interior_cycle_sums():
    # Odd cycles through an active edge: interior vertices sum to >= ceil(k/2).
    rng = random.Random(21)
    checked = 0
    for _ in range(150):
        g = random_connected_gnp(rng.randint(4, 9), rng.uniform(0.25, 0.6), rng)
        sol = solve_elp(g)
        for (i, j) in sol.active_edges:
            for cycle in nx_odd_cycles(g):
                members = cycle.vertex_set
                if i in members and j in members:
                    edges = set(cycle.cycle_edges())
                    if (min(i, j), max(i, j)) in edges:
                        interior = members - {i, j}
                        k = len(interior)
                        assert sum(sol.x[v] for v in interior) >= Rat(-(-k // 2))
                        checked += 1
    assert checked >= 5


def test_step_over_active_boundary():
    tri = complete_graph(3)
    x = {1: Rat(2, 3), 2: Rat(2, 3), 3: Rat(2, 3)}
    _, over = classify_edges(tri, scale_point(tri, x))  # 2/3 + 2/3 = 4/3: boundary included
    reduced, fields = step(tri, KIND_OVER_ACTIVE, over[0])
    assert fields == {"pair": (1, 2)} and reduced.vertices == (3,)
    c5 = cycle_graph(5)
    _, over = classify_edges(c5, ([3] * 5, 5))
    assert over == ()  # 6/5 < 4/3
    x = {v: Rat(3, 5) for v in c5.vertices}
    x[1] = Rat(1)
    x[2] = Rat(1, 2)
    _, over = classify_edges(c5, scale_point(c5, x))  # 1 + 1/2 >= 4/3
    _, fields = step(c5, KIND_OVER_ACTIVE, over[0])
    assert fields == {"pair": (1, 2)}


def test_pipeline_runs_the_over_active_step(monkeypatch):
    # No corpus reaches the over-active step through run_pipeline, so the
    # first solve returns a made-up point: C5 at x = 2/3, with no unit
    # value and no active edge, and every edge over-active (4/3). Later
    # solves run for real; base mode never reads the engine.
    c5 = cycle_graph(5)
    x = dict.fromkeys(c5.vertices, Rat(2, 3))
    active, over = classify_edges(c5, scale_point(c5, x))
    assert active == () and len(over) == c5.m
    made_up = [
        ElpSolution(
            x=x, objective=Rat(10, 3), cycle_pool=(), active_edges=active,
            over_active_edges=over, engine=None,
        )
    ]
    monkeypatch.setattr(reductions, "solve_elp", lambda g: made_up.pop() if made_up else solve_elp(g))
    trace = run_pipeline(c5, mode="base")
    first = trace.records[0]
    assert (first.kind, first.pair, first.d_k) == (KIND_OVER_ACTIVE, (1, 2), Rat(4, 3))
    assert not trace.hypothesis_failed and trace.records[-1].kind == KIND_TERMINAL
    valid, uncovered = validate_cover(c5, backtrack(trace))
    assert valid, uncovered


def test_step_random_edge():
    k2 = complete_graph(2)
    pair = choose_edge(k2, {1: Rat(3, 5), 2: Rat(3, 5)}, "maxsum", random.Random(0))
    reduced, fields = step(k2, KIND_RANDOM, pair)
    assert reduced.n == 0 and fields == {"pair": (1, 2)}
    c5 = cycle_graph(5)
    x = {v: Rat(3, 5) for v in c5.vertices}
    pair = choose_edge(c5, x, "maxsum", random.Random(0))
    assert pair == (1, 2)  # all sums equal; lexicographic tie-break
    reduced, _ = step(c5, KIND_RANDOM, pair)
    assert reduced == Graph.from_edges([3, 4, 5], [(3, 4), (4, 5)])
    x[4] = Rat(9, 10)
    pair = choose_edge(c5, x, "maxsum", random.Random(0))
    assert pair in ((3, 4), (4, 5)) and pair == (3, 4)
    assert choose_edge(c5, x, "random", random.Random(0)) == random.Random(0).choice(c5.edge_list())
    with pytest.raises(PipelineError):
        choose_edge(Graph.from_edges([1, 2]), {1: Rat(0), 2: Rat(0)}, "maxsum", random.Random(0))


# --------------------------------------------------------------- pipeline


def assert_trace_shape(trace, report=None):
    """Records k = 1..L, exactly the last of kind KIND_TERMINAL; a report
    of the same run has one trace row per record, ending at k = L."""
    assert [rec.index for rec in trace.records] == list(range(1, trace.L + 1))
    assert [rec.kind == KIND_TERMINAL for rec in trace.records] == [False] * (trace.L - 1) + [True]
    if report is not None:
        assert [row["k"] for row in report["trace"]] == [rec.index for rec in trace.records]
        assert [row["kind"] for row in report["trace"]] == [rec.kind for rec in trace.records]
        assert report["trace"][-1]["k"] == trace.L


def test_pipeline_k3_terminal_first_iteration():
    trace, graphs, _ = run_pipeline_iterates(complete_graph(3))
    assert trace.L == 1 and [r.kind for r in trace.records] == [KIND_TERMINAL]
    terminal = trace.records[-1]
    assert len(terminal.i1) == 2 and len(graphs) == 1
    assert terminal.f == 2 == trace.f1


def test_pipeline_c5_integral_first_iteration():
    trace = run_pipeline(cycle_graph(5))
    assert trace.L == 1 and len(trace.records[-1].i1) == 3


def test_pipeline_disjoint_union():
    g = union(complete_graph(3), relabel(cycle_graph(5), 10))
    trace = run_pipeline(g)
    from elpcover.cover import backtrack, validate_cover

    cover = backtrack(trace)
    ok, _ = validate_cover(g, cover)
    assert ok and len(cover) == 5  # 2 + 3, optimal


def test_pipeline_k4_uses_three_cycle():
    trace = run_pipeline(complete_graph(4))
    assert [r.kind for r in trace.records] == [KIND_THREE_CYCLE, KIND_TERMINAL]
    assert trace.records[0].d_k == 2


def test_terminal_rows_state_their_own_iteration():
    # K4 (L = 2): the last iteration's sweep fails on the isolated vertex
    # the 3-cycle step left, so it skips its {0,1} step.
    g = complete_graph(4)
    trace = run_pipeline(g)
    assert trace.L == 2 and trace.records[-1].zero_one_applied is False
    assert solve_instance(g, "k4", "test")["diagnostics"]["isolatedTerminal"] is True
    # sweep-small's sweep-28 (L = 1): the first pin reaches an alternate
    # optimum, and its {0,1} step consumes the whole graph.
    edges = [(1, 2), (1, 3), (1, 4), (1, 6), (2, 3), (2, 4),
             (2, 5), (2, 6), (3, 4), (3, 6), (4, 5), (4, 6)]
    trace = run_pipeline(Graph.from_edges(range(1, 7), edges))
    terminal = trace.records[-1]
    assert trace.L == 1 and terminal.kind == KIND_TERMINAL
    assert terminal.alternate_used is True and terminal.pins == 1
    assert terminal.zero_one_applied is True


def test_pipeline_base_hypothesis_failure():
    g = circulant(11, (1, 3))
    trace = run_pipeline(g, mode="base")
    assert trace.hypothesis_failed and trace.L == 1
    assert trace.records[-1].f == Rat(33, 5)
    assert_trace_shape(trace, solve_instance(g, "c11", "test", mode="base"))


def test_pipeline_enhanced_random_edge_on_hard_circulant():
    g = circulant(11, (1, 3))
    trace = run_pipeline(g)
    kinds = [r.kind for r in trace.records]
    assert KIND_RANDOM in kinds
    rec = trace.records[kinds.index(KIND_RANDOM)]
    assert rec.d_k == 1
    assert sum(r.pins for r in trace.records) == g.m  # full sweep failed first


def test_pipeline_edge_rules_deterministic_and_seeded():
    g = circulant(11, (1, 3))
    a = run_pipeline(g, edge_rule="maxsum")
    b = run_pipeline(g, edge_rule="maxsum")
    assert [r.pair for r in a.records] == [r.pair for r in b.records]
    c = run_pipeline(g, edge_rule="random", seed=123)
    d = run_pipeline(g, edge_rule="random", seed=123)
    assert [r.pair for r in c.records] == [r.pair for r in d.records]


def test_pipeline_value_ledger_and_termination():
    rng = random.Random(30)
    for _ in range(120):
        g = random_connected_gnp(rng.randint(3, 10), rng.uniform(0.2, 0.85), rng)
        trace, graphs, _ = run_pipeline_iterates(g)
        assert trace.L <= g.n + 1
        assert_trace_shape(trace, solve_instance(g, "g", "test", oracle_cap=None))
        assert len(graphs) == trace.L
        values = [rec.f for rec in trace.records]
        for rec, (before, after) in zip(trace.records[:-1], zip(values, values[1:])):
            if rec.kind == KIND_RANDOM:
                assert after < before - rec.d_k
            else:
                assert after <= before - rec.d_k
        # terminal iteration: objective is integral and counts the ones
        terminal = trace.records[-1]
        assert terminal.f == len(terminal.i1)
        # strict shrinkage of the vertex set across iterations
        for a, b in zip(graphs, graphs[1:]):
            assert b.n < a.n
            assert set(b.vertices) < set(a.vertices)  # labels never reappear


def test_pipeline_zero_vertex_neighbors_are_ones():
    rng = random.Random(33)
    for _ in range(60):
        g = random_connected_gnp(rng.randint(3, 9), rng.uniform(0.3, 0.8), rng)
        sol = solve_elp(g)
        for v, val in sol.x.items():
            if val == 0:
                assert all(sol.x[u] == 1 for u in g.neighbors(v))


def test_pipeline_triangle_free_random_inputs():
    for i in range(20):
        g = random_triangle_free_graph(random.Random(i).randint(8, 16), 0.3, seed=100 + i)
        trace = run_pipeline(g)
        assert not trace.hypothesis_failed


def test_pipeline_zero_one_progress_then_hard_residual():
    # Hard circulant plus a disjoint edge: the first iteration only strips the
    # integral component, then the residual stalls (base) or needs a random
    # edge (enhanced).
    hard = circulant(11, (1, 3))
    g = Graph.from_edges(
        list(range(1, 12)) + [20, 21], list(hard.edges()) + [(20, 21)]
    )
    trace = run_pipeline(g, mode="base")
    assert [r.kind for r in trace.records] == [KIND_ZERO_ONE, KIND_TERMINAL]
    assert trace.hypothesis_failed and trace.L == 2

    trace = run_pipeline(g)
    kinds = [r.kind for r in trace.records]
    assert kinds[0] == KIND_ZERO_ONE and KIND_RANDOM in kinds
    from elpcover.cover import backtrack, validate_cover

    cover = backtrack(trace)
    assert validate_cover(g, cover)[0]
    from elpcover.oracles import exact_vc

    assert len(cover) == exact_vc(g).opt_size


def test_pipeline_isolated_vertices_terminal():
    # All-isolated graphs hit the literal enhanced order: the failed pin sweep
    # skips the {0,1} step and the random-edge step has no edge to choose, so
    # the run ends with an empty cover and a diagnostic.
    iso = Graph.from_edges([1, 2, 3])
    trace = run_pipeline(iso)
    assert trace.L == 1 and trace.records[-1].zero_one_applied is False
    report = solve_instance(iso, "iso", "test")
    assert_trace_shape(trace, report)
    assert report["diagnostics"]["isolatedTerminal"] is True
    assert report["diagnostics"]["skippedZeroOne"] == [{"k": 1, "vertices": [1, 2, 3]}]
    from elpcover.cover import backtrack

    assert backtrack(trace) == frozenset()
