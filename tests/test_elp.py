import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from elpcover import elp
from elpcover._rat import Rat
from elpcover.elp import (
    CutLoopLimitError,
    DoubleCover,
    ElpSolution,
    classify_edges,
    explore_alternate_bfs,
    relaxation_engine,
    separate_odd_cycle,
    solve_elp,
)
from elpcover.graph import (
    Graph,
    OddCycle,
    complete_graph,
    cycle_graph,
    petersen_graph,
    random_gnp_graph,
    random_triangle_free_graph,
    torus_grid_graph,
)
from elpcover.oracles import exact_vc
from elpcover.reductions import run_pipeline
from elpcover.simplex import CoveringSimplex
import exact_oracles
from exact_oracles import (
    chase_cuts,
    check_slot_bound,
    circulant,
    dictionary,
    engine_objective,
    nx_min_odd_cycle_weight,
    nx_odd_cycles,
    point_values,
    random_connected_gnp,
    reference_explore_alternate,
    reference_separate_odd_cycle,
    scale_point,
    small_edges,
    unpack_row,
)


def test_separation_c5_all_half():
    c5 = cycle_graph(5)
    x = {v: Rat(1, 2) for v in c5.vertices}
    cycle, violation = separate_odd_cycle(DoubleCover(c5, scale_point(c5, x)))
    assert cycle.vertex_set == frozenset(c5.vertices)
    assert violation == Rat(1, 2)  # 3 - 5/2


def test_separation_none_on_bipartite():
    c4 = cycle_graph(4)
    x = {v: Rat(1, 2) for v in c4.vertices}
    assert separate_odd_cycle(DoubleCover(c4, scale_point(c4, x))) is None


def test_separation_petersen_matches_bruteforce():
    pet = petersen_graph()
    x = {v: Rat(1, 2) for v in pet.vertices}
    cycle, violation = separate_odd_cycle(DoubleCover(pet, scale_point(pet, x)))
    assert len(cycle.vertices) == 5 and violation == Rat(1, 2)
    # brute-force minimum over all odd cycles (networkx route)
    assert nx_min_odd_cycle_weight(pet, x) == 0
    weight = sum(x[u] + x[v] - 1 for u, v in cycle.cycle_edges())
    assert weight == 0


def test_separation_requires_edge_feasibility():
    k2 = complete_graph(2)
    with pytest.raises(ValueError, match="edge inequality violated"):
        separate_odd_cycle(DoubleCover(k2, scale_point(k2, {1: Rat(0), 2: Rat(0)})))
    with pytest.raises(ValueError, match="does not fit"):
        separate_odd_cycle(DoubleCover(complete_graph(3), ([1, 1], 2)))  # one value short


def test_separation_equivalence_random(subtests=None):
    # Verdict and minimum weight agree with full enumeration.
    rng = random.Random(99)
    values = [Rat(1, 2), Rat(1, 2), Rat(3, 5), Rat(2, 3), Rat(1)]
    for trial in range(60):
        g = random_connected_gnp(rng.randint(3, 9), rng.uniform(0.3, 0.7), rng)
        x = {v: values[rng.randrange(len(values))] for v in g.vertices}
        found = separate_odd_cycle(DoubleCover(g, scale_point(g, x)))
        best = nx_min_odd_cycle_weight(g, x)
        if found is None:
            assert best is None or Fraction(str(best)) >= 1
        else:
            cycle, violation = found
            weight = sum(Rat(x[u]) + Rat(x[v]) - 1 for u, v in cycle.cycle_edges())
            assert Fraction(str(weight)) == Fraction(str(best))
            assert violation == (Rat(1) - weight) / 2
            assert violation > 0


@st.composite
def _graphs_with_feasible_points(draw):
    """A connected graph on n <= 12 vertices and an edge-feasible x whose
    small denominators (2..7, or all 1/2) make equal-weight walks common."""
    n = draw(st.integers(3, 12))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}  # spanning tree
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges |= {e for e in pairs if draw(st.booleans())}
    g = Graph.from_edges(range(1, n + 1), sorted(edges))
    if draw(st.booleans()):
        x = {v: Rat(1, 2) for v in g.vertices}
    else:
        den = st.integers(2, 7)
        x = {}
        for v in g.vertices:
            d = draw(den)
            x[v] = Rat(draw(st.integers(0, d)), d)
        for u, v in g.edges():  # raising an endpoint keeps earlier edges feasible
            if x[u] + x[v] < 1:
                x[v] = 1 - x[u]
    return g, x


def _cut(found):
    return None if found is None else (found[0].vertices, found[1])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_graphs_with_feasible_points())
def test_separation_tie_break_matches_reference(case):
    g, x = case
    found = separate_odd_cycle(DoubleCover(g, scale_point(g, x)))
    assert _cut(found) == _cut(reference_separate_odd_cycle(g, x))


@pytest.mark.parametrize("g", [petersen_graph(), torus_grid_graph(5, 5)], ids=["petersen", "torus_grid(5,5)"])
def test_separation_matches_reference_along_cut_loop(g, monkeypatch):
    calls = []

    def checked(cover):
        found = separate_odd_cycle(cover)
        graph, (ints, scale) = cover.g, cover.point
        x = {v: Rat(s, scale) for v, s in zip(graph.vertices, ints)}
        masked = [graph.vertices[i] for i in cover.taken]
        assert _cut(found) == _cut(reference_separate_odd_cycle(graph.delete_vertices(masked), x))
        calls.append(found is not None)
        return found

    monkeypatch.setattr(elp, "separate_odd_cycle", checked)
    sol = solve_elp(g)
    assert calls.count(True) == len(sol.cycle_pool) and calls[-1] is False


def test_elp_values_on_odd_cycles():
    for s in range(1, 7):
        sol = solve_elp(cycle_graph(2 * s + 1))
        assert sol.objective == s + 1


def test_elp_k2_and_empty():
    sol = solve_elp(complete_graph(2))
    assert sol.objective == 1 and sorted(sol.x.values()) == [0, 1]
    empty = solve_elp(Graph.from_edges())
    assert empty.objective == 0 and empty.x == {}


def test_elp_torus_value_and_feasibility_of_uniform():
    t = torus_grid_graph(5, 5)
    sol = solve_elp(t)
    assert sol.objective <= 15  # all-3/5 is feasible with value 15
    three_fifths = {v: Rat(3, 5) for v in t.vertices}
    for u, v in t.edges():
        assert three_fifths[u] + three_fifths[v] >= 1
    for cycle in nx_odd_cycles(t, max_len=9, chordless=True):
        assert sum(three_fifths[v] for v in cycle.vertices) >= cycle.rhs
    assert sol.objective == exact_vc(t).opt_size == 15


def test_elp_final_x_satisfies_every_odd_cycle():
    # Dominance consequence: the certified solution satisfies all enumerated
    # odd-cycle inequalities, pooled or not.
    rng = random.Random(17)
    for _ in range(25):
        g = random_connected_gnp(rng.randint(4, 9), rng.uniform(0.3, 0.8), rng)
        sol = solve_elp(g)
        for cycle in nx_odd_cycles(g):
            assert sum(sol.x[v] for v in cycle.vertices) >= cycle.rhs


def test_elp_cut_objectives_monotone(monkeypatch):
    # The objective after each optimize of the cut loop never falls, and
    # the loop optimizes once per round of cuts, then once more. Also: no
    # vertex set is pooled twice.
    optimize = CoveringSimplex.optimize
    disjoint_cuts = elp._disjoint_cuts
    objs, rounds = [], []

    def recorded(engine, *args, **kwargs):
        optimize(engine, *args, **kwargs)
        objs.append(engine_objective(engine))

    def recorded_round(g, point):
        cuts = disjoint_cuts(g, point)
        rounds.append(len(cuts))
        return cuts

    monkeypatch.setattr(CoveringSimplex, "optimize", recorded)
    monkeypatch.setattr(elp, "_disjoint_cuts", recorded_round)
    rng = random.Random(71)
    for _ in range(20):
        g = random_connected_gnp(rng.randint(4, 10), rng.uniform(0.2, 0.5), rng)
        objs.clear()
        rounds.clear()
        sol = solve_elp(g)
        assert rounds[-1] == 0 and 0 not in rounds[:-1]
        assert len(objs) == len(rounds) and sum(rounds) == len(sol.cycle_pool)
        assert objs == sorted(objs) and objs[-1] == sol.objective
        keys = [c.vertex_set for c in sol.cycle_pool]
        assert len(keys) == len(set(keys))


@st.composite
def _chase_graphs(draw):
    """A connected G(n, p), n <= 12, or a triangle-free graph, n <= 20."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        rng = random.Random(seed)
        return random_connected_gnp(draw(st.integers(3, 12)), rng.uniform(0.2, 0.8), rng)
    return random_triangle_free_graph(draw(st.integers(5, 20)), draw(st.floats(0.15, 0.5)), seed)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_chase_graphs())
def test_chase_rounds_add_disjoint_violated_cuts(g):
    # In every round of the chase the cuts are pairwise vertex-disjoint odd
    # cycles of g, each violated at the round's point; the first is
    # separate_odd_cycle's on the whole of g, and no odd cycle avoiding
    # them all is violated. The optimum is that of a chase that adds one
    # cut per round.
    disjoint_cuts = elp._disjoint_cuts
    rounds = []

    def recorded(h, point):
        cuts = disjoint_cuts(h, point)
        rounds.append((point, cuts))
        return cuts

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(elp, "_disjoint_cuts", recorded)
        sol = solve_elp(g)
    assert rounds[-1][1] == [] and all(cuts for _, cuts in rounds[:-1])
    for point, cuts in rounds:
        assert (cuts[0] if cuts else None) == separate_odd_cycle(DoubleCover(g, point))
        x = dict(zip(g.vertices, point_values(point)))
        taken = set()
        for cycle, violation in cuts:
            assert OddCycle.in_graph(g, cycle.vertices) == cycle
            assert taken.isdisjoint(cycle.vertices)
            taken.update(cycle.vertices)
            assert violation == cycle.rhs - sum(x[v] for v in cycle.vertices) > 0
        assert reference_separate_odd_cycle(g.delete_vertices(taken), x) is None
    engine = relaxation_engine(g)
    engine.optimize()
    one_per_round = list(chase_cuts(g, engine, [], set(), elp.CUTS_PER_VERTEX * g.n, disjoint=False))
    assert all(len(r.cuts) == 1 for r in one_per_round)
    assert engine_objective(engine) == sol.objective


def _check_round(g, point):
    # elp._disjoint_cuts, on one double cover with the taken vertices
    # masked, against reference_disjoint_cuts, which rebuilds each
    # remainder and searches it with the independent
    # reference_separate_odd_cycle: the same cuts, in the same order, from
    # as many searches.
    calls = []
    separate = elp.separate_odd_cycle

    def counted(cover):
        calls.append(True)
        return separate(cover)

    def independent(cover):
        calls.append(False)
        h = cover.g
        return reference_separate_odd_cycle(h, dict(zip(h.vertices, point_values(cover.point))))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(elp, "separate_odd_cycle", counted)
        patch.setattr(exact_oracles, "separate_odd_cycle", independent)
        cuts = elp._disjoint_cuts(g, point)
        expected = exact_oracles.reference_disjoint_cuts(g, point)
    assert [_cut(c) for c in cuts] == [_cut(c) for c in expected]
    assert calls.count(True) == calls.count(False) > 0


def _pipeline_rounds(g):
    """(graph, point) of every cut round of run_pipeline(g): the chases of
    solve_elp on each iteration's graph and of each pin."""
    rounds = []
    disjoint_cuts = elp._disjoint_cuts

    def recorded(h, point):
        rounds.append((h, point))
        return disjoint_cuts(h, point)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(elp, "_disjoint_cuts", recorded)
        run_pipeline(g)
    return rounds


# On C5 at (9/10, 1/2, 1/2, 1/2, 1/2) the one violated walk weighs 8/10,
# exactly twice the lightest arc of its base: a base bound or a label cap
# any tighter would miss it.
@settings(max_examples=200, derandomize=True, deadline=None)
@given(_graphs_with_feasible_points())
@example((cycle_graph(5), {v: Rat(9, 10) if v == 1 else Rat(1, 2) for v in range(1, 6)}))
def test_disjoint_cuts_match_rebuilt_subgraphs(case):
    g, x = case
    _check_round(g, scale_point(g, x))


@pytest.mark.parametrize(
    "g",
    [petersen_graph(), torus_grid_graph(5, 5), torus_grid_graph(5, 7), random_gnp_graph(30, 0.3, 1)],
    ids=["petersen", "torus_grid(5,5)", "torus_grid(5,7)", "gnp(30,0.3,1)"],
)
def test_disjoint_cuts_match_rebuilt_subgraphs_along_pipeline(g):
    rounds = _pipeline_rounds(g)
    assert len(rounds) > 1
    for h, point in rounds:
        _check_round(h, point)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(5, 20), st.floats(0.15, 0.5), st.integers(0, 2**32 - 1))
def test_disjoint_cuts_match_rebuilt_subgraphs_on_triangle_free_chases(n, p, seed):
    for h, point in _pipeline_rounds(random_triangle_free_graph(n, p, seed)):
        _check_round(h, point)


def test_elp_sandwich_bounds():
    rng = random.Random(13)
    for _ in range(30):
        g = random_connected_gnp(rng.randint(3, 9), rng.uniform(0.3, 0.8), rng)
        engine = relaxation_engine(g)
        engine.optimize()
        lp = sum(point_values(engine.certified_values()))
        elp = solve_elp(g).objective
        opt = exact_vc(g).opt_size
        assert lp <= elp <= opt
        assert 2 * lp >= opt


def test_classify_edges():
    k2 = complete_graph(2)
    active, over = classify_edges(k2, ([1, 0], 1))
    assert active == ((1, 2),) and over == ()

    tri = complete_graph(3)
    x = {1: Rat(2, 3), 2: Rat(2, 3), 3: Rat(2, 3)}
    active, over = classify_edges(tri, scale_point(tri, x))
    assert active == ()
    assert over == ((1, 2), (1, 3), (2, 3))  # 4/3 boundary is over-active

    t = torus_grid_graph(5, 5)
    x = {v: Rat(3, 5) for v in t.vertices}
    active, over = classify_edges(t, scale_point(t, x))
    assert active == () and over == ()  # 6/5 < 4/3

    # Mixed denominators on both sides of 1 and of 4/3 (lcm 420).
    path = Graph.from_edges(range(1, 8), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)])
    x = {
        1: Rat(1, 4), 2: Rat(3, 4), 3: Rat(4, 7), 4: Rat(16, 21),
        5: Rat(8, 15), 6: Rat(4, 5), 7: Rat(3, 10),
    }
    # Edge sums: 1, 37/28 (4/3 - 1/84), 4/3, 136/105, 4/3, 11/10.
    active, over = classify_edges(path, scale_point(path, x))
    assert active == ((1, 2),)
    assert over == ((3, 4), (5, 6))
    x[1] = Rat(1, 4) - Rat(1, 420)  # edge sum 1 - 1/420
    x[7] = Rat(15, 28)  # edge sum 4/3 + 1/420
    active, over = classify_edges(path, scale_point(path, x))
    assert active == ()
    assert over == ((3, 4), (5, 6), (6, 7))


def test_classify_active_edges_are_small():
    rng = random.Random(3)
    for _ in range(40):
        g = random_connected_gnp(rng.randint(3, 9), rng.uniform(0.3, 0.8), rng)
        sol = solve_elp(g)
        if sol.active_edges:
            assert set(sol.active_edges) <= set(small_edges(g, sol.x))


def test_explore_alternate_finds_active_edge_on_c5():
    # All-3/5 on C5 is optimal (value 3) with no active edge and no unit
    # value; pinning any edge keeps the optimum, giving an integral alternate.
    c5 = cycle_graph(5)
    base = solve_elp(c5)
    assert base.objective == 3
    uniform = {v: Rat(3, 5) for v in c5.vertices}
    active, over = classify_edges(c5, scale_point(c5, uniform))
    assert active == ()
    fake = ElpSolution(
        x=uniform,
        objective=Rat(3),
        cycle_pool=base.cycle_pool,
        active_edges=active,
        over_active_edges=over,
        engine=base.engine,
    )
    alt, pins = explore_alternate_bfs(c5, fake)
    assert alt is not None and pins == 1  # first pin already succeeds
    assert alt.objective == 3 and alt.active_edges


def test_explore_alternate_fails_on_hard_circulant():
    # C11(1,3): unique-value fractional optimum 33/5; every pin raises it.
    g = circulant(11, (1, 3))
    sol = solve_elp(g)
    assert sol.objective == Rat(33, 5)
    assert not sol.active_edges and 1 not in sol.x.values()
    alt, pins = explore_alternate_bfs(g, sol)
    assert alt is None and pins == g.m


def _c5_edge_lp_solution():
    # The edge LP optimum of C5 (all 1/2, value 5/2) with no cut: each pin
    # keeps 5/2 until the chase adds the C5 cut. Its edges are all active, so
    # active_edges is left empty to let the sweep run.
    c5 = cycle_graph(5)
    engine = relaxation_engine(c5)
    engine.optimize()
    x = dict(zip(c5.vertices, point_values(engine.certified_values())))
    assert set(x.values()) == {Rat(1, 2)}
    return c5, ElpSolution(
        x=x, objective=Rat(5, 2), cycle_pool=(), active_edges=(),
        over_active_edges=(), engine=engine,
    )


def test_pinned_chase_raises_past_the_round_cap(monkeypatch):
    c5, sol = _c5_edge_lp_solution()
    alt, pins = explore_alternate_bfs(c5, sol)
    assert alt is None and pins == 5  # each chased cut lifts the value to 3
    monkeypatch.setattr(elp, "CUTS_PER_VERTEX", 0)
    with pytest.raises(CutLoopLimitError):
        explore_alternate_bfs(c5, sol)


def test_explore_alternate_reuses_the_solved_engine(monkeypatch):
    g = circulant(11, (1, 3))
    sol = solve_elp(g)
    objective, nonbasic = engine_objective(sol.engine), list(sol.engine._nonbasic)
    rows = dictionary(sol.engine)

    def no_rebuild(*args):
        raise AssertionError("the pin sweep rebuilt the engine")

    monkeypatch.setattr(elp, "relaxation_engine", no_rebuild)
    assert explore_alternate_bfs(g, sol) == (None, g.m)
    assert engine_objective(sol.engine) == objective and sol.engine._nonbasic == nonbasic
    assert dictionary(sol.engine) == rows


def _sweep_matches_reference(g, sol):
    """The sweep on the optimal face gives the reference sweep's pins and
    alternate, reached by the same pivots."""
    alt, pins = explore_alternate_bfs(g, sol)
    ref_alt, ref_pins = reference_explore_alternate(g, sol)
    assert pins == ref_pins
    if ref_alt is None:
        assert alt is None
        return
    assert alt is not None
    assert alt.x == ref_alt.x and alt.cycle_pool == ref_alt.cycle_pool
    assert alt.engine.pivots == ref_alt.engine.pivots


@st.composite
def _sweepable_solutions(draw):
    """A solved connected G(n, p), n <= 10, whose optimum has no active edge
    and no unit value, so the pin sweep applies to it. Most sparse graphs
    have one or the other, so a seeded rng samples until one qualifies."""
    n = draw(st.integers(4, 10))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    for _ in range(100):
        g = random_connected_gnp(n, rng.uniform(0.3, 0.95), rng)
        sol = solve_elp(g)
        if not sol.active_edges and 1 not in sol.x.values():
            return g, sol
    assume(False)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_sweepable_solutions())
def test_explore_alternate_matches_reference(case):
    _sweep_matches_reference(*case)


def test_explore_alternate_matches_reference_on_fixed_cases():
    _sweep_matches_reference(*_hard_circulant_solution())  # every pin fails at its pin
    _sweep_matches_reference(*_c5_edge_lp_solution())  # every pin fails in the chase


def _hard_circulant_solution():
    g = circulant(11, (1, 3))
    return g, solve_elp(g)


@pytest.mark.parametrize(
    "case, expected",
    [(_hard_circulant_solution, 22), (_c5_edge_lp_solution, 0)],
    ids=["C11(1,3)", "C5 edge LP"],
)
def test_explore_alternate_pivots_of_failing_pins(case, expected, monkeypatch):
    # Solved to optimality, the 22 failing pins of C11(1,3) take 62 pivots
    # and the 5 chased cuts of the C5 edge LP take 6; each pin stops at its
    # first objective-raising pivot instead, at the pin or in the chase.
    g, sol = case()
    optimize = CoveringSimplex.optimize
    pivots = [0]

    def counted(engine, *args, **kwargs):
        before = engine.pivots
        try:
            return optimize(engine, *args, **kwargs)
        finally:
            pivots[0] += engine.pivots - before

    monkeypatch.setattr(CoveringSimplex, "optimize", counted)
    assert explore_alternate_bfs(g, sol) == (None, g.m)
    assert pivots[0] == expected


@pytest.mark.parametrize(
    "case, message",
    [
        (_hard_circulant_solution, r"pin \(1, 2\) left the optimal face: objective 7 != 33/5"),
        (_c5_edge_lp_solution, r"pin \(1, 2\) left the optimal face: objective 3 != 5/2"),
    ],
    ids=["pin", "chase"],
)
def test_explore_alternate_rejects_an_objective_off_target(case, message, monkeypatch):
    # Off the optimal face a failing pin solves on to its higher optimum;
    # the sweep must flag that as a bug, not skip the pin. C11(1,3) rises at
    # the pin itself, the C5 edge LP only after the chased cut.
    g, sol = case()
    monkeypatch.setattr(CoveringSimplex, "optimal_face", CoveringSimplex.copy)
    with pytest.raises(AssertionError, match=message):
        explore_alternate_bfs(g, sol)


def test_explore_alternate_precondition():
    sol = solve_elp(complete_graph(2))
    with pytest.raises(ValueError):
        explore_alternate_bfs(complete_graph(2), sol)


def _check_tableau_invariants(engine):
    # Basic columns are implicit unit columns in dictionary form, so the
    # unit-column checks of a full tableau hold by construction. What is
    # left: basis and nonbasic split the columns exactly, every basic
    # structural column and every violated basic surplus column has a stored
    # row, each stored surplus row equals its derivation from the row as
    # given, every row of the full dictionary is canonical, and the row
    # indexes of the pivot's candidate checks match the rows as given.
    n = engine.num_vars
    total = n + len(engine._given)
    nonbasic = engine._nonbasic
    assert len(nonbasic) == n
    assert engine._position == {col: q for q, col in enumerate(nonbasic)}
    rows = dictionary(engine)
    assert sorted(list(rows) + nonbasic) == list(range(total))
    assert all(col in rows for col in engine._rows)
    x, scale = engine.scaled_values()
    for col in range(n, total):
        if col in rows:
            given, b = engine._given[col - n]
            value = sum(c * x[j] for j, c in given.items()) - b * scale
            assert value * rows[col][2] == rows[col][1] * scale  # the row's rhs is its value
            if value < 0:
                assert col in engine._rows
            if col in engine._rows:
                assert engine._rows[col] == engine._derive(col - n)
    for row, rhs, den in rows.values():
        assert len(row) == n
        assert den > 0
        assert gcd(den, rhs, *row) == 1
    row, rhs, den = engine._cost
    cost = unpack_row(engine, row)
    assert len(cost) == n
    assert den > 0
    assert gcd(den, rhs, *cost) == 1
    check_slot_bound(engine)
    for j in range(n):
        signs = [row.get(j, 0) for row, _ in engine._given]
        assert engine._plus[j] == [k for k, c in enumerate(signs) if c > 0]
        assert engine._minus[j] == [k for k, c in enumerate(signs) if c < 0]


def _zero_one(g, ones):
    return {v: Rat(1 if v in ones else 0) for v in g.vertices}


# The pivot rules and the cut rounds pick one vertex among the optima;
# these were recorded under the dual steepest-edge leaving rule with a
# vertex-disjoint batch of cuts per round, and must not move with the
# arithmetic. The objectives are those of the one-cut-per-round chase.
STEEPEST_EDGE_VERTICES = {
    "petersen": (
        petersen_graph(),
        6,
        _zero_one(petersen_graph(), {2, 3, 5, 6, 9, 10}),
        15,
        ((1, 2, 3, 4, 5), (6, 8, 10, 7, 9)),
    ),
    "torus_grid(5,5)": (
        torus_grid_graph(5, 5),
        15,
        _zero_one(
            torus_grid_graph(5, 5), {2, 4, 5, 6, 8, 9, 12, 13, 15, 16, 17, 19, 21, 23, 25}
        ),
        38,
        (
            (1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (11, 12, 13, 14, 15), (16, 17, 18, 19, 20),
            (21, 22, 23, 24, 25),
        ),
    ),
    "torus_grid(5,7)": (
        torus_grid_graph(5, 7),
        21,
        _zero_one(
            torus_grid_graph(5, 7),
            {2, 4, 6, 7, 8, 10, 11, 12, 13, 16, 17, 19, 21, 22, 23, 25, 27, 29, 31, 33, 35},
        ),
        219,
        (
            (1, 2, 3, 4, 5, 6, 7), (8, 9, 10, 11, 12, 13, 14), (15, 16, 17, 18, 19, 20, 21),
            (22, 23, 24, 25, 26, 27, 28), (29, 30, 31, 32, 33, 34, 35),
            (1, 2, 3, 4, 11, 18, 19, 20, 13, 14, 7), (8, 9, 10, 17, 24, 25, 26, 27, 28, 21, 15),
            (2, 3, 4, 5, 6, 7, 14, 8, 9), (15, 16, 23, 30, 31, 32, 25, 26, 19, 20, 21),
            (1, 7, 6, 5, 4, 3, 10, 9, 8), (13, 14, 21, 28, 22, 23, 30, 31, 32, 25, 26, 19, 20),
            (1, 2, 3, 4, 32, 25, 26, 27, 34, 6, 7), (1, 2, 3, 4, 32, 25, 26, 19, 20, 21, 28, 35, 7),
            (1, 2, 3, 4, 11, 18, 25, 26, 27, 20, 13, 14, 7),
            (15, 16, 23, 30, 31, 32, 33, 34, 35, 28, 21), (1, 2, 30, 31, 32, 25, 26, 27, 28, 35, 7),
            (8, 9, 10, 11, 18, 19, 20, 13, 14), (1, 2, 3, 4, 5, 12, 13, 14, 7),
            (3, 4, 11, 18, 17, 24, 31), (5, 12, 19, 26, 33), (6, 13, 20, 27, 34),
            (7, 14, 21, 28, 35), (3, 4, 32, 25, 18, 17, 10), (2, 9, 16, 23, 30),
            (1, 8, 15, 22, 29), (1, 2, 3, 4, 11, 18, 19, 26, 27, 28, 21, 15, 8),
            (3, 4, 11, 18, 25, 24, 31), (1, 7, 35, 34, 27, 20, 21, 15, 8),
            (2, 3, 10, 17, 24, 23, 30), (1, 7, 35, 28, 21, 15, 8), (4, 5, 12, 19, 26, 25, 32),
            (3, 10, 17, 24, 31), (4, 11, 18, 25, 32),
        ),
    ),
    "gnp(30,0.3,1)": (
        random_gnp_graph(30, 0.3, 1),
        20,
        dict.fromkeys(range(1, 31), Rat(2, 3)),
        151,
        (
            (1, 2, 5), (3, 4, 12, 6, 7), (11, 14, 19, 13, 15), (10, 20, 22), (8, 23, 25),
            (9, 24, 18, 21, 26), (2, 5, 16), (12, 17, 19), (11, 21, 26), (7, 18, 24, 15, 27),
            (6, 22, 28, 25, 30), (1, 5, 10), (3, 7, 18), (6, 16, 19), (13, 15, 23),
            (4, 9, 27, 20, 21), (25, 28, 29), (4, 9, 5, 8, 12), (1, 11, 15), (3, 18, 24),
            (6, 16, 22), (25, 29, 30), (2, 4, 9), (12, 16, 24), (1, 11, 26), (3, 7, 30),
            (14, 17, 19), (7, 11, 27), (6, 12, 24), (1, 28, 29), (2, 8, 30), (13, 19, 23),
            (5, 9, 10), (4, 12, 24), (5, 8, 30), (6, 22, 26), (14, 18, 19), (2, 13, 30),
            (5, 20, 27), (6, 12, 16), (1, 10, 15), (4, 9, 24), (6, 7, 30), (8, 12, 25),
            (9, 15, 27), (1, 21, 29),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(STEEPEST_EDGE_VERTICES))
def test_elp_steepest_edge_vertex_and_tableau_invariants(name, monkeypatch):
    g, objective, x, pivots, pool = STEEPEST_EDGE_VERTICES[name]
    pivot = CoveringSimplex._pivot
    count = [0]

    def checked_pivot(engine, *args):
        pivot(engine, *args)
        count[0] += 1
        _check_tableau_invariants(engine)

    monkeypatch.setattr(CoveringSimplex, "_pivot", checked_pivot)
    sol = solve_elp(g)
    assert sol.objective == objective
    assert sol.x == x
    assert tuple(c.vertices for c in sol.cycle_pool) == pool
    assert count[0] == pivots
