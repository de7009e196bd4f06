import random
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elpcover import elp, simplex
from elpcover._rat import Rat
from elpcover.elp import explore_alternate_bfs, relaxation_engine, solve_elp
from elpcover.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    petersen_graph,
    random_gnp_graph,
    torus_grid_graph,
)
from elpcover.simplex import CoveringSimplex, InfeasibleError, PivotLimitError
import exact_oracles
from exact_oracles import (
    Lockstep,
    ReferenceCoveringSimplex,
    check_slot_bound,
    circulant,
    dictionary,
    engine_objective,
    lp_value_half_integral,
    lp_vertex_enumeration,
    point_values,
    random_connected_gnp,
    rational_rank,
    unpack_row,
    with_rows,
)

HALF_SET = {Rat(0), Rat(1, 2), Rat(1)}


def _solved(engine):
    """Optimize, then return the certified optimal x."""
    engine.optimize()
    return point_values(engine.certified_values())


def _dense(engine):
    """The engine's rows as dense (coeffs, ">=", rhs) for lp_vertex_enumeration."""
    return [
        (tuple(row.get(j, 0) for j in range(engine.num_vars)), ">=", rhs)
        for row, rhs in engine._given
    ]


def _int_row(coeffs, rhs):
    """The rational row coeffs.x >= rhs as the int row CoveringSimplex
    takes, ({column: int}, int), scaled by the lcm of its denominators as
    ReferenceCoveringSimplex scales it."""
    scale = lcm(Fraction(rhs).denominator, *(Fraction(c).denominator for c in coeffs))
    return {j: int(c * scale) for j, c in enumerate(coeffs) if c}, int(rhs * scale)


def _pinned(engine, i):
    """engine with its row i pinned to equality by the negated row."""
    row, rhs = engine._given[i]
    engine.add_ge_row({j: -c for j, c in row.items()}, -rhs)
    return engine


def test_k2_lp():
    values = _solved(relaxation_engine(complete_graph(2)))
    assert sum(values) == 1
    assert sorted(values) == [0, 1]  # a vertex, not the (1/2, 1/2) midpoint


def test_k3_lp_half_integral_optimum():
    engine = relaxation_engine(complete_graph(3))
    values = _solved(engine)
    assert sum(values) == Rat(3, 2)
    assert tuple(values) == (Rat(1, 2),) * 3
    # value matches the independent vertex-enumeration oracle
    assert lp_vertex_enumeration(3, _dense(engine)) == Fraction(3, 2)


def test_c4_lp():
    assert sum(_solved(relaxation_engine(cycle_graph(4)))) == 2


def test_add_row_triangle_cut():
    engine = relaxation_engine(complete_graph(3))
    engine.add_ge_row({0: 1, 1: 1, 2: 1}, 2)
    assert sum(_solved(engine)) == 2
    assert lp_vertex_enumeration(3, _dense(engine)) == 2


def test_add_implied_or_duplicate_row_keeps_objective():
    base = sum(_solved(relaxation_engine(complete_graph(3))))
    implied = relaxation_engine(complete_graph(3))
    implied.add_ge_row({0: 2, 1: 2, 2: 2}, 2)  # implied by any single edge row
    assert sum(_solved(implied)) == base
    duplicate = relaxation_engine(complete_graph(3))
    duplicate.add_ge_row({0: 1, 1: 1}, 1)
    assert sum(_solved(duplicate)) == base


def test_solve_with_equality_k2():
    values = _solved(_pinned(relaxation_engine(complete_graph(2)), 0))
    assert sum(values) == 1
    assert values[0] + values[1] == 1


def test_solve_with_equality_k3_elp():
    engine = relaxation_engine(complete_graph(3))
    engine.add_ge_row({0: 1, 1: 1, 2: 1}, 2)
    values = _solved(_pinned(engine, 0))  # pin x1 + x2 = 1
    assert sum(values) == 2
    assert values[0] + values[1] == 1
    assert sorted(values) in ([0, 1, 1],)


def test_solve_with_equality_c4():
    assert sum(_solved(_pinned(relaxation_engine(cycle_graph(4)), 0))) == 2


def test_solve_with_equality_infeasible():
    # x1 >= 2 (scaled) conflicts with pinning x1 + x2 = 1 when x2 also >= 2.
    engine = with_rows(CoveringSimplex(2), [({0: 1, 1: 1}, 1), ({0: 1}, 2), ({1: 1}, 2)])
    with pytest.raises(InfeasibleError):
        _solved(_pinned(engine, 0))


def test_empty_and_trivial_problems():
    assert sum(_solved(CoveringSimplex(0)), Rat(0)) == 0
    values = _solved(CoveringSimplex(3))  # no rows: origin is optimal
    assert sum(values) == 0 and tuple(values) == (Rat(0),) * 3


def test_exactness_zero_tolerance():
    # 1000 edges chained: values must verify rows exactly, no drift.
    n = 60
    rows = [({i: 1, i + 1: 1}, 1) for i in range(n - 1)]
    values = _solved(with_rows(CoveringSimplex(n), rows))
    for coeffs, rhs in rows:
        assert sum(c * values[j] for j, c in coeffs.items()) >= rhs
    assert sum(values) == Rat((n - 1 + 1) // 2)  # path cover number


def test_determinism_identical_solutions():
    rng = random.Random(5)
    for _ in range(20):
        g = random_connected_gnp(rng.randint(3, 8), 0.5, rng)
        a, b = relaxation_engine(g), relaxation_engine(g)
        assert _solved(a) == _solved(b)
        assert a._nonbasic == b._nonbasic and dictionary(a) == dictionary(b)


def test_half_integrality_of_basic_solutions():
    rng = random.Random(11)
    for _ in range(60):
        g = random_connected_gnp(rng.randint(2, 9), rng.uniform(0.25, 0.8), rng)
        values = _solved(relaxation_engine(g))
        assert all(v in HALF_SET for v in values), values


def test_lp_value_matches_half_integral_oracle():
    rng = random.Random(23)
    for _ in range(25):
        g = random_connected_gnp(rng.randint(2, 8), rng.uniform(0.3, 0.8), rng)
        values = _solved(relaxation_engine(g))
        assert Fraction(str(sum(values))) == lp_value_half_integral(g)


def test_vertex_property_tight_constraints_have_full_rank():
    # The tight rows plus tight bounds at the returned point span R^n.
    rng = random.Random(31)
    for _ in range(25):
        g = random_connected_gnp(rng.randint(2, 8), rng.uniform(0.3, 0.8), rng)
        engine = relaxation_engine(g)
        values = _solved(engine)
        n = engine.num_vars
        rows = _dense(engine)
        tight_rows = {
            i for i, (coeffs, _, rhs) in enumerate(rows)
            if sum(c * v for c, v in zip(coeffs, values)) == rhs
        }
        tight = [list(rows[i][0]) for i in tight_rows]
        for j, v in enumerate(values):
            if v == 0:
                unit = [Rat(0)] * n
                unit[j] = Rat(1)
                tight.append(unit)
        assert rational_rank(tight) == n
        # The n nonbasic columns witness the vertex: each is a variable at
        # zero or the surplus of a tight row.
        assert len(set(engine._nonbasic)) == n
        for col in engine._nonbasic:
            if col < n:
                assert values[col] == 0
            else:
                assert col - n in tight_rows


def test_pinned_value_matches_vertex_enumeration_oracle():
    rng = random.Random(43)
    for _ in range(10):
        g = random_connected_gnp(rng.randint(2, 5), 0.7, rng)
        engine = relaxation_engine(g)
        if not g.m:
            continue
        idx = rng.randrange(g.m)
        rows = [
            (coeffs, "=" if i == idx else rel, rhs)
            for i, (coeffs, rel, rhs) in enumerate(_dense(engine))
        ]
        expected = lp_vertex_enumeration(engine.num_vars, rows)
        try:
            got = sum(_solved(_pinned(engine, idx)))
        except InfeasibleError:
            assert expected is None
            continue
        assert expected is not None and Fraction(str(got)) == expected


def test_dual_certificate_rejects_tampered_engine():
    # min x1 + x2 s.t. x1 + 2 x2 >= 2, 2 x1 + x2 >= 2: optimum 4/3 at (2/3, 2/3).
    rows = [({0: 1, 1: 2}, 2), ({0: 2, 1: 1}, 2)]

    engine = with_rows(CoveringSimplex(2), rows)
    assert sum(_solved(engine)) == Rat(4, 3)

    # A feasible but non-optimal basis: x1 enters on row 0 (leaving column
    # 2, its surplus; x1 sits at position 0), giving (2, 0).
    off = with_rows(CoveringSimplex(2), rows)
    off._pivot(2, 0)
    assert point_values(off.scaled_values()) == [2, 0]
    with pytest.raises(AssertionError, match="dual infeasible"):
        off.certified_values()

    # Duals that stay feasible but prove a weaker bound than the objective.
    row, rhs, den = engine._cost
    engine._cost = row, rhs, den * 2
    with pytest.raises(AssertionError, match="duality gap"):
        engine.certified_values()


_COEFF = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=0, max_value=3, max_denominator=4)
)


@st.composite
def _covering_lps(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=4))
    rows = [
        (
            tuple(draw(_COEFF) for _ in range(n)),
            draw(st.fractions(min_value=0, max_value=3, max_denominator=4)),
        )
        for _ in range(m)
    ]
    return n, rows, draw(st.integers(min_value=0, max_value=m - 1))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_covering_lps())
def test_solve_matches_vertex_enumeration_on_rational_rows(case):
    # The engine gets each rational row scaled to ints, the enumeration the
    # rational row itself; every solve goes through certified_values and so
    # through the dual certificate.
    n, rows, pin = case
    for rel_at_pin in (">=", "="):
        expected = lp_vertex_enumeration(
            n, [(c, rel_at_pin if i == pin else ">=", r) for i, (c, r) in enumerate(rows)]
        )
        engine = with_rows(CoveringSimplex(n), [_int_row(c, r) for c, r in rows])
        if rel_at_pin == "=":
            _pinned(engine, pin)
        try:
            got = sum(_solved(engine))
        except InfeasibleError:
            assert expected is None
            continue
        assert expected is not None and Fraction(str(got)) == expected


def _k3_engine():
    # The K3 edge relaxation takes three pivots from the surplus basis.
    return relaxation_engine(complete_graph(3))


def test_pivot_cap_bounds_a_single_call(monkeypatch):
    monkeypatch.setattr(simplex, "PIVOT_CAP", 1)
    with pytest.raises(PivotLimitError):
        _k3_engine().optimize()
    monkeypatch.setattr(simplex, "PIVOT_CAP", 3)
    engine = _k3_engine()
    engine.optimize()
    assert engine.pivots == 3


def test_pivot_cap_ignores_pivots_of_earlier_calls_and_copies(monkeypatch):
    engine = _k3_engine()
    engine.pivots = 10**6  # as after a long cut loop
    monkeypatch.setattr(simplex, "PIVOT_CAP", 3)
    engine.optimize()
    trial = engine.copy()
    trial.add_ge_row({0: 1, 1: 1, 2: 1}, 2)  # the triangle cut: one more pivot
    monkeypatch.setattr(simplex, "PIVOT_CAP", 1)
    trial.optimize()
    assert trial.pivots == 10**6 + 4
    assert engine_objective(trial) == 2


def _path_engine():
    # min x0 + x1 + x2 over x0 + x1 >= 1, solved at x = (1, 0, 0) with value 1.
    engine = with_rows(CoveringSimplex(3), [({0: 1, 1: 1}, 1)])
    engine.optimize()
    assert engine.scaled_values() == ([1, 0, 0], 1) and engine.pivots == 1
    return engine


def test_optimal_face_follows_a_zero_cost_path():
    # x1 + x2 >= 1 is cut off at (1, 0, 0); x1 enters at reduced cost 0
    # (x1 = 1 - x0 + s0), so the value stays 1 and the face lets it pass.
    engine = _path_engine().optimal_face()
    engine.add_ge_row({1: 1, 2: 1}, 1)
    engine.optimize()
    assert engine.pivots == 2
    assert engine.certified_values() == ([0, 1, 0], 1) and engine_objective(engine) == 1


def test_optimal_face_stops_before_a_rising_pivot():
    # x2 >= 1 can only be met by x2 entering at reduced cost 1: on the face
    # no pivot is made and the engine is left as it was.
    def snapshot(e):
        row, rhs, den = e._cost
        return dict(e._rows), dictionary(e), list(e._nonbasic), unpack_row(e, row), rhs, den

    engine = _path_engine()
    face = engine.optimal_face()
    for e in (engine, face):
        e.add_ge_row({2: 1}, 1)
    before = snapshot(face)
    with pytest.raises(InfeasibleError):
        face.optimize()
    assert face.pivots == 1 and snapshot(face) == before
    engine.optimize()  # off the face the same pivot is made
    assert engine.pivots == 2 and engine_objective(engine) == 2


def test_stall_fallback_ends_certified_optimal(monkeypatch):
    # The C11(1,3) optimum is degenerate, so its pinned LPs make runs of
    # zero-cost pivots. With STALL_LIMIT = 1 the leaving rule falls back to
    # Bland's after each one; every pin must still end certified optimal at
    # the value that pure Bland (STALL_LIMIT = 0) reaches.
    g = circulant(11, (1, 3))
    sol = solve_elp(g)
    index = {v: j for j, v in enumerate(g.vertices)}

    def pinned_objective(u, v, stall_limit):
        monkeypatch.setattr(simplex, "STALL_LIMIT", stall_limit)
        trial = sol.engine.copy()
        trial.add_ge_row({index[u]: -1, index[v]: -1}, -1)
        trial.optimize()
        return sum(point_values(trial.certified_values()))

    pins = list(g.edges())
    expected = [pinned_objective(u, v, 0) for u, v in pins]
    bland_row = simplex._bland_row
    fallbacks = [0]

    def counted(*args):
        fallbacks[0] += 1
        return bland_row(*args)

    monkeypatch.setattr(simplex, "_bland_row", counted)
    assert [pinned_objective(u, v, 1) for u, v in pins] == expected
    assert fallbacks[0] > 0  # the fallback did pick leaving rows


@st.composite
def _packable(draw):
    """A slot width, entries within its bound, and two multipliers."""
    width = draw(st.sampled_from((16, 64, 128)))
    top = (1 << (width // 2 - 2)) - 1
    entry = st.one_of(st.integers(-top, top), st.sampled_from((top, -top)))
    return width, draw(st.lists(entry, max_size=12)), draw(entry), draw(entry)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_packable())
@example((64, [], 1, 1))
@example((64, [2**30 - 1], 2**30 - 1, -(2**30 - 1)))
@example((64, [-(2**30 - 1), 2**30 - 1, 0], -(2**30 - 1), 2**30 - 1))
def test_packed_rows_round_trip(case):
    # A packed row reads back as its entries, through the engine's unpack,
    # the slot read of _pivot and the tests' own decoder, and passes the
    # bound check; an entry at the bound fails it. A combination of packed
    # rows is the combination of their entries, slot by slot.
    width, entries, scale, f = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "SLOT_WIDTH", width)
        engine = CoveringSimplex(len(entries))
    slots = engine._slots
    row, other = slots.pack(entries), slots.pack(entries[::-1])
    assert list(slots.unpack(row)) == entries == unpack_row(engine, row)
    for q, e in enumerate(entries):
        assert (((row + slots.bias) >> (width * q)) & slots.mask) - slots.half == e
    assert not (row + slots.room) & slots.high
    combined = [a * scale - f * b for a, b in zip(entries, entries[::-1])]
    assert unpack_row(engine, row * scale - f * other) == combined
    for bad in (slots.limit, -slots.limit - 1) if entries else ():
        assert (slots.pack([bad, *entries[1:]]) + slots.room) & slots.high


def test_rows_past_the_slot_bound_widen_the_engine():
    # Coefficients of 2^70 do not fit the default slots: the engine re-encodes
    # its rows at wider slots and reaches the point of the rows scaled down.
    rows = [({0: 1, 1: 2}, 2), ({0: 2, 1: 1}, 2)]
    big = with_rows(CoveringSimplex(2), [({j: c << 70 for j, c in r.items()}, b << 70) for r, b in rows])
    small = with_rows(CoveringSimplex(2), rows)
    assert big.scaled_values() == ([0, 0], 1)
    for engine in (big, small):
        engine.optimize()
    assert big._slots.width > simplex.SLOT_WIDTH == small._slots.width
    assert point_values(big.certified_values()) == point_values(small.certified_values())
    assert engine_objective(big) == engine_objective(small) == Rat(4, 3)


def test_a_cost_row_past_the_slot_bound_widens_the_engine(monkeypatch):
    # With 8-bit slots (bound 2^2) a pivot of this LP keeps every stored row
    # within the bound but not the cost row, which must widen the engine.
    rows = [({0: 2, 1: 1}, 1), ({0: 2, 1: 2, 2: 3}, 3)]
    expected = with_rows(CoveringSimplex(3), rows)
    expected.optimize()
    pivot = CoveringSimplex._pivot

    def checked(engine, *args):
        pivot(engine, *args)
        check_slot_bound(engine)

    monkeypatch.setattr(simplex, "SLOT_WIDTH", 8)
    monkeypatch.setattr(CoveringSimplex, "_pivot", checked)
    engine = with_rows(CoveringSimplex(3), rows)
    engine.optimize()
    assert engine._slots.width > 8
    assert engine.certified_values() == expected.certified_values()


def test_derive_widens_before_a_slot_sum_can_overflow(monkeypatch):
    # A hand-built state at 8-bit slots (bound 2^2, half range 2^7): basic
    # x0..x3 over denominators 1..4 with entries within the bound, and a
    # given row 4x0 + 4x1 + 4x2 + 3x3 >= 1. Summed over mult = 12 its first
    # slot reaches 256, which would carry into the next slot and normalize
    # to a row that looks valid; _derive must widen before it sums.
    monkeypatch.setattr(simplex, "SLOT_WIDTH", 8)
    engine = CoveringSimplex(4)
    pack = engine._slots.pack
    basic = {
        0: ([4, 0, 0, 0], 0, 1), 1: ([2, 0, 0, 0], 1, 2),
        2: ([1, -2, 0, 0], 0, 3), 3: ([0, 3, 0, 0], 0, 4),
    }
    engine._rows = {j: (pack(row), rhs, den) for j, (row, rhs, den) in basic.items()}
    engine._nonbasic, engine._position = [4, 5, 6, 7], {4: 0, 5: 1, 6: 2, 7: 3}
    engine._given = [({j: 1}, 0) for j in range(4)] + [({0: 4, 1: 4, 2: 4, 3: 3}, 1)]
    coeffs = engine._given[4][0]
    # The derivation over lists: sum_j c_j * (12 / den_j) * row_j, rhs
    # -12 + sum_j c_j * (12 / den_j) * rhs_j, over 12; already canonical.
    f = {j: c * (12 // basic[j][2]) for j, c in coeffs.items()}
    expected = [sum(f[j] * basic[j][0][q] for j in f) for q in range(4)]
    assert expected == [256, -5, 0, 0]
    row, rhs, den = engine._derive(4)
    assert (unpack_row(engine, row), rhs, den) == (expected, 12, 12)
    assert engine._slots.width > 8


def test_norms_are_kept_for_the_violated_rows_alone(monkeypatch):
    # Each steepest-edge choice hands back, by basic column, the stored row
    # and its norm, den^2 plus the squared entries, for every row it found
    # violated and for no other row, and the engine keeps just that dict;
    # copies share it. So through a cut chase and a pin sweep no engine
    # holds more norms than stored rows.
    steepest, copy = simplex._steepest_row, CoveringSimplex.copy
    choices, copies = [], []

    def checked_choice(rows, norms, unpack):
        leave, kept = steepest(rows, norms, unpack)
        assert set(kept) == {col for col, entry in rows.items() if entry[1] < 0}
        for col, (entry, norm) in kept.items():
            row, _, den = entry
            assert entry is rows[col] and norm == den * den + sum(e * e for e in unpack(row))
        choices.append(len(kept))
        return leave, kept

    def checked_copy(engine):
        dup = copy(engine)
        assert dup._norms is engine._norms and len(dup._norms) <= len(dup._rows)
        copies.append(dup)
        return dup

    monkeypatch.setattr(simplex, "_steepest_row", checked_choice)
    monkeypatch.setattr(CoveringSimplex, "copy", checked_copy)
    g = circulant(11, (1, 3))
    explore_alternate_bfs(g, solve_elp(g))
    assert len(copies) >= g.m and max(choices) > 1


def _simple_pairs(n):
    """Lists of pairs of distinct columns below n, no two on the same two
    columns, each pair in either order."""
    if n < 2:
        return st.just([])
    column = st.integers(0, n - 1)
    pair = st.tuples(column, column).filter(lambda p: p[0] != p[1])
    return st.lists(pair, unique_by=frozenset)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.integers(min_value=0, max_value=12).flatmap(lambda n: st.tuples(st.just(n), _simple_pairs(n))),
    st.sampled_from((simplex.SLOT_WIDTH, 8)),
)
@example((0, []), simplex.SLOT_WIDTH)
@example((12, []), simplex.SLOT_WIDTH)
def test_covering_builds_the_engine_the_edge_rows_build(graph, width):
    # CoveringSimplex(n, pairs) is CoveringSimplex(n) with one add_ge_row({i: 1,
    # j: 1}, 1) per pair, field for field, and it keeps a norm for each
    # stored row: that very row, with norm den^2 plus its squared entries.
    n, pairs = graph
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "SLOT_WIDTH", width)
        built = CoveringSimplex(n, pairs)
        added = CoveringSimplex(n)
        for i, j in pairs:
            added.add_ge_row({i: 1, j: 1}, 1)
    for field in (
        "num_vars", "_rows", "_given", "_plus", "_minus", "_nonbasic", "_position", "_cost",
        "_slots", "pivots", "_on_face",
    ):
        assert getattr(built, field) == getattr(added, field), field
    assert built._norms.keys() == built._rows.keys()
    for col, (entry, norm) in built._norms.items():
        row, _, den = entry
        assert entry is built._rows[col]
        assert norm == den * den + sum(e * e for e in unpack_row(built, row))


def test_a_fresh_engine_grows_linearly_in_its_vertex_count():
    # A fresh engine holds a few packed ints of num_vars slots and some
    # bookkeeping per column, and nothing that grows with the square of
    # num_vars: over 4000 vertices and one edge it peaks near 1.3 MB (a
    # packed unit per column would take 35 MB). The slot constants are
    # built afresh, not taken from the cache.
    g = Graph.from_edges(range(1, 4001), [(1, 2)])
    simplex._Slots.cache_clear()
    tracemalloc.start()
    try:
        relaxation_engine(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_scaled_values_are_the_values_over_one_denominator():
    engine = relaxation_engine(complete_graph(3))
    assert engine.scaled_values() == ([0, 0, 0], 1)  # nothing basic yet
    engine.optimize()
    assert point_values(engine.scaled_values()) == [Rat(1, 2)] * 3
    assert engine.certified_values() == engine.scaled_values()


def _optimize_both(engine, reference, same_pivots):
    """Run both engines to optimality and require the same outcome: the
    same InfeasibleError behaviour and objective, with the engine's point
    certified optimal. With same_pivots (both engines on Bland's rule) the
    pivot counts, bases and vertices must match too."""
    outcomes = []
    for e in (engine, reference):
        try:
            e.optimize()
            outcomes.append(True)
        except InfeasibleError:
            outcomes.append(False)
    assert outcomes[0] == outcomes[1]
    if same_pivots:
        assert engine.pivots == reference.pivots
        assert sorted(dictionary(engine)) == sorted(reference._basis)
    if outcomes[0]:
        point = engine.certified_values()
        assert point == engine.scaled_values()
        values = point_values(point)
        assert engine_objective(engine) == sum(values, Rat(0)) == reference.objective()
        if same_pivots:
            assert values == reference.values()


_ROW = st.tuples(
    st.lists(_COEFF, min_size=5, max_size=5),
    st.fractions(min_value=0, max_value=3, max_denominator=4),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.lists(_ROW, min_size=1, max_size=5),
    st.lists(_ROW, max_size=3),
    st.integers(min_value=0, max_value=7),
)
def test_compact_engine_matches_reference_engine(n, rows, cuts, pin):
    # The reference is the dict-tableau engine on Bland's rules. With
    # STALL_LIMIT = 0 the compact engine leaves by Bland's rule too and
    # must make the same pivots and reach the same bases and vertices; under
    # the steepest-edge rule it must reach the same outcome and objective.
    # Both runs cover the initial rows, each appended cut, and copies with
    # one row pinned to equality by its negation.
    rows = [(coeffs[:n], rhs) for coeffs, rhs in rows]
    for stall_limit in (0, simplex.STALL_LIMIT):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simplex, "STALL_LIMIT", stall_limit)
            same = stall_limit == 0
            engine = with_rows(CoveringSimplex(n), [_int_row(c, r) for c, r in rows])
            reference = ReferenceCoveringSimplex(n, rows)
            _optimize_both(engine, reference, same)
            for coeffs, rhs in cuts:
                engine.add_ge_row(*_int_row(coeffs[:n], rhs))
                reference.add_ge_row(coeffs[:n], rhs)
                _optimize_both(engine, reference, same)
            coeffs, rhs = (rows + [(c[:n], r) for c, r in cuts])[pin % (len(rows) + len(cuts))]
            trial, reference_trial = engine.copy(), reference.copy()
            row, bound = _int_row(coeffs, rhs)
            trial.add_ge_row({j: -c for j, c in row.items()}, -bound)
            reference_trial.add_ge_row([-c for c in coeffs], -rhs)
            _optimize_both(trial, reference_trial, same)
            _optimize_both(engine, reference, same)  # the copies left the originals alone


# Rows of any sign: the engine takes every a.x >= b, and rows with negative
# coefficients are the ones whose violation a rising column can cause.
_SIGNED_ROW = st.tuples(
    st.lists(
        st.one_of(st.just(Fraction(0)), st.fractions(min_value=-2, max_value=3, max_denominator=4)),
        min_size=5,
        max_size=5,
    ),
    st.fractions(min_value=-2, max_value=3, max_denominator=4),
)


def _optimize(engine):
    try:
        engine.optimize()
    except InfeasibleError:
        pass


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.lists(_ROW, min_size=1, max_size=5),
    st.lists(_SIGNED_ROW, max_size=4),
    st.integers(min_value=0, max_value=8),
    st.sampled_from((simplex.STALL_LIMIT, 1, 0)),
    st.sampled_from((simplex.SLOT_WIDTH, 8)),
)
def test_engine_matches_full_dictionary_engine(n, rows, cuts, pin, stall_limit, width):
    # Lockstep drives the engine and the full-dictionary engine it
    # replaced through the same calls: each pivot must leave and enter the
    # same columns and leave the same full dictionary, with the row of
    # every violated column stored, and every stored surplus row must
    # equal its derivation. Both run all rows from cold, then the covering
    # rows with each row of any sign appended and solved in turn, a pinned
    # copy solved freely and on the optimal face (the full-dictionary engine
    # under the unpinned objective as ceiling), and the original again,
    # under steepest edge, an early Bland fallback, and Bland's rule alone,
    # from the default slots and from 8-bit slots that widen again and again.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "SLOT_WIDTH", width)
        mp.setattr(simplex, "STALL_LIMIT", stall_limit)
        mp.setattr(exact_oracles, "STALL_LIMIT", stall_limit)
        cold = with_rows(Lockstep(n), [_int_row(c[:n], r) for c, r in rows + cuts])
        _optimize(cold)
        both = with_rows(Lockstep(n), [_int_row(c[:n], r) for c, r in rows])
        _optimize(both)
        for coeffs, rhs in cuts:
            both.add_ge_row(*_int_row(coeffs[:n], rhs))
            _optimize(both)
        coeffs, rhs = (rows + cuts)[pin % (len(rows) + len(cuts))]
        row, bound = _int_row(coeffs[:n], rhs)
        for pinned in (both.copy, both.optimal_face):
            trial = pinned()
            trial.add_ge_row({j: -c for j, c in row.items()}, -bound)
            _optimize(trial)
        _optimize(both)  # the copies left the original alone


# The graphs of the benchmark's lp-large workload.
LP_LARGE = {
    "petersen": petersen_graph(),
    "torus_grid(5,5)": torus_grid_graph(5, 5),
    "torus_grid(5,7)": torus_grid_graph(5, 7),
    "gnp(30,0.3,1)": random_gnp_graph(30, 0.3, 1),
}


@pytest.mark.parametrize("name", list(LP_LARGE))
def test_cut_chase_matches_full_dictionary_engine(name, monkeypatch):
    # The whole cut chase of each lp-large graph runs in lockstep with the
    # full-dictionary engine: one long cold solve and dozens of warm
    # restarts after a cut.
    g = LP_LARGE[name]
    expected = solve_elp(g)
    monkeypatch.setattr(elp, "CoveringSimplex", Lockstep)
    sol = solve_elp(g)
    assert sol.x == expected.x and sol.cycle_pool == expected.cycle_pool
    assert sol.engine.pivots == expected.engine.pivots


def test_pin_sweep_matches_full_dictionary_engine(monkeypatch):
    # Every pin of C11(1,3) fails: the optimal face, its copies, pin rows,
    # and optimize stopped at the face, all in lockstep with the
    # full-dictionary engine stopped by its ceiling.
    g = circulant(11, (1, 3))
    monkeypatch.setattr(elp, "CoveringSimplex", Lockstep)
    sol = solve_elp(g)
    assert explore_alternate_bfs(g, sol) == (None, g.m)
