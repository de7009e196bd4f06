import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elpcover._rat import Rat
from elpcover.elp import edge_relaxation
from elpcover.graph import complete_graph, cycle_graph
from elpcover.oracles import rational_rank
from elpcover.simplex import (
    CoveringSimplex,
    InfeasibleError,
    LpProblem,
    LpRow,
    PivotLimitError,
    add_row,
    finalize_solution,
    solve,
    solve_with_equality,
)
from exact_oracles import (
    ReferenceCoveringSimplex,
    lp_value_half_integral,
    lp_vertex_enumeration,
    random_connected_gnp,
)

HALF_SET = {Rat(0), Rat(1, 2), Rat(1)}


def test_k2_lp():
    sol = solve(edge_relaxation(complete_graph(2)))
    assert sol.objective == 1
    assert sorted(sol.values) == [0, 1]  # a vertex, not the (1/2, 1/2) midpoint


def test_k3_lp_half_integral_optimum():
    sol = solve(edge_relaxation(complete_graph(3)))
    assert sol.objective == Rat(3, 2)
    assert tuple(sol.values) == (Rat(1, 2),) * 3
    # value matches the independent vertex-enumeration oracle
    rows = [(r.coeffs, r.rel, r.rhs) for r in edge_relaxation(complete_graph(3)).rows]
    assert lp_vertex_enumeration(3, rows) == Fraction(3, 2)


def test_c4_lp():
    sol = solve(edge_relaxation(cycle_graph(4)))
    assert sol.objective == 2


def test_add_row_triangle_cut():
    p = edge_relaxation(complete_graph(3))
    cut = add_row(p, (1, 1, 1), ">=", 2)
    sol = solve(cut)
    assert sol.objective == 2
    rows = [(r.coeffs, r.rel, r.rhs) for r in cut.rows]
    assert lp_vertex_enumeration(3, rows) == 2


def test_add_implied_or_duplicate_row_keeps_objective():
    p = edge_relaxation(complete_graph(3))
    base = solve(p).objective
    implied = add_row(p, (2, 2, 2), ">=", 2)  # implied by any single edge row
    assert solve(implied).objective == base
    duplicate = add_row(p, (1, 1, 0), ">=", 1)
    assert solve(duplicate).objective == base


def test_add_row_width_mismatch():
    p = edge_relaxation(complete_graph(3))
    with pytest.raises(ValueError):
        add_row(p, (1, 1), ">=", 1)


def test_solve_with_equality_k2():
    p = edge_relaxation(complete_graph(2))
    sol = solve_with_equality(p, 0)
    assert sol.objective == 1
    assert sol.values[0] + sol.values[1] == 1


def test_solve_with_equality_k3_elp():
    cut = add_row(edge_relaxation(complete_graph(3)), (1, 1, 1), ">=", 2)
    sol = solve_with_equality(cut, 0)  # pin x1 + x2 = 1
    assert sol.objective == 2
    assert sol.values[0] + sol.values[1] == 1
    assert sorted(sol.values) in ([0, 1, 1],)


def test_solve_with_equality_c4():
    p = edge_relaxation(cycle_graph(4))
    sol = solve_with_equality(p, 0)
    assert sol.objective == 2


def test_solve_with_equality_infeasible():
    # x1 >= 2 (scaled) conflicts with pinning x1 + x2 = 1 when x2 also >= 2.
    p = LpProblem(
        2,
        (
            LpRow((1, 1), ">=", 1),
            LpRow((1, 0), ">=", 2),
            LpRow((0, 1), ">=", 2),
        ),
    )
    with pytest.raises(InfeasibleError):
        solve_with_equality(p, 0)


def test_empty_and_trivial_problems():
    assert solve(LpProblem(0, ())).objective == 0
    sol = solve(LpProblem(3, ()))  # no rows: origin is optimal
    assert sol.objective == 0 and tuple(sol.values) == (Rat(0),) * 3


def test_exactness_zero_tolerance():
    # 1000 edges chained: values must verify rows exactly, no drift.
    n = 60
    rows = tuple(
        LpRow(
            tuple(Rat(1) if j in (i, i + 1) else Rat(0) for j in range(n)), ">=", 1
        )
        for i in range(n - 1)
    )
    sol = solve(LpProblem(n, rows))
    for row in rows:
        assert sum(c * v for c, v in zip(row.coeffs, sol.values)) >= row.rhs
    assert sol.objective == Rat((n - 1 + 1) // 2)  # path cover number


def test_determinism_identical_solutions():
    rng = random.Random(5)
    for _ in range(20):
        g = random_connected_gnp(rng.randint(3, 8), 0.5, rng)
        p = edge_relaxation(g)
        a = solve(p)
        b = solve(p)
        assert a == b


def test_half_integrality_of_basic_solutions():
    rng = random.Random(11)
    for _ in range(60):
        g = random_connected_gnp(rng.randint(2, 9), rng.uniform(0.25, 0.8), rng)
        sol = solve(edge_relaxation(g))
        assert all(v in HALF_SET for v in sol.values), sol.values


def test_lp_value_matches_half_integral_oracle():
    rng = random.Random(23)
    for _ in range(25):
        g = random_connected_gnp(rng.randint(2, 8), rng.uniform(0.3, 0.8), rng)
        sol = solve(edge_relaxation(g))
        assert Fraction(str(sol.objective)) == lp_value_half_integral(g)


def test_vertex_property_tight_constraints_have_full_rank():
    # The tight rows plus tight bounds at the returned point span R^n.
    rng = random.Random(31)
    for _ in range(25):
        g = random_connected_gnp(rng.randint(2, 8), rng.uniform(0.3, 0.8), rng)
        p = edge_relaxation(g)
        sol = solve(p)
        tight = [list(p.rows[i].coeffs) for i in sol.tight_rows]
        for j, v in enumerate(sol.values):
            if v == 0:
                unit = [Rat(0)] * p.num_vars
                unit[j] = Rat(1)
                tight.append(unit)
        assert rational_rank(tight) == p.num_vars
        assert len(sol.basis_witness) >= p.num_vars - 1  # deduped identifiers


def test_pinned_value_matches_vertex_enumeration_oracle():
    rng = random.Random(43)
    for _ in range(10):
        g = random_connected_gnp(rng.randint(2, 5), 0.7, rng)
        p = edge_relaxation(g)
        if not p.rows:
            continue
        idx = rng.randrange(len(p.rows))
        rows = [
            (r.coeffs, "=" if i == idx else r.rel, r.rhs)
            for i, r in enumerate(p.rows)
        ]
        expected = lp_vertex_enumeration(p.num_vars, rows)
        try:
            got = solve_with_equality(p, idx).objective
        except InfeasibleError:
            assert expected is None
            continue
        assert expected is not None and Fraction(str(got)) == expected


def test_dual_certificate_rejects_tampered_engine():
    # min x1 + x2 s.t. x1 + 2 x2 >= 2, 2 x1 + x2 >= 2: optimum 4/3 at (2/3, 2/3).
    problem = LpProblem(2, (LpRow((1, 2), ">=", 2), LpRow((2, 1), ">=", 2)))
    rows = [(r.coeffs, r.rhs) for r in problem.rows]

    engine = CoveringSimplex(2, rows)
    engine.optimize()
    assert finalize_solution(problem, engine, [0, 1]).objective == Rat(4, 3)

    # A feasible but non-optimal basis: x1 enters on row 0, giving (2, 0).
    off = CoveringSimplex(2, rows)
    off._pivot(0, 0)
    assert off.values() == [2, 0]
    with pytest.raises(AssertionError, match="dual infeasible"):
        finalize_solution(problem, off, [0, 1])

    # Duals that stay feasible but prove a weaker bound than the objective.
    engine._cost_den *= 2
    with pytest.raises(AssertionError, match="duality gap"):
        finalize_solution(problem, engine, [0, 1])


_COEFF = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=0, max_value=3, max_denominator=4)
)


@st.composite
def _covering_lps(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=4))
    rows = tuple(
        LpRow(
            tuple(draw(_COEFF) for _ in range(n)),
            ">=",
            draw(st.fractions(min_value=0, max_value=3, max_denominator=4)),
        )
        for _ in range(m)
    )
    return LpProblem(n, rows), draw(st.integers(min_value=0, max_value=m - 1))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_covering_lps())
def test_solve_matches_vertex_enumeration_on_rational_rows(case):
    # Rational coefficients exercise add_ge_row's lcm scaling; every solve
    # goes through finalize_solution and so through the dual certificate.
    problem, pin = case
    for rel_at_pin, solver in ((">=", solve), ("=", lambda p: solve_with_equality(p, pin))):
        rows = [
            (r.coeffs, rel_at_pin if i == pin else r.rel, r.rhs)
            for i, r in enumerate(problem.rows)
        ]
        expected = lp_vertex_enumeration(problem.num_vars, rows)
        try:
            got = solver(problem)
        except InfeasibleError:
            assert expected is None
            continue
        assert expected is not None and Fraction(str(got.objective)) == expected


def _k3_engine():
    # The K3 edge relaxation takes three pivots from the surplus basis.
    rows = [(r.coeffs, r.rhs) for r in edge_relaxation(complete_graph(3)).rows]
    return CoveringSimplex(3, rows)


def test_pivot_cap_bounds_a_single_call():
    with pytest.raises(PivotLimitError):
        _k3_engine().optimize(pivot_cap=1)
    engine = _k3_engine()
    engine.optimize(pivot_cap=3)
    assert engine.pivots == 3


def test_pivot_cap_ignores_pivots_of_earlier_calls_and_copies():
    engine = _k3_engine()
    engine.pivots = 10**6  # as after a long cut loop
    engine.optimize(pivot_cap=3)
    trial = engine.copy()
    trial.add_ge_row((1, 1, 1), 2)  # the triangle cut: one more pivot
    trial.optimize(pivot_cap=1)
    assert trial.pivots == 10**6 + 4
    assert trial.objective() == 2


def _optimize_both(engine, reference):
    """Run both engines to optimality and require the same outcome."""
    outcomes = []
    for e in (engine, reference):
        try:
            e.optimize()
            outcomes.append(True)
        except InfeasibleError:
            outcomes.append(False)
    assert outcomes[0] == outcomes[1]
    assert engine.pivots == reference.pivots
    assert engine._basis == reference._basis
    if outcomes[0]:
        assert engine.values() == reference.values()
        assert engine.objective() == sum(engine.values(), Rat(0))


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
    # Same pivots, bases and vertices as the dict-tableau engine: on the
    # initial rows, after each appended cut, and on copies with one row
    # pinned to equality by its negation.
    rows = [(coeffs[:n], rhs) for coeffs, rhs in rows]
    engine = CoveringSimplex(n, rows)
    reference = ReferenceCoveringSimplex(n, rows)
    _optimize_both(engine, reference)
    for coeffs, rhs in cuts:
        engine.add_ge_row(coeffs[:n], rhs)
        reference.add_ge_row(coeffs[:n], rhs)
        _optimize_both(engine, reference)
    coeffs, rhs = (rows + [(c[:n], r) for c, r in cuts])[pin % (len(rows) + len(cuts))]
    trial, reference_trial = engine.copy(), reference.copy()
    for e in (trial, reference_trial):
        e.add_ge_row([-c for c in coeffs], -rhs)
    _optimize_both(trial, reference_trial)
    _optimize_both(engine, reference)  # the copies left the originals alone
