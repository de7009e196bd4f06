import random
from collections import Counter

import pytest

from elpcover import oracles
from elpcover.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    torus_grid_graph,
)
from elpcover.oracles import (
    CapExceededError,
    enumerate_odd_cycles,
    exact_vc,
    hypothesis_verdict,
    independent_odd_cycle_rank,
    matching_2approx,
    nt_half_integral_round,
    rational_rank,
    small_edge_conjecture_probe,
)
from elpcover.cover import validate_cover
from exact_oracles import (
    brute_force_all_min_covers,
    brute_force_vc,
    nx_odd_cycles,
    random_connected_gnp,
)


def test_exact_vc_known_values():
    assert exact_vc(complete_graph(3)).opt_size == 2
    assert exact_vc(cycle_graph(5)).opt_size == 3
    assert exact_vc(cycle_graph(7)).opt_size == 4
    assert exact_vc(petersen_graph()).opt_size == 6
    assert exact_vc(Graph.from_edges([1, 2, 3])).opt_size == 0


def test_exact_vc_cover_is_valid_and_matches_bruteforce():
    rng = random.Random(2)
    for _ in range(40):
        g = random_connected_gnp(rng.randint(2, 10), rng.uniform(0.2, 0.8), rng)
        result = exact_vc(g)
        ok, _ = validate_cover(g, result.cover)
        assert ok and len(result.cover) == result.opt_size
        assert result.opt_size == brute_force_vc(g)


def test_exact_vc_enumerate_all():
    result = exact_vc(cycle_graph(5), enumerate_all=True)
    assert result.all_covers is not None
    assert set(result.all_covers) == brute_force_all_min_covers(cycle_graph(5))
    assert len(result.all_covers) == 5
    rng = random.Random(4)
    for _ in range(15):
        g = random_connected_gnp(rng.randint(2, 8), rng.uniform(0.3, 0.7), rng)
        got = set(exact_vc(g, enumerate_all=True).all_covers)
        assert got == brute_force_all_min_covers(g)


def test_exact_vc_enumerate_all_rejects_a_missing_cover(monkeypatch):
    # The check must raise, not assert, so that it also runs under python -O.
    c5 = cycle_graph(5)
    cover = exact_vc(c5).cover
    enumerate_covers = oracles._enumerate_covers

    def dropping(adj, chosen, budget, found):
        enumerate_covers(adj, chosen, budget, found)
        found.discard(cover)

    monkeypatch.setattr(oracles, "_enumerate_covers", dropping)
    with pytest.raises(AssertionError, match="missing from the enumeration"):
        exact_vc(c5, enumerate_all=True)


def test_exact_vc_cap():
    with pytest.raises(CapExceededError):
        exact_vc(torus_grid_graph(5, 5), cap=20)


def test_matching_2approx():
    assert matching_2approx(complete_graph(2)) == frozenset({1, 2})
    c5 = cycle_graph(5)
    cover = matching_2approx(c5)
    assert len(cover) == 4
    assert validate_cover(c5, cover)[0]
    assert matching_2approx(Graph.from_edges()) == frozenset()


def test_nt_half_integral_round():
    assert nt_half_integral_round(complete_graph(3)) == frozenset({1, 2, 3})
    assert len(nt_half_integral_round(complete_graph(2))) == 1
    c4 = cycle_graph(4)
    cover = nt_half_integral_round(c4)
    assert validate_cover(c4, cover)[0]
    assert len(cover) <= 4  # 2 * f(LP) = 4


def test_baseline_bounds_random():
    rng = random.Random(6)
    for _ in range(40):
        g = random_connected_gnp(rng.randint(2, 9), rng.uniform(0.25, 0.8), rng)
        opt = exact_vc(g).opt_size
        for cover in (matching_2approx(g), nt_half_integral_round(g)):
            assert validate_cover(g, cover)[0]
            assert opt <= len(cover) <= 2 * opt


def test_enumerate_odd_cycles_c5_k4():
    cycles = enumerate_odd_cycles(cycle_graph(5))
    assert len(cycles) == 1 and cycles[0].vertex_set == frozenset(range(1, 6))
    assert not cycles[0].has_chord_in(cycle_graph(5))
    k4 = enumerate_odd_cycles(complete_graph(4), chordless_only=True)
    assert len(k4) == 4 and all(c.length == 3 for c in k4)
    # no chordless 5-cycles in K4
    assert not [c for c in k4 if c.length == 5]


def test_enumerate_odd_cycles_petersen():
    cycles = enumerate_odd_cycles(petersen_graph())
    counts = Counter(c.length for c in cycles)
    assert counts[5] == 12  # classical count, verified not trusted
    assert set(counts) == {5, 9}


def test_enumerate_matches_networkx():
    rng = random.Random(8)
    for _ in range(25):
        g = random_connected_gnp(rng.randint(3, 9), rng.uniform(0.3, 0.7), rng)
        ours = {c.vertex_set for c in enumerate_odd_cycles(g)}
        assert ours == nx_odd_cycles(g)


def test_enumerate_chordless_on_triangle_free_has_length_at_least_5():
    rng = random.Random(12)
    from elpcover.graph import random_triangle_free_graph

    for i in range(10):
        g = random_triangle_free_graph(rng.randint(8, 14), 0.3, seed=i)
        for c in enumerate_odd_cycles(g, chordless_only=True):
            assert c.length >= 5


def test_enumerate_cap():
    with pytest.raises(CapExceededError):
        enumerate_odd_cycles(complete_graph(12), cap_count=10)


def test_rational_rank():
    assert rational_rank([[1, 0], [0, 1]]) == 2
    assert rational_rank([[1, 1], [2, 2]]) == 1
    assert rational_rank([]) == 0
    assert rational_rank([[0, 0]]) == 0


def test_independent_odd_cycle_rank():
    assert independent_odd_cycle_rank(cycle_graph(5)) == 1
    rng = random.Random(14)
    for _ in range(15):
        g = random_connected_gnp(rng.randint(3, 8), rng.uniform(0.3, 0.7), rng)
        cycles = enumerate_odd_cycles(g, chordless_only=True)
        rank = independent_odd_cycle_rank(g)
        assert rank <= min(g.n, len(cycles))


def test_hypothesis_verdict():
    assert hypothesis_verdict(cycle_graph(5)) == {
        "guaranteed": True,
        "reason": "rank 1 < n 5",
        "rank": 1,
        "n": 5,
    }
    assert hypothesis_verdict(complete_graph(3))["guaranteed"] is True
    assert hypothesis_verdict(complete_graph(3))["reason"] == "has triangle"
    # torus is measured, not assumed: 25 independent chordless odd cycles
    verdict = hypothesis_verdict(torus_grid_graph(5, 5))
    assert verdict["rank"] == 25 and verdict["guaranteed"] is False


def test_small_edge_probe_c5_and_k2():
    report = small_edge_conjecture_probe(cycle_graph(5))
    assert report["holds_for_all_small_edges"] is True
    assert report["num_optimal_covers"] == 5
    report = small_edge_conjecture_probe(complete_graph(2))
    assert report["holds_for_all_small_edges"] is True
    assert report["opt_size"] == 1
