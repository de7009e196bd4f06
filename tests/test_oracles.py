import random

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
    exact_vc,
    matching_2approx,
    nt_half_integral_round,
)
from elpcover.cover import validate_cover
from exact_oracles import (
    brute_force_all_min_covers,
    brute_force_vc,
    hypothesis_verdict,
    independent_odd_cycle_rank,
    nx_odd_cycles,
    random_connected_gnp,
    rational_rank,
    small_edge_conjecture_probe,
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


def test_enumerate_odd_cycles_petersen():
    # The classical count, verified not trusted: 12 five-cycles, and odd
    # cycles of no length but 5 and 9.
    lengths = [len(c.vertices) for c in nx_odd_cycles(petersen_graph())]
    assert lengths.count(5) == 12 and set(lengths) == {5, 9}


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
        cycles = nx_odd_cycles(g, chordless=True)
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
    probe = small_edge_conjecture_probe(cycle_graph(5))
    assert probe and all(probe.values())
    assert small_edge_conjecture_probe(complete_graph(2)) == {(1, 2): True}
