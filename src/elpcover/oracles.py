"""Ground truth and baselines: exact minimum vertex cover, classical
2-approximations, odd-cycle enumeration, linear-independence rank, and the
small-edge diagnostic probe. Everything here is desk-scale and exact; the
exponential routines take explicit caps and refuse bigger inputs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._rat import ONE, Rat
from .elp import relaxation_engine, solve_elp
from .graph import Graph, OddCycle


class CapExceededError(Exception):
    """Instance exceeds the size cap of an exponential oracle."""


@dataclass(frozen=True)
class OracleResult:
    opt_size: int
    cover: frozenset[int]
    all_covers: Optional[tuple[frozenset[int], ...]]


def _greedy_matched(adj) -> set[int]:
    """Endpoints of the greedy maximal matching that scans the vertices of
    the adjacency map adj, and each one's neighbors, in ascending order."""
    matched: set[int] = set()
    for u in sorted(adj):
        if u in matched:
            continue
        for v in sorted(adj[u]):
            if v not in matched:
                matched.add(u)
                matched.add(v)
                break
    return matched


def exact_vc(g: Graph, enumerate_all: bool = False, cap: Optional[int] = None) -> OracleResult:
    """Branch-and-bound exact minimum vertex cover.

    Branches on a maximum-degree vertex (take it, or take its whole
    neighborhood), with degree-0/degree-1 eliminations and a greedy-matching
    lower bound. enumerate_all additionally lists every optimal cover via
    edge branching with the optimum as budget.
    """
    limit = cap if cap is not None else (20 if enumerate_all else 30)
    if g.n > limit:
        raise CapExceededError(f"n={g.n} exceeds cap {limit}")
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    best_cover = set(adj)  # all vertices always cover
    best = [len(best_cover), frozenset(best_cover)]
    _bb_opt(adj, set(), best)
    opt, cover = best
    all_covers = None
    if enumerate_all:
        found: set[frozenset[int]] = set()
        _enumerate_covers(
            {v: set(g.neighbors(v)) for v in g.vertices}, set(), opt, found
        )
        all_covers = tuple(sorted(found, key=sorted))
        if cover not in found:
            raise AssertionError(
                f"branch-and-bound cover {sorted(cover)} missing from the enumeration"
            )
    return OracleResult(opt, cover, all_covers)


def _bb_opt(adj: dict[int, set[int]], chosen: set[int], best) -> None:
    adj = {v: set(nbrs) for v, nbrs in adj.items()}
    chosen = set(chosen)
    # Cheap eliminations preserve some optimal cover.
    changed = True
    while changed:
        changed = False
        for v in sorted(adj):
            deg = len(adj[v])
            if deg == 0:
                del adj[v]
                changed = True
            elif deg == 1:
                (u,) = adj[v]
                chosen.add(u)
                for w in adj[u]:
                    adj[w].discard(u)
                del adj[u]
                del adj[v]
                changed = True
                break
    if not adj:
        if len(chosen) < best[0]:
            best[0] = len(chosen)
            best[1] = frozenset(chosen)
        return
    if len(chosen) + len(_greedy_matched(adj)) // 2 >= best[0]:
        return
    v = max(sorted(adj), key=lambda u: (len(adj[u]), -u))
    # Branch 1: v in the cover.
    sub = {u: nbrs - {v} for u, nbrs in adj.items() if u != v}
    _bb_opt(sub, chosen | {v}, best)
    # Branch 2: v not in the cover, so all its neighbors are.
    nbrs = set(adj[v])
    gone = nbrs | {v}
    sub = {u: adj[u] - gone for u in adj if u not in gone}
    _bb_opt(sub, chosen | nbrs, best)


def _enumerate_covers(adj, chosen: set[int], budget: int, found: set) -> None:
    uncovered = None
    for u in sorted(adj):
        for v in adj[u]:
            if u < v:
                uncovered = (u, v)
                break
        if uncovered:
            break
    if uncovered is None:
        if len(chosen) == budget:
            found.add(frozenset(chosen))
        return
    if len(chosen) + max(1, len(_greedy_matched(adj)) // 2) > budget:
        return
    u, v = uncovered
    for pick in (u, v):
        sub = {w: nbrs - {pick} for w, nbrs in adj.items() if w != pick}
        _enumerate_covers(sub, chosen | {pick}, budget, found)


def matching_2approx(g: Graph) -> frozenset[int]:
    """Both endpoints of a greedy maximal matching; classic 2-approximation."""
    return frozenset(_greedy_matched({v: g.neighbors(v) for v in g.vertices}))


def nt_half_integral_round(g: Graph) -> frozenset[int]:
    """Round the plain edge-relaxation LP: keep vertices with value >= 1/2."""
    if g.n == 0:
        return frozenset()
    engine = relaxation_engine(g)
    engine.optimize()
    ints, scale = engine.certified_values()
    return frozenset(v for v, i in zip(g.vertices, ints) if 2 * i >= scale)


def enumerate_odd_cycles(
    g: Graph,
    max_len: Optional[int] = None,
    chordless_only: bool = False,
    cap_count: int = 500_000,
) -> tuple[OddCycle, ...]:
    """All simple odd cycles up to max_len, each exactly once.

    DFS rooted at the cycle's smallest vertex; only the direction with the
    smaller second endpoint is recorded. The chordless variant walks induced
    paths only (any extension adjacent to an interior vertex is pruned), which
    scales far beyond the plain enumeration. cap_count guards both."""
    limit = max_len if max_len is not None else g.n
    out = (
        _chordless_odd_cycles(g, limit, cap_count)
        if chordless_only
        else _all_odd_cycles(g, limit, cap_count)
    )
    out.sort(key=lambda c: (c.length, c.vertices))
    return tuple(out)


def _all_odd_cycles(g: Graph, limit: int, cap_count: int) -> list[OddCycle]:
    out: list[OddCycle] = []
    visits = 0
    for root in g.vertices:
        stack = [(root, [root], {root})]
        while stack:
            visits += 1
            if visits > cap_count * 8:
                raise CapExceededError("cycle enumeration explored too many paths")
            v, path, on_path = stack.pop()
            for w in reversed(g.neighbors(v)):
                if w == root and len(path) >= 3:
                    if len(path) % 2 == 1 and path[1] < path[-1]:
                        out.append(OddCycle(tuple(path)))
                        if len(out) > cap_count:
                            raise CapExceededError("too many odd cycles")
                elif w > root and w not in on_path and len(path) < limit:
                    stack.append((w, path + [w], on_path | {w}))
    return out


def _chordless_odd_cycles(g: Graph, limit: int, cap_count: int) -> list[OddCycle]:
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    out: list[OddCycle] = []
    visits = 0
    for root in g.vertices:
        stack = [(root, [root], {root})]
        while stack:
            visits += 1
            if visits > cap_count * 8:
                raise CapExceededError("cycle enumeration explored too many paths")
            v, path, on_path = stack.pop()
            if len(path) >= 3 and root in adj[v]:
                # Closing edge exists; any extension past v would keep the
                # (root, v) chord, so record and stop this branch.
                if len(path) % 2 == 1 and path[1] < path[-1]:
                    out.append(OddCycle(tuple(path)))
                    if len(out) > cap_count:
                        raise CapExceededError("too many odd cycles")
                continue
            if len(path) >= limit:
                continue
            interior = path[1:-1]
            for w in reversed(g.neighbors(v)):
                if w <= root or w in on_path:
                    continue
                if any(w in adj[p] for p in interior):
                    continue  # would be a chord
                stack.append((w, path + [w], on_path | {w}))
    return out


def rational_rank(rows) -> int:
    """Rank over the rationals via exact Gaussian elimination."""
    matrix = [[Rat(c) for c in row] for row in rows]
    rank = 0
    col = 0
    width = len(matrix[0]) if matrix else 0
    while rank < len(matrix) and col < width:
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][col]), None)
        if pivot is None:
            col += 1
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        prow = matrix[rank]
        inv = ONE / prow[col]
        matrix[rank] = prow = [c * inv for c in prow]
        for i in range(len(matrix)):
            if i != rank and matrix[i][col]:
                f = matrix[i][col]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], prow)]
        rank += 1
        col += 1
    return rank


def independent_odd_cycle_rank(g: Graph, max_len: Optional[int] = None) -> int:
    """Rank of the chordless-odd-cycle incidence matrix over the rationals."""
    cycles = enumerate_odd_cycles(g, max_len=max_len, chordless_only=True)
    if not cycles:
        return 0
    order = g.vertices
    return rational_rank([c.incidence_vector(order) for c in cycles])


def hypothesis_verdict(g: Graph, max_len: Optional[int] = None) -> dict:
    """Sufficient-condition diagnostic for the active edge hypothesis:
    guaranteed when the graph has a triangle, or when it has fewer than |V|
    linearly independent chordless odd cycles."""
    if g.find_triangle() is not None:
        return {"guaranteed": True, "reason": "has triangle", "rank": None, "n": g.n}
    rank = independent_odd_cycle_rank(g, max_len=max_len)
    guaranteed = rank < g.n
    reason = f"rank {rank} {'<' if guaranteed else '>='} n {g.n}"
    return {"guaranteed": guaranteed, "reason": reason, "rank": rank, "n": g.n}


def small_edge_conjecture_probe(g: Graph, cap: Optional[int] = None) -> dict:
    """For each small edge (argmin of x_u + x_v at the relaxation optimum),
    check whether some optimal cover contains exactly one endpoint; edges
    where every optimal cover takes both endpoints refute the single-endpoint
    conjecture on this graph."""
    oracle = exact_vc(g, enumerate_all=True, cap=cap)
    if oracle.all_covers is None:
        raise AssertionError("exact_vc(enumerate_all=True) returned no cover list")
    relaxation = solve_elp(g)
    small = relaxation.small_edges
    edge_reports = []
    violating = []
    for u, v in small:
        ok = any(len(cover & {u, v}) == 1 for cover in oracle.all_covers)
        edge_reports.append({"edge": [u, v], "single_endpoint_cover_exists": ok})
        if not ok:
            violating.append([u, v])
    return {
        "n": g.n,
        "m": g.m,
        "has_triangle": g.find_triangle() is not None,
        "opt_size": oracle.opt_size,
        "num_optimal_covers": len(oracle.all_covers),
        "relaxation_value": relaxation.objective,
        "small_edges": [list(e) for e in small],
        "edges": edge_reports,
        "violating_edges": violating,
        "holds_for_all_small_edges": not violating,
        "holds_for_some_small_edge": any(
            r["single_endpoint_cover_exists"] for r in edge_reports
        ),
    }
