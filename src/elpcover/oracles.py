"""Ground truth and baselines: exact minimum vertex cover (optionally with
every optimal cover) and the classical 2-approximations that vc compare
reports. Everything here is desk-scale and exact; the exponential
branch-and-bound takes an explicit cap and refuses bigger inputs."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .elp import CapExceededError, relaxation_engine
from .graph import Graph


class OracleResult(NamedTuple):
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
    # Changes adj and chosen in place: every caller passes fresh ones.
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
