"""Independent brute-force oracles used only by the tests.

Everything here is deliberately implemented by a different route than the
package code it checks: vertex covers by subset enumeration, LP values by
half-integral grid enumeration or tight-constraint vertex enumeration, odd
cycles via networkx. Slow and dumb on purpose.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import networkx as nx

from elpcover import elp, reductions, simplex
from elpcover._rat import ONE, ZERO, Rat
from elpcover.cover import BoundCertificate, GuaranteeViolation, backtrack
from elpcover.elp import DoubleCover, ElpSolution, classify_edges, separate_odd_cycle, solve_elp
from elpcover.graph import Graph, OddCycle, normalize_edge, random_gnp_graph
from elpcover.simplex import CoveringSimplex, InfeasibleError, PivotLimitError


def scale_point(g: Graph, x: Mapping[int, object]) -> tuple[list[int], int]:
    """x as the pair (ints, L) that DoubleCover and classify_edges
    take: L is the lcm of the denominators of x's values and
    ints[i] = L * x[g.vertices[i]]."""
    values = [Rat(x[v]) for v in g.vertices]
    scale = lcm(*(r.denominator for r in values))
    return [r.numerator * (scale // r.denominator) for r in values], scale


def point_values(point: tuple[Sequence[int], int]) -> list[Rat]:
    """The values of a point (ints, L) as CoveringSimplex.certified_values
    and scaled_values hand it out: ints[j] / L for every column j."""
    ints, scale = point
    return [Rat(v, scale) for v in ints]


def with_rows(engine, rows: Iterable[tuple[Mapping, int]]):
    """engine after add_ge_row(coeffs, rhs) of each (coeffs, rhs) of rows,
    in order: the engine a general LP starts from."""
    for coeffs, rhs in rows:
        engine.add_ge_row(coeffs, rhs)
    return engine


def trace_of(mode: str, records) -> reductions.ReductionTrace:
    """A ReductionTrace of mode that holds records."""
    trace = reductions.ReductionTrace(mode)
    trace.records = list(records)
    return trace


def run_pipeline_iterates(g: Graph, notes: Optional[list] = None, **options):
    """run_pipeline(g, **options) plus what its trace does not keep: the
    graphs [G_1 .. G_L] and the solutions [x_1 .. x_L], x_k taken after an
    alternate-optimum swap, if any.

    While the pipeline runs, the solve_elp and explore_alternate_bfs names
    it calls in the reductions module are wrapped to note each G_k and
    x_k, so no LP is solved twice. When notes is a list, iteration k also
    appends [cuts, pins, hit] to it: the cuts solve_elp pooled on G_k, the
    pins the alternate sweep tried, and whether the sweep found an
    alternate optimum (None when no sweep ran). Returns (trace, graphs, xs).
    """
    graphs: list[Graph] = []
    xs: list[dict] = []
    notes = [] if notes is None else notes
    solve, explore = reductions.solve_elp, reductions.explore_alternate_bfs

    def solving(h):
        sol = solve(h)
        graphs.append(h)
        xs.append(sol.x)
        notes.append([len(sol.cycle_pool), 0, None])
        return sol

    def exploring(h, sol):
        alt, pins = explore(h, sol)
        notes[-1][1:] = pins, alt is not None
        if alt is not None:
            xs[-1] = alt.x
        return alt, pins

    reductions.solve_elp, reductions.explore_alternate_bfs = solving, exploring
    try:
        trace = reductions.run_pipeline(g, **options)
    finally:
        reductions.solve_elp, reductions.explore_alternate_bfs = solve, explore
    assert len(graphs) == len(xs) == trace.L
    return trace, graphs, xs


# Backtracking adds at most this many vertices on top of |I_{k,1}|.
GROWTH_TABLE = {
    reductions.KIND_ZERO_ONE: 0,
    reductions.KIND_THREE_CYCLE: 3,
    reductions.KIND_ACTIVE: 1,
    reductions.KIND_OVER_ACTIVE: 2,
    reductions.KIND_RANDOM: 2,
}


def growth_cap(rec) -> int:
    """Most vertices that backtracking record rec may add to S_{k+1}."""
    applied = len(rec.i1) if rec.zero_one_applied else 0
    return applied + GROWTH_TABLE[rec.kind]


def backtrack_sizes(trace) -> list[int]:
    """[|S_1| .. |S_L|], S_k the cover backtracking builds for G_k: the
    cover of backtrack run on the records of iterations k..L."""
    return [
        len(backtrack(trace_of(trace.mode, trace.records[k:])))
        for k in range(trace.L)
    ]


# cover.certify and solve_instance's oracle block as they were computed
# in Fractions, before both moved to ints over a common denominator; the
# tests hold the package's certificates and oracle flags to these.
_TWO_THIRDS = Rat(2, 3)
_THREE_HALVES = Rat(3, 2)


def reference_certify(trace, cover) -> BoundCertificate:
    counts = Counter(rec.kind for rec in trace.records)
    eta = counts[reductions.KIND_ACTIVE]
    gamma = counts[reductions.KIND_RANDOM]
    delta = counts[reductions.KIND_THREE_CYCLE]
    sigma = counts[reductions.KIND_OVER_ACTIVE]
    i1_union = set().union(*(rec.i1 for rec in trace.records))
    beta = len(i1_union) + eta
    alpha = max(0, gamma - beta)
    lam = Rat(gamma) + Rat(delta) + _TWO_THIRDS * sigma
    f1 = trace.f1
    xi = min(Rat(alpha) / 2, max(ZERO, lam - f1 / 2))
    if gamma == 0 and Rat(len(cover)) > _THREE_HALVES * f1:
        raise GuaranteeViolation(
            f"|S1|={len(cover)} exceeds (3/2) f1 = {_THREE_HALVES * f1} with gamma=0"
        )
    if gamma == 0 and xi != 0:
        raise GuaranteeViolation(f"xi={xi} is nonzero with gamma=0")
    return BoundCertificate(
        f1=f1,
        cover_size=len(cover),
        eta=eta,
        gamma=gamma,
        delta=delta,
        sigma=sigma,
        i1_total=len(i1_union),
        beta=beta,
        alpha=alpha,
        lam=lam,
        xi=xi,
        guarantee_rhs=_THREE_HALVES * f1 + xi,
        mode=trace.mode,
        hypothesis_failed=trace.hypothesis_failed,
    )


def reference_oracle_block(cover_size: int, opt: int, certificate) -> dict:
    ratio = Rat(cover_size, opt) if opt else Rat(1)
    xi_observed = max(Rat(0), Rat(cover_size) - Rat(3, 2) * opt)
    return {
        "optSize": opt,
        "ratio": str(Rat(ratio)),
        "xiObserved": str(Rat(xi_observed)),
        "threeHalvesHolds": Rat(cover_size) <= Rat(3, 2) * opt + certificate.xi,
        "additiveHolds": Rat(cover_size) <= opt + certificate.lam,
    }


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges())
    return h


def brute_force_vc(g: Graph) -> int:
    """Minimum vertex cover size by subset enumeration (n <= ~14)."""
    verts = g.vertices
    edges = g.edge_list()
    for k in range(g.n + 1):
        for subset in itertools.combinations(verts, k):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return k
    raise AssertionError("unreachable")


def brute_force_all_min_covers(g: Graph) -> set[frozenset[int]]:
    opt = brute_force_vc(g)
    out = set()
    for subset in itertools.combinations(g.vertices, opt):
        chosen = set(subset)
        if all(u in chosen or v in chosen for u, v in g.edge_list()):
            out.add(frozenset(chosen))
    return out


def lp_value_half_integral(g: Graph) -> Fraction:
    """Plain edge-relaxation LP value via the classical half-integrality of
    its vertices: enumerate {0, 1/2, 1}^n (n <= ~10)."""
    verts = g.vertices
    edges = g.edge_list()
    best = Fraction(g.n)
    half = Fraction(1, 2)
    for assignment in itertools.product((Fraction(0), half, Fraction(1)), repeat=g.n):
        x = dict(zip(verts, assignment))
        if all(x[u] + x[v] >= 1 for u, v in edges):
            best = min(best, sum(assignment))
    return best


def lp_vertex_enumeration(num_vars: int, rows) -> Fraction:
    """Exact LP optimum of min 1.x, rows (coeffs, rel, rhs), x >= 0, by
    enumerating candidate vertices from n-subsets of tight constraints.
    Tiny instances only (the subset count is binomial)."""
    constraints = []  # (coeffs, rhs) meaning coeffs . x == rhs candidates
    for coeffs, rel, rhs in rows:
        constraints.append(([Fraction(c) for c in coeffs], Fraction(rhs)))
    for j in range(num_vars):
        coeffs = [Fraction(0)] * num_vars
        coeffs[j] = Fraction(1)
        constraints.append((coeffs, Fraction(0)))
    best = None
    for chosen in itertools.combinations(range(len(constraints)), num_vars):
        system = [constraints[i] for i in chosen]
        point = _solve_square(system, num_vars)
        if point is None:
            continue
        if any(v < 0 for v in point):
            continue
        feasible = True
        for coeffs, rel, rhs in rows:
            lhs = sum(Fraction(c) * v for c, v in zip(coeffs, point))
            if rel == ">=" and lhs < Fraction(rhs):
                feasible = False
                break
            if rel == "=" and lhs != Fraction(rhs):
                feasible = False
                break
        if not feasible:
            continue
        value = sum(point)
        if best is None or value < best:
            best = value
    return best


def _solve_square(system, n):
    matrix = [list(coeffs) + [rhs] for coeffs, rhs in system]
    for col in range(n):
        pivot = next((r for r in range(col, n) if matrix[r][col] != 0), None)
        if pivot is None:
            return None  # singular
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        inv = Fraction(1) / matrix[col][col]
        matrix[col] = [c * inv for c in matrix[col]]
        for r in range(n):
            if r != col and matrix[r][col] != 0:
                f = matrix[r][col]
                matrix[r] = [a - f * b for a, b in zip(matrix[r], matrix[col])]
    return [matrix[r][n] for r in range(n)]


def nx_odd_cycles(g: Graph, max_len=None, chordless=False) -> tuple[OddCycle, ...]:
    """All simple odd cycles of at most max_len vertices (any length when
    None), or only the chordless ones, via networkx; sorted by length, then
    by canonical vertex sequence."""
    find = nx.chordless_cycles if chordless else nx.simple_cycles
    cycles = (OddCycle(tuple(c)) for c in find(to_networkx(g), length_bound=max_len) if len(c) % 2)
    return tuple(sorted(cycles, key=lambda c: (len(c.vertices), c.vertices)))


def nx_min_odd_cycle_weight(g: Graph, x) -> tuple:
    """(min cycle weight, count) over all simple odd cycles with edge weights
    x_u + x_v - 1; None when no odd cycle exists."""
    limit = g.n
    best = None
    for cycle in nx.simple_cycles(to_networkx(g), length_bound=limit):
        if len(cycle) % 2 == 0:
            continue
        weight = sum(
            Fraction(x[cycle[i]]) + Fraction(x[cycle[(i + 1) % len(cycle)]]) - 1
            for i in range(len(cycle))
        )
        if best is None or weight < best:
            best = weight
    return best


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
    cycles = nx_odd_cycles(g, max_len=max_len, chordless=True)
    return rational_rank([[int(v in c.vertex_set) for v in g.vertices] for c in cycles])


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


def small_edges(g: Graph, x) -> tuple[tuple[int, int], ...]:
    """The edges of least x_u + x_v, in g.edges() order."""
    sums = {e: x[e[0]] + x[e[1]] for e in g.edges()}
    least = min(sums.values(), default=None)
    return tuple(e for e, s in sums.items() if s == least)


def small_edge_conjecture_probe(g: Graph) -> dict:
    """For each small edge at the relaxation optimum, whether some minimum
    cover contains exactly one of its endpoints; an edge mapped to False
    (every minimum cover takes both endpoints) refutes the single-endpoint
    conjecture on g."""
    covers = brute_force_all_min_covers(g)
    return {
        e: any(len(cover & set(e)) == 1 for cover in covers)
        for e in small_edges(g, solve_elp(g).x)
    }


def random_connected_gnp(n: int, p: float, rng: random.Random) -> Graph:
    """Rejection-sample a connected G(n, p)."""
    while True:
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < p
        ]
        g = Graph.from_edges(range(1, n + 1), edges)
        if nx.is_connected(to_networkx(g)):
            return g


def circulant(n: int, ks) -> Graph:
    edges = set()
    for i in range(n):
        for k in ks:
            edges.add(tuple(sorted((i % n + 1, (i + k) % n + 1))))
    return Graph.from_edges(range(1, n + 1), sorted(edges))


def random_bipartite(n_left: int, n_right: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, n_left + v)
        for u in range(1, n_left + 1)
        for v in range(1, n_right + 1)
        if rng.random() < p
    ]
    return Graph.from_edges(range(1, n_left + n_right + 1), edges)


def reference_separate_odd_cycle(g: Graph, x: Mapping[int, object]):
    """Most-violated odd-cycle inequality at x, or None if all are satisfied.

    Requires x to satisfy every edge inequality so the weights
    w(u,v) = x_u + x_v - 1 are nonnegative. Returns (cycle, violation) where
    violation = (s+1) - sum_{v in cycle} x_v > 0 and the cycle has minimum
    weight among all odd cycles (so it is a most-violated one).
    """
    weights = {}
    for u, v in g.edges():
        w = Rat(x[u]) + Rat(x[v]) - ONE
        if w < 0:
            raise ValueError(f"edge inequality violated at ({u},{v}): {x[u]}+{x[v]} < 1")
        weights[(u, v)] = w

    best_dist = None
    best_walk = None
    for base in g.vertices:
        found = _shortest_odd_closed_walk(g, weights, base)
        if found is None:
            continue
        dist, walk = found
        if best_dist is None or dist < best_dist:
            best_dist, best_walk = dist, walk
    if best_dist is None or best_dist >= 1:
        # Cycle weight >= 1 is exactly the cycle inequality holding.
        return None
    cycle = OddCycle.in_graph(g, _extract_simple_odd_cycle(best_walk))
    total = sum((Rat(x[v]) for v in cycle.vertices), ZERO)
    violation = Rat(cycle.rhs) - total
    if violation <= 0:
        raise AssertionError("extracted cycle must be violated when walk weight < 1")
    return cycle, violation


def _shortest_odd_closed_walk(g: Graph, weights, base: int):
    """Dijkstra from (base, 0) to (base, 1) in the bipartite double cover."""
    src, dst = (base, 0), (base, 1)
    dist = {src: ZERO}
    parent = {}
    heap = [(ZERO, src)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, d):
            continue
        if node == dst:
            walk = []
            while True:
                walk.append(node[0])
                if node == src:
                    break
                node = parent[node]
            walk.reverse()
            return d, walk
        v, side = node
        for u in g.neighbors(v):
            nd = d + weights[normalize_edge(u, v)]
            nxt = (u, 1 - side)
            old = dist.get(nxt)
            if old is None or nd < old:
                dist[nxt] = nd
                parent[nxt] = node
                heapq.heappush(heap, (nd, nxt))
    return None


def _extract_simple_odd_cycle(walk: list[int]) -> tuple[int, ...]:
    """Shrink a closed odd walk (walk[0] == walk[-1]) to a simple odd cycle.

    A repeated vertex splits the walk into two closed sub-walks of opposite
    parity; recurse on the odd one. Nonnegative weights mean the kept part
    never weighs more than the whole."""
    while True:
        seen = {}
        dup = None
        for idx, v in enumerate(walk[:-1]):
            if v in seen:
                dup = (seen[v], idx)
                break
            seen[v] = idx
        if dup is None:
            return tuple(walk[:-1])
        i, j = dup
        if (j - i) % 2 == 1:
            walk = walk[i : j + 1]  # closed at walk[i] == walk[j]
        else:
            walk = walk[: i + 1] + walk[j + 1 :]


# The pin sweep as it was before it ran on the optimal face, kept
# verbatim as the differential reference for elp.explore_alternate_bfs:
# every pin is solved to its optimum before it is judged. It runs on its
# own copy of the generator cut chase that elp used before its one _chase,
# so only separation, edge classification and the engine are shared.
@dataclass(frozen=True)
class CutRound:
    cuts: tuple  # (cycle, violation) pairs, in the order they were found
    objective_after: object


def _index(g: Graph) -> dict[int, int]:
    return {v: j for j, v in enumerate(g.vertices)}


def _add_cycle_row(engine: CoveringSimplex, cycle: OddCycle, index) -> None:
    engine.add_ge_row(dict.fromkeys((index[v] for v in cycle.vertices), 1), cycle.rhs)


def _assemble(g: Graph, engine: CoveringSimplex, pool) -> ElpSolution:
    values = point_values(engine.certified_values())
    active, over = classify_edges(g, engine.scaled_values())
    return ElpSolution(
        x=dict(zip(g.vertices, values)),
        objective=sum(values, ZERO),
        cycle_pool=tuple(pool),
        active_edges=active,
        over_active_edges=over,
        engine=engine,
    )


def round_of_cuts(g: Graph, x: Mapping[int, object], disjoint: bool = True) -> list:
    """The (cycle, violation) pairs one cut round adds at the point x, a
    {vertex: value} map: the most violated cycle of g, and, when disjoint,
    then the most violated cycle of the subgraph induced by the vertices
    no cycle of the round has taken, until none is violated or no edge is
    left."""
    cuts = []
    rest = g
    while rest.m:
        found = separate_odd_cycle(DoubleCover(rest, scale_point(rest, x)))
        if found is None:
            break
        cuts.append(found)
        if not disjoint:
            break
        taken = set(found[0].vertices)
        keep = [v for v in rest.vertices if v not in taken]
        rest = Graph.from_edges(keep, [e for e in rest.edges() if taken.isdisjoint(e)])
    return cuts


# elp._disjoint_cuts as it was before the round shared one double cover,
# kept verbatim as the differential reference for it: every follow-up
# search runs on a subgraph rebuilt by Graph.delete_vertices, and goes
# through the separate_odd_cycle name of this module, which a test may
# point at an independent search.
def reference_disjoint_cuts(g: Graph, point: tuple[list[int], int]) -> list:
    """Pairwise vertex-disjoint violated odd cycles at point, as
    (cycle, violation) pairs: separate_odd_cycle on g, then on g less the
    vertices of the cycles taken so far, until a search finds nothing or
    fewer than three edges are left. Empty exactly when x satisfies every
    odd-cycle inequality of g. Each cycle is an odd cycle of g violated at
    point, and the first is the most violated one."""
    ints, scale = point
    value = dict(zip(g.vertices, ints))
    cuts = []
    rest, found = g, separate_odd_cycle(DoubleCover(g, point))
    while found is not None:
        cuts.append(found)
        rest = rest.delete_vertices(found[0].vertices)
        if rest.m < 3:
            break
        found = separate_odd_cycle(DoubleCover(rest, ([value[v] for v in rest.vertices], scale)))
    return cuts


def chase_cuts(
    g: Graph, engine: CoveringSimplex, pool: list, seen: set, cap: int, disjoint: bool = True,
) -> Iterator[CutRound]:
    """Add rounds of violated odd-cycle cuts (round_of_cuts) to an optimal
    engine until x satisfies every odd-cycle inequality of g, yielding one
    CutRound per round; disjoint=False takes one cut per round.

    Each cut is appended to pool and its vertex set to seen, and the engine
    is re-optimized once per round (InfeasibleError propagates). More than
    cap cuts raise CutLoopLimitError. A caller that stops iterating leaves
    the engine optimal for the cuts added so far.
    """
    index = _index(g)
    added = 0
    while True:
        cuts = round_of_cuts(g, dict(zip(g.vertices, point_values(engine.scaled_values()))), disjoint)
        if not cuts:
            return
        for cycle, _ in cuts:
            if added >= cap:
                raise elp.CutLoopLimitError(f"exceeded {cap} cuts on n={g.n}")
            if cycle.vertex_set in seen:
                raise AssertionError(f"separation returned pooled cycle {cycle.vertices}")
            seen.add(cycle.vertex_set)
            pool.append(cycle)
            _add_cycle_row(engine, cycle, index)
            added += 1
        engine.optimize()
        yield CutRound(tuple(cuts), engine_objective(engine))


def _round_cap(g: Graph) -> int:
    return elp.CUTS_PER_VERTEX * max(1, g.n)


def reference_explore_alternate(g: Graph, sol: ElpSolution) -> tuple[Optional[ElpSolution], int]:
    """Search for an alternate optimum with an active edge by pinning edges.

    For each edge in deterministic order, a copy of sol.engine gets the row
    x_u + x_v <= 1 (as -x_u - x_v >= -1; with the edge row it pins
    x_u + x_v = 1), is re-optimized, and chases cuts under the pin so the
    alternate is full-relaxation feasible. The first pin whose optimum keeps
    the unpinned value is returned: it has an active edge by construction.
    Returns (solution or None, number of pins tried). Requires sol to have
    no active edge and no unit value.
    """
    if sol.active_edges:
        raise ValueError("solution already has an active edge")
    if 1 in sol.x.values():
        raise ValueError("solution has a variable at 1; {0,1}-reduction applies")
    target = sol.objective
    index = _index(g)
    cap = _round_cap(g)
    pins = 0
    for u, v in g.edges():
        pins += 1
        trial = sol.engine.copy()
        trial.add_ge_row({index[u]: -1, index[v]: -1}, -1)
        pool = list(sol.cycle_pool)
        seen = {c.vertex_set for c in pool}
        try:
            trial.optimize()
            if engine_objective(trial) != target:
                continue
            if any(r.objective_after != target for r in chase_cuts(g, trial, pool, seen, cap)):
                continue
        except InfeasibleError:
            continue
        alt = _assemble(g, trial, pool)
        if not alt.active_edges:
            raise AssertionError("pinned alternate lost its active edge")
        return alt, pins
    return None, pins


def reference_random_triangle_free_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p), then repeatedly delete one random edge of the lexicographically
    first remaining triangle until triangle-free. Deterministic for a seed."""
    rng = random.Random(seed)
    g = random_gnp_graph(n, p, seed)
    adj = {v: set(g.neighbors(v)) for v in g.vertices}

    def first_triangle():
        for u in sorted(adj):
            for v in sorted(adj[u]):
                if v <= u:
                    continue
                for w in sorted(adj[u]):
                    if w > v and w in adj[v]:
                        return u, v, w
        return None

    while (tri := first_triangle()) is not None:
        u, v, w = tri
        a, b = rng.choice([(u, v), (u, w), (v, w)])
        adj[a].discard(b)
        adj[b].discard(a)
    return Graph.from_edges(
        adj, [(u, v) for u in adj for v in adj[u] if u < v]
    )


# The dict-tableau simplex that the compact tableau replaced, kept verbatim
# as the differential reference for CoveringSimplex.
class ReferenceCoveringSimplex:
    """Incremental dual-simplex engine over ">=" rows only.

    Column layout: x variables 0..num_vars-1, then one surplus column per row
    in insertion order. Row i is a sparse dict {column: int} standing for the
    rationals _rows[i][k] / _den[i], with right-hand side _rhs[i] / _den[i];
    the reduced-cost row _cost stands for _cost[k] / _cost_den. Absent
    columns are zero, every denominator is positive, and each row is divided
    by gcd(den, rhs, *entries) after every change. Rows are kept in
    basis-reduced form (each basic column is a unit column, so its entry
    equals its row's denominator), so appending a reduced row keeps the
    invariant.
    """

    __slots__ = (
        "num_vars", "_rows", "_rhs", "_den", "_cost", "_cost_den", "_basis",
        "_ncols", "pivots",
    )

    def __init__(self, num_vars: int, rows: Iterable[tuple[Sequence, object]] = ()):
        self.num_vars = num_vars
        self._rows: list[dict[int, int]] = []
        self._rhs: list[int] = []
        self._den: list[int] = []
        self._cost: dict[int, int] = dict.fromkeys(range(num_vars), 1)
        self._cost_den = 1
        self._basis: list[int] = []
        self._ncols = num_vars
        self.pivots = 0
        for coeffs, rhs in rows:
            self.add_ge_row(coeffs, rhs)

    def copy(self) -> "ReferenceCoveringSimplex":
        dup = ReferenceCoveringSimplex.__new__(ReferenceCoveringSimplex)
        dup.num_vars = self.num_vars
        dup._rows = [row.copy() for row in self._rows]
        dup._rhs = list(self._rhs)
        dup._den = list(self._den)
        dup._cost = self._cost.copy()
        dup._cost_den = self._cost_den
        dup._basis = list(self._basis)
        dup._ncols = self._ncols
        dup.pivots = self.pivots
        return dup

    def add_ge_row(self, coeffs: Sequence, rhs) -> None:
        """Append constraint coeffs . x >= rhs (reduced against the basis).

        The rational row is scaled to integers once, by the lcm of its
        denominators."""
        terms = [(j, Rat(c)) for j, c in enumerate(coeffs) if c]
        rhs = Rat(rhs)
        scale = lcm(int(rhs.denominator), *(int(c.denominator) for _, c in terms))
        surplus = self._ncols
        self._ncols += 1
        new = {j: -int(c.numerator) * (scale // int(c.denominator)) for j, c in terms}
        new[surplus] = scale
        new_rhs = -int(rhs.numerator) * (scale // int(rhs.denominator))
        den = scale
        for i, basic in enumerate(self._basis):
            factor = new.get(basic)
            if factor:
                new, new_rhs, den = _eliminate(
                    new, new_rhs, den, factor,
                    list(self._rows[i].items()), self._rhs[i], self._den[i],
                )
        new, new_rhs, den = _normalize(new, new_rhs, den)
        self._rows.append(new)
        self._rhs.append(new_rhs)
        self._den.append(den)
        self._basis.append(surplus)

    def optimize(self, pivot_cap: int = 200_000) -> None:
        """Dual simplex to optimality; raises InfeasibleError when primal empty."""
        rows, rhs, basis = self._rows, self._rhs, self._basis
        while True:
            leave = -1
            leave_var = None
            for i, b in enumerate(rhs):
                if b < 0 and (leave_var is None or basis[i] < leave_var):
                    leave, leave_var = i, basis[i]
            if leave < 0:
                return
            # Bland entering rule: least ratio cost_j / -a_j over a_j < 0,
            # ties to the lowest index. Row and cost denominators are
            # positive and common to every candidate, so comparing
            # cost_j * -a_best with cost_best * -a_j decides it in integers.
            cost = self._cost
            enter = -1
            best_cost = best_neg = 0
            for j, a in rows[leave].items():
                if a < 0:
                    c = cost.get(j, 0)
                    if enter < 0:
                        enter, best_cost, best_neg = j, c, -a
                        continue
                    lhs, rhs_ = c * best_neg, best_cost * -a
                    if lhs < rhs_ or (lhs == rhs_ and j < enter):
                        enter, best_cost, best_neg = j, c, -a
            if enter < 0:
                raise InfeasibleError("no feasible point exists")
            self._pivot(leave, enter)
            if self.pivots > pivot_cap:
                raise PivotLimitError(f"exceeded {pivot_cap} pivots")

    def _pivot(self, r: int, col: int) -> None:
        rows, rhs, den = self._rows, self._rhs, self._den
        # Dividing row r by its entry a = row[col] / den[r] < 0 leaves the
        # integers of the row over the denominator row[col]; negate all of
        # them to keep the denominator positive.
        prow, prhs, pden = _normalize(
            {k: -c for k, c in rows[r].items()}, -rhs[r], -rows[r][col]
        )
        rows[r], rhs[r], den[r] = prow, prhs, pden
        items = list(prow.items())
        for i, row in enumerate(rows):
            factor = row.get(col)
            if factor and i != r:
                rows[i], rhs[i], den[i] = _eliminate(
                    row, rhs[i], den[i], factor, items, prhs, pden
                )
        factor = self._cost.get(col)
        if factor:
            self._cost, _, self._cost_den = _eliminate(
                self._cost, 0, self._cost_den, factor, items, 0, pden
            )
        self._basis[r] = col
        self.pivots += 1

    def values(self) -> list:
        vals = [ZERO] * self.num_vars
        for i, basic in enumerate(self._basis):
            if basic < self.num_vars:
                vals[basic] = Rat(self._rhs[i], self._den[i])
        return vals

    def objective(self):
        return sum(self.values(), ZERO)


def _normalize(row: dict, rhs: int, den: int):
    """Divide row, rhs and den by their gcd."""
    g = gcd(den, rhs)
    if g != 1:
        g = gcd(g, *row.values())
        if g != 1:
            return {k: c // g for k, c in row.items()}, rhs // g, den // g
    return row, rhs, den


def _eliminate(row: dict, rhs: int, den: int, factor: int, pitems, prhs: int, pden: int):
    """row - (factor / pden) * prow over a common denominator, normalized.

    pitems are prow's (column, entry) pairs; prow holds pden in the
    eliminated column, so the result has no entry there. row may be updated
    in place.
    """
    g = gcd(factor, pden)
    scale, factor = pden // g, factor // g
    if scale != 1:
        row = {k: c * scale for k, c in row.items()}
        rhs *= scale
        den *= scale
    get = row.get
    for k, p in pitems:
        c = get(k, 0) - factor * p
        if c:
            row[k] = c
        else:
            del row[k]
    return _normalize(row, rhs - factor * prhs, den)

# The steepest-edge engine that stored every row of the dictionary, before
# CoveringSimplex kept only the working rows explicit. It is kept verbatim
# (only renamed) as the differential reference for CoveringSimplex: both
# must make the same pivots and hold the same dictionary. Its
# optimize(ceiling=c) is what CoveringSimplex.optimal_face replaced; the
# argument its docstring points to is now the reduced-cost-fixing one of
# the simplex module docstring. It reads STALL_LIMIT from this module, so a
# test that patches the limit patches both.
STALL_LIMIT = simplex.STALL_LIMIT


class AboveCeilingError(Exception):
    """optimize(ceiling=c) stopped before a pivot that raises the objective above c."""


class FullDictionarySimplex:
    """Incremental dual-simplex engine over ">=" rows only, in dictionary form.

    Columns: x variables 0..num_vars-1, then one surplus column per row in
    insertion order. There are always num_vars nonbasic columns, listed in
    _nonbasic; position q of every row stands for column _nonbasic[q]. Row
    i is a dense list of num_vars ints, read as the rationals
    _rows[i][q] / _den[i], with right-hand side _rhs[i] / _den[i]; its basic
    column _basis[i] is an implicit unit column (entry _den[i] there, zero in
    every other row). The cost row _cost is a list of the same kind over
    _cost_den, holding the reduced costs of the nonbasic columns, and
    -_cost_rhs / _cost_den is the objective of the current basis. Every
    denominator is positive, and each row is divided by
    gcd(den, rhs, *entries) after every change. _given[i] is row i as it
    was added, ({column: int}, int) for a.x >= b; pivots never touch it.
    """

    __slots__ = (
        "num_vars", "_rows", "_rhs", "_den", "_cost", "_cost_rhs", "_cost_den",
        "_basis", "_nonbasic", "_given", "pivots",
    )

    def __init__(self, num_vars: int, rows: Iterable[tuple[Mapping, int]] = ()):
        self.num_vars = num_vars
        self._rows: list[list[int]] = []
        self._rhs: list[int] = []
        self._den: list[int] = []
        self._cost = [1] * num_vars
        self._cost_rhs = 0
        self._cost_den = 1
        self._basis: list[int] = []
        self._nonbasic = list(range(num_vars))
        self._given: list[tuple[dict[int, int], int]] = []
        self.pivots = 0
        for coeffs, rhs in rows:
            self.add_ge_row(coeffs, rhs)

    def copy(self) -> "FullDictionarySimplex":
        dup = FullDictionarySimplex.__new__(FullDictionarySimplex)
        dup.num_vars = self.num_vars
        dup._rows = [row.copy() for row in self._rows]
        dup._rhs = list(self._rhs)
        dup._den = list(self._den)
        dup._cost = self._cost.copy()
        dup._cost_rhs = self._cost_rhs
        dup._cost_den = self._cost_den
        dup._basis = list(self._basis)
        dup._nonbasic = list(self._nonbasic)
        dup._given = list(self._given)
        dup.pivots = self.pivots
        return dup

    def add_ge_row(self, coeffs: Mapping[int, int], rhs: int) -> None:
        """Append constraint a.x >= b, a = coeffs and b = rhs (reduced against the basis).

        coeffs maps columns to ints and rhs is an int; a row with rational
        entries is scaled to integers by the caller. The row is kept in
        _given. As a tableau row it reads s - a.x = -b for its new surplus
        s, which becomes the row's basic column."""
        row = {j: c for j, c in coeffs.items() if c}
        self._given.append((row, rhs))
        a = [0] * self.num_vars
        for j, c in row.items():
            a[j] = -c
        new_rhs = -rhs
        # An entry a[b] on a basic x_b is removed by subtracting a[b] / den
        # times b's row. Basic rows are zero on each other's basic columns,
        # so each such entry is read off the incoming row as it is; the rows
        # are subtracted over the lcm of their denominators, and one gcd
        # division at the end makes the result canonical.
        used = [
            (i, a[b]) for i, b in enumerate(self._basis) if b < self.num_vars and a[b]
        ]
        mult = lcm(*(self._den[i] for i, _ in used))
        new = [a[v] * mult if v < self.num_vars else 0 for v in self._nonbasic]
        new_rhs *= mult
        for i, factor in used:
            f = factor * (mult // self._den[i])
            new = [c - f * p for c, p in zip(new, self._rows[i])]
            new_rhs -= f * self._rhs[i]
        new, new_rhs, den = _full_normalize(new, new_rhs, mult)
        self._rows.append(new)
        self._rhs.append(new_rhs)
        self._den.append(den)
        self._basis.append(self.num_vars + len(self._basis))

    def optimize(self, pivot_cap: int = 200_000, ceiling=None) -> None:
        """Dual simplex to optimality; raises InfeasibleError when primal empty.

        The leaving row is the dual steepest-edge choice (_full_steepest_row)
        until STALL_LIMIT consecutive pivots have entered at zero reduced
        cost; from then on it is Bland's lowest basic column (_full_bland_row)
        until a pivot raises the objective. The entering column is always
        Bland's least ratio.

        pivot_cap bounds the pivots of this call alone; PivotLimitError is
        raised once it is exceeded.

        With a ceiling, objective() must equal it on entry (ValueError
        otherwise), and AboveCeilingError is raised in place of the first
        pivot whose entering column has a positive reduced cost. That
        column has the least ratio in a row with rhs < 0, so every feasible
        point lies strictly above the ceiling, whichever row was picked (see
        the module docstring). The engine is then left as it was after the
        last zero-cost pivot. A normal return therefore means the optimum
        equals the ceiling, reached by the same pivots as without it.
        """
        if ceiling is not None and (
            -self._cost_rhs * ceiling.denominator != ceiling.numerator * self._cost_den
        ):
            raise ValueError(f"ceiling {ceiling} is not the objective {self.objective()}")
        rows, rhs, basis, nonbasic = self._rows, self._rhs, self._basis, self._nonbasic
        limit = self.pivots + pivot_cap
        stalled = 0
        while True:
            if stalled < STALL_LIMIT:
                leave = _full_steepest_row(rows, rhs, self._den, basis)
            else:
                leave = _full_bland_row(rhs, basis)
            if leave < 0:
                return
            # Bland entering rule: least ratio cost_q / -a_q over a_q < 0,
            # ties to the lowest column index. Row and cost denominators are
            # positive and common to every candidate, so comparing
            # cost_q * -a_best with cost_best * -a_q decides it in integers.
            cost = self._cost
            enter = -1
            best_cost = best_neg = 0
            for q, a in enumerate(rows[leave]):
                if a < 0:
                    c = cost[q]
                    if enter < 0:
                        enter, best_cost, best_neg = q, c, -a
                        continue
                    lhs, rhs_ = c * best_neg, best_cost * -a
                    if lhs < rhs_ or (lhs == rhs_ and nonbasic[q] < nonbasic[enter]):
                        enter, best_cost, best_neg = q, c, -a
            if enter < 0:
                raise InfeasibleError("no feasible point exists")
            if best_cost > 0:
                if ceiling is not None:
                    raise AboveCeilingError(f"the optimum rises above {ceiling}")
                stalled = 0
            else:
                stalled += 1
            self._pivot(leave, enter)
            if self.pivots > limit:
                raise PivotLimitError(f"exceeded {pivot_cap} pivots")

    def _pivot(self, r: int, q: int) -> None:
        """Exchange basic column _basis[r] with nonbasic column _nonbasic[q]."""
        rows, rhs, den = self._rows, self._rhs, self._den
        # Solving row r for the entering column divides it by its entry
        # a = row[q] / den[r] < 0; the leaving column takes position q with
        # entry den[r]. Negate everything to keep the denominator positive.
        prow = [-c for c in rows[r]]
        prow[q] = -den[r]
        prow, prhs, pden = _full_normalize(prow, -rhs[r], -rows[r][q])
        rows[r], rhs[r], den[r] = prow, prhs, pden
        for i, row in enumerate(rows):
            factor = row[q]
            if factor and i != r:
                rows[i], rhs[i], den[i] = _full_eliminate(
                    row, rhs[i], den[i], factor, q, prow, prhs, pden
                )
        factor = self._cost[q]
        if factor:
            self._cost, self._cost_rhs, self._cost_den = _full_eliminate(
                self._cost, self._cost_rhs, self._cost_den, factor, q, prow, prhs, pden
            )
        self._basis[r], self._nonbasic[q] = self._nonbasic[q], self._basis[r]
        self.pivots += 1

    def objective(self):
        return Rat(-self._cost_rhs, self._cost_den)

    def scaled_values(self) -> tuple[list[int], int]:
        """The basic solution x scaled to integers: (ints, L) with
        x_j == ints[j] / L for every column j.

        L is the lcm of the denominators of the rows whose basic column is
        structural (1 when there are none), not necessarily the least
        common denominator of the values."""
        n = self.num_vars
        structural = [(b, i) for i, b in enumerate(self._basis) if b < n]
        scale = lcm(*(self._den[i] for _, i in structural))
        x = [0] * n
        for b, i in structural:
            x[b] = self._rhs[i] * (scale // self._den[i])
        return x, scale

    def certified_values(self) -> tuple[list[int], int]:
        """scaled_values(), after an exact proof that they are optimal.

        Feasibility is checked against the rows as given, a.x >= b, and
        x >= 0. For optimality, the reduced cost of row i's surplus column
        is that row's dual y_i, read over _cost_den at the column's
        nonbasic position; a basic surplus has y_i = 0. If y >= 0 and
        A^T y <= 1, weak duality makes b.y a lower bound on 1.x over the
        whole feasible set, so b.y == 1.x proves the point optimal (the
        verify-the-basis check of Applegate, Cook, Dash & Espinoza, OR
        Letters 35, 2007). x is taken from scaled_values() and y is kept
        multiplied by _cost_den, so every check is an integer comparison.
        A failure raises AssertionError.
        """
        n = self.num_vars
        x, scale = self.scaled_values()
        if any(v < 0 for v in x):
            raise AssertionError("negative variable in solution")
        for i, (row, b) in enumerate(self._given):
            lhs = sum(c * x[j] for j, c in row.items())
            if lhs < b * scale:
                raise AssertionError(f"row {i} violated: {Rat(lhs, scale)} < {b}")
        column_sums = [0] * n
        bound = 0
        for col, y in zip(self._nonbasic, self._cost):
            if col < n:
                continue
            if y < 0:
                raise AssertionError(f"dual of row {col - n} is negative: basis not optimal")
            if y:
                row, b = self._given[col - n]
                for j, c in row.items():
                    column_sums[j] += y * c
                bound += y * b
        den = self._cost_den
        for j, total in enumerate(column_sums):
            if total > den:
                raise AssertionError(f"dual infeasible at x{j}: (A^T y)_j = {Rat(total, den)} > 1")
        total = sum(x)
        if bound * scale != den * total:
            raise AssertionError(
                f"duality gap: b.y = {Rat(bound, den)} != 1.x = {Rat(total, scale)}"
            )
        return x, scale


def _full_steepest_row(rows, rhs, den, basis) -> int:
    """Dual steepest-edge leaving row, or -1 when every rhs is >= 0.

    Among rows with rhs_i < 0 it maximises rhs_i^2 / ||row_i||^2, the
    squared distance from the current basic solution to the row's
    hyperplane, where the norm is taken over the dictionary row and its
    implicit basic unit entry: den_i^2 + sum_q rows[i][q]^2. A common
    scale of the row cancels, so the ratio is compared by integer
    cross-multiplication; ties go to the lowest basic column.
    """
    leave = -1
    best_sq = best_norm = 0
    for i, b in enumerate(rhs):
        if b < 0:
            row = rows[i]
            norm = den[i] * den[i] + sum(map(mul, row, row))
            sq = b * b
            if leave >= 0:
                lhs, rhs_ = sq * best_norm, best_sq * norm
                if lhs < rhs_ or (lhs == rhs_ and basis[i] > basis[leave]):
                    continue
            leave, best_sq, best_norm = i, sq, norm
    return leave


def _full_bland_row(rhs, basis) -> int:
    """Row with rhs_i < 0 of the lowest basic column, or -1 when none."""
    leave = -1
    for i, b in enumerate(rhs):
        if b < 0 and (leave < 0 or basis[i] < basis[leave]):
            leave = i
    return leave


def _full_normalize(row: list, rhs: int, den: int):
    """Divide row, rhs and den by their gcd."""
    g = gcd(den, rhs)
    if g != 1:
        g = gcd(g, *row)
        if g != 1:
            return [c // g for c in row], rhs // g, den // g
    return row, rhs, den


def _full_eliminate(row: list, rhs: int, den: int, factor: int, q: int, prow, prhs: int, pden: int):
    """row - (factor / pden) * prow over a common denominator, normalized.

    factor is row's entry at position q, which holds the entering column;
    prow is the pivot row, solved for that column, whose leaving column now
    sits at position q. The leaving column was basic, so row's own entry for
    it was zero and position q becomes -(factor / pden) * prow[q].
    """
    g = gcd(factor, pden)
    scale, factor = pden // g, factor // g
    new = [c * scale - factor * p for c, p in zip(row, prow)]
    new[q] = -factor * prow[q]
    return _full_normalize(new, rhs * scale - factor * prhs, den * scale)


def unpack_row(engine: CoveringSimplex, row: int) -> list[int]:
    """The num_vars entries of one of engine's packed rows, as a list. Read
    slot by slot from the low end, each slot's bits as a two's-complement
    int; nothing may be left above the last slot."""
    width = engine._slots.width
    entries = []
    for _ in range(engine.num_vars):
        e = row & ((1 << width) - 1)
        if e >> (width - 1):
            e -= 1 << width
        entries.append(e)
        row = (row - e) >> width
    if row:
        raise AssertionError("packed row has bits above its last slot")
    return entries


def engine_objective(engine: CoveringSimplex) -> Rat:
    """The objective of engine's current basis, -rhs / den of its cost row."""
    _, rhs, den = engine._cost
    return Rat(-rhs, den)


def check_slot_bound(engine: CoveringSimplex) -> None:
    """Every stored row and the cost row keep their entries and denominator
    within the slot limit, which keeps the next pivot's packed arithmetic
    exact."""
    limit = engine._slots.limit
    for row, _, den in [*engine._rows.values(), engine._cost]:
        if den > limit or max(map(abs, unpack_row(engine, row)), default=0) > limit:
            raise AssertionError(f"a stored row outgrew the slot limit {limit}")


def dictionary(engine: CoveringSimplex) -> dict:
    """Every row of engine's dictionary, {basic column: (row, rhs, den)}
    with row a list: the stored rows, and each other basic surplus row
    derived from the row as given. A basic structural column must have a
    stored row."""
    n = engine.num_vars
    rows = {}
    for col in range(n + len(engine._given)):
        if col in engine._position:
            continue
        stored = engine._rows.get(col)
        if stored is None and col < n:
            raise AssertionError(f"basic structural column {col} has no stored row")
        row, rhs, den = stored if stored is not None else engine._derive(col - n)
        rows[col] = unpack_row(engine, row), rhs, den
    return rows


def full_dictionary(reference: FullDictionarySimplex) -> dict:
    """The rows of the reference engine, {basic column: (row, rhs, den)}."""
    r = reference
    return {b: (row, rhs, den) for b, row, rhs, den in zip(r._basis, r._rows, r._rhs, r._den)}


def _state(nonbasic, cost, rows: dict) -> str:
    return hashlib.sha256(repr((nonbasic, cost, sorted(rows.items()))).encode()).hexdigest()


def check_stored_rows(engine: CoveringSimplex, rows: dict) -> None:
    """engine stores the row of every violated basic column in rows, its
    full dictionary, and no satisfied surplus row."""
    for col, (_, rhs, _) in rows.items():
        if rhs < 0 and col not in engine._rows:
            raise AssertionError(f"violated row of basic column {col} is not stored")
    for col, (_, rhs, _) in engine._rows.items():
        if col >= engine.num_vars and rhs >= 0:
            raise AssertionError(f"satisfied row of surplus column {col} is stored")


def engine_state(engine: CoveringSimplex) -> str:
    """A digest of engine's nonbasic order, cost row and full dictionary,
    after checking that its stored surplus rows are the violated ones and
    that its rows keep within the slot limit."""
    check_slot_bound(engine)
    rows = dictionary(engine)
    check_stored_rows(engine, rows)
    row, rhs, den = engine._cost
    return _state(engine._nonbasic, (unpack_row(engine, row), rhs, den), rows)


def reference_state(reference: FullDictionarySimplex) -> str:
    cost = (reference._cost, reference._cost_rhs, reference._cost_den)
    return _state(reference._nonbasic, cost, full_dictionary(reference))


def check_same_dictionary(engine: CoveringSimplex, reference: FullDictionarySimplex) -> None:
    """engine holds the reference's dictionary row for row, stores the row
    of every violated basic column and no satisfied surplus row, keeps
    den^2 + sum_q e_q^2 as the steepest-edge norm of every stored row it
    has a norm for, and each stored surplus row equals its derivation from
    the row as given."""
    n = engine.num_vars
    if engine._nonbasic != reference._nonbasic:
        raise AssertionError(f"nonbasic {engine._nonbasic} != {reference._nonbasic}")
    if engine._position != {col: q for q, col in enumerate(engine._nonbasic)}:
        raise AssertionError("positions do not index the nonbasic columns")
    row, rhs, den = engine._cost
    if (unpack_row(engine, row), rhs, den) != (reference._cost, reference._cost_rhs, reference._cost_den):
        raise AssertionError("cost rows differ")
    full = full_dictionary(reference)
    if dictionary(engine) != full:
        raise AssertionError("dictionaries differ")
    check_stored_rows(engine, full)
    for col, (entry, norm) in engine._norms.items():
        if engine._rows.get(col) is entry:
            row, _, den = entry
            if norm != den * den + sum(e * e for e in unpack_row(engine, row)):
                raise AssertionError(f"steepest-edge norm of column {col} is stale")
    for col in [col for col in engine._rows if col >= n]:
        derived = engine._derive(col - n)  # may widen the engine's rows first
        if engine._rows[col] != derived:
            raise AssertionError(f"stored row of column {col} differs from its derivation")


@contextlib.contextmanager
def recorded_pivots(log: list):
    """Within the block, every pivot of either engine appends (engine type,
    leaving column, entering column, state digest after the pivot) to log."""
    def recorder(cls, leaving, state):
        pivot = cls._pivot

        def recording(engine, r, q, *rest):
            pair = (leaving(engine, r), engine._nonbasic[q])
            pivot(engine, r, q, *rest)
            log.append((cls.__name__, *pair, state(engine)))

        return pivot, recording

    patches = [
        (CoveringSimplex, *recorder(CoveringSimplex, lambda e, leave: leave, engine_state)),
        (
            FullDictionarySimplex,
            *recorder(FullDictionarySimplex, lambda e, r: e._basis[r], reference_state),
        ),
    ]
    for cls, _, recording in patches:
        cls._pivot = recording
    try:
        yield log
    finally:
        for cls, pivot, _ in patches:
            cls._pivot = pivot


class Lockstep:
    """A CoveringSimplex and a FullDictionarySimplex driven through the same
    calls. Each optimize must make the same pivots on both, leaving column
    and entering column, with the same full dictionary after every pivot,
    and end the same way; every other call must give the same result. The
    CoveringSimplex answers. Stands in for CoveringSimplex in elp, so whole
    cut chases and pin sweeps run in lockstep.

    optimal_face() pairs the engine's face with the reference under a
    ceiling at the objective, so the face rule is checked pivot by pivot
    against the ceiling it replaced: the reference's AboveCeilingError and
    the engine's InfeasibleError count as the same outcome."""

    def __init__(self, num_vars: int, pairs: Iterable[tuple[int, int]] = (), pair=None, ceiling=None):
        """Without pair, the engine CoveringSimplex(num_vars, pairs) builds in
        closed form, beside the reference given the same edge rows one by
        one."""
        self.num_vars = num_vars
        if pair is None:
            pairs = list(pairs)
            pair = CoveringSimplex(num_vars, pairs), FullDictionarySimplex(num_vars)
            for i, j in pairs:
                pair[1].add_ge_row({i: 1, j: 1}, 1)
        self.engine, self.reference = pair
        self.ceiling = ceiling
        check_same_dictionary(self.engine, self.reference)

    @property
    def pivots(self) -> int:
        return self.engine.pivots

    def copy(self) -> "Lockstep":
        pair = self.engine.copy(), self.reference.copy()
        return Lockstep(self.num_vars, pair=pair, ceiling=self.ceiling)

    def optimal_face(self) -> "Lockstep":
        pair = self.engine.optimal_face(), self.reference.copy()
        return Lockstep(self.num_vars, pair=pair, ceiling=self.objective())

    def add_ge_row(self, coeffs: Mapping[int, int], rhs: int) -> None:
        self.engine.add_ge_row(coeffs, rhs)
        self.reference.add_ge_row(coeffs, rhs)
        check_same_dictionary(self.engine, self.reference)

    def optimize(self) -> None:
        errors = []
        with recorded_pivots([]) as log:
            for call in (
                lambda: self.reference.optimize(simplex.PIVOT_CAP, self.ceiling),
                self.engine.optimize,
            ):
                try:
                    call()
                    errors.append(None)
                except (InfeasibleError, AboveCeilingError, PivotLimitError, ValueError) as exc:
                    errors.append(exc)
        made = [[entry[1:] for entry in log if entry[0] == type(e).__name__]
                for e in (self.reference, self.engine)]
        if made[0] != made[1]:
            raise AssertionError(f"pivots differ: {made[1]} != {made[0]}")
        outcomes = [
            InfeasibleError if type(exc) is AboveCeilingError else type(exc) for exc in errors
        ]
        if outcomes[0] is not outcomes[1]:
            raise AssertionError(f"outcomes differ: {errors[1]!r} != {errors[0]!r}")
        check_same_dictionary(self.engine, self.reference)
        if self.engine.pivots != self.reference.pivots:
            raise AssertionError("pivot counts differ")
        if errors[1] is not None:
            raise errors[1]

    def objective(self):
        value = engine_objective(self.engine)
        if value != self.reference.objective():
            raise AssertionError("objectives differ")
        return value

    def scaled_values(self) -> tuple[list[int], int]:
        point = self.engine.scaled_values()
        if point != self.reference.scaled_values():
            raise AssertionError("points differ")
        return point

    def certified_values(self) -> tuple[list[int], int]:
        point = self.engine.certified_values()
        if point != self.reference.certified_values():
            raise AssertionError("certified points differ")
        return point
