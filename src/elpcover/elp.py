"""Odd-cycle-strengthened LP relaxation of minimum vertex cover.

The relaxation adds, on top of the edge inequalities x_i + x_j >= 1, one
inequality sum_{v in C} x_v >= s + 1 per odd cycle C of length 2s + 1. The
cycle family is exponential, so the optimum is computed by a cutting-plane
loop with an exact separation oracle (Grotschel, Lovasz & Schrijver,
Geometric Algorithms and Combinatorial Optimization, 1988, section 9.1): a
most-violated odd cycle is found as a minimum-weight odd closed walk in the
bipartite double cover under edge weights w(u,v) = x_u + x_v - 1, then
shrunk to a simple odd cycle (discarding closed sub-walks of even length
never increases the weight). Each round of the loop adds a batch of
pairwise vertex-disjoint violated cycles before it re-optimizes: the most
violated cycle of the graph, then one of the graph less the vertices of
the cycles taken so far, and so on (many cuts per round, as in Padberg &
Rinaldi, SIAM Review 33, 1991). A round's searches share one double
cover, built at the round's point, that masks the vertices taken, and
each search is pruned at the lightest walk so far, at bases whose
lightest arc upward cannot beat it, and at vertices searched or masked.
Every cut is an odd-cycle inequality violated at the round's point, and
the loop ends only when a separation over the whole graph finds nothing,
so the batches change the vertex the simplex returns but not the optimum.

Every LP goes through one CoveringSimplex engine, which relaxation_engine
builds over the edge rows x_u + x_v >= 1, its starting dictionary and
steepest-edge norms in closed form (CoveringSimplex(n, pairs)). One cut
chase, _chase, appends a sparse int row per pooled cycle and takes an
engine to the optimum of the full relaxation, both for solve_elp and for
each pin of the alternate-optimum sweep. The chase hands the engine's
point to separation and edge classification as ints over one common
denominator (CoveringSimplex.scaled_values). The solution returned after the loop is a
vertex of the cut-augmented polytope, certified optimal for it by the
engine's exact dual check; a final separation pass certifies it is
feasible, hence optimal, for the full relaxation. Whether it is also a
vertex of the full-relaxation polytope is not guaranteed and is surfaced as
a diagnostic, not assumed.
"""

from __future__ import annotations

import heapq
import logging
from typing import NamedTuple, Optional

from ._rat import Rat
from .graph import Graph, OddCycle
from .simplex import CoveringSimplex, InfeasibleError

log = logging.getLogger("elpcover.elp")

# A cut chase on a graph of n vertices may add at most CUTS_PER_VERTEX *
# max(1, n) cuts, counted one by one whatever the rounds that add them,
# before CutLoopLimitError.
CUTS_PER_VERTEX = 10

# relaxation_engine refuses a graph with n * m over MAX_ENGINE_CELLS: it would
# store a row of n packed slots per edge. At 32-bit slots that is about 4.3
# bytes per cell (CPython keeps 30 bits in each 4-byte digit), so about 43 MB
# at the cap, some 280 times the largest graph solved, gnp(80,0.15,2). The
# bytes double with each widening, and mid-size graphs already widen to
# 64-bit slots.
MAX_ENGINE_CELLS = 10_000_000


class CapExceededError(Exception):
    """Instance over a size cap: MAX_ENGINE_CELLS, or an exact oracle's."""


class CutLoopLimitError(RuntimeError):
    """Cut cap exceeded: a chase added more than CUTS_PER_VERTEX * max(1, n)
    cuts, however many rounds it took; signals a separation/extraction bug."""


class ElpSolution(NamedTuple):
    """An optimal point of the relaxation on g, with the engine that holds it."""

    x: dict
    objective: object
    cycle_pool: tuple[OddCycle, ...]
    active_edges: tuple[tuple[int, int], ...]
    over_active_edges: tuple[tuple[int, int], ...]
    engine: CoveringSimplex  # optimal for the edge rows and cycle_pool (plus a pin)


def relaxation_engine(g: Graph) -> CoveringSimplex:
    """Unsolved engine over g.vertices order: one x_u + x_v >= 1 row per
    edge, built in closed form."""
    if g.n * g.m > MAX_ENGINE_CELLS:
        raise CapExceededError(f"n*m = {g.n}*{g.m} exceeds the LP size cap {MAX_ENGINE_CELLS}")
    index = g.index
    return CoveringSimplex(g.n, [(index[u], index[v]) for u, v in g.edges()])


class DoubleCover:
    """g's bipartite double cover under the edge weights at a point (ints,
    L), shared by the searches of a cut round; a point that does not fit g
    raises ValueError.

    arcs[i] holds a (2*j, w) per neighbor g.vertices[j] of g.vertices[i]
    whose edge weighs w = L x_i + L x_j - L < L (no walk lighter than L uses
    a heavier arc), and floor[i] is twice the lightest arc from i to a
    higher vertex (L when none). taken holds the masked vertex indices,
    left the edges of g between the others."""

    def __init__(self, g: Graph, point: tuple[list[int], int]):
        self.g, self.point, self.taken, self.left = g, point, set(), g.m
        order, index, (scaled, scale) = g.vertices, g.index, point
        if len(scaled) != len(order) or scale <= 0:
            raise ValueError(f"point ({len(scaled)} ints over {scale}) does not fit n={len(order)}")
        arcs, floor = [[] for _ in order], [scale] * len(order)
        for u, v in g.edges():
            i, j = index[u], index[v]
            w = scaled[i] + scaled[j] - scale
            if w < 0:
                raise ValueError(f"edge inequality violated at ({u},{v}): {Rat(scaled[i], scale)}+{Rat(scaled[j], scale)} < 1")
            if w < scale:
                arcs[i].append((2 * j, w))
                arcs[j].append((2 * i, w))
                floor[i] = min(floor[i], 2 * w)
        self.arcs, self.floor = arcs, floor

    def mask(self, vertices) -> None:
        """Leave the vertices of g out of every later search."""
        index, taken = self.g.index, self.taken
        for v in vertices:
            self.left -= sum(index[u] not in taken for u in self.g.neighbors(v))
            taken.add(index[v])


def separate_odd_cycle(cover: DoubleCover):
    """Most-violated odd-cycle inequality at cover's point x on cover's
    graph g less its masked vertices, or None if all are satisfied.

    The point is x scaled to integers, (ints, L) with L > 0 and
    x[g.vertices[i]] = ints[i] / L: CoveringSimplex.scaled_values() of an
    engine over g.vertices. Any common denominator L gives the same result.
    DoubleCover requires x to satisfy every edge inequality, so the weights
    w(u,v) = x_u + x_v - 1 are nonnegative. Returns (cycle, violation)
    where violation = (s+1) - sum_{v in cycle} x_v > 0, a Rat, and the
    cycle has minimum weight among all odd cycles (so it is a most-violated
    one).

    The search is exact and integer-only: each edge weighs the int
    L*x_u + L*x_v - L, and one Dijkstra per base vertex looks for the
    lightest walk from (base, 0) to (base, 1) in the bipartite double cover.
    Three prunings keep it cheap:

    - bound: no label >= limit is pushed, where limit is L (only walks of
      weight < 1 are violated) until a walk is found, then the best weight
      so far (a later base must be strictly lighter to replace it);
    - base bound: a walk leaves and re-enters its base through arcs to
      higher vertices, each weighing at least half the base's floor; so a
      base is not searched when its floor is >= limit, and a search keeps
      no label >= limit less half the floor but at (base, 1);
    - done vertices: a base already searched is left out of later searches,
      since any walk through it weighs at least the limit of its own
      search, and so is every masked vertex.

    Tie-break: among equally light walks the lowest base in g.vertices order
    wins, and within a search the heap order on (weight, (vertex, side))
    picks the walk. Scaling by L > 0 keeps every comparison, and the
    prunings only drop labels that could not win, so the cycle returned is
    the one an unscaled, unpruned search returns.
    """
    g, (scaled, scale) = cover.g, cover.point
    best_dist = scale
    best_walk = None
    for base, floor in enumerate(cover.floor):
        if floor < best_dist and base not in cover.taken:
            found = _shortest_odd_closed_walk(cover.arcs, base, best_dist, floor // 2, cover.taken)
            if found is not None:
                best_dist, best_walk = found
    if best_walk is None:
        # Cycle weight >= 1 is exactly the cycle inequality holding.
        return None
    order, index = g.vertices, g.index
    cycle = OddCycle.in_graph(g, _extract_simple_odd_cycle([order[i] for i in best_walk]))
    slack = cycle.rhs * scale - sum(scaled[index[v]] for v in cycle.vertices)
    if slack <= 0:
        raise AssertionError("extracted cycle must be violated when walk weight < 1")
    return cycle, Rat(slack, scale)


def _shortest_odd_closed_walk(adjacency, base: int, limit: int, lightest: int, taken):
    """(weight, walk) of the lightest walk from (base, 0) to (base, 1) in the
    double cover when it weighs < limit, else None. Vertices below base and
    taken ones are done and never entered; walk lists vertex indices, base
    at both ends. Node (vertex i, side s) is the int 2*i + s, so nodes sort
    like the (vertex, side) pairs: g.vertices is sorted."""
    src = 2 * base
    dst = src + 1
    # A label is kept only below dist[node]: limit at dst, limit less the
    # lightest possible last arc elsewhere, and 0 at the done vertices.
    dist = [0] * src + [limit - lightest] * (2 * len(adjacency) - src)
    for i in taken:
        dist[2 * i] = dist[2 * i + 1] = 0
    dist[src], dist[dst] = 0, limit
    parent = {}
    heap = [(0, src)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        if node == dst:
            walk = []
            while True:
                walk.append(node >> 1)
                if node == src:
                    break
                node = parent[node]
            walk.reverse()
            return d, walk
        flip = 1 - (node & 1)
        for code, w in adjacency[node >> 1]:
            nd = d + w
            nxt = code + flip
            if nd < dist[nxt]:
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


def classify_edges(g: Graph, point: tuple[list[int], int]):
    """(active, over-active) edge sets at a point x, both by exact comparison.

    active: x_u + x_v = 1, the edges the active-edge step rewires;
    over-active: x_u + x_v >= 4/3 (boundary included), the edges the
    over-active step deletes. point is x scaled to integers, (ints, L) as
    a DoubleCover takes it, so the tests are the int comparisons
    L x_u + L x_v == L and 3 (L x_u + L x_v) >= 4 L.
    """
    ints, scale = point
    scaled = dict(zip(g.vertices, ints))
    active = []
    over = []
    for u, v in g.edges():
        s = scaled[u] + scaled[v]
        if s == scale:
            active.append((u, v))
        if 3 * s >= 4 * scale:
            over.append((u, v))
    return tuple(active), tuple(over)


def _assemble(g: Graph, engine: CoveringSimplex, pool) -> ElpSolution:
    point = engine.certified_values()
    ints, scale = point
    active, over = classify_edges(g, point)
    return ElpSolution(
        x={v: Rat(i, scale) for v, i in zip(g.vertices, ints)},
        objective=Rat(sum(ints), scale),
        cycle_pool=tuple(pool),
        active_edges=active,
        over_active_edges=over,
        engine=engine,
    )


def _chase(g: Graph, engine: CoveringSimplex, pool: list) -> ElpSolution:
    """Optimize engine, then add rounds of violated odd-cycle cuts until x
    satisfies every odd-cycle inequality of g; the certified optimum.

    A round takes the cycles _disjoint_cuts finds at the engine's point,
    the most violated cycle of g first, adds them all and optimizes again,
    so the chase ends only when a separation over the whole of g finds
    nothing. engine holds the edge rows of g and one row per cycle of pool
    (plus a pin, for the alternate sweep), and each cut is appended to
    pool; InfeasibleError propagates. More than CUTS_PER_VERTEX * max(1, n)
    cuts raise CutLoopLimitError.
    """
    index = g.index
    seen = {c.vertex_set for c in pool}
    cap = CUTS_PER_VERTEX * max(1, g.n)
    added = rounds = 0
    while True:
        engine.optimize()
        cuts = _disjoint_cuts(g, engine.scaled_values())
        if not cuts:
            return _assemble(g, engine, pool)
        rounds += 1
        for cycle, violation in cuts:
            if added >= cap:
                raise CutLoopLimitError(f"exceeded {cap} cuts on n={g.n}")
            if cycle.vertex_set in seen:
                raise AssertionError(f"separation returned pooled cycle {cycle.vertices}")
            seen.add(cycle.vertex_set)
            pool.append(cycle)
            engine.add_ge_row(dict.fromkeys((index[v] for v in cycle.vertices), 1), cycle.rhs)
            added += 1
            log.debug("cut round %d: cycle %s violation %s", rounds, cycle.vertices, violation)


def _disjoint_cuts(g: Graph, point: tuple[list[int], int]) -> list:
    """Pairwise vertex-disjoint violated odd cycles at point, as
    (cycle, violation) pairs: separate_odd_cycle on g, then on g less the
    vertices of the cycles taken so far, until a search finds nothing or
    fewer than three edges are left (an odd cycle needs three). Empty
    exactly when x satisfies every odd-cycle inequality of g. Each cycle is
    an odd cycle of g violated at point, and the first is the most violated
    one. Every search runs on one DoubleCover of the round, which masks the
    vertices taken instead of deleting them."""
    cover, cuts = DoubleCover(g, point), []
    while (found := separate_odd_cycle(cover)) is not None:
        cuts.append(found)
        cover.mask(found[0].vertices)
        if cover.left < 3:
            break
    return cuts


def solve_elp(g: Graph) -> ElpSolution:
    """Cutting-plane optimum of the odd-cycle relaxation on g.

    The returned solution satisfies every edge row and every odd-cycle
    inequality of g (certified by a final separation pass), and its value is
    the exact optimum of the full relaxation.
    """
    return _chase(g, relaxation_engine(g), [])


def explore_alternate_bfs(g: Graph, sol: ElpSolution) -> tuple[Optional[ElpSolution], int]:
    """Search for an alternate optimum with an active edge by pinning edges.

    For each edge in g.edges() order, a copy of sol.engine's optimal face
    (CoveringSimplex.optimal_face) gets the row x_u + x_v <= 1 (as
    -x_u - x_v >= -1; with the edge row it pins x_u + x_v = 1) and goes
    through the same cut chase as solve_elp, so the alternate is
    full-relaxation feasible. The first pin whose optimum keeps the
    unpinned value is returned: it has an active edge by construction.
    Returns (solution or None, number of pins tried). Requires sol to have
    no active edge and no unit value.

    A pin fails when its LP is infeasible or its optimum rises above
    sol.objective. On the face either one raises InfeasibleError, no later
    than the first pivot that would raise the objective (see
    CoveringSimplex.optimize), instead of solving the pin to its higher
    optimum; a pin that gets past every optimize keeps the value exactly,
    and anything else is a bug (AssertionError). The pins tried, their
    order and the alternate returned are those of a sweep that solves every
    pin to optimality.
    """
    if sol.active_edges:
        raise ValueError("solution already has an active edge")
    if 1 in sol.x.values():
        raise ValueError("solution has a variable at 1; {0,1}-reduction applies")
    index = g.index
    for pins, (u, v) in enumerate(g.edges(), 1):
        trial = sol.engine.optimal_face()
        trial.add_ge_row({index[u]: -1, index[v]: -1}, -1)
        try:
            alt = _chase(g, trial, list(sol.cycle_pool))
        except InfeasibleError:
            continue
        if alt.objective != sol.objective:
            raise AssertionError(
                f"pin {(u, v)} left the optimal face: objective {alt.objective} != {sol.objective}"
            )
        if not alt.active_edges:
            raise AssertionError("pinned alternate lost its active edge")
        return alt, pins
    return None, g.m
