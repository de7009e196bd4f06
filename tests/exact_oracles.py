"""Independent brute-force oracles used only by the tests.

Everything here is deliberately implemented by a different route than the
package code it checks: vertex covers by subset enumeration, LP values by
half-integral grid enumeration or tight-constraint vertex enumeration, odd
cycles via networkx. Slow and dumb on purpose.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import networkx as nx

from elpcover import elp, reductions
from elpcover._rat import ONE, ZERO, Rat
from elpcover.elp import ElpSolution, classify_edges, separate_odd_cycle
from elpcover.graph import Graph, OddCycle, normalize_edge, random_gnp_graph
from elpcover.simplex import CoveringSimplex, InfeasibleError, PivotLimitError


def scale_point(g: Graph, x: Mapping[int, object]) -> tuple[list[int], int]:
    """x as the pair (ints, L) that separate_odd_cycle and classify_edges
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


def run_pipeline_iterates(g: Graph, config=None):
    """run_pipeline(g, config) plus what its trace does not keep: the graphs
    [G_1 .. G_L] and the solutions [x_1 .. x_L], x_k taken after an
    alternate-optimum swap, if any.

    While the pipeline runs, the solve_elp and explore_alternate_bfs names
    it calls in the reductions module are wrapped to note each G_k and
    x_k, so no LP is solved twice. Returns (trace, graphs, xs).
    """
    graphs: list[Graph] = []
    xs: list[dict] = []
    solve, explore = reductions.solve_elp, reductions.explore_alternate_bfs

    def solving(h):
        sol = solve(h)
        graphs.append(h)
        xs.append(sol.x)
        return sol

    def exploring(h, sol):
        alt, pins = explore(h, sol)
        if alt is not None:
            xs[-1] = alt.x
        return alt, pins

    reductions.solve_elp, reductions.explore_alternate_bfs = solving, exploring
    try:
        trace = reductions.run_pipeline(g, config)
    finally:
        reductions.solve_elp, reductions.explore_alternate_bfs = solve, explore
    assert len(graphs) == len(xs) == trace.L
    return trace, graphs, xs


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


def nx_odd_cycles(g: Graph, max_len=None) -> set[frozenset[int]]:
    """Vertex sets of all simple odd cycles, via networkx."""
    limit = max_len if max_len is not None else g.n
    out = set()
    for cycle in nx.simple_cycles(to_networkx(g), length_bound=limit):
        if len(cycle) % 2 == 1 and len(cycle) >= 3:
            out.add(frozenset(cycle))
    return out


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
        if g.is_connected():
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


# The pin sweep as it was before its optimize calls took a ceiling, kept
# verbatim as the differential reference for elp.explore_alternate_bfs:
# every pin is solved to its optimum before it is judged. It runs on its
# own copy of the generator cut chase that elp used before its one _chase,
# so only separation, edge classification and the engine are shared.
@dataclass(frozen=True)
class CutRound:
    cycle: OddCycle
    violation: object
    objective_after: object


def _index(g: Graph) -> dict[int, int]:
    return {v: j for j, v in enumerate(g.vertices)}


def _add_cycle_row(engine: CoveringSimplex, cycle: OddCycle, index) -> None:
    engine.add_ge_row(dict.fromkeys((index[v] for v in cycle.vertices), 1), cycle.rhs)


def _assemble(g: Graph, engine: CoveringSimplex, pool) -> ElpSolution:
    values = point_values(engine.certified_values())
    active, over, small = classify_edges(g, engine.scaled_values())
    return ElpSolution(
        x=dict(zip(g.vertices, values)),
        objective=sum(values, ZERO),
        cycle_pool=tuple(pool),
        active_edges=active,
        over_active_edges=over,
        small_edges=small,
        engine=engine,
    )


def chase_cuts(
    g: Graph, engine: CoveringSimplex, pool: list, seen: set, cap: int, ceiling=None
) -> Iterator[CutRound]:
    """Add most-violated odd-cycle cuts to an optimal engine until x
    satisfies every odd-cycle inequality of g, yielding one CutRound per cut.

    Each cut is appended to pool and its vertex set to seen, and the engine
    is re-optimized with the given ceiling (InfeasibleError and
    AboveCeilingError propagate). More than cap cuts raise
    CutLoopLimitError. A caller that stops iterating leaves the engine
    optimal for the cuts added so far.
    """
    index = _index(g)
    added = 0
    while True:
        found = separate_odd_cycle(g, engine.scaled_values())
        if found is None:
            return
        if added >= cap:
            raise elp.CutLoopLimitError(f"exceeded {cap} cutting-plane rounds on n={g.n}")
        cycle, violation = found
        if cycle.vertex_set in seen:
            raise AssertionError(f"separation returned pooled cycle {cycle.vertices}")
        seen.add(cycle.vertex_set)
        pool.append(cycle)
        _add_cycle_row(engine, cycle, index)
        engine.optimize(ceiling=ceiling)
        added += 1
        objective = engine.objective()
        yield CutRound(cycle, violation, objective)


def _round_cap(g: Graph) -> int:
    return elp.ROUNDS_PER_VERTEX * max(1, g.n)


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
    if sol.one_vertices:
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
            if trial.objective() != target:
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
