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
from fractions import Fraction
from typing import Mapping

import networkx as nx

from elpcover._rat import ONE, ZERO, Rat
from elpcover.graph import Graph, OddCycle, normalize_edge


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
