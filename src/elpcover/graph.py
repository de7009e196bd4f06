"""Undirected simple graphs with stable vertex labels, plus I/O and generators.

Vertex labels are plain ints and survive every surgery operation: a graph
derived by deleting vertices or rewiring an edge keeps the original labels of
all surviving vertices, and a deleted label never comes back in any later
graph of the same run. Graphs are immutable; surgery returns new instances.
"""

from __future__ import annotations

import logging
import random
import re
from typing import Iterable, Iterator, Optional

log = logging.getLogger("elpcover.graph")

# Largest vertex or edge count that a DIMACS header or a generator spec may
# ask for. Checked before anything is allocated; every corpus graph is far
# below it (n <= 35).
MAX_GRAPH_SIZE = 1_000_000


class GraphFormatError(ValueError):
    """Malformed graph input: bad line, index out of range, or self-loop."""


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class OddCycle:
    """A simple cycle of odd length, stored in canonical cyclic order.

    Canonical form: the smallest vertex first, continuing toward its smaller
    cyclic neighbor, so equal vertex sequences compare equal regardless of the
    rotation/direction they were discovered in. Equality, hash and repr go by
    the canonical vertices.
    """

    __slots__ = ("vertices", "vertex_set")

    def __init__(self, vertices: Iterable[int]):
        seq = tuple(vertices)
        if len(seq) < 3 or len(seq) % 2 == 0:
            raise ValueError(f"odd cycle needs odd length >= 3, got {len(seq)}")
        members = frozenset(seq)
        if len(members) != len(seq):
            raise ValueError(f"cycle vertices must be distinct: {seq}")
        self.vertices: tuple[int, ...] = _canonical_rotation(seq)
        self.vertex_set: frozenset[int] = members

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"OddCycle(vertices={self.vertices!r})"

    @classmethod
    def in_graph(cls, g: "Graph", seq: Iterable[int]) -> "OddCycle":
        """Construct and verify that consecutive pairs (cyclically) are edges of g."""
        cycle = cls(tuple(seq))
        for u, v in cycle.cycle_edges():
            if not g.has_edge(u, v):
                raise ValueError(f"({u},{v}) is not an edge of the ambient graph")
        return cycle

    @property
    def s(self) -> int:
        return (len(self.vertices) - 1) // 2

    @property
    def rhs(self) -> int:
        """Right-hand side of the cycle's covering inequality, s + 1."""
        return self.s + 1

    def cycle_edges(self) -> tuple[tuple[int, int], ...]:
        seq = self.vertices
        return tuple((u, v) if u < v else (v, u) for u, v in zip(seq, seq[1:] + seq[:1]))


def _canonical_rotation(seq: tuple[int, ...]) -> tuple[int, ...]:
    i = seq.index(min(seq))
    return min(seq[i:] + seq[:i], seq[i::-1] + seq[:i:-1])  # both directions


class Graph:
    """Immutable undirected simple graph over integer vertex labels. Its
    views (vertices, m, the edges and the index) are computed once."""

    __slots__ = ("_adj", "_vertices", "_edges", "_index")

    def __init__(self, adjacency: dict[int, tuple[int, ...]]):
        # Private; use from_edges / parse_graph / generators.
        self._adj = adjacency
        self._vertices = tuple(adjacency)  # insertion order is sorted
        self._edges = self._index = None

    @classmethod
    def from_edges(
        cls, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()
    ) -> "Graph":
        adj: dict[int, set[int]] = {int(v): set() for v in vertices}
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        return cls({v: tuple(sorted(nbrs)) for v, nbrs in sorted(adj.items())})

    # ------------------------------------------------------------- queries

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return len(self.edge_list())

    @property
    def index(self) -> dict[int, int]:
        """Each vertex's position in vertices; the caller must not change it."""
        if self._index is None:
            self._index = {v: j for j, v in enumerate(self._vertices)}
        return self._index

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        return iter(self.edge_list())

    def edge_list(self) -> tuple[tuple[int, int], ...]:
        if self._edges is None:
            self._edges = tuple((u, v) for u, nbrs in self._adj.items() for v in nbrs if u < v)
        return self._edges

    def find_triangle(self) -> Optional[OddCycle]:
        """Lexicographically smallest triangle, or None."""
        for u in self._adj:
            nbrs = self._adj[u]
            for a in range(len(nbrs)):
                v = nbrs[a]
                if v <= u:
                    continue
                for b in range(a + 1, len(nbrs)):
                    w = nbrs[b]
                    if self.has_edge(v, w):
                        return OddCycle((u, v, w))
        return None

    def has_triangle_through(self, i: int, j: int) -> bool:
        if not self.has_edge(i, j):
            return False
        nj = set(self._adj[j])
        return any(s in nj for s in self._adj[i])

    # ------------------------------------------------------------- surgery

    def delete_vertices(self, drop: Iterable[int]) -> "Graph":
        gone = set(drop)
        unknown = gone.difference(self._adj)
        if unknown:
            raise KeyError(f"unknown vertices: {sorted(unknown)}")
        return Graph(
            {
                v: tuple(w for w in nbrs if w not in gone)
                for v, nbrs in self._adj.items()
                if v not in gone
            }
        )

    def rewire_active_edge(self, i: int, j: int) -> tuple["Graph", frozenset[int]]:
        """Connect every neighbor of i (except j) to every neighbor of j
        (except i), then delete i and j. Returns the new graph plus D_i, the
        neighbors of i other than j, which the cover reconstruction needs.

        Pairs with s == t (possible only when a triangle runs through (i, j))
        would be self-loops and are skipped; callers that rely on the value
        accounting must rule that case out beforehand.
        """
        if not self.has_edge(i, j):
            raise ValueError(f"({i},{j}) is not an edge")
        d_i = frozenset(s for s in self._adj[i] if s != j)
        survivors = [v for v in self._adj if v != i and v != j]
        edges = [
            (u, v) for (u, v) in self.edges() if u not in (i, j) and v not in (i, j)
        ]
        edges.extend((s, t) for s in d_i for t in self._adj[j] if t != i and s != t)
        return Graph.from_edges(survivors, edges), d_i

    # ------------------------------------------------------------- dunder

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self):
        return hash((self.vertices, self.edge_list()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# ------------------------------------------------------------------ parsing


def detect_format(text: str) -> str:
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        return "dimacs" if stripped.startswith("p") else "edgelist"
    return "edgelist"


def parse_graph(text: str, format: str = "dimacs") -> Graph:
    if format == "dimacs":
        return _parse_dimacs(text)
    if format == "edgelist":
        return _parse_edgelist(text)
    raise ValueError(f"unknown format {format!r}")


def _parse_dimacs(text: str) -> Graph:
    n = None
    declared_m = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate problem line")
            if len(fields) != 4:
                raise GraphFormatError(f"line {lineno}: malformed problem line {line!r}")
            if fields[1] != "edge":
                log.warning("problem line declares %r, expected 'edge'", fields[1])
            try:
                n, declared_m = int(fields[2]), int(fields[3])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: {line!r}") from exc
            if min(n, declared_m) < 0:
                raise GraphFormatError(f"line {lineno}: negative count in {line!r}")
            if max(n, declared_m) > MAX_GRAPH_SIZE:
                raise GraphFormatError(
                    f"line {lineno}: {line!r} exceeds the size limit {MAX_GRAPH_SIZE}"
                )
        elif fields[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before problem line")
            if len(fields) != 3:
                raise GraphFormatError(f"line {lineno}: malformed edge line {line!r}")
            edge = _edge_line(lineno, line, fields[1:], edges)
            if not (1 <= edge[0] and edge[1] <= n):
                raise GraphFormatError(
                    f"line {lineno}: vertex out of range 1..{n}: {line!r}"
                )
            edges.add(edge)
        else:
            raise GraphFormatError(f"line {lineno}: unknown line type {line!r}")
    if n is None:
        raise GraphFormatError("missing problem line")
    if declared_m is not None and declared_m != len(edges):
        log.warning("problem line declares %d edges, found %d", declared_m, len(edges))
    # The edges are checked and sorted, so each neighbor list comes out sorted.
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in sorted(edges):
        adj[u].append(v)
        adj[v].append(u)
    return Graph({v: tuple(nbrs) for v, nbrs in adj.items()})


def _parse_edgelist(text: str) -> Graph:
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {line!r}")
        edges.add(_edge_line(lineno, line, fields, edges))
    return Graph.from_edges((), sorted(edges))


def _edge_line(lineno: int, line: str, fields: list[str], edges: set) -> tuple[int, int]:
    """The edge named by the two fields of an edge line; a duplicate of one
    in edges is warned about, and the caller adds it."""
    try:
        u, v = int(fields[0]), int(fields[1])
    except ValueError as exc:
        raise GraphFormatError(f"line {lineno}: {line!r}") from exc
    if u == v:
        raise GraphFormatError(f"line {lineno}: self-loop at {u}")
    edge = normalize_edge(u, v)
    if edge in edges:
        log.warning("duplicate edge %s deduplicated", edge)
    return edge


def to_dimacs(g: Graph, comments: Iterable[str] = ()) -> str:
    """DIMACS rendering; vertices are relabeled 1..n in sorted label order."""
    order = g.vertices
    index = {v: i + 1 for i, v in enumerate(order)}
    lines = [f"c {c}" for c in comments]
    if any(index[v] != v for v in order):
        lines.append(f"c original labels: {' '.join(str(v) for v in order)}")
    lines.append(f"p edge {g.n} {g.m}")
    lines.extend(f"e {index[u]} {index[v]}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- generators


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(
        range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)]
    )


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edges(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph.from_edges(
        range(1, n + 1),
        [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)],
    )


def petersen_graph() -> Graph:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(5 + i, 5 + (i + 1) % 5 + 1) for i in range(1, 6)]
    return Graph.from_edges(range(1, 11), outer + spokes + inner)


def torus_grid_graph(a: int, b: int) -> Graph:
    """a x b grid with wraparound in both directions: a*b vertices, 2ab edges."""
    if a < 3 or b < 3:
        raise ValueError("torus grid needs a, b >= 3")
    label = lambda i, j: i * b + j + 1
    edges = []
    for i in range(a):
        for j in range(b):
            edges.append((label(i, j), label((i + 1) % a, j)))
            edges.append((label(i, j), label(i, (j + 1) % b)))
    return Graph.from_edges(range(1, a * b + 1), edges)


def random_gnp_graph(n: int, p: float, seed: int) -> Graph:
    if n < 1 or not 0 <= p <= 1:
        raise ValueError("need n >= 1 and p in [0,1]")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return Graph.from_edges(range(1, n + 1), edges)


def random_triangle_free_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p), then repeatedly delete one random edge of the lexicographically
    first remaining triangle until triangle-free. Deterministic for a seed.

    Deleting an edge never creates a triangle, so the first remaining
    triangle only moves forward in lexicographic order. One scan over the
    triples u < v < w, resumed after each deletion and checked against the
    current adjacency, therefore meets the same triangles in the same order
    as rescanning from the start after every deletion."""
    rng = random.Random(seed)
    g = random_gnp_graph(n, p, seed)
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    for u in sorted(adj):
        later = sorted(v for v in adj[u] if v > u)
        for i, v in enumerate(later):
            for w in later[i + 1 :]:
                if v not in adj[u]:
                    break
                if w in adj[u] and w in adj[v]:
                    a, b = rng.choice([(u, v), (u, w), (v, w)])
                    adj[a].discard(b)
                    adj[b].discard(a)
    return Graph.from_edges(
        adj, [(u, v) for u in adj for v in adj[u] if u < v]
    )


_GEN_SPEC = re.compile(r"^\s*([a-z_]+)\s*(?:\(\s*([^()]*)\s*\))?\s*$")


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


# name -> (factory, argument kinds, (vertex count, edge count upper bound)).
GENERATORS = {
    "cycle": (cycle_graph, ("int",), lambda n: (n, n)),
    "path": (path_graph, ("int",), lambda n: (n, n)),
    "complete": (complete_graph, ("int",), lambda n: (n, _pairs(n))),
    "petersen": (petersen_graph, (), lambda: (10, 15)),
    "torus_grid": (torus_grid_graph, ("int", "int"), lambda a, b: (a * b, 2 * a * b)),
    "random_triangle_free": (
        random_triangle_free_graph, ("int", "float", "int"), lambda n, p, seed: (n, _pairs(n))
    ),
    "gnp": (random_gnp_graph, ("int", "float", "int"), lambda n, p, seed: (n, _pairs(n))),
}


def generate(spec: str) -> tuple[Graph, str]:
    """Build a graph from a generator spec like "cycle(5)" or "petersen".

    Returns the graph and a normalized name for reports/filenames. A spec
    whose vertex or edge count exceeds MAX_GRAPH_SIZE raises GraphFormatError
    before the graph is built.
    """
    match = _GEN_SPEC.match(spec)
    if not match:
        raise ValueError(f"bad generator spec {spec!r}")
    name, arg_text = match.group(1), match.group(2)
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}; choices: {sorted(GENERATORS)}")
    factory, arg_kinds, size = GENERATORS[name]
    raw_args = [a.strip() for a in arg_text.split(",")] if arg_text else []
    if len(raw_args) != len(arg_kinds):
        raise ValueError(f"{name} expects {len(arg_kinds)} argument(s), got {len(raw_args)}")
    args = [int(a) if kind == "int" else float(a) for a, kind in zip(raw_args, arg_kinds)]
    canonical = name if not args else f"{name}({','.join(raw_args)})"
    if max(size(*args)) > MAX_GRAPH_SIZE:
        raise GraphFormatError(f"{canonical} exceeds the size limit {MAX_GRAPH_SIZE}")
    return factory(*args), canonical
