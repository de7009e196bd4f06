"""Workload inputs for the benchmark, as DIMACS text.

Each workload is a fixed corpus. ``sweep-small`` and ``trianglefree-mid``
are the first instances of the acceptance suite's two seeded corpora (the
connected G(n,p) sweep and the triangle-free batch), and ``lp-large`` is the
ROADMAP baseline set. ``--seed`` sets the order in which the instances are
submitted; it does not draw new graphs. Per-instance cost is heavy-tailed
(on ``trianglefree-mid`` one instance in forty takes seconds, the median
tens of milliseconds), so a fresh sample per seed would move the throughput
of a thirty-second run by far more than any bound worth gating on.

The generators here are frozen copies of the acceptance suite's
connected-G(n,p) rejection sampler and of ``random_triangle_free_graph``.
They deliberately do not call ``elpcover.graph``: a change to the program's
generators must not change what the benchmark measures, and
``inputs_sha256`` makes any change to the copies here visible.
"""

from __future__ import annotations

import hashlib
import random

# The acceptance suite's corpus seeds (tests/test_acceptance.py).
SWEEP_SEED = 20260810
TRIANGLE_FREE_SEED = SWEEP_SEED + 1

WORKLOADS = ("sweep-small", "trianglefree-mid", "lp-large")


def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    return [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]


def is_connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Rejection-sample a connected G(n, p); the draws consume ``rng``."""
    while True:
        edges = gnp_edges(n, p, rng)
        if is_connected(n, edges):
            return edges


def triangle_free_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """G(n, p) from ``seed``, then delete one random edge of the
    lexicographically first triangle until none is left."""
    rng = random.Random(seed)
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in gnp_edges(n, p, random.Random(seed)):
        adj[u].add(v)
        adj[v].add(u)

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
    return sorted((u, v) for u in adj for v in adj[u] if u < v)


def torus_edges(a: int, b: int) -> list[tuple[int, int]]:
    label = lambda i, j: i * b + j + 1
    edges = set()
    for i in range(a):
        for j in range(b):
            for u, v in ((label(i, j), label((i + 1) % a, j)), (label(i, j), label(i, (j + 1) % b))):
                edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def petersen_edges() -> list[tuple[int, int]]:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(5 + i, 5 + (i + 1) % 5 + 1) for i in range(1, 6)]
    return sorted((min(u, v), max(u, v)) for u, v in outer + spokes + inner)


def dimacs(n: int, edges: list[tuple[int, int]]) -> str:
    lines = [f"p edge {n} {len(edges)}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(edges))
    return "\n".join(lines) + "\n"


def sweep_small(size: int) -> list[tuple[str, str]]:
    rng = random.Random(SWEEP_SEED)
    out = []
    for i in range(size):
        n = rng.randint(4, 10)
        p = rng.uniform(0.25, 0.7)
        out.append((f"sweep-{i}(n={n},p={p:.4f})", dimacs(n, connected_gnp_edges(n, p, rng))))
    return out


def trianglefree_mid(size: int) -> list[tuple[str, str]]:
    rng = random.Random(TRIANGLE_FREE_SEED)
    out = []
    for i in range(size):
        n = rng.randint(8, 25)
        p = round(rng.uniform(0.15, 0.45), 4)
        seed = SWEEP_SEED + 10 * i
        out.append((f"trianglefree-{i}(n={n},p={p},seed={seed})", dimacs(n, triangle_free_edges(n, p, seed))))
    return out


def lp_large(size: int) -> list[tuple[str, str]]:
    out = [
        ("petersen", dimacs(10, petersen_edges())),
        ("torus_grid(5,5)", dimacs(25, torus_edges(5, 5))),
        ("torus_grid(5,7)", dimacs(35, torus_edges(5, 7))),
        ("gnp(30,0.3,1)", dimacs(30, gnp_edges(30, 0.3, random.Random(1)))),
    ]
    return out[:size]


# Instances per corpus. On a 2-vCPU x86_64 virtual machine with Python 3.11 a
# pass takes about 10 s on sweep-small and 12 s on trianglefree-mid, so a
# 30 s run makes two or three passes; lp-large is one pass of about 27 s.
# Fewer instances would leave gaps between the per-instance times around the
# median and the tail percentile, so that those metrics jump between runs.
CORPUS = {
    "sweep-small": (sweep_small, 300),
    "trianglefree-mid": (trianglefree_mid, 60),
    "lp-large": (lp_large, 4),
}


def build(workload: str) -> list[tuple[str, str]]:
    """The corpus of ``workload`` in canonical order: a list of (name, DIMACS)."""
    if workload not in CORPUS:
        raise ValueError(f"unknown workload {workload!r}; choices: {', '.join(WORKLOADS)}")
    maker, size = CORPUS[workload]
    return maker(size)


def submission_order(count: int, seed: int) -> list[int]:
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return order


def inputs_sha256(corpus: list[tuple[str, str]]) -> str:
    digest = hashlib.sha256()
    for name, text in corpus:
        digest.update(name.encode() + b"\n" + text.encode() + b"\0")
    return digest.hexdigest()
