"""Reduction pipeline: repeatedly solve the odd-cycle relaxation and shrink
the graph until the {0,1}-reduction consumes everything.

Each iteration k solves the relaxation on G_k, applies the {0,1}-reduction,
and then at most one structural reduction: the first kind in the mode's
STEP_ORDER that has a candidate. Enhanced mode first sweeps for an
alternate optimum with an active edge (pinning each edge inequality to
equality) when the optimum has neither a unit value nor an active edge. If
that sweep fails, the iteration skips the {0,1}-reduction and may fall
through to the random-edge step, which removes both endpoints of a chosen
edge, so enhanced mode always makes progress.

When no step fires, an iteration whose {0,1}-reduction removed a vertex
re-solves on the smaller graph. Otherwise base mode stops with the
hypothesis-failed flag, enhanced mode raises PipelineError, and a run past
a failed sweep ends on its isolated vertices.

The trace keeps one record per iteration k = 1..L. Each stores what the
backtracking step needs (value-1 set, triangle, removed or rewired pair, and
the active pair's neighbor set) plus the guaranteed objective decrease d_k
for the value ledger; the last record, of kind KIND_TERMINAL, is the
iteration that ends the run. Every record, the terminal one included, also
states what its iteration did: whether the {0,1}-reduction ran, whether the
solution is an alternate optimum, the odd-cycle cuts solve_elp pooled and
the pins the sweep tried. A report's diagnostics are sums over these.
"""

from __future__ import annotations

import logging
import random
from typing import NamedTuple, Optional

from ._rat import FOUR_THIRDS, ONE, ZERO, Rat
from .elp import ElpSolution, explore_alternate_bfs, solve_elp
from .graph import Graph, OddCycle

log = logging.getLogger("elpcover.reductions")

KIND_ZERO_ONE = "zeroOne"
KIND_THREE_CYCLE = "threeCycle"
KIND_ACTIVE = "activeEdge"
KIND_OVER_ACTIVE = "overActiveEdge"
KIND_RANDOM = "randomEdge"
KIND_TERMINAL = "terminal"  # the last iteration: no step follows it

# Guaranteed objective drop on top of |I_{k,1}|, per reduction kind. The
# random-edge drop of 1 holds strictly (the chosen edge sum exceeds 1).
DROP_TABLE = {
    KIND_ZERO_ONE: ZERO,
    KIND_THREE_CYCLE: Rat(2),
    KIND_ACTIVE: ONE,
    KIND_OVER_ACTIVE: FOUR_THIRDS,
    KIND_RANDOM: ONE,
}

# Structural reductions per mode, tried in this order after the {0,1} step.
STEP_ORDER = {
    "base": (KIND_THREE_CYCLE, KIND_ACTIVE, KIND_OVER_ACTIVE),
    "enhanced": (KIND_ACTIVE, KIND_THREE_CYCLE, KIND_OVER_ACTIVE, KIND_RANDOM),
}


class PipelineError(RuntimeError):
    """Internal invariant broken (no progress, bad precondition)."""


class ReductionRecord(NamedTuple):
    index: int  # iteration k, 1-based
    kind: str
    f: object  # relaxation value f^k on G_k
    i0: frozenset[int]
    i1: frozenset[int]
    zero_one_applied: bool = True
    triangle: Optional[OddCycle] = None
    pair: Optional[tuple[int, int]] = None  # active, over-active or random edge
    d_i: Optional[frozenset[int]] = None  # active pair (i, j): i's other neighbors
    alternate_used: bool = False
    cuts: int = 0  # odd-cycle cuts pooled by solve_elp on G_k
    pins: int = 0  # pins the alternate-optimum sweep tried

    @property
    def d_k(self):
        return DROP_TABLE[self.kind] + (len(self.i1) if self.zero_one_applied else 0)


class ReductionTrace:
    """A pipeline run: one record per iteration k = 1..L, in order. The
    last record, of kind KIND_TERMINAL, is the iteration that ended the
    run; with hypothesis_failed set, it is where base mode stopped. The
    records are the whole account of the run: a report's diagnostics are
    read off them."""

    __slots__ = ("mode", "records", "hypothesis_failed")

    def __init__(self, mode: str):
        self.mode = mode
        self.records: list[ReductionRecord] = []
        self.hypothesis_failed = False

    @property
    def L(self) -> int:
        return len(self.records)

    @property
    def f1(self):
        """Relaxation value on the original graph."""
        return self.records[0].f


def zero_one_sets(x: dict) -> tuple[frozenset[int], frozenset[int]]:
    i0 = frozenset(v for v, val in x.items() if val == 0)
    i1 = frozenset(v for v, val in x.items() if val == 1)
    return i0, i1


def step(g: Graph, kind: str, chosen) -> tuple[Graph, dict]:
    """Apply the structural reduction `kind` to g at its candidate
    `chosen`: a triangle for the 3-cycle step and an edge otherwise.
    Returns G_{k+1} and the record fields that backtracking needs.

    An active edge (i, j) is rewired; it must have no triangle through it
    (after a {0,1}-reduction a triangle would have forced the third vertex
    to value 1, so hitting one here is an internal bug). Every other step
    deletes the candidate's vertices.
    """
    if kind == KIND_THREE_CYCLE:
        return g.delete_vertices(chosen.vertex_set), {"triangle": chosen}
    if kind == KIND_ACTIVE:
        i, j = chosen
        if g.has_triangle_through(i, j):
            raise PipelineError(f"triangle through active edge ({i},{j})")
        reduced, d_i = g.rewire_active_edge(i, j)
        return reduced, {"pair": chosen, "d_i": d_i}
    return g.delete_vertices(chosen), {"pair": chosen}


def choose_edge(g: Graph, x: dict, rule: str, rng: Optional[random.Random]) -> tuple[int, int]:
    """The random-edge step's edge: the largest x_u + x_v with ties to the
    lexicographically smallest edge ("maxsum"), or a seeded uniform choice
    ("random")."""
    edges = g.edge_list()
    if not edges:
        raise PipelineError("random-edge step on an edgeless graph")
    if rule == "maxsum":
        return max(edges, key=lambda e: (x[e[0]] + x[e[1]], (-e[0], -e[1])))
    return rng.choice(edges)


def _candidate(kind: str, g: Graph, sol: ElpSolution, swept: bool, edge_rule, rng):
    """The first candidate of `kind` on g, the graph left by the {0,1} step
    (or G_k itself after a failed sweep), or None. sol's (over-)active edges
    that g keeps are exactly those of g under sol.x: deleting vertices keeps
    the order and the values of the remaining edges. The random-edge step
    applies only after a failed sweep."""
    if kind == KIND_THREE_CYCLE:
        return g.find_triangle()
    if kind == KIND_RANDOM:
        return choose_edge(g, sol.x, edge_rule, rng) if swept and g.m else None
    edges = sol.active_edges if kind == KIND_ACTIVE else sol.over_active_edges
    return next((e for e in edges if g.has_edge(*e)), None)


def run_pipeline(
    g: Graph, mode: str = "enhanced", edge_rule: str = "maxsum", seed: int = 0
) -> ReductionTrace:
    """Run the reduction loop on g in `mode` ("base" or "enhanced") and
    return its trace. The random-edge step picks its edge by `edge_rule`:
    "maxsum", or "random", drawn from a generator seeded with `seed`.

    The trace holds one record per iteration, the last of kind
    KIND_TERMINAL. In base mode the run may instead end with
    hypothesis_failed set (no cover can be reconstructed from such a trace).
    """
    if mode not in STEP_ORDER:
        raise ValueError(f"unknown mode {mode!r}")
    if edge_rule not in ("maxsum", "random"):
        raise ValueError(f"unknown edge rule {edge_rule!r}")
    # Only the "random" rule draws; the generator costs more than a small solve's glue.
    rng = random.Random(seed) if edge_rule == "random" else None
    trace = ReductionTrace(mode)
    current = g
    while current is not None:
        k = trace.L + 1
        if k > g.n + 1:
            raise PipelineError("iteration count exceeded |V|+1; no progress")
        record, current = _iteration(current, solve_elp(current), k, edge_rule, rng, trace)
        trace.records.append(record)
    return trace


def _iteration(current, sol, k, edge_rule, rng, trace) -> tuple[ReductionRecord, Optional[Graph]]:
    """One iteration on G_k = current: its record and G_{k+1}, or None in
    place of G_{k+1} when the run ends here."""
    mode = trace.mode
    i0, i1 = zero_one_sets(sol.x)
    cuts, pins = len(sol.cycle_pool), 0
    alternate_used = swept = False
    if mode == "enhanced" and not i1 and not sol.active_edges:
        alt, pins = explore_alternate_bfs(current, sol)
        if alt is not None:
            sol, alternate_used = alt, True
            i0, i1 = zero_one_sets(sol.x)
        else:
            # Literal T=0 branch: continue at the 3-cycle step, skipping the
            # {0,1}-reduction even when I_{k,0} is nonempty.
            swept = True
            if i0:
                log.info(
                    "iteration %d: alternate sweep failed; skipping {0,1} with "
                    "nonempty I(k,0) per the literal step order", k,
                )
    record = dict(
        index=k, f=sol.objective, i0=i0, i1=i1, zero_one_applied=not swept,
        alternate_used=alternate_used, cuts=cuts, pins=pins,
    )
    end = ReductionRecord(kind=KIND_TERMINAL, **record), None
    if swept:
        reduced = current
    else:
        reduced = current.delete_vertices(i0 | i1)
        if reduced.n == 0:
            return end
    for kind in STEP_ORDER[mode]:
        chosen = _candidate(kind, reduced, sol, swept, edge_rule, rng)
        if chosen is not None:
            nxt, fields = step(reduced, kind, chosen)
            return ReductionRecord(kind=kind, **record, **fields), nxt
    if swept:
        # "Choose any edge" is undefined; isolated vertices need no cover.
        return end
    if i0 or i1:
        # The restricted values are optimal for the reduced graph too (at an
        # optimum N(I0) lies in I1, so a cheaper point of it would lift to
        # G_k), but a re-solve may return another vertex of its optimal
        # face, one with an active edge or a unit value; so re-solve.
        return ReductionRecord(kind=KIND_ZERO_ONE, **record), reduced
    if mode == "enhanced":
        raise PipelineError("enhanced iteration made no progress")
    trace.hypothesis_failed = True
    log.info("active edge hypothesis failed at iteration %d (n=%d)", k, current.n)
    return end
