"""Reduction pipeline: repeatedly solve the odd-cycle relaxation and shrink
the graph until the {0,1}-reduction consumes everything.

Each iteration k solves the relaxation on G_k and then applies, in mode
order, at most one structural reduction:

  base mode:     {0,1} -> 3-cycle -> active edge -> over-active edge
  enhanced mode: alternate-optimum search -> {0,1} -> active edge -> 3-cycle
                 -> over-active edge -> random edge

In base mode, a graph whose optimum has no unit values, no triangle, and no
(over-)active edge stops the run with the hypothesis-failed flag. Enhanced
mode first sweeps for an alternate optimum with an active edge (pinning each
edge inequality to equality) and otherwise removes both endpoints of a chosen
edge, so it always makes progress.

Every record stores what the backtracking step needs (value-1 set, triangle,
active pair with its neighbor set, deleted pairs) plus the guaranteed
objective decrease d_k for the value ledger.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Optional

from ._rat import FOUR_THIRDS, ONE, ZERO, Rat
from .elp import ElpSolution, classify_edges, explore_alternate_bfs, solve_elp
from .graph import Graph, OddCycle

log = logging.getLogger("elpcover.reductions")

KIND_ZERO_ONE = "zeroOne"
KIND_THREE_CYCLE = "threeCycle"
KIND_ACTIVE = "activeEdge"
KIND_OVER_ACTIVE = "overActiveEdge"
KIND_RANDOM = "randomEdge"

# Guaranteed objective drop on top of |I_{k,1}|, per reduction kind. The
# random-edge drop of 1 holds strictly (the chosen edge sum exceeds 1).
DROP_TABLE = {
    KIND_ZERO_ONE: ZERO,
    KIND_THREE_CYCLE: Rat(2),
    KIND_ACTIVE: ONE,
    KIND_OVER_ACTIVE: FOUR_THIRDS,
    KIND_RANDOM: ONE,
}

# Backtracking adds at most this many vertices on top of |I_{k,1}|.
GROWTH_TABLE = {
    KIND_ZERO_ONE: 0,
    KIND_THREE_CYCLE: 3,
    KIND_ACTIVE: 1,
    KIND_OVER_ACTIVE: 2,
    KIND_RANDOM: 2,
}


class PipelineError(RuntimeError):
    """Internal invariant broken (no progress, bad precondition)."""


@dataclass
class PipelineConfig:
    mode: str = "enhanced"  # "base" or "enhanced"
    edge_rule: str = "maxsum"  # random-edge selection: "maxsum" or "random"
    seed: int = 0
    pin_cap: Optional[int] = None  # alternate-optimum sweep budget (None = all edges)

    def __post_init__(self):
        if self.mode not in ("base", "enhanced"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.edge_rule not in ("maxsum", "random"):
            raise ValueError(f"unknown edge rule {self.edge_rule!r}")


@dataclass
class ReductionRecord:
    index: int  # iteration k, 1-based
    kind: str
    f: object  # relaxation value f^k on G_k
    x: dict  # solution on G_k (after an alternate-optimum swap, if any)
    i0: frozenset[int]
    i1: frozenset[int]
    zero_one_applied: bool = True
    triangle: Optional[OddCycle] = None
    active_pair: Optional[tuple[int, int]] = None
    d_i: Optional[frozenset[int]] = None
    d_j: Optional[frozenset[int]] = None
    over_pair: Optional[tuple[int, int]] = None
    random_pair: Optional[tuple[int, int]] = None
    alternate_used: bool = False

    @property
    def d_k(self):
        return Rat(len(self.i1) if self.zero_one_applied else 0) + DROP_TABLE[self.kind]

    @property
    def strict_drop(self) -> bool:
        return self.kind == KIND_RANDOM

    @property
    def growth_cap(self) -> int:
        applied = len(self.i1) if self.zero_one_applied else 0
        return applied + GROWTH_TABLE[self.kind]


@dataclass
class ReductionTrace:
    mode: str
    records: list[ReductionRecord] = field(default_factory=list)
    L: int = 0
    final_i1: frozenset[int] = frozenset()
    final_i0: frozenset[int] = frozenset()
    final_f: object = ZERO
    final_x: dict = field(default_factory=dict)
    hypothesis_failed: bool = False
    diagnostics: dict = field(default_factory=dict)

    @property
    def f1(self):
        """Relaxation value on the original graph."""
        return self.records[0].f if self.records else self.final_f

    def kind_counts(self) -> dict[str, int]:
        counts = {k: 0 for k in DROP_TABLE}
        for rec in self.records:
            counts[rec.kind] += 1
        return counts


def zero_one_sets(x: dict) -> tuple[frozenset[int], frozenset[int]]:
    i0 = frozenset(v for v, val in x.items() if val == 0)
    i1 = frozenset(v for v, val in x.items() if val == 1)
    return i0, i1


def step_zero_one(g: Graph, x: dict):
    """Delete the 0- and 1-valued vertices; terminal when nothing is left."""
    i0, i1 = zero_one_sets(x)
    reduced = g.delete_vertices(i0 | i1)
    return reduced, i0, i1, reduced.n == 0


def step_three_cycle(g: Graph):
    triangle = g.find_triangle()
    if triangle is None:
        raise PipelineError("no triangle available")
    return g.delete_vertices(triangle.vertex_set), triangle


def step_active_edge(g: Graph, x: dict):
    """Rewire along the smallest active edge; requires no triangle through it
    (after a {0,1}-reduction a triangle would have forced the third vertex to
    value 1, so hitting one here is an internal bug)."""
    active, _, _ = classify_edges(g, x)
    if not active:
        raise PipelineError("no active edge available")
    i, j = active[0]
    if g.has_triangle_through(i, j):
        raise PipelineError(f"triangle through active edge ({i},{j})")
    reduced, d_i, d_j = g.rewire_active_edge(i, j)
    return reduced, (i, j), d_i, d_j


def step_over_active(g: Graph, x: dict):
    _, over, _ = classify_edges(g, x)
    if not over:
        raise PipelineError("no over-active edge available")
    i, j = over[0]
    return g.delete_vertices({i, j}), (i, j)


def step_random_edge(g: Graph, x: dict, rule: str, rng: random.Random):
    """Delete both endpoints of an edge chosen by the configured rule."""
    edges = g.edge_list()
    if not edges:
        raise PipelineError("random-edge step on an edgeless graph")
    if rule == "maxsum":
        edge = max(edges, key=lambda e: (Rat(x[e[0]]) + Rat(x[e[1]]), (-e[0], -e[1])))
    else:
        edge = rng.choice(edges)
    return g.delete_vertices(set(edge)), edge


def run_pipeline(
    g: Graph, mode: str = "enhanced", config: Optional[PipelineConfig] = None
) -> tuple[ReductionTrace, list[Graph]]:
    """Run the reduction loop on g; returns the trace and [G_1 .. G_L].

    The trace carries L-1 records plus the terminal iteration's data. In base
    mode the run may instead end with hypothesis_failed set (no cover can be
    reconstructed from such a trace).
    """
    cfg = config if config is not None else PipelineConfig(mode=mode)
    rng = random.Random(cfg.seed)
    trace = ReductionTrace(mode=cfg.mode)
    diag = trace.diagnostics
    diag.update(
        {
            "cut_rounds": 0,
            "pin_solves": 0,
            "alternate_hits": 0,
            "skipped_zero_one": [],
            "isolated_terminal": False,
        }
    )
    graphs = [g]
    k = 1
    while True:
        if k > g.n + 1:
            raise PipelineError("iteration count exceeded |V|+1; no progress")
        current = graphs[-1]
        sol = solve_elp(current)
        diag["cut_rounds"] += len(sol.rounds)
        if cfg.mode == "enhanced":
            done = _enhanced_iteration(current, sol, k, cfg, rng, trace, graphs, diag)
        else:
            done = _base_iteration(current, sol, k, trace, graphs, diag)
        if done:
            return trace, graphs
        k += 1


def _finish(trace: ReductionTrace, k: int, sol: ElpSolution, i0, i1) -> bool:
    trace.L = k
    trace.final_i0 = i0
    trace.final_i1 = i1
    trace.final_f = sol.objective
    trace.final_x = dict(sol.x)
    return True


def _base_iteration(current, sol, k, trace, graphs, diag) -> bool:
    x = sol.x
    reduced, i0, i1, terminal = step_zero_one(current, x)
    if terminal:
        return _finish(trace, k, sol, i0, i1)
    xr = {v: x[v] for v in reduced.vertices}
    base = dict(index=k, f=sol.objective, x=dict(x), i0=i0, i1=i1)
    if reduced.find_triangle() is not None:
        nxt, triangle = step_three_cycle(reduced)
        trace.records.append(
            ReductionRecord(kind=KIND_THREE_CYCLE, triangle=triangle, **base)
        )
        graphs.append(nxt)
        return False
    active, over, _ = classify_edges(reduced, xr)
    if not active and not over:
        if i0 or i1:
            # Progress was made; re-solve on the smaller graph.
            trace.records.append(ReductionRecord(kind=KIND_ZERO_ONE, **base))
            graphs.append(reduced)
            return False
        trace.hypothesis_failed = True
        trace.L = k
        trace.final_f = sol.objective
        trace.final_x = dict(sol.x)
        log.info("active edge hypothesis failed at iteration %d (n=%d)", k, current.n)
        return True
    if active:
        nxt, pair, d_i, d_j = step_active_edge(reduced, xr)
        trace.records.append(
            ReductionRecord(kind=KIND_ACTIVE, active_pair=pair, d_i=d_i, d_j=d_j, **base)
        )
        graphs.append(nxt)
        return False
    nxt, pair = step_over_active(reduced, xr)
    trace.records.append(ReductionRecord(kind=KIND_OVER_ACTIVE, over_pair=pair, **base))
    graphs.append(nxt)
    return False


def _enhanced_iteration(current, sol, k, cfg, rng, trace, graphs, diag) -> bool:
    x = sol.x
    i0, i1 = zero_one_sets(x)
    alternate_used = False
    apply_zero_one = True
    if not i1 and not sol.active_edges:
        alt, pins = explore_alternate_bfs(current, sol, pin_cap=cfg.pin_cap)
        diag["pin_solves"] += pins
        if alt is not None:
            diag["alternate_hits"] += 1
            sol = alt
            x = sol.x
            i0, i1 = zero_one_sets(x)  # recomputed from the swapped solution
            alternate_used = True
        else:
            # Literal T=0 branch: continue at the 3-cycle step, skipping the
            # {0,1}-reduction even when I_{k,0} is nonempty.
            apply_zero_one = False
            if i0 | i1:
                diag["skipped_zero_one"].append((k, sorted(i0 | i1)))
                log.info(
                    "iteration %d: alternate sweep failed; skipping {0,1} with "
                    "nonempty I(k,0) per the literal step order", k,
                )
    base = dict(
        index=k, f=sol.objective, x=dict(x), i0=i0, i1=i1,
        zero_one_applied=apply_zero_one, alternate_used=alternate_used,
    )
    if apply_zero_one:
        reduced, i0, i1, terminal = step_zero_one(current, x)
        if terminal:
            return _finish(trace, k, sol, i0, i1)
        xr = {v: x[v] for v in reduced.vertices}
        active, over, _ = classify_edges(reduced, xr)
        if active:
            nxt, pair, d_i, d_j = step_active_edge(reduced, xr)
            trace.records.append(
                ReductionRecord(
                    kind=KIND_ACTIVE, active_pair=pair, d_i=d_i, d_j=d_j, **base
                )
            )
            graphs.append(nxt)
            return False
    else:
        reduced = current
        xr = x
        _, over, _ = classify_edges(reduced, xr)  # no active edge by construction
    if reduced.find_triangle() is not None:
        nxt, triangle = step_three_cycle(reduced)
        trace.records.append(
            ReductionRecord(kind=KIND_THREE_CYCLE, triangle=triangle, **base)
        )
        graphs.append(nxt)
        return False
    if over:
        nxt, pair = step_over_active(reduced, xr)
        trace.records.append(
            ReductionRecord(kind=KIND_OVER_ACTIVE, over_pair=pair, **base)
        )
        graphs.append(nxt)
        return False
    hypothesis_known_failed = not apply_zero_one  # came through the failed sweep
    if hypothesis_known_failed:
        if reduced.m == 0:
            # "Choose any edge" is undefined; isolated vertices need no cover.
            diag["isolated_terminal"] = True
            return _finish(trace, k, sol, i0, i1)
        nxt, pair = step_random_edge(reduced, xr, cfg.edge_rule, rng)
        trace.records.append(
            ReductionRecord(kind=KIND_RANDOM, random_pair=pair, **base)
        )
        graphs.append(nxt)
        return False
    # A {0,1}-reduction happened but nothing else fired. The restricted values
    # are not an optimal solution of the reduced graph, so hypothesis failure
    # cannot be affirmed; re-solve on the smaller graph instead.
    if not (i0 or i1):
        raise PipelineError("enhanced iteration made no progress")
    trace.records.append(ReductionRecord(kind=KIND_ZERO_ONE, **base))
    graphs.append(reduced)
    return False
