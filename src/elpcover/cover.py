"""Cover reconstruction by backtracking over a reduction trace, cover
validation, and the additive-error certificate.

Backtracking walks the records last to first, from the terminal iteration
L down to 1, starting from the empty set. Each record adds: its own value-1
set, all three triangle vertices, both endpoints of an over-active or random
pair, and for an active pair exactly one endpoint - j when the recorded
neighbor set D_i is already covered by the cover built so far, i otherwise.

The certificate aggregates the step counters into
    beta  = |union of value-1 sets| + #active,
    alpha = max(0, #random - beta),
    lambda = #random + #3-cycle + (2/3) #over-active,
    xi    = min(alpha/2, max(0, lambda - f1/2)),
where f1 is the relaxation value on the original graph. xi = 0 certifies a
3/2-approximation; lambda bounds the additive gap to the optimum.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from ._rat import Rat, rat_str
from .graph import Graph
from .reductions import (
    KIND_ACTIVE,
    KIND_OVER_ACTIVE,
    KIND_RANDOM,
    KIND_THREE_CYCLE,
    ReductionTrace,
)

Cover = frozenset


class HypothesisFailedError(RuntimeError):
    """Base-mode trace ended with the hypothesis-failed flag; no cover exists.

    Re-run in enhanced mode to always obtain a cover."""


class GuaranteeViolation(AssertionError):
    """A provable bound was violated; indicates an implementation bug."""


def backtrack(trace: ReductionTrace) -> Cover:
    """Reconstruct the cover of the original graph from the trace."""
    if trace.hypothesis_failed:
        raise HypothesisFailedError(
            f"run stopped at iteration {trace.L} without a cover"
        )
    cover: set[int] = set()
    for rec in reversed(trace.records):
        previous = frozenset(cover)  # S_{k+1}, the cover of G_{k+1}
        cover |= rec.i1
        if rec.kind == KIND_THREE_CYCLE:
            cover |= rec.triangle.vertex_set
        elif rec.kind == KIND_ACTIVE:
            i, j = rec.pair
            if rec.d_i is None:
                raise ValueError(f"record {rec.index} lacks its neighbor set")
            cover.add(j if rec.d_i <= previous else i)
        elif rec.kind in (KIND_OVER_ACTIVE, KIND_RANDOM):
            cover.update(rec.pair)
    return frozenset(cover)


def validate_cover(g: Graph, cover: Iterable[int]) -> tuple[bool, list[tuple[int, int]]]:
    """True plus [] when every edge has an endpoint in the cover; otherwise
    False plus the uncovered edges."""
    members = set(cover)
    uncovered = [(u, v) for u, v in g.edges() if u not in members and v not in members]
    return not uncovered, uncovered


class BoundCertificate(NamedTuple):
    f1: object
    cover_size: int
    eta: int  # active-edge reductions
    gamma: int  # random-edge reductions
    delta: int  # 3-cycle reductions
    sigma: int  # over-active reductions
    i1_total: int
    beta: int
    alpha: int
    lam: object
    xi: object
    guarantee_rhs: object  # (3/2) f1 + xi, an upper bound proxy via f1 <= |S*|
    mode: str
    hypothesis_failed: bool

    def as_dict(self) -> dict:
        return {
            "f1": rat_str(self.f1),
            "coverSize": self.cover_size,
            "eta": self.eta,
            "gamma": self.gamma,
            "delta": self.delta,
            "sigma": self.sigma,
            "i1Total": self.i1_total,
            "beta": self.beta,
            "alpha": self.alpha,
            "lambda": rat_str(self.lam),
            "xi": rat_str(self.xi),
            "guaranteeRHS": rat_str(self.guarantee_rhs),
            "mode": self.mode,
            "hypothesisFailed": self.hypothesis_failed,
        }


def certify(trace: ReductionTrace, cover: Cover) -> BoundCertificate:
    """Compute the certificate for a validated cover backtracked from trace;
    f1 is trace.f1.

    Raises GuaranteeViolation when a run without random-edge reductions
    breaks |S1| <= (3/2) f1 or gets a nonzero xi, both provably impossible.
    The bounds are computed and compared exactly, in ints over the common
    denominator 6q of f1 = p/q, lambda and xi."""
    kinds = [rec.kind for rec in trace.records]
    eta = kinds.count(KIND_ACTIVE)
    gamma = kinds.count(KIND_RANDOM)
    delta = kinds.count(KIND_THREE_CYCLE)
    sigma = kinds.count(KIND_OVER_ACTIVE)
    i1_union = set().union(*(rec.i1 for rec in trace.records))
    beta = len(i1_union) + eta
    alpha = max(0, gamma - beta)
    lam3 = 3 * (gamma + delta) + 2 * sigma  # 3 lambda
    f1 = trace.f1
    p, q = f1.numerator, f1.denominator
    xi6q = _xi_units(alpha, lam3, p, q)
    if gamma == 0 and 2 * q * len(cover) > 3 * p:
        raise GuaranteeViolation(
            f"|S1|={len(cover)} exceeds (3/2) f1 = {Rat(3 * p, 2 * q)} with gamma=0"
        )
    if gamma == 0 and xi6q != 0:
        raise GuaranteeViolation(f"xi={Rat(xi6q, 6 * q)} is nonzero with gamma=0")
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
        lam=Rat(lam3, 3),
        xi=Rat(xi6q, 6 * q),
        guarantee_rhs=Rat(9 * p + xi6q, 6 * q),
        mode=trace.mode,
        hypothesis_failed=trace.hypothesis_failed,
    )


def _xi_units(alpha: int, lam3: int, p: int, q: int) -> int:
    """6q xi, for lambda = lam3 / 3 and f1 = p / q:
    xi = min(alpha/2, max(0, lambda - f1/2))."""
    return min(3 * q * alpha, max(0, 2 * q * lam3 - 3 * p))
