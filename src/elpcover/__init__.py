"""Vertex cover via an odd-cycle-strengthened LP relaxation.

Exact rational solver stack: graph surgery, dual simplex over rationals,
cutting-plane relaxation engine, reduction pipeline with backtracking cover
construction, additive-error certificates, and desk-scale exact oracles.
"""

from ._rat import Rat, rat_str
from .cover import (
    BoundCertificate,
    Cover,
    HypothesisFailedError,
    backtrack,
    certify,
    validate_cover,
)
from .elp import (
    CapExceededError,
    ElpSolution,
    classify_edges,
    explore_alternate_bfs,
    separate_odd_cycle,
    solve_elp,
)
from .graph import Graph, GraphFormatError, OddCycle, generate, parse_graph, to_dimacs
from .oracles import (
    OracleResult,
    exact_vc,
    matching_2approx,
    nt_half_integral_round,
)
from .reductions import ReductionRecord, ReductionTrace, run_pipeline
from .simplex import CoveringSimplex, InfeasibleError

__version__ = "0.1.0"
