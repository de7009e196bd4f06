import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elpcover._rat import Rat
from elpcover.cover import (
    GuaranteeViolation,
    HypothesisFailedError,
    backtrack,
    certify,
    validate_cover,
)
from elpcover.graph import Graph, complete_graph, cycle_graph, path_graph
from elpcover.oracles import exact_vc
from elpcover.reductions import (
    KIND_ACTIVE,
    KIND_OVER_ACTIVE,
    KIND_RANDOM,
    KIND_TERMINAL,
    KIND_THREE_CYCLE,
    ReductionRecord,
    ReductionTrace,
    run_pipeline,
)
from elpcover.runner import _oracle_block
from exact_oracles import (
    backtrack_sizes,
    growth_cap,
    random_connected_gnp,
    reference_certify,
    reference_oracle_block,
    trace_of,
)


def active_record(k, pair, d_i, i1=frozenset(), f=Rat(0)):
    return ReductionRecord(
        index=k,
        kind=KIND_ACTIVE,
        f=f,
        i0=frozenset(),
        i1=i1,
        pair=pair,
        d_i=frozenset(d_i),
    )


def terminal_record(k, i1):
    """The last iteration of a synthetic trace; its value-1 set is S_L."""
    i1 = frozenset(i1)
    return ReductionRecord(index=k, kind=KIND_TERMINAL, f=Rat(len(i1)), i0=frozenset(), i1=i1)


def test_backtrack_p5_active_edge_both_branches():
    # P5 reduced along (2,3): D_2 = {1}; residual graph has edges (1,4),(4,5).
    # Residual cover {1,4}: D_2 is covered, add j=3 -> {1,3,4}.
    trace = ReductionTrace(mode="enhanced")
    trace.records = [active_record(1, (2, 3), {1}), terminal_record(2, {1, 4})]
    assert backtrack(trace) == frozenset({1, 3, 4})

    # Residual cover {4}: D_2 not covered, add i=2 -> {2,4}, the optimum.
    trace.records[-1] = terminal_record(2, {4})
    cover = backtrack(trace)
    assert cover == frozenset({2, 4})
    ok, _ = validate_cover(path_graph(5), cover)
    assert ok
    assert exact_vc(path_graph(5)).opt_size == 2 == len(cover)


def test_backtrack_pendant_active_edge_adds_j():
    # D_i empty (pendant i): vacuously covered, so j joins the cover.
    trace = ReductionTrace(mode="enhanced")
    trace.records = [active_record(1, (1, 2), set()), terminal_record(2, ())]
    assert backtrack(trace) == frozenset({2})


def test_backtrack_k3_terminal_only():
    trace = run_pipeline(complete_graph(3))
    assert [rec.kind for rec in trace.records] == [KIND_TERMINAL]
    assert backtrack(trace) == trace.records[-1].i1
    assert len(backtrack(trace)) == 2


def test_backtrack_empty_graph():
    trace = run_pipeline(Graph.from_edges())
    assert backtrack(trace) == frozenset()


def test_backtrack_hypothesis_failure_raises():
    trace = ReductionTrace(mode="base")
    trace.hypothesis_failed = True
    with pytest.raises(HypothesisFailedError):
        backtrack(trace)


def test_backtrack_membership_test_uses_prior_cover():
    # The D-subset test runs against S_{k+1} (cover of the reduced graph),
    # before this record's own value-1 vertices join.
    trace = ReductionTrace(mode="enhanced")
    trace.records = [active_record(1, (2, 3), {9}, i1=frozenset({9})), terminal_record(2, {4})]
    # 9 is in I_{1,1} but not in S_2 = {4}; D_2 = {9} is NOT covered yet.
    assert backtrack(trace) == frozenset({2, 4, 9})


def test_validate_cover():
    k3 = complete_graph(3)
    assert validate_cover(k3, {1, 2}) == (True, [])
    ok, uncovered = validate_cover(k3, {1})
    assert not ok and uncovered == [(2, 3)]
    ok, uncovered = validate_cover(cycle_graph(5), {1, 3})
    assert not ok and (4, 5) in uncovered


def test_certify_gamma_zero():
    trace = run_pipeline(cycle_graph(5))
    cover = backtrack(trace)
    cert = certify(trace, cover)
    assert cert.gamma == 0 and cert.alpha == 0 and cert.xi == 0
    assert cert.guarantee_rhs == Rat(3, 2) * trace.f1


def random_record(k):
    return ReductionRecord(
        index=k,
        kind=KIND_RANDOM,
        f=Rat(0),
        i0=frozenset(),
        i1=frozenset(),
        pair=(2 * k, 2 * k + 1),
    )


def test_certify_formula_two_random_reductions():
    # gamma=2, delta=sigma=0, f1=15, beta >= 2 -> alpha=0, lambda=2, xi=0.
    trace = ReductionTrace(mode="enhanced")
    # beta = 15 >= 2
    trace.records = [
        random_record(1)._replace(f=Rat(15)),
        random_record(2),
        terminal_record(3, range(100, 115)),
    ]
    cert = certify(trace, frozenset(range(40)))
    assert cert.gamma == 2 and cert.alpha == 0
    assert cert.lam == 2 and cert.xi == 0


def test_certify_formula_synthetic_counters():
    # gamma=5, beta=1, delta=sigma=0, f1=4 -> alpha=4, lambda=5, xi=min(2,3)=2.
    trace = ReductionTrace(mode="enhanced")
    # i1_total = 1, eta = 0 -> beta = 1
    trace.records = (
        [random_record(1)._replace(f=Rat(4))]
        + [random_record(k) for k in range(2, 6)]
        + [terminal_record(6, {77})]
    )
    cert = certify(trace, frozenset(range(9)))
    assert cert.alpha == 4
    assert cert.lam == 5
    assert cert.xi == 2
    assert cert.guarantee_rhs == Rat(3, 2) * 4 + 2


def test_certify_xi_zero_whenever_gamma_zero():
    rng = random.Random(50)
    for _ in range(40):
        g = random_connected_gnp(rng.randint(3, 9), rng.uniform(0.3, 0.8), rng)
        trace = run_pipeline(g)
        cover = backtrack(trace)
        cert = certify(trace, cover)
        if cert.gamma == 0:
            assert cert.xi == 0
        assert cert.xi >= 0


def test_certify_guarantee_violation_detected():
    trace = trace_of("enhanced", [terminal_record(1, ())._replace(f=Rat(2))])
    with pytest.raises(GuaranteeViolation):
        certify(trace, frozenset(range(10)))  # |S1|=10 > 3 with gamma=0


def test_certify_rejects_nonzero_xi_without_random_edges(monkeypatch):
    # gamma=0 forces alpha=0 and so xi=0; a broken xi formula must still be
    # caught by an explicit raise, which survives python -O. _xi_units
    # returns 6q xi for f1 = p/q, so 3 makes xi = 1/(2q).
    from elpcover import cover as cover_module

    monkeypatch.setattr(cover_module, "_xi_units", lambda *args: 3)
    trace = run_pipeline(cycle_graph(5))
    with pytest.raises(GuaranteeViolation, match="gamma=0"):
        certify(trace, backtrack(trace))


def test_backtrack_growth_ledger():
    rng = random.Random(60)
    for _ in range(80):
        g = random_connected_gnp(rng.randint(3, 10), rng.uniform(0.25, 0.8), rng)
        trace = run_pipeline(g)
        # sizes[k - 1] = |S_k|; record k's growth is from S_{k+1} to S_k
        sizes = backtrack_sizes(trace)
        assert sizes[0] == len(backtrack(trace))
        assert sizes[-1] == len(trace.records[-1].i1)
        for rec, before, after in zip(trace.records, sizes[1:], sizes):
            assert after - before <= growth_cap(rec)


def test_end_to_end_guarantees_small():
    rng = random.Random(70)
    for _ in range(60):
        g = random_connected_gnp(rng.randint(3, 10), rng.uniform(0.25, 0.8), rng)
        trace = run_pipeline(g)
        cover = backtrack(trace)
        ok, _ = validate_cover(g, cover)
        assert ok
        cert = certify(trace, cover)
        opt = exact_vc(g).opt_size
        assert Rat(len(cover)) <= Rat(3, 2) * opt + cert.xi
        assert Rat(len(cover)) <= opt + cert.lam


@st.composite
def synthetic_traces(draw):
    """Traces of any step kinds, value-1 sets and f1 = p/q; certify reads
    only these. Value-1 sets are mostly empty, so that alpha > 0 is common."""
    steps = draw(st.lists(st.sampled_from([KIND_ACTIVE, KIND_RANDOM, KIND_THREE_CYCLE, KIND_OVER_ACTIVE]), max_size=10))
    value_one_sets = st.just(frozenset()) | st.frozensets(st.integers(0, 12), max_size=3)
    records = [
        ReductionRecord(index=k, kind=kind, f=Rat(0), i0=frozenset(), i1=draw(value_one_sets))
        for k, kind in enumerate([*steps, KIND_TERMINAL], 1)
    ]
    f1 = Rat(draw(st.integers(0, 40)), draw(st.integers(1, 6)))
    records[0] = records[0]._replace(f=f1)
    return trace_of(draw(st.sampled_from(["enhanced", "base"])), records)


# gamma = 5 and beta = 0, so alpha/2 = 5/2 > lambda - f1/2 = 5 - 7/2: xi = 3/2.
XI_FROM_LAMBDA = trace_of(
    "enhanced",
    [random_record(1)._replace(f=Rat(7)), *map(random_record, range(2, 6)), terminal_record(6, ())],
)


@settings(max_examples=300, deadline=None)
@given(synthetic_traces(), st.integers(0, 40), st.integers(0, 40))
@example(XI_FROM_LAMBDA, 11, 8)
def test_certificate_and_oracle_flags_match_the_fraction_formulas(trace, size, opt):
    cover = frozenset(range(size))
    try:
        expected = reference_certify(trace, cover)
    except GuaranteeViolation as exc:
        with pytest.raises(GuaranteeViolation) as raised:
            certify(trace, cover)
        assert str(raised.value) == str(exc)
        return
    cert = certify(trace, cover)
    assert cert == expected
    for field in ("f1", "lam", "xi", "guarantee_rhs"):
        assert type(getattr(cert, field)) is Rat, field
    assert cert.as_dict() == expected.as_dict()
    assert _oracle_block(size, opt, cert) == reference_oracle_block(size, opt, expected)
