"""runner.dump_json against the json call it replaces, byte for byte."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from elpcover import runner
from elpcover.graph import petersen_graph
from elpcover.runner import dump_json, hunt, solve_instance
from test_golden import GOLDEN_HUNTS, GOLDEN_VARIANTS, GRAPHS


def reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def outcome(write, payload):
    """write(payload), or the type of what it raised."""
    try:
        return write(payload)
    except (TypeError, ValueError) as exc:
        return type(exc)


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.text()
    | st.sampled_from(["", '"', "\\", "\n\t\x00", "é", " ", "\U0001f600", "p/q"])
)
keys = st.text() | st.sampled_from(["", "a", "A", "é", "\n"])
other_keys = st.integers() | st.booleans() | st.none() | st.floats(allow_nan=False)
payloads = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(st.integers(), max_size=6)
        | st.dictionaries(keys, children, max_size=5)
        | st.dictionaries(other_keys, children, max_size=3)
        | st.dictionaries(keys | other_keys, children, max_size=3)
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_dump_json_matches_json_dumps(payload):
    assert outcome(dump_json, payload) == outcome(reference, payload)


def test_dump_json_matches_on_empty_containers_and_tuples():
    for payload in ({}, [], {"a": {}, "b": [], "c": [[]]}, {"t": (1, "x")}, [{}], {"f": 1.5}):
        assert dump_json(payload) == reference(payload)


def test_dump_json_matches_on_every_golden_report():
    for name, g in GRAPHS.items():
        report = solve_instance(g, name, "golden", seed=0)
        assert dump_json(report) == reference(report), name
    for name, mode, edge_rule in GOLDEN_VARIANTS:
        report = solve_instance(GRAPHS[name], name, "golden", mode=mode, seed=0, edge_rule=edge_rule)
        assert dump_json(report) == reference(report), (name, mode, edge_rule)


def test_dump_json_writes_golden_reports_without_json_dumps(monkeypatch):
    # Each json.dumps call builds a pure-Python encoder whose closures the
    # cyclic collector must free; a report with no float and no key that is
    # not a str needs none, empty lists and dicts included.
    reports = [solve_instance(g, name, "golden", seed=0) for name, g in GRAPHS.items()]
    reports += [
        solve_instance(GRAPHS[name], name, "golden", mode=mode, seed=0, edge_rule=edge_rule)
        for name, mode, edge_rule in GOLDEN_VARIANTS
    ]
    expected = [reference(report) for report in reports]

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(runner.json, "dumps", refuse)
    assert [dump_json(report) for report in reports] == expected


def test_dump_json_matches_on_hunt_summaries():
    for gen, n_range, _, seed in GOLDEN_HUNTS:
        summary, _ = hunt(gen=gen, n_range=n_range, trials=6, seed=seed)
        assert dump_json(summary) == reference(summary), gen


def test_dump_json_matches_on_a_timings_report():
    report = solve_instance(petersen_graph(), "petersen", "test", timings=True)
    assert isinstance(report["timings"]["totalSeconds"], float)
    assert dump_json(report) == reference(report)
