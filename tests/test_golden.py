"""Golden report digests: `vc solve` reports that must not move silently.

Each digest is the sha256 of `runner.dump_json(solve_instance(...))` with
seed 0 and the exact-oracle check. GOLDEN pins enhanced mode with edge rule
maxsum; they were recorded before the compact-tableau simplex replaced the
dict tableau, so any engine or pipeline change that alters a cover, a cycle
pool, a value or a diagnostic on these instances fails here. GOLDEN_VARIANTS
pins base mode (a cover, 3-cycle and active-edge steps, a hypothesis
failure, and a {0,1}-only step before one) and the seeded random edge
rule. A change that moves a report on purpose updates the digest and says
so in CHANGES.md.
"""

import hashlib
import random

import pytest

from elpcover.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    petersen_graph,
    random_triangle_free_graph,
    torus_grid_graph,
)
from elpcover.runner import dump_json, solve_instance
from exact_oracles import circulant, random_connected_gnp

SWEEP_SEED = 20260810  # tests/test_acceptance.py's sweep corpus
SWEEP_COUNT = 20


def _named_graphs():
    yield "petersen", petersen_graph()
    yield "cycle(5)", cycle_graph(5)
    yield "complete(4)", complete_graph(4)
    hard = circulant(11, (1, 3))
    yield "circulant(11,(1,3))", hard
    # The circulant plus a disjoint edge: the first iteration only strips the
    # integral component.
    yield "circulant+edge", Graph.from_edges(
        list(hard.vertices) + [20, 21], list(hard.edges()) + [(20, 21)]
    )
    yield "torus_grid(5,5)", torus_grid_graph(5, 5)
    # Active-edge steps in both modes, and 3-cycle steps on rewired graphs.
    yield "trianglefree(17,0.37,11)", random_triangle_free_graph(17, 0.37, 11)
    rng = random.Random(SWEEP_SEED)
    for i in range(SWEEP_COUNT):
        n = rng.randint(4, 10)
        p = rng.uniform(0.25, 0.7)
        yield f"sweep-{i}", random_connected_gnp(n, p, rng)


GRAPHS = dict(_named_graphs())

GOLDEN = {
    "petersen": "576a40d6273cd049e39580e72c27006ac13c80c1dac9dec5710f39c28a259d9f",
    "cycle(5)": "53a7b1740e8a1c32c9427d8d8203a0a6636e589d2ddc72044134b102004d7a62",
    "complete(4)": "8046d744ac8c29d5957bc1a4db91f8bdc70cd4f6003a4849b1e915ddd1e01081",
    "circulant(11,(1,3))": "0d57c010175d7aad255515b4385f12ae1b30dfab3b96275aa6cdc70b841b26c8",
    "circulant+edge": "56c8462ac1f7315890f0b7862bff757f6b678d435605739a147250b42d5eea1a",
    "torus_grid(5,5)": "d5e0641fdca10c355a08a1ef83fa4313cb81d3604ee2b08f56ed0ab0b7e5d7ff",
    "trianglefree(17,0.37,11)": "195c18d88829e7b9360523b791a4fbaf12545287524f8efa2a2cf86a67a0f132",
    "sweep-0": "918ef75e7d5f292dae260f6ddc1196896ba319ceb05e85383f6b5fd9dab0df71",
    "sweep-1": "b11f0028b5f69aae9d3d9491be24340379ddb61c475c811cec466e152ca570b9",
    "sweep-2": "80db0bad2ad32bb7cc525bd9697a5682c8ac9d3b12407912c8fb2caf9c0e4693",
    "sweep-3": "a71a09cf4133cbc7cde21045bb7abd9fc84872edbe6c31ec85ffd4671b1df4bc",
    "sweep-4": "862d907943067f853d52e775c18939c72bdee7b581251fb33a7c8b993e4a5f81",
    "sweep-5": "4f2330f4adeb483a67ad7bc5eeac670833ef086b94e88276a0516c662d3253bc",
    "sweep-6": "885d8eba83bcbee17ff669fab338cea1963d026e032827def1a52a52bbdb15b2",
    "sweep-7": "9f3face223d2aa1dfa25f4240cbb10012be46655d46bd8721d60708256bb5488",
    "sweep-8": "a9dbe94bf3537567c69d1543f7a30979faca1d0e886120aa8cc4652c81582276",
    "sweep-9": "6b13732dc299cf38ef46e1cc89f2db5a423535c6c4f50aa4103d20a0c653c032",
    "sweep-10": "0a8bdbdf956dcc7ca60eadf581b1dc5a44a4553b2ce2782cda595da884b04b21",
    "sweep-11": "deea33db53fa70af51b6c4c70a35178a593c6f9c7697b4a68382a7cdb0d22c14",
    "sweep-12": "712528b19bda234f17792db27055d4518d6c0ccecc98253716d830ec62b4cca5",
    "sweep-13": "8cf3c8215273a1cec772b4402ff65f169e3ab0308383d7530b0e6100751d9e3f",
    "sweep-14": "a47430ff74cbdc3c3d8ed7628e7acb533c7521b4b5c25c95bb0085fbaf256bb5",
    "sweep-15": "10df268e566f7cf5e264816271bef5c01bdbfae713e19640912c80addc7d870b",
    "sweep-16": "943aa6db80c69a0fedd6fd433196ad0ec610135a64f74ecb9bfb3f48110ee438",
    "sweep-17": "7ef1bf4d4739c9a7403c22eefe7093868c81941305d24849d894a39d017cdcf4",
    "sweep-18": "755483c716494f5f21eb99ace5df2d6bddca7195c1d0f8f58b185a2506ec9ec5",
    "sweep-19": "0a9a10402f14959f06a6bb6649fd6ea7d7e38e86abcc293092d397e803017e68",
}

# (instance, mode, edge rule) -> digest.
GOLDEN_VARIANTS = {
    ("petersen", "base", "maxsum"): "4c5b4122876a9cb3db494d90c9c524e5ca62f2763917c1b900830038affa017f",
    ("complete(4)", "base", "maxsum"): "5020c99715023998b1636c8c8115245c8fad67aa02eb9d2f8c0dfbed89bcdca6",
    ("circulant(11,(1,3))", "base", "maxsum"): "d333eb1ffa924a7c26566de3eae98dbcbe5e9735b7f4daaa4003512e77321202",
    ("circulant+edge", "base", "maxsum"): "39f06d048048e487e025bbfa6f9b91f57f278ba49131fe0d1c9f4a13aa8bddcd",
    ("trianglefree(17,0.37,11)", "base", "maxsum"): "012e34529bd3a1e34ab9d64da38a4c80f0b36531976091887bc28fcb4a7b57f7",
    ("circulant(11,(1,3))", "enhanced", "random"): "66d3aec1559c8e16a75e7d9fe2a754da25f3685901e2beba4b55b5861114bc5e",
}


def _digest(name: str, mode: str = "enhanced", edge_rule: str = "maxsum") -> str:
    report = solve_instance(
        GRAPHS[name], name, "golden", mode=mode, seed=0, edge_rule=edge_rule
    )
    return hashlib.sha256(dump_json(report).encode()).hexdigest()


def test_golden_covers_every_instance():
    assert sorted(GOLDEN) == sorted(GRAPHS)


@pytest.mark.parametrize("name", list(GRAPHS))
def test_golden_report_digest(name):
    assert _digest(name) == GOLDEN[name]


@pytest.mark.parametrize("name,mode,edge_rule", list(GOLDEN_VARIANTS))
def test_golden_variant_digest(name, mode, edge_rule):
    assert _digest(name, mode, edge_rule) == GOLDEN_VARIANTS[name, mode, edge_rule]
