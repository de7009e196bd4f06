"""Golden report digests: `vc solve` reports that must not move silently.

Each digest is the sha256 of `runner.dump_json(solve_instance(...))` with
seed 0 and the exact-oracle check. GOLDEN pins enhanced mode with edge rule
maxsum; they were recorded before the compact-tableau simplex replaced the
dict tableau, and the 12 reports that the dual steepest-edge leaving rule
moved (other optimal vertices, so other cut rounds and covers of the same
size) were re-recorded with it. The 13 reports (11 here, 2 in
GOLDEN_VARIANTS) that a vertex-disjoint batch of cuts per round moved
(other cycle pools and cutRounds, the same f1, cover size, L and xi) were
re-recorded with that. complete(4) was re-recorded when the terminal
record began to state its own iteration: that iteration is a failed sweep
on the vertex the 3-cycle step left, so its row now says
zeroOneApplied false, as its isolatedTerminal diagnostic always did; no
other digest moved. Any engine or pipeline change that alters a cover,
a cycle pool, a value or a diagnostic on these instances fails here.
GOLDEN_VARIANTS pins base mode (a cover, 3-cycle and active-edge steps, a
hypothesis failure, and a {0,1}-only step before one) and the seeded
random edge rule. GOLDEN_HUNTS pins the two files of three `vc hunt`
batches, one per generator. A change that moves a report on purpose
updates the digest and says so in CHANGES.md.
"""

import hashlib
import random

import pytest

from elpcover import simplex
from elpcover.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    petersen_graph,
    random_gnp_graph,
    random_triangle_free_graph,
    torus_grid_graph,
)
from elpcover.runner import dump_json, hunt, hunt_rows_csv, solve_instance
from elpcover.simplex import CoveringSimplex
from exact_oracles import check_slot_bound, circulant, random_connected_gnp, run_pipeline_iterates

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
    "petersen": "03421616ab769426991ba4ecd8e1ea63c647bea3249281364423b44725c6b548",
    "cycle(5)": "53a7b1740e8a1c32c9427d8d8203a0a6636e589d2ddc72044134b102004d7a62",
    "complete(4)": "d3d79a3d7303dda6abefd1ef9be8b63d423e206e53e81305a6287bb1668dcc14",
    "circulant(11,(1,3))": "18961142d76f94d4cde5fe4f4b486c5af7e34423c0e4dc7e340328ce547e4c0d",
    "circulant+edge": "9e21b98ad9d7072a13eaadc56c096b75e855a195211e56937a58a36cb028bc9c",
    "torus_grid(5,5)": "c813555a2188ccbfaa2edd326ae45448f3a7d519c3f4ba1aff5cf7b0424bc117",
    "trianglefree(17,0.37,11)": "e06bc4c0333da8a346acb2342099088f4aa53776852d00a6e4af718c6459ccfa",
    "sweep-0": "002d68f8fb679a7ebb1ec46b0b0acbbe3b3b163a079c98dabb01020b2ecad598",
    "sweep-1": "451fa71b2dadb7a4af8f3a797c193bdfd8b7540100e60eb4e573c5123a1f40df",
    "sweep-2": "6ed26e15a6813d38b8c4c9972ab2c1b13efb0848c859c8c70a271d2c0e219c23",
    "sweep-3": "bf304098a1b444a271c168181886e55f67c68db1b68635c01307ab8fe1165d55",
    "sweep-4": "862d907943067f853d52e775c18939c72bdee7b581251fb33a7c8b993e4a5f81",
    "sweep-5": "e1a5d7bfb5d74b4ded02b8b16f3c9cabeef4f21dae2655eb3e894f0a44eb5529",
    "sweep-6": "ea87fe744f816eda1ca1f8ae2d91ba63467737d16fd2262fd32bce9778f1009c",
    "sweep-7": "02d86903062d97a294d3c0dce5c361492714336ebd26aea4d7da80ca24ea08a6",
    "sweep-8": "a9dbe94bf3537567c69d1543f7a30979faca1d0e886120aa8cc4652c81582276",
    "sweep-9": "6b13732dc299cf38ef46e1cc89f2db5a423535c6c4f50aa4103d20a0c653c032",
    "sweep-10": "0a8bdbdf956dcc7ca60eadf581b1dc5a44a4553b2ce2782cda595da884b04b21",
    "sweep-11": "deea33db53fa70af51b6c4c70a35178a593c6f9c7697b4a68382a7cdb0d22c14",
    "sweep-12": "bb995ddddc931c4c77a123a8bc53a6a2f1fe235376b203fb14089bd2f5ef331a",
    "sweep-13": "8cf3c8215273a1cec772b4402ff65f169e3ab0308383d7530b0e6100751d9e3f",
    "sweep-14": "dc3ca96b95da40e9f25a1a4d01049cff39cd784ea1fb7cee3baa2114647d561a",
    "sweep-15": "945bb0a08821800312956fdd6cd4dd3e887d30d3d3f533b64869b2dd963b58ec",
    "sweep-16": "943aa6db80c69a0fedd6fd433196ad0ec610135a64f74ecb9bfb3f48110ee438",
    "sweep-17": "4dc0d10135b5692a2684f0c41a3c59b1eff7c883c1ebd3b4a7194916c8e4eb16",
    "sweep-18": "755483c716494f5f21eb99ace5df2d6bddca7195c1d0f8f58b185a2506ec9ec5",
    "sweep-19": "0a9a10402f14959f06a6bb6649fd6ea7d7e38e86abcc293092d397e803017e68",
}

# (instance, mode, edge rule) -> digest.
GOLDEN_VARIANTS = {
    ("petersen", "base", "maxsum"): "c50bb91a4b2b7e3d83fa44039caefbc1183ed43a6d132c00f9e9cde84803c8c1",
    ("complete(4)", "base", "maxsum"): "5020c99715023998b1636c8c8115245c8fad67aa02eb9d2f8c0dfbed89bcdca6",
    ("circulant(11,(1,3))", "base", "maxsum"): "58e1b55bf1d2de5eff3a8009879f2e70460f51750cc2050733cc0d64816ce4db",
    ("circulant+edge", "base", "maxsum"): "a11aa59757554999a1e5f941bc750844f54362ad8f10b8d6c52cfdbef445b23b",
    ("trianglefree(17,0.37,11)", "base", "maxsum"): "4d83420299123ca9ca1be97b1ed3a5f4cc5dc374c50cf5594886c4afc2b222e4",
    ("circulant(11,(1,3))", "enhanced", "random"): "bf50e191c3a3a4fbe2f3f8a8537ab194250912565374085f494163e27f6a7850",
}


# (generator, n range, trials, seed) -> sha256 of hunt.json + hunt.csv, the
# bytes of `cat hunt.json hunt.csv` after `vc hunt` with those flags.
GOLDEN_HUNTS = {
    ("mixed", (6, 12), 30, 3): "faf2b5eb333b0fde11b30bf9c0ba84b8d005428367122da9109b262a94980f66",
    ("torus", (9, 30), 10, 1): "cef9ce5092a585459e23de7f43343b4c06580b8522a69201892b9348e93269b2",
    ("gnp-trianglefree", (6, 20), 30, 7): "49b3d7cc2354541878f736d5b29ee3613fa375ba8750001c1515a52ef680057e",
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


def _pivots_and_report(name: str, g: Graph) -> tuple[int, str]:
    pivot, count = CoveringSimplex._pivot, [0]

    def counted(engine, *args):
        count[0] += 1
        pivot(engine, *args)
        check_slot_bound(engine)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CoveringSimplex, "_pivot", counted)
        report = dump_json(solve_instance(g, name, "golden", seed=0))
    return count[0], report


def test_narrow_slots_widen_to_the_same_reports(monkeypatch):
    # Packed rows start at 8-bit slots, whose bound is 2^2, so the engines
    # re-encode their rows at wider slots again and again. Every golden
    # instance and every lp-large graph must still give its report byte for
    # byte, with the pivots of the default width, and every pivot must
    # leave the stored rows within the slot bound.
    graphs = {
        **GRAPHS,
        "torus_grid(5,7)": torus_grid_graph(5, 7),
        "gnp(30,0.3,1)": random_gnp_graph(30, 0.3, 1),
    }
    expected = {name: _pivots_and_report(name, g) for name, g in graphs.items()}
    widen, widened = CoveringSimplex._widen, [0]

    def counted(engine):
        widened[0] += 1
        widen(engine)

    monkeypatch.setattr(simplex, "SLOT_WIDTH", 8)
    monkeypatch.setattr(CoveringSimplex, "_widen", counted)
    for name, g in graphs.items():
        pivots, report = _pivots_and_report(name, g)
        assert (pivots, report) == expected[name], name
        if name in GOLDEN:
            assert hashlib.sha256(report.encode()).hexdigest() == GOLDEN[name]
    assert widened[0] > 1


@pytest.mark.parametrize("gen,n_range,trials,seed", list(GOLDEN_HUNTS), ids=[k[0] for k in GOLDEN_HUNTS])
def test_golden_hunt_digest(gen, n_range, trials, seed):
    summary, rows = hunt(gen=gen, n_range=n_range, trials=trials, seed=seed)
    text = dump_json(summary) + hunt_rows_csv(rows)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_HUNTS[gen, n_range, trials, seed]


@pytest.mark.parametrize("mode", ["enhanced", "base"])
@pytest.mark.parametrize("name", list(GRAPHS))
def test_diagnostics_match_observed_iterations(name, mode):
    # The report's diagnostics are read off the trace records; count them
    # again from the solve_elp and sweep calls the pipeline makes.
    notes = []
    _, _, xs = run_pipeline_iterates(GRAPHS[name], notes, mode=mode)
    report = solve_instance(GRAPHS[name], name, "golden", mode=mode, oracle_cap=None)
    skipped = [
        {"k": k, "vertices": sorted(v for v, val in x.items() if val == 0)}
        for k, (x, (_, _, hit)) in enumerate(zip(xs, notes), start=1)
        if hit is False and 0 in x.values()
    ]
    assert report["diagnostics"] == {
        "cutRounds": sum(cuts for cuts, _, _ in notes),
        "pinSolves": sum(pins for _, pins, _ in notes),
        "alternateHits": sum(hit is True for _, _, hit in notes),
        "skippedZeroOne": skipped,
        "isolatedTerminal": notes[-1][2] is False,
    }
