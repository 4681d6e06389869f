"""End-to-end pipeline tests: run, certify, serialize, replay."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import bridgeless_graphs, expand_schema1, perfbench_module
from orientdiam import check, orientation, pipeline
from orientdiam.check import bounded_diameter_of_arcs, certify
from orientdiam.errors import CertifiedFailureError, PreconditionError
from orientdiam.generators import (
    circulant_graph,
    complete_graph,
    cycle_graph,
    petersen_graph,
    random_bridgeless,
    triangle_chain,
)
from orientdiam.graph import Graph
from orientdiam.growth import grow_core
from orientdiam.orientation import directed_diameter, is_strong
from orientdiam.pipeline import run_pipeline

INVARIANT_NAMES = [
    "growth_properties",
    "core_size_within_core_term",
    "core_diameter_within_size",
    "extension_start_within_reach",
    "extension_increase_within_allowed",
    "achieved_within_total",
    "final_strong",
]


def test_cycle_pipeline_frozen():
    r = run_pipeline(cycle_graph(8), Fraction(1, 2))
    assert r.achieved == 7
    assert r.core_diameter == 0
    assert len(r.growth.core_vertices) == 1
    assert r.bound.total == 25356
    assert [i["name"] for i in r.invariants] == INVARIANT_NAMES
    assert r.all_passed
    assert is_strong(r.orientation) and directed_diameter(r.orientation) == 7


def test_petersen_pipeline_frozen():
    r = run_pipeline(petersen_graph(), Fraction(1, 2))
    assert r.achieved == 8
    assert r.bound.total == Fraction(13225, 4)
    assert r.graph == {"n": 10, "m": 15, "min_degree": 3, "girth": 5}
    d = r.to_json_dict()
    assert d["epsilon"] == "1/2"
    assert d["bound"]["total"] == "13225/4"
    assert d["ok"] is True
    assert set(d["timings"]) == {"grow", "orient_core", "extend", "certify"}


def test_triangle_chain_pipeline_frozen():
    r = run_pipeline(triangle_chain(12), 2)
    assert r.achieved == 24
    assert r.core_diameter == 18
    assert len(r.growth.core_vertices) == 19
    assert r.bound.total == Fraction(272, 3)
    types = [rec["type"] for rec in r.trace_records()]
    assert types[0] == "growth_header"
    assert types.count("growth_iteration") == 3
    assert types.count("extension_round") == 2
    assert types[-1] == "pipeline_final"
    assert r.trace_records()[-1]["ok"] is True


def test_complete_graph_pipeline_frozen():
    r = run_pipeline(complete_graph(5), 1)
    assert r.achieved == 3
    assert r.bound.total == 91
    assert r.orientation.is_complete()


def test_pipeline_rejects_bridged_graph():
    with pytest.raises(PreconditionError):
        run_pipeline(Graph(4, [(0, 1), (1, 2), (2, 3)]), 1)


@settings(max_examples=15, deadline=None)
@given(bridgeless_graphs(max_n=30))
def test_pipeline_certifies_random_graphs(g):
    r = run_pipeline(g, Fraction(1, 2))
    assert r.all_passed
    assert is_strong(r.orientation)
    assert directed_diameter(r.orientation) == r.achieved
    assert Fraction(r.achieved) <= r.bound.total
    checks = certify(g, r.trace_records(), r.orientation.arcs())
    assert all(c["ok"] for c in checks), checks
    assert [c["name"] for c in checks[:7]] == INVARIANT_NAMES


def test_tiny_epsilon_certifies_without_walking_reach():
    # reach is 5.6e10 at eps = 1e-9; growth's lowering search stops at its
    # empty layer instead of counting out every level up to reach
    g = cycle_graph(8)
    r = run_pipeline(g, Fraction(1, 10**9))
    assert r.bound.reach == 56 * 10**9
    assert r.all_passed and r.achieved == 7
    assert all(c["ok"] for c in certify(g, r.trace_records(), r.orientation.arcs()))


def test_certify_names_first_failed_iteration():
    g = triangle_chain(12)
    records = run_pipeline(g, 2).trace_records()
    iterations = [rec for rec in records if rec["type"] == "growth_iteration"]
    iterations[1]["added_claimed"] = iterations[1]["added_claimed"][1:]
    iterations[2]["centers"] = iterations[2]["centers"] * 2
    growth = certify(g, records)[0]
    assert growth["name"] == "growth_properties" and not growth["ok"]
    assert growth["detail"].startswith("iteration 1: f_claim (")


# Known refusals: three grown cores that break a growth property, and a small
# graph whose extension exceeds its quadratic cap. The constructors return
# them; certify names the failure and run_pipeline raises on it. (14, 3, 3, 38)
# is the smallest known eps = 2 refusal, one that the random draws of
# test_growth_certifies_random_graphs can hit.
@pytest.mark.parametrize(
    "args, eps, growth_failure",
    [
        ((60, 4, 3, 109), 2, "iteration 0: bridgeless_connected ("),
        ((60, 4, 3, 103), 2, "iteration 1: property2 ("),
        ((6, 3, 3, 42), Fraction(1, 2), None),
        ((14, 3, 3, 38), 2, "iteration 0: property2 ("),
    ],
    ids=["random_60_4_3_109", "random_60_4_3_103", "random_6_3_3_42", "random_14_3_3_38"],
)
def test_refused_runs_are_returned_then_certified_as_failed(args, eps, growth_failure):
    g = random_bridgeless(*args)
    growth = certify(g, grow_core(g, eps).trace.to_records())[0]
    assert growth["name"] == "growth_properties"
    if growth_failure is None:
        assert growth["ok"], growth
    else:
        assert not growth["ok"] and growth["detail"].startswith(growth_failure)
    with pytest.raises(CertifiedFailureError) as exc:
        run_pipeline(g, eps)
    if growth_failure is not None:
        assert str(exc.value) == "pipeline invariant failed"
        assert exc.value.details["invariants"][0]["detail"].startswith(growth_failure)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _relabeled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# SHA-256 digests taken from the plain full-BFS implementation: of
# json.dumps([arcs, trace records], sort_keys=True) at eps = 1/2, the trace
# records as schema 1 wrote them (``expand_schema1``), and of the
# edge lists of random_bridgeless(800, 4, 3, s). A speedup must leave every
# output byte in place. The circulants are growth-heavy: C_300(1, 3) has
# girth 4, 3 growth iterations and 2 splices; the relabeled C_200(1, 2) has
# 7 iterations and 1 splice.
PINNED_RUNS = {
    "random_bridgeless(300, 4, 3, 1)": (
        lambda: random_bridgeless(300, 4, 3, 1),
        "b352623afac40a3276c8afade78918821f83d8a9a95953c52b54ec176ad3c244",
    ),
    "circulant_graph(200, (1, 2))": (
        lambda: circulant_graph(200, (1, 2)),
        "2c59418dcebb6ec1d69a3f40ea9419ae6baf306155ac461d7f48c2401de1bf16",
    ),
    "circulant_graph(300, (1, 3))": (
        lambda: circulant_graph(300, (1, 3)),
        "d84a76f012e24edc1d84a01bbadb0b0aab546a466e59c3374e98cd38c3441484",
    ),
    "circulant_graph(200, (1, 2)) relabeled by seed 6": (
        lambda: _relabeled(circulant_graph(200, (1, 2)), 6),
        "ea97be611a7560abf90ab3ae11418d2df96e8bc4edc4d1aa5a74517b74e610b7",
    ),
}
PINNED_EDGES = [
    "434c065525f5c105ade8f492b776f1ef51bb4bdd82f8db44b46344ba0a0c93fb",
    "d5093309a63b45ab1a574d4c5ec5fb2e1b8643245f586a1684e4b37c9cab5867",
    "c869ec359ab93e51103119a2b14c1c8fa950f7190a6ec984dc8d6916f4e077fd",
    "7267b39e82c986de5a6f763771a3f3306b70da29b9d19964df445e5c4edba690",
]


@pytest.mark.parametrize(
    "g, eps, failed",
    [
        (cycle_graph(8), Fraction(1, 2), None),
        (random_bridgeless(60, 4, 3, 109), 2, "iteration 0: bridgeless_connected"),
    ],
    ids=["growth-certifies", "growth-refused"],
)
def test_extension_guard_trip_certifies_growth_alone(monkeypatch, g, eps, failed):
    """A guard tripped in the extension is re-raised as it is when the growth
    trace certifies, and otherwise replaced by growth's own failed checks."""
    guard = CertifiedFailureError("stub guard")

    def trip(*args):
        raise guard

    monkeypatch.setattr(pipeline, "extend_orientation", trip)
    with pytest.raises(CertifiedFailureError) as exc:
        run_pipeline(g, eps)
    if failed is None:
        assert exc.value is guard
    else:
        assert str(exc.value) == "pipeline invariant failed"
        (check,) = exc.value.details["invariants"]
        assert check["name"] == "growth_properties"
        assert check["detail"].startswith(failed)


@pytest.mark.parametrize("label", sorted(PINNED_RUNS))
def test_pipeline_output_pinned(label):
    make, digest = PINNED_RUNS[label]
    r = run_pipeline(make(), Fraction(1, 2))
    assert _digest([r.orientation.arcs(), expand_schema1(r.trace_records())]) == digest


def test_random_bridgeless_edges_pinned():
    digests = [_digest(random_bridgeless(800, 4, 3, s).edges()) for s in range(4)]
    assert digests == PINNED_EDGES


def test_circulant_grow_diameters_never_reach_the_kernel(monkeypatch):
    """On the benchmark's eight circulant-grow graphs every diameter, core and
    full, is settled by a few pivots. Those diameters run to hundreds of
    levels, so the bit-parallel kernel would cost far more than the pivots'
    charge (4 runs each) when it started."""
    calls = []
    kernel = orientation._bit_levels
    monkeypatch.setattr(orientation, "_bit_levels", lambda *a: calls.append(1) or kernel(*a))
    for case in perfbench_module("workloads").circulant_grow(0):
        for eps in case.epsilons:
            run_pipeline(case.make(), eps)
    assert calls == []


def _count_calls(monkeypatch, module, names):
    """Wrap each named function of ``module``; the returned dict counts their calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        f = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, f=f, name=name: calls.__setitem__(name, calls[name] + 1) or f(*a)
        )
    return calls


def test_random_extend_checker_search_finishes_in_its_kernel(monkeypatch):
    """On the benchmark's eight random-extend orientations (diameters 24 and
    25) the checker's bounds prune almost nothing, so its search ends, as the
    construction's does, in one bit-parallel pass per graph but one: 696 BFS
    runs with no kernel became 113 and 7 passes."""
    orientations = []
    for case in perfbench_module("workloads").random_extend(0):
        g = case.make()
        orientations.append((g.n, run_pipeline(g, case.epsilons[0]).orientation.arcs()))
    calls = _count_calls(monkeypatch, check, ("_bfs", "_bit_levels"))
    for n, arcs in orientations:
        bounded_diameter_of_arcs(n, arcs)
    assert calls["_bfs"] <= 120
    assert calls["_bit_levels"] == 7


def test_circulant_grow_checker_never_reaches_its_kernel(monkeypatch):
    """verify's searches on the eight circulant-grow graphs, core and full
    diameters, are settled by pivots, as the construction's are."""
    runs = []
    for case in perfbench_module("workloads").circulant_grow(0):
        g = case.make()
        r = run_pipeline(g, case.epsilons[0])
        runs.append((g, r.trace_records(), r.orientation.arcs()))
    calls = _count_calls(monkeypatch, check, ("_bit_levels",))
    for g, records, arcs in runs:
        assert all(c["ok"] for c in certify(g, records, arcs))
    assert calls["_bit_levels"] == 0
