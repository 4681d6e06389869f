"""End-to-end pipeline tests: run, certify, serialize, replay."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import bridgeless_graphs
from orientdiam.errors import PreconditionError
from orientdiam.generators import (
    complete_graph,
    cycle_graph,
    petersen_graph,
    triangle_chain,
)
from orientdiam.graph import Graph
from orientdiam.orientation import directed_diameter, is_strong
from orientdiam.pipeline import certify, run_pipeline

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
    assert set(d["timings"]) == {"grow", "orient_core", "extend"}


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
    checks = certify(g, r.trace_records(), r.orientation)
    assert all(c["ok"] for c in checks), checks
    assert [c["name"] for c in checks[:7]] == INVARIANT_NAMES


def test_certify_names_first_failed_iteration():
    g = triangle_chain(12)
    records = run_pipeline(g, 2).trace_records()
    iterations = [rec for rec in records if rec["type"] == "growth_iteration"]
    iterations[1]["f"] = iterations[1]["f"][1:]
    iterations[2]["b"] = iterations[2]["b"][:-1]
    growth = certify(g, records)[0]
    assert growth["name"] == "growth_properties" and not growth["ok"]
    assert growth["detail"].startswith("iteration 1: f_claim (")
