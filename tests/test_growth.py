"""Tests for the core-growing construction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bridgeless_graphs
from orientdiam.errors import PreconditionError
from orientdiam.generators import triangle_chain
from orientdiam.graph import Graph, ball
from orientdiam.growth import grow_core, subgraph_adjacency
from orientdiam.pipeline import certify


def detour_fixture() -> Graph:
    """Triangle at 0 plus an outer 8-cycle through 0."""
    edges = [(0, 1), (1, 2), (0, 2)]
    cyc = [0, 3, 4, 5, 6, 7, 8, 9]
    edges += [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
    return Graph(10, edges)


def splice_fixture() -> Graph:
    """Escape path 0-1-2-3 with a detour tail whose chord (0,6) forces a splice."""
    return Graph(
        8,
        [
            (0, 1), (1, 2), (2, 3),
            (0, 4), (1, 4),
            (4, 5), (5, 6), (6, 7), (3, 7),
            (0, 6),
        ],
    )


def check_subgraph_bridgeless(vertices, edges) -> None:
    """Independently confirm the recorded subgraph is connected and 2-edge-connected."""
    verts = list(vertices)
    edge_list = [tuple(e) for e in edges]

    def reachable(skip):
        adj = {v: [] for v in verts}
        for u, w in edge_list:
            if (u, w) != skip:
                adj[u].append(w)
                adj[w].append(u)
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen)

    assert reachable(None) == len(verts)
    for e in edge_list:
        assert reachable(e) == len(verts), f"edge {e} is a bridge"


def failed_checks(g: Graph, result) -> list[dict]:
    return [c for c in certify(g, result.trace.to_records()) if not c["ok"]]


def reverify_growth(g: Graph, result) -> None:
    """Certify the growth trace, plus two checks certify does not make.

    A brute-force bridge test stands as the reference for the lowpoint DFS,
    and every banked ball, not only their union, must meet the floor.
    """
    assert not failed_checks(g, result)
    hdr = result.trace.header
    for rec in result.trace.iterations:
        check_subgraph_bridgeless(rec.h_vertices, rec.h_edges)
        path_edges = list(zip(rec.path, rec.path[1:]))
        excluded = None if rec.fallback else path_edges
        for c in rec.centers:
            assert len(ball(g, c, hdr["radius"], excluded=excluded)) >= hdr["ball_floor"]


def test_detour_fixture_trace():
    r = grow_core(detour_fixture(), 2)
    assert r.trace.header["v0"] == 0
    assert r.trace.header["base_claimed"] == [0, 1, 2, 3, 9]
    assert (r.min_degree, r.girth, r.ball_floor) == (2, 3, 3)
    assert (r.scale, r.radius, r.reach) == (1, 1, 3)
    assert len(r.trace.iterations) == 1
    it = r.trace.iterations[0]
    assert it.path == (0, 3, 4, 5)
    assert it.labeled == (9, 8, 7, 6)
    assert it.centers == (7,)
    assert not it.fallback
    assert (it.cover_steps, it.splices, it.labeled_on_path) == (1, 0, 0)
    assert it.h_vertices == (0, 3, 4, 5, 6, 7, 8, 9)
    assert it.h_edges == (
        (0, 3), (0, 9), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9),
    )
    assert sorted(r.core_vertices) == [0, 3, 4, 5, 6, 7, 8, 9]
    assert r.centers == (0, 7)
    assert sorted(r.claimed) == [0, 1, 2, 3, 6, 7, 8, 9]
    assert not failed_checks(detour_fixture(), r)
    reverify_growth(detour_fixture(), r)


def test_splice_fixture_trace():
    r = grow_core(splice_fixture(), 2)
    assert r.trace.header["v0"] == 0
    assert r.trace.header["base_claimed"] == [0, 1, 4, 6]
    assert len(r.trace.iterations) == 1
    it = r.trace.iterations[0]
    assert it.path == (0, 1, 2, 3)
    assert it.labeled == (6, 7)
    assert it.centers == (3,)
    assert it.fallback
    assert (it.cover_steps, it.splices, it.labeled_on_path) == (2, 1, 0)
    assert sorted(r.core_vertices) == [0, 1, 2, 3, 6, 7]
    assert 4 not in r.core_vertices  # splice evicted the superseded detour
    assert r.centers == (0, 3)
    assert sorted(r.claimed) == [0, 1, 2, 3, 4, 6, 7]
    assert not failed_checks(splice_fixture(), r)
    reverify_growth(splice_fixture(), r)


def test_multi_iteration_triangle_chain():
    g = triangle_chain(12)
    r = grow_core(g, 2)
    assert len(r.trace.iterations) == 3
    assert r.trace.final["core_vertex_count"] == 19
    assert r.centers == (2, 8, 14, 20)
    assert all(not it.fallback for it in r.trace.iterations)
    assert all(it.splices == 0 for it in r.trace.iterations)
    assert not failed_checks(g, r)
    reverify_growth(g, r)


def test_trivial_core_when_everything_is_close():
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    r = grow_core(triangle, 2)
    assert r.trace.final["iterations"] == 0
    assert sorted(r.core_vertices) == [0]
    assert r.core_edges == frozenset()
    assert r.centers == (0,)
    assert sorted(r.claimed) == [0, 1, 2]
    assert not failed_checks(triangle, r)


def test_growth_rejects_bridges_with_witness():
    with pytest.raises(PreconditionError) as exc:
        grow_core(Graph(3, [(0, 1), (1, 2)]), 1)
    assert exc.value.witness == (0, 1)
    with pytest.raises(PreconditionError) as exc:
        grow_core(Graph(2, [(0, 1)]), 1)
    assert exc.value.witness == (0, 1)


def test_growth_rejects_disconnected():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(PreconditionError) as exc:
        grow_core(g, 1)
    assert exc.value.witness == "disconnected"


def test_growth_rejects_tiny_and_bad_epsilon():
    with pytest.raises(PreconditionError, match="3 vertices"):
        grow_core(Graph(1, []), 1)
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(PreconditionError, match="positive"):
        grow_core(triangle, 0)
    with pytest.raises(PreconditionError, match="positive"):
        grow_core(triangle, Fraction(-1, 2))


def test_subgraph_adjacency_sorted():
    adj = subgraph_adjacency({3, 1, 2}, {(1, 3), (2, 3)})
    assert adj == {1: [3], 2: [3], 3: [1, 2]}


@settings(max_examples=20, deadline=None)
@given(bridgeless_graphs(max_n=25), st.sampled_from([Fraction(1, 2), 1, 2]))
def test_growth_certifies_random_graphs(g, eps):
    r = grow_core(g, eps)
    assert r.core_vertices <= frozenset(range(g.n))
    assert r.claimed <= frozenset(range(g.n))
    reverify_growth(g, r)
