"""Orientation container, strongness queries, DFS construction, text format."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    arbitrary_graphs,
    assert_bit_levels_matches_floyd_warshall,
    bridgeless_graphs,
    chorded_cycle,
    dense_random_orientation,
    digraphs_with_sources,
    floyd_warshall_arcs,
    reference_directed_distance,
    reference_orient_adjacency,
)
from orientdiam.errors import (
    CertifiedFailureError,
    GraphFormatError,
    IncompleteOrientationError,
    OrientationConflictError,
    PreconditionError,
)
from orientdiam.extension import core_directed_diameter
from orientdiam import orientation
from orientdiam.generators import circulant_graph, complete_graph, cycle_graph
from orientdiam.graph import UNREACHABLE, Graph, edge_key, is_bridgeless_connected
from orientdiam.oracle import directed_diameter_of_arcs
from orientdiam.orientation import (
    Orientation,
    _bit_levels,
    digraph_diameter,
    directed_diameter,
    directed_distances_from,
    directed_distances_to,
    format_orientation,
    is_strong,
    orient_adjacency,
    orient_path,
    parse_orientation,
    read_arcs,
    strong_orientation,
)


def directed_cycle(k: int) -> Orientation:
    o = Orientation(cycle_graph(k))
    orient_path(o, list(range(k)) + [0])
    return o


def test_assign_idempotent_and_conflicting():
    o = Orientation(cycle_graph(3))
    o.assign(0, 1)
    o.assign(0, 1)
    assert len(o.arcs()) == 1
    with pytest.raises(OrientationConflictError):
        o.assign(1, 0)
    with pytest.raises(ValueError):
        o.assign(0, 0)


def test_direction_and_arcs():
    o = Orientation(cycle_graph(3))
    assert o.direction(0, 1) is None
    o.assign(1, 0)
    o.assign(1, 2)
    assert o.direction(0, 1) == 0 and o.direction(1, 0) == 0
    assert o.arcs() == [(1, 0), (1, 2)]
    assert not o.is_complete()
    o.assign(2, 0)
    assert o.is_complete()


def test_directed_distances_partial():
    o = Orientation(cycle_graph(4))
    o.assign(0, 1)
    o.assign(1, 2)
    assert directed_distances_from(o, (0,)) == [0, 1, 2, UNREACHABLE]
    assert directed_distances_to(o, (2,)) == [2, 1, 0, UNREACHABLE]


def test_is_strong_requires_complete():
    o = Orientation(cycle_graph(3))
    o.assign(0, 1)
    with pytest.raises(IncompleteOrientationError):
        is_strong(o)
    with pytest.raises(IncompleteOrientationError):
        directed_diameter(o)


def test_directed_cycle_is_strong_with_known_diameter():
    o = directed_cycle(4)
    assert is_strong(o)
    assert directed_diameter(o) == 3
    assert directed_diameter(directed_cycle(8)) == 7


def test_non_strong_orientation_detected():
    o = Orientation(cycle_graph(4))
    orient_path(o, [0, 1, 2, 3])
    o.assign(0, 3)  # both cycle directions collide at 3
    assert is_strong(o) is False
    assert directed_diameter(o) == UNREACHABLE


def test_strong_orientation_frozen_cases():
    for g in [cycle_graph(4), complete_graph(4), complete_graph(5)]:
        o = strong_orientation(g)
        assert is_strong(o)


def test_strong_orientation_rejects_bridges_with_witness():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(PreconditionError) as exc:
        strong_orientation(g)
    assert exc.value.witness == (0, 1)
    with pytest.raises(PreconditionError) as exc:
        strong_orientation(Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))
    assert exc.value.witness == "disconnected"


def test_orient_path_directions():
    o = Orientation(cycle_graph(4))
    orient_path(o, [0, 1, 2], forward=False)
    assert o.arcs() == [(1, 0), (2, 1)]


def test_format_parse_round_trip():
    o = strong_orientation(complete_graph(4))
    text = format_orientation(o, comment="round trip")
    assert text.startswith("# round trip\norientation 4 6\n")
    back = parse_orientation(text, complete_graph(4))
    assert back.arcs() == o.arcs()
    commented = parse_orientation(text.replace("\n", "  # arc\n", 3), complete_graph(4))
    assert commented.arcs() == o.arcs()


def test_format_refuses_partial():
    o = Orientation(cycle_graph(3))
    with pytest.raises(IncompleteOrientationError):
        format_orientation(o)


def test_parse_orientation_rejects_malformed():
    base = cycle_graph(3)
    good = "orientation 3 3\n0 1\n1 2\n2 0\n"
    assert is_strong(parse_orientation(good, base))
    bad = [
        "",
        "orientation 3 2\n0 1\n1 2\n",
        "orientation 3 3\n0 1\n1 2\n",
        "orientation 3 3\n0 1\n1 2\n0 2\n0 2\n",
        "orientation 3 3\n0 1\n1 2\n1 2\n",
        "orientation 3 3\n0 1\n1 2\n0 3\n",
        "graph 3 3\n0 1\n1 2\n2 0\n",
        "orientation 3 3\n0 1\n1 x\n2 0\n",
        "orientation 3 3 3\n0 1\n1 2\n2 0\n",
        "orientation 3\n0 1\n1 2\n2 0\n",
        "orientation 3 3\n0 1 2\n1 2\n2 0\n",
        "# only a comment\n",
    ]
    for text in bad:
        with pytest.raises(GraphFormatError):
            parse_orientation(text, base)


def test_read_arcs_keeps_file_order_and_parse_orientation_messages():
    base = cycle_graph(3)
    assert read_arcs("orientation 3 3\n2 0\n0 1\n1 2\n", base) == [(2, 0), (0, 1), (1, 2)]
    bad = {
        "orientation 3 3\n0 1\n1 0\n2 0\n": "edge (0, 1) oriented twice",
        "orientation 3 3\n0 1\n1 2\n2 2\n": "(2, 2) is not an edge of the base graph",
        # -2 would index vertex 1's neighbors, which hold 2
        "orientation 3 3\n0 1\n-2 2\n0 1\n": "(-2, 2) is not an edge of the base graph",
        "orientation 3 3\n0 1\n0 3\n0 1\n": "(0, 3) is not an edge of the base graph",
        "orientation 3 2\n0 1\n1 2\n": "header (3, 2) does not match the base graph (3, 3)",
    }
    for text, message in bad.items():
        for read in (read_arcs, parse_orientation):
            with pytest.raises(GraphFormatError) as exc:
                read(text, base)
            assert str(exc.value) == message


@settings(max_examples=60, deadline=None)
@given(bridgeless_graphs())
def test_strong_orientation_always_strong(g):
    o = strong_orientation(g)
    assert is_strong(o)
    # independent check: raw-arc BFS agrees the digraph is strong
    assert directed_diameter_of_arcs(g.n, o.arcs()) == directed_diameter(o)


@settings(max_examples=60, deadline=None)
@given(bridgeless_graphs(max_n=20))
def test_arc_reversal_preserves_strongness(g):
    o = strong_orientation(g)
    rev = Orientation(g)
    for t, h in o.arcs():
        rev.assign(h, t)
    assert is_strong(rev)
    assert directed_diameter(rev) == directed_diameter(o)


@settings(max_examples=80, deadline=None)
@given(arbitrary_graphs(max_n=9))
def test_strong_implies_bridgeless(g):
    # converse direction: any complete strong orientation certifies the base
    if g.n == 0 or g.m == 0:
        return
    o = Orientation(g)
    for u, v in g.edges():
        o.assign(u, v)
    if is_strong(o):
        assert is_bridgeless_connected(g)


# ---------------------------------------------------------------------------
# fast paths against the slow paths they replaced


@st.composite
def random_orientations(draw, complete: bool):
    """Each edge forward, backward or (if partial) unassigned, on small arbitrary
    graphs and on sparse bridgeless ones with long directed paths."""
    g = draw(
        st.one_of(
            arbitrary_graphs(max_n=12),
            bridgeless_graphs(max_n=30),
            st.builds(cycle_graph, st.integers(3, 30)),
        )
    )
    o = Orientation(g)
    for u, v in g.edges():
        way = draw(st.sampled_from((1, -1) if complete else (1, -1, 0)))
        if way == 1:
            o.assign(u, v)
        elif way == -1:
            o.assign(v, u)
    return o


def vertex_sets(n: int, min_size: int = 0):
    return st.sets(st.integers(0, n - 1), min_size=min_size, max_size=n)


@settings(max_examples=300, deadline=None)
@given(random_orientations(complete=True))
def test_directed_diameter_matches_arc_list(o):
    # strong or not: the hybrid search agrees with per-source BFS on raw arcs
    assert directed_diameter(o) == directed_diameter_of_arcs(o.base.n, o.arcs())


def per_vertex_diameter(o: Orientation) -> int | float:
    """One directed BFS from each vertex: the slow path of ``digraph_diameter``."""
    return max((max(directed_distances_from(o, (v,))) for v in range(o.base.n)), default=0)


def core_orientation(o: Orientation, core) -> Orientation:
    """The core's own arcs, those with both ends in the core, renumbered 0..k-1."""
    index = {v: i for i, v in enumerate(sorted(core))}
    arcs = [(index[t], index[h]) for t, h in o.arcs() if t in index and h in index]
    sub = Orientation(Graph(len(index), arcs))
    for t, h in arcs:
        sub.assign(t, h)
    return sub


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_core_directed_diameter_matches_per_vertex_bfs(data):
    # complete or partial, any subset: empty, single, not strong, or one
    # whose shortest paths in o leave it
    o = data.draw(random_orientations(complete=data.draw(st.booleans())))
    core = data.draw(vertex_sets(o.base.n))
    worst = per_vertex_diameter(core_orientation(o, core))
    if worst == UNREACHABLE:
        with pytest.raises(CertifiedFailureError):
            core_directed_diameter(core, o.arcs())
    else:
        assert core_directed_diameter(core, o.arcs()) == worst


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_directed_distance_probe_matches_full_bfs(data):
    """The per-step reference search, kept in conftest, against Floyd-Warshall."""
    o = data.draw(random_orientations(complete=False))
    targets = frozenset(data.draw(vertex_sets(o.base.n, min_size=1)))
    v = data.draw(st.integers(0, o.base.n - 1))
    ref = floyd_warshall_arcs(o.base.n, o.arcs())
    to_targets = min(ref[v][t] for t in targets)
    from_targets = min(ref[t][v] for t in targets)
    assert (
        reference_directed_distance(o, v, targets)
        == directed_distances_to(o, targets)[v]
        == to_targets
    )
    assert (
        reference_directed_distance(o, v, targets, reverse=True)
        == directed_distances_from(o, targets)[v]
        == from_targets
    )


@settings(max_examples=200, deadline=None)
@given(bridgeless_graphs(), st.data())
def test_orient_adjacency_matches_reference_dfs(g, data):
    # the whole graph, then a connected subgraph: the component of a random
    # vertex in a random edge subset, bridges and non-zero labels included
    assert orient_adjacency(g.adjacency()) == reference_orient_adjacency(g.adjacency(), 0)
    kept = [e for e in g.edges() if data.draw(st.booleans())]
    comp = {data.draw(st.integers(0, g.n - 1))}
    grew = True
    while grew:
        grew = False
        for u, v in kept:
            if (u in comp) != (v in comp):
                comp |= {u, v}
                grew = True
    # as run_pipeline hands over a core: n lists, sorted, empty off the component
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in kept:
        if u in comp:
            adj[u].append(v)
            adj[v].append(u)
    arcs = orient_adjacency(adj)
    assert arcs == reference_orient_adjacency(adj, min(comp))
    # canonical edge order (kept is in g.edges() order), as Orientation.arcs lists them
    assert [edge_key(t, h) for t, h in arcs] == [e for e in kept if e[0] in comp]


def test_digraph_diameter_frozen_cases():
    c8 = directed_cycle(8)
    assert digraph_diameter(c8._out, c8._in) == 7
    path = Orientation(cycle_graph(4))
    orient_path(path, [0, 1, 2, 3])
    assert digraph_diameter(path._out, path._in) == UNREACHABLE
    assert digraph_diameter([[]], [[]]) == 0


@pytest.mark.parametrize(
    "o, exit_taken",
    [
        (strong_orientation(circulant_graph(200, (1, 2))), None),
        (chorded_cycle(50), "_largest_eccentricity"),
        (dense_random_orientation(12, 0.5, 52), "_largest_eccentricity"),
        (dense_random_orientation(200, 0.08, 1), "_bit_levels"),
        (dense_random_orientation(12, 0.5, 3), "_bit_levels"),
        (dense_random_orientation(16, 0.5, 11), "_bit_levels"),
    ],
    ids=[
        "circulant-prunes", "cycle-plain-bfs", "random-plain-bfs", "random-kernel", "small-kernel",
        "kernel-pull",
    ],
)
def test_diameter_among_takes_each_exit(monkeypatch, o, exit_taken):
    """Bounds finish a long circulant, plain BFS a directed cycle with two
    chords, where bounds prune almost nothing, and the bit-parallel kernel a
    short-diameter orientation.

    On the random ones the pivots' largest eccentricity falls short of the
    diameter when the fallback starts, so a fallback that returned too little
    (one that skipped its BFS runs, or pulled the kernel's bits the wrong way
    on the one of seed 11) would fail here."""
    taken = []
    for name in ("_largest_eccentricity", "_bit_levels"):
        fallback = getattr(orientation, name)
        monkeypatch.setattr(
            orientation, name, lambda *a, f=fallback, name=name: taken.append(name) or f(*a)
        )
    diam = directed_diameter(o)
    assert diam == per_vertex_diameter(o) != UNREACHABLE
    assert taken == ([exit_taken] if exit_taken else [])


@settings(max_examples=300, deadline=None)
@given(digraphs_with_sources())
@example((2, [], [0]))  # no arc: the levels run out with a bit unset, the loop-end return
def test_bit_levels_matches_floyd_warshall(case):
    """The kernel on any digraph and source set, unreachable pairs included."""
    assert_bit_levels_matches_floyd_warshall(_bit_levels, *case)
