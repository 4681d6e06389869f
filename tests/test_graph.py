"""Graph container, BFS, metrics, bridge finding, and the text format."""

from __future__ import annotations

from contextlib import suppress
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    arbitrary_graphs,
    bridgeless_graphs,
    bridges_by_removal,
    floyd_warshall,
    floyd_warshall_without,
    girth_by_edge_removal,
    reference_dfs_forest,
    reference_girth,
    reference_shortest_path,
)
from orientdiam import graph
from orientdiam.errors import GraphFormatError, InfeasibleSpecError
from orientdiam.generators import (
    complete_graph, corpus, cycle_graph, generate, petersen_graph, random_bridgeless,
)
from orientdiam.graph import (
    UNREACHABLE,
    Graph,
    all_distances,
    ball,
    bfs_distances,
    bridge_witness,
    bridges_of,
    dfs_forest,
    diameter,
    edge_key,
    format_graph,
    girth,
    is_bridgeless_connected,
    min_degree,
    parse_graph,
    shortest_path_between,
)

P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])


def test_graph_basics():
    g = Graph(4, [(0, 1), (2, 1), (0, 3)])
    assert g.n == 4 and g.m == 3
    assert g.neighbors(1) == (0, 2)
    assert g.degree(0) == 2
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(1, 3)
    assert g.edges() == [(0, 1), (0, 3), (1, 2)]


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_edge_key_orders_endpoints():
    assert edge_key(5, 2) == (2, 5)
    assert edge_key(2, 5) == (2, 5)


def test_bfs_distances_cycle():
    g = cycle_graph(6)
    assert bfs_distances(g, (0,)) == [0, 1, 2, 3, 2, 1]


def test_bfs_distances_excluded_edge():
    """With the edge 0-1 deleted, 1 lies 5 from 0 around the 6-cycle."""
    g = cycle_graph(6)
    assert 1 not in ball(g, 0, 4, excluded=((0, 1),))
    assert 1 in ball(g, 0, 5, excluded=((0, 1),))


def test_bfs_distances_multisource():
    assert bfs_distances(P4, (0, 3)) == [0, 1, 1, 0]


def test_shortest_path_lexicographic():
    g = cycle_graph(6)
    assert shortest_path_between(g, (0,), (3,)) == [0, 1, 2, 3]
    assert shortest_path_between(g, (0,), (4,)) == [0, 5, 4]


def test_shortest_path_prefers_smallest_source():
    g = cycle_graph(6)
    assert shortest_path_between(g, (0, 2), (1,)) == [0, 1]


def test_shortest_path_unreachable_and_errors():
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert shortest_path_between(two_edges, (0,), (3,)) is None
    assert shortest_path_between(P4, (0,), (3,), blocked=(2,)) is None
    assert shortest_path_between(P4, (1, 3), (1,)) == [1]
    bad_inputs = [
        ((), (1,), ()),  # no source
        ((0,), (), ()),  # no target
        ((0,), (4,), ()),  # target out of range
        ((0,), (3,), (3,)),  # blocked target
        ((4,), (1,), ()),  # source out of range
        ((0, 4), (1,), ()),  # source out of range, the larger end
    ]
    for sources, targets, blocked in bad_inputs:
        with pytest.raises(ValueError):
            shortest_path_between(P4, sources, targets, blocked=blocked)


def test_shortest_path_range_check_runs_on_every_call():
    """Both ends are checked on every call, whichever is the larger: a set
    reused for a smaller graph, or changed in between, raises again.
    """
    core = frozenset({1, 2})
    assert shortest_path_between(P4, (0,), core) == [0, 1]
    assert shortest_path_between(P4, (3,), core) == [3, 2]
    with pytest.raises(ValueError):
        shortest_path_between(P4, (0,), frozenset({1, 4}))
    with pytest.raises(ValueError):
        shortest_path_between(Graph(2, [(0, 1)]), (0,), core)  # the same one, smaller n
    with pytest.raises(ValueError):
        shortest_path_between(P4, {0, 1, 4}, (3,))  # a source out of range, the larger end
    reused = {1, 2}
    assert shortest_path_between(P4, (0,), reused) == [0, 1]
    reused.add(4)
    with pytest.raises(ValueError):
        shortest_path_between(P4, (0,), reused)  # a mutable set, changed in between
    with pytest.raises(ValueError):
        shortest_path_between(P4, (0,), reused)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_shortest_path_matches_reference(data):
    """The early-exit search equals the full BFS from the targets it replaced.

    Sources range up to every vertex, so both ends are drawn as the smaller
    one: the search from the targets with blocked vertices and excluded
    edges as well as the search from the sources.
    """
    g = data.draw(
        st.one_of(
            arbitrary_graphs(max_n=10),
            bridgeless_graphs(max_n=30),
            st.builds(cycle_graph, st.integers(3, 30)),
        )
    )
    vertex = st.integers(0, g.n - 1)
    sources = data.draw(st.lists(vertex, min_size=1, max_size=g.n))
    if data.draw(st.booleans()):
        sources = set(sources)  # read in place when it is the larger end
    targets = data.draw(st.lists(vertex, min_size=1, max_size=3))
    if data.draw(st.integers(0, 9)) == 0:
        targets.append(g.n)  # out of range: both raise
    blocked = data.draw(st.lists(vertex, max_size=2))
    excluded = []
    if g.m:
        for u, v in data.draw(st.lists(st.sampled_from(g.edges()), max_size=3)):
            excluded.append((v, u) if data.draw(st.booleans()) else (u, v))

    def outcome(search):
        try:
            return search(g, sources, targets, excluded=excluded, blocked=blocked)
        except ValueError:
            return ValueError

    assert outcome(shortest_path_between) == outcome(reference_shortest_path)


def test_diameter_frozen_values():
    assert diameter(cycle_graph(8)) == 4
    assert diameter(complete_graph(5)) == 1
    assert diameter(petersen_graph()) == 2
    assert diameter(P4) == 3


@pytest.mark.parametrize(
    "g, searches",
    [(cycle_graph(8), 8), (Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]), 1)],
    ids=["connected", "two-triangles"],
)
def test_diameter_runs_one_bfs_per_vertex_until_one_misses(monkeypatch, g, searches):
    calls = []
    bfs = graph._bfs_among
    monkeypatch.setattr(graph, "_bfs_among", lambda *a: calls.append(a) or bfs(*a))
    diameter(g)
    assert len(calls) == searches


def test_girth_frozen_values():
    assert girth(complete_graph(4)) == 3
    assert girth(cycle_graph(7)) == 7
    assert girth(petersen_graph()) == 5
    assert girth(P4) == UNREACHABLE


def test_ball_with_and_without_removed_edges():
    g = cycle_graph(6)
    assert ball(g, 0, 2) == {0, 1, 2, 4, 5}
    assert ball(g, 0, 2, excluded=[(0, 1)]) == {0, 4, 5}
    assert ball(g, 0, 0) == {0}


def test_bridges_frozen_values():
    assert bridges_of(P4.adjacency()) == {(0, 1), (1, 2), (2, 3)}
    assert bridges_of(cycle_graph(6).adjacency()) == set()
    bowtie = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert bridges_of(bowtie.adjacency()) == set()


def test_bridges_of_parallel_edges():
    assert bridges_of([[1, 1], [0, 0]]) == set()
    assert bridges_of([[1], [0, 2, 2], [1, 1]]) == {(0, 1)}


def test_dfs_forest_order_and_roots():
    # roots ascending, neighbors in the order given, parent -1 at each root
    disc, parent, br = dfs_forest([[2, 1], [0], [0], []])
    assert disc == [0, 2, 1, 3]
    assert parent == [-1, 0, 0, -1]
    assert br == {(0, 1), (0, 2)}


def test_is_bridgeless_connected():
    assert is_bridgeless_connected(cycle_graph(5))
    assert not is_bridgeless_connected(P4)
    assert not is_bridgeless_connected(Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))


def test_bridge_witness_frozen_values():
    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert bridge_witness(cycle_graph(5).adjacency()) is None
    assert bridge_witness(Graph(1, []).adjacency()) is None
    assert bridge_witness(P4.adjacency()) == (0, 1)
    assert bridge_witness(two_triangles.adjacency()) == "disconnected"
    assert bridge_witness([]) == "disconnected"
    # parallel edges are never bridges, and the DFS still counts two roots
    assert bridge_witness([[1, 1], [0, 0], [3, 3], [2, 2]]) == "disconnected"
    # bridges come first: a disconnected graph with a bridge names the bridge
    assert bridge_witness(Graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)]).adjacency()) == (3, 4)


@settings(max_examples=100, deadline=None)
@given(arbitrary_graphs(max_n=8))
def test_bridge_witness_matches_references(g):
    br = bridges_by_removal(g)
    connected = max(max(row) for row in floyd_warshall(g)) != UNREACHABLE
    expected = min(br) if br else (None if connected else "disconnected")
    assert bridge_witness(g.adjacency()) == expected


def test_min_degree():
    assert min_degree(petersen_graph()) == 3
    assert min_degree(P4) == 1


def test_parse_format_round_trip():
    g = petersen_graph()
    assert parse_graph(format_graph(g)) == g
    text = "# a comment\n3 2\n0 1 # trailing\n1 2\n"
    h = parse_graph(text)
    assert h == Graph(3, [(0, 1), (1, 2)])
    assert format_graph(h, comment="a comment") == "# a comment\n3 2\n0 1\n1 2\n"


def test_parse_rejects_malformed_input():
    for text in ["", "garbage", "3 1\n0 1\n1 2", "3 2\n0 1", "2 1\n0 2", "2 1\n0 0", "2 2\n0 1\n1 0"]:
        with pytest.raises(GraphFormatError):
            parse_graph(text)


@settings(max_examples=150, deadline=None)
@given(arbitrary_graphs(), st.data())
def test_bfs_matches_floyd_warshall(g, data):
    """From one source, and from a source set with one source listed twice
    and passed as a generator: the nearest source's distance, its early stop
    counting the repeated source once."""
    ref = floyd_warshall(g)
    for s in range(g.n):
        assert bfs_distances(g, (s,)) == ref[s]
    sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=4))
    want = [min(ref[s][w] for s in sources) for w in range(g.n)]
    assert bfs_distances(g, [*sources, sources[0]]) == want
    assert bfs_distances(g, (s for s in sources)) == want


def test_all_distances_refuses_no_source_and_out_of_range():
    for sources in ((), iter(())):
        with pytest.raises(ValueError, match="need at least one source"):
            all_distances(P4._adj, sources)
    for sources in ((0, 4), (-1,)):
        with pytest.raises(ValueError, match="source out of range for n=4"):
            all_distances(P4._adj, sources)


@settings(max_examples=100, deadline=None)
@given(arbitrary_graphs())
def test_diameter_matches_floyd_warshall(g):
    ref = floyd_warshall(g)
    assert diameter(g) == max(max(row) for row in ref)


@settings(max_examples=100, deadline=None)
@given(arbitrary_graphs(max_n=8))
def test_girth_matches_edge_removal_reference(g):
    assert girth(g) == girth_by_edge_removal(g)


def test_girth_matches_reference_on_corpora_and_random_families():
    """Every corpus profile at seeds 0-9, and random graphs with girth floors 3-7."""
    graphs = {
        generate(spec)
        for seed in range(10)
        for profile in ("tiny", "small", "girth", "dense")
        for spec in corpus(profile, seed)
    }
    for floor in range(3, 8):
        for n, delta, seed in product((20, 40, 80), (2, 3), range(4)):
            with suppress(InfeasibleSpecError):
                graphs.add(random_bridgeless(n, delta, floor, seed))
    assert len(graphs) > 150
    assert {int(reference_girth(g)) for g in graphs} >= set(range(3, 8))
    assert [g for g in graphs if girth(g) != reference_girth(g)] == []


@st.composite
def relabeled_sparse_graphs(draw):
    """A forest (a vertex may join no earlier one: isolated vertices and
    disconnected graphs) with up to three more edges, relabeled at random.
    """
    n = draw(st.integers(min_value=1, max_value=16))
    edges = {
        (v, draw(st.integers(0, v - 1))) for v in range(1, n) if draw(st.booleans())
    }
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        edges |= set(draw(st.lists(pairs, max_size=3)))
    label = draw(st.permutations(range(n)))
    return Graph(n, {edge_key(label[u], label[v]) for u, v in edges})


@settings(max_examples=300, deadline=None)
@given(st.one_of(relabeled_sparse_graphs(), arbitrary_graphs(max_n=12)))
def test_girth_matches_reference_on_sparse_and_arbitrary_graphs(g):
    assert girth(g) == reference_girth(g)


@settings(max_examples=100, deadline=None)
@given(arbitrary_graphs(max_n=8))
def test_bridges_match_removal_reference(g):
    assert bridges_of(g.adjacency()) == bridges_by_removal(g)


def _component_count(n: int, pairs: list[tuple[int, int]]) -> int:
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    count = n
    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
            count -= 1
    return count


@st.composite
def multigraphs(draw) -> tuple[int, list[tuple[int, int]]]:
    """A vertex count and its edges as vertex pairs; a repeated pair is a parallel edge."""
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
            max_size=14,
        )
    )
    return n, pairs


def multigraph_lists(n: int, pairs: list[tuple[int, int]]) -> list[list[int]]:
    """Neighbor lists indexed by vertex, one entry per edge end."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return adj


@settings(max_examples=150, deadline=None)
@given(multigraphs())
def test_bridges_of_multigraph_matches_copy_removal(multigraph):
    """A repeated neighbor is a parallel edge: deleting one copy must split a component."""
    n, pairs = multigraph
    base = _component_count(n, pairs)
    expected = {
        edge_key(*pairs[i])
        for i in range(len(pairs))
        if _component_count(n, pairs[:i] + pairs[i + 1 :]) > base
    }
    assert bridges_of(multigraph_lists(n, pairs)) == expected


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        arbitrary_graphs().map(Graph.adjacency),
        multigraphs().map(lambda m: multigraph_lists(*m)),
    )
)
def test_dfs_forest_matches_reference(adj):
    """The search on vertex-indexed lists visits, parents and bridges as the
    dict-keyed one did, isolated vertices, components and parallel edges included."""
    disc, parent, br = dfs_forest(adj)
    ref_disc, ref_parent, ref_br = reference_dfs_forest(dict(enumerate(adj)))
    assert disc == [ref_disc[v] for v in range(len(adj))]
    assert parent == [ref_parent[v] for v in range(len(adj))]
    assert br == ref_br


@settings(max_examples=100, deadline=None)
@given(arbitrary_graphs(), st.integers(min_value=0, max_value=5), st.data())
def test_ball_matches_reference_distances(g, depth, data):
    pool = g.edges()
    excluded = data.draw(st.lists(st.sampled_from(pool), max_size=3)) if pool else []
    ref = floyd_warshall_without(g, excluded)
    for v in range(g.n):
        want = {w for w in range(g.n) if ref[v][w] <= depth}
        assert ball(g, v, depth, excluded=excluded) == want
        assert ball(g, v, depth, excluded=[(b, a) for a, b in excluded]) == want


@settings(max_examples=80, deadline=None)
@given(arbitrary_graphs())
def test_shortest_path_length_matches_distance(g):
    d = bfs_distances(g, (0,))
    for t in range(g.n):
        if d[t] == UNREACHABLE:
            continue
        path = shortest_path_between(g, (0,), (t,))
        assert len(path) == d[t] + 1
        assert path[0] == 0 and path[-1] == t
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)
