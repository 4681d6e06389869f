"""Tests for the core-growing construction."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    arbitrary_graphs,
    bridgeless_graphs,
    cyclic_lift,
    expand_schema1,
    floyd_warshall,
    floyd_warshall_without,
    heawood_graph,
    reference_covered_prefix,
    reference_grow_core,
    reference_replay_growth,
    reference_stabilize,
)
from orientdiam.check import _replay_growth, certify, contracted_adjacency
from orientdiam.errors import (
    CertifiedFailureError,
    GraphFormatError,
    InfeasibleSpecError,
    PreconditionError,
)
from orientdiam import growth
from orientdiam.generators import circulant_graph, petersen_graph, random_bridgeless, triangle_chain
from orientdiam.graph import (
    UNREACHABLE,
    Graph,
    LayeredBFS,
    ball,
    bfs_distances,
    bridges_of,
    edge_key,
    girth,
    shortest_path_between,
)
from orientdiam.growth import (
    _covered_prefix,
    _lower,
    _stabilize,
    cover_path,
    grow_core,
)


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


def snapshot_iterations(result) -> list[dict]:
    """The growth iterations as schema 1 wrote them, with the whole core after each."""
    records = expand_schema1(result.trace.to_records())
    return [rec for rec in records if rec["type"] == "growth_iteration"]


def centers_and_claimed(result) -> tuple[tuple[int, ...], frozenset[int]]:
    """B and F as the trace states them: v0 then every iteration's centers, and
    the header's claimed ball with every iteration's added claimed vertices.
    """
    header, iterations = result.trace.header, result.trace.iterations
    b = (header["v0"], *(c for it in iterations for c in it.centers))
    return b, frozenset(header["base_claimed"]).union(*(it.added_claimed for it in iterations))


def failed_checks(g: Graph, result) -> list[dict]:
    return [c for c in certify(g, result.trace.to_records()) if not c["ok"]]


def reverify_growth(g: Graph, result) -> None:
    """Certify the growth trace, plus two checks certify does not make.

    A brute-force bridge test stands as the reference for the lowpoint DFS,
    and every banked ball, not only their union, must meet the floor.
    """
    assert not failed_checks(g, result)
    hdr = result.trace.header
    snapshots = snapshot_iterations(result)
    for rec, snap in zip(result.trace.iterations, snapshots, strict=True):
        check_subgraph_bridgeless(snap["h_vertices"], snap["h_edges"])
        path_edges = list(zip(rec.path, rec.path[1:]))
        excluded = None if rec.fallback else path_edges
        for c in rec.centers:
            assert len(ball(g, c, hdr["radius"], excluded=excluded)) >= hdr["ball_floor"]


def test_detour_fixture_trace():
    r = grow_core(detour_fixture(), 2)
    assert r.trace.header["v0"] == 0
    assert r.trace.header["base_claimed"] == [0, 1, 2, 3, 9]
    assert (r.bound.min_degree, r.bound.girth, r.bound.ball_size) == (2, 3, 3)
    assert (r.bound.scale, r.bound.radius, r.bound.reach) == (1, 1, 3)
    assert len(r.trace.iterations) == 1
    it = r.trace.iterations[0]
    assert it.path == (0, 3, 4, 5)
    assert it.labeled == (9, 8, 7, 6)
    assert it.centers == (7,)
    assert not it.fallback
    assert (it.cover_steps, it.splices, it.labeled_on_path) == (1, 0, 0)
    assert it.added_vertices == (3, 4, 5, 6, 7, 8, 9)
    assert it.added_edges == (
        (0, 3), (0, 9), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9),
    )
    assert it.added_claimed == (6, 7, 8)
    snap = snapshot_iterations(r)[0]
    assert snap["h_vertices"] == [0, 3, 4, 5, 6, 7, 8, 9]
    assert snap["h_edges"] == [
        [0, 3], [0, 9], [3, 4], [4, 5], [5, 6], [6, 7], [7, 8], [8, 9],
    ]
    assert (snap["b"], snap["f"]) == ([0, 7], [0, 1, 2, 3, 6, 7, 8, 9])
    assert sorted(r.core_vertices) == [0, 3, 4, 5, 6, 7, 8, 9]
    b, f = centers_and_claimed(r)
    assert b == (0, 7)
    assert sorted(f) == [0, 1, 2, 3, 6, 7, 8, 9]
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
    assert it.added_vertices == (1, 2, 3, 6, 7)
    assert it.added_claimed == (2, 3, 7)
    snap = snapshot_iterations(r)[0]
    assert snap["h_vertices"] == [0, 1, 2, 3, 6, 7]
    assert snap["h_edges"] == [[0, 1], [0, 6], [1, 2], [2, 3], [3, 7], [6, 7]]
    b, f = centers_and_claimed(r)
    assert b == (0, 3)
    assert sorted(f) == [0, 1, 2, 3, 4, 6, 7]
    assert not failed_checks(splice_fixture(), r)
    reverify_growth(splice_fixture(), r)


def test_multi_iteration_triangle_chain():
    g = triangle_chain(12)
    r = grow_core(g, 2)
    assert len(r.trace.iterations) == 3
    assert r.trace.final["core_vertex_count"] == 19
    assert centers_and_claimed(r)[0] == (2, 8, 14, 20)
    assert all(not it.fallback for it in r.trace.iterations)
    assert all(it.splices == 0 for it in r.trace.iterations)
    sizes = [len(snap["h_vertices"]) for snap in snapshot_iterations(r)]
    assert sizes == [7, 13, 19]
    assert sizes == [1 + sum(len(it.added_vertices) for it in r.trace.iterations[: k + 1])
                     for k in range(3)]
    assert not failed_checks(g, r)
    reverify_growth(g, r)


def test_trivial_core_when_everything_is_close():
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    r = grow_core(triangle, 2)
    assert r.trace.final["iterations"] == 0
    assert sorted(r.core_vertices) == [0]
    assert r.core_edges == frozenset()
    b, f = centers_and_claimed(r)
    assert b == (0,)
    assert sorted(f) == [0, 1, 2]
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


@settings(max_examples=20, deadline=None)
@given(bridgeless_graphs(max_n=25), st.sampled_from([Fraction(1, 2), 1, 2]))
def test_growth_certifies_random_graphs(g, eps):
    r = grow_core(g, eps)
    assert r.core_vertices <= frozenset(range(g.n))
    assert centers_and_claimed(r)[1] <= frozenset(range(g.n))
    reverify_growth(g, r)


def escape_paths_follow_bfs(g: Graph, eps) -> None:
    """Each escape path ends at the smallest vertex at the reach from the core before it.

    The full BFS from the previous core is the reference for the distances
    ``grow_core`` lowers in place.
    """
    r = grow_core(g, eps)
    reach = r.bound.reach
    core = {r.trace.header["v0"]}
    for rec in r.trace.iterations:
        assert rec.path[-1] == bfs_distances(g, core).index(reach)
        assert len(rec.path) - 1 == reach
        core |= set(rec.added_vertices)
    assert max(bfs_distances(g, core)) < reach


@settings(max_examples=20, deadline=None)
@given(bridgeless_graphs(max_n=40), st.sampled_from([Fraction(1, 2), 1]))
def test_escape_paths_follow_bfs_on_random_graphs(g, eps):
    escape_paths_follow_bfs(g, eps)


@pytest.mark.parametrize("perm_seed", [1, 2])
def test_escape_paths_follow_bfs_on_relabeled_circulants(perm_seed):
    perm = list(range(120))
    random.Random(perm_seed).shuffle(perm)
    g = Graph(120, [(perm[u], perm[v]) for u, v in circulant_graph(120, (1, 2)).edges()])
    escape_paths_follow_bfs(g, Fraction(1, 2))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_resumed_label_search_matches_fresh_search(data):
    """A label search deepened step by step holds, at each depth, every vertex
    that close in the reference distances with the path edges deleted.

    Depths run past the eccentricity, so the frontier runs dry, and past
    components the deleted edges cut off; ``met`` is the distance to the
    nearest core vertex once that is within the depth, and a search run to
    the core stops there.
    """
    g = data.draw(st.one_of(arbitrary_graphs(max_n=12), bridgeless_graphs(max_n=30)))
    vertex = st.integers(0, g.n - 1)
    v = data.draw(vertex)
    h_v = set(data.draw(st.lists(vertex, max_size=4)))
    cut = data.draw(st.lists(st.sampled_from(g.edges()), max_size=4)) if g.m else []
    path_edges = frozenset(edge_key(a, b) for a, b in cut)
    depths = sorted(data.draw(st.lists(st.integers(0, g.n + 1), min_size=1, max_size=6)))
    ref = floyd_warshall_without(g, cut)[v]
    to_core = min((ref[x] for x in h_v), default=UNREACHABLE)
    search = LayeredBFS(g._adj, (v,), path_edges, meets=h_v)
    for depth in depths:
        search.deepen(depth)
        assert search.dist == {w: d for w, d in enumerate(ref) if d <= depth}
        assert search.met == (to_core if to_core <= depth else UNREACHABLE)
    probe = LayeredBFS(g._adj, (v,), path_edges, meets=h_v)
    probe.deepen(to_meet=True)
    assert probe.met == to_core
    if to_core != UNREACHABLE:
        assert probe.depth == to_core


def test_resumed_label_search_runs_dry():
    """On P5 without the edge (2, 3), the search from 0 stops after depth 2."""
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    search = LayeredBFS(g._adj, (0,), frozenset({(2, 3)}), meets={4})
    for depth, want in ((1, {0: 0, 1: 1}), (3, {0: 0, 1: 1, 2: 2}), (6, {0: 0, 1: 1, 2: 2})):
        search.deepen(depth)
        assert search.dist == want
        assert search.met == UNREACHABLE
    assert search.frontier == [] and search.depth == 3


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lowered_core_distances_match_reference(data):
    """Distances to a core grown batch by batch, lowered in place by growth's
    ``_lower`` after each batch, equal the nearest core vertex's reference
    distances; clamped at c and lowered to depth c - 1, as ``grow_core``
    does at c = reach + 1, they equal those distances clamped, and the
    vertices returned are those that fell to c - 1."""
    g = data.draw(st.one_of(arbitrary_graphs(max_n=12), bridgeless_graphs(max_n=30)))
    ref = floyd_warshall(g)
    batch = st.sets(st.integers(0, g.n - 1), min_size=1, max_size=4)
    c = data.draw(st.integers(1, 6))
    dist: list[int | float] = [UNREACHABLE] * g.n
    clamped: list[int | float] = [c] * g.n
    core: set[int] = set()
    for added in data.draw(st.lists(batch, min_size=1, max_size=5)):
        added -= core
        core |= added
        before = list(clamped)
        _lower(g, dist, added, g.n)
        fell = _lower(g, clamped, added, c - 1)
        assert dist == [min(ref[x][w] for x in core) for w in range(g.n)]
        assert clamped == [min(d, c) for d in dist]
        assert sorted(fell) == [w for w in range(g.n) if clamped[w] == c - 1 < before[w]]


# ---------------------------------------------------------------------------
# the fast covering steps against the slow bodies they replaced


def _escape_state(rng: random.Random):
    """A random circulant, a fixed connected core, and an escape path out of it.

    The core is vertex 0 alone (as at iteration 0) or a shortest cycle
    through 0; the path is a shortest path from the core to a vertex at
    least two steps away, as ``grow_core`` would pick.
    """
    n = rng.randint(20, 80)
    g = circulant_graph(n, rng.choice([(1, 2), (1, 3), (1, 4), (2, 5)]))
    h_v, h_e = {0}, set()
    if rng.random() < 0.5:
        w = g.neighbors(0)[0]
        back = shortest_path_between(g, (w,), (0,), excluded=[(0, w)])
        h_v = set(back)
        h_e = {edge_key(a, b) for a, b in zip(back, back[1:])} | {edge_key(0, w)}
    dist = bfs_distances(g, h_v)
    target = rng.choice([v for v in range(n) if dist[v] >= 2])
    path = shortest_path_between(g, h_v, (target,))
    return g, h_v, h_e, path


def _label_walk(rng, g, avoid, start, length):
    """Distinct vertices outside ``avoid``, each next to the one before when possible."""
    walk = [start]
    while len(walk) < length:
        options = [w for w in g.neighbors(walk[-1]) if w not in avoid and w not in walk]
        if not options or rng.random() < 0.1:
            options = [w for w in range(g.n) if w not in avoid and w not in walk]
        walk.append(rng.choice(options))
    return walk


def _counters() -> dict:
    return {"cover_steps": 0, "splices": 0, "labeled_on_path": 0}


def _outcome(fn, *args):
    """None, or the message of the CertifiedFailureError fn raised."""
    try:
        fn(*args)
    except CertifiedFailureError as exc:
        return str(exc)
    return None


def test_stabilize_matches_full_bfs_reference():
    """Three label rounds on one cache, as ``cover_path`` makes them: each
    later round scans only the labels past those the round before left clean.

    Each later round grows the label list past the depth the earlier
    rounds' searches reached, so a cache that ignored its depth, or a
    resumed search that lost its frontier, would miss pairs. Every state runs
    twice: with the distances to the core clamped, as ``grow_core`` hands
    them over, and with all zeros, which rule out no pair, so a lower bound
    that hid a violation, or a scan that leaned on one, would differ.
    """
    for seed in range(1200):
        rng = random.Random(seed)
        g, h_v, h_e, path = _escape_state(rng)
        path_set = set(path)
        path_edges = frozenset(edge_key(a, b) for a, b in zip(path, path[1:]))
        avoid = h_v | path_set
        labels = _label_walk(rng, g, avoid, rng.choice(
            [v for v in range(g.n) if v not in avoid]), rng.randint(2, 14))
        cut = rng.randint(1, len(labels) - 1)
        cut2 = rng.randint(cut, len(labels))
        hp_v = h_v | path_set | set(labels)
        hp_e = set(h_e) | set(path_edges) | {
            edge_key(a, b) for a, b in zip(labels, labels[1:]) if g.has_edge(a, b)
        }
        clamp = rng.randint(1, 12)
        to_core = bfs_distances(g, h_v)
        for dist in ([min(d, clamp) for d in to_core], [0] * g.n):
            fast = (set(hp_v), set(hp_e), labels[:cut], _counters())
            slow = (set(hp_v), set(hp_e), labels[:cut], _counters())
            near: dict = {}
            checked = 0
            for extra in (None, labels[cut:cut2], labels[cut2:]):
                if extra:
                    fast[2].extend(x for x in extra if x not in fast[2])
                    slow[2].extend(x for x in extra if x not in slow[2])
                got = _outcome(
                    _stabilize, g, h_v, near, path_set, path_edges,
                    fast[0], fast[1], fast[2], checked, dist, fast[3], 500,
                )
                want = _outcome(
                    reference_stabilize, g, h_v, path_set, path_edges,
                    slow[0], slow[1], slow[2], slow[3], 500,
                )
                assert (got, fast) == (want, slow), f"seed {seed}"
                if want is not None:
                    break
                checked = len(fast[2])


def pair_fallback_state():
    """Core {0}, escape path 0-1-2-3, and labels 8..12 whose ends both touch 2.

    The labels hang off the core by the chain 0-4-5-6-7-8, so each sits at
    least its position away from the core. Labels 8 (position 1) and 12
    (position 5) are two apart only through the path vertex 2, so the
    blocked search finds the length-4 route along the labels and the
    unblocked fallback splices 2 in.
    """
    edges = [(0, 1), (1, 2), (2, 3)]
    edges += [(0, 4), (4, 5), (5, 6), (6, 7), (7, 8)]
    edges += [(8, 9), (9, 10), (10, 11), (11, 12), (2, 8), (2, 12)]
    g = Graph(13, edges)
    path = [0, 1, 2, 3]
    labels = [8, 9, 10, 11, 12]
    path_edges = frozenset(edge_key(a, b) for a, b in zip(path, path[1:]))
    hp_v = {0} | set(path) | set(labels)
    hp_e = set(path_edges) | {edge_key(a, b) for a, b in zip(labels, labels[1:])}
    return g, {0}, set(path), path_edges, hp_v, hp_e, labels


def _stabilize_both(g, h_v, path_set, path_edges, hp_v, hp_e, labels):
    """Run the fast body, with no label known clean and the distances to the
    core as lower bounds, and the reference on copies of one state."""
    fast = (set(hp_v), set(hp_e), list(labels), _counters())
    slow = (set(hp_v), set(hp_e), list(labels), _counters())
    dist = bfs_distances(g, h_v)
    outcomes = []
    for call, state in (
        (lambda v, e, lab, c: _stabilize(
            g, h_v, {}, path_set, path_edges, v, e, lab, 0, dist, c, 500), fast),
        (lambda v, e, lab, c: reference_stabilize(
            g, h_v, path_set, path_edges, v, e, lab, c, 500), slow),
    ):
        try:
            call(*state)
            outcomes.append(None)
        except CertifiedFailureError as exc:
            outcomes.append((str(exc), exc.details))
    return outcomes, fast, slow


def test_stabilize_pair_fallback_crosses_the_escape_path():
    outcomes, fast, slow = _stabilize_both(*pair_fallback_state())
    assert outcomes == [None, None]
    assert fast == slow
    assert fast[2] == [8, 2, 12]
    assert fast[3] == {"cover_steps": 0, "splices": 1, "labeled_on_path": 1}


def test_stabilize_label_inside_the_core_raises_on_both_sides():
    # a pair fallback cannot reach the core: a route through a core vertex is
    # at least m1 + m2 long once no label sits closer to the core than its
    # position, against the m2 - m1 it must beat; so the label is put there
    g, h_v, path_set, path_edges, hp_v, hp_e, _ = pair_fallback_state()
    outcomes, fast, slow = _stabilize_both(g, h_v, path_set, path_edges, hp_v, hp_e, [8, 0])
    want = ("labeled vertex sits inside the core", {"vertex": 0, "position": 2})
    assert outcomes == [want, want]
    assert fast == slow


def test_covered_prefix_matches_whole_subgraph_reference():
    """Bridges with the core contracted agree with bridges of the whole subgraph."""
    for seed in range(1500):
        rng = random.Random(seed)
        g, h_v, h_e, path = _escape_state(rng)
        near_path = bfs_distances(g, path)
        keep = rng.uniform(0.3, 0.9)
        hp_v = h_v | {v for v in range(g.n) if near_path[v] <= 2 and rng.random() < keep}
        hp_e = set(h_e) | {
            (u, v) for u, v in g.edges()
            if u in hp_v and v in hp_v and rng.random() < keep
        }
        want = reference_covered_prefix(path, hp_v, hp_e)
        assert _covered_prefix(g, path, h_v, hp_v - h_v, hp_e) == want, f"seed {seed}"


def test_contracted_adjacency_numbers_the_core_zero():
    # the escape path 1, 5, 3 leaves the triangle core {0, 1, 2}; its new
    # vertices are given first, as _covered_prefix gives them, so path[k] is k
    path = [1, 5, 3]
    edges = [(0, 1), (1, 5), (2, 5), (3, 5)]
    adj = contracted_adjacency({0, 1, 2}, path[1:], edges)
    # the core-core edge is dropped; 5's two edges into the core are parallel at 0
    assert adj == [[1, 1], [0, 0, 2], [1]]
    assert bridges_of(adj) == {(1, 2)}
    assert [(path[a], path[b]) for a, b in bridges_of(adj)] == [(5, 3)]


# ---------------------------------------------------------------------------
# the growth loop against the loop it replaced

EPSILONS = (Fraction(1, 2), 1, 2)


def _growth_outcome(grow, g: Graph, eps):
    """The iterations, final record and core of ``grow(g, eps)``, or what it raised."""
    try:
        r = grow(g, eps)
    except CertifiedFailureError as exc:
        return str(exc), exc.details
    return r.trace.iterations, r.trace.final, r.core_vertices, r.core_edges


def _relabeled_circulant(n: int, steps: tuple[int, ...], seed: int) -> Graph:
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in circulant_graph(n, steps).edges()])


# Growth at eps 1/2 takes one iteration whose second detour ends at path
# vertex 4 (index 2); the splice after it falls back through the escape path
# and labels path vertex 29 (index 4), so the bridge search moves the covered
# prefix to 4, where the detour's end alone would leave it at 2 and spend a
# fourth, zero-length cover step on [29]. Shrunk, by deleting and contracting
# edges, from a subdivided random graph.
PREFIX_MOVED_BY_A_FALLBACK_SPLICE = Graph(
    52,
    [
        tuple(map(int, e.split("-")))
        for e in (
            "0-17 0-20 0-32 1-3 1-20 1-31 2-22 2-46 3-44 4-23 4-30 4-32 4-35 4-36 5-26 "
            "5-27 6-18 6-31 7-25 7-26 7-40 8-12 8-14 9-14 9-23 9-40 9-50 9-51 10-15 "
            "10-17 10-25 10-47 11-34 11-46 12-18 13-37 13-38 14-51 15-45 16-29 16-48 "
            "18-23 18-27 18-38 18-44 19-34 19-41 21-39 21-49 22-33 24-33 24-43 28-36 "
            "28-47 29-30 29-35 29-42 35-49 37-48 39-51 41-45 42-43 44-50"
        ).split()
    ],
)


def test_grow_core_matches_reference_with_and_without_splices():
    """Same iterations, final record and core as the loop that ran the bridge
    search on every cover step and read ``max`` and ``index`` over unclamped
    distances.

    The sample holds iterations that spliced, after which the bridge search
    decides, and iterations that did not, where the prefix follows the
    detours' ends, so neither way of finding the covered prefix goes
    untested. One graph needs the search after a splice: there the detour's
    end is not the covered prefix.
    """
    (it,) = grow_core(PREFIX_MOVED_BY_A_FALLBACK_SPLICE, Fraction(1, 2)).trace.iterations
    assert (it.cover_steps, it.splices, it.labeled_on_path) == (3, 4, 1)
    graphs = [PREFIX_MOVED_BY_A_FALLBACK_SPLICE] + [
        _relabeled_circulant(n, steps, seed)
        for n in (40, 70, 100, 150)
        for steps in ((1, 2), (1, 3))
        for seed in range(3)
    ]
    for n in (20, 30, 40):
        for seed in range(40):
            try:
                graphs.append(random_bridgeless(n, 3 + seed % 2, 3, seed))
            except InfeasibleSpecError:
                pass
    spliced = splice_free = 0
    for g in graphs:
        for eps in EPSILONS:
            got = _growth_outcome(grow_core, g, eps)
            assert got == _growth_outcome(reference_grow_core, g, eps), (g, eps)
            for it in got[0] if isinstance(got[0], list) else ():
                spliced += it.splices > 0
                splice_free += it.cover_steps > 0 and it.splices == 0
    assert spliced >= 20 and splice_free >= 100


def test_grow_core_matches_reference_on_girth_5_and_6_lifts():
    """Growth at g = 5 and g = 6, where centers are every g-th label and the
    balls have radius 2: seeded relabelings of Z_k-lifts of the Petersen and
    Heawood graphs, against the loop that mends every label on every cover
    step with full-graph BFS. The sample holds iterations that take more
    than one cover step and iterations that splice."""
    iterations = spliced = multi_step = 0
    for base, g_val in ((petersen_graph(), 5), (heawood_graph(), 6)):
        for copies in (10, 20, 40):
            for seed in range(4):
                g = cyclic_lift(base, copies, seed)
                assert girth(g) == g_val
                for eps in EPSILONS:
                    got = _growth_outcome(grow_core, g, eps)
                    assert got == _growth_outcome(reference_grow_core, g, eps), (copies, seed, eps)
                    its = got[0]
                    assert isinstance(its, list), got
                    iterations += len(its)
                    spliced += sum(it.splices > 0 for it in its)
                    multi_step += sum(it.cover_steps > 1 for it in its)
    assert iterations >= 60 and spliced >= 20 and multi_step >= 40


@pytest.mark.parametrize(
    "g, iterations, cover_steps",
    [(circulant_graph(500, (1, 2)), 20, 12), (cyclic_lift(petersen_graph(), 100), 1, 1)],
    ids=["circulant-500", "petersen-lift-100"],
)
def test_growth_starts_no_label_search(monkeypatch, g, iterations, cover_steps):
    """Counting, not timing: at eps 1/2 growth starts no label search on
    C_500(1, 2), whose labels after each first detour are cleared by the
    distances to the core, or on the Petersen Z_100-lift (girth 5), whose one
    detour is cleared by the first-step proof. Searching every label on every
    cover step started 220 and 459."""
    starts = []
    search = growth.LayeredBFS
    monkeypatch.setattr(
        growth, "LayeredBFS", lambda *a, **k: starts.append(a[1]) or search(*a, **k)
    )
    its = grow_core(g, Fraction(1, 2)).trace.iterations
    assert [it.cover_steps for it in its] == [cover_steps] * iterations
    assert starts == []


def test_cover_path_budget_counts_cover_steps_and_splices():
    """The one iteration takes 3 cover steps and 4 splices: a budget of 7
    rounds is enough, 6 stops at the last splice and 0 at the first step."""
    g = PREFIX_MOVED_BY_A_FALLBACK_SPLICE
    (it,) = grow_core(g, Fraction(1, 2)).trace.iterations
    path = list(it.path)
    dist = bfs_distances(g, (path[0],))
    *_, labeled, counters = cover_path(g, {path[0]}, path, 7, dist)
    assert (tuple(labeled), counters["cover_steps"] + counters["splices"]) == (it.labeled, 7)
    for budget, details in (
        (6, {"labeled": [44, 3, 1, 20, 0, 17, 10, 15, 45, 41, 19, 34]}),
        (0, {"path": path, "covered": 0}),
    ):
        with pytest.raises(CertifiedFailureError, match="exceeded its round budget") as exc:
            cover_path(g, {path[0]}, path, budget, dist)
        assert exc.value.details == details


@settings(max_examples=60, deadline=None)
@given(bridgeless_graphs(max_n=40), st.sampled_from(EPSILONS))
def test_grow_core_matches_reference_on_random_graphs(g, eps):
    assert _growth_outcome(grow_core, g, eps) == _growth_outcome(reference_grow_core, g, eps)


def test_grow_core_pinned_at_ten_thousand_vertices():
    """SHA-256 of json.dumps(trace records, sort_keys=True) of 433 growth
    iterations on C_10^4(1, 2), taken from the loop whose every iteration
    paid terms sized by the core; growth now costs about 0.5 s there, and
    took about 3 to 4 s then.
    """
    r = grow_core(circulant_graph(10**4, (1, 2)), Fraction(1, 2))
    assert len(r.trace.iterations) == 433
    records = json.dumps(r.trace.to_records(), sort_keys=True).encode()
    assert hashlib.sha256(records).hexdigest() == (
        "46c12535775e7e84a47b8e01885b8fb4862176880272fd26cae1ba4c40ef48e8"
    )


# ---------------------------------------------------------------------------
# the incremental replay against the snapshot replay it replaced


@st.composite
def growth_traces(draw):
    """A graph and the schema-2 growth records of one grow_core run on it.

    Small random graphs rarely grow past their first vertex below eps = 2
    (and some of them are refused there), so relabeled circulants, which
    take several iterations, are drawn too.
    """
    if draw(st.booleans()):
        g = draw(bridgeless_graphs(max_n=40))
        eps = 2
    else:
        n = draw(st.integers(40, 150))
        perm = draw(st.permutations(range(n)))
        base = circulant_graph(n, draw(st.sampled_from([(1, 2), (1, 3)])))
        g = Graph(n, [(perm[u], perm[v]) for u, v in base.edges()])
        eps = draw(st.sampled_from([1, 2]))
    r = grow_core(g, eps)
    return g, r.bound, r.trace.to_records()


def _edit_iteration(data, records, edit):
    """Apply one named edit to a random growth iteration of the records, in place."""
    iterations = records[1:-1]
    if edit == "none" or not iterations:
        return
    i = data.draw(st.integers(0, len(iterations) - 1))
    rec = iterations[i]
    earlier = iterations[:i]
    if edit == "drop_added_edge":
        del rec["added_edges"][data.draw(st.integers(0, len(rec["added_edges"]) - 1))]
    elif edit == "core_vertex_added":
        # listed again, a core vertex is malformed to the incremental replay;
        # the snapshot replay takes it out and finds its core edges left
        # behind, so it refuses the record as malformed too
        core = [records[0]["v0"], *(v for it in earlier for v in it["added_vertices"])]
        rec["added_vertices"] = sorted({*rec["added_vertices"], data.draw(st.sampled_from(core))})
    elif edit == "core_edge_added" and earlier:
        core = [e for it in earlier for e in it["added_edges"]]
        rec["added_edges"] = sorted([*rec["added_edges"], data.draw(st.sampled_from(core))])
    elif edit == "drop_claimed" and rec["added_claimed"]:
        del rec["added_claimed"][data.draw(st.integers(0, len(rec["added_claimed"]) - 1))]
    elif edit == "repeat_center":
        centers = [records[0]["v0"], *(c for it in earlier for c in it["centers"])]
        rec["centers"].append(data.draw(st.sampled_from(centers + rec["centers"])))


def _replay_outcome(replay, g, bound, records):
    """The replay's result, or the type of the format error it raised."""
    header, *iterations, final = records
    try:
        return replay(g, header, iterations, final, bound)
    except GraphFormatError:
        return GraphFormatError


@settings(max_examples=150, deadline=None)
@given(
    growth_traces(),
    st.sampled_from(
        [
            "none", "drop_added_edge", "core_vertex_added", "core_edge_added", "drop_claimed",
            "repeat_center",
        ]
    ),
    st.data(),
)
def test_incremental_replay_matches_snapshot_replay(trace, edit, data):
    """Same first failure, final core and distance as the snapshot replay, on
    valid traces and on edited ones.

    A core edge added again is compared on the first failure only:
    ``expand_schema1`` applies it as a difference, so the snapshot replay's
    core loses the edge that the additions-only replay keeps.
    """
    g, bound, records = trace
    _edit_iteration(data, records, edit)
    snapshots = expand_schema1(records)
    want = _replay_outcome(reference_replay_growth, g, bound, snapshots)
    got = _replay_outcome(_replay_growth, g, bound, records)
    if edit == "core_edge_added":
        got, want = got[0], want[0]
    assert got == want


def test_repeated_center_fails_centers_fresh_on_both_replays():
    """Where property 2 has room for one more center, a repeated one fails
    ``centers_fresh`` itself (the random edits above trip property 2 first).
    """
    g = triangle_chain(12)
    r = grow_core(g, 2)
    records = r.trace.to_records()
    records[2]["centers"].append(records[0]["v0"])
    want = "iteration 1: centers_fresh (|H|=13 |F|=15 |B|=4, floor 3, girth 3)"
    assert _replay_outcome(_replay_growth, g, r.bound, records)[0] == want
    assert _replay_outcome(reference_replay_growth, g, r.bound, expand_schema1(records))[0] == want
