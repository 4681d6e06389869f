"""Tests for extending a strong core orientation to the whole graph."""

import importlib
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import orientdiam
from conftest import (
    bridgeless_graphs,
    perfbench_module,
    reference_chain_offset,
    reference_directed_distance,
    reference_escape_path,
    reference_round_trips,
)
from orientdiam import extension, graph
from orientdiam.check import bounded_diameter_of_arcs
from orientdiam.errors import CertifiedFailureError, PreconditionError
from orientdiam.extension import (
    EscapeSearch,
    _chain_offset,
    core_directed_diameter,
    extend_orientation,
)
from orientdiam.generators import (
    complete_graph,
    circulant_graph,
    corpus,
    cycle_graph,
    generate,
    petersen_graph,
    random_bridgeless,
    theta_graph,
    triangle_chain,
)
from orientdiam.graph import Graph
from orientdiam.pipeline import run_pipeline
from orientdiam.orientation import Orientation, directed_diameter, is_strong


def rounds_of(trace):
    return [r for r in trace.records if r["type"] == "extension_round"]


def steps_of(trace):
    return [r for r in trace.records if r["type"] == "extension_step"]


def test_singleton_core_triangle():
    o, t = extend_orientation(cycle_graph(3), {0}, [])
    assert t.records[0]["s"] == 1
    assert t.records[0]["allowed_increase"] == 4
    assert t.final["diameter"] == 2
    assert t.final["increase"] == 2
    assert t.final["rounds"] == 1
    assert is_strong(o) and directed_diameter(o) == 2


def test_singleton_core_complete_graphs():
    for k, diam in ((4, 3), (5, 3)):
        o, t = extend_orientation(complete_graph(k), {0}, [])
        assert t.final["diameter"] == diam
        assert t.final["increase"] == diam <= t.records[0]["allowed_increase"] == 4
        assert is_strong(o)


def test_singleton_core_long_cycle_one_round():
    o, t = extend_orientation(cycle_graph(8), {0}, [])
    assert t.records[0]["s"] == 4
    assert t.records[0]["allowed_increase"] == 40
    assert t.final["rounds"] == 1  # the escape path absorbs the whole cycle
    assert t.final["diameter"] == 7
    rnd = rounds_of(t)[0]
    assert rnd["frontier"] == [1, 7]
    assert rnd["absorbed"] == [1, 2, 3, 4, 5, 6, 7]
    assert rnd["roundtrip_max"] == 8
    assert rnd["roundtrip_probe_ok"]


def test_bowtie_hits_allowed_increase_exactly():
    bowtie = Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    o, t = extend_orientation(bowtie, {0}, [])
    assert t.final["increase"] == 4 == t.final["allowed_increase"]
    assert t.final["ok"]
    assert [s["case"] for s in steps_of(t)] == ["core", "core"]


def test_multi_round_promotion_petersen():
    o, t = extend_orientation(petersen_graph(), {0}, [])
    assert t.records[0]["s"] == 2
    assert t.final["rounds"] == 2
    assert t.final["diameter"] == 8
    assert t.final["increase"] == 8 <= 12 == t.final["allowed_increase"]
    r1, r2 = rounds_of(t)
    assert (r1["s"], r2["s"]) == (2, 1)
    assert r1["frontier"] == [1, 4, 5]
    assert r1["absorbed"] == [1, 2, 3, 4, 5, 7]
    assert r2["frontier"] == [6, 8, 9]
    assert len(steps_of(t)) == 5


def test_multi_round_triangle_chain():
    o, t = extend_orientation(triangle_chain(4), {0}, [])
    assert [r["s"] for r in rounds_of(t)] == [4, 3, 2, 1]
    assert all(s["case"] == "core" for s in steps_of(t))
    assert t.final["diameter"] == 8
    assert is_strong(o)


def test_chain_case_window_choices():
    o, t = extend_orientation(circulant_graph(12, (1, 2)), {0}, [])
    cases = [s["case"] for s in steps_of(t)]
    assert cases.count("chain") == 2
    assert all(
        not s["window_empty"] for s in steps_of(t) if s["case"] == "chain"
    )
    assert t.final["diameter"] == 7
    assert [r["s"] for r in rounds_of(t)] == [3, 2, 1]


def test_chain_offset_matches_two_window_reference():
    """One clamp into -i..i picks the offset the two nested windows picked."""
    for i in range(1, 40):
        for a_val in range(120):
            for b_val in range(120):
                want = reference_chain_offset(i, a_val, b_val)
                assert _chain_offset(i, a_val, b_val) == want, (i, a_val, b_val)


def test_oriented_core_is_respected():
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    o, t = extend_orientation(petersen_graph(), {0, 1, 2, 3, 4}, outer)
    assert t.records[0]["core_diameter"] == 4
    assert t.records[0]["s"] == 1
    assert t.final["diameter"] == 6
    assert t.final["increase"] == 2 <= 4
    for tail, head in outer:
        assert o.direction(tail, head) == head


def test_core_must_be_strong():
    with pytest.raises(CertifiedFailureError, match="not strongly connected"):
        extend_orientation(cycle_graph(6), {0, 1}, [(0, 1)])


def test_core_must_be_nonempty_and_reach_everything():
    with pytest.raises(PreconditionError, match="non-empty"):
        extend_orientation(cycle_graph(4), set(), [])
    two = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(PreconditionError, match="reach"):
        extend_orientation(two, {0}, [])


def test_core_arcs_must_join_core_vertices():
    with pytest.raises(PreconditionError, match="join core vertices"):
        extend_orientation(cycle_graph(6), {0, 1, 2}, [(0, 1), (1, 2), (2, 3)])


def test_extension_header_reach_frozen():
    """The header's s is the largest distance from a vertex to the core."""
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    for g, core, arcs, s in (
        (cycle_graph(6), {0}, [], 3),
        (triangle_chain(4), {0, 1, 2}, [(0, 1), (1, 2), (2, 0)], 3),
        (petersen_graph(), set(range(5)), outer, 1),
        (cycle_graph(5), set(range(5)), outer, 0),
    ):
        _, t = extend_orientation(g, core, arcs)
        assert t.records[0]["s"] == s


def test_core_directed_diameter_frozen():
    g = cycle_graph(5)
    o = Orientation(g)
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)):
        o.assign(a, b)
    assert core_directed_diameter(range(5), o.arcs()) == 4
    assert core_directed_diameter({2}, o.arcs()) == 0


def test_core_directed_diameter_ignores_arcs_outside_the_core():
    """A directed 4-cycle core, each vertex i with a two-arc detour i -> 4+i ->
    i-1 outside it: through the detours every core pair is within 2, but on
    the core's own arcs 0 reaches 3 only in 3."""
    detours = [(i, 4 + i) for i in range(4)] + [(4 + i, (i - 1) % 4) for i in range(4)]
    cycle = [(i, (i + 1) % 4) for i in range(4)]
    o = Orientation(Graph(8, cycle + detours))
    for t, h in cycle + detours:
        o.assign(t, h)
    assert core_directed_diameter(range(4), o.arcs()) == 3 == bounded_diameter_of_arcs(4, cycle)


@settings(max_examples=20, deadline=None)
@given(bridgeless_graphs(max_n=30))
def test_extension_certifies_random_graphs(g):
    o, t = extend_orientation(g, {0}, [])
    assert o.is_complete()
    assert is_strong(o)
    assert directed_diameter(o) == t.final["diameter"]
    assert t.final["increase"] <= t.final["allowed_increase"]
    svals = [r["s"] for r in rounds_of(t)]
    assert svals == sorted(svals, reverse=True) and len(set(svals)) == len(svals)
    absorbed = [v for r in rounds_of(t) for v in r["absorbed"]]
    assert sorted(absorbed) == [v for v in range(g.n) if v != 0]


def test_frontier_vertex_without_a_second_route_is_refused():
    """A pendant vertex next to a triangle core has only the edge to its anchor."""
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    with pytest.raises(CertifiedFailureError, match="no second route") as info:
        extend_orientation(g, {0, 1, 2}, [(0, 1), (1, 2), (2, 0)])
    assert info.value.details == {"vertex": 3}


ESCAPE_FAMILIES = {
    "corpus": lambda: [
        generate(spec)
        for seed in range(10)
        for profile in ("tiny", "small", "girth", "dense")
        for spec in corpus(profile, seed)
    ],
    "random": lambda: [random_bridgeless(800, 4, 3, s) for s in range(6)]
    + [random_bridgeless(300, 3, 5, s) for s in range(6)],
    "circulant": lambda: [case.make() for case in perfbench_module("workloads").circulant_grow(0)[:3]]
    + [circulant_graph(n, (1, 3)) for n in (7, 20, 41)],
}


def _record_searches(monkeypatch) -> list[EscapeSearch]:
    """Every EscapeSearch that extend_orientation builds from now on; each
    keeps ``seeded``, its core and boundary, None for a whole-core search."""
    made: list[EscapeSearch] = []

    class Recorded(EscapeSearch):
        __slots__ = ("seeded",)

        def __init__(self, g, core, boundary=None):
            super().__init__(g, core, boundary)
            self.seeded = None if boundary is None else (frozenset(core), list(boundary))
            made.append(self)

    monkeypatch.setattr(extension, "EscapeSearch", Recorded)
    return made


SEARCH_FIELDS = ("dist", "owner", "dprime", "frontier", "reach", "unreached", "anchor", "length")


def _check_seeded(g: Graph, search: EscapeSearch) -> bool:
    """A search seeded at its boundary equals the whole-core search field by
    field; returns whether it was seeded."""
    if search.seeded is None:
        return False
    core, boundary = search.seeded
    # the premise: no other core vertex has a neighbour outside the core
    assert all(core.issuperset(g.neighbors(c)) for c in core.difference(boundary))
    whole = EscapeSearch(g, core)
    for field in SEARCH_FIELDS:
        assert getattr(search, field) == getattr(whole, field), field
    return True


def _check_labels(monkeypatch) -> list[int]:
    """Check the round-trip labels from now on against directed BFS: before
    each chain step, the absorbed end's two labels, on the orientation as the
    step sees it; at the end of each round, every new vertex's labels against
    the whole-core probe. Returns the sizes of the checked rounds.

    Wraps whatever ``EscapeSearch`` is installed: the one built from a
    round's new vertices ends that round.
    """
    sizes: list[int] = []
    # the round's orientation, absorbed set, a_start and label dicts
    now: dict = {}
    absorb, search = extension._absorb, extension.EscapeSearch

    def checked(o, absorbed, to_core, from_core, v, anchor, q):
        if now.get("to_core") is not to_core:
            # a round's first step: nothing is absorbed beyond a_start yet
            assert not to_core and not from_core
            now.update(o=o, absorbed=absorbed, a_start=frozenset(absorbed),
                       to_core=to_core, from_core=from_core)
        vprime = next(x for x in q[1:] if x in absorbed)
        chain = vprime in to_core
        if chain:
            a_val = reference_directed_distance(o, vprime, now["a_start"])
            b_val = reference_directed_distance(o, vprime, now["a_start"], reverse=True)
            assert (to_core[vprime], from_core[vprime]) == (a_val, b_val)
        rec = absorb(o, absorbed, to_core, from_core, v, anchor, q)
        if chain:
            # the step reads its window off those two distances
            assert (rec["j"], rec["window_empty"]) == _chain_offset(len(q) - 1, a_val, b_val)
        return rec

    def round_end(g, core, boundary=None):
        if boundary is not None:
            new = list(boundary)
            assert new == sorted(now["to_core"]) and core is now["absorbed"]
            want = reference_round_trips(now["o"], now["a_start"], new)
            assert (now["to_core"], now["from_core"]) == want
            sizes.append(len(new))
        return search(g, core, boundary)

    monkeypatch.setattr(extension, "_absorb", checked)
    monkeypatch.setattr(extension, "EscapeSearch", round_end)
    return sizes


def _check_escapes(g: Graph, search: EscapeSearch) -> list[int]:
    """Every frontier vertex's escape path and length against the reference;
    returns the lengths."""
    core = frozenset(v for v in range(g.n) if search.dist[v] == 0)
    assert search.frontier == sorted(
        v for v in range(g.n) if v not in core and not core.isdisjoint(g.neighbors(v))
    )
    lengths = []
    for v in search.frontier:
        assert search.anchor[v] == min(w for w in g.neighbors(v) if w in core)
        want = reference_escape_path(g, core, v, search.anchor[v])
        assert search.path(v) == want, v
        assert search.length[v] == len(want) - 1
        lengths.append(len(want) - 1)
    return lengths


@pytest.mark.parametrize("family", sorted(ESCAPE_FAMILIES))
def test_escape_paths_match_the_reference_search_every_round(family, monkeypatch):
    """Each round's labelled search gives every frontier vertex the path the
    per-vertex search gives, in every round of every run, refusals included;
    each search seeded at the last round's new vertices equals the
    whole-core search, and the round-trip labels equal directed BFS."""
    searches = _record_searches(monkeypatch)
    probes = _check_labels(monkeypatch)
    lengths = []
    seeded = 0
    for g in ESCAPE_FAMILIES[family]():
        for eps in (Fraction(1, 2), Fraction(2)):
            searches.clear()
            try:
                run_pipeline(g, eps)
            except CertifiedFailureError:
                pass
            assert searches
            for search in searches:
                lengths += _check_escapes(g, search)
                seeded += _check_seeded(g, search)
    assert lengths and seeded and probes
    if family != "circulant":
        # the region search runs only where every other neighbour is owned
        assert max(lengths) >= 4


@pytest.mark.parametrize("g", [cycle_graph(9), theta_graph(3, 5, 6), petersen_graph()])
def test_escape_paths_through_a_region_match_the_reference(g):
    """From every singleton core: long escapes, which only the region search finds."""
    lengths = [L for c in range(g.n) for L in _check_escapes(g, EscapeSearch(g, {c}))]
    assert max(lengths) >= 4


@settings(max_examples=40, deadline=None)
@given(bridgeless_graphs(max_n=30))
def test_escape_paths_match_the_reference_on_random_graphs(g):
    """From a one-vertex and a three-vertex core, and each grown by one
    frontier vertex."""
    for core in ({0}, set(range(min(3, g.n)))):
        search = EscapeSearch(g, core)
        _check_escapes(g, search)
        if search.reach:
            extended = search.dist.index(1)
            _check_escapes(g, EscapeSearch(g, core | {extended}))


@settings(max_examples=40, deadline=None)
@given(bridgeless_graphs(max_n=30))
def test_seeded_rounds_match_the_whole_core_on_random_graphs(g):
    """Every round from a one-vertex core, and of the pipeline at eps 1/2:
    seeded searches equal their whole-core forms, and the round-trip labels
    equal directed BFS."""
    with pytest.MonkeyPatch.context() as mp:
        searches = _record_searches(mp)
        probes = _check_labels(mp)
        extend_orientation(g, {0}, [])
        try:
            run_pipeline(g, Fraction(1, 2))
        except CertifiedFailureError:
            pass
    assert probes
    for search in searches:
        _check_seeded(g, search)


class _ReadLog(list):
    """A list that logs the index of every item read through []."""

    __slots__ = ("read",)

    def __init__(self, items):
        super().__init__(items)
        self.read: set[int] = set()

    def __getitem__(self, i):
        self.read.add(i)
        return list.__getitem__(self, i)


def test_rounds_read_no_arc_of_the_round_core(monkeypatch):
    """On C_500(1, 2) at eps 1/2 no search after the first reads a neighbour
    or arc list of a vertex in its round's a_start: each later escape search
    starts at the last round's new vertices, and each step's label update
    reads only the arc lists of the round's new vertices."""
    reads: list[tuple[str, set[int], frozenset[int]]] = []
    absorb = extension._absorb

    class Spied(EscapeSearch):
        __slots__ = ()

        def __init__(self, g, core, boundary=None):
            spy = SimpleNamespace(n=g.n, _adj=_ReadLog(g._adj))
            super().__init__(spy, core, boundary)
            a_start = frozenset(core).difference(() if boundary is None else boundary)
            reads.append(("search", set(spy._adj.read), a_start))

    def spied(o, absorbed, to_core, from_core, v, anchor, q):
        # the step's own arcs go through the real orientation; only the
        # label update reads the logged arc lists
        spy = SimpleNamespace(_out=_ReadLog(o._out), _in=_ReadLog(o._in), assign=o.assign)
        a_start = frozenset(absorbed).difference(to_core)
        got = absorb(spy, absorbed, to_core, from_core, v, anchor, q)
        reads.append(("labels", spy._out.read | spy._in.read, a_start))
        return got

    monkeypatch.setattr(extension, "EscapeSearch", Spied)
    monkeypatch.setattr(extension, "_absorb", spied)
    result = run_pipeline(circulant_graph(500, (1, 2)), Fraction(1, 2))
    rounds = result.extension.final["rounds"]
    assert rounds >= 2
    kinds = [kind for kind, _, _ in reads]
    steps = [r for r in result.extension.records if r["type"] == "extension_step"]
    assert kinds.count("search") == rounds + 1 and kinds.count("labels") == len(steps)
    assert kinds[0] == kinds[-1] == "search" and "search" not in kinds[1 : kinds.index("labels")]
    # the first search reads every core vertex: the log sees each read
    first_read, core = reads[0][1], reads[0][2]
    assert core <= first_read and len(core) == len(result.growth.core_vertices)
    for kind, read, a_start in reads[1:]:
        assert read.isdisjoint(a_start), kind
        # a label update reads arcs only when a label falls, which no round
        # here shows; test_a_falling_label_spreads_through_new_vertices_only
        # makes one fall under the same log
        assert read or kind == "labels"


def test_a_falling_label_spreads_through_new_vertices_only():
    """A hand-made round on the 5-cycle 0..4 plus vertex 5 joined to 0 and
    2, from a_start {0}: the second step orients 2 -> 5 -> 0, which lowers
    the distance of 2 to a_start from 3 to 2, and of 1, one arc upstream,
    from 4 to 3; the fall reads the in-lists of those two new vertices only."""
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (2, 5)])
    o = Orientation(g)
    absorbed: set[int] = {0}
    to_core: dict[int, int] = {}
    from_core: dict[int, int] = {}
    first = extension._absorb(o, absorbed, to_core, from_core, 1, 0, [1, 2, 3, 4, 0])
    assert first["case"] == "core"
    assert (to_core, from_core) == ({1: 4, 2: 3, 3: 2, 4: 1}, {1: 1, 2: 2, 3: 3, 4: 4})
    spy = SimpleNamespace(_out=_ReadLog(o._out), _in=_ReadLog(o._in), assign=o.assign)
    second = extension._absorb(spy, absorbed, to_core, from_core, 5, 0, [5, 2, 1, 0])
    assert (second["case"], second["j"], second["window_empty"]) == ("chain", 0, False)
    assert (to_core, from_core[5]) == ({1: 3, 2: 2, 3: 2, 4: 1, 5: 1}, 3)
    assert (to_core, from_core) == reference_round_trips(o, {0}, sorted(to_core))
    assert (spy._in.read, spy._out.read) == ({1, 2}, set())


def _reaches(g: Graph, w: int, absorbed: set[int], avoid: list[int]) -> bool:
    """Whether w is absorbed or reaches an absorbed vertex by a path whose
    other vertices are neither absorbed nor in ``avoid``."""
    seen, todo = {w}, [w]
    for x in todo:
        if x in absorbed:
            return True
        for y in g.neighbors(x):
            if y not in seen and y not in avoid:
                seen.add(y)
                todo.append(y)
    return False


@settings(max_examples=200, deadline=None)
@given(bridgeless_graphs(max_n=16), st.data())
def test_absorb_keeps_the_round_trip_labels_exact(g, data):
    """Steps along any paths, escape paths or not, from a one- or two-vertex
    a_start: after each step every new vertex's labels equal directed BFS to
    and from a_start. Labels fall here, which no round of a real run in the
    tests shows."""
    a_start = frozenset(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=2)))
    o = Orientation(g)
    absorbed = set(a_start)
    to_core: dict[int, int] = {}
    from_core: dict[int, int] = {}

    def ahead(q: list[int], anchor: int) -> list[int]:
        # the next vertices of a simple walk off the anchor edge that can
        # still end at an absorbed vertex
        return [
            w for w in g.neighbors(q[-1])
            if w not in q and (w != anchor or len(q) > 1) and _reaches(g, w, absorbed, q)
        ]

    while True:
        starts = [
            (v, a) for v in range(g.n) if v not in absorbed
            for a in g.neighbors(v) if a in a_start and ahead([v], a)
        ]
        if not starts:
            break
        v, anchor = data.draw(st.sampled_from(starts))
        q = [v]
        while q[-1] not in absorbed:
            q.append(data.draw(st.sampled_from(ahead(q, anchor))))
        # the escape length i only moves the offset window, and may exceed q's
        q += [q[-1]] * data.draw(st.integers(0, 3))
        extension._absorb(o, absorbed, to_core, from_core, v, anchor, q)
        assert (to_core, from_core) == reference_round_trips(o, a_start, sorted(to_core))


def test_extension_runs_no_directed_search_before_its_diameter(monkeypatch):
    """A counting test, not a timing test: from a one-vertex core on
    random_bridgeless(800, 4, 3, 0), the rounds build no ``LayeredBFS`` and
    run no directed BFS; the chain steps read their windows off the labels,
    and the first directed BFS is the final ``directed_diameter``'s."""
    calls: list[str] = []
    layered_init = graph.LayeredBFS.__init__

    def counted_init(self, *args, **kwargs):
        calls.append("LayeredBFS")
        layered_init(self, *args, **kwargs)

    monkeypatch.setattr(graph.LayeredBFS, "__init__", counted_init)
    package = Path(orientdiam.__file__).parent
    for name in ("all_distances", "_bfs_among"):
        original = getattr(graph, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for p in package.glob("*.py"):
            mod = importlib.import_module(f"orientdiam.{p.stem}") if p.stem != "__init__" else orientdiam
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    diameter = extension.directed_diameter

    def final(o):
        calls.append("directed_diameter")
        return diameter(o)

    monkeypatch.setattr(extension, "directed_diameter", final)
    o, trace = extend_orientation(random_bridgeless(800, 4, 3, 0), {0}, [])
    assert sum(r.get("case") == "chain" for r in trace.records) > 0
    assert calls.index("directed_diameter") == 0 and "_bfs_among" in calls
    assert "LayeredBFS" not in calls
    # the counters are installed where the searches live
    del calls[:]
    reference_directed_distance(o, 0, {1})
    orientdiam.orientation.directed_distances_to(o, {1})
    assert calls[0] == "LayeredBFS" and "all_distances" in calls


def test_extension_makes_no_path_between_call(monkeypatch):
    """The rounds read every escape path off their one search: no per-vertex
    path search is left, wherever ``path_between`` is bound by name."""
    calls = []
    original = graph.path_between

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    package = Path(orientdiam.__file__).parent
    for p in package.glob("*.py"):
        mod = importlib.import_module(f"orientdiam.{p.stem}") if p.stem != "__init__" else orientdiam
        if getattr(mod, "path_between", None) is original:
            monkeypatch.setattr(mod, "path_between", counted)
    for g in (cycle_graph(9), petersen_graph(), random_bridgeless(300, 3, 5, 0)):
        extend_orientation(g, {0}, [])
    assert calls == []
    graph.path_between(cycle_graph(4), {0}, {2})
    assert len(calls) == 1  # the counter is installed where the search lives
