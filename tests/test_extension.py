"""Tests for extending a strong core orientation to the whole graph."""

import importlib
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

import orientdiam
from conftest import (
    bridgeless_graphs,
    perfbench_module,
    reference_chain_offset,
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


def _check_round_trips(monkeypatch) -> list[int]:
    """Check every round-trip probe from now on against the whole-core probe
    while its orientation is as the probe saw it; returns the sizes of the
    checked rounds."""
    sizes: list[int] = []
    probe = extension._round_trips

    def checked(o, a_start, new):
        got = probe(o, a_start, new)
        assert got == reference_round_trips(o, a_start, new)
        sizes.append(len(new))
        return got

    monkeypatch.setattr(extension, "_round_trips", checked)
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
    whole-core search, and each round-trip probe the whole-core probe."""
    searches = _record_searches(monkeypatch)
    probes = _check_round_trips(monkeypatch)
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
    seeded searches and round-trip probes equal their whole-core forms."""
    with pytest.MonkeyPatch.context() as mp:
        searches = _record_searches(mp)
        probes = _check_round_trips(mp)
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
    starts at the last round's new vertices, each round-trip probe at its own."""
    reads: list[tuple[str, set[int], frozenset[int]]] = []
    probe = extension._round_trips

    class Spied(EscapeSearch):
        __slots__ = ()

        def __init__(self, g, core, boundary=None):
            spy = SimpleNamespace(n=g.n, _adj=_ReadLog(g._adj))
            super().__init__(spy, core, boundary)
            a_start = frozenset(core).difference(() if boundary is None else boundary)
            reads.append(("search", set(spy._adj.read), a_start))

    def spied(o, a_start, new):
        spy = SimpleNamespace(_out=_ReadLog(o._out), _in=_ReadLog(o._in))
        got = probe(spy, a_start, new)
        reads.append(("probe", spy._out.read | spy._in.read, a_start))
        return got

    monkeypatch.setattr(extension, "EscapeSearch", Spied)
    monkeypatch.setattr(extension, "_round_trips", spied)
    result = run_pipeline(circulant_graph(500, (1, 2)), Fraction(1, 2))
    rounds = result.extension.final["rounds"]
    assert rounds >= 2
    kinds = [kind for kind, _, _ in reads]
    assert kinds == ["search"] + ["probe", "search"] * rounds
    # the first search reads every core vertex: the log sees each read
    first_read, core = reads[0][1], reads[0][2]
    assert core <= first_read and len(core) == len(result.growth.core_vertices)
    for kind, read, a_start in reads[1:]:
        assert read and read.isdisjoint(a_start), kind


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
