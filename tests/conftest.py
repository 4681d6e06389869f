"""Shared strategies and reference implementations used across test modules."""

from __future__ import annotations

import faulthandler
import functools
import importlib.util
import random
import signal
import sys
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, strategies as st

from orientdiam.bounds import BoundReport, as_fraction, ball_radius, diameter_bound, min_ball_size
from orientdiam.check import _FIELD_KINDS, check_preconditions, final_claims, header_claims
from orientdiam.errors import (
    BudgetExceededError,
    CertifiedFailureError,
    GraphFormatError,
    InfeasibleSpecError,
    PreconditionError,
)
from orientdiam.graph import (
    UNREACHABLE,
    Graph,
    LayeredBFS,
    _normalize_excluded,
    ball,
    bfs_distances,
    bridge_witness,
    bridges_of,
    edge_key,
    girth,
    min_degree,
    path_between,
    read_rows,
    shortest_path_between,
)
from orientdiam.generators import random_bridgeless
from orientdiam.oracle import OracleResult
from orientdiam.orientation import Orientation, directed_distances_from, directed_distances_to
from orientdiam.growth import (
    GrowthResult,
    GrowthTrace,
    IterationRecord,
    _apply_splice,
    _bump,
)


pytest_plugins = ["pytester"]

# The slowest test takes 1.2 to 1.7 s (--durations), so 30 s leaves about 20x
# headroom: a test past it is hung (a search whose loop lost its bound, say)
# and fails by name instead of stalling the run.
TEST_DEADLINE_S = 30


class DeadlineExceeded(BaseException):
    """Raised inside a test that outran TEST_DEADLINE_S. Not an Exception, so
    neither hypothesis nor an ``except Exception`` in the code under test
    catches it and runs the hung call again."""


@pytest.fixture(autouse=True)
def per_test_deadline(request):
    """Arm TEST_DEADLINE_S around each test: SIGALRM raises DeadlineExceeded in
    the test where the platform has it; elsewhere faulthandler dumps every
    thread's stack and exits. A timer armed before this one (a test that runs
    pytest in-process) gets back the time it had left when this one was armed."""
    if not hasattr(signal, "SIGALRM"):
        faulthandler.dump_traceback_later(TEST_DEADLINE_S, exit=True)
        yield
        faulthandler.cancel_dump_traceback_later()
        return

    def expire(signum, frame):
        raise DeadlineExceeded(f"{request.node.nodeid} ran past {TEST_DEADLINE_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    left, _ = signal.setitimer(signal.ITIMER_REAL, TEST_DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        signal.setitimer(signal.ITIMER_REAL, left)


@functools.cache
def perfbench_module(name: str):
    """perfbench/<name>.py, loaded from the checkout (perfbench is not a package)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@st.composite
def arbitrary_graphs(draw, max_n: int = 10):
    """Any simple graph, connected or not, including edgeless ones."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph(n, edges)


@st.composite
def bridgeless_graphs(draw, max_n: int = 40):
    """Seeded random bridgeless graphs with assorted degree/girth targets."""
    n = draw(st.integers(min_value=5, max_value=max_n))
    delta = draw(st.integers(min_value=2, max_value=min(4, n - 2)))
    floor = draw(st.sampled_from([3, 4]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    try:
        return random_bridgeless(n, delta, floor, seed)
    except InfeasibleSpecError:
        assume(False)  # tight parameter combinations are rejected, not failures


def floyd_warshall(g: Graph) -> list[list[int | float]]:
    """Textbook all-pairs distances, independent of the BFS code under test."""
    return floyd_warshall_arcs(g.n, [a for u, v in g.edges() for a in ((u, v), (v, u))])


def floyd_warshall_without(g: Graph, excluded) -> list[list[int | float]]:
    """``floyd_warshall`` on g with the ``excluded`` edges deleted."""
    ex = {edge_key(u, v) for u, v in excluded}
    return floyd_warshall(Graph(g.n, [e for e in g.edges() if e not in ex]))


@st.composite
def digraphs_with_sources(draw):
    """(n, arcs, sources): any digraph on 1..12 vertices, unreachable pairs
    included, and a non-empty set of sources."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return n, arcs, sources


def assert_bit_levels_matches_floyd_warshall(bit_levels, n: int, arcs, sources) -> None:
    """A bit-parallel kernel over in-lists measures the largest d(s, v) over
    every vertex v, over out-lists the largest d(v, s)."""
    dist = floyd_warshall_arcs(n, arcs)
    outs, ins = [[] for _ in range(n)], [[] for _ in range(n)]
    for u, v in arcs:
        outs[u].append(v)
        ins[v].append(u)
    assert bit_levels(ins, sources) == max(dist[s][v] for s in sources for v in range(n))
    assert bit_levels(outs, sources) == max(dist[v][s] for s in sources for v in range(n))


def dense_random_orientation(n: int, p: float, seed: int) -> Orientation:
    """G(n, p) with each edge oriented by a fair coin, both from one seeded generator."""
    rng = random.Random(seed)
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    o = Orientation(g)
    for u, v in g.edges():
        o.assign(*((u, v) if rng.random() < 0.5 else (v, u)))
    return o


def heawood_graph() -> Graph:
    """The incidence graph of the Fano plane: points 0..6, lines 7..13, line l
    through the points l, l + 1 and l + 3 mod 7. Cubic, girth 6."""
    return Graph(14, [(p % 7, 7 + line) for line in range(7) for p in (line, line + 1, line + 3)])


def cyclic_lift(base: Graph, copies: int, seed: int | None = None) -> Graph:
    """The Z_copies-lift of ``base`` with voltage 1 on its first edge and 0 on
    the others: ``copies`` copies of the base (vertex v of copy i is
    i * base.n + v), the first edge of each copy bent to the next copy, so
    the copies form a ring. Its girth is at least the base's. With a
    ``seed``, the vertices are relabeled by a seeded permutation.
    """
    first = base.edges()[0]
    edges = [
        (i * base.n + u, ((i + 1) % copies if (u, v) == first else i) * base.n + v)
        for i in range(copies)
        for u, v in base.edges()
    ]
    n = base.n * copies
    if seed is not None:
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in edges]
    return Graph(n, edges)


def chorded_cycle(n: int) -> Orientation:
    """The directed cycle 0 -> 1 -> ... -> n - 1 -> 0 with the chords 0 -> 2 and
    m -> m + 2, m = n // 2. Each chord saves one step on every route that runs
    along its two cycle arcs, and every pair u + 1 -> u uses one of them, so
    for n >= 6 the diameter is n - 2. Nearly every vertex is that eccentric,
    so the bounds of a pivot prune almost no other vertex.
    """
    m = n // 2
    o = Orientation(Graph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, 2), (m, m + 2)]))
    for t, h in [(i, (i + 1) % n) for i in range(n)] + [(0, 2), (m, m + 2)]:
        o.assign(t, h)
    return o


def floyd_warshall_arcs(n: int, arcs) -> list[list[int | float]]:
    """All-pairs directed distances over (tail, head) arcs, by Floyd-Warshall."""
    dist: list[list[int | float]] = [[UNREACHABLE] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for u, v in arcs:
        dist[u][v] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == UNREACHABLE:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def reference_girth(g: Graph) -> int | float:
    """``graph.girth`` before it dropped finished roots: every root searches
    the whole graph, and skips (not stops at) vertices too deep to help.
    """
    best: int | float = UNREACHABLE
    for root in range(g.n):
        dist: dict[int, int] = {root: 0}
        parent: dict[int, int] = {root: -1}
        queue: deque[int] = deque([root])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best - 1:
                continue
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    best = min(best, dist[u] + dist[w] + 1)
        if best == 3:
            break
    return best


def reference_parse_orientation(text: str, base: Graph) -> Orientation:
    """``orientation.parse_orientation`` before ``read_arcs``: each arc is
    checked with ``Orientation.direction`` and stored with ``assign``.
    """
    n, arcs = read_rows(text, "orientation n m", "tail head")
    if (n, len(arcs)) != (base.n, base.m):
        raise GraphFormatError(
            f"header ({n}, {len(arcs)}) does not match the base graph ({base.n}, {base.m})"
        )
    o = Orientation(base)
    for t, h in arcs:
        if not (0 <= t < n and 0 <= h < n) or not base.has_edge(t, h):
            raise GraphFormatError(f"({t}, {h}) is not an edge of the base graph")
        if o.direction(t, h) is not None:
            raise GraphFormatError(f"edge {edge_key(t, h)} oriented twice")
        o.assign(t, h)
    return o


def girth_by_edge_removal(g: Graph) -> int | float:
    """Shortest cycle via: for each edge, 1 + distance between its ends without it."""
    best: int | float = UNREACHABLE
    for u, v in g.edges():
        keep = [e for e in g.edges() if e != (u, v)]
        sub = Graph(g.n, keep)
        d = floyd_warshall(sub)[u][v]
        if d != UNREACHABLE:
            best = min(best, d + 1)
    return best


def bridges_by_removal(g: Graph) -> set[tuple[int, int]]:
    """An edge is a bridge iff removing it disconnects its endpoints."""
    out = set()
    for u, v in g.edges():
        keep = [e for e in g.edges() if e != (u, v)]
        if floyd_warshall(Graph(g.n, keep))[u][v] == UNREACHABLE:
            out.add((u, v))
    return out


def reference_shortest_path(g, sources, targets, excluded=(), blocked=()):
    """The BFS-from-the-targets body that ``shortest_path_between`` replaced.

    One full BFS from the targets, then a walk down the distance labels from
    the nearest smallest-id source; kept as the slow path the early-exit
    search is checked against. Excluded edges are deleted from a copy of g,
    and blocked vertices lose their edges, so the search neither enters nor
    starts from them.
    """
    ex = _normalize_excluded(excluded)
    src = sorted(set(sources))
    tgt = set(targets)
    if not src or not tgt:
        raise ValueError("sources and targets must be non-empty")
    blk = set(blocked)
    if not blk.isdisjoint(tgt):
        raise ValueError(f"target {min(blk & tgt)} is blocked")
    kept = [(u, v) for u, v in g.edges() if u not in blk and v not in blk and (u, v) not in ex]
    g = Graph(g.n, kept)
    dist_t = bfs_distances(g, tgt)
    start = None
    best = UNREACHABLE
    for s in src:
        if dist_t[s] < best:
            best = dist_t[s]
            start = s
    if start is None or best == UNREACHABLE:
        return None
    path = [start]
    cur = start
    remaining = dist_t[start]
    while remaining > 0:
        for w in g.neighbors(cur):
            if dist_t[w] != remaining - 1:
                continue
            path.append(w)
            cur = w
            remaining -= 1
            break
        else:  # pragma: no cover - BFS guarantees a predecessor exists
            raise AssertionError("path reconstruction lost the trail")
    return path


def reference_orient_adjacency(adj, root):
    """The second DFS that ``orientation.orient_adjacency`` replaced.

    Its own iterative search from ``root``, neighbors sorted, every edge back
    to the parent skipped; a tree edge is oriented away from the root when
    the search crosses it and any other edge toward the visited end. Kept as
    the slow path the orientation read off ``graph.dfs_forest`` is checked
    against.
    """
    disc = {root: 0}
    counter = 1
    chosen = {}
    stack = [(root, -1, iter(sorted(adj[root])))]
    while stack:
        u, parent, it = stack[-1]
        advanced = False
        for w in it:
            if w == parent:
                continue
            if w in disc:
                # every unassigned edge to a visited vertex runs to an ancestor
                e = edge_key(u, w)
                if e not in chosen:
                    chosen[e] = (u, w)
                continue
            disc[w] = counter
            counter += 1
            chosen[edge_key(u, w)] = (u, w)
            stack.append((w, u, iter(sorted(adj[w]))))
            advanced = True
            break
        if not advanced:
            stack.pop()
    return [chosen[e] for e in sorted(chosen)]


def reference_dfs_forest(
    adj: Mapping[int, Sequence[int]],
) -> tuple[dict[int, int], dict[int, int], set[tuple[int, int]]]:
    """The DFS that ``graph.dfs_forest`` replaced, unchanged: adjacency as a
    mapping keyed by vertex, discovery, lowpoint and parent kept in dicts.

    Kept as the reference the vertex-indexed search is checked against:
    both must give the same discovery order, parents and bridges.
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    parent: dict[int, int] = {}
    out: set[tuple[int, int]] = set()
    skipped_parent: set[int] = set()
    for root in sorted(adj):
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        parent[root] = -1
        stack: list[tuple[int, int, Iterable[int]]] = [(root, -1, iter(adj[root]))]
        while stack:
            u, p, it = stack[-1]
            for w in it:
                if w == p and u not in skipped_parent:
                    skipped_parent.add(u)
                    continue
                if w in disc:
                    if disc[w] < low[u]:
                        low[u] = disc[w]
                    continue
                disc[w] = low[w] = len(disc)
                parent[w] = u
                stack.append((w, u, iter(adj[w])))
                break
            else:
                stack.pop()
                if p != -1:
                    if low[u] < low[p]:
                        low[p] = low[u]
                    if low[u] > disc[p]:
                        out.add(edge_key(p, u))
    return disc, parent, out


def renumbered_adjacency(vertices, edges):
    """A vertex/edge subset as sorted neighbor lists over 0..k-1, and its vertices
    ascending, so that vertex i of the lists is ``ids[i]``.
    """
    ids = sorted(vertices)
    number = {v: i for i, v in enumerate(ids)}
    adj = [[] for _ in ids]
    for u, v in edges:
        adj[number[u]].append(number[v])
        adj[number[v]].append(number[u])
    return [sorted(ws) for ws in adj], ids


def reference_covered_prefix(path, hp_v, hp_e):
    """The whole-subgraph bridge search that ``growth._covered_prefix`` replaced.

    Bridges of core + path with nothing contracted; kept as the slow path
    the contracted search is checked against.
    """
    verts = hp_v | set(path)
    edges = hp_e | {edge_key(a, b) for a, b in zip(path, path[1:])}
    adj, ids = renumbered_adjacency(verts, edges)
    br = {(ids[a], ids[b]) for a, b in bridges_of(adj)}
    cp = 0
    for a, b in zip(path, path[1:]):
        if edge_key(a, b) in br:
            break
        cp += 1
    return cp


def reference_stabilize(g, h_v, path_set, path_edges, hp_v, hp_e, labeled, counters, budget):
    """The body that ``growth._stabilize`` replaced: full-graph BFS on every pass.

    Distances from the core are recomputed on every pass of the loop and the
    pair check runs an unbounded BFS from every label, so nothing is cached
    and nothing is cut off, and a splice's first search blocks the core as
    well as the path and runs to any depth; kept as the slow path the
    memoized, depth-bounded checks are compared with. ``hp_v`` and ``hp_e``
    may hold the whole working subgraph or only what was added to the core.
    """
    # the distances avoid the path edges: they are deleted from a copy of g
    cut = Graph(g.n, [e for e in g.edges() if e not in path_edges])
    while labeled:
        dist_h = bfs_distances(cut, h_v)
        viol = next(
            ((m, q, dist_h[q]) for m, q in enumerate(labeled, start=1) if dist_h[q] < m),
            None,
        )
        if viol is not None:
            m1, q1, s = viol
            if not isinstance(s, int) or s <= 0:
                raise CertifiedFailureError(
                    "labeled vertex sits inside the core",
                    details={"vertex": q1, "position": m1},
                )
            _bump(counters, budget, {"labeled": list(labeled)})
            blocked = (path_set - h_v) - {q1}
            sp = shortest_path_between(g, (q1,), h_v, excluded=path_edges, blocked=blocked)
            if sp is None or len(sp) - 1 != s:
                sp = shortest_path_between(g, (q1,), h_v, excluded=path_edges)
                counters["labeled_on_path"] += sum(1 for x in sp[1:-1] if x in path_set)
            candidate = list(reversed(sp[1:-1])) + labeled[m1 - 1 :]
            _apply_splice(labeled, candidate, sp, h_v, hp_v, hp_e, path_set, path_edges, counters)
            continue
        pair = None
        for m1 in range(1, len(labeled) + 1):
            d1 = bfs_distances(cut, (labeled[m1 - 1],))
            for m2 in range(m1 + 1, len(labeled) + 1):
                if d1[labeled[m2 - 1]] < m2 - m1:
                    pair = (m1, m2, d1[labeled[m2 - 1]])
                    break
            if pair:
                break
        if pair is None:
            return
        m1, m2, s = pair
        q1, q2 = labeled[m1 - 1], labeled[m2 - 1]
        _bump(counters, budget, {"labeled": list(labeled)})
        blocked = ((path_set | h_v) - {q1}) - {q2}
        sp = shortest_path_between(g, (q1,), (q2,), excluded=path_edges, blocked=blocked)
        if sp is None or len(sp) - 1 != s:
            sp = shortest_path_between(g, (q1,), (q2,), excluded=path_edges)
            counters["labeled_on_path"] += sum(1 for x in sp[1:-1] if x in path_set)
        candidate = labeled[:m1] + sp[1:-1] + labeled[m2 - 1 :]
        _apply_splice(labeled, candidate, sp, h_v, hp_v, hp_e, path_set, path_edges, counters)


def reference_cover_path(g, h_v, h_e, path, budget):
    """The body that ``growth.cover_path`` replaced: a bridge search on every step.

    It copies the core, grows the copies into the whole working subgraph and
    returns that; ``reference_covered_prefix``, a bridge search on the whole
    working subgraph with nothing contracted, not ``growth._covered_prefix``,
    decides every step, the first one included, and ``reference_stabilize``,
    not ``growth._stabilize``, mends the labels, so no label check is shared
    with growth. Kept as the slow path the prefix rule of ``cover_path``,
    which searches only once a step has spliced, is compared with.
    """
    path_edges = frozenset(edge_key(a, b) for a, b in zip(path, path[1:]))
    path_set = set(path)
    hp_v, hp_e = set(h_v), set(h_e)
    labeled: list[int] = []
    counters = {"cover_steps": 0, "splices": 0, "labeled_on_path": 0}
    while True:
        cp = reference_covered_prefix(path, hp_v, hp_e)
        for t in range(cp):
            hp_v.update((path[t], path[t + 1]))
            hp_e.add(edge_key(path[t], path[t + 1]))
        if cp == len(path) - 1:
            break
        _bump(counters, budget, {"path": path, "covered": cp})
        r_path = shortest_path_between(g, hp_v, path[cp + 1 :], excluded=path_edges)
        if r_path is None:
            raise CertifiedFailureError(
                "no detour reaches the uncovered suffix",
                details={"path": path, "covered": cp},
            )
        labeled.extend(r_path[1:-1])
        hp_v.update(r_path)
        hp_e.update(edge_key(a, b) for a, b in zip(r_path, r_path[1:]))
        counters["cover_steps"] += 1
        reference_stabilize(g, h_v, path_set, path_edges, hp_v, hp_e, labeled, counters, budget)
    return hp_v, hp_e, labeled, counters


def reference_grow_core(g: Graph, eps) -> GrowthResult:
    """The loop that ``growth.grow_core`` replaced, on ``reference_cover_path``.

    Distances to the core are not clamped: each iteration reads ``max`` and
    ``index`` over all of them, takes the set differences of the working
    subgraph and the core, and recomputes the distances with a fresh
    ``bfs_distances`` from the grown core, sharing nothing with the lowering
    that ``grow_core`` runs.
    """
    check_preconditions(g)
    e = as_fraction(eps)
    if e <= 0:
        raise PreconditionError("epsilon must be positive")
    bound = diameter_bound(g.n, min_degree(g), int(girth(g)), e)
    gval, scale, radius, reach = bound.girth, bound.scale, bound.radius, bound.reach
    budget = 50 + 10 * (reach + g.n)
    v0 = min(range(g.n), key=lambda v: (-g.degree(v), v))
    h_v, h_e, b_list = {v0}, set(), [v0]
    f_set = ball(g, v0, radius)
    header = {
        "type": "growth_header",
        "schema": 2,
        **header_claims(g, bound),
        "v0": v0,
        "base_claimed": sorted(f_set),
    }
    iterations = []
    dist = bfs_distances(g, h_v)
    while True:
        far = max(dist)
        if far < reach:
            break
        if len(iterations) >= g.n:
            raise CertifiedFailureError(
                "more growth iterations than vertices", details={"header": header}
            )
        path = shortest_path_between(g, h_v, (dist.index(reach),))
        path_edges = list(zip(path, path[1:]))
        hp_v, hp_e, labeled, counters = reference_cover_path(g, h_v, h_e, path, budget)
        sel = labeled[gval - 1 :: gval]
        fallback = len(sel) < scale
        centers = [path[c * gval] for c in range(1, scale + 1)] if fallback else list(sel)
        claimed = set()
        for c in centers:
            claimed |= ball(g, c, radius, excluded=() if fallback else path_edges)
        claimed -= f_set
        f_set |= claimed
        b_list.extend(centers)
        added = hp_v - h_v
        iterations.append(
            IterationRecord(
                index=len(iterations),
                path=tuple(path),
                labeled=tuple(labeled),
                centers=tuple(centers),
                fallback=fallback,
                cover_steps=counters["cover_steps"],
                splices=counters["splices"],
                labeled_on_path=counters["labeled_on_path"],
                added_vertices=tuple(sorted(added)),
                added_edges=tuple(sorted(hp_e - h_e)),
                added_claimed=tuple(sorted(claimed)),
            )
        )
        h_v, h_e = hp_v, hp_e
        dist = bfs_distances(g, h_v)
    final = {
        "type": "growth_final",
        **final_claims(len(iterations), int(far), reach, h_v, b_list, f_set),
    }
    return GrowthResult(frozenset(h_v), frozenset(h_e), GrowthTrace(header, iterations, final), bound)


def reference_chain_offset(i, a_val, b_val):
    """The two-window body that ``extension._chain_offset`` replaced.

    The offsets strictly inside -i..i are tried first and all of -i..i only
    when none fits; the chosen offset is the one closest to 0, ties going to
    j >= 0. Kept as the slow path the single clamp is checked against.
    """
    lo, hi = b_val - i, i - a_val
    window = [j for j in range(max(lo, -i + 1), min(hi, i - 1) + 1)]
    if not window:
        window = [j for j in range(max(lo, -i), min(hi, i) + 1)]
    if window:
        return min(window, key=lambda x: (abs(x), 0 if x >= 0 else 1)), False
    return min(i, max(-i, b_val - i)), True


def reference_escape_path(g: Graph, a_start, v: int, anchor: int) -> list[int] | None:
    """The search that ``extension.EscapeSearch.path`` replaced: v's shortest
    path to the round's core ``a_start`` without the edge to its anchor, the
    lexicographically smallest of them; None when there is none.
    """
    return path_between(g, {v}, a_start, frozenset((edge_key(v, anchor),)))


def reference_round_trips(o: Orientation, a_start, new):
    """The round-trip probe that the extension's labels replaced: one
    directed BFS per direction from the whole of ``a_start``, read at the
    vertices of ``new``; distances to ``a_start`` first, then from it.
    """
    din = directed_distances_to(o, a_start)
    dout = directed_distances_from(o, a_start)
    return {v: din[v] for v in new}, {v: dout[v] for v in new}


def reference_directed_distance(o: Orientation, v: int, targets, reverse: bool = False):
    """The per-step search that the extension's labels replaced: the directed
    distance from v to the nearest target, or with ``reverse`` from the
    nearest target to v; UNREACHABLE when there is none.

    Equals ``directed_distances_to(o, targets)[v]`` (``directed_distances_from``
    with ``reverse``), but searches outward from v and stops at the first
    layer that meets the targets.
    """
    search = LayeredBFS(o._in if reverse else o._out, (v,), meets=targets)
    search.deepen(to_meet=True)
    return search.met


def reference_random_bridgeless(n: int, delta: int, girth_floor: int, seed: int) -> Graph:
    """The body that ``generators.random_bridgeless`` replaced, unchanged.

    It rebuilds the deficient, candidate and low-degree lists by scanning all
    n vertices once per chord and draws with ``rng.choice`` on them. Kept as
    the slow path the sorted-list generator is checked against: both must
    give the same edges, or raise the same error with the same message.
    """
    if n < max(3, girth_floor):
        raise ValueError("order must be at least max(3, girth_floor)")
    if girth_floor < 3:
        raise ValueError("girth floor must be at least 3")
    if not 2 <= delta < n - 1:
        raise ValueError("need 2 <= delta < n - 1")
    rng = random.Random(seed)
    adj: list[set[int]] = [{(i - 1) % n, (i + 1) % n} for i in range(n)]

    def close_to(u: int) -> set[int]:
        # vertices within girth_floor - 2 of u (its neighbors included, as the
        # floor is at least 3); a chord to any of them would close a short cycle
        close = {u}
        frontier = [u]
        for _ in range(girth_floor - 2):
            nxt = []
            for x in frontier:
                for w in adj[x]:
                    if w not in close:
                        close.add(w)
                        nxt.append(w)
            frontier = nxt
        return close

    while True:
        deficient = [v for v in range(n) if len(adj[v]) < delta]
        if not deficient:
            break
        u = rng.choice(deficient)
        close = close_to(u)
        cands = [w for w in range(n) if w not in close]
        if not cands:
            # distances only shrink as edges arrive, so u can never recover
            raise InfeasibleSpecError(
                f"vertex {u} stuck at degree {len(adj[u])} < {delta} "
                f"with girth floor {girth_floor} (n={n}, seed={seed})"
            )
        low = [w for w in cands if len(adj[w]) < delta]
        v = rng.choice(low or cands)
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def _reference_leaf_diameter(out_adj: list[int], n: int, cap: int | float) -> int | None:
    """Directed diameter from bitmask out-neighborhoods.

    Returns None as soon as the orientation is not strong or cannot beat cap.
    """
    full = (1 << n) - 1
    worst = 0
    for s in range(n):
        seen = 1 << s
        frontier = seen
        d = 0
        while seen != full:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                nxt |= out_adj[b.bit_length() - 1]
                f ^= b
            nxt &= ~seen
            if not nxt:
                return None
            seen |= nxt
            frontier = nxt
            d += 1
            if d >= cap:
                return None
        worst = max(worst, d)
    return worst


def reference_exact_oriented_diameter(g: Graph, budget: int = 24) -> OracleResult:
    """The search that ``oracle.exact_oriented_diameter`` replaced, unchanged.

    It cuts a branch only once a finished vertex has no in- or no out-arc,
    and evaluates every surviving leaf, stopping once the leaf cannot beat the
    best found. Kept as the slow path the lower-bound prune is checked
    against: both must give the same value, ``leaves`` and witness.
    """
    if g.n == 0:
        raise ValueError("the empty graph has no orientations")
    if g.m > budget:
        raise BudgetExceededError(
            f"{g.m} edges exceeds the exhaustive budget of {budget}"
        )
    if bridge_witness(g.adjacency()) is not None:
        return OracleResult(None, False, 0)
    edges = g.edges()
    m = len(edges)
    n = g.n
    rem = [g.degree(v) for v in range(n)]
    in_deg = [0] * n
    out_deg = [0] * n
    out_adj = [0] * n
    chosen: list[tuple[int, int]] = [(0, 0)] * m
    best: int | float = UNREACHABLE
    witness: tuple[tuple[int, int], ...] = ()
    leaves = 0

    def rec(i: int) -> None:
        nonlocal best, witness, leaves
        if i == m:
            d = _reference_leaf_diameter(out_adj, n, best)
            if d is not None:  # strong, and below the cap: a new best
                leaves += 1
                best = d
                witness = tuple(chosen)
            return
        u, v = edges[i]
        for t, h in ((u, v),) if i == 0 else ((u, v), (v, u)):
            out_deg[t] += 1
            in_deg[h] += 1
            rem[u] -= 1
            rem[v] -= 1
            out_adj[t] |= 1 << h
            chosen[i] = (t, h)
            dead = (rem[u] == 0 and (in_deg[u] == 0 or out_deg[u] == 0)) or (
                rem[v] == 0 and (in_deg[v] == 0 or out_deg[v] == 0)
            )
            if not dead:
                rec(i + 1)
            out_deg[t] -= 1
            in_deg[h] -= 1
            rem[u] += 1
            rem[v] += 1
            out_adj[t] &= ~(1 << h)

    rec(0)
    return OracleResult(int(best), True, leaves, witness)


def expand_schema1(records: list[dict]) -> list[dict]:
    """Trace records as schema 1 wrote them, rebuilt from schema-2 records.

    Each growth iteration's ``added_vertices``, ``added_edges`` and
    ``added_claimed`` become the snapshots ``h_vertices``, ``h_edges`` and
    ``f`` of the core and the claimed set after it, and ``b`` lists v0 and
    every center so far; the header loses its ``schema`` tag. Each list is
    applied as a difference (an entry already present is taken out), so
    an edited trace that lists a core vertex or edge again expands to a
    snapshot that lost it. Other records are copied. The input is not
    changed.
    """
    out = []
    for rec in records:
        rec = dict(rec)
        if rec["type"] == "growth_header":
            del rec["schema"]
            h_v, h_e, f, b = {rec["v0"]}, set(), set(rec["base_claimed"]), [rec["v0"]]
        elif rec["type"] == "growth_iteration":
            h_v = h_v ^ set(rec.pop("added_vertices"))
            h_e = h_e ^ {edge_key(u, v) for u, v in rec.pop("added_edges")}
            f = f ^ set(rec.pop("added_claimed"))
            b = b + rec["centers"]
            rec.update(
                h_vertices=sorted(h_v),
                h_edges=[list(e) for e in sorted(h_e)],
                b=list(b),
                f=sorted(f),
            )
        out.append(rec)
    return out


def _field(rec: dict, key: str, kind: str, n: int = 0):
    """Read one schema-1 field; GraphFormatError when it is missing or not of ``kind``."""
    if key not in rec or not _FIELD_KINDS[kind](rec[key], n):
        raise GraphFormatError(
            f"trace record {rec.get('type')!r}: field {key!r} missing or not {kind}"
        )
    return rec[key]


def reference_replay_growth(
    g: Graph, header: dict, iterations: list[dict], final: dict, bound: BoundReport
) -> tuple[str | None, set[int], set[tuple[int, int]], int]:
    """The snapshot replay that ``check._replay_growth`` replaced, unchanged.

    It reads schema-1 iterations (``expand_schema1``): each rebuilds the whole
    core's adjacency and runs ``bridge_witness`` over it, and compares the
    recomputed claimed set F and center list B with the snapshots ``f`` and
    ``b``. Kept as the slow path the incremental replay is checked against.

    Returns the first failure as "where: property (detail)", or None, then
    the final core's vertices and edges and the largest distance to it.
    """
    n, floor, gval, eps = g.n, bound.ball_size, bound.girth, bound.epsilon
    radius, reach = bound.radius, bound.reach
    failures: list[str] = []

    def need(where: str, props: dict[str, bool], detail: str) -> None:
        failures.extend(f"{where}: {name} ({detail})" for name, ok in props.items() if not ok)

    expected = header_claims(g, bound)
    props = {
        key: _field(header, key, "str" if key == "epsilon" else "int") == value
        for key, value in expected.items()
    }
    v0 = _field(header, "v0", "vertex", n)
    f_set = ball(g, v0, radius)
    props["base_ball"] = f_set == set(_field(header, "base_claimed", "vertices", n))
    props["base_floor"] = len(f_set) >= floor
    need("header", props, f"recomputed {expected}, |ball({v0})|={len(f_set)}")
    b_list = [v0]
    h_v: set[int] = {v0}
    h_e: set[tuple[int, int]] = set()
    for pos, rec in enumerate(iterations):
        path = _field(rec, "path", "vertices", n)
        centers = _field(rec, "centers", "vertices", n)
        new_h_v = set(_field(rec, "h_vertices", "vertices", n))
        new_h_e = {edge_key(u, v) for u, v in _field(rec, "h_edges", "edges", n)}
        if not new_h_v or any(u not in new_h_v or v not in new_h_v for u, v in new_h_e):
            raise GraphFormatError(f"growth iteration {pos}: h_edges leave h_vertices")
        path_edges = list(zip(path, path[1:]))
        excluded = () if _field(rec, "fallback", "bool") else path_edges
        for c in centers:
            f_set |= ball(g, c, radius, excluded=excluded)
        b_list = b_list + centers
        adj = renumbered_adjacency(new_h_v, new_h_e)[0]
        props = {
            "index": _field(rec, "index", "int") == pos,
            "edges_real": all(g.has_edge(u, v) for u, v in [*new_h_e, *path_edges]),
            "core_grows": h_v <= new_h_v and h_e <= new_h_e and set(path) <= new_h_v,
            "bridgeless_connected": bridge_witness(adj) is None,
            "f_claim": f_set == set(_field(rec, "f", "vertices", n)),
            "b_claim": b_list == _field(rec, "b", "vertices", n),
            "property2": len(f_set) >= floor * len(b_list),
            "property3": len(new_h_v) <= (2 * gval + eps) * len(b_list),
            "centers_fresh": len(set(b_list)) == len(b_list),
        }
        sizes = f"|H|={len(new_h_v)} |F|={len(f_set)} |B|={len(b_list)}"
        need(f"iteration {pos}", props, f"{sizes}, floor {floor}, girth {gval}")
        h_v, h_e = new_h_v, new_h_e
    far = int(max(bfs_distances(g, h_v)))
    counts = final_claims(len(iterations), far, reach, h_v, b_list, f_set)
    claimed = {k: _field(final, k, "bool" if k == "property1" else "int") for k in counts}
    props = {"property1": counts["property1"], "final_counts": claimed == counts}
    need("final core", props, f"max distance {far}, reach {reach}, recomputed {counts}")
    return (failures[0] if failures else None), h_v, h_e, far


# ---------------------------------------------------------------------------
# sampled check of the ball-size floor


@dataclass(frozen=True)
class BallCheckReport:
    """Result of sampling (vertex, shortest path) pairs against the ball floor."""

    eligible: bool  # minimum degree above 3, so the floor applies
    checked: int
    failures: tuple[tuple[int, int, int], ...]  # (source, target, center)
    skipped: int
    floor: int
    radius: int

    @property
    def all_passed(self) -> bool:
        return not self.failures


def check_ball_bound(g: Graph, samples: int = 100, seed: int = 0) -> BallCheckReport:
    """Sample shortest paths P and off-path centers x; check the ball floor.

    Each check removes E(P) and verifies the ball of radius ceil(girth/2)-1
    around x still holds at least min_ball_size(delta, girth) vertices.
    Centers on the path are excluded, matching the floor's hypothesis.
    """
    delta = min_degree(g)
    gval = girth(g)
    if gval == UNREACHABLE:
        raise ValueError("graph has no cycle, so no girth")
    gval = int(gval)
    radius = ball_radius(gval)
    if delta <= 3:
        return BallCheckReport(False, 0, (), 0, min_ball_size(delta, gval), radius)
    floor = min_ball_size(delta, gval)
    rng = random.Random(seed)
    checked = 0
    skipped = 0
    failures: list[tuple[int, int, int]] = []
    attempts = 0
    while checked < samples and attempts < 50 * samples:
        attempts += 1
        s = rng.randrange(g.n)
        t = rng.randrange(g.n)
        if s == t:
            skipped += 1
            continue
        path = shortest_path_between(g, (s,), (t,))
        on_path = set(path)
        off = [x for x in range(g.n) if x not in on_path]
        if not off:
            skipped += 1
            continue
        x = off[rng.randrange(len(off))]
        excluded = list(zip(path, path[1:]))
        if len(ball(g, x, radius, excluded=excluded)) < floor:
            failures.append((s, t, x))
        checked += 1
    return BallCheckReport(True, checked, tuple(failures), skipped, floor, radius)
