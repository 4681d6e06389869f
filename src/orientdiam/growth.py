"""Grows a small bridgeless core subgraph that every vertex can reach quickly.

One growth iteration picks a vertex at the reach limit, walks a shortest
path to it, patches the path into the core with detours until none of its
edges is a bridge, and banks every g-th detour vertex as a ball center.
The banked balls are the evidence that the core stays small relative to the
graph.

The construction does not judge its result: bridgelessness, fresh centers
and properties 1-3 are claims of the returned trace, and ``check.certify``
alone decides whether they hold. Its remaining guards (the round budget, the
iteration cap, a missing detour) stop a loop or protect a value the
construction itself reads.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence, Set
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain

from .bounds import BoundReport, as_fraction, diameter_bound
from .check import check_preconditions, contracted_adjacency, final_claims, header_claims
from .errors import CertifiedFailureError, PreconditionError
from .graph import (
    UNREACHABLE,
    Graph,
    LayeredBFS,
    ball,
    bridges_of,
    edge_key,
    girth,
    min_degree,
    path_between,
)


def subgraph_adjacency(
    vertices: set[int], edges: set[tuple[int, int]]
) -> dict[int, list[int]]:
    """Adjacency mapping of a vertex/edge subset, neighbor lists sorted."""
    adj: dict[int, list[int]] = {v: [] for v in sorted(vertices)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return {v: sorted(ws) for v, ws in adj.items()}


@dataclass(frozen=True)
class IterationRecord:
    """What one growth iteration did, and the vertices, edges and claimed
    vertices it added; the core and the claimed set are their unions.
    """

    index: int
    path: tuple[int, ...]
    labeled: tuple[int, ...]
    centers: tuple[int, ...]
    fallback: bool
    cover_steps: int
    splices: int
    labeled_on_path: int
    added_vertices: tuple[int, ...]
    added_edges: tuple[tuple[int, int], ...]
    added_claimed: tuple[int, ...]

    def to_record(self) -> dict:
        """Every field in order, a tuple as a list and the edges as lists of lists."""
        rec = {"type": "growth_iteration"}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                nested = value and isinstance(value[0], tuple)
                value = list(map(list, value)) if nested else list(value)
            rec[f.name] = value
        return rec


@dataclass
class GrowthTrace:
    header: dict
    iterations: list[IterationRecord]
    final: dict

    def to_records(self) -> list[dict]:
        out = [dict(self.header)]
        out.extend(rec.to_record() for rec in self.iterations)
        out.append(dict(self.final))
        return out


@dataclass(frozen=True)
class GrowthResult:
    """The grown core plus the evidence used to certify it."""

    core_vertices: frozenset[int]
    core_edges: frozenset[tuple[int, int]]
    trace: GrowthTrace
    bound: BoundReport


# ---------------------------------------------------------------------------
# covering one escape path


def _covered_prefix(
    g: Graph,
    path: list[int],
    h_v: set[int],
    added: Iterable[int],
    hp_e: set[tuple[int, int]],
) -> int:
    """Number of leading path edges that are not bridges of core + path.

    ``added`` holds the working core's vertices outside ``h_v`` and off the
    path (in ``cover_path``, the labels), so the search costs the path and
    its detours, not the core. Of ``hp_e`` only the edges at a vertex outside
    ``h_v`` are read, so the edges added to the core serve as well as all of
    them.

    ``cover_path`` runs it only once a splice has happened in the call;
    before that the prefix is known without a search (see there).

    The bridge search runs on core + path with the pre-iteration core
    ``h_v`` contracted to ``path[0]``, its only vertex on the path
    (``contracted_adjacency``). This is exact while that core is connected,
    since ``cover_path`` never removes one of its vertices or edges.

    The core is one vertex at iteration 0. A later core that is not
    connected and bridgeless is refused by ``check.certify`` at the
    iteration that built it, so nothing grown after it can certify.
    """
    rep = path[0]
    path_edges = {edge_key(a, b) for a, b in zip(path, path[1:])}
    outside = set(added).union(path[1:])
    edges = [
        (x, w)
        for x in outside
        for w in g.neighbors(x)
        if (x < w or w in h_v) and ((e := edge_key(x, w)) in hp_e or e in path_edges)
    ]
    br = bridges_of(contracted_adjacency(h_v, rep, outside, edges))
    cp = 0
    for a, b in zip(path, path[1:]):
        if edge_key(a, b) in br:
            break
        cp += 1
    return cp


def _bump(counters: dict, budget: int, trace_bits: dict) -> None:
    """Refuse a round once ``budget`` rounds ran; each one is a cover step or a splice."""
    if counters["cover_steps"] + counters["splices"] >= budget:
        raise CertifiedFailureError(
            "covering loop exceeded its round budget", details=trace_bits
        )


def _apply_splice(
    labeled: list[int],
    candidate: list[int],
    splice_path: list[int],
    h_v: Set[int],
    add_v: set[int],
    add_e: set[tuple[int, int]],
    path_set: set[int],
    path_edges: frozenset[tuple[int, int]],
    counters: dict,
) -> None:
    """Replace the label list, drop orphaned vertices, graft the splice path.

    ``add_v`` and ``add_e`` hold what the iteration added to the core
    ``h_v``. A dropped label is never a core vertex, so none of its edges is
    a core edge; path vertices and edges are kept.
    """
    seen: set[int] = set()
    new_labeled: list[int] = []
    for x in candidate:
        if x not in seen:
            seen.add(x)
            new_labeled.append(x)
    dropped = {x for x in labeled if x not in seen}
    add_v.difference_update(dropped - path_set)
    add_e.difference_update([
        e for e in add_e if (e[0] in dropped or e[1] in dropped) and e not in path_edges
    ])
    add_v.update(x for x in splice_path if x not in h_v)
    add_e.update(edge_key(a, b) for a, b in zip(splice_path, splice_path[1:]))
    labeled[:] = new_labeled
    counters["splices"] += 1


def _stabilize(
    g: Graph,
    h_v: set[int],
    near: dict[int, LayeredBFS],
    path_set: set[int],
    path_edges: frozenset[tuple[int, int]],
    add_v: set[int],
    add_e: set[tuple[int, int]],
    labeled: list[int],
    checked: int,
    dist: Sequence[int | float],
    counters: dict,
    budget: int,
) -> None:
    """Re-splice the label list until positions under-state no distance.

    Read the pre-iteration core as position 0 and the labels as positions
    1..k. Invariant on exit: any two positions a < b are at least b - a
    apart (all distances avoid path edges). A violation at the core comes
    first, at the smallest b; else the pair with the smallest a, then the
    smallest b. So every core violation is mended before any label pair.

    Three rules keep the scan to the positions where a violation is still
    possible, and none changes which violation comes first:

    - Clean prefix: the first ``checked`` positions are known to break
      nothing among themselves or with the core, so only the pairs (a, b)
      with b > ``checked`` are read. After a splice at (a, b), the positions
      before a are unchanged and every pair among them came before (a, b),
      so ``checked`` becomes a; after a core splice it becomes 0.
    - Lower bound: ``dist`` never exceeds a vertex's distance to ``h_v`` in
      g and changes by at most one across an edge (``grow_core``'s clamped
      distances, or all zeros). Deleting the path edges only lengthens
      distances, so the pair (a, b) is at least |dist[x_a] - dist[x_b]|
      apart and b at least dist[x_b] from the core (read as dist 0), and a
      pair whose bound reaches b - a needs no search.
    - One search per label: distances are symmetric, so each pair (a, b) is
      read off the later label's search (``near``), deepened to b - a - 1
      for the smallest a left open, which also gives the distance to the
      core (its ``met``). Neither ``h_v`` nor ``path_edges`` changes within
      one ``cover_path``, so a search lives there for the whole call, and a
      label that a splice moves down reuses it.

    Each splice first searches for a route of the pair's distance s that
    avoids the path, and falls back to any shortest route. The first search
    is cut at depth s, since only a route that short is taken. It blocks the
    path alone: a label pair is spliced only once every label b is at least
    b from the core, so a route through the core is at least a + b > s
    long and none is taken. Nothing here copies or scans the core.
    """
    while True:
        lower = [0, *(dist[x] for x in labeled)]
        m1 = m2 = None
        for b in range(checked + 1, len(labeled) + 1):
            # only the positions before the best pair so far can beat it
            top = b if m2 is None else m1
            open_at = [a for a in range(top) if abs(lower[a] - lower[b]) < b - a]
            if not open_at:
                continue
            x = labeled[b - 1]
            if x not in near:
                near[x] = LayeredBFS(g._adj, (x,), path_edges, meets=h_v)
            search = near[x]
            search.deepen(b - open_at[0] - 1)
            if open_at[0] == 0 and search.met < b:
                m1, m2 = 0, b
                break
            row = search.dist
            for a in open_at:
                if a and row.get(labeled[a - 1], UNREACHABLE) < b - a:
                    m1, m2 = a, b
                    break
        if m2 is None:
            return
        q2 = labeled[m2 - 1]
        s = near[q2].met if m1 == 0 else near[q2].dist[labeled[m1 - 1]]
        if m1 == 0 and s <= 0:
            raise CertifiedFailureError(
                "labeled vertex sits inside the core",
                details={"vertex": q2, "position": m2},
            )
        _bump(counters, budget, {"labeled": list(labeled)})
        # at position 0 the search runs from the label to the core
        src, dst = ({q2}, h_v) if m1 == 0 else ({labeled[m1 - 1]}, {q2})
        blocked = {x for x in path_set if x not in src and x not in dst}
        sp = path_between(g, src, dst, path_edges, blocked, limit=s)
        if sp is None:
            sp = path_between(g, src, dst, path_edges)
            counters["labeled_on_path"] += sum(1 for x in sp[1:-1] if x in path_set)
        # s - 1 < m2 - m1 - 1 vertices replace the labels between the pair: the list shrinks
        inner = sp[1:-1][::-1] if m1 == 0 else sp[1:-1]
        candidate = labeled[:m1] + inner + labeled[m2 - 1 :]
        _apply_splice(labeled, candidate, sp, h_v, add_v, add_e, path_set, path_edges, counters)
        checked = m1


class _Joined:
    """Two disjoint vertex sets read as their union, which is never built: the
    core and what one iteration has added to it, as a ``path_between`` end.
    """

    __slots__ = ("first", "second")

    def __init__(self, first: Set[int], second: Set[int]):
        self.first, self.second = first, second

    def __len__(self) -> int:
        return len(self.first) + len(self.second)

    def __iter__(self):
        return chain(self.first, self.second)

    def isdisjoint(self, xs: Iterable[int]) -> bool:
        return self.first.isdisjoint(xs) and self.second.isdisjoint(xs)

    def intersection(self, xs: Iterable[int]) -> set[int]:
        return self.first.intersection(xs) | self.second.intersection(xs)


def cover_path(
    g: Graph,
    h_v: set[int],
    path: list[int],
    budget: int,
    dist: Sequence[int | float],
) -> tuple[set[int], set[tuple[int, int]], list[int], dict]:
    """Patch detours onto core + path until no path edge is a bridge.

    Returns the vertices and edges added to the core, whose vertex set is
    ``h_v``, the detour vertices in label order, and the step counters. The
    core is read, never changed or copied. Its edges are not needed, since
    every added edge has an end outside the core. The working subgraph is
    the core plus what was added. The covered prefix of the path, its
    leading edges that are no bridge of the working subgraph plus the path,
    migrates into the working subgraph as soon as it is safe, so detour
    searches always start from everything already secured.

    Until a step splices, the prefix is known without a bridge search. Read
    the working subgraph with the core contracted to ``path[0]``, as
    ``_covered_prefix`` does. The path is a shortest path out of the core,
    so at the start it hangs off the core and the prefix is 0. A detour runs from the connected
    working subgraph to ``path[j]``, the first vertex beyond the prefix it
    meets, with every inner vertex new. So it closes a cycle over
    ``path[cp..j]`` and adds no edge at a vertex beyond j. The working
    subgraph stays connected, the path beyond j still hangs off ``path[j]``,
    and the prefix becomes j. A splice does not keep this: a fallback splice
    can put an uncovered path vertex into the working subgraph, so once a step
    has spliced the bridge search decides every later step.

    Each detour is searched from the uncovered suffix, the smaller end, and
    stops at the first layer that meets the working subgraph, so a cover
    step costs the ball around the suffix, not the core. Each step adds
    only the part of the prefix not added before.

    Each label is checked once, when it joins the list: ``checked`` counts
    the leading labels known to break no spacing, and ``_stabilize`` scans
    only those beyond it, with ``dist`` (a lower bound on each vertex's
    distance to ``h_v`` that changes by at most one across an edge) ruling
    out most pairs without a search. The first step's labels need no check:
    its detour ``r_1 .. r_k`` is a shortest path out of the core in g minus
    the path edges, so r_i is i from the core and r_j is j - i from r_i, as
    a shorter route would shorten the detour. The core and the path edges
    stay fixed for the whole call, so the label searches of ``_stabilize``
    live here and are deepened, never redone.
    """
    path_edges = frozenset(edge_key(a, b) for a, b in zip(path, path[1:]))
    path_set = set(path)
    add_v: set[int] = set()
    add_e: set[tuple[int, int]] = set()
    working = _Joined(h_v, add_v)
    labeled: list[int] = []
    counters = {"cover_steps": 0, "splices": 0, "labeled_on_path": 0}
    near: dict[int, LayeredBFS] = {}
    target_edges = len(path) - 1
    cp = done = 0  # path[1 : done + 1] and its edges are in add_v and add_e
    checked = 0
    while True:
        add_v.update(path[done + 1 : cp + 1])
        add_e.update(edge_key(a, b) for a, b in zip(path[done:cp], path[done + 1 : cp + 1]))
        done = max(done, cp)
        if cp == target_edges:
            break
        _bump(counters, budget, {"path": path, "covered": cp})
        r_path = path_between(g, working, set(path[cp + 1 :]), path_edges)
        # never fires: the path edge into the suffix would then be a bridge
        # of g, which ``check_preconditions`` refused
        if r_path is None:
            raise CertifiedFailureError(
                "no detour reaches the uncovered suffix",
                details={"path": path, "covered": cp},
            )
        labeled.extend(r_path[1:-1])
        add_v.update(r_path[1:])  # r_path[0] is in the working subgraph already
        add_e.update(edge_key(a, b) for a, b in zip(r_path, r_path[1:]))
        counters["cover_steps"] += 1
        if counters["cover_steps"] > 1:
            _stabilize(
                g, h_v, near, path_set, path_edges, add_v, add_e,
                labeled, checked, dist, counters, budget,
            )
        checked = len(labeled)
        if counters["splices"]:
            cp = _covered_prefix(g, path, h_v, labeled, add_e)
        else:
            cp = path.index(r_path[-1], cp + 1)
    return add_v, add_e, labeled, counters


# ---------------------------------------------------------------------------
# the full growth loop


def _lower(g: Graph, dist: list[int | float], added: Iterable[int], depth: int) -> list[int]:
    """Lower ``dist`` in place (see ``grow_core``); returns the vertices that fall to ``depth``."""
    adj = g._adj
    layer = list(added)
    for s in layer:
        dist[s] = 0
    for d in range(1, depth + 1):
        if not layer:
            break
        nxt = []
        for u in layer:
            for w in adj[u]:
                if dist[w] > d:
                    dist[w] = d
                    nxt.append(w)
        layer = nxt
    return layer


def grow_core(g: Graph, eps: Fraction | int) -> GrowthResult:
    """Iterate path covering until every vertex is within reach of the core.

    The distances to the core, clamped at reach + 1, are lowered in place by
    ``_lower`` from the vertices each iteration adds: a vertex whose
    distance falls is next to one added or to one whose distance fell too,
    so the search costs the region that moved closer, not the graph. Clamped
    distances still differ by at most one across an edge, so a search that
    stops at depth reach lowers them exactly. The loop only asks whether
    some vertex is at reach or beyond, and which is the smallest at exactly
    reach. In a connected graph the first holds exactly when some vertex is
    at reach, so a lazy heap of the vertices at reach, fed by each lowering
    search, answers both. The escape path is searched from its target, the
    smaller end, and ``cover_path`` works near the path and returns what it
    adds, so one iteration costs about the neighbourhood of its escape path,
    not the core. It also reads the clamped distances, as lower bounds that
    rule out most label checks.

    The result and its trace are claims until ``check.certify`` replays
    them: a core that breaks a property is returned, not refused here.
    """
    check_preconditions(g)
    e = as_fraction(eps)
    if e <= 0:
        raise PreconditionError("epsilon must be positive")
    bound = diameter_bound(g.n, min_degree(g), int(girth(g)), e)
    gval, scale, radius, reach = bound.girth, bound.scale, bound.radius, bound.reach
    budget = 50 + 10 * (reach + g.n)

    degs = list(map(len, g._adj))
    v0 = degs.index(max(degs))  # a largest degree, the smallest such id
    h_v: set[int] = {v0}
    h_e: set[tuple[int, int]] = set()
    b_list: list[int] = [v0]
    f_set = ball(g, v0, radius)
    header = {
        "type": "growth_header",
        "schema": 2,
        **header_claims(g, bound),
        "v0": v0,
        "base_claimed": sorted(f_set),
    }

    iterations: list[IterationRecord] = []
    dist = [reach + 1] * g.n
    at_reach: list[int] = []  # every vertex at distance reach, and some that were
    added: Iterable[int] = (v0,)
    while True:
        for w in _lower(g, dist, added, reach):
            heapq.heappush(at_reach, w)
        while at_reach and dist[at_reach[0]] != reach:
            heapq.heappop(at_reach)
        if not at_reach:
            break
        # never fires: each iteration adds its escape path's end to the core, so n - 1 at most
        if len(iterations) >= g.n:
            raise CertifiedFailureError(
                "more growth iterations than vertices",
                details={"header": header},
            )
        path = path_between(g, h_v, {at_reach[0]})
        path_edges = [(a, b) for a, b in zip(path, path[1:])]
        added, added_e, labeled, counters = cover_path(g, h_v, path, budget, dist)

        sel = labeled[gval - 1 :: gval]
        fallback = len(sel) < scale
        if fallback:
            centers = [path[c * gval] for c in range(1, scale + 1)]
        else:
            centers = list(sel)
        claimed = set()
        for c in centers:
            claimed |= ball(g, c, radius, excluded=() if fallback else path_edges)
        claimed -= f_set
        f_set |= claimed
        b_list.extend(centers)
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
                added_edges=tuple(sorted(added_e)),
                added_claimed=tuple(sorted(claimed)),
            )
        )
        h_v |= added
        h_e |= added_e

    final = {
        "type": "growth_final",
        **final_claims(len(iterations), int(max(dist)), reach, h_v, b_list, f_set),
    }
    return GrowthResult(
        core_vertices=frozenset(h_v),
        core_edges=frozenset(h_e),
        trace=GrowthTrace(header, iterations, final),
        bound=bound,
    )
