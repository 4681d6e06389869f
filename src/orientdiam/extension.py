"""Extends a strong core orientation to the whole graph, round by round.

Each round absorbs the vertices at distance one from the current core: a
vertex gets an entry arc from its anchor and an exit route along a shortest
escape path (or the reverse pairing), chosen so both directions stay short.
Absorbed vertices join the core for the next round, so the frontier walks
outward and the number of rounds is at most the initial reach.

The final record states the diameter increase and whether it stays within
the quadratic cap; ``check.certify`` judges that claim, the construction
does not.
"""

from __future__ import annotations

from collections.abc import Iterable, Set
from dataclasses import dataclass

from .bounds import allowed_increase, round_trip_cap
from .errors import CertifiedFailureError, PreconditionError
from .graph import UNREACHABLE, Graph
from .orientation import (
    Orientation,
    digraph_diameter,
    directed_diameter,
    orient_path,
)


SHARED = -1  # owner label of a vertex whose shortest routes to the core part ways


class EscapeSearch:
    """One round's breadth-first search from the core, and every frontier
    vertex's escape path read off it.

    The search gives ``dist``, each vertex's distance to the core, and
    ``owner``: a vertex at distance 1 owns itself, a deeper vertex takes its
    parents' owner (its neighbours one layer closer) when they all agree and
    ``SHARED`` otherwise, one comparison per arc. Every shortest route from x
    to the core meets distance 1 at one vertex, so ``owner[x] == v`` exactly
    when every such route passes through v. Core vertices are ``SHARED``.

    Frontier vertex v, at distance 1, escapes along the lexicographically
    smallest shortest path to the core in g minus the edge to its anchor a,
    its smallest core neighbour: the path ``path_between(g, {v}, core,
    {v-a})`` returns. Write d'(x) for x's distance to the core in g - v:

    - d'(x) = dist[x] when v does not own x, as some shortest route avoids
      v; an owned x has d'(x) >= dist[x] + 1;
    - the escape length is L = 1 + min d'(w) over the neighbours w != a. A
      neighbour v does not own has dist at most 2, and an owned one d' >= 3,
      so one unowned neighbour settles L <= 3 with no search;
    - otherwise ``_region`` searches d' over the vertices v owns, seeded from
      their unowned neighbours. Each vertex has one owner, so a round's
      region searches together cost O(n + m).

    The walk from v then takes, at each step, the smallest neighbour x with
    d'(x) equal to the length still to go: never v itself, nor a on the
    first step, nor an owned vertex the region search did not reach. This is
    ``path_between``'s path. Its search from v in g - {v-a} keeps, k steps
    out, the vertices at distance k from v and L - k from the core, and
    steps to the smallest of them next to the last vertex. For x next to a
    vertex k - 1 steps out, distance L - k to the core already gives
    distance k from v; and no shortest route from x to the core runs
    through v, whose own distance L would then be shorter, so that distance
    is d'(x) in g - {v-a} as in g - v. Each step chooses among the same
    vertices.
    """

    __slots__ = ("adj", "dist", "owner", "dprime", "reach", "unreached", "frontier",
                 "anchor", "length")

    def __init__(self, g: Graph, core: Set[int], boundary: Iterable[int] | None = None):
        """``boundary`` holds every core vertex with a neighbour outside the
        core, the whole core when None; only its arcs seed the first layer."""
        adj = g._adj
        dist = [-1] * g.n
        owner = [SHARED] * g.n
        for c in core:
            dist[c] = 0
        nxt = []
        for u in core if boundary is None else boundary:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = 1
                    owner[w] = w
                    nxt.append(w)
        self.frontier = sorted(nxt)
        reached, d, layer = len(core), 0, nxt
        while layer:
            d += 1
            reached += len(layer)
            nxt = []
            for u in layer:
                o = owner[u]
                for w in adj[u]:
                    dw = dist[w]
                    if dw < 0:
                        dist[w] = d + 1
                        owner[w] = o
                        nxt.append(w)
                    elif dw > d and owner[w] != o:
                        owner[w] = SHARED
            layer = nxt
        self.adj, self.dist, self.owner = adj, dist, owner
        self.reach, self.unreached = d, g.n - reached
        # d' of the vertices whose owner's region was searched, -1 elsewhere
        self.dprime: list[int | float] = [-1] * g.n
        self.anchor: dict[int, int] = {}
        self.length: dict[int, int | float] = {}
        for v in self.frontier:
            a, best = -1, UNREACHABLE
            for w in adj[v]:
                if a < 0 and dist[w] == 0:
                    a = w
                elif owner[w] != v and dist[w] < best:
                    best = dist[w]
            if best == UNREACHABLE:
                dp = self._region(v)
                best = min((dp[w] for w in adj[v] if w != a and dp[w] >= 0), default=best)
            self.anchor[v], self.length[v] = a, best + 1

    def _region(self, v: int) -> list[int | float]:
        """Fill in d' over the vertices v owns; those g - v cuts off stay
        negative, and v itself, not in g - v, is UNREACHABLE."""
        adj, dist, owner, dp = self.adj, self.dist, self.owner, self.dprime
        dp[v] = UNREACHABLE
        members = [v]
        for u in members:
            for w in adj[u]:
                if owner[w] == v and dp[w] == -1:
                    dp[w] = -2
                    members.append(w)
        # Dial's buckets: each member enters at 1 + the least dist of its
        # unowned neighbours, and the layer at d' = d is joined by those at d
        buckets: dict[int, list[int]] = {}
        for x in members[1:]:
            seed = UNREACHABLE
            for y in adj[x]:
                if owner[y] != v and dist[y] < seed:
                    seed = dist[y]
            if seed != UNREACHABLE:
                buckets.setdefault(seed + 1, []).append(x)
        d, layer = 0, []
        while layer or buckets:
            if not layer:
                d = min(buckets)
            layer += buckets.pop(d, [])
            nxt = []
            for x in layer:
                if dp[x] < 0:
                    dp[x] = d
                    nxt += adj[x]
            layer = [w for w in nxt if owner[w] == v and dp[w] < 0]
            d += 1
        return dp

    def path(self, v: int) -> list[int]:
        """v's escape path, by the walk of the class docstring; its length
        must be finite."""
        adj, dist, owner, dp = self.adj, self.dist, self.owner, self.dprime
        a, to_go = self.anchor[v], self.length[v] - 1
        # v's d' is UNREACHABLE or -1, and an owned vertex's is -1 unless reached
        cur = next(w for w in adj[v] if w != a and (dist[w] if owner[w] != v else dp[w]) == to_go)
        path = [v, cur]
        while to_go:
            to_go -= 1
            cur = next(w for w in adj[cur] if (dist[w] if owner[w] != v else dp[w]) == to_go)
            path.append(cur)
        return path


@dataclass
class ExtensionTrace:
    records: list[dict]
    final: dict

    def to_records(self) -> list[dict]:
        return [*self.records, dict(self.final)]


def core_directed_diameter(core_vertices, arcs: list[tuple[int, int]]) -> int:
    """Directed diameter of the core on its own arcs, renumbered 0..k-1 as
    ``check.certify`` renumbers them; arcs leaving the core are ignored."""
    index = {v: i for i, v in enumerate(sorted(core_vertices))}
    out: list[list[int]] = [[] for _ in index]
    inn: list[list[int]] = [[] for _ in index]
    for t, h in arcs:
        if t in index and h in index:
            out[index[t]].append(index[h])
            inn[index[h]].append(index[t])
    diam = digraph_diameter(out, inn)
    if diam == UNREACHABLE:
        raise CertifiedFailureError("core orientation is not strongly connected")
    return int(diam)


def _chain_offset(i: int, a_val: int, b_val: int) -> tuple[int, bool]:
    """Offset j of a chain vertex's escape path, and whether its window is empty.

    The escape path has length ``i``; its absorbed end reaches the round's
    start core in ``a_val`` arcs and is reached from it in ``b_val``. The
    window, where both round trips stay short, holds the j in -i..i with
    b_val - i <= j <= i - a_val; j is its offset closest to 0, ties going to
    j >= 0. j >= 0 enters the vertex along the path and leaves by the anchor,
    j < 0 the reverse. An empty window favors the entry side, and the final
    certification judges the damage.
    """
    lo, hi = max(b_val - i, -i), min(i - a_val, i)
    if lo <= hi:
        return min(max(0, lo), hi), False
    return min(lo, i), True


def _lower(arcs: list[list[int]], label: dict[int, int], v: int, d: int) -> None:
    """Lower ``label[v]`` to d and spread the fall along ``arcs``.

    ``label`` holds directed distances from or to ``a_start`` (``arcs`` the
    out-lists or the in-lists), read as 0 at a vertex it lacks; it was exact
    before one new route put v within d. A label changes by at most one
    across an arc, so a vertex whose label does not fall passes no fall on,
    and the search relaxes only the vertices whose label falls. None of them
    lies in ``a_start``, whose label 0 cannot fall.
    """
    label[v] = d
    layer = [v]
    while layer:
        d += 1
        nxt = []
        for u in layer:
            for w in arcs[u]:
                if label.get(w, 0) > d:
                    label[w] = d
                    nxt.append(w)
        layer = nxt


def _absorb(
    o: Orientation,
    absorbed: set[int],
    to_core: dict[int, int],
    from_core: dict[int, int],
    v: int,
    anchor: int,
    q: list[int],
) -> dict:
    """Orient an entry/exit pair for one frontier vertex; returns the step record.

    ``q`` is v's escape path to the round's core ``a_start`` that avoids the
    edge to its anchor. ``to_core`` and ``from_core`` hold the directed
    distances of the round's new vertices to ``a_start`` and from it, and a
    vertex they lack lies in ``a_start``. The step orients one directed path
    between the anchor and q's first absorbed vertex v' = q[idx], forward
    ``anchor -> q[0] -> ... -> q[idx]`` or the reverse, and keeps both
    labels exact:

    - q[0] .. q[idx - 1] have no other arc, so forward gives q[k] the
      distance k + 1 from ``a_start`` and idx - k plus the distance of v' to
      it, and the reverse the same with the two swapped;
    - an earlier vertex meets the new path only through its anchor, already
      in ``a_start``, or through v', so only the distance of v' from
      ``a_start`` (forward; to it, in reverse) can fall, to idx + 1, and
      ``_lower`` spreads the fall.

    The labels are read before the path is oriented, as the offset window
    sees the orientation. Every absorbed vertex gets both labels, finite,
    when it is absorbed, so no step needs to test for a missing round trip;
    the final diameter still refuses an orientation that is not strong.
    """
    i = len(q) - 1
    idx = next(k for k in range(1, len(q)) if q[k] in absorbed)
    vprime = q[idx]
    qprime = q[: idx + 1]
    record: dict = {
        "type": "extension_step",
        "vertex": v,
        "anchor": anchor,
        "escape": i,
        "vprime": vprime,
        "path": qprime,
    }
    if vprime not in to_core:
        record["case"] = "core"
    else:
        j, record["window_empty"] = _chain_offset(i, to_core[vprime], from_core[vprime])
        record["case"] = "chain"
        record["j"] = j
    forward = record["case"] == "core" or record["j"] < 0
    orient_path(o, qprime, forward=forward)
    o.assign(*((anchor, v) if forward else (v, anchor)))
    absorbed.update(qprime)
    # the label that counts from the anchor along the path, the one that
    # counts back through v', and the arcs the first one's fall spreads along
    via_anchor, via_vprime, arcs = (
        (from_core, to_core, o._out) if forward else (to_core, from_core, o._in)
    )
    beyond = via_vprime.get(vprime, 0)
    for k in range(idx):
        via_anchor[q[k]] = k + 1
        via_vprime[q[k]] = idx - k + beyond
    if via_anchor.get(vprime, 0) > idx + 1:
        _lower(arcs, via_anchor, vprime, idx + 1)
    return record


def extend_orientation(
    g: Graph,
    core_vertices: frozenset[int] | set[int],
    core_arcs: list[tuple[int, int]],
) -> tuple[Orientation, ExtensionTrace]:
    """Extend the core arcs to an orientation of all of g, meant to be strong.

    The core arcs must join core vertices. The trace's diameters and its
    ``ok`` are claims until ``check.certify`` replays them.
    """
    o = Orientation(g)
    for t, h in core_arcs:
        o.assign(t, h)
    a0 = frozenset(core_vertices)
    if not a0:
        raise PreconditionError("core must be non-empty")
    if min(a0) < 0 or max(a0) >= g.n:
        raise ValueError(f"source out of range for n={g.n}")
    if any(t not in a0 or h not in a0 for t, h in core_arcs):
        raise PreconditionError("core arcs must join core vertices")
    absorbed = set(a0)
    search = EscapeSearch(g, absorbed)
    if search.unreached:
        raise PreconditionError("core does not reach the whole graph")
    s_initial = search.reach
    core_diam = core_directed_diameter(a0, core_arcs)
    allowed = allowed_increase(s_initial)
    records: list[dict] = [
        {
            "type": "extension_header",
            "core_size": len(a0),
            "core_diameter": core_diam,
            "s": s_initial,
            "allowed_increase": allowed,
        }
    ]
    s_prev: int | None = None
    round_no = 0
    while True:
        s_r = search.reach
        if s_r == 0:
            break
        # never fires: every frontier vertex is absorbed in its round, so
        # every remaining distance drops by at least one
        if s_prev is not None and s_r >= s_prev:
            raise CertifiedFailureError(
                "reach to the core failed to shrink between rounds",
                details={"previous": s_prev, "current": s_r},
            )
        s_prev = s_r
        round_no += 1
        v1 = search.frontier
        # g and a_start stay fixed for the round, so each escape path is too
        for v in v1:
            if search.length[v] == UNREACHABLE:
                raise CertifiedFailureError(
                    "frontier vertex has no second route to the core",
                    details={"vertex": v},
                )
        steps: list[dict] = []
        # the round's new vertices, keyed to their directed distances to the
        # round's core a_start and from it (``_absorb``)
        to_core: dict[int, int] = {}
        from_core: dict[int, int] = {}
        # shortest escape first; the sort is stable, so ties keep vertex order
        for v in sorted(v1, key=search.length.__getitem__):
            if v in absorbed:
                continue
            rec = _absorb(o, absorbed, to_core, from_core, v, search.anchor[v], search.path(v))
            rec["round"] = round_no
            steps.append(rec)
        new = sorted(to_core)
        roundtrip = max((to_core[v] + from_core[v] for v in new), default=0)
        records.append(
            {
                "type": "extension_round",
                "round": round_no,
                "s": s_r,
                "frontier": v1,
                "absorbed": new,
                "roundtrip_max": roundtrip,
                "roundtrip_probe_ok": roundtrip <= round_trip_cap(s_r),
            }
        )
        records.extend(steps)
        # the round absorbed every neighbour of a_start, so only new vertices
        # can have one outside the core
        search = EscapeSearch(g, absorbed, new)
    out = o._out
    for u, v in g.edges():
        if v not in out[u] and u not in out[v]:
            o.assign(u, v)
    final_diam = directed_diameter(o)
    strong = final_diam != UNREACHABLE
    increase = int(final_diam) - core_diam if strong else None
    final = {
        "type": "extension_final",
        "strong": strong,
        "diameter": int(final_diam) if strong else None,
        "core_diameter": core_diam,
        "increase": increase,
        "allowed_increase": allowed,
        "rounds": round_no,
        "ok": strong and increase <= allowed,
    }
    return o, ExtensionTrace(records, final)
