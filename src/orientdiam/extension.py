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

from dataclasses import dataclass

from .bounds import allowed_increase, round_trip_cap
from .errors import CertifiedFailureError, PreconditionError
from .graph import UNREACHABLE, Graph, bfs_distances, edge_key, path_between
from .orientation import (
    Orientation,
    digraph_diameter,
    directed_distance,
    directed_distances_from,
    directed_distances_to,
    directed_diameter,
    orient_path,
)


@dataclass
class ExtensionTrace:
    records: list[dict]
    final: dict

    def to_records(self) -> list[dict]:
        return [*self.records, dict(self.final)]


def core_directed_diameter(o: Orientation, core_vertices) -> int:
    """Directed diameter of the core on its own arcs, renumbered 0..k-1 as
    ``check.certify`` renumbers them; arcs leaving the core are ignored."""
    index = {v: i for i, v in enumerate(sorted(core_vertices))}
    out: list[list[int]] = [[] for _ in index]
    inn: list[list[int]] = [[] for _ in index]
    for t, h in o.arcs():
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


def _absorb(
    o: Orientation,
    a_start: frozenset[int],
    absorbed: set[int],
    v: int,
    anchor: int,
    q: list[int],
) -> dict:
    """Orient an entry/exit pair for one frontier vertex; returns the step record.

    ``q`` is v's escape path to ``a_start`` that avoids the edge to its anchor.
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
    if vprime in a_start:
        record["case"] = "core"
    else:
        a_val = directed_distance(o, vprime, a_start)
        b_val = directed_distance(o, vprime, a_start, reverse=True)
        if a_val == UNREACHABLE or b_val == UNREACHABLE:
            raise CertifiedFailureError(
                "absorbed vertex has no round trip yet",
                details={"vertex": vprime},
            )
        j, record["window_empty"] = _chain_offset(i, int(a_val), int(b_val))
        record["case"] = "chain"
        record["j"] = j
    forward = record["case"] == "core" or record["j"] < 0
    orient_path(o, qprime, forward=forward)
    o.assign(*((anchor, v) if forward else (v, anchor)))
    absorbed.update(qprime)
    return record


def extend_orientation(
    g: Graph,
    core_vertices: frozenset[int] | set[int],
    core_arcs: list[tuple[int, int]],
) -> tuple[Orientation, ExtensionTrace]:
    """Extend the core arcs to an orientation of all of g, meant to be strong.

    The trace's diameters and its ``ok`` are claims until ``check.certify``
    replays them.
    """
    o = Orientation(g)
    for t, h in core_arcs:
        o.assign(t, h)
    a0 = frozenset(core_vertices)
    if not a0:
        raise PreconditionError("core must be non-empty")
    absorbed = set(a0)
    dist = bfs_distances(g, absorbed)
    s_initial = max(dist)
    if s_initial == UNREACHABLE:
        raise PreconditionError("core does not reach the whole graph")
    core_diam = core_directed_diameter(o, a0)
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
        s_r = int(max(dist))
        if s_r == 0:
            break
        if s_prev is not None and s_r >= s_prev:
            raise CertifiedFailureError(
                "reach to the core failed to shrink between rounds",
                details={"previous": s_prev, "current": s_r},
            )
        s_prev = s_r
        round_no += 1
        a_start = frozenset(absorbed)
        v1 = [v for v in range(g.n) if dist[v] == 1]
        anchors = {
            v: min(w for w in g.neighbors(v) if w in a_start) for v in v1
        }
        # g and a_start stay fixed for the round, so each escape path is too;
        # bfs_distances checked the core's range, and a_start grows by BFS
        escape: dict[int, list[int]] = {}
        for v in v1:
            q = path_between(g, {v}, a_start, frozenset((edge_key(v, anchors[v]),)))
            if q is None:
                raise CertifiedFailureError(
                    "frontier vertex has no second route to the core",
                    details={"vertex": v},
                )
            escape[v] = q
        steps: list[dict] = []
        # shortest escape first; the sort is stable, so ties keep vertex order
        for v in sorted(v1, key=lambda v: len(escape[v])):
            if v in absorbed:
                continue
            rec = _absorb(o, a_start, absorbed, v, anchors[v], escape[v])
            rec["round"] = round_no
            steps.append(rec)
        new = sorted(absorbed - a_start)
        din = directed_distances_to(o, a_start)
        dout = directed_distances_from(o, a_start)
        bad = [v for v in new if din[v] == UNREACHABLE or dout[v] == UNREACHABLE]
        if bad:
            raise CertifiedFailureError(
                "absorbed vertices lack a certified round trip",
                details={"round": round_no, "vertices": bad},
            )
        roundtrip = max((int(din[v] + dout[v]) for v in new), default=0)
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
        dist = bfs_distances(g, absorbed)
    for u, v in g.edges():
        if o.direction(u, v) is None:
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
