"""Exact references computed by exhaustive search, for checking the fast path.

Everything here is deliberately independent of the construction code: the
searcher works on bitmasks, the two diameter searches on raw arc lists (a
plain BFS from every vertex, the reference, and the eccentricity-bounding
search that ``pipeline.certify`` runs on the whole orientation and on the
core's arcs alone, the only measurement of either diameter there), so
agreement with the main pipeline is meaningful evidence. The construction's
``orientation.diameter_among`` bounds eccentricities too; what keeps the
check independent is separate code, not a different algorithm.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from collections.abc import Iterable

from .errors import BudgetExceededError
from .graph import UNREACHABLE, Graph, bridge_witness


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the exhaustive search over all orientations."""

    value: int | None  # smallest achievable directed diameter, None if infeasible
    feasible: bool  # False when the graph has a bridge or is disconnected
    leaves: int  # strong orientations that beat every earlier one, not leaves evaluated
    witness: tuple[tuple[int, int], ...] | None = None  # arcs achieving value


def _leaf_diameter(out_adj: list[int], n: int, cap: int | float) -> int | None:
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


def exact_oriented_diameter(g: Graph, budget: int = 24) -> OracleResult:
    """Minimum directed diameter over all strong orientations, exhaustively.

    Branches over edge directions, cuts a branch once a finished vertex has no
    in- or no out-arc, and stops evaluating a leaf once it cannot beat the best
    found. Symmetry: reversing every arc preserves strongness and diameter, so
    the first edge's direction is fixed and only half the space is visited.
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
            d = _leaf_diameter(out_adj, n, best)
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


def directed_diameter_of_arcs(n: int, arcs: Iterable[tuple[int, int]]) -> int | float:
    """Directed diameter straight from an arc list; an independent slow path."""
    out: list[list[int]] = [[] for _ in range(n)]
    for t, h in arcs:
        out[t].append(h)
    worst: int | float = 0
    for s in range(n):
        dist = {s: 0}
        queue: deque[int] = deque([s])
        while queue:
            u = queue.popleft()
            for w in out[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if len(dist) < n:
            return UNREACHABLE
        worst = max(worst, max(dist.values()))
    return worst


def _bfs(adj: list[list[int]], s: int) -> tuple[list[int], int]:
    """Distances from s over list adjacency (-1 where unreached), and the last layer's depth."""
    dist = [-1] * len(adj)
    dist[s] = 0
    layer = [s]
    d = 0
    while layer:
        nxt = []
        for u in layer:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = d + 1
                    nxt.append(w)
        if not nxt:
            break
        layer = nxt
        d += 1
    return dist, d


def bounded_diameter_of_arcs(n: int, arcs: Iterable[tuple[int, int]]) -> int | float:
    """Directed diameter straight from an arc list by eccentricity bounding; exact.

    The independent fast path: its own arc lists and BFS, nothing shared with
    ``orientation``. Each pivot v runs one forward and one backward BFS, and
    the triangle inequality bounds every candidate w (Takes & Kosters 2011, in
    the directed form of Crescenzi, Grossi, Lanzi & Marino 2013):
    ``max(d(w,v), ecc_out(v) - d(v,w)) <= ecc_out(w) <= d(w,v) + ecc_out(v)``,
    and mirrored for ``ecc_in``. The diameter is both the largest out- and the
    largest in-eccentricity, so a vertex stops being a candidate in a direction
    once its upper bound there is at most the best lower bound, and the answer
    is found when either direction has no candidate left. Pivots alternate
    between the candidate with the largest upper bound, which settles the
    least known eccentricity, and the one with the smallest lower bound, a
    central vertex whose distances tighten the other upper bounds; ties go to
    the smallest id. On a vertex-transitive digraph such as a directed cycle
    no bound ever prunes, so once the BFS runs spent reach the candidates left
    in the smaller direction, each of those gets one plain BFS instead.
    UNREACHABLE when the first pivot's searches miss a vertex, that is when
    the digraph is not strong.
    """
    if n <= 1:
        return 0
    out: list[list[int]] = [[] for _ in range(n)]
    inn: list[list[int]] = [[] for _ in range(n)]
    for t, h in arcs:
        out[t].append(h)
        inn[h].append(t)
    # per direction (0 out, 1 in): bounds on every vertex's eccentricity, and
    # the vertices, ascending, whose upper bound still exceeds ``best``
    upper = ([n] * n, [n] * n)
    lower = ([0] * n, [0] * n)
    cands = (list(range(n)), list(range(n)))
    best = 0
    spent = 0
    by_upper = True
    while cands[0] and cands[1]:
        few = 0 if len(cands[0]) <= len(cands[1]) else 1
        if spent >= len(cands[few]):
            for w in cands[few]:
                if upper[few][w] > best:
                    best = max(best, _bfs((out, inn)[few], w)[1])
            return best
        if by_upper:
            v = -max((upper[k][w], -w) for k in (0, 1) for w in cands[k])[1]
        else:
            v = min((lower[k][w], w) for k in (0, 1) for w in cands[k])[1]
        by_upper = not by_upper
        fwd, ecc_out = _bfs(out, v)
        bwd, ecc_in = _bfs(inn, v)
        if spent == 0 and (min(fwd) < 0 or min(bwd) < 0):
            return UNREACHABLE
        spent += 2
        best = max(best, ecc_out, ecc_in)
        # out-eccentricities read d(w, v) from bwd and d(v, w) from fwd; in, the mirror
        for k, ecc, to_v, from_v in ((0, ecc_out, bwd, fwd), (1, ecc_in, fwd, bwd)):
            up, lo = upper[k], lower[k]
            for w in cands[k]:
                a, b = to_v[w], from_v[w]
                if a + ecc < up[w]:
                    up[w] = a + ecc
                if a > lo[w]:
                    lo[w] = a
                if ecc - b > lo[w]:
                    lo[w] = ecc - b
            cands[k][:] = [w for w in cands[k] if up[w] > best]
    return best
