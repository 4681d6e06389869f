"""Exact references computed by exhaustive search, for checking the fast path.

The searcher works on bitmasks and the diameter reference on a raw arc
list, apart from the construction code, so agreement is evidence. The
searcher's one prune is a lower bound: the diameter of the partial
orientation with every edge not yet oriented read as both arcs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from collections.abc import Iterable

from .errors import BudgetExceededError
from .graph import UNREACHABLE, Graph, bridge_witness

DEFAULT_BUDGET = 24  # the most edges exact_oriented_diameter searches unless told otherwise


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the exhaustive search over all orientations."""

    value: int | None  # smallest achievable directed diameter, None if infeasible
    feasible: bool  # False when the graph has a bridge or is disconnected
    leaves: int  # strong orientations that beat every earlier one, not leaves evaluated
    witness: tuple[tuple[int, int], ...] | None = None  # arcs achieving value


def _diameter_below(adj: list[int], n: int, cap: int | float) -> int | None:
    """Directed diameter from bitmask out-neighborhoods, when it is below cap.

    Returns None as soon as the digraph is not strong or its diameter reaches
    cap. The search calls it on every node: there ``adj`` holds each edge not
    yet oriented as both arcs, so the value bounds every completion from below.
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
                nxt |= adj[b.bit_length() - 1]
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


def exact_oriented_diameter(g: Graph, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Minimum directed diameter over all strong orientations, exhaustively.

    Branches over edge directions in ``g.edges()`` order. An edge not yet
    oriented counts as both arcs, so that digraph contains every completion
    and its diameter bounds each of them from below: one call prunes a node
    whose digraph is not strong or cannot beat the best found, and at a leaf
    the same call measures the orientation itself. Symmetry: reversing every
    arc preserves strongness and diameter, so the first edge's direction is
    fixed and only half the space is visited.
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
    adj = [sum(1 << w for w in g.neighbors(v)) for v in range(n)]
    chosen: list[tuple[int, int]] = [(0, 0)] * m
    best: int | float = UNREACHABLE
    witness: tuple[tuple[int, int], ...] = ()
    leaves = 0

    def rec(i: int) -> None:
        nonlocal best, witness, leaves
        d = _diameter_below(adj, n, best)
        if d is None:  # no completion is strong and beats best
            return
        if i == m:  # strong, and below the cap: a new best
            leaves += 1
            best = d
            witness = tuple(chosen)
            return
        u, v = edges[i]
        for t, h in ((u, v),) if i == 0 else ((u, v), (v, u)):
            adj[h] &= ~(1 << t)
            chosen[i] = (t, h)
            rec(i + 1)
            adj[h] |= 1 << t

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
