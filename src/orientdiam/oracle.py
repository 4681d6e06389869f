"""Exact references computed by exhaustive search, for checking the fast path.

The searcher works on bitmasks and the diameter reference on a raw arc
list, apart from the construction code, so agreement is evidence.
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
