"""Edge orientations of an undirected base graph, partial or complete.

An orientation stores, per assigned edge, which endpoint is the head.
Distance queries follow assigned arcs only, so a partially oriented graph
behaves as the digraph of its assigned arcs.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .errors import (
    GraphFormatError,
    IncompleteOrientationError,
    OrientationConflictError,
    PreconditionError,
)
from .graph import (
    UNREACHABLE, Graph, _bfs_among, _largest_eccentricity, all_distances,
    bridge_witness, dfs_forest, edge_key, read_rows, write_rows,
)


class Orientation:
    """A direction assignment over the edges of a fixed base graph."""

    __slots__ = ("base", "_out", "_in")

    def __init__(self, base: Graph):
        self.base = base
        # per-vertex arc lists in assignment order, kept up to date by assign
        self._out: list[list[int]] = [[] for _ in range(base.n)]
        self._in: list[list[int]] = [[] for _ in range(base.n)]

    def assign(self, tail: int, head: int) -> None:
        """Orient the edge tail-head as the arc tail->head.

        Re-assigning the same direction is a no-op; the opposite direction
        raises OrientationConflictError.
        """
        if not self.base.has_edge(tail, head):
            raise ValueError(f"({tail}, {head}) is not an edge of the base graph")
        if tail in self._out[head]:
            raise OrientationConflictError(
                f"edge {edge_key(tail, head)} is already oriented toward {tail}, not {head}"
            )
        if head not in self._out[tail]:
            self._out[tail].append(head)
            self._in[head].append(tail)

    def direction(self, u: int, v: int) -> int | None:
        """Head of the edge u-v, or None while unassigned."""
        if not self.base.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge of the base graph")
        if v in self._out[u]:
            return v
        return u if u in self._out[v] else None

    def is_complete(self) -> bool:
        return sum(map(len, self._out)) == self.base.m

    def arcs(self) -> list[tuple[int, int]]:
        """Assigned arcs as (tail, head) pairs, sorted by canonical edge."""
        out = []
        for u, v in self.base.edges():
            if v in self._out[u]:
                out.append((u, v))
            elif u in self._out[v]:
                out.append((v, u))
        return out

    def __repr__(self) -> str:
        return f"Orientation({self.base!r}, assigned={sum(map(len, self._out))}/{self.base.m})"


# ---------------------------------------------------------------------------
# directed distances


def directed_distances_from(o: Orientation, sources: Iterable[int]) -> list[int | float]:
    """Directed distance from the nearest source to every vertex."""
    return all_distances(o._out, sources)


def directed_distances_to(o: Orientation, targets: Iterable[int]) -> list[int | float]:
    """Directed distance from every vertex to the nearest target."""
    return all_distances(o._in, targets)


def _bit_levels(pull: list[list[int]], sources: list[int]) -> int | float:
    """Levels until every vertex lies within reach of every source; UNREACHABLE
    when ``len(pull) - 1`` levels leave a bit unset: no distance in a digraph
    reaches its order.

    Bit-parallel BFS (Akiba, Iwata & Yoshida, SIGMOD 2013): bit i of
    ``seen[v]`` is set once ``sources[i]`` lies within the current radius of
    v. Each level is one pass that ORs into v the bits of its ``pull``
    neighbors, read from the previous level's list. With ``pull`` the
    in-lists the radius runs from the sources to v, with the out-lists from
    v to the sources.
    """
    full = (1 << len(sources)) - 1
    seen = [0] * len(pull)
    for i, v in enumerate(sources):
        seen[v] = 1 << i
    for d in range(len(pull)):
        if seen.count(full) == len(seen):
            return d
        nxt = []
        for bits, us in zip(seen, pull):
            for u in us:
                bits |= seen[u]
            nxt.append(bits)
        seen = nxt
    return UNREACHABLE


def digraph_diameter(out: list[list[int]], inn: list[list[int]]) -> int | float:
    """Directed diameter of the digraph with these out- and in-lists; exact.

    Each pivot v runs one forward and one backward BFS, and the triangle
    inequality bounds every candidate w (Takes & Kosters 2011, directed as
    in Crescenzi, Grossi, Lanzi & Marino 2013): ``ecc_out(w) <= d(w,v) +
    ecc_out(v)``, mirrored for ``ecc_in``. A vertex stops being a candidate
    in a direction once its upper bound there is at most ``best``, the
    largest eccentricity measured; the answer is found when either direction
    has none left, or when ``best`` reaches n - 1, which no eccentricity of
    an n-vertex digraph exceeds. Each pivot is the candidate with the
    largest upper bound, ties going to the smallest id. Work is counted in
    BFS runs, and a pivot is charged 4: its two searches, and its two passes
    over the candidate lists (the bounds update, and the next pivot's
    choice), which on short diameters cost about as much as the searches.
    The candidates left in the smaller direction are finished, with no
    tuned constant:

    - once fewer are left than runs spent, by one plain BFS each (a directed
      cycle, where no bound prunes);
    - once the runs spent reach ``best``, by ``_bit_levels`` from all of
      them: it costs about one BFS per level, and ``best`` is a lower bound
      on the diameter, the levels it would need from every vertex (ski
      rental: rent until the rent paid reaches the price).

    UNREACHABLE when the first pivot's searches miss a vertex; 0 for at most
    one vertex. ``check.bounded_diameter_of_arcs`` is the checker's own copy.
    """
    n = len(out)
    if n <= 1:
        return 0
    # per direction (0 out, 1 in): upper bounds on every vertex's eccentricity,
    # and the vertices, ascending, whose upper bound still exceeds ``best``
    upper = ([n] * n, [n] * n)
    cands = (list(range(n)), list(range(n)))
    best = 0
    spent = 0
    while cands[0] and cands[1] and best < n - 1:
        few = 0 if len(cands[0]) <= len(cands[1]) else 1
        if spent >= len(cands[few]):
            return _largest_eccentricity((out, inn)[few], cands[few], upper[few], best)
        if 0 < best <= spent:
            # out-eccentricities pull bits along in-arcs, in-eccentricities along out-arcs
            return max(best, _bit_levels((inn, out)[few], cands[few]))
        # each direction's first largest bound, then the larger, ties to the smaller id
        v0, v1 = (max(cands[k], key=upper[k].__getitem__) for k in (0, 1))
        v = -max((upper[0][v0], -v0), (upper[1][v1], -v1))[1]
        fwd, ecc_out = _bfs_among(out, (v,))
        bwd, ecc_in = _bfs_among(inn, (v,))
        if ecc_out == UNREACHABLE or ecc_in == UNREACHABLE:
            return UNREACHABLE
        spent += 4
        best = max(best, ecc_out, ecc_in)
        # out-eccentricities read d(w, v) from bwd; in-eccentricities, from fwd
        for k, ecc, to_v in ((0, ecc_out, bwd), (1, ecc_in, fwd)):
            up = upper[k]
            for w in cands[k]:
                a = to_v[w] + ecc
                if a < up[w]:
                    up[w] = a
            cands[k][:] = [w for w in cands[k] if up[w] > best]
    return best


def is_strong(o: Orientation) -> bool:
    """True when every ordered vertex pair is joined by a directed path."""
    if not o.is_complete():
        raise IncompleteOrientationError("strongness is defined for complete orientations")
    if o.base.n == 0:
        return False
    return all(_bfs_among(adj, (0,))[1] != UNREACHABLE for adj in (o._out, o._in))


def directed_diameter(o: Orientation) -> int | float:
    """Largest directed distance over ordered pairs; UNREACHABLE if not strong."""
    if not o.is_complete():
        raise IncompleteOrientationError("diameter is defined for complete orientations")
    if o.base.n == 0:
        raise ValueError("diameter of the empty graph is undefined")
    return digraph_diameter(o._out, o._in)


# ---------------------------------------------------------------------------
# constructing orientations


def orient_adjacency(adj: Mapping[int, Sequence[int]]) -> list[tuple[int, int]]:
    """DFS-orient a (sub)graph: tree arcs point down, back arcs point up.

    Returns one (tail, head) arc per edge, sorted by canonical edge. The
    search is ``graph.dfs_forest``'s (roots ascending, neighbors in the order
    given), so the result is deterministic; on a connected bridgeless input
    the digraph is strongly connected (Robbins 1939).
    """
    disc, parent, _ = dfs_forest(adj)
    chosen: dict[tuple[int, int], tuple[int, int]] = {}
    for u, nbrs in adj.items():
        for w in nbrs:
            if disc[u] < disc[w]:
                # a tree edge points to its end discovered later, a back edge to the earlier
                chosen[edge_key(u, w)] = (u, w) if parent[w] == u else (w, u)
    return [chosen[e] for e in sorted(chosen)]


def strong_orientation(g: Graph) -> Orientation:
    """A strong orientation of a connected bridgeless graph (Robbins 1939).

    ``graph.bridge_witness`` checks the precondition and ``orient_adjacency``
    gives the arcs, each with its own DFS.
    """
    witness = bridge_witness(g.adjacency())
    if witness is not None:
        raise PreconditionError(
            f"graph has no strong orientation: not connected and bridgeless ({witness})",
            witness=witness,
        )
    o = Orientation(g)
    for tail, head in orient_adjacency(g.adjacency()):
        o.assign(tail, head)
    return o


def orient_path(o: Orientation, vertices: Sequence[int], forward: bool = True) -> None:
    """Orient every edge along a vertex sequence, first-to-last or reversed."""
    vs = list(vertices)
    for a, b in zip(vs, vs[1:]):
        if forward:
            o.assign(a, b)
        else:
            o.assign(b, a)


# ---------------------------------------------------------------------------
# text format (see graph.read_rows): an "orientation n m" header, then one
# "tail head" line per edge


def read_arcs(text: str, base: Graph) -> list[tuple[int, int]]:
    """The arcs of an arc listing, in file order, once checked to orient each
    base edge exactly once; the first fault in file order is the one reported.
    """
    n, arcs = read_rows(text, "orientation n m", "tail head")
    if (n, len(arcs)) != (base.n, base.m):
        raise GraphFormatError(
            f"header ({n}, {len(arcs)}) does not match the base graph ({base.n}, {base.m})"
        )
    left = set(base.edges())
    for t, h in arcs:
        e = edge_key(t, h)
        if e in left:
            left.remove(e)
        elif 0 <= t < n and 0 <= h < n and base.has_edge(t, h):
            raise GraphFormatError(f"edge {e} oriented twice")
        else:
            raise GraphFormatError(f"({t}, {h}) is not an edge of the base graph")
    return arcs


def parse_orientation(text: str, base: Graph) -> Orientation:
    """Parse an arc listing (``read_arcs``) into an orientation, assigned in file order."""
    o = Orientation(base)
    for t, h in read_arcs(text, base):
        o.assign(t, h)
    return o


def format_orientation(o: Orientation, comment: str | None = None) -> str:
    if not o.is_complete():
        raise IncompleteOrientationError("refusing to serialize a partial orientation")
    return write_rows(f"orientation {o.base.n} {o.base.m}", o.arcs(), comment)
