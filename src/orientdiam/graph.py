"""Immutable undirected simple graphs and the BFS/DFS queries built on them.

Vertices are dense integers ``0..n-1``. Neighbor lists are kept sorted and
every traversal visits candidates in ascending id order, so all derived
paths, distances and orderings are deterministic.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence, Set

from .errors import GraphFormatError

UNREACHABLE = math.inf


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class Graph:
    """An undirected simple graph with a fixed vertex range."""

    __slots__ = ("n", "m", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        seen: set[tuple[int, int]] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            e = edge_key(u, v)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.m = len(seen)
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges in canonical, sorted order."""
        return [(u, v) for u in range(self.n) for v in self._adj[u] if u < v]

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._adj

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self):
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# distances


def _normalize_excluded(excluded) -> frozenset[tuple[int, int]]:
    if not excluded:
        return frozenset()
    return frozenset(edge_key(u, v) for u, v in excluded)


class LayeredBFS:
    """Breadth-first search over an indexable adjacency, one layer at a time.

    ``adj[u]`` lists the vertices u reaches: ``Graph._adj``, or an
    orientation's out- or in-lists. The search keeps ``dist`` (depth by
    vertex reached), ``depth`` (the last layer expanded, counted also when it
    came out empty) and ``frontier`` (that layer), so a deeper request only
    expands the layers beyond it. A vertex already in ``dist`` is never
    entered, so a caller may seed it with vertices to avoid. It serves the
    searches that stop early or resume. Two optional inputs:

    - ``excluded``: canonical edge keys, treated as deleted;
    - ``meets``: a set; ``met`` is the first depth whose layer holds one of
      its vertices, UNREACHABLE until then.
    """

    __slots__ = ("adj", "dist", "depth", "frontier", "excluded", "meets", "met")

    def __init__(
        self,
        adj: Sequence[Sequence[int]],
        sources: Iterable[int],
        excluded: Set[tuple[int, int]] = frozenset(),
        meets: Set[int] | None = None,
    ):
        self.adj, self.excluded, self.meets = adj, excluded, meets
        self.dist = dict.fromkeys(sources, 0)
        self.depth = 0
        self.frontier = list(self.dist)
        hit = meets is not None and not meets.isdisjoint(self.frontier)
        self.met: int | float = 0 if hit else UNREACHABLE

    def deepen(self, depth: int | float = UNREACHABLE, to_meet: bool = False) -> None:
        """Expand layers until the search reaches ``depth`` or runs dry, or,
        with ``to_meet``, until it has met ``meets``.
        """
        adj, dist, ex, meets = self.adj, self.dist, self.excluded, self.meets
        layer, d = self.frontier, self.depth
        while layer and d < depth and not (to_meet and self.met <= d):
            d += 1
            nxt = []
            for u in layer:
                for w in adj[u]:
                    if w in dist or (ex and ((u, w) if u < w else (w, u)) in ex):
                        continue
                    dist[w] = d
                    nxt.append(w)
            if meets is not None and self.met == UNREACHABLE and not meets.isdisjoint(nxt):
                self.met = d
            layer = nxt
        self.frontier, self.depth = layer, d


def _bfs_among(
    adj: Sequence[Sequence[int]], sources: Iterable[int]
) -> tuple[list[int], int | float]:
    """Distances over list adjacency from the nearest source (-1 where
    unreached), and the largest, UNREACHABLE when a vertex is missed.

    The search stops at the layer that reaches the last vertex; a source
    listed twice counts once toward that stop.
    """
    dist = [-1] * len(adj)
    layer = list(dict.fromkeys(sources))
    for s in layer:
        dist[s] = 0
    left = len(adj) - len(layer)
    d = 0
    while layer and left:
        d += 1
        nxt = []
        for u in layer:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        left -= len(nxt)
        layer = nxt
    return dist, UNREACHABLE if left else d


def all_distances(adj: Sequence[Sequence[int]], sources: Iterable[int]) -> list[int | float]:
    """Distances over ``adj`` from the nearest of the sources to every vertex,
    ``UNREACHABLE`` for those not reached; every source must be in range.
    """
    src = list(sources)
    if not src:
        raise ValueError("need at least one source")
    if min(src) < 0 or max(src) >= len(adj):
        raise ValueError(f"source out of range for n={len(adj)}")
    return [UNREACHABLE if d < 0 else d for d in _bfs_among(adj, src)[0]]


def bfs_distances(g: Graph, sources: Iterable[int]) -> list[int | float]:
    """BFS distances from a source set; ``UNREACHABLE`` marks unreached vertices.

    Multi-source: the distance is to the nearest source.
    """
    return all_distances(g._adj, sources)


def shortest_path_between(
    g: Graph,
    sources: Iterable[int],
    targets: Iterable[int],
    excluded: Iterable[tuple[int, int]] = (),
    blocked: Iterable[int] = (),
) -> list[int] | None:
    """Deterministic shortest path from a source set to a target set.

    Tie-break: among shortest paths, the one starting at the smallest-id
    source whose vertex sequence is lexicographically smallest. Returns None
    when no path exists. ``blocked`` vertices are excluded as interior (and
    as source/target) vertices; an empty end, a blocked target or a vertex
    out of range raises ValueError. The checks read each end once, with
    ``min`` and ``max``; the search itself is ``path_between``.
    """
    blk = set(blocked)
    src = sources if isinstance(sources, (set, frozenset)) else set(sources)
    tgt = targets if isinstance(targets, (set, frozenset)) else set(targets)
    if not src or not tgt:
        raise ValueError("sources and targets must be non-empty")
    if min(tgt) < 0 or max(tgt) >= g.n:
        raise ValueError(f"target out of range for n={g.n}")
    if not blk.isdisjoint(tgt):
        raise ValueError(f"target {min(blk.intersection(tgt))} is blocked")
    if min(src) < 0 or max(src) >= g.n:
        raise ValueError(f"source out of range for n={g.n}")
    return path_between(g, src, tgt, _normalize_excluded(excluded), blk)


def path_between(
    g: Graph,
    src: Set[int],
    tgt: Set[int],
    ex: Set[tuple[int, int]] = frozenset(),
    blk: Set[int] = frozenset(),
    limit: int | float = UNREACHABLE,
) -> list[int] | None:
    """The search behind ``shortest_path_between``, with nothing checked.

    For callers whose vertex sets came from searching g: ``src`` and ``tgt``
    are non-empty, in range and, as ends, read only through ``len``,
    iteration, ``isdisjoint`` and ``intersection``; ``ex`` holds canonical
    edge keys; no target is blocked. With a ``limit``, a path longer than
    it is reported as None.

    The search runs one layer at a time from the smaller end and stops at
    the first layer that meets the other, so its cost is the ball of that
    radius around the smaller end, not the whole graph or the larger end,
    which is read in place, neither copied nor sorted. From the targets
    (fewer targets than sources), the path starts at the smallest source of
    the last layer and walks down to the smallest usable neighbour one layer
    closer. From the sources, a backward pass from the targets met keeps,
    layer by layer, the vertices that lead to one of them; the path then
    takes the smallest kept vertex of every layer that extends it.
    """
    from_targets = len(tgt) < len(src)
    start, stop = (tgt, src) if from_targets else (sorted(src), tgt)
    if blk:
        start = [s for s in start if s not in blk]
    search = LayeredBFS(g._adj, start, ex, meets=stop)
    dist = search.dist
    if blk:
        dist.update(dict.fromkeys(blk, -1))  # blocked vertices count as seen, on no layer
    search.deepen(limit, to_meet=True)
    if search.met == UNREACHABLE:
        return None
    layer, depth = search.frontier, search.depth
    adj = g._adj
    if from_targets:
        cur = min(src.intersection(layer))
        path = [cur]
        for k in range(depth - 1, -1, -1):
            for w in adj[cur]:
                if dist.get(w) == k and not (ex and edge_key(cur, w) in ex):
                    break
            cur = w
            path.append(cur)
        return path
    good = [tgt.intersection(layer)]
    for k in range(depth - 1, -1, -1):
        good.append({
            u for x in good[-1] for u in adj[x]
            if dist.get(u) == k and not (ex and edge_key(u, x) in ex)
        })
    good.reverse()
    cur = min(good[0])
    path = [cur]
    for ahead in good[1:]:
        for w in adj[cur]:
            if w in ahead and not (ex and edge_key(cur, w) in ex):
                break
        cur = w
        path.append(cur)
    return path


def _largest_eccentricity(
    adj: Sequence[Sequence[int]], cands: Iterable[int], upper: Sequence[int | float], best: int
) -> int | float:
    """``best``, raised by one plain BFS from each candidate whose upper bound still exceeds it."""
    for w in cands:
        if upper[w] > best:
            best = max(best, _bfs_among(adj, (w,))[1])
    return best


def diameter(g: Graph) -> int | float:
    """Largest pairwise distance; UNREACHABLE when disconnected, 0 for n=1.

    One BFS per vertex, with no bound known, until one misses a vertex.
    """
    if g.n == 0:
        raise ValueError("diameter of the empty graph is undefined")
    return _largest_eccentricity(g._adj, range(g.n), [UNREACHABLE] * g.n, 0)


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle; UNREACHABLE for forests.

    Per-root BFS: a non-tree edge seen from root r closes a closed walk of
    length dist[u] + dist[w] + 1, which holds a cycle, so the estimate never
    undershoots; it is exact for roots on a shortest cycle. Roots go in
    ascending order and each searches only the vertices above it: the least
    vertex of a shortest cycle still sees that whole cycle. A search stops at
    the first vertex that can close nothing shorter than ``best``, as every
    later one lies at least as deep.
    """
    adj = g._adj
    # distances from the root and BFS parents, -1 off the current search;
    # each search's queue lists what it set, so the next one resets only that
    dist = [-1] * g.n
    parent = [-1] * g.n
    best: int | float = UNREACHABLE
    for root in range(g.n):
        dist[root], parent[root] = 0, -1
        queue = [root]
        for u in queue:
            du = dist[u]
            if 2 * du >= best - 1:
                break
            pu = parent[u]
            for w in adj[u]:
                if w < root:
                    continue
                dw = dist[w]
                if dw < 0:
                    dist[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif w != pu and du + dw + 1 < best:
                    best = du + dw + 1
        for u in queue:
            dist[u] = -1
        if best == 3:
            break
    return best


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("min degree of the empty graph is undefined")
    return min(map(len, g._adj))


def ball(
    g: Graph,
    v: int,
    radius: int,
    excluded: Iterable[tuple[int, int]] = (),
) -> set[int]:
    """Vertices within the given distance of v after deleting ``excluded`` edges."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    search = LayeredBFS(g._adj, (v,), _normalize_excluded(excluded))
    search.deepen(radius)
    return set(search.dist)


# ---------------------------------------------------------------------------
# connectivity and bridges (over any vertex-indexed adjacency, so the same
# code serves subgraphs and contracted graphs)


def dfs_forest(
    adj: Sequence[Sequence[int]],
) -> tuple[list[int], list[int], set[tuple[int, int]]]:
    """One depth-first search over every component: discovery order, parents, bridges.

    ``adj[v]`` lists v's neighbors, as in ``Graph._adj``; ``disc[v]`` is v's
    discovery index and ``parent[v]`` its parent. Roots are taken in
    ascending order and neighbors in the order given; a root's parent is -1,
    so the roots count the components. Lowpoints (Tarjan 1974) give the
    bridges during the same search. Iterative, so safe for paths longer than
    the recursion limit. A neighbor listed twice is two parallel edges: the
    DFS skips one copy of the edge back to its parent, so the other copy
    counts as a back edge and neither copy is a bridge.
    """
    n = len(adj)
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    skipped_parent = [False] * n
    out: set[tuple[int, int]] = set()
    count = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = count
        count += 1
        stack: list[tuple[int, int, Iterable[int]]] = [(root, -1, iter(adj[root]))]
        while stack:
            u, p, it = stack[-1]
            for w in it:
                if w == p and not skipped_parent[u]:
                    skipped_parent[u] = True
                elif (dw := disc[w]) >= 0:
                    if dw < low[u]:
                        low[u] = dw
                else:
                    disc[w] = low[w] = count
                    count += 1
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


def bridges_of(adj: Sequence[Sequence[int]]) -> set[tuple[int, int]]:
    """All bridges of the graph given as vertex-indexed adjacency (see ``dfs_forest``)."""
    return dfs_forest(adj)[2]


def bridge_witness(adj: Sequence[Sequence[int]]) -> tuple[int, int] | str | None:
    """Why the graph is not connected and bridgeless: its smallest bridge, else
    ``"disconnected"`` (also when empty); None for one that is, a single vertex
    included. By Robbins (1939) these are the graphs with a strong orientation.
    Adjacency as in ``dfs_forest``.
    """
    _, parent, br = dfs_forest(adj)
    if br:
        return min(br)
    return "disconnected" if parent.count(-1) != 1 else None


def is_bridgeless_connected(g: Graph) -> bool:
    """True when g is connected and has no bridge (n=1 counts as such)."""
    return bridge_witness(g.adjacency()) is None


# ---------------------------------------------------------------------------
# text format shared by graphs and orientations: '#' starts a comment, blank
# lines are skipped, a header ending in the integers n and m comes first, then
# m rows of two integers each


def _two_ints(words: list[str], shape: str, line: str) -> tuple[int, int]:
    """``words`` as two integers; otherwise an error naming ``line`` and its ``shape``."""
    try:
        a, b = words
        return int(a), int(b)
    except ValueError:
        msg = f"line must be '{shape}' with two integers, got {line!r}"
        raise GraphFormatError(msg) from None


def read_rows(text: str, header: str, row: str) -> tuple[int, list[tuple[int, int]]]:
    """Read n from a ``header``-shaped first line, then its m rows of shape ``row``.

    The header's words before n and m must be those of ``header`` itself.
    """
    lines = [s for s in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if s]
    if not lines:
        raise GraphFormatError("no content lines found")
    keyword = header.split()[:-2]
    words = lines[0].split()
    rest = words[len(keyword) :] if words[: len(keyword)] == keyword else []
    n, m = _two_ints(rest, header, lines[0])
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} '{row}' lines, found {len(lines) - 1}")
    return n, [_two_ints(line.split(), row, line) for line in lines[1:]]


def write_rows(header: str, rows: Iterable[tuple[int, int]], comment: str | None) -> str:
    """The text ``read_rows`` reads: comment lines, the header line, one line per row."""
    out = [f"# {line}" for line in comment.splitlines()] if comment else []
    out.append(header)
    out.extend(f"{u} {v}" for u, v in rows)
    return "\n".join(out) + "\n"


def parse_graph(text: str) -> Graph:
    """Parse an "n m" header and one "u v" line per edge."""
    n, edges = read_rows(text, "n m", "u v")
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def format_graph(g: Graph, comment: str | None = None) -> str:
    return write_rows(f"{g.n} {g.m}", g.edges(), comment)
