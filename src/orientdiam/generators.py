"""Graph families used by the experiments and the test corpus.

Every family is deterministic given its parameters (the random family takes
an explicit seed), so a FamilySpec can be shipped to a worker process and
regenerated bit-for-bit.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass

from .errors import InfeasibleSpecError
from .graph import Graph, edge_key


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("need at least 3 vertices to stay bridgeless")
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def circulant_graph(n: int, offsets: tuple[int, ...]) -> Graph:
    """Vertices 0..n-1 with i adjacent to i +- s (mod n) for each offset s."""
    if n < 3:
        raise ValueError("need at least 3 vertices")
    offs = sorted(set(offsets))
    if not offs:
        raise ValueError("need at least one offset")
    if offs[0] < 1 or offs[-1] > n // 2:
        raise ValueError(f"offsets must lie in 1..{n // 2}")
    edges = {edge_key(i, (i + s) % n) for i in range(n) for s in offs}
    return Graph(n, sorted(edges))


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def theta_graph(a: int, b: int, c: int) -> Graph:
    """Two hub vertices joined by three internally disjoint paths of the given lengths."""
    lengths = (a, b, c)
    if min(lengths) < 1:
        raise ValueError("path lengths must be at least 1")
    if sum(1 for x in lengths if x == 1) > 1:
        raise ValueError("at most one length-1 path, else parallel edges")
    edges = []
    nxt = 2  # 0 and 1 are the hubs
    for length in lengths:
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph(nxt, edges)


def triangle_chain(k: int) -> Graph:
    """k triangles in a row, consecutive ones sharing a single vertex."""
    if k < 1:
        raise ValueError("need at least one triangle")
    edges = []
    for i in range(k):
        a, b, c = 2 * i, 2 * i + 1, 2 * i + 2
        edges += [(a, b), (b, c), (a, c)]
    return Graph(2 * k + 1, edges)


def random_bridgeless(n: int, delta: int, girth_floor: int, seed: int) -> Graph:
    """Random bridgeless graph with min degree >= delta and girth >= girth_floor.

    Start from a Hamilton cycle, then add chords between vertices at distance
    at least girth_floor - 1. The last-added edge of any cycle closes it at
    length >= girth_floor, so the floor is maintained throughout. Raises
    InfeasibleSpecError when some vertex can no longer be topped up.

    Each chord joins a uniform deficient vertex u (degree < delta) to a
    uniform deficient vertex far enough from u, or, when there is none, to
    any vertex far enough. The deficient vertices are kept in one sorted
    list, and each draw picks an index into the list it would come from
    without building that list, by skipping past the few vertices close to
    u. So a chord costs O(|close| log n) plus one list deletion, not a scan
    of all n vertices, and generation is near-linear in n.
    """
    if n < max(3, girth_floor):
        raise ValueError("order must be at least max(3, girth_floor)")
    if girth_floor < 3:
        raise ValueError("girth floor must be at least 3")
    if not 2 <= delta < n - 1:
        raise ValueError("need 2 <= delta < n - 1")
    rng = random.Random(seed)
    adj: list[set[int]] = [{(i - 1) % n, (i + 1) % n} for i in range(n)]
    # degrees only grow, so a vertex leaves this list once and never returns
    deficient = [v for v in range(n) if len(adj[v]) < delta]

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

    def pick(k: int, skipped: list[int]) -> int:
        # choice(range(k)) draws from the RNG exactly as choice() on a list of
        # length k; the index is then shifted past the sorted skipped positions
        i = rng.choice(range(k))
        for p in skipped:
            if p > i:
                break
            i += 1
        return i

    while deficient:
        u = rng.choice(deficient)
        close = close_to(u)
        if len(close) == n:
            # distances only shrink as edges arrive, so u can never recover
            raise InfeasibleSpecError(
                f"vertex {u} stuck at degree {len(adj[u])} < {delta} "
                f"with girth floor {girth_floor} (n={n}, seed={seed})"
            )
        # v is drawn from deficient minus close, or when that is empty from
        # range(n) minus close; skipped holds the close deficient positions
        skipped = sorted(bisect_left(deficient, w) for w in close if len(adj[w]) < delta)
        if len(skipped) < len(deficient):
            v = deficient[pick(len(deficient) - len(skipped), skipped)]
        else:
            v = pick(n - len(close), sorted(close))
        adj[u].add(v)
        adj[v].add(u)
        for x in (u, v):
            if len(adj[x]) == delta:
                del deficient[bisect_left(deficient, x)]
    return Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


# ---------------------------------------------------------------------------
# picklable family specs


@dataclass(frozen=True)
class FamilySpec:
    """A regenerable graph description: family name plus its parameters."""

    family: str
    params: tuple[int, ...] = ()

    @property
    def label(self) -> str:
        if not self.params:
            return self.family
        return self.family + "_" + "_".join(str(p) for p in self.params)


# each family's constructor and its parameter names; "..." repeats the one before
_FAMILIES = {
    "cycle": (cycle_graph, "k"),
    "complete": (complete_graph, "k"),
    "circulant": (lambda n, *offsets: circulant_graph(n, offsets), "n o1 ..."),
    "petersen": (petersen_graph, ""),
    "theta": (theta_graph, "a b c"),
    "triangle_chain": (triangle_chain, "k"),
    "random": (random_bridgeless, "n delta girth_floor seed"),
}


def generate(spec: FamilySpec) -> Graph:
    """Build the family member; ValueError names the expected parameters."""
    fam, p = spec.family, spec.params
    if fam not in _FAMILIES:
        raise ValueError(f"unknown family {fam!r}")
    build, usage = _FAMILIES[fam]
    names = usage.split()
    variadic = names[-1:] == ["..."]
    need = len(names) - variadic
    if len(p) < need or (len(p) > need and not variadic):
        raise ValueError(f"family {fam!r} takes parameters ({usage}), got {len(p)}")
    return build(*p)


def corpus(profile: str, seed: int = 0) -> list[FamilySpec]:
    """Named graph collections used by the experiments and the test suite.

    tiny: every graph small enough for the exhaustive-search reference.
    small: moderate instances for end-to-end runs.
    girth: instances spanning girth 3, 5 and 7.
    dense: instances with minimum degree at least 4.

    The seed shifts the per-instance seeds of the random members, so seed 0
    reproduces the fixed lists and any other seed yields a sibling corpus.
    """
    def rand(n: int, delta: int, floor: int, base: int) -> FamilySpec:
        return FamilySpec("random", (n, delta, floor, base + seed))

    if profile == "tiny":
        return (
            [FamilySpec("cycle", (k,)) for k in range(3, 9)]
            + [FamilySpec("complete", (4,)), FamilySpec("complete", (5,))]
            + [
                FamilySpec("circulant", (6, 1, 2)),
                FamilySpec("circulant", (6, 1, 3)),
                FamilySpec("circulant", (6, 2, 3)),
                FamilySpec("circulant", (8, 1, 2)),
            ]
            + [FamilySpec("theta", (2, 3, 4)), FamilySpec("petersen")]
            + [FamilySpec("triangle_chain", (2,)), FamilySpec("triangle_chain", (3,))]
        )
    if profile == "small":
        return (
            [FamilySpec("triangle_chain", (k,)) for k in range(4, 13)]
            + [
                FamilySpec("circulant", (20, 1, 2)),
                FamilySpec("circulant", (30, 1, 2, 3)),
                FamilySpec("circulant", (40, 1, 2)),
                rand(50, 3, 3, 101),
                rand(60, 4, 3, 102),
            ]
        )
    if profile == "girth":
        return [
            FamilySpec("circulant", (20, 1, 2)),
            FamilySpec("triangle_chain", (6,)),
            FamilySpec("petersen"),
            rand(40, 4, 5, 105),
            FamilySpec("cycle", (7,)),
            rand(60, 3, 7, 107),
        ]
    if profile == "dense":
        return [
            FamilySpec("complete", (5,)),
            FamilySpec("complete", (6,)),
            FamilySpec("circulant", (8, 1, 2)),
            FamilySpec("circulant", (16, 1, 2)),
            FamilySpec("circulant", (20, 1, 2)),
            FamilySpec("circulant", (40, 1, 2)),
            FamilySpec("circulant", (30, 1, 2, 3)),
            FamilySpec("circulant", (24, 1, 2, 4)),
            rand(50, 4, 3, 201),
            rand(60, 4, 4, 202),
            rand(40, 4, 5, 203),
            rand(70, 5, 4, 204),
        ]
    raise ValueError(f"unknown corpus profile {profile!r}")
