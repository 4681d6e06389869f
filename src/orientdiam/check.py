"""The checker: ``certify``, the one definition of a certified run, and all it recomputes.

It imports nothing of the construction, which imports the statements of the
paper's properties from here. Graph primitives are called through ``graph``,
so each call names the one it trusts (README, "Trusted base").
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from itertools import chain

from . import graph
from .bounds import (
    BoundReport, allowed_increase, diameter_bound, parse_rational, rational_str, round_trip_cap
)
from .errors import GraphFormatError, PreconditionError
from .graph import UNREACHABLE, Graph, edge_key


# ---------------------------------------------------------------------------
# the statements of the paper's properties


def check_preconditions(g: Graph) -> None:
    """Raise PreconditionError unless g is connected, bridgeless and has 3+ vertices."""
    witness = graph.bridge_witness(g._adj)
    if witness is not None:
        raise PreconditionError("graph must be connected and bridgeless", witness=witness)
    if g.n < 3:
        raise PreconditionError("need at least 3 vertices")


def header_claims(g: Graph, bound: BoundReport) -> dict:
    """The growth_header fields that restate g and its bound, in trace order."""
    return {
        "n": g.n,
        "m": g.m,
        "min_degree": bound.min_degree,
        "girth": bound.girth,
        "epsilon": rational_str(bound.epsilon),
        "ball_floor": bound.ball_size,
        "scale": bound.scale,
        "radius": bound.radius,
        "reach": bound.reach,
    }


def final_claims(
    iterations: int, far: int, reach: int, core: set[int], b: list[int], f: set[int]
) -> dict:
    """The growth_final counts of a core at distance ``far`` from every vertex,
    with centers B and claimed vertices F; property 1 is ``far <= reach - 1``.
    """
    return {
        "iterations": iterations,
        "max_distance": far,
        "property1": far <= reach - 1,
        "core_vertex_count": len(core),
        "center_count": len(b),
        "claimed_count": len(f),
    }


def contracted_adjacency(
    core: set[int],
    vertices: Iterable[int],
    edges: Iterable[tuple[int, int]],
) -> list[list[int]]:
    """Adjacency of a core plus new ``vertices`` and ``edges``, the core contracted to one vertex.

    Let H be a connected subgraph on the vertex set ``core`` and H' be H
    plus the new vertices and edges. An edge of H' outside H is a bridge of
    H' exactly when it is a bridge after contracting H to one vertex, and
    H' is connected exactly when the contraction is. So a connected and
    bridgeless H grows into a connected and bridgeless H' exactly when this
    adjacency is (``graph.bridge_witness`` is None), and the test costs what
    was added, not H.

    The contracted core is vertex 0 and the new vertices are 1, 2, ... in
    the order given. An edge from a new vertex into the core becomes an edge
    to 0, parallel to the others, which the DFS of ``graph.dfs_forest``
    handles; an edge with both ends in the core becomes a loop and is left
    out. Every end outside the core must be one of ``vertices``.
    """
    number = {x: i for i, x in enumerate(vertices, start=1)}
    adj: list[list[int]] = [[] for _ in range(len(number) + 1)]
    for u, w in edges:
        a = 0 if u in core else number[u]
        b = 0 if w in core else number[w]
        if a != b:
            adj[a].append(b)
            adj[b].append(a)
    return adj


# ---------------------------------------------------------------------------
# the diameter search


def _bfs(adj: Sequence[Sequence[int]], sources: Iterable[int]) -> tuple[list[int], int]:
    """Distances from the nearest source (-1 where unreached), and the last layer's depth."""
    dist = [-1] * len(adj)
    layer = list(sources)
    for s in layer:
        dist[s] = 0
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


def _bit_levels(pull: list[list[int]], sources: list[int]) -> int | float:
    """Levels until every vertex lies within reach of every source; UNREACHABLE
    when ``len(pull) - 1`` levels leave a bit unset: no distance in a digraph
    reaches its order.

    Bit-parallel BFS (Akiba, Iwata & Yoshida, SIGMOD 2013), the checker's own
    copy: bit i of ``seen[v]`` is set once ``sources[i]`` lies within the
    current radius of v, and each level ORs into v its ``pull`` neighbors'
    bits of the level before. In-lists run the radius from the sources to v,
    out-lists from v to the sources.
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
    # never from bounded_diameter_of_arcs: its first pivot showed the digraph strong
    return UNREACHABLE


def bounded_diameter_of_arcs(n: int, arcs: Iterable[tuple[int, int]]) -> int | float:
    """Directed diameter straight from an arc list by eccentricity bounding; exact.

    The construction's search, in this module's own code. Each pivot v, the
    candidate with the largest upper bound (ties to the smallest id), runs
    one forward and one backward BFS, and the triangle inequality bounds
    every candidate w (Takes & Kosters 2011, in the directed form of
    Crescenzi, Grossi, Lanzi & Marino 2013): ``ecc_out(w) <= d(w,v) +
    ecc_out(v)``, mirrored for ``ecc_in``. The diameter is both the largest
    out- and the largest in-eccentricity, so a vertex stops being a candidate
    in a direction once its upper bound there is at most the largest
    eccentricity measured, and the answer is found when either direction has
    none left, or when that eccentricity reaches n - 1, which none exceeds.
    A pivot is charged 4 BFS runs: its two searches and its two passes over
    the candidate lists. The candidates left in the smaller direction are
    finished:

    - once fewer are left than runs spent, by one plain BFS each (a directed
      cycle, where no bound prunes);
    - once the runs spent reach ``best``, by ``_bit_levels`` from all of
      them, which costs about one BFS per level and needs at least ``best``.

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
    # per direction (0 out, 1 in): upper bounds on every vertex's eccentricity,
    # and the vertices, ascending, whose upper bound still exceeds ``best``
    upper = ([n] * n, [n] * n)
    cands = (list(range(n)), list(range(n)))
    best = 0
    spent = 0
    while cands[0] and cands[1] and best < n - 1:
        few = 0 if len(cands[0]) <= len(cands[1]) else 1
        if spent >= len(cands[few]):
            for w in cands[few]:
                if upper[few][w] > best:
                    best = max(best, _bfs((out, inn)[few], (w,))[1])
            return best
        if 0 < best <= spent:
            # out-eccentricities pull bits along in-arcs, in-eccentricities along out-arcs
            return max(best, _bit_levels((inn, out)[few], cands[few]))
        # each direction's first largest bound, then the larger, ties to the smaller id
        v0, v1 = (max(cands[k], key=upper[k].__getitem__) for k in (0, 1))
        v = -max((upper[0][v0], -v0), (upper[1][v1], -v1))[1]
        fwd, ecc_out = _bfs(out, (v,))
        bwd, ecc_in = _bfs(inn, (v,))
        if spent == 0 and (min(fwd) < 0 or min(bwd) < 0):
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


# ---------------------------------------------------------------------------
# the trace schema and its replay


def _are_vertices(xs: list, n: int) -> bool:
    """Every element of xs an int (a bool is not) in range(n), in C-level passes."""
    return not xs or (set(map(type, xs)) == {int} and 0 <= min(xs) and max(xs) < n)


_FIELD_KINDS = {
    "int": lambda x, n: type(x) is int,
    "int or null": lambda x, n: x is None or type(x) is int,
    "bool": lambda x, n: type(x) is bool,
    "str": lambda x, n: type(x) is str,
    "vertex": lambda x, n: type(x) is int and 0 <= x < n,
    "vertices": lambda x, n: type(x) is list and _are_vertices(x, n),
    "edges": lambda x, n: type(x) is list
    and set(map(type, x)) <= {list}
    and set(map(len, x)) <= {2}
    and _are_vertices(list(chain.from_iterable(x)), n),
    "checks": lambda x, n: type(x) is list
    and all(
        type(c) is dict and type(c.get("name")) is str and type(c.get("ok")) is bool for c in x
    ),
}

# The trace format, stated once: each record type, whether it appears at
# most once (else once per step), and the kind of each of its fields, a key
# of _FIELD_KINDS with vertex ids in range(n). An "optional" field may be
# absent; keys not listed are ignored.
_TRACE_SCHEMA: dict[str, tuple[bool, dict[str, str]]] = {
    "growth_header": (True, {
        "schema": "int", "n": "int", "m": "int", "min_degree": "int", "girth": "int",
        "epsilon": "str", "ball_floor": "int", "scale": "int", "radius": "int",
        "reach": "int", "v0": "vertex", "base_claimed": "vertices",
    }),
    "growth_iteration": (False, {
        "index": "int", "path": "vertices", "labeled": "vertices", "centers": "vertices",
        "fallback": "bool", "cover_steps": "int", "splices": "int", "labeled_on_path": "int",
        "added_vertices": "vertices", "added_edges": "edges", "added_claimed": "vertices",
    }),
    "growth_final": (True, {
        "iterations": "int", "max_distance": "int", "property1": "bool",
        "core_vertex_count": "int", "center_count": "int", "claimed_count": "int",
    }),
    "extension_header": (True, {
        "core_size": "int", "core_diameter": "int", "s": "int", "allowed_increase": "int",
    }),
    "extension_round": (False, {
        "round": "int", "s": "int", "frontier": "vertices", "absorbed": "vertices",
        "roundtrip_max": "int", "roundtrip_probe_ok": "bool",
    }),
    "extension_step": (False, {
        "vertex": "vertex", "anchor": "vertex", "escape": "int", "vprime": "vertex",
        "path": "vertices", "case": "str", "j": "optional int",
        "window_empty": "optional bool", "round": "int",
    }),
    "extension_final": (True, {
        "strong": "bool", "diameter": "int or null", "core_diameter": "int",
        "increase": "int or null", "allowed_increase": "int", "rounds": "int", "ok": "bool",
    }),
    "pipeline_final": (True, {
        "achieved": "int", "core_diameter": "int", "bound_total": "str",
        "invariants": "checks", "ok": "bool",
    }),
}


# per record type, each field's (key, predicate, kind, optional), built once
_FIELD_CHECKS: dict[str, tuple[tuple[str, Callable[[object, int], bool], str, bool], ...]] = {
    kind: tuple(
        (key, _FIELD_KINDS[base], base, base != field)
        for key, field in fields.items()
        for base in (field.removeprefix("optional "),)
    )
    for kind, (_, fields) in _TRACE_SCHEMA.items()
}


def _malformed(rec: dict, key: str, kind: str) -> GraphFormatError:
    return GraphFormatError(
        f"trace record {rec.get('type')!r}: field {key!r} missing or not {kind}"
    )


def _split_records(records: list, n: int) -> tuple[dict[str, dict], dict[str, list[dict]]]:
    """Check every record against ``_TRACE_SCHEMA``, then index the once-only
    records by type and list the per-step records by type.

    A growth_header of any schema but 2 is refused before any field is
    checked, and no two ``extension_step`` records may absorb the same vertex.
    """
    single: dict[str, dict] = {}
    logs: dict[str, list[dict]] = {k: [] for k, (once, _) in _TRACE_SCHEMA.items() if not once}
    for pos, rec in enumerate(records, start=1):
        if not isinstance(rec, dict):
            raise GraphFormatError(f"trace record {pos} is not a JSON object")
        kind = rec.get("type")
        if type(kind) is not str:
            raise _malformed(rec, "type", "str")
        if kind in logs:
            logs[kind].append(rec)
        elif kind not in _TRACE_SCHEMA:
            raise GraphFormatError(f"trace record {pos} has unknown type {kind!r}")
        elif kind in single:
            raise GraphFormatError(f"trace holds more than one {kind} record")
        else:
            single[kind] = rec
    header = _record(single, "growth_header")
    if header.get("schema") != 2:
        raise _malformed(header, "schema", "2, the only schema read")
    for rec in records:
        for key, holds, kind, optional in _FIELD_CHECKS[rec["type"]]:
            if key in rec:
                if not holds(rec[key], n):
                    raise _malformed(rec, key, kind)
            elif not optional:
                raise _malformed(rec, key, kind)
    absorbed: set[int] = set()
    for rec in logs["extension_step"]:
        v = rec["vertex"]
        if v in absorbed:
            raise GraphFormatError(f"trace holds two extension_step records for vertex {v}")
        absorbed.add(v)
    return single, logs


def _record(single: dict[str, dict], kind: str) -> dict:
    if kind not in single:
        raise GraphFormatError(f"trace has no {kind} record")
    return single[kind]


def _replay_growth(
    g: Graph, header: dict, iterations: list[dict], final: dict, bound: BoundReport
) -> tuple[str | None, set[int], set[tuple[int, int]], int]:
    """Recompute growth properties 1-3 and every claim of the growth records.

    Returns the first failure as "where: property (detail)", or None, then
    the final core's vertices and edges and the largest distance to it.

    Each iteration costs what it adds, its balls and its path, and the core
    only grows. An added vertex already in the core, or an added edge with
    an end in neither the core nor the added vertices, makes the record
    malformed; an added edge already in the core fails ``core_grows``.
    Whether the grown core is connected and bridgeless is decided on the
    added part alone, with the core before it contracted to one vertex
    (``contracted_adjacency``): exact, since that core passed the same test
    or the iteration that built it failed first. The claimed vertices an
    iteration adds are its new ball vertices, and B is v0 followed by every
    iteration's centers. Each path is an escape path, reach + 1 vertices of
    which only the first lies in the core before it, and each iteration banks
    at least L = scale centers, a fallback one path[g], path[2g], ..., path[Lg].
    """
    floor, gval, eps = bound.ball_size, bound.girth, bound.epsilon
    radius, reach, scale = bound.radius, bound.reach, bound.scale
    failures: list[str] = []

    def need(where: str, props: dict[str, bool], detail: str) -> None:
        failures.extend(f"{where}: {name} ({detail})" for name, ok in props.items() if not ok)

    expected = header_claims(g, bound)
    props = {key: header[key] == value for key, value in expected.items()}
    v0 = header["v0"]
    f_set = graph.ball(g, v0, radius)
    props["base_ball"] = f_set == set(header["base_claimed"])
    props["base_floor"] = len(f_set) >= floor
    need("header", props, f"recomputed {expected}, |ball({v0})|={len(f_set)}")
    b_list = [v0]
    b_set = {v0}
    h_v: set[int] = {v0}
    h_e: set[tuple[int, int]] = set()
    for pos, rec in enumerate(iterations):
        path, centers = rec["path"], rec["centers"]
        added_v = set(rec["added_vertices"])
        added_e = {edge_key(u, w) for u, w in rec["added_edges"]}
        added_f = set(rec["added_claimed"])
        path_edges = list(zip(path, path[1:]))
        excluded = () if rec["fallback"] else path_edges
        if not added_v.isdisjoint(h_v):
            raise GraphFormatError(f"growth iteration {pos}: added vertices already in the core")
        if not h_v.issuperset(set(chain.from_iterable(added_e)) - added_v):
            raise GraphFormatError(f"growth iteration {pos}: core edges leave the core")
        escapes = len(path) == reach + 1 and path[0] in h_v and h_v.isdisjoint(path[1:])
        adj = contracted_adjacency(h_v, added_v, added_e)
        h_v |= added_v
        balls = set().union(*(graph.ball(g, c, radius, excluded=excluded) for c in centers))
        fresh = balls - f_set
        f_set |= fresh
        b_list.extend(centers)
        b_set.update(centers)
        props = {
            "index": rec["index"] == pos,
            "edges_real": all(g.has_edge(u, w) for u, w in chain(added_e, path_edges)),
            "core_grows": h_e.isdisjoint(added_e) and h_v.issuperset(path),
            "bridgeless_connected": graph.bridge_witness(adj) is None,
            "f_claim": fresh == added_f,
            "property2": len(f_set) >= floor * len(b_list),
            "property3": len(h_v) <= (2 * gval + eps) * len(b_list),
            "centers_fresh": len(b_set) == len(b_list),
            "escape_path": escapes,
            "centers_placed": len(centers) >= scale
            and (not rec["fallback"] or centers == path[gval : scale * gval + 1 : gval]),
        }
        sizes = f"|H|={len(h_v)} |F|={len(f_set)} |B|={len(b_list)}"
        need(f"iteration {pos}", props, f"{sizes}, floor {floor}, girth {gval}")
        h_e |= added_e
    far = _bfs(g._adj, h_v)[1]  # g is connected, so the last layer is the farthest
    counts = final_claims(len(iterations), far, reach, h_v, b_list, f_set)
    claimed = {k: final[k] for k in counts}
    props = {"property1": counts["property1"], "final_counts": claimed == counts}
    need("final core", props, f"max distance {far}, reach {reach}, recomputed {counts}")
    return (failures[0] if failures else None), h_v, h_e, far


def _replay_rounds(final: dict, rounds: list[dict], s: int) -> str | None:
    """The first inconsistency of the round summaries, or None.

    Rounds are numbered 1..k with k the ``rounds`` of extension_final, their
    reach ``s`` falls strictly from the header's s to at least 1, and each
    round-trip probe flag states whether ``roundtrip_max`` (a non-negative
    maximum) is at most ``round_trip_cap(s)`` for that round.
    """
    claimed = final["rounds"]
    if claimed != len(rounds):
        return f"extension_final claims {claimed} rounds, the trace holds {len(rounds)}"
    prev = s + 1
    for k, rec in enumerate(rounds, start=1):
        number, s_r = rec["round"], rec["s"]
        top, probe = rec["roundtrip_max"], rec["roundtrip_probe_ok"]
        if number != k:
            return f"round record {k} is numbered {number}"
        if not 1 <= s_r < prev or (k == 1 and s_r != s):
            return f"round {k}: reach {s_r} does not fall from {prev - 1}"
        if top < 0 or probe != (top <= round_trip_cap(s_r)):
            return f"round {k}: roundtrip_probe_ok {probe} for roundtrip_max {top}, s {s_r}"
        prev = s_r
    if s and not rounds:
        return f"no extension rounds for reach {s}"
    return None


def _certify_extension(
    single: dict[str, dict], rounds: list[dict], bound: BoundReport, core_size: int, s: int
) -> tuple[list[tuple], list[int], list[int]]:
    """The five extension and bound checks, then the core and full diameter claims.

    The round summaries and extension_final's ``ok`` ride in
    ``extension_increase_within_allowed``: the allowance is the sum of the
    per-round caps ``round_trip_cap(s_r)``, and ``ok`` must state whether the
    orientation is strong with its increase within that allowance.
    """
    header = _record(single, "extension_header")
    final = _record(single, "extension_final")
    allowed = allowed_increase(s)
    total = rational_str(bound.total)
    strong, ok = final["strong"], final["ok"]
    achieved, increase = (final["diameter"], final["increase"]) if strong else (UNREACHABLE,) * 2
    if achieved is None or increase is None:
        raise GraphFormatError("extension_final: strong, but its diameter or increase is null")
    problem = _replay_rounds(final, rounds, s)
    if problem is None and ok != (strong and increase <= allowed):
        problem = f"extension_final claims ok={ok}"
    core_diam = final["core_diameter"]
    core_claims = [header["core_diameter"], core_diam]
    achieved_claims = [achieved]
    totals = {total}
    if "pipeline_final" in single:
        verdict = single["pipeline_final"]
        core_claims.append(verdict["core_diameter"])
        achieved_claims.append(verdict["achieved"])
        totals.add(verdict["bound_total"])
    allowed_claims = {header["allowed_increase"], final["allowed_increase"]}
    start_claims = (header["core_size"], header["s"])
    checks = [
        (
            "core_diameter_within_size",
            len(set(core_claims)) == 1 and core_diam <= core_size - 1,
            f"{core_diam} <= {core_size - 1}",
        ),
        (
            "extension_start_within_reach",
            start_claims == (core_size, s) and s <= bound.reach - 1,
            f"s={s}, reach={bound.reach}",
        ),
        (
            "extension_increase_within_allowed",
            allowed_claims == {allowed}
            and increase == achieved - core_diam <= allowed
            and problem is None,
            f"{increase} <= {allowed}" + (f"; {problem}" if problem else ""),
        ),
        (
            "achieved_within_total",
            len(set(achieved_claims)) == 1 and totals == {total} and achieved <= bound.total,
            f"{achieved} <= {total}",
        ),
        ("final_strong", strong, "round trips exist for all pairs"),
    ]
    return checks, core_claims, achieved_claims


def _check_verdict(verdict: dict, invariants: list[tuple]) -> tuple:
    """pipeline_final lists the invariants just recomputed, by name and outcome."""
    ok = verdict["ok"]
    listed = [(c["name"], c["ok"]) for c in verdict["invariants"]]
    actual = [(name, bool(passed)) for name, passed, _ in invariants]
    return (
        "pipeline_verdict_matches",
        listed == actual and ok == all(passed for _, passed in listed),
        f"ok={ok}, {sum(passed for _, passed in actual)} of {len(actual)} invariants hold",
    )


def certify(
    g: Graph, records: list[dict] | None, arcs: list[tuple[int, int]] | None = None
) -> list[dict]:
    """Recompute from g every claim that trace records and an orientation make.

    ``arcs`` are the orientation's (tail, head) arcs, one per edge of g, as
    ``orientation.read_arcs`` checks them, in any order. Returns named checks
    ``{"name", "ok", "detail"}``: with records, the growth checks and, when
    the trace holds an extension, the extension and bound checks; with arcs,
    the orientation's strongness and, with records, whether every diameter
    claim of the trace matches the orientation. Each diameter is measured
    once, by ``bounded_diameter_of_arcs``: the full one on all the arcs, the
    core's on the core's arcs alone, so no code that made a claim measures
    it. Without arcs the trace's diameters are taken as claimed, which is
    sound only for diameters measured from the orientation in hand, as in
    ``run_pipeline``. ``records`` is None to check an orientation alone. A
    malformed record raises GraphFormatError; with records, a graph that is
    not connected and bridgeless PreconditionError.
    """
    checks: list[tuple] = []
    if records is not None:
        check_preconditions(g)
        single, logs = _split_records(records, g.n)
        iterations = logs["growth_iteration"]
        header = _record(single, "growth_header")
        try:
            eps = parse_rational(header["epsilon"])
        except ValueError as exc:
            raise GraphFormatError(f"growth_header epsilon: {exc}") from exc
        if eps <= 0:
            raise GraphFormatError("growth_header epsilon must be positive")
        bound = diameter_bound(g.n, graph.min_degree(g), int(graph.girth(g)), eps)
        final = _record(single, "growth_final")
        failure, core_v, core_e, s = _replay_growth(g, header, iterations, final, bound)
        checks.append(
            (
                "growth_properties",
                failure is None,
                failure or f"{len(iterations)} iterations certified",
            )
        )
        checks.append(
            (
                "core_size_within_core_term",
                len(core_v) <= bound.core_term,
                f"{len(core_v)} <= {rational_str(bound.core_term)}",
            )
        )
        extension_kinds = ("extension_header", "extension_final", "pipeline_final")
        if arcs is not None or any(k in single for k in extension_kinds):
            ext_checks, core_claims, achieved_claims = _certify_extension(
                single, logs["extension_round"], bound, len(core_v), s
            )
            checks.extend(ext_checks)
        if "pipeline_final" in single:
            checks.append(_check_verdict(single["pipeline_final"], checks))
    if arcs is not None:
        # the empty graph has no strong orientation (``orientation.is_strong``)
        diam = bounded_diameter_of_arcs(g.n, arcs) if g.n else UNREACHABLE
        checks.append(("orientation_strong", diam != UNREACHABLE, f"directed diameter {diam}"))
    if arcs is not None and records is not None:
        # the core's arcs renumbered 0..k-1; a non-edge of g is no arc, and
        # already failed growth_properties
        index = {v: i for i, v in enumerate(sorted(core_v))}
        core_arcs = [(index[t], index[h]) for t, h in arcs if edge_key(t, h) in core_e]
        core_actual = bounded_diameter_of_arcs(len(index), core_arcs)
        checks.append(
            (
                "trace_claims_match_orientation",
                all(c == core_actual for c in core_claims)
                and all(a == diam for a in achieved_claims),
                f"diameter {diam}, core diameter {core_actual}",
            )
        )
    return [{"name": name, "ok": bool(ok), "detail": detail} for name, ok, detail in checks]

