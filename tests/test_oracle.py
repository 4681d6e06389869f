"""Exhaustive search references: exact minima, diameters from arcs, and the sampled ball check."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    assert_bit_levels_matches_floyd_warshall,
    bridgeless_graphs,
    check_ball_bound,
    chorded_cycle,
    dense_random_orientation,
    digraphs_with_sources,
    reference_exact_oriented_diameter,
)
from orientdiam.errors import BudgetExceededError
from orientdiam.generators import (
    circulant_graph,
    complete_graph,
    cycle_graph,
    petersen_graph,
    theta_graph,
    triangle_chain,
)
from orientdiam.graph import UNREACHABLE, Graph
from orientdiam import check, graph, oracle, orientation
from orientdiam.check import bounded_diameter_of_arcs
from orientdiam.oracle import directed_diameter_of_arcs, exact_oriented_diameter
from orientdiam.orientation import directed_diameter, is_strong, strong_orientation


def naive_minimum(g):
    """Min directed diameter over all 2^m orientations, no pruning at all."""
    best = UNREACHABLE
    for mask in product((0, 1), repeat=g.m):
        arcs = [(u, v) if b == 0 else (v, u) for (u, v), b in zip(g.edges(), mask)]
        best = min(best, directed_diameter_of_arcs(g.n, arcs))
    return best


def test_frozen_exact_values():
    assert exact_oriented_diameter(cycle_graph(5)).value == 4
    assert exact_oriented_diameter(complete_graph(3)).value == 2
    assert exact_oriented_diameter(complete_graph(4)).value == 3
    assert exact_oriented_diameter(cycle_graph(6)).value == 5


def test_witness_achieves_the_value():
    for g in [cycle_graph(6), complete_graph(4), complete_graph(5), triangle_chain(3)]:
        res = exact_oriented_diameter(g)
        assert res.feasible
        assert directed_diameter_of_arcs(g.n, res.witness) == res.value
        assert len(res.witness) == g.m


def _spy_on_bound(monkeypatch, limit=None):
    """Record each ``_diameter_below`` call; raise once there are more than limit."""
    calls = []
    bound = oracle._diameter_below

    def spy(adj, n, cap):
        calls.append(cap)
        if limit is not None and len(calls) > limit:
            raise AssertionError(f"more than {limit} search nodes")
        return bound(adj, n, cap)

    monkeypatch.setattr(oracle, "_diameter_below", spy)
    return calls


def test_k5_examined_within_halved_space(monkeypatch):
    # one bound per search node: the search visits 28 nodes on K5, where
    # evaluating leaves alone took 272 of its 2^10 orientations; ``leaves``
    # counts only the 2 that improved the best
    calls = _spy_on_bound(monkeypatch)
    res = exact_oriented_diameter(complete_graph(5))
    assert res.value == 2
    assert res.leaves == 2
    assert len(calls) == 28


@pytest.mark.parametrize(
    "g, value",
    [(complete_graph(8), 2), (circulant_graph(16, (1, 3)), 5)],
    ids=["K8", "C16(1,3)"],
)
def test_bound_reaches_beyond_the_budget(monkeypatch, g, value):
    """K_8 (28 edges) takes the search 640 nodes and C_16(1, 3) (32 edges)
    396; evaluating every leaf would mean up to 2^27 and 2^31 of them."""
    _spy_on_bound(monkeypatch, limit=2_000)
    assert exact_oriented_diameter(g, budget=g.m).value == value


@settings(max_examples=20, deadline=None)
@given(bridgeless_graphs(max_n=8))
@example(triangle_chain(2))
@example(cycle_graph(7))
@example(complete_graph(4))
@example(theta_graph(2, 3, 4))
@example(circulant_graph(6, (1, 3)))
def test_agrees_with_naive_enumeration(g):
    """Pruning by the lower bound (each edge not yet oriented read as both
    arcs) and fixing the first edge never lose the optimum."""
    assume(g.m <= 12)
    assert exact_oriented_diameter(g).value == naive_minimum(g)


@settings(max_examples=30, deadline=None)
@given(bridgeless_graphs(max_n=10))
@example(complete_graph(5))
@example(petersen_graph())
@example(circulant_graph(8, (1, 2)))
@example(triangle_chain(5))
# the wheel W5: a hub joined to every vertex of C_5
@example(Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]))
def test_lower_bound_prune_matches_reference_search(g):
    """A pruned subtree holds no leaf below the best found, so the bound meets
    the same improving leaves in the same order as the dead-vertex search."""
    assume(g.m <= 20)
    ref = reference_exact_oriented_diameter(g)
    res = exact_oriented_diameter(g)
    assert (res.value, res.feasible, res.leaves, res.witness) == (
        ref.value, ref.feasible, ref.leaves, ref.witness
    )


def test_budget_enforced():
    with pytest.raises(BudgetExceededError):
        exact_oriented_diameter(complete_graph(8))
    with pytest.raises(BudgetExceededError):
        exact_oriented_diameter(cycle_graph(6), budget=5)
    assert exact_oriented_diameter(cycle_graph(6), budget=6).value == 5


def test_infeasible_graphs_reported():
    bridged = Graph(3, [(0, 1), (1, 2)])
    res = exact_oriented_diameter(bridged)
    assert res.value is None and not res.feasible and res.witness is None
    split = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not exact_oriented_diameter(split).feasible


def test_directed_diameter_of_arcs():
    arcs = [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert directed_diameter_of_arcs(4, arcs) == 3
    broken = [(0, 1), (1, 2), (3, 2), (3, 0)]
    assert directed_diameter_of_arcs(4, broken) == UNREACHABLE


def test_bounded_diameter_frozen_values():
    four_cycle = [(0, 1), (1, 2), (2, 3), (3, 0)]
    broken = [(0, 1), (1, 2), (3, 2), (3, 0)]
    for n, arcs in [(0, []), (1, []), (4, four_cycle), (4, broken)]:
        assert bounded_diameter_of_arcs(n, arcs) == directed_diameter_of_arcs(n, arcs)


def test_bounded_diameter_switches_to_plain_bfs_on_a_directed_cycle(monkeypatch):
    # C_50 with two chords has diameter 48 and no bound prunes another:
    # 10 pivots (20 searches, charged 4 runs each), then one plain search from
    # each of the 39 candidates left, where bounding alone would take ~100
    calls = []
    bfs = check._bfs
    monkeypatch.setattr(check, "_bfs", lambda adj, s: calls.append(s) or bfs(adj, s))
    assert bounded_diameter_of_arcs(50, chorded_cycle(50).arcs()) == 48
    assert len(calls) == 20 + 39


def test_both_searches_stop_at_n_minus_one(monkeypatch):
    """No eccentricity of an n-vertex digraph exceeds n - 1, so the directed
    cycle C_50, whose first pivot measures 49, ends there: one forward and one
    backward search in each copy, no finish."""
    arcs = [(i, (i + 1) % 50) for i in range(50)]
    (ours, theirs), (construction, checker) = _search_logs(50, arcs)
    assert ours == theirs == 49
    assert construction == checker == [("bfs", "out", [0]), ("bfs", "in", [0])]


@pytest.mark.parametrize(
    "n, arcs, exit_taken",
    [
        (200, strong_orientation(circulant_graph(200, (1, 2))).arcs(), None),
        (50, chorded_cycle(50).arcs(), "plain BFS"),
        (200, dense_random_orientation(200, 0.08, 1).arcs(), "kernel"),
        (12, dense_random_orientation(12, 0.5, 3).arcs(), "kernel"),
        (16, dense_random_orientation(16, 0.5, 11).arcs(), "kernel"),
    ],
    ids=["circulant-prunes", "cycle-plain-bfs", "random-kernel", "small-kernel", "kernel-pull"],
)
def test_bounded_diameter_takes_each_exit(monkeypatch, n, arcs, exit_taken):
    """The checker's search ends where the construction's does: bounds finish a
    long circulant, plain BFS a directed cycle with two chords, where bounds
    prune almost nothing, and the checker's own bit-parallel kernel a
    short-diameter orientation.

    On the 16-vertex one the kernel pulled along the wrong lists measures 4,
    one short of the diameter. A pivot searches forward, then backward, from
    one vertex; the plain-BFS finish searches one direction from each
    candidate left, so searches beyond the pivots' pairs are that finish.
    """
    searches, kernels = [], []
    bfs, kernel = check._bfs, check._bit_levels
    monkeypatch.setattr(check, "_bfs", lambda adj, s: searches.append((adj, s)) or bfs(adj, s))
    monkeypatch.setattr(check, "_bit_levels", lambda *a: kernels.append(a) or kernel(*a))
    assert bounded_diameter_of_arcs(n, arcs) == directed_diameter_of_arcs(n, arcs) != UNREACHABLE
    pivots = sum(a[1] == b[1] and a[0] is not b[0] for a, b in zip(searches, searches[1:]))
    taken = ["plain BFS"] * (len(searches) > 2 * pivots) + ["kernel"] * len(kernels)
    assert taken == ([exit_taken] if exit_taken else [])


def _search_logs(n, arcs):
    """Both diameter searches on one digraph: their answers, and each one's log
    of ("bfs", direction, sources) per BFS run and ("kernel", direction,
    sources) per bit-parallel finish, the direction read off the lists
    searched (an orientation's out-lists are never its in-lists). The
    construction's pivots call the ``_bfs_among`` that ``orientation``
    imported, its plain-BFS finish ``graph._largest_eccentricity`` the one in
    ``graph``; the checker's pivots and plain finish both call ``check._bfs``."""
    out, inn = [[] for _ in range(n)], [[] for _ in range(n)]
    for t, h in arcs:
        out[t].append(h)
        inn[h].append(t)
    outs = [sorted(a) for a in out]
    logs = ([], [])
    with pytest.MonkeyPatch.context() as patched:
        for log, module, name, step in (
            (logs[0], orientation, "_bfs_among", "bfs"),
            (logs[0], graph, "_bfs_among", "bfs"),
            (logs[0], orientation, "_bit_levels", "kernel"),
            (logs[1], check, "_bfs", "bfs"),
            (logs[1], check, "_bit_levels", "kernel"),
        ):
            def logged(adj, sources, f=getattr(module, name), log=log, step=step):
                sources = list(sources)
                log.append((step, "out" if [sorted(a) for a in adj] == outs else "in", sources))
                return f(adj, sources)

            patched.setattr(module, name, logged)
        answers = (orientation.digraph_diameter(out, inn), bounded_diameter_of_arcs(n, arcs))
    return answers, logs


@st.composite
def strong_orientations(draw):
    """(n, arcs): a directed Hamiltonian cycle in a drawn order plus drawn
    chords, none against an arc already there, so an orientation that is
    strong by construction, its diameter anywhere from n - 1 to 1."""
    n = draw(st.integers(3, 30))
    order = draw(st.permutations(range(n)))
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for t, h in draw(st.lists(st.sampled_from(pairs), max_size=3 * n)):
        if (h, t) not in arcs:
            arcs.add((t, h))
    return n, sorted(arcs)


@settings(max_examples=200, deadline=None)
@given(strong_orientations())
# the exit tests' inputs: bounds, plain BFS (twice), kernel (three times);
# and a directed cycle, whose first pivot reaches n - 1
@example((200, strong_orientation(circulant_graph(200, (1, 2))).arcs()))
@example((50, chorded_cycle(50).arcs()))
@example((50, [(i, (i + 1) % 50) for i in range(50)]))
@example((12, dense_random_orientation(12, 0.5, 52).arcs()))
@example((200, dense_random_orientation(200, 0.08, 1).arcs()))
@example((12, dense_random_orientation(12, 0.5, 3).arcs()))
@example((16, dense_random_orientation(16, 0.5, 11).arcs()))
def test_both_searches_pivot_and_finish_alike(case):
    """The construction's search and the checker's copy run BFS from the same
    pivots in the same order and finish by the same exit, so an edit to one
    copy's rule that the other lacks fails here even where both answers hold."""
    (ours, theirs), (construction, checker) = _search_logs(*case)
    assert construction == checker
    assert ours == theirs == directed_diameter_of_arcs(*case)


@settings(max_examples=300, deadline=None)
@given(digraphs_with_sources())
@example((2, [], [0]))  # no arc: the levels run out with a bit unset, the loop-end return
def test_checker_bit_levels_matches_floyd_warshall(case):
    """The checker's own kernel on any digraph and source set, unreachable
    pairs included."""
    assert_bit_levels_matches_floyd_warshall(check._bit_levels, *case)


@given(bridgeless_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_bounded_diameter_matches_reference(g, data):
    arcs = strong_orientation(g).arcs()
    indices = st.sets(st.integers(min_value=0, max_value=len(arcs) - 1))
    flip = data.draw(indices)
    keep = data.draw(indices)
    flipped = [(h, t) if i in flip else (t, h) for i, (t, h) in enumerate(arcs)]
    partial = [a for i, a in enumerate(arcs) if i in keep]
    for variant in (arcs, flipped, partial):
        assert bounded_diameter_of_arcs(g.n, variant) == directed_diameter_of_arcs(g.n, variant)


def test_ball_check_gates_low_degree():
    rep = check_ball_bound(petersen_graph(), samples=20, seed=0)
    assert not rep.eligible
    assert rep.checked == 0


def test_ball_check_dense_circulant():
    rep = check_ball_bound(circulant_graph(30, (1, 2, 3)), samples=100, seed=0)
    assert rep.eligible
    assert rep.floor == 7
    assert rep.checked >= 100
    assert rep.all_passed


def test_ball_check_deterministic():
    g = circulant_graph(20, (1, 2))
    a = check_ball_bound(g, samples=50, seed=3)
    b = check_ball_bound(g, samples=50, seed=3)
    assert a == b


@settings(max_examples=15, deadline=None)
@given(bridgeless_graphs(max_n=8))
def test_oracle_lower_bounds_any_strong_orientation(g):
    assume(g.m <= 12)
    res = exact_oriented_diameter(g)
    o = strong_orientation(g)
    assert is_strong(o)
    assert res.value <= directed_diameter(o)
