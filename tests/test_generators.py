"""Graph families, the seeded random generator, and the corpus profiles."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orientdiam.errors import InfeasibleSpecError
from orientdiam.generators import (
    FamilySpec,
    circulant_graph,
    complete_graph,
    corpus,
    cycle_graph,
    generate,
    petersen_graph,
    random_bridgeless,
    theta_graph,
    triangle_chain,
)
from orientdiam.graph import girth, is_bridgeless_connected, min_degree

from conftest import reference_random_bridgeless


def test_cycle_graph():
    g = cycle_graph(7)
    assert g.n == 7 and g.m == 7
    assert min_degree(g) == 2 and girth(g) == 7
    assert is_bridgeless_connected(g)
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_complete_graph():
    g = complete_graph(5)
    assert g.n == 5 and g.m == 10
    assert min_degree(g) == 4 and girth(g) == 3


def test_circulant_graph():
    g = circulant_graph(20, (1, 2))
    assert g.n == 20 and g.m == 40
    assert min_degree(g) == 4 and girth(g) == 3
    assert is_bridgeless_connected(g)
    half = circulant_graph(6, (1, 3))  # offset n/2 contributes one edge per pair
    assert half.m == 9 and min_degree(half) == 3
    with pytest.raises(ValueError):
        circulant_graph(6, (0,))
    with pytest.raises(ValueError):
        circulant_graph(6, (4,))
    with pytest.raises(ValueError):
        circulant_graph(6, ())


def test_petersen_graph():
    g = petersen_graph()
    assert (g.n, g.m, min_degree(g), girth(g)) == (10, 15, 3, 5)


def test_theta_graph():
    g = theta_graph(2, 3, 4)
    assert g.n == 8 and g.m == 9
    assert girth(g) == 5  # the two shortest branches close the shortest cycle
    assert is_bridgeless_connected(g)
    with pytest.raises(ValueError):
        theta_graph(1, 1, 3)
    with pytest.raises(ValueError):
        theta_graph(0, 2, 3)


def test_triangle_chain():
    g = triangle_chain(3)
    assert g.n == 7 and g.m == 9
    assert girth(g) == 3 and is_bridgeless_connected(g)
    with pytest.raises(ValueError):
        triangle_chain(0)


def test_random_bridgeless_respects_targets():
    g = random_bridgeless(40, 4, 5, seed=7)
    assert g.n == 40
    assert min_degree(g) >= 4
    assert girth(g) >= 5
    assert is_bridgeless_connected(g)


def test_random_bridgeless_deterministic():
    a = random_bridgeless(30, 3, 4, seed=11)
    b = random_bridgeless(30, 3, 4, seed=11)
    c = random_bridgeless(30, 3, 4, seed=12)
    assert a == b
    assert a != c


def test_random_bridgeless_infeasible_spec():
    # girth 5 with minimum degree 4 needs at least 1 + 4 + 12 = 17 vertices
    with pytest.raises(InfeasibleSpecError) as exc:
        random_bridgeless(10, 4, 5, seed=0)
    assert str(exc.value) == "vertex 6 stuck at degree 3 < 4 with girth floor 5 (n=10, seed=0)"
    with pytest.raises(ValueError):
        random_bridgeless(10, 1, 3, seed=0)


def test_generate_matches_direct_constructors():
    assert generate(FamilySpec("cycle", (6,))) == cycle_graph(6)
    assert generate(FamilySpec("petersen")) == petersen_graph()
    assert generate(FamilySpec("random", (20, 3, 3, 5))) == random_bridgeless(20, 3, 3, 5)
    with pytest.raises(ValueError):
        generate(FamilySpec("mystery", (3,)))


def test_spec_labels():
    assert FamilySpec("cycle", (6,)).label == "cycle_6"
    assert FamilySpec("petersen").label == "petersen"


def test_corpus_tiny_profile():
    specs = corpus("tiny")
    assert len(specs) >= 15
    for spec in specs:
        g = generate(spec)
        assert g.m <= 24, spec.label
        assert is_bridgeless_connected(g), spec.label


def test_corpus_small_profile():
    specs = corpus("small")
    labels = [s.label for s in specs]
    assert "triangle_chain_4" in labels and "triangle_chain_12" in labels
    for spec in specs:
        g = generate(spec)
        assert g.n <= 60


def test_corpus_girth_profile_spans_girths():
    girths = {int(girth(generate(s))) for s in corpus("girth")}
    assert {3, 5, 7} <= girths


def test_corpus_dense_profile_min_degree():
    specs = corpus("dense")
    assert len(specs) >= 10
    for spec in specs:
        assert min_degree(generate(spec)) >= 4, spec.label


def test_corpus_seed_shifts_random_members_only():
    base = corpus("girth")
    shifted = corpus("girth", seed=50)
    assert len(base) == len(shifted)
    for a, b in zip(base, shifted):
        if a.family == "random":
            assert a.params[:3] == b.params[:3]
            assert b.params[3] == a.params[3] + 50
        else:
            assert a == b


def test_corpus_unknown_profile():
    with pytest.raises(ValueError):
        corpus("huge")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=6, max_value=60),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=3, max_value=5),
    st.integers(min_value=0, max_value=5000),
)
def test_random_bridgeless_always_meets_contract(n, delta, floor, seed):
    try:
        g = random_bridgeless(n, delta, floor, seed)
    except InfeasibleSpecError:
        assume(False)
    assert g.n == n
    assert min_degree(g) >= delta
    assert girth(g) >= floor
    assert is_bridgeless_connected(g)
    assert g == random_bridgeless(n, delta, floor, seed)


def _outcome(build, *args):
    """The edges a generator returns, or the type and message of its refusal."""
    try:
        return build(*args).edges()
    except (InfeasibleSpecError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=3, max_value=80),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=0, max_value=10_000),
)
def test_random_bridgeless_matches_reference(n, delta, floor, seed):
    # the sorted-list draws consume the RNG as the per-chord list scans did
    assert _outcome(random_bridgeless, n, delta, floor, seed) == _outcome(
        reference_random_bridgeless, n, delta, floor, seed
    )


# a stuck vertex; a draw from all far vertices when no far one is deficient;
# two graphs with many deficient draws
@pytest.mark.parametrize("args", [(10, 4, 5, 0), (9, 3, 4, 0), (60, 5, 4, 9), (300, 4, 3, 1)])
def test_random_bridgeless_matches_reference_frozen(args):
    assert _outcome(random_bridgeless, *args) == _outcome(reference_random_bridgeless, *args)
