"""Rational arithmetic for the diameter bound: ball floor, path scale, totals."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientdiam.bounds import (
    allowed_increase,
    as_fraction,
    degree_only_bound,
    diameter_bound,
    min_ball_size,
    parse_rational,
    path_scale,
    rational_str,
    round_trip_cap,
)


def test_min_ball_size_frozen_values():
    assert min_ball_size(3, 3) == 4
    assert min_ball_size(4, 5) == 9
    assert min_ball_size(5, 7) == 36
    assert min_ball_size(2, 3) == 3
    assert min_ball_size(4, 3) == 5
    assert min_ball_size(6, 3) == 7
    assert min_ball_size(4, 4) == 5


def test_min_ball_size_low_degree_truncates():
    # below degree 4 the alternating sum is meaningless; the floor is 1 + delta
    assert min_ball_size(2, 7) == 3
    assert min_ball_size(3, 9) == 4


def test_path_scale_frozen_values():
    assert path_scale(3, Fraction(1, 2)) == 4
    assert path_scale(5, Fraction(3, 10)) == 14
    assert path_scale(3, 3) == 1
    assert path_scale(5, Fraction(1, 2)) == 8
    assert path_scale(7, Fraction(1, 2)) == 12


def test_diameter_bound_worked_example():
    b = diameter_bound(120, 3, 3, Fraction(1, 2))
    assert b.ball_size == 4
    assert b.scale == 4
    assert b.core_term == 195
    assert b.additive_term == 312
    assert b.total == 507
    assert b.floor_total == 507


def test_allowed_increase_sums_round_trip_caps():
    assert [allowed_increase(s) for s in range(5)] == [0, 4, 12, 24, 40]
    for s in range(1, 30):
        assert round_trip_cap(s) == 4 * s
        assert allowed_increase(s) == sum(round_trip_cap(r) for r in range(1, s + 1))
    b = diameter_bound(120, 3, 3, Fraction(1, 2))
    assert b.additive_term == allowed_increase(b.reach)


def test_diameter_bound_fractional_total():
    b = diameter_bound(4, 3, 3, Fraction(1, 2))
    assert b.core_term == Fraction(13, 2)
    assert b.total == Fraction(637, 2)
    assert b.floor_total == 318


def test_diameter_bound_high_girth():
    b = diameter_bound(1000, 4, 5, 1)
    assert b.ball_size == 9
    assert b.scale == 4
    assert b.additive_term == 840


def test_diameter_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        diameter_bound(10, 2, 3, 0)
    with pytest.raises(ValueError):
        diameter_bound(10, 2, 3, Fraction(-1, 2))
    with pytest.raises(ValueError):
        diameter_bound(0, 2, 3, 1)
    with pytest.raises(ValueError):
        diameter_bound(10, 1, 3, 1)
    with pytest.raises(ValueError):
        diameter_bound(10, 2, 2, 1)


def test_degree_only_bound():
    assert degree_only_bound(700, 6) == 700
    assert degree_only_bound(7, 6) == 7
    assert degree_only_bound(100, 3) == 175


def triangle_comparison(
    n: int, delta: int, eps: Fraction | int
) -> tuple[Fraction, Fraction]:
    """Leading terms at girth 3: this bound's (6+eps)n/(delta+1) next to 7n/(delta+1).

    This is the abstract's girth-3 claim: for 0 < eps < 1 the bound improves
    on Surmacs' degree-only 7n/(delta+1), the first term strictly below the
    second.
    """
    e = as_fraction(eps)
    if not 0 < e < 1:
        raise ValueError("the comparison needs 0 < eps < 1")
    ours = (6 + e) * n / Fraction(delta + 1)
    return ours, degree_only_bound(n, delta)


def test_triangle_comparison_beats_degree_only():
    ours, prior = triangle_comparison(700, 6, Fraction(1, 2))
    assert ours == 650 and prior == 700 and ours < prior
    ours, prior = triangle_comparison(7, 6, Fraction(1, 2))
    assert ours == Fraction(13, 2) and prior == 7
    ours, prior = triangle_comparison(100, 3, Fraction(99, 100))
    assert ours == Fraction(699, 4) and prior == 175 and ours < prior


def test_triangle_comparison_needs_epsilon_below_one():
    with pytest.raises(ValueError):
        triangle_comparison(100, 4, 1)
    with pytest.raises(ValueError):
        triangle_comparison(100, 4, 0)


def test_parse_rational():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("3") == 3
    assert parse_rational("99/100") == Fraction(99, 100)
    for text in ["0.5", "-1/2", "1/0", "a/b", "", "1 / 2", "+3"]:
        with pytest.raises(ValueError):
            parse_rational(text)


def test_rational_str():
    assert rational_str(Fraction(1, 2)) == "1/2"
    assert rational_str(Fraction(6, 2)) == "3"
    assert rational_str(7) == "7"


def test_as_fraction_rejects_inexact_types():
    assert as_fraction(3) == Fraction(3)
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(TypeError):
        as_fraction(True)


def test_to_json_dict_uses_rational_strings():
    b = diameter_bound(4, 3, 3, Fraction(1, 2))
    d = b.to_json_dict()
    assert d["core_term"] == "13/2"
    assert d["total"] == "637/2"
    assert d["floor_total"] == 318


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=4, max_value=12), st.integers(min_value=3, max_value=11))
def test_ball_floor_monotone_in_degree(delta, g):
    assert min_ball_size(delta + 1, g) > min_ball_size(delta, g)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=3, max_value=9),
    st.fractions(min_value=Fraction(1, 100), max_value=10),
)
def test_bound_terms_positive_and_consistent(n, delta, g, eps):
    b = diameter_bound(n, delta, g, eps)
    assert b.core_term > 0 and b.additive_term > 0
    assert b.total == b.core_term + b.additive_term
    assert b.floor_total <= b.total < b.floor_total + 1
    assert b.scale >= 1
    # larger epsilon never shrinks the core term and never grows the scale
    b2 = diameter_bound(n, delta, g, eps + 1)
    assert b2.core_term >= b.core_term
    assert b2.scale <= b.scale
