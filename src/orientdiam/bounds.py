"""Closed-form bound machinery: ball-size lower bound, path scale, diameter bound.

All arithmetic is exact: epsilon is a Fraction and every derived quantity is
an int or a Fraction, so reports are reproducible to the digit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from fractions import Fraction


def as_fraction(value: Fraction | int) -> Fraction:
    """Exact conversion; floats are refused to keep the arithmetic rational."""
    if isinstance(value, bool):
        raise TypeError("epsilon must be a Fraction or int")
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    raise TypeError(f"epsilon must be a Fraction or int, got {type(value).__name__}")


def rational_str(value: Fraction | int) -> str:
    """Render a rational as 'p' or 'p/q' without any float rounding."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    """Inverse of rational_str: nonnegative 'p' or 'p/q' only, no decimals."""
    match = re.fullmatch(r"(\d+)(?:/(\d+))?", text.strip())
    if not match:
        raise ValueError(f"expected 'p' or 'p/q', got {text!r}")
    p, q = match.group(1), match.group(2)
    if q is None:
        return Fraction(int(p))
    if int(q) == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(p), int(q))


def min_ball_size(delta: int, g: int) -> int:
    """Guaranteed order of a radius-(ceil(g/2)-1) ball around an off-path vertex.

    For minimum degree 3 or less the layer product would go nonpositive, so
    the guarantee truncates to the closed neighborhood, 1 + delta.
    """
    if delta < 1:
        raise ValueError("minimum degree must be at least 1")
    if g < 3:
        raise ValueError("girth must be at least 3")
    if delta <= 3:
        return 1 + delta
    total = 1 + delta
    for i in range(1, (g - 1) // 2):
        total += delta * (delta - 3) ** i
    return total


def ball_radius(g: int) -> int:
    """Radius ceil(g/2) - 1 of every claimed ball at girth g."""
    return (g + 1) // 2 - 1


def path_scale(g: int, eps: Fraction | int) -> int:
    """Number of ball centers a full-length escape path must supply."""
    e = as_fraction(eps)
    if e <= 0:
        raise ValueError("epsilon must be positive")
    if g < 3:
        raise ValueError("girth must be at least 3")
    return math.ceil(Fraction(g - 1) / e)


def round_trip_cap(s: int) -> int:
    """Cap 4*s on the longest round trip through a vertex absorbed in a round of reach s."""
    return 4 * s


def allowed_increase(s: int) -> int:
    """Cap 4*C(s+1, 2) on the diameter increase of extending a core of reach s:
    the sum of ``round_trip_cap(s_r)`` over rounds whose reach s_r falls from s to 1.
    """
    return 4 * math.comb(s + 1, 2)


@dataclass(frozen=True)
class BoundReport:
    """Exact evaluation of the diameter guarantee at one parameter point."""

    n: int
    min_degree: int
    girth: int
    epsilon: Fraction
    ball_size: int
    scale: int
    core_term: Fraction
    additive_term: int
    total: Fraction

    @property
    def floor_total(self) -> int:
        return math.floor(self.total)

    @property
    def radius(self) -> int:
        return ball_radius(self.girth)

    @property
    def reach(self) -> int:
        """Escape-path length scale * g: growth stops once every vertex is closer."""
        return self.scale * self.girth

    def to_json_dict(self) -> dict:
        """Every field in order, each Fraction as its ``rational_str``, then ``floor_total``."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        out = {k: rational_str(v) if isinstance(v, Fraction) else v for k, v in values.items()}
        return {**out, "floor_total": self.floor_total}


def diameter_bound(n: int, delta: int, g: int, eps: Fraction | int) -> BoundReport:
    """Evaluate (2g + eps) * n / ball_size + allowed_increase(scale * g) exactly."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if delta < 2:
        raise ValueError("minimum degree below 2 admits no bridgeless graph")
    e = as_fraction(eps)
    h = min_ball_size(delta, g)
    scale = path_scale(g, e)
    core = (2 * g + e) * n / h
    additive = allowed_increase(scale * g)
    return BoundReport(
        n=n,
        min_degree=delta,
        girth=g,
        epsilon=e,
        ball_size=h,
        scale=scale,
        core_term=core,
        additive_term=additive,
        total=core + additive,
    )


def degree_only_bound(n: int, delta: int) -> Fraction:
    """The best previously known guarantee that uses minimum degree alone."""
    if n < 1 or delta < 1:
        raise ValueError("need n >= 1 and delta >= 1")
    return Fraction(7 * n, delta + 1)
