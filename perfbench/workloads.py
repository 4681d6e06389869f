"""The benchmark's workloads: seeded lists of graphs and the epsilons to run them at.

Each workload stresses a different layer of the construction:

- random-extend: random bridgeless graphs whose grown core is one vertex, so
  the extension and its directed BFS certification do nearly all the work;
- circulant-grow: relabelings of the circulant C_n(1, 2), whose growth takes
  about n/25 iterations, so core growth dominates and traces are large;
- corpus-sandwich: every corpus graph at three epsilons, each small enough
  that per-call overhead dominates, plus every oracle-sized graph through the
  exhaustive oracle; it carries the known epsilon = 2 certification failures.

The benchmark seed only picks which graphs are generated; the library sees
nothing but the resulting Graph objects. Sizes keep one run_pipeline call near
one second, so a 30-second run holds enough calls for a steady median.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from orientdiam import FamilySpec, Graph, circulant_graph, corpus, generate, random_bridgeless
from orientdiam.errors import InfeasibleSpecError

ORACLE_BUDGET = 24  # the oracle's default edge budget

RANDOM_N = 800
RANDOM_GRAPHS = 8
CIRCULANT_N = 500
CIRCULANT_GRAPHS = 8
CORPUS_PROFILES = ("tiny", "small", "girth", "dense")
CORPUS_SEEDS = 8
ORACLE_LOAD_GRAPHS = 3
HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Case:
    """One graph of a run: how to build it, and what to run on it."""

    label: str
    make: Callable[[], Graph]
    epsilons: tuple[Fraction, ...]
    sandwich: bool  # also run the exact oracle when the graph fits its budget


def relabeled(g: Graph, perm_seed: int) -> Graph:
    """g with vertex ids permuted by a seeded shuffle; seed 0 is the identity."""
    perm = list(range(g.n))
    if perm_seed:
        random.Random(perm_seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_extend(seed: int) -> list[Case]:
    out = []
    for i in range(RANDOM_GRAPHS):
        s = RANDOM_GRAPHS * seed + i
        out.append(
            Case(
                f"random_{RANDOM_N}_4_3_{s}",
                lambda s=s: random_bridgeless(RANDOM_N, 4, 3, s),
                (HALF,),
                False,
            )
        )
    return out


def circulant_grow(seed: int) -> list[Case]:
    out = []
    for i in range(CIRCULANT_GRAPHS):
        p = CIRCULANT_GRAPHS * seed + i
        out.append(
            Case(
                f"circulant_{CIRCULANT_N}_1_2_perm{p}",
                lambda p=p: relabeled(circulant_graph(CIRCULANT_N, (1, 2)), p),
                (HALF,),
                False,
            )
        )
    return out


def _oracle_load_seeds(seed: int) -> list[int]:
    """Seeds of random_bridgeless(16, 3, 4, s) that come out cubic (24 edges).

    A cubic 16-vertex graph sits exactly at the oracle budget; the generator
    may overshoot to 25+ edges or give up, and those seeds are passed over.
    """
    found = []
    s = 100 * seed
    while len(found) < ORACLE_LOAD_GRAPHS:
        try:
            if random_bridgeless(16, 3, 4, s).m == ORACLE_BUDGET:
                found.append(s)
        except InfeasibleSpecError:
            pass
        s += 1
    return found


def corpus_sandwich(seed: int) -> list[Case]:
    eps = (HALF, Fraction(1), Fraction(2))
    specs: dict[str, FamilySpec] = {}
    for cs in range(seed, seed + CORPUS_SEEDS):
        for profile in CORPUS_PROFILES:
            for spec in corpus(profile, cs):
                specs.setdefault(spec.label, spec)
    for s in _oracle_load_seeds(seed):
        spec = FamilySpec("random", (16, 3, 4, s))
        specs.setdefault(spec.label, spec)
    return [
        Case(label, lambda spec=spec: generate(spec), eps, True)
        for label, spec in specs.items()
    ]


WORKLOADS: dict[str, Callable[[int], list[Case]]] = {
    "random-extend": random_extend,
    "circulant-grow": circulant_grow,
    "corpus-sandwich": corpus_sandwich,
}
