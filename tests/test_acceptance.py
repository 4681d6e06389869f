"""Acceptance gate: every shipped guarantee, one pass/fail line per criterion.

Run with -s to see the lines; each test covers exactly one criterion.
"""

import time
from fractions import Fraction

import pytest

from orientdiam.bounds import rational_str
from orientdiam.cli import main as cli_main
from orientdiam.generators import corpus, cycle_graph, generate, random_bridgeless
from orientdiam.graph import girth, min_degree
from orientdiam.oracle import exact_oriented_diameter
from orientdiam.orientation import is_strong, strong_orientation
from orientdiam.pipeline import run_pipeline
from conftest import check_ball_bound
from test_growth import reverify_growth

PROFILES = ("tiny", "small", "girth", "dense")

# pipeline results produced outside the shared fixture, harvested by criterion 5
EXTRA_RUNS: list = []


def report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {verdict} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def corpus_graphs():
    """Every corpus graph across all profiles, deduplicated by label."""
    by_label = {}
    for profile in PROFILES:
        for spec in corpus(profile):
            if spec.label not in by_label:
                by_label[spec.label] = generate(spec)
    return by_label


@pytest.fixture(scope="module")
def pipeline_runs(corpus_graphs):
    """One certified pipeline run per corpus graph, plus iteration-rich reruns."""
    runs = {}
    for label, g in corpus_graphs.items():
        runs[(label, "1/2")] = run_pipeline(g, Fraction(1, 2))
    for label, eps in (
        ("triangle_chain_12", 2),
        ("triangle_chain_12", 4),
        ("triangle_chain_8", 2),
        ("random_50_3_3_101", 3),
    ):
        runs[(label, str(eps))] = run_pipeline(corpus_graphs[label], eps)
    return runs


def test_criterion_1_oracle_sandwich(corpus_graphs):
    t0 = time.perf_counter()
    tiny = corpus("tiny")
    assert len(tiny) >= 15
    bad = []
    for spec in tiny:
        g = corpus_graphs[spec.label]
        assert g.m <= 24
        lo = exact_oriented_diameter(g).value
        for eps in (Fraction(1, 2), Fraction(1), Fraction(2)):
            r = run_pipeline(g, eps)
            EXTRA_RUNS.append(r)
            if not (lo <= r.achieved <= r.bound.floor_total):
                bad.append((spec.label, rational_str(eps), lo, r.achieved))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "oracle sandwich on the tiny corpus",
        not bad and elapsed < 300,
        f"{len(tiny)} graphs x 3 epsilons in {elapsed:.1f}s"
        + (f"; violations: {bad}" if bad else ""),
    )


def test_criterion_2_strong_orientation_correctness():
    strong_count = 0
    total = 1000
    max_n = 0
    for i in range(total):
        n = 5 + (i * 37) % 196
        delta = min(2 + (i % 3), n - 2)
        floor = 5 if (i % 2 and n >= 40) else 3
        g = random_bridgeless(n, delta, floor, 1000 + i)
        max_n = max(max_n, g.n)
        if is_strong(strong_orientation(g)):
            strong_count += 1
    report(
        2,
        "strong orientation of random bridgeless graphs",
        strong_count == total,
        f"{strong_count}/{total} strong, n up to {max_n}",
    )


def test_criterion_3_growth_certification(corpus_graphs, pipeline_runs):
    failures = []
    iterations = 0
    for (label, eps), r in pipeline_runs.items():
        try:
            reverify_growth(corpus_graphs[label], r.growth)
        except AssertionError as exc:
            failures.append((label, eps, str(exc).splitlines()[0]))
        iterations += len(r.growth.trace.iterations)
    report(
        3,
        "growth trace certified from scratch",
        not failures,
        f"{len(pipeline_runs)} runs over {len(corpus_graphs)} graphs, "
        f"{iterations} growth iterations re-verified"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_4_ball_floor_sampling(corpus_graphs):
    eligible = []
    bad = []
    for label, g in sorted(corpus_graphs.items()):
        if min_degree(g) < 4:
            continue
        rep = check_ball_bound(g, samples=100, seed=0)
        assert rep.eligible
        eligible.append((label, g, rep))
        if rep.checked < 100 or rep.failures:
            bad.append((label, rep.checked, len(rep.failures)))
    has_triangle_circulant = any(
        label.startswith("circulant") and int(girth(g)) == 3
        for label, g, _ in eligible
    )
    has_high_girth = any(int(girth(g)) >= 5 for _, g, _ in eligible)
    ok = (
        len(eligible) >= 10
        and not bad
        and has_triangle_circulant
        and has_high_girth
    )
    report(
        4,
        "punctured ball floor on sampled pairs",
        ok,
        f"{len(eligible)} graphs with min degree >= 4, 100 pairs each, "
        f"girths {sorted({int(girth(g)) for _, g, _ in eligible})}"
        + (f"; violations: {bad}" if bad else ""),
    )


def test_criterion_5_extension_increase(pipeline_runs):
    runs = list(pipeline_runs.values()) + EXTRA_RUNS
    assert runs
    bad = []
    linear = 0
    for r in runs:
        s = r.extension.records[0]["s"]
        fin = r.extension.final
        if not (fin["ok"] and fin["increase"] <= fin["allowed_increase"]):
            bad.append(r.graph)
        if fin["increase"] <= 4 * s:
            linear += 1
    report(
        5,
        "extension increase within the quadratic cap",
        not bad,
        f"{len(runs)} runs all within 4*C(s+1,2); "
        f"fraction within 4s: {linear / len(runs):.3f}"
        + (f"; violations: {bad}" if bad else ""),
    )


def test_criterion_6_triangle_girth_regression(corpus_graphs, pipeline_runs):
    checked = 0
    bad = []
    for label, g in corpus_graphs.items():
        if int(girth(g)) != 3:
            continue
        r = pipeline_runs[(label, "1/2")]
        expected_core = Fraction(13, 2) * g.n / (min_degree(g) + 1)
        exact = (
            r.bound.core_term == expected_core
            and r.bound.additive_term == 312
            and Fraction(r.achieved) <= expected_core + 312
        )
        if not exact:
            bad.append(label)
        checked += 1
    report(
        6,
        "girth-3 bound equals 6.5n/(delta+1) + 312",
        checked > 0 and not bad,
        f"{checked} girth-3 graphs at epsilon 1/2"
        + (f"; violations: {bad}" if bad else ""),
    )


def test_criterion_7_cycle_exactness():
    bad = []
    for n in range(3, 13):
        g = cycle_graph(n)
        r = run_pipeline(g, Fraction(1, 2))
        EXTRA_RUNS.append(r)
        lo = exact_oriented_diameter(g).value
        if not (r.achieved == n - 1 == lo):
            bad.append((n, lo, r.achieved))
    report(
        7,
        "cycles solved exactly",
        not bad,
        "C_3..C_12 achieved = n-1 = exhaustive optimum"
        + (f"; violations: {bad}" if bad else ""),
    )


def test_criterion_8_deterministic_experiments(tmp_path):
    out1 = tmp_path / "jobs1.csv"
    out4 = tmp_path / "jobs4.csv"
    args = ["experiment", "small", "--seed", "3", "--epsilon", "1/2"]
    assert cli_main(args + ["--jobs", "1", "--out", str(out1)]) == 0
    assert cli_main(args + ["--jobs", "4", "--out", str(out4)]) == 0
    data1 = out1.read_bytes()
    identical = data1 == out4.read_bytes()
    report(
        8,
        "experiment CSV byte-identical across job counts",
        identical and len(data1) > 0,
        f"profile small, seed 3, jobs 1 vs 4, {len(data1)} bytes",
    )
