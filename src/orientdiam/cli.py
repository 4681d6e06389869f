"""Command-line interface: analyze, orient, oracle, gen, experiment, verify."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .bounds import degree_only_bound, diameter_bound, parse_rational, rational_str
from .check import certify
from .errors import (
    BudgetExceededError,
    CertifiedFailureError,
    GraphFormatError,
    InfeasibleSpecError,
    PreconditionError,
)
from .generators import FamilySpec, corpus, generate
from .graph import (
    UNREACHABLE,
    Graph,
    diameter,
    format_graph,
    girth,
    is_bridgeless_connected,
    min_degree,
    parse_graph,
)
from .oracle import DEFAULT_BUDGET, exact_oriented_diameter
from .orientation import format_orientation, read_arcs
from .pipeline import run_pipeline

CSV_COLUMNS = [
    "label",
    "n",
    "m",
    "delta",
    "girth",
    "epsilon",
    "h",
    "L",
    "core_bound",
    "additive_constant",
    "achieved",
    "oracle",
    "degree_only_bound",
    "ok",
]


def _read_graph(path: str) -> Graph:
    return parse_graph(Path(path).read_text())


def _json_number(value):
    """Map unreachable/infinite metrics to null for JSON output."""
    if value == UNREACHABLE:
        return None
    return int(value)


def cmd_analyze(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    record = {
        "n": g.n,
        "m": g.m,
        "min_degree": min_degree(g),
        "girth": _json_number(girth(g)),
        "bridgeless": is_bridgeless_connected(g),
        "diameter": _json_number(diameter(g)),
    }
    print(json.dumps(record))
    return 0


def cmd_orient(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    result = run_pipeline(g, args.epsilon)
    if args.emit:
        text = format_orientation(result.orientation)
        Path(args.emit).write_text(text)
        if read_arcs(Path(args.emit).read_text(), g) != result.orientation.arcs():
            raise CertifiedFailureError("emitted orientation did not round-trip")
    if args.trace:
        lines = [json.dumps(rec) for rec in result.trace_records()]
        Path(args.trace).write_text("\n".join(lines) + "\n")
    print(json.dumps(result.to_json_dict(), indent=2))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    res = exact_oriented_diameter(g, budget=args.budget)
    record = {
        "value": res.value,
        "feasible": res.feasible,
        "leaves": res.leaves,
        "witness": [list(arc) for arc in res.witness] if res.witness else None,
    }
    print(json.dumps(record))
    return 0 if res.feasible else 3


def cmd_gen(args: argparse.Namespace) -> int:
    spec = FamilySpec(args.family, tuple(args.params))
    g = generate(spec)
    text = format_graph(g, comment=spec.label)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


def _experiment_row(payload: tuple) -> dict[str, str]:
    """One experiment row; module-level so worker processes can import it."""
    family, params, eps_str, budget = payload
    spec = FamilySpec(family, tuple(params))
    eps = parse_rational(eps_str)
    row = {c: "" for c in CSV_COLUMNS}
    row["label"] = spec.label
    row["epsilon"] = rational_str(eps)
    row["ok"] = "false"
    try:
        g = generate(spec)
    except (InfeasibleSpecError, ValueError):
        return row
    delta = min_degree(g)
    gval = int(girth(g))
    bound = diameter_bound(g.n, delta, gval, eps)
    row.update(
        {
            "n": str(g.n),
            "m": str(g.m),
            "delta": str(delta),
            "girth": str(gval),
            "h": str(bound.ball_size),
            "L": str(bound.scale),
            "core_bound": rational_str(bound.core_term),
            "additive_constant": str(bound.additive_term),
            "degree_only_bound": rational_str(degree_only_bound(g.n, delta)),
        }
    )
    if g.m <= budget:
        res = exact_oriented_diameter(g, budget=budget)
        if res.value is not None:
            row["oracle"] = str(res.value)
    try:
        result = run_pipeline(g, eps)
    except CertifiedFailureError:
        return row
    row["achieved"] = str(result.achieved)
    row["ok"] = "true" if result.all_passed else "false"
    return row


def cmd_experiment(args: argparse.Namespace) -> int:
    specs = corpus(args.profile, args.seed)
    payloads = [
        (s.family, s.params, rational_str(args.epsilon), args.budget) for s in specs
    ]
    # no more workers than rows: a fork pool starts them all at the first submit
    jobs = min(args.jobs, len(payloads))
    if jobs > 1:
        # imported here: multiprocessing adds 2.6 MB to every process that runs the CLI
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_experiment_row, payloads))
    else:
        rows = [_experiment_row(p) for p in payloads]
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(row[c] for c in CSV_COLUMNS) for row in rows)
    Path(args.out).write_text("\n".join(lines) + "\n")
    failed = sum(1 for row in rows if row["ok"] != "true")
    summary = {
        "profile": args.profile,
        "seed": args.seed,
        "epsilon": rational_str(args.epsilon),
        "jobs": args.jobs,
        "graphs": len(rows),
        "failed": failed,
        "out": args.out,
    }
    print(json.dumps(summary))
    return 4 if failed else 0


def _load_trace(path: str) -> list[dict]:
    records = []
    for idx, line in enumerate(Path(path).read_text().splitlines()):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"trace line {idx + 1} is not JSON: {exc}") from exc
        except RecursionError:
            raise GraphFormatError(f"trace line {idx + 1} is nested too deeply") from None
    if not records:
        raise GraphFormatError("trace file is empty")
    return records


def cmd_verify(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    arcs = read_arcs(Path(args.orientation).read_text(), g)
    records = _load_trace(args.trace) if args.trace else None
    checks = certify(g, records, arcs)
    ok = all(c["ok"] for c in checks)
    print(json.dumps({"checks": checks, "ok": ok}, indent=2))
    return 0 if ok else 4


def _fraction(text: str) -> Fraction:
    try:
        value = parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text!r}")
        return value

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every caller: argparse's
    build costs more than a ``verify`` of a small graph. Each subcommand's
    ``func`` is bound by that first build, so a ``cmd_*`` function patched
    later is not the one ``main`` calls.
    """
    parser = argparse.ArgumentParser(
        prog="orientdiam",
        description="Constructive strong orientations with certified diameter bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="print basic metrics of a graph file")
    p.add_argument("graph")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("orient", help="run the full construction on a graph file")
    p.add_argument("graph")
    p.add_argument("--epsilon", type=_fraction, default=Fraction(1, 2), metavar="P/Q")
    p.add_argument("--emit", metavar="FILE", help="write the orientation here")
    p.add_argument("--trace", metavar="FILE", help="write the replayable trace here")
    p.set_defaults(func=cmd_orient)

    p = sub.add_parser("oracle", help="exhaustive minimum directed diameter")
    p.add_argument("graph")
    p.add_argument("--budget", type=_at_least(0), default=DEFAULT_BUDGET, metavar="EDGES")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="write a generated family member")
    p.add_argument("family")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("experiment", help="run a corpus and write a CSV")
    p.add_argument("profile")
    p.add_argument("--epsilon", type=_fraction, default=Fraction(1, 2), metavar="P/Q")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_at_least(0), default=DEFAULT_BUDGET, metavar="EDGES")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("verify", help="re-check an orientation and its trace")
    p.add_argument("graph")
    p.add_argument("--orientation", required=True, metavar="FILE")
    p.add_argument("--trace", metavar="FILE")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (PreconditionError, BudgetExceededError, InfeasibleSpecError) as exc:
        witness = getattr(exc, "witness", None)
        suffix = f" (witness: {witness})" if witness is not None else ""
        print(f"error: {exc}{suffix}", file=sys.stderr)
        return 3
    except CertifiedFailureError as exc:
        print(f"certified failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
