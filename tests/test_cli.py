"""Command-line interface tests: exit codes, JSON output, file round-trips."""

import concurrent.futures
import json
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import expand_schema1, reference_parse_orientation
from orientdiam import check, cli, extension, orientation, pipeline
from orientdiam.cli import main
from orientdiam.generators import (
    circulant_graph, cycle_graph, petersen_graph, random_bridgeless, triangle_chain,
)
from orientdiam.errors import GraphFormatError
from orientdiam.graph import edge_key, format_graph, parse_graph
from orientdiam.orientation import directed_diameter, is_strong, parse_orientation


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(format_graph(g))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_analyze_petersen(tmp_path, capsys):
    path = write_graph(tmp_path, "pet.txt", petersen_graph())
    code, data = run_json(capsys, ["analyze", path])
    assert code == 0
    assert data == {
        "n": 10,
        "m": 15,
        "min_degree": 3,
        "girth": 5,
        "bridgeless": True,
        "diameter": 2,
    }


def test_analyze_reports_bridges_and_infinities(tmp_path, capsys):
    path = tmp_path / "p4.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, data = run_json(capsys, ["analyze", str(path)])
    assert code == 0
    assert data["bridgeless"] is False
    assert data["girth"] is None  # acyclic
    assert data["diameter"] == 3


def test_analyze_refuses_the_empty_graph(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n")
    assert main(["analyze", str(path)]) == 2
    assert "min degree of the empty graph" in capsys.readouterr().err


def test_orient_emits_and_traces(tmp_path, capsys):
    gpath = write_graph(tmp_path, "c8.txt", cycle_graph(8))
    opath = tmp_path / "c8.orientation"
    tpath = tmp_path / "c8.jsonl"
    code, data = run_json(
        capsys,
        [
            "orient", gpath, "--epsilon", "1/2",
            "--emit", str(opath), "--trace", str(tpath),
        ],
    )
    assert code == 0
    assert data["achieved"] == 7
    assert data["ok"] is True
    assert data["bound"]["total"] == "25356"

    o = parse_orientation(opath.read_text(), cycle_graph(8))
    assert is_strong(o) and directed_diameter(o) == 7

    records = [json.loads(line) for line in tpath.read_text().splitlines()]
    assert records[0]["type"] == "growth_header"
    assert records[-1]["type"] == "pipeline_final"
    assert records[-1]["achieved"] == 7


def test_verify_accepts_emitted_artifacts(tmp_path, capsys):
    gpath = write_graph(tmp_path, "c8.txt", cycle_graph(8))
    opath = tmp_path / "c8.orientation"
    tpath = tmp_path / "c8.jsonl"
    assert main(["orient", gpath, "--emit", str(opath), "--trace", str(tpath)]) == 0
    capsys.readouterr()
    code, data = run_json(
        capsys,
        ["verify", gpath, "--orientation", str(opath), "--trace", str(tpath)],
    )
    assert code == 0
    assert data["ok"] is True
    assert all(c["ok"] for c in data["checks"])


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_verify_without_trace_after_one_with_it_checks_only_the_orientation(tmp_path, capsys):
    """On the cached parser, as on a freshly built one."""
    gpath, opath, tpath, _ = orient_artifacts(tmp_path, cycle_graph(8))
    assert main(["verify", gpath, "--orientation", opath, "--trace", str(tpath)]) == 0
    capsys.readouterr()
    assert main(["verify", gpath, "--orientation", opath]) == 0
    cached = capsys.readouterr()
    cli.build_parser.cache_clear()
    assert main(["verify", gpath, "--orientation", opath]) == 0
    assert capsys.readouterr() == cached
    assert [c["name"] for c in json.loads(cached.out)["checks"]] == ["orientation_strong"]


def test_a_bad_argument_leaves_the_cached_parser_working(tmp_path, capsys):
    gpath, opath, _, _ = orient_artifacts(tmp_path, cycle_graph(8))
    assert main(["verify", gpath, "--trace", "missing.jsonl"]) == 2
    assert main(["oracle", gpath, "--budget", "x"]) == 2
    assert "argument --budget: invalid int value: 'x'" in capsys.readouterr().err
    assert main(["verify", gpath, "--orientation", opath]) == 0


def test_verify_rejects_tampered_orientation(tmp_path, capsys):
    gpath = write_graph(tmp_path, "c8.txt", cycle_graph(8))
    opath = tmp_path / "c8.orientation"
    assert main(["orient", gpath, "--emit", str(opath)]) == 0
    capsys.readouterr()
    lines = opath.read_text().splitlines()
    tail, head = lines[1].split()
    lines[1] = f"{head} {tail}"  # reverse one arc of the directed cycle
    opath.write_text("\n".join(lines) + "\n")
    code, data = run_json(capsys, ["verify", gpath, "--orientation", str(opath)])
    assert code == 4
    assert not data["ok"]
    assert [c["name"] for c in data["checks"]] == ["orientation_strong"]
    assert not data["checks"][0]["ok"]


@pytest.mark.parametrize("n, code, diam", [(0, 4, "inf"), (1, 0, "0")])
def test_verify_orientation_of_edgeless_graph(tmp_path, capsys, n, code, diam):
    # the empty graph has no strong orientation (orientation.is_strong says
    # so), while a single vertex is strong with diameter 0
    gpath = tmp_path / "g.txt"
    gpath.write_text(f"{n} 0\n")
    opath = tmp_path / "g.orientation"
    opath.write_text(f"orientation {n} 0\n")
    got, data = run_json(capsys, ["verify", str(gpath), "--orientation", str(opath)])
    assert got == code
    assert data["checks"] == [
        {"name": "orientation_strong", "ok": code == 0, "detail": f"directed diameter {diam}"}
    ]


def test_verify_rejects_tampered_trace(tmp_path, capsys):
    gpath = write_graph(tmp_path, "c8.txt", cycle_graph(8))
    opath = tmp_path / "c8.orientation"
    tpath = tmp_path / "c8.jsonl"
    assert main(["orient", gpath, "--emit", str(opath), "--trace", str(tpath)]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in tpath.read_text().splitlines()]
    for rec in records:
        if rec["type"] == "extension_final":
            rec["diameter"] = rec["diameter"] - 1
            rec["increase"] = rec["increase"] - 1
    tpath.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    code, data = run_json(
        capsys,
        ["verify", gpath, "--orientation", str(opath), "--trace", str(tpath)],
    )
    assert code == 4
    assert not data["ok"]


def orient_artifacts(tmp_path, g, epsilon="1/2"):
    """Graph, orientation and trace files written by ``orient``; trace as records."""
    gpath = write_graph(tmp_path, "g.txt", g)
    opath = tmp_path / "g.orientation"
    tpath = tmp_path / "g.jsonl"
    argv = ["orient", gpath, "--epsilon", epsilon, "--emit", str(opath), "--trace", str(tpath)]
    assert main(argv) == 0
    records = [json.loads(line) for line in tpath.read_text().splitlines()]
    return gpath, str(opath), tpath, records


def test_verify_refuses_forged_diameters(tmp_path, capsys):
    gpath, opath, tpath, records = orient_artifacts(tmp_path, cycle_graph(8))
    for rec in records:
        if rec["type"] == "extension_final":
            rec["diameter"], rec["increase"] = 3, 3
        if rec["type"] == "pipeline_final":
            rec["achieved"] = 3
    tpath.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    capsys.readouterr()
    assert main(["verify", gpath, "--trace", str(tpath)]) == 2
    assert "--orientation" in capsys.readouterr().err
    code, data = run_json(
        capsys, ["verify", gpath, "--orientation", opath, "--trace", str(tpath)]
    )
    assert code == 4
    failed = [c["name"] for c in data["checks"] if not c["ok"]]
    assert failed == ["trace_claims_match_orientation"]


def test_verify_catches_a_diameter_overstated_at_orient_time(tmp_path, capsys, monkeypatch):
    """orient claims one more than the truth; verify measures it unpatched."""
    true_diameter = extension.directed_diameter
    with monkeypatch.context() as patched:
        patched.setattr(extension, "directed_diameter", lambda o: true_diameter(o) + 1)
        gpath, opath, tpath, _ = orient_artifacts(tmp_path, cycle_graph(8))
    capsys.readouterr()
    code, data = run_json(capsys, ["verify", gpath, "--orientation", opath, "--trace", str(tpath)])
    assert code == 4
    failed = [c for c in data["checks"] if not c["ok"]]
    assert [c["name"] for c in failed] == ["trace_claims_match_orientation"]
    assert failed[0]["detail"] == "diameter 7, core diameter 0"


def test_verify_catches_an_understating_kernel_fallback_at_orient_time(
    tmp_path, capsys, monkeypatch
):
    """orient's digraph_diameter returns one less than the truth on its bit-parallel exit."""
    true_kernel, true_digraph_diameter = orientation._bit_levels, orientation.digraph_diameter
    taken = []

    def understated(out, inn):
        taken.clear()
        diam = true_digraph_diameter(out, inn)
        return diam - 1 if taken else diam

    with monkeypatch.context() as patched:
        patched.setattr(orientation, "_bit_levels", lambda *a: taken.append(1) or true_kernel(*a))
        patched.setattr(orientation, "digraph_diameter", understated)
        gpath, opath, tpath, _ = orient_artifacts(tmp_path, random_bridgeless(800, 4, 3, 0))
    assert taken, "the orientation's diameter must reach the kernel fallback"
    capsys.readouterr()
    code, data = run_json(capsys, ["verify", gpath, "--orientation", opath, "--trace", str(tpath)])
    assert code == 4
    failed = [c for c in data["checks"] if not c["ok"]]
    assert [c["name"] for c in failed] == ["trace_claims_match_orientation"]
    assert failed[0]["detail"].startswith("diameter 25,")


def test_verify_catches_an_understating_checker_kernel(tmp_path, capsys, monkeypatch):
    """verify's own search returns one less than the truth whenever it ends in
    its bit-parallel kernel, as the checker's diameter on an honest artifact."""
    gpath, opath, tpath, _ = orient_artifacts(tmp_path, random_bridgeless(800, 4, 3, 0))
    true_kernel, true_search = check._bit_levels, check.bounded_diameter_of_arcs
    taken, understatements = [], []

    def understated(n, arcs):
        taken.clear()
        diam = true_search(n, arcs)
        if taken:
            understatements.append(diam)
            return diam - 1
        return diam

    monkeypatch.setattr(check, "_bit_levels", lambda *a: taken.append(1) or true_kernel(*a))
    monkeypatch.setattr(check, "bounded_diameter_of_arcs", understated)
    capsys.readouterr()
    code, data = run_json(capsys, ["verify", gpath, "--orientation", opath, "--trace", str(tpath)])
    assert understatements == [25], "the full diameter, and only it, must reach the kernel"
    assert code == 4
    failed = [c for c in data["checks"] if not c["ok"]]
    assert [c["name"] for c in failed] == ["trace_claims_match_orientation"]
    assert failed[0]["detail"].startswith("diameter 24,")


def _trusted_base():
    """README's "Trusted base" table: module -> the functions it lists, None for every one."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## Trusted base\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)\.py` \|[^|]*\| (.*) \|$", section, re.M)
    assert rows
    return {
        module: None if cell.startswith("every function") else set(re.findall(r"`([\w.]+)`", cell))
        for module, cell in rows
    }


def test_verify_does_not_run_the_construction_search(tmp_path, capsys):
    """Every orientdiam function verify enters is in README's trusted base.

    A comprehension, lambda or local function counts as the function it is
    in; where code objects carry no qualified name (Python 3.10), as its
    module, and a method by its own name.
    """
    base = _trusted_base()
    entered = set()

    def record(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("orientdiam."):
            code = frame.f_code
            name = getattr(code, "co_qualname", code.co_name).split(".<locals>.")[0]
            entered.add((module.removeprefix("orientdiam."), name))

    runs = [(circulant_graph(200, (1, 2)), "1/2"), (random_bridgeless(300, 4, 3, 0), "1/2"),
            (triangle_chain(12), "2")]
    for k, (g, epsilon) in enumerate(runs):
        (tmp_path / str(k)).mkdir()
        gpath, opath, tpath, _ = orient_artifacts(tmp_path / str(k), g, epsilon)
        capsys.readouterr()
        sys.setprofile(record)
        try:
            code = main(["verify", gpath, "--orientation", opath, "--trace", str(tpath)])
        finally:
            sys.setprofile(None)
        assert code == 0
    assert ("cli", "cmd_verify") in entered

    def trusted(module, name):
        if module not in base:
            return False
        listed = base[module]
        return listed is None or name.startswith("<") or name in listed or any(
            name == f.rsplit(".", 1)[-1] for f in listed
        )

    assert sorted(e for e in entered if not trusted(*e)) == []


def test_verify_catches_a_core_diameter_defect_shared_with_the_construction(
    tmp_path, capsys, monkeypatch
):
    """A kernel that moves every core diameter by one fools orient, not verify.

    Moved up, the claim needs a core whose diameter is below its size - 1,
    or orient's own core_diameter_within_size refuses it first.
    """
    true_digraph_diameter = extension.digraph_diameter
    for delta, g in ((-1, triangle_chain(12)), (1, random_bridgeless(40, 4, 3, 2))):

        def moved(out, inn):
            diam = true_digraph_diameter(out, inn)
            return diam + delta if diam > 0 else diam

        # extension measures only the core with digraph_diameter; the full
        # diameter comes from orientation.directed_diameter, unpatched
        monkeypatch.setattr(extension, "digraph_diameter", moved)
        gpath, opath, tpath, _ = orient_artifacts(tmp_path, g, "2")
        capsys.readouterr()
        argv = ["verify", gpath, "--orientation", opath, "--trace", str(tpath)]
        code, data = run_json(capsys, argv)
        assert code == 4, delta
        failed = [c["name"] for c in data["checks"] if not c["ok"]]
        assert failed == ["trace_claims_match_orientation"], delta


def _non_object_line(records, n):
    records.insert(1, [1, 2, 3])


def _drop_v0(records, n):
    del records[0]["v0"]


def _added_edge_off_graph(records, n):
    next(r for r in records if r["type"] == "growth_iteration")["added_edges"][0][1] = n


def _added_edge_off_core(records, n):
    it = next(r for r in records if r["type"] == "growth_iteration")
    it["added_edges"][0][1] = min(set(range(n)) - {records[0]["v0"], *it["added_vertices"]})


def _integer_epsilon(records, n):
    records[0]["epsilon"] = 2


def _unknown_schema(records, n):
    records[0]["schema"] = 3


def _core_vertex_added_again(records, n):
    first, second = [r for r in records if r["type"] == "growth_iteration"][:2]
    second["added_vertices"] = sorted({*second["added_vertices"], first["added_vertices"][0]})


def _nested_too_deeply(records, n):
    # json.loads recurses once per level, so this line exceeds the recursion limit
    records.insert(1, "[" * 200_000 + "]" * 200_000)


def _strong_diameter_null(records, n):
    next(r for r in records if r["type"] == "extension_final")["diameter"] = None


def _strong_increase_null(records, n):
    next(r for r in records if r["type"] == "extension_final")["increase"] = None


def _weak_diameter_not_int(records, n):
    # neither int nor null: malformed, though a weak orientation's diameter is not read
    final = next(r for r in records if r["type"] == "extension_final")
    final["strong"], final["diameter"] = False, "x"


@pytest.mark.parametrize(
    "edit",
    [
        _non_object_line,
        _drop_v0,
        _integer_epsilon,
        _added_edge_off_graph,
        _added_edge_off_core,
        _unknown_schema,
        _core_vertex_added_again,
        _nested_too_deeply,
        _strong_diameter_null,
        _strong_increase_null,
        _weak_diameter_not_int,
    ],
)
def test_verify_malformed_trace_exits_2(tmp_path, capsys, edit):
    """A str record is written as the trace line itself, not as JSON."""
    g = triangle_chain(12)
    gpath, opath, tpath, records = orient_artifacts(tmp_path, g, "2")
    edit(records, g.n)
    lines = (r if isinstance(r, str) else json.dumps(r) for r in records)
    tpath.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", gpath, "--orientation", opath, "--trace", str(tpath)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _claim_99_rounds(records):
    next(r for r in records if r["type"] == "extension_final")["rounds"] = 99


def _negative_roundtrip(records):
    next(r for r in records if r["type"] == "extension_round")["roundtrip_max"] = -5


def _false_roundtrip_probe(records):
    next(r for r in records if r["type"] == "extension_round")["roundtrip_probe_ok"] = False


def _zero_max_distance(records):
    next(r for r in records if r["type"] == "growth_final")["max_distance"] = 0


def _failed_verdict(records):
    records[-1]["ok"] = False


def _extension_not_ok(records):
    next(r for r in records if r["type"] == "extension_final")["ok"] = False


def _weak_with_null_diameters(records):
    final = next(r for r in records if r["type"] == "extension_final")
    final.update(strong=False, diameter=None, increase=None)


@pytest.mark.parametrize(
    "edit, check",
    [
        (_claim_99_rounds, "extension_increase_within_allowed"),
        (_negative_roundtrip, "extension_increase_within_allowed"),
        (_false_roundtrip_probe, "extension_increase_within_allowed"),
        (_zero_max_distance, "growth_properties"),
        (_failed_verdict, "pipeline_verdict_matches"),
        (_extension_not_ok, "extension_increase_within_allowed"),
        (_weak_with_null_diameters, "final_strong"),
    ],
)
def test_verify_replays_summary_fields(tmp_path, capsys, edit, check):
    gpath, opath, tpath, records = orient_artifacts(tmp_path, triangle_chain(12), "2")
    edit(records)
    tpath.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    capsys.readouterr()
    code, data = run_json(capsys, ["verify", gpath, "--orientation", opath, "--trace", str(tpath)])
    assert code == 4
    assert check in [c["name"] for c in data["checks"] if not c["ok"]]


def _first(records, kind):
    return next(rec for rec in records if rec["type"] == kind)


@pytest.mark.parametrize(
    "edit",
    [
        lambda recs: _first(recs, "growth_iteration").update(labeled=[3, 5, 1008]),
        lambda recs: _first(recs, "extension_step").update(path=None),
        lambda recs: _first(recs, "extension_step").update(case=None),
        lambda recs: _first(recs, "extension_step").pop("anchor"),
        lambda recs: _first(recs, "extension_round").update(frontier=["x", None]),
        lambda recs: _first(recs, "extension_round").update(absorbed=[10**9]),
        lambda recs: _first(recs, "extension_round").pop("frontier"),
        lambda recs: _first(recs, "growth_iteration").update(cover_steps="x"),
        lambda recs: _first(recs, "extension_step").update(round=None),
        lambda recs: _first(recs, "extension_step").update(j="x"),
        lambda recs: _first(recs, "extension_step").update(window_empty=3),
    ],
    ids=[
        "labeled_out_of_range",
        "path_null",
        "case_null",
        "anchor_missing",
        "frontier_not_vertices",
        "absorbed_out_of_range",
        "frontier_missing",
        "cover_steps_not_int",
        "round_null",
        "j_not_int",
        "window_empty_not_bool",
    ],
)
def test_verify_rejects_malformed_log_fields(tmp_path, capsys, edit):
    """Log-only fields are not recomputed, but a malformed one still exits 2."""
    gpath, opath, tpath, records = orient_artifacts(tmp_path, triangle_chain(12), "2")
    edit(records)
    tpath.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    capsys.readouterr()
    assert main(["verify", gpath, "--orientation", opath, "--trace", str(tpath)]) == 2
    assert "missing or not" in capsys.readouterr().err


TABLE_FIELDS = [
    (kind, key) for kind, (_, fields) in check._TRACE_SCHEMA.items() for key in fields
]


def _out_of_kind(kind, n):
    """Values outside a kind of ``check._TRACE_SCHEMA``, for a graph on n vertices."""
    ints = ["x", None, True, 1.5]
    vertex_lists = [None, 3, [n], [-1], [True], [1.0], [3, 5, 1008], [10**9], ["x", None]]
    return {
        "int": ints,
        "int or null": ["x", True, 1.5],
        "bool": [None, 1, 3, "true"],
        "str": [None, 2, ["x"]],
        "vertex": [*ints, n, -1],
        "vertices": vertex_lists,
        "edges": [*vertex_lists, [[0, 1, 2]], [[0, n]], [[0, True]], [(0,)]],
        "checks": [None, [1], [{"name": 1, "ok": True}], [{"name": "x", "ok": 1}], [{}]],
    }[kind.removeprefix("optional ")]


DROP = object()


@pytest.mark.parametrize("kind, key", TABLE_FIELDS, ids=[f"{t}.{k}" for t, k in TABLE_FIELDS])
def test_verify_rejects_each_malformed_field(chain_run, kind, key):
    """Each field of the trace table, dropped or set outside its kind in the
    first record that holds it, exits 2 and names the field; the chain-case
    ``j`` and ``window_empty`` may be dropped.
    """
    tmp, texts = chain_run
    records = [json.loads(line) for line in texts["trace"]]
    pos = next(i for i, rec in enumerate(records) if rec["type"] == kind and key in rec)
    field_kind = check._TRACE_SCHEMA[kind][1][key]
    tpath = tmp / "edited_field.jsonl"
    argv = ["verify", str(tmp / "g.txt"), "--orientation", str(tmp / "g.orientation"),
            "--trace", str(tpath)]
    edits = [(value, 2) for value in _out_of_kind(field_kind, CHAIN_GRAPH.n)]
    edits.append((DROP, 0 if field_kind.startswith("optional ") else 2))
    for value, want in edits:
        edited = [dict(rec) for rec in records]
        if value is DROP:
            del edited[pos][key]
        else:
            edited[pos][key] = value
        tpath.write_text("\n".join(json.dumps(rec) for rec in edited) + "\n")
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code == want, value
        assert want == 0 or f"field {key!r} missing or not" in err.getvalue(), value


@pytest.mark.parametrize("field", ["added_vertices", "added_edges", "added_claimed"])
@pytest.mark.parametrize(
    "value",
    [[True], [1.0], [-1], ["n"], [[0, 1, 2]], [[0, True]]],
    ids=["bool", "float", "negative", "n", "triple", "bool_end"],
)
def test_verify_rejects_malformed_vertex_lists(tmp_path, capsys, field, value):
    """A vertex list holds ints in range(n) and an edge list pairs of them; else exit 2."""
    g = triangle_chain(12)
    gpath, opath, tpath, records = orient_artifacts(tmp_path, g, "2")
    _first(records, "growth_iteration")[field] = [g.n if x == "n" else x for x in value]
    tpath.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    capsys.readouterr()
    assert main(["verify", gpath, "--orientation", opath, "--trace", str(tpath)]) == 2
    assert f"field {field!r} missing or not" in capsys.readouterr().err


def test_verify_rejects_a_repeated_extension_step(tmp_path, capsys):
    """Each extension step absorbs a new vertex, so a step written twice exits 2."""
    gpath, opath, tpath, records = orient_artifacts(tmp_path, triangle_chain(12), "2")
    step = records.index(_first(records, "extension_step"))
    records.insert(step, dict(records[step]))
    tpath.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    capsys.readouterr()
    assert main(["verify", gpath, "--orientation", opath, "--trace", str(tpath)]) == 2
    assert "two extension_step records for vertex" in capsys.readouterr().err


SCHEMA1 = Path(__file__).parent / "data" / "schema1"


@pytest.mark.parametrize("name", ["triangle_chain_12", "circulant_200_1_2"])
def test_verify_refuses_schema1_traces(tmp_path, capsys, name):
    """Traces written before schema 2, with whole-core snapshots, exit 2.

    The files were written by ``orient`` at eps 2 (triangle_chain 12) and
    1/2 (circulant 200 1 2) before the trace carried added sets. Today's
    trace of the same run, expanded to schema 1, is the committed one record
    for record, so the snapshot replay in ``conftest`` still reads the run.
    """
    files = [str(SCHEMA1 / f"{name}.{ext}") for ext in ("txt", "orientation", "jsonl")]
    assert main(["verify", files[0], "--orientation", files[1], "--trace", files[2]]) == 2
    assert "schema" in capsys.readouterr().err
    old = [json.loads(line) for line in Path(files[2]).read_text().splitlines()]
    epsilon = old[0]["epsilon"]
    g = parse_graph(Path(files[0]).read_text())
    _, _, _, records = orient_artifacts(tmp_path, g, epsilon)
    assert records[0]["schema"] == 2
    assert expand_schema1(records) == old


def test_verify_refuses_a_core_edge_added_again(tmp_path, capsys):
    """A core only grows: an iteration that lists a core edge again fails core_grows."""
    gpath, opath, tpath, records = orient_artifacts(tmp_path, triangle_chain(12), "2")
    first, second = [r for r in records if r["type"] == "growth_iteration"][:2]
    second["added_edges"] = sorted([*second["added_edges"], first["added_edges"][-1]])
    tpath.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    capsys.readouterr()
    code, data = run_json(capsys, ["verify", gpath, "--orientation", opath, "--trace", str(tpath)])
    assert code == 4
    detail = "iteration 1: core_grows (|H|=13 |F|=15 |B|=3, floor 3, girth 3)"
    assert data["checks"][0] == {"name": "growth_properties", "ok": False, "detail": detail}


def test_verify_requires_an_artifact(tmp_path, capsys):
    gpath = write_graph(tmp_path, "c8.txt", cycle_graph(8))
    assert main(["verify", gpath]) == 2


def test_orient_bridge_exit_code(tmp_path, capsys):
    path = tmp_path / "k2.txt"
    path.write_text("2 1\n0 1\n")
    assert main(["orient", str(path)]) == 3
    err = capsys.readouterr().err
    assert "(0, 1)" in err


def test_orient_rejects_decimal_epsilon(tmp_path, capsys):
    gpath = write_graph(tmp_path, "c8.txt", cycle_graph(8))
    for epsilon in ("0.5", "0"):
        assert main(["orient", gpath, "--epsilon", epsilon]) == 2


def test_missing_and_malformed_files(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.txt")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph header\n")
    assert main(["analyze", str(bad)]) == 2


def test_oracle_cycle(tmp_path, capsys):
    gpath = write_graph(tmp_path, "c8.txt", cycle_graph(8))
    code, data = run_json(capsys, ["oracle", gpath])
    assert code == 0
    assert data["value"] == 7
    assert data["feasible"] is True
    assert len(data["witness"]) == 8


def test_oracle_infeasible_graph(tmp_path, capsys):
    path = tmp_path / "p4.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, data = run_json(capsys, ["oracle", str(path)])
    assert code == 3
    assert data["feasible"] is False
    assert data["value"] is None


def test_oracle_budget_exceeded(tmp_path, capsys):
    from orientdiam.generators import complete_graph

    gpath = write_graph(tmp_path, "k8.txt", complete_graph(8))
    assert main(["oracle", gpath]) == 3
    assert "budget" in capsys.readouterr().err.lower()


def test_gen_analyze_round_trip(tmp_path, capsys):
    out = tmp_path / "circ.txt"
    assert main(["gen", "circulant", "8", "1", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    code, data = run_json(capsys, ["analyze", str(out)])
    assert code == 0
    assert (data["n"], data["m"], data["min_degree"]) == (8, 16, 4)


def test_gen_unknown_family(capsys):
    assert main(["gen", "moebius", "7"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["cycle"],
        ["circulant"],
        ["circulant", "10"],
        ["random", "10"],
        ["theta", "1", "2"],
        ["complete", "3", "4"],
        ["petersen", "5"],
    ],
)
def test_gen_wrong_parameter_count_exits_2(capsys, argv):
    assert main(["gen", *argv]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_experiment_deterministic_across_jobs(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["experiment", "tiny", "--out", str(out1), "--jobs", "1"]) == 0
    assert main(["experiment", "tiny", "--out", str(out2), "--jobs", "2"]) == 0
    text1 = out1.read_bytes()
    assert text1 == out2.read_bytes()
    lines = text1.decode().splitlines()
    assert len(lines) == 17  # header plus sixteen graphs
    assert lines[0].startswith("label,n,m,delta,girth,epsilon,")
    assert all(line.endswith(",true") for line in lines[1:])
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["graphs"] == 16
    assert summary["failed"] == 0


# ---------------------------------------------------------------------------
# verify on edited files: it may accept or refuse them, but never raise

FILES = ("graph", "orientation", "trace")
_RETYPED = (None, "x", 1.5, -1, True, [], {}, [[0, 0]])


def _run_lines(tmp, g, epsilon):
    with redirect_stdout(StringIO()):
        paths = orient_artifacts(tmp, g, epsilon)[:3]
    return tmp, {name: Path(path).read_text().splitlines() for name, path in zip(FILES, paths)}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Lines of the graph, orientation and trace files of one small run."""
    return _run_lines(tmp_path_factory.mktemp("small_run"), triangle_chain(12), "2")


CHAIN_GRAPH = circulant_graph(60, (1, 2))


@pytest.fixture(scope="module")
def chain_run(tmp_path_factory):
    """The same for a run that writes every record type and both step cases."""
    return _run_lines(tmp_path_factory.mktemp("chain_run"), CHAIN_GRAPH, "1/2")


def _int_paths(obj, path=()):
    """Paths to every int (not bool) inside nested lists and dicts."""
    if type(obj) is int:
        yield path
    elif isinstance(obj, (list, dict)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _int_paths(value, (*path, key))


def _edit_trace_record(data, lines):
    """Drop or retype a key of one record, or perturb one integer anywhere."""
    records = [json.loads(line) for line in lines]
    kind = data.draw(st.sampled_from(("drop", "retype", "perturb")))
    if kind == "perturb":
        *where, last = data.draw(st.sampled_from(list(_int_paths(records))))
        holder = records
        for step in where:
            holder = holder[step]
        holder[last] += data.draw(st.sampled_from((-2, -1, 1, 2, 1000)))
    else:
        rec = data.draw(st.sampled_from(records))
        key = data.draw(st.sampled_from(sorted(rec)))
        if kind == "drop":
            del rec[key]
        else:
            rec[key] = data.draw(st.sampled_from(_RETYPED))
    return [json.dumps(rec) for rec in records]


def _edit_row(data, lines):
    """Flip the two integers of a row (an arc, in an orientation), perturb or retype one."""
    i = data.draw(st.integers(0, len(lines) - 1))
    words = lines[i].split()
    kind = data.draw(st.sampled_from(("flip", "perturb", "retype")))
    if kind == "flip":
        words[-2:] = words[-1], words[-2]
    else:
        k = data.draw(st.sampled_from((-2, -1)))
        if kind == "retype":
            words[k] = data.draw(st.sampled_from(("x", "1.5", "-")))
        elif words[k].lstrip("-").isdigit():  # not retyped by an earlier edit
            words[k] = str(int(words[k]) + data.draw(st.sampled_from((-1, 1, 1000))))
    lines[i] = " ".join(words)
    return lines


def _edit_lines(data, lines):
    """Duplicate, drop or move one line."""
    i = data.draw(st.integers(0, len(lines) - 1))
    j = data.draw(st.integers(0, len(lines) - 1))
    kind = data.draw(st.sampled_from(("duplicate", "drop", "move")))
    if kind == "duplicate":
        lines.insert(j, lines[i])
    elif kind == "drop":
        del lines[i]
    else:
        lines.insert(j, lines.pop(i))
    return lines


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_verify_never_raises_on_edited_files(small_run, data):
    tmp, texts = small_run
    files = {name: list(lines) for name, lines in texts.items()}
    for _ in range(data.draw(st.integers(1, 2))):
        name = data.draw(st.sampled_from(FILES))
        edit = _edit_trace_record if name == "trace" else _edit_row
        edit = data.draw(st.sampled_from((edit, _edit_lines)))
        files[name] = edit(data, files[name])
    paths = {name: tmp / f"edited.{name}" for name in FILES}
    for name, lines in files.items():
        paths[name].write_text("\n".join(lines) + "\n")
    argv = ["verify", str(paths["graph"]), "--orientation", str(paths["orientation"]),
            "--trace", str(paths["trace"])]
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        assert main(argv) in (0, 2, 3, 4)
    # read_arcs, which verify runs, and parse_orientation read the orientation
    # as the reference built on Orientation.direction and assign does
    try:
        g = parse_graph(paths["graph"].read_text())
    except GraphFormatError:
        return
    text = paths["orientation"].read_text()
    want = _arcs_or_message(lambda t, base: reference_parse_orientation(t, base).arcs(), text, g)
    assert _arcs_or_message(orientation.read_arcs, text, g) == want
    assert _arcs_or_message(lambda t, base: parse_orientation(t, base).arcs(), text, g) == want


def _arcs_or_message(read, text, g):
    """``read``'s arcs by canonical edge, or its GraphFormatError message."""
    try:
        return sorted(read(text, g), key=lambda arc: edge_key(*arc))
    except GraphFormatError as exc:
        return str(exc)


# every top-level integer of a trace record, by what verify does with it:
# claims it recomputes, refused (4) once moved
RECOMPUTED = (
    "growth_header.n", "growth_header.m", "growth_header.min_degree", "growth_header.girth",
    "growth_header.ball_floor", "growth_header.scale", "growth_header.radius",
    "growth_header.reach", "growth_iteration.index", "growth_final.iterations",
    "growth_final.max_distance", "growth_final.core_vertex_count", "growth_final.center_count",
    "growth_final.claimed_count", "extension_header.core_size", "extension_header.core_diameter",
    "extension_header.s", "extension_header.allowed_increase", "extension_round.round",
    "extension_round.s", "extension_final.diameter", "extension_final.core_diameter",
    "extension_final.increase", "extension_final.allowed_increase", "extension_final.rounds",
    "pipeline_final.achieved", "pipeline_final.core_diameter",
)
# fields that choose what the replay reads, so a moved one is malformed (2)
MALFORMED = ("growth_header.schema", "growth_header.v0")
# logs only (README): a moved one may be accepted (0), or be malformed (2)
# when a step's vertex repeats another step's or leaves the graph; the
# chain-case j is on some runs only
LOG_ONLY = (
    "growth_iteration.cover_steps", "growth_iteration.splices",
    "growth_iteration.labeled_on_path", "extension_round.roundtrip_max",
    "extension_step.vertex", "extension_step.anchor", "extension_step.vprime",
    "extension_step.escape", "extension_step.j", "extension_step.round",
)
EXITS = {
    **dict.fromkeys(RECOMPUTED, {4}), **dict.fromkeys(MALFORMED, {2}),
    **dict.fromkeys(LOG_ONLY, {0, 2}),
}


def _first_fields(records, kinds):
    """Each top-level field but ``type`` of a type in ``kinds``: "record.key" -> (pos, key).

    pos is the first record that holds it.
    """
    first = {}
    for pos, rec in enumerate(records):
        for key, value in rec.items():
            if type(value) in kinds and key != "type":
                first.setdefault(f"{rec['type']}.{key}", (pos, key))
    return first


def _wrong_exits(paths, records, edits, exits):
    """Each edit (name, pos, key, value) applied alone; those whose exit is not in exits[name]."""
    gpath, opath, tpath = paths
    wrong = []
    for name, pos, key, value in edits:
        edited = [dict(rec) for rec in records]
        edited[pos][key] = value
        tpath.write_text("\n".join(json.dumps(r) for r in edited) + "\n")
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            code = main(["verify", gpath, "--orientation", opath, "--trace", str(tpath)])
        if code not in exits[name]:
            wrong.append(f"{name} -> {value!r}: exit {code}")
    return wrong


TWO_RUNS = pytest.mark.parametrize(
    "g, epsilon",
    [(triangle_chain(12), "2"), (circulant_graph(60, (1, 2)), "1/2")],
    ids=["triangle_chain_12", "circulant_60_1_2"],
)


@TWO_RUNS
def test_trace_records_hold_exactly_the_table_fields(g, epsilon):
    """Each record run_pipeline writes has ``type`` and the fields the trace
    table lists for its type, the optional j and window_empty on chain steps only.
    """
    for rec in pipeline.run_pipeline(g, Fraction(epsilon)).trace_records():
        fields = check._TRACE_SCHEMA[rec["type"]][1]
        optional = {key for key, kind in fields.items() if kind.startswith("optional ")}
        if rec.get("case") != "chain":
            fields = fields.keys() - optional
        assert set(rec) == {"type", *fields}, rec["type"]


@TWO_RUNS
def test_certify_reads_the_arcs_in_any_order(g, epsilon):
    """verify hands ``certify`` the arcs in file order: the checks of a
    seeded shuffle equal those of the canonical order ``orient`` writes."""
    result = pipeline.run_pipeline(g, Fraction(epsilon))
    records = result.trace_records()
    arcs = result.orientation.arcs()
    shuffled = list(arcs)
    random.Random(0).shuffle(shuffled)
    assert shuffled != arcs
    assert check.certify(g, records, shuffled) == check.certify(g, records, arcs)


@TWO_RUNS
def test_verify_refuses_each_recomputed_integer_moved_by_one(tmp_path, g, epsilon):
    """Each integer of the trace moved by -1 and by +1, in the first record
    that holds it, exits as ``EXITS`` says; a new integer field must be listed.
    """
    with redirect_stdout(StringIO()):
        gpath, opath, tpath, records = orient_artifacts(tmp_path, g, epsilon)
    first = _first_fields(records, (int,))
    assert {*RECOMPUTED, *MALFORMED} <= set(first) <= set(EXITS)
    edits = [
        (name, pos, key, records[pos][key] + delta)
        for name, (pos, key) in sorted(first.items())
        for delta in (-1, 1)
    ]
    assert not _wrong_exits((gpath, opath, tpath), records, edits, EXITS)


# every top-level bool and str of a trace record but ``type``, by what verify
# does with it once changed: claims it recomputes (4); the growth fallback
# flag, which picks whether the replay's balls avoid the path edges, both
# readings recomputed (0 where the balls come out the same, else 4); and logs
# only (0)
FLAG_EXITS = {
    **dict.fromkeys(
        (
            "growth_header.epsilon", "growth_final.property1",
            "extension_round.roundtrip_probe_ok", "extension_final.strong",
            "extension_final.ok", "pipeline_final.ok", "pipeline_final.bound_total",
        ),
        {4},
    ),
    "growth_iteration.fallback": {0, 4},
    **dict.fromkeys(("extension_step.case", "extension_step.window_empty"), {0}),
}


def _changed(value):
    """A bool flipped, a rational string's numerator plus one, another string extended."""
    if type(value) is bool:
        return not value
    p, slash, q = value.partition("/")
    return f"{int(p) + 1}{slash}{q}" if p.isdigit() else value + "x"


@TWO_RUNS
def test_verify_refuses_each_recomputed_flag_and_string_changed(tmp_path, g, epsilon):
    """Each bool of the trace flipped, and each str changed, in the first
    record that holds it, exits as ``FLAG_EXITS`` says; a new such field must
    be listed.
    """
    with redirect_stdout(StringIO()):
        gpath, opath, tpath, records = orient_artifacts(tmp_path, g, epsilon)
    first = _first_fields(records, (bool, str))
    recomputed = {name for name, codes in FLAG_EXITS.items() if codes == {4}}
    assert recomputed <= set(first) <= set(FLAG_EXITS)
    edits = [
        (name, pos, key, _changed(records[pos][key]))
        for name, (pos, key) in sorted(first.items())
    ]
    assert not _wrong_exits((gpath, opath, tpath), records, edits, FLAG_EXITS)


def _noop_iteration(records):
    """A growth iteration that adds nothing, counted in growth_final."""
    final = _first(records, "growth_final")
    index = final["iterations"]
    empty = dict.fromkeys(("path", "labeled", "centers", "added_vertices", "added_edges",
                           "added_claimed"), [])
    noop = {"type": "growth_iteration", "index": index, **empty, "fallback": False,
            "cover_steps": 0, "splices": 0, "labeled_on_path": 0}
    records.insert(records.index(final), noop)
    final["iterations"] += 1
    return index


def _cut_escape_path(records):
    """The first iteration's path without its last vertex."""
    _first(records, "growth_iteration")["path"].pop()
    return 0


@TWO_RUNS
@pytest.mark.parametrize("edit", [_noop_iteration, _cut_escape_path])
def test_verify_refuses_an_iteration_off_its_escape_path(tmp_path, g, epsilon, edit):
    """An iteration covers an escape path of reach + 1 vertices from the core,
    so a growth iteration that never happened, or a path cut short by one
    vertex (a fallback center on C_60(1, 2)), fails ``escape_path``.
    """
    with redirect_stdout(StringIO()):
        gpath, opath, tpath, records = orient_artifacts(tmp_path, g, epsilon)
    pos = edit(records)
    tpath.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    out = StringIO()
    with redirect_stdout(out):
        code = main(["verify", gpath, "--orientation", opath, "--trace", str(tpath)])
    assert code == 4
    growth = json.loads(out.getvalue())["checks"][0]
    assert growth["name"] == "growth_properties"
    assert growth["detail"].startswith(f"iteration {pos}: escape_path (")


def test_verify_refuses_fallback_centers_off_their_places(tmp_path, capsys):
    """A fallback iteration banks path[g], path[2g], ..., path[Lg] in that
    order; the same centers reversed claim the same balls, but fail
    ``centers_placed``.
    """
    gpath, opath, tpath, records = orient_artifacts(tmp_path, CHAIN_GRAPH, "1/2")
    first = _first(records, "growth_iteration")
    assert first["fallback"]
    first["centers"].reverse()
    tpath.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    capsys.readouterr()
    code, data = run_json(capsys, ["verify", gpath, "--orientation", opath, "--trace", str(tpath)])
    assert code == 4
    assert data["checks"][0]["detail"].startswith("iteration 0: centers_placed (")


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_experiment_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    out = tmp_path / "tiny.csv"
    assert main(["experiment", "tiny", "--out", str(out), "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"\norientdiam experiment: error: argument --jobs: must be at least 1, got '{jobs}'\n")
    assert not out.exists()


def test_budget_below_zero_exits_2(tmp_path, capsys):
    gpath = write_graph(tmp_path, "c8.txt", cycle_graph(8))
    out = tmp_path / "b.csv"
    for argv in (["oracle", gpath, "--budget", "-5"],
                 ["experiment", "tiny", "--out", str(out), "--budget", "-1"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.endswith(f": error: argument --budget: must be at least 0, got '{argv[-1]}'\n")
    assert not out.exists()
    # a budget of 0 is one: 8 edges exceed it
    assert main(["oracle", gpath, "--budget", "0"]) == 3
    assert "exceeds the exhaustive budget of 0" in capsys.readouterr().err


@pytest.mark.parametrize("jobs, workers", [(8, [6]), (3, [3]), (1, [])])
def test_experiment_starts_no_more_workers_than_rows(tmp_path, capsys, monkeypatch, jobs, workers):
    """A fork pool starts all its workers at the first submit, so ``--jobs``
    is capped at the row count, 6 on the girth corpus; rows run in process here.
    """
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    argv = ["experiment", "girth", "--out", str(tmp_path / "girth.csv"), "--jobs", str(jobs)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["graphs"] == 6
    assert started == workers
