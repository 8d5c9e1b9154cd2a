"""Command-line tests: subcommand behavior, exit codes, artifact headers,
and the names the benchmark's layer tracer wraps."""

import ast
import copy
import glob
import importlib
import importlib.util
import json
import os
import pickle
import pkgutil
import random
import time
import tracemalloc
import types

import pytest

import graphcode_lt
from _oracles import grid_points_reference

from graphcode_lt import cli
from graphcode_lt.cli import (
    EXIT_CHECK,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    EXIT_VALIDATION,
    DEPTH_LIMIT,
    GRID_LIMIT,
    build_parser,
    config_hash,
    emit_rows,
    main,
    parse_grid,
    resolve_code,
    CliError,
)
from graphcode_lt.codes import GraphCode, pentagon_code, per_code, star_code
from graphcode_lt.errordecode import CheckSet
from graphcode_lt import fusion
from graphcode_lt.fusion import LogicalFusionResult
from graphcode_lt.graphs import Graph
from graphcode_lt.losstree import (
    DecisionTree, Leaf, MeasureNode, load_or_build, success_polynomial)
from graphcode_lt.modular import LayerStack, StackResult, unit_F
from graphcode_lt.opsets import ResourceLimitError
from graphcode_lt.pauli import MeasurementPattern, PauliOperator
from graphcode_lt.polynomials import LossPolynomial
from graphcode_lt.search import Objective, ScoredCandidate, SearchResult


# -- argument handling --------------------------------------------------------------


def test_help_keeps_the_docstring_paragraphs():
    text = build_parser().format_help()
    assert "\nExit codes:" in text
    assert "\n\nGRAPHCODE_LT_CACHE" in text
    assert "\n\nsearch --threads" in text


def test_main_builds_one_parser(capsys):
    build_parser.cache_clear()
    assert main(["analyze", "--graph", "pentagon"]) == EXIT_OK
    assert main(["sweep", "--graph", "pentagon", "--lambda-grid", "0.01"]) == EXIT_OK
    assert build_parser.cache_info().misses == 1
    capsys.readouterr()
    # the reused parser prints the help of a fresh one
    with pytest.raises(SystemExit):
        main(["--help"])
    assert capsys.readouterr().out == build_parser.__wrapped__().format_help()


def test_resolve_library_names():
    assert resolve_code("pentagon", 0).n == 4
    assert resolve_code("cube", 0).n == 7
    assert resolve_code("star5", 0).n == 5
    assert resolve_code("tree:2,2", 0).n == 6
    g6 = pentagon_code().progenitor.to_graph6()
    assert resolve_code(g6, 0).n == 4


def test_resolve_rejects_bad_input():
    with pytest.raises(CliError) as err:
        resolve_code(",,%%%", 0)
    assert err.value.exit_code == EXIT_PARSE
    with pytest.raises(CliError) as err:
        resolve_code("starX", 0)
    assert err.value.exit_code == EXIT_PARSE


def test_named_codes_refuse_another_input_vertex(capsys):
    # a named code has its input at vertex 0; the same progenitor as graph6
    # with input 3 is another code, so input 3 must not be silently dropped
    for graph in ("tree:2,1", "pentagon", "star4"):
        assert main(["analyze", "--graph", graph,
                     "--input-vertex", "3"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("graphcode-lt: error: --input-vertex 3")
        assert captured.err.count("\n") == 1
    assert main(["analyze", "--graph", "DqG", "--input-vertex", "3"]) == EXIT_OK
    assert "X: eta + 2*eta^2 - 3*eta^3 + eta^4" in capsys.readouterr().out


def test_named_codes_keep_input_zero(capsys):
    argv = ["analyze", "--graph", "tree:2,1", "--format", "json"]
    assert main(argv + ["--input-vertex", "0"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    # the hash of this config before --input-vertex was checked
    assert payload["config_hash"] == "63f0680b3a45"
    assert payload["result"][0]["polynomial"] == "4*eta^2 - 4*eta^3 + eta^4"


def test_resolve_graph6_that_starts_with_star():
    # [TRIVIAL] "s" is the graph6 size byte of a 52-vertex graph: one whose
    # first adjacency bits spell "tar" is a graph, not a star size
    edges = [(0, 1), (0, 2), (0, 3), (2, 3), (0, 4), (0, 5), (2, 5), (3, 5),
             (1, 6), (2, 6)] + [(v - 1, v) for v in range(6, 52)]
    g = Graph.from_edges(52, edges)
    text = g.to_graph6()
    assert text.startswith("star")
    assert resolve_code(text, 0).progenitor == g
    assert resolve_code("star4", 0) == star_code(4)


def test_parse_grid_forms():
    assert parse_grid("0.1,0.2,0.5", "g") == [0.1, 0.2, 0.5]
    assert list(parse_grid("0.5:0.7:0.1", "g")) == [0.5, 0.6, 0.7]
    with pytest.raises(CliError):
        parse_grid("", "g")
    with pytest.raises(CliError):
        parse_grid("0.5:0.4:0.1", "g")
    with pytest.raises(CliError):
        parse_grid("a,b", "g")


def test_oversized_grids_exit_before_a_point_is_made(capsys):
    # about 10^12 points each: refused from start, stop and step alone
    for argv in (["sweep", "--graph", "pentagon", "--eta-grid", "0:1:1e-12"],
                 ["sweep", "--graph", "pentagon", "--lambda-grid", "0:0.3:1e-12"],
                 ["fbqc", "--graph", "pentagon", "--pfail", "0.1:1:1e-12"]):
        start = time.perf_counter()
        assert main(argv) == EXIT_RESOURCE, argv
        assert time.perf_counter() - start < 1.0
        assert f"more than {GRID_LIMIT} points" in capsys.readouterr().err
    # one point past the limit, and counts no loop could reach
    for text in ("0:1:1e-6", "0:inf:1", "-inf:0:1"):
        with pytest.raises(ResourceLimitError):
            parse_grid(text, "g")
    with pytest.raises(CliError):
        parse_grid("0:1:nan", "g")
    # a grid under the limit is made as before
    assert list(parse_grid("0:1:0.001", "g")) == [round(k * 0.001, 12)
                                                  for k in range(1001)]


def test_range_points_equal_the_stepped_list():
    # decimal steps whose stop lands a rounding error either side of a
    # point, and arbitrary floats
    rng = random.Random(26)
    grids = [(0.0, 1.0, 0.1), (0.1, 0.7, 0.1), (0.001, 0.1, 0.001),
             (0.5, 0.5, 0.25), (-0.3, 0.3, 0.1)]
    for _ in range(300):
        start = rng.randint(0, 1000) / 1000
        step = rng.randint(1, 50) / 10 ** rng.randint(1, 5)
        grids.append((start, start + rng.randint(0, 2000) * step, step))
    for _ in range(300):
        start, step = rng.uniform(-1, 1), rng.uniform(1e-6, 0.1)
        grids.append((start, start + rng.uniform(0, 3000) * step, step))
    for start, stop, step in grids:
        points = parse_grid(f"{start!r}:{stop!r}:{step!r}", "g")
        want = grid_points_reference(start, stop, step)
        assert list(points) == want, (start, stop, step)
        assert (points[0], points[-1]) == (want[0], want[-1])


def test_consuming_a_range_takes_constant_memory():
    tracemalloc.start()
    try:
        count = 0
        for _ in parse_grid("0:0.999:0.000001", "g"):
            count += 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 999_001
    assert peak < 1 << 20


def test_range_ends_are_checked_before_any_row(capsys):
    # the bad point is the last, so a per-point check would emit rows first
    for argv in (["sweep", "--graph", "pentagon", "--eta-grid", "0.5:1.1:0.1"],
                 ["sweep", "--graph", "pentagon", "--lambda-grid", "0:0.4:0.1"],
                 ["fusion", "--graph", "pentagon", "--eta-grid=-0.1:0.5:0.1"]):
        assert main(argv) == EXIT_VALIDATION, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1


# -- analyze ------------------------------------------------------------------------


def test_analyze_pentagon_prints_canonical_polynomials(capsys):
    # [PAPER: Pauli success 2*eta^2 - eta^4, break-even near 0.38]
    assert main(["analyze", "--graph", "pentagon"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "2*eta^2 - eta^4" in out
    assert "4*eta^3 - 3*eta^4" in out
    assert "0.381966" in out
    assert "0.232408" in out


def test_analyze_csv_has_version_header(tmp_path):
    out = tmp_path / "analysis.csv"
    rc = main(["analyze", "--graph", "pentagon", "--format", "csv",
               "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# graphcode-lt ")
    assert "config=" in lines[0]
    assert lines[1] == "basis,polynomial,break_even"


def test_output_writes_config_sidecar(tmp_path):
    out = tmp_path / "rows.csv"
    main(["analyze", "--graph", "pentagon", "--format", "csv",
          "--out", str(out)])
    sidecar = json.loads((tmp_path / "rows.csv.config.json").read_text())
    assert sidecar["tool"] == "graphcode-lt"
    assert sidecar["config"]["graph"] == "pentagon"
    assert sidecar["config_hash"] in out.read_text()


# -- exit codes ---------------------------------------------------------------------


def test_exit_code_parse_error(capsys):
    assert main(["analyze", "--graph", ",,%%%"]) == EXIT_PARSE
    assert main(["analyze", "--graph", "~"]) == EXIT_PARSE
    assert "malformed graph6" in capsys.readouterr().err


def test_exit_code_validation_error():
    assert main(["sweep", "--graph", "pentagon", "--eta-grid", ""]) == \
        EXIT_VALIDATION
    assert main(["sweep", "--graph", "pentagon"]) == EXIT_VALIDATION
    assert main(["concat", "--graph", "pentagon", "--depth", "0",
                 "--eta", "0.9"]) == EXIT_VALIDATION
    assert main(["mc-check", "--graph", "pentagon", "--trials", "0"]) == \
        EXIT_VALIDATION


_UNKNOWN = "unrecognized arguments"
_EXCLUSIVE = "not allowed with argument"
# a flag the command has no use for, or one of two of which it reads one
_IGNORED_FLAGS = [
    (["mc-check", "--graph", "pentagon", "--out", "x.txt"], _UNKNOWN),
    (["mc-check", "--graph", "pentagon", "--format", "json"], _UNKNOWN),
    (["tree", "--graph", "pentagon", "--format", "csv"], _UNKNOWN),
    (["search", "arbitrary", "--graph", "n:4", "--format", "json"], _UNKNOWN),
    (["sweep", "--graph", "pentagon", "--eta-grid", "0:1:0.5",
      "--lambda-grid", "0.01"], _EXCLUSIVE),
    (["fusion", "--graph", "pentagon", "--eta", "0.3", "--eta-grid", "0.9"],
     _EXCLUSIVE),
    (["concat", "--graph", "pentagon", "--eta-grid", "0.9", "--eta", "0.3"],
     _EXCLUSIVE),
    (["rgs", "--graph", "pentagon", "--eta", "0.3", "--eta-grid", "0.9"],
     _EXCLUSIVE),
]


@pytest.mark.parametrize("argv, message", _IGNORED_FLAGS,
                         ids=[f"argv{i}" for i in range(len(_IGNORED_FLAGS))])
def test_flags_a_command_would_ignore_are_rejected(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_PARSE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fbqc", "--graph", "pentagon", "--pfail", "0"],
    ["rgs", "--graph", "pentagon", "--pfail", "1.5", "--eta", "0.9"],
])
def test_pfail_outside_unit_interval_is_validation_error(argv, capsys):
    assert main(argv) == EXIT_VALIDATION
    assert "p_fail must lie in (0, 1]" in capsys.readouterr().err


def test_exit_code_resource_error():
    assert main(["analyze", "--graph", "star16"]) == EXIT_RESOURCE


def test_oversized_graph_refused_before_it_is_built():
    # the qubit count is read off the name: star<N> has N code qubits and
    # tree:<b1,b2,..> has b1 + b1 b2 + ..., so neither code is built
    for graph in ("star20000", "tree:100,100"):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="limit is n <= 14"):
            resolve_code(graph, 0)
        assert time.perf_counter() - start < 1.0
    # 14 qubits is the limit itself
    assert resolve_code("star14", 0).n == 14
    assert resolve_code("tree:2,2,2", 0).n == 14


def test_oversized_search_exits_before_enumerating(capsys):
    # 16 progenitor vertices make 15-qubit candidates: refused at once, not
    # after enumerating every 16-vertex class
    start = time.perf_counter()
    assert main(["search", "arbitrary", "--graph", "n:16"]) == EXIT_RESOURCE
    assert time.perf_counter() - start < 1.0
    assert "limit is n <= 14" in capsys.readouterr().err


# -- tree ---------------------------------------------------------------------------


def test_tree_json_round_trips(tmp_path):
    out = tmp_path / "tree.json"
    rc = main(["tree", "--graph", "pentagon", "--basis", "X",
               "--out", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["version"]
    tree = load_or_build(pentagon_code(), "X")
    assert payload["result"] == json.loads(tree.to_json())
    assert payload["result"]["kind"] == "pauli-X"


def test_cache_env_receives_no_trees(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GRAPHCODE_LT_CACHE", str(tmp_path))
    for argv in (["analyze", "--graph", "cube"],
                 ["tree", "--graph", "cube", "--basis", "A"],
                 ["sweep", "--graph", "cube", "--eta-grid", "0.5,0.9"],
                 ["concat", "--graph", "cube", "--depth", "2", "--eta", "0.9"],
                 ["mc-check", "--graph", "cube", "--trials", "1000"]):
        assert main(argv) == EXIT_OK, argv
    assert list(tmp_path.iterdir()) == []


def test_tree_basis_alias_keeps_its_config(tmp_path):
    # A and arbitrary name one tree; the config, and so its hash, records
    # the flag as given
    outs = {}
    for basis in ("A", "arbitrary"):
        out = tmp_path / f"{basis}.json"
        assert main(["tree", "--graph", "pentagon", "--basis", basis,
                     "--out", str(out)]) == EXIT_OK
        outs[basis] = json.loads(out.read_text())
    assert outs["A"]["result"] == outs["arbitrary"]["result"]
    assert outs["A"]["result"]["kind"] == "arbitrary"
    assert outs["A"]["config"]["basis"] == "A"
    assert [outs[b]["config_hash"] for b in ("A", "arbitrary")] == [
        "ee57118cd380", "e36e18eea6be"]


# -- sweeps and tables --------------------------------------------------------------


def test_sweep_eta_grid_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--graph", "pentagon", "--eta-grid", "0.5:0.9:0.1",
               "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[1] == "eta,loss_x,loss_y,loss_z,loss_arbitrary"
    assert len(lines) == 2 + 5


def test_sweep_lambda_grid_rows(tmp_path):
    out = tmp_path / "err.csv"
    rc = main(["sweep", "--graph", "pentagon", "--lambda-grid", "0.01,0.02",
               "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[1] == "lambda,flip_x,flip_y,flip_z"
    assert len(lines) == 4


def test_identical_config_gives_identical_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["fusion", "--graph", "pentagon", "--pfail", "0.25",
            "--eta-grid", "0.9,0.95"]
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes().replace(b"a.csv", b"") == \
        b.read_bytes().replace(b"b.csv", b"")


def test_fusion_modes_differ(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["fusion", "--graph", "cube", "--eta", "0.9", "--out", str(a)])
    main(["fusion", "--graph", "cube", "--eta", "0.9",
          "--mode", "transversal", "--out", str(b)])
    row_a = a.read_text().splitlines()[2]
    row_b = b.read_text().splitlines()[2]
    assert float(row_a.split(",")[1]) > float(row_b.split(",")[1])


def test_concat_reports_qubit_count(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["concat", "--graph", "cube", "--depth", "2",
               "--mode", "concatenated", "--eta", "0.9", "--out", str(out)])
    assert rc == EXIT_OK
    row = out.read_text().splitlines()[2].split(",")
    assert row[-1] == "49"


def test_concat_depth_past_the_limit_exits_before_any_row(capsys):
    argv = ["concat", "--graph", "pentagon", "--eta", "0.9", "--depth"]
    assert main(argv + [str(DEPTH_LIMIT)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        "," + str(4 ** DEPTH_LIMIT))
    assert main(argv + [str(DEPTH_LIMIT + 1)]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--depth {DEPTH_LIMIT + 1} is past the limit" in captured.err


def test_rgs_emits_link_and_chain_columns(tmp_path):
    out = tmp_path / "rgs.csv"
    rc = main(["rgs", "--graph", "tree:2,1", "--pfail", "0.5",
               "--eta-grid", "0.95,1.0", "--depth", "3", "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[1] == "ell,p_link,p_end_to_end"
    ell, p_link, p_end = (float(v) for v in lines[2].split(","))
    assert ell == pytest.approx(0.05)
    assert p_end == pytest.approx(p_link ** 3, abs=1e-12)


def test_fbqc_accepts_pfail_list(tmp_path):
    out = tmp_path / "fbqc.csv"
    rc = main(["fbqc", "--graph", "shor22", "--pfail", "0.5,0.25",
               "--mode", "transversal", "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[1] == "p_fail,loss_threshold"
    assert float(lines[2].split(",")[1]) == 0.0
    assert float(lines[3].split(",")[1]) == pytest.approx(0.0271, abs=3e-4)


def test_json_format_envelope(tmp_path):
    out = tmp_path / "f.json"
    main(["fusion", "--graph", "pentagon", "--eta", "0.9", "--format", "json",
          "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["config"]["command"] == "fusion"
    assert payload["result"][0]["eta"] == 0.9


# -- streamed emission ---------------------------------------------------------------

_HEADER = ["name", "count", "value", "low", "high", "missing"]
_ROWS = [
    ["X", 3, 0.25, float("-inf"), float("inf"), None],
    ["\u00e9ta \u2264 1", -7, float("nan"), 1e-300, 1.5e300, ""],
    ["Z", 0, 0.1 + 0.2, -0.0, 2 ** 70, "a,b"],
]
_CONFIG = {"command": "test", "graph": "pentagon", "out": None}


def _old_csv(header, rows, config):
    """The CSV text as the whole table was written at once."""
    head = f"# graphcode-lt {graphcode_lt.__version__} config={config_hash(config)}\n"
    cells = [",".join(f"{v:.12g}" if isinstance(v, float) else str(v)
                      for v in row) for row in rows]
    return head + "".join(line + "\n" for line in [",".join(header)] + cells)


@pytest.mark.parametrize("rows", [_ROWS, _ROWS[:1], []],
                         ids=["rows", "one-row", "empty"])
def test_json_rows_match_the_indented_dump(rows, capsys, tmp_path):
    payload = {"tool": "graphcode-lt", "version": graphcode_lt.__version__,
               "config_hash": config_hash(_CONFIG), "config": _CONFIG,
               "result": [dict(zip(_HEADER, row)) for row in rows]}
    want = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    emit_rows(_HEADER, iter(rows), _CONFIG, None, "json")
    assert capsys.readouterr().out == want
    out = tmp_path / "rows.json"
    emit_rows(_HEADER, iter(rows), _CONFIG, str(out), "json")
    assert out.read_text(encoding="ascii") == want


@pytest.mark.parametrize("rows", [_ROWS, []], ids=["rows", "empty"])
def test_csv_rows_keep_their_layout(rows, capsys):
    emit_rows(_HEADER, iter(rows), _CONFIG, None, "csv")
    assert capsys.readouterr().out == _old_csv(_HEADER, rows, _CONFIG)


def test_emitting_many_rows_takes_constant_memory(tmp_path):
    # 10^5 six-column rows held as one text took about 1.7 KB a row
    rows = ([i, i * 1e-5, 1 - i * 1e-5, i / 3, -i / 7, "r"]
            for i in range(10 ** 5))
    out = tmp_path / "big.json"
    tracemalloc.start()
    try:
        emit_rows(_HEADER, rows, _CONFIG, str(out), "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    assert len(json.loads(out.read_text())["result"]) == 10 ** 5


def _raising_rows(good: int):
    yield from _ROWS[:good]
    raise ValueError("row failed")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_nothing_reaches_stdout_when_the_first_row_raises(fmt, capsys):
    with pytest.raises(ValueError):
        emit_rows(_HEADER, _raising_rows(0), _CONFIG, None, fmt)
    assert capsys.readouterr().out == ""
    # the gate model (fusion._gate_outcomes) refuses p_fail = 2 when the
    # first row is made
    rc = main(["fusion", "--graph", "pentagon", "--pfail", "2",
               "--eta-grid", "0.5,0.9", "--format", fmt])
    assert rc == EXIT_VALIDATION
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("good", [0, 2])
def test_a_failed_run_leaves_no_out_file(good, tmp_path):
    out = tmp_path / "rows.json"
    with pytest.raises(ValueError):
        emit_rows(_HEADER, _raising_rows(good), _CONFIG, str(out), "json")
    assert os.listdir(tmp_path) == []
    rc = main(["fusion", "--graph", "pentagon", "--pfail", "2",
               "--eta", "0.9", "--out", str(out)])
    assert rc == EXIT_VALIDATION
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["analyze", "--graph", "pentagon", "--format", "json"],
    ["tree", "--graph", "pentagon"],
    ["search", "arbitrary", "--graph", "n:4"],
], ids=["analyze", "tree", "search"])
def test_unwritable_out_exits_3_before_any_engine_runs(argv, monkeypatch,
                                                      capsys, tmp_path):
    def engine(*args, **kwargs):
        raise AssertionError("an engine ran before --out was opened")

    for name in ("load_or_build", "optimize"):
        monkeypatch.setattr(cli, name, engine)
    out = tmp_path / "missing" / "x.json"
    assert main(argv + ["--out", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("graphcode-lt: error: cannot write --out")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


# -- search -------------------------------------------------------------------------


def test_search_emits_header_and_ranked_records(capsys):
    rc = main(["search", "arbitrary", "--graph", "n:5", "--eta", "0.99"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    head = json.loads(lines[0])
    assert head["tool"] == "graphcode-lt"
    records = [json.loads(l) for l in lines[1:]]
    assert len(records) == 6
    # [PAPER: the pentagon class wins the four-qubit search]
    assert records[0]["graph6"] == "DUW"
    scores = [r["score"] for r in records]
    assert scores == sorted(scores, reverse=True)


def test_search_file_source(tmp_path, capsys):
    cand = tmp_path / "cands.txt"
    cand.write_text("DUW 0\nD?{ 0\n")
    rc = main(["search", "pauli_all_bases", "--graph", str(cand),
               "--eta", "0.9"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[1])["graph6"] == "DUW"


def test_search_bad_file_is_parse_error(tmp_path, capsys):
    cand = tmp_path / "cands.txt"
    cand.write_text("DUW 0\n,,%% 0\n")
    assert main(["search", "arbitrary", "--graph", str(cand)]) == EXIT_PARSE
    assert main(["search", "arbitrary", "--graph", "n:x"]) == EXIT_PARSE
    assert main(["search", "arbitrary", "--graph", "n:1"]) == EXIT_VALIDATION
    assert main(["search", "arbitrary", "--graph", str(cand),
                 "--threads", "0"]) == EXIT_VALIDATION


def test_unreadable_candidate_file_exits_3(tmp_path, capsys):
    for source in (tmp_path, tmp_path / "missing.txt"):
        assert main(["search", "arbitrary", "--graph", str(source)]) == \
            EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "graphcode-lt: error: cannot read candidate file")
        assert captured.err.count("\n") == 1


def test_search_checkpoint_under_cache_env(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    monkeypatch.setenv("GRAPHCODE_LT_CACHE", str(cache))
    argv = ["search", "arbitrary", "--graph", "n:4", "--eta", "0.9"]
    assert main(argv) == EXIT_OK
    ckpts = list(cache.glob("search_*.ckpt"))
    assert len(ckpts) == 1
    first = ckpts[0].read_text()
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert ckpts[0].read_text() == first
    # the ranking does not depend on the worker count, so neither does the
    # checkpoint: another --threads finds it and scores nothing again
    capsys.readouterr()
    assert main(argv + ["--threads", "2"]) == EXIT_OK
    assert list(cache.glob("search_*.ckpt")) == ckpts
    assert ckpts[0].read_text() == first


def test_cache_env_naming_a_file_exits_3(tmp_path, monkeypatch, capsys):
    taken = tmp_path / "not-a-directory"
    taken.write_text("")
    monkeypatch.setenv("GRAPHCODE_LT_CACHE", str(taken))
    assert main(["search", "arbitrary", "--graph", "n:4"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("graphcode-lt: error: GRAPHCODE_LT_CACHE=")
    assert captured.err.count("\n") == 1
    assert taken.read_text() == ""


# -- mc-check -----------------------------------------------------------------------


def test_mc_check_passes_with_fixed_seed(capsys):
    rc = main(["mc-check", "--graph", "pentagon", "--basis", "arbitrary",
               "--eta", "0.9", "--trials", "100000", "--seed", "12"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert "conservation=ok" in out


def test_mc_check_pauli_basis(capsys):
    rc = main(["mc-check", "--graph", "cube", "--basis", "Z",
               "--eta", "0.75", "--trials", "50000", "--seed", "4"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.startswith("PASS")


def test_mc_check_passes_when_every_trial_agrees(capsys):
    # all ten trials succeed: the sample's own standard error is 0, the
    # one the exact value 0.9639 predicts is 0.059
    rc = main(["mc-check", "--graph", "pentagon", "--eta", "0.9",
               "--trials", "10", "--basis", "X"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == (
        "PASS exact=0.963900 mc=1.000000 stderr=0.058989 conservation=ok\n")


def test_mc_check_fails_an_estimate_far_from_exact(monkeypatch, capsys):
    monkeypatch.setattr(cli, "monte_carlo_decode",
                        lambda tree, eta, trials, seed: 0.5)
    rc = main(["mc-check", "--graph", "pentagon", "--eta", "0.9",
               "--trials", "10", "--basis", "X"])
    assert rc == EXIT_CHECK
    assert capsys.readouterr().out.startswith("FAIL exact=0.963900 mc=0.500000")


def test_mc_check_above_one_chunk_is_deterministic_per_seed(capsys):
    # 70,000 trials span two 65,536-trial chunks
    argv = ["mc-check", "--graph", "cube", "--basis", "X", "--eta", "0.8",
            "--trials", "70000", "--seed", "3"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first
    assert first.startswith("PASS")


def test_version_flag_exits_cleanly():
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


# -- public surface -----------------------------------------------------------------


def _records():
    stack = LayerStack([pentagon_code()], "concatenated", 0.9)
    objective = Objective("arbitrary")
    return [
        (CheckSet((), ()), "checks"),
        (stack, "eta"),
        (StackResult(stack, 0.1, 4), "logical_loss"),
        (LogicalFusionResult(0.5, 0.3, 0.2), "p_success"),
        (objective, "eta"),
        (ScoredCandidate("A_", 0, 0.5, None), "score"),
        (SearchResult(objective, (), ()), "ranked"),
        (PauliOperator.from_string("XZ"), "x"),
        (MeasurementPattern(2), "letters"),
        (Graph(2, (2, 1)), "nbr"),
        (Leaf("failure", MeasurementPattern(1)), "outcome"),
        (MeasureNode(0, "X", None, None), "qubit"),
        (DecisionTree(pentagon_code(), "pauli-X", None), "kind"),
        (pentagon_code(), "input_vertex"),
        (LossPolynomial({((1, 0, 0, 0), (0, 0, 0, 0)): 2}), "terms"),
    ]


@pytest.mark.parametrize("record, field", _records(),
                         ids=lambda v: v if isinstance(v, str)
                         else type(v).__name__)
def test_records_refuse_assignment(record, field):
    # a field, and a name that is none: both raise AttributeError
    for name in (field, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, field))


@pytest.mark.parametrize(
    "value", [v for v, _ in _records()]
    + [star_code(3), success_polynomial(load_or_build(pentagon_code(), "X")),
       load_or_build(pentagon_code(), "arbitrary")],
    ids=lambda v: type(v).__name__)
def test_values_survive_pickle_and_deepcopy(value):
    def fields(v):
        # a LayerStack compares by identity, so it and the StackResult
        # that holds it are compared field by field
        if isinstance(v, LayerStack):
            return v.layers, v.mode, v.eta
        if isinstance(v, StackResult):
            return (fields(v.stack), *v[1:])
        return v

    assert fields(pickle.loads(pickle.dumps(value))) == fields(value)
    assert fields(copy.deepcopy(value)) == fields(value)


def test_an_unpickled_code_reaches_the_memo_entry_of_its_original():
    calls = []

    @per_code
    def qubits(code):
        calls.append(code)
        return code.n

    code = pentagon_code()
    assert qubits(code) == 4
    loaded = pickle.loads(pickle.dumps(code))
    assert loaded is not code
    assert qubits(loaded) == 4 and calls == [code]
    assert tuple(loaded) == tuple(code)


def test_code_inequality_is_the_negation_of_equality():
    # equality reads (progenitor, input_vertex); != must agree with it
    # rather than compare the tuples
    codes = [pentagon_code(), pentagon_code(), star_code(4),
             GraphCode(pentagon_code().progenitor, 2)]
    for a in codes:
        for b in codes + [tuple(codes[0]), None]:
            assert (a != b) is not (a == b)


def test_value_types_hash_as_their_field_tuples():
    # set and dict orders of operators, patterns and graphs follow these
    # hashes, so they are those of the field tuples
    values = [PauliOperator.from_string("-iXYZ"), PauliOperator(3),
              MeasurementPattern.from_chars("XA._"), MeasurementPattern(3),
              Graph(3, (2, 5, 2)), Graph.from_edges(4, [(0, 3)])]
    for v in values:
        assert hash(v) == hash(tuple(v))


def _load_layertrace():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "layertrace.py")
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_and_exports_are_bound():
    layertrace = _load_layertrace()
    for table in (layertrace.SPANS, layertrace.COUNTED):
        for name, targets in table.items():
            for mod_name, attr in targets:
                module = importlib.import_module(f"graphcode_lt.{mod_name}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    # the tracer patches the method on the class itself
                    assert meth in vars(getattr(module, cls_name)), (name, attr)
                else:
                    assert callable(getattr(module, attr, None)), (name, attr)
    for info in pkgutil.iter_modules(graphcode_lt.__path__):
        module = importlib.import_module(f"graphcode_lt.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)
    # every name the benchmark scripts import from the package is bound,
    # and every attribute they read off a package module
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    for path in sorted(glob.glob(os.path.join(bench, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.module or "").startswith("graphcode_lt"):
                source = importlib.import_module(node.module)
                for alias in node.names:
                    value = getattr(source, alias.name, None)
                    assert value is not None, (path, node.module, alias.name)
                    if isinstance(value, types.ModuleType):
                        modules[alias.asname or alias.name] = value
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("graphcode_lt.") and alias.asname:
                        modules[alias.asname] = importlib.import_module(
                            alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                assert hasattr(modules[node.value.id], node.attr), (
                    path, node.value.id, node.attr)
    # what record.py reads off a stack and a unit polynomial
    assert LayerStack([pentagon_code()] * 3, "concatenated",
                      0.9).qubit_count == 64
    assert isinstance(unit_F(pentagon_code(), "A").terms, dict)


def test_logical_fusion_is_the_package_export():
    # the one way to fuse; the gate-parameter wrappers it replaced are gone
    assert graphcode_lt.logical_fusion is fusion.logical_fusion
    for name in ("FusionModel", "adaptive_fusion", "transversal_fusion"):
        assert not hasattr(graphcode_lt, name)
        assert not hasattr(fusion, name)
