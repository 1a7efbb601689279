"""Command line behaviour: exit codes, output shapes, stdin, determinism.

Most cases drive ``main(argv)`` in process and read captured stdout; a
couple of subprocess runs check the installed entry point end to end.
"""

import argparse
import io
import json
import subprocess
import sys

import pytest

from rc2 import cli
from rc2.cli import main
from rc2.generators import complete_bipartite_graph
from rc2.graphs import graph_to_json

from .common import c6_with_chord, cycle, diamond, k4, k23, wheel

CORPUS_SIZE = 154


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def graph_file(tmp_path, g, name="g.json"):
    path = tmp_path / name
    path.write_text(graph_to_json(g) + "\n")
    return str(path)


def coloring_file(tmp_path, assignment, name="col.json"):
    obj = {"edges": [{"u": u, "v": v, "color": c} for (u, v), c in sorted(assignment.items())]}
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# --- gen ---------------------------------------------------------------


def test_gen_cycle_json(capsys):
    code, out, err = run(capsys, ["gen", "cycle", "--n", "5"])
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["n"] == 5
    assert len(obj["edges"]) == 5


def test_gen_edgelist_format(capsys):
    code, out, _ = run(capsys, ["gen", "cycle", "--n", "4", "--format", "edgelist"])
    assert code == 0
    assert out.splitlines() == ["0 1", "0 3", "1 2", "2 3"]


def test_gen_theta(capsys):
    code, out, _ = run(capsys, ["gen", "theta", "--a", "2", "--b", "3", "--c", "4"])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 8 and len(obj["edges"]) == 9


def test_gen_missing_parameter_exits_2(capsys):
    code, out, err = run(capsys, ["gen", "theta", "--a", "2", "--b", "2"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "missing parameter" in err


def test_gen_extra_parameter_exits_2(capsys):
    code, out, err = run(capsys, ["gen", "complete", "--n", "4", "--seed", "3", "--ears", "9"])
    assert code == 2 and out == ""
    assert err == "error: complete takes no parameter 'ears'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["wheel", "--n", "3"], "wheel needs n >= 4"),
        (["complete", "--n", "2"], "complete graph needs n >= 3 to be 2-connected"),
        (["random", "--n", "2", "--ears", "0"], "need n >= 3"),
    ],
    ids=["wheel", "complete", "random"],
)
def test_gen_too_small_exits_2(capsys, argv, message):
    code, out, err = run(capsys, ["gen", *argv])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_gen_unknown_family_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "petersen"])
    assert exc.value.code == 2


def test_gen_random_seed_determinism(capsys):
    argv = ["gen", "random", "--n", "8", "--ears", "2", "--seed", "11"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    _, other, _ = run(capsys, ["gen", "random", "--n", "8", "--ears", "2", "--seed", "12"])
    assert other != first


def test_gen_out_writes_file(capsys, tmp_path):
    dest = tmp_path / "c6.json"
    code, out, _ = run(capsys, ["gen", "cycle", "--n", "6", "--out", str(dest)])
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["n"] == 6


# --- color -------------------------------------------------------------


def test_color_writes_canonical_json(capsys, tmp_path):
    code, out, _ = run(capsys, ["color", "--input", graph_file(tmp_path, k23())])
    assert code == 0
    obj = json.loads(out)
    assert obj["strategy"] == "ear_induction"
    assert obj["colors"] == 4
    assert len(obj["edges"]) == 6
    assert "trace" not in obj


def test_color_trace_to_stdout(capsys, tmp_path):
    code, out, err = run(capsys, ["color", "--input", graph_file(tmp_path, k23()), "--trace"])
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["strategy"] == "ear_induction"
    assert [level["ear"] for level in obj["trace"]] == [[0, 4, 1]]


def test_color_trace_to_file(capsys, tmp_path):
    dest = tmp_path / "colored.json"
    code, _, _ = run(
        capsys,
        ["color", "--input", graph_file(tmp_path, k23()), "--trace", "--out", str(dest)],
    )
    assert code == 0
    obj = json.loads(dest.read_text())
    assert obj["strategy"] == "ear_induction"
    assert isinstance(obj["trace"], list) and len(obj["trace"]) == 1
    assert obj["trace"][0]["ear"] == [0, 4, 1]


def test_color_dot_output(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, _, _ = run(
        capsys, ["color", "--input", graph_file(tmp_path, cycle(4)), "--dot", str(dot)]
    )
    assert code == 0
    text = dot.read_text()
    assert text.startswith("graph rc2 {")
    assert 'label="0"' in text


def test_color_reads_edgelist_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 2\n2 3\n3 0\n"))
    code, out, _ = run(capsys, ["color"])
    assert code == 0
    assert json.loads(out)["strategy"] == "cycle"


def test_color_sniffs_json_on_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(graph_to_json(cycle(5))))
    code, out, _ = run(capsys, ["color"])
    assert code == 0
    assert json.loads(out)["colors"] == 5


def test_color_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, ["color", "--input", str(tmp_path / "absent.json")])
    assert code == 2 and err.startswith("error:")


def test_color_rejects_non_two_connected_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 2\n"))
    code, _, err = run(capsys, ["color"])
    assert code == 2 and err.startswith("error:")


# The format is read from the text: JSON when its first non-blank character
# is "{", an edge list otherwise.  An edge list whose first token starts with
# "{" is read as JSON, and a leading comment line makes it an edge list.
NAMED_TRIANGLE = "{a} b\nb c\nc {a}\n"


def test_edge_list_starting_with_a_brace_is_read_as_json(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(NAMED_TRIANGLE))
    code, out, err = run(capsys, ["color"])
    assert code == 2 and out == ""
    assert err.startswith("error: bad JSON") and "Traceback" not in err


def test_comment_line_makes_a_brace_edge_list_readable(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("# named\n" + NAMED_TRIANGLE))
    code, out, _ = run(capsys, ["color"])
    assert code == 0
    assert json.loads(out)["strategy"] == "cycle"


@pytest.mark.parametrize(
    "text",
    ['{"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}', "0 1\n1 2\n2 0\n"],
    ids=["json", "edgelist"],
)
def test_byte_order_mark_is_dropped(capsys, tmp_path, text):
    """A UTF-8 byte-order mark would otherwise hide a JSON text's "{" and
    become part of an edge list's first vertex name."""
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    code, out, _ = run(capsys, ["color", "--input", str(path)])
    assert code == 0
    result = json.loads(out)
    assert result["strategy"] == "cycle"
    assert result["edges"][0] == {"color": 0, "u": 0, "v": 1}


@pytest.mark.parametrize(
    "argv",
    [
        ["color"],
        ["verify", "--graph", "g.json", "--coloring", "c.json"],
        ["minimalize"],
        ["decompose"],
        ["oracle"],
    ],
    ids=lambda argv: argv[0],
)
def test_input_format_option_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


# --- verify ------------------------------------------------------------


def colored_graph(capsys, tmp_path, g):
    gpath = graph_file(tmp_path, g)
    cpath = str(tmp_path / "colored.json")
    code, _, _ = run(capsys, ["color", "--input", gpath, "--out", cpath])
    assert code == 0
    return gpath, cpath


def test_verify_pass_human_output(capsys, tmp_path):
    gpath, cpath = colored_graph(capsys, tmp_path, cycle(5))
    code, out, _ = run(capsys, ["verify", "--graph", gpath, "--coloring", cpath])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "A1: pass"
    assert lines[1] == "bound: 5 colors used, 5 allowed: ok"
    assert lines[2] == "overall: pass"


def test_verify_monochromatic_fails_with_exit_1(capsys, tmp_path):
    g = cycle(4)
    gpath = graph_file(tmp_path, g)
    cpath = coloring_file(tmp_path, {e: 0 for e in g.edges})
    code, out, _ = run(capsys, ["verify", "--graph", gpath, "--coloring", cpath])
    assert code == 1
    assert out.splitlines()[0] == "A1: fail"
    assert out.splitlines()[-1] == "overall: fail"


def test_verify_flags_exceeded_bound(capsys, tmp_path):
    # A rainbow coloring of the diamond with one color per edge satisfies
    # the connection property but spends 5 colors where 3 are allowed.
    g = diamond()
    gpath = graph_file(tmp_path, g)
    cpath = coloring_file(tmp_path, {e: i for i, e in enumerate(sorted(g.edges))})
    code, out, _ = run(capsys, ["verify", "--graph", gpath, "--coloring", cpath])
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "A1: pass"
    assert "bound: 5 colors used, 3 allowed: exceeded" in lines
    assert lines[-1] == "overall: fail"


def test_verify_json_payload(capsys, tmp_path):
    gpath, cpath = colored_graph(capsys, tmp_path, c6_with_chord())
    code, out, _ = run(capsys, ["verify", "--graph", gpath, "--coloring", cpath, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["bound_ok"] is True
    assert payload["colors_used"] == 5
    assert payload["colors_allowed"] == 5
    assert payload["report"]["checked_property"] == "A1"


def test_verify_json_counts_support_fallbacks(capsys, tmp_path):
    """``rc2 color`` writes K4's support, its Hamiltonian cycle and chord;
    a pass given one reports how many pairs the whole graph's search served."""
    gpath, cpath = colored_graph(capsys, tmp_path, k4())
    with open(cpath) as fh:
        assert len(json.load(fh)["support"]) == 5
    code, out, _ = run(capsys, ["verify", "--graph", gpath, "--coloring", cpath, "--json"])
    assert code == 0
    assert json.loads(out)["report"]["witnesses"] == [["pairs_checked", 6], ["support_fallbacks", 0]]


@pytest.mark.parametrize(
    "entry, reason",
    [
        ([0, 2], "support edge (0, 2) is not an edge of the graph"),
        ([1, 1], "support edge (1, 1) is not an edge of the graph"),
        ([True, 1], "bad support entry [True, 1]"),
        ([0, "1"], "bad support entry [0, '1']"),
        ([0, 1.5], "bad support entry [0, 1.5]"),
        ([0, 1, 2], "bad support entry [0, 1, 2]"),
        (1, "bad support entry 1"),
    ],
    ids=["non-edge", "self-loop", "bool", "string", "float", "triple", "not-a-pair"],
)
def test_verify_refuses_a_bad_support_entry(capsys, tmp_path, entry, reason):
    g = cycle(4)
    entries = [{"u": u, "v": v, "color": i} for i, (u, v) in enumerate(sorted(g.edges))]
    cpath = tmp_path / "col.json"
    cpath.write_text(json.dumps({"edges": entries, "support": [[0, 1], entry]}))
    code, out, err = run(capsys, ["verify", "--graph", graph_file(tmp_path, g), "--coloring", str(cpath)])
    assert (code, out, err) == (2, "", f"error: {reason}\n")


def test_verify_guard_skip_exits_2(capsys, tmp_path):
    gpath, cpath = colored_graph(capsys, tmp_path, cycle(4))
    code, out, _ = run(
        capsys,
        ["verify", "--graph", gpath, "--coloring", cpath, "--max-vertices", "3"],
    )
    assert code == 2
    assert out.splitlines()[0].startswith("A1: skipped (")
    assert out.splitlines()[-1] == "overall: skipped"


def test_verify_negative_guard_exits_2(capsys, tmp_path):
    gpath, cpath = colored_graph(capsys, tmp_path, cycle(4))
    code, out, err = run(
        capsys,
        ["verify", "--graph", gpath, "--coloring", cpath, "--max-vertices", "-1"],
    )
    assert code == 2 and out == ""
    assert err == "error: size guard limits must be at least 0, got (-1, 28)\n"


def test_verify_default_guard_covers_the_corpus(capsys, tmp_path):
    # K_{5,5}, the corpus's densest member, has 25 edges: within the default
    # guard of 12 vertices and 28 edges, so no guard flags are needed.
    g = complete_bipartite_graph(5, 5)
    assert (g.vertex_count, g.edge_count) == (10, 25)
    gpath, cpath = colored_graph(capsys, tmp_path, g)
    code, out, _ = run(capsys, ["verify", "--graph", gpath, "--coloring", cpath])
    assert code == 0
    assert out.splitlines()[0] == "A1: pass"
    assert out.splitlines()[-1] == "overall: pass"


def test_verify_graph_with_isolated_vertex_exits_2(capsys, tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text('{"n": 4, "edges": [[0, 1], [1, 2], [0, 2]]}')
    cpath = coloring_file(tmp_path, {(0, 1): 0, (1, 2): 1, (0, 2): 2})
    code, out, err = run(capsys, ["verify", "--graph", str(gpath), "--coloring", cpath])
    assert code == 2 and out == "" and "isolated" in err


@pytest.mark.parametrize("text", ['{"n": 0, "edges": []}', "# no edges\n"], ids=["json", "edgelist"])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["human", "json-report"])
def test_verify_empty_graph_exits_2(capsys, tmp_path, text, flags):
    gpath = tmp_path / "g.in"
    gpath.write_text(text)
    cpath = coloring_file(tmp_path, {})
    code, out, err = run(capsys, ["verify", "--graph", str(gpath), "--coloring", cpath, *flags])
    assert code == 2 and out == ""
    assert err == "error: the graph has no vertices, so there is nothing to verify\n"


def test_verify_bad_coloring_json_exits_2(capsys, tmp_path):
    gpath = graph_file(tmp_path, cycle(4))
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["verify", "--graph", gpath, "--coloring", str(bad)])
    assert code == 2 and "bad coloring JSON" in err


@pytest.mark.parametrize("key", ["u", "v", "color"])
def test_verify_rejects_bool_coloring_fields(capsys, tmp_path, key):
    """JSON true is a bool, and bool is an int: read as 1 it would turn
    {"u": true, "v": 0} into the edge (0, 1)."""
    g = cycle(4)
    entries = [{"u": u, "v": v, "color": i} for i, (u, v) in enumerate(sorted(g.edges))]
    entries[0][key] = True if key != "color" else False
    cpath = tmp_path / "col.json"
    cpath.write_text(json.dumps({"edges": entries}))
    code, out, err = run(capsys, ["verify", "--graph", graph_file(tmp_path, g), "--coloring", str(cpath)])
    assert code == 2 and out == "" and "bad colored-edge entry" in err


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"n": 3, "edges": ' + "[" * 100_000 + "]" * 100_000 + "}", "bad JSON"),
        ('{"n": ' + "9" * 5000 + ', "edges": []}', "bad JSON"),
        (b"\xff\xfe0 1\n", "not text"),
        ('{"n": 3, "edges": [[0, 1], [1, 2], [2, 5]]}', "edge (2, 5) out of range for n=3"),
        ('{"n": 3, "edges": [[0, 1], [1, 2], [-1, 2]]}', "edge (-1, 2) out of range for n=3"),
    ],
    ids=["deep-nesting", "5000-digit-int", "not-utf8", "id-past-n", "negative-id"],
)
def test_unreadable_graph_input_exits_2(capsys, tmp_path, text, reason):
    path = tmp_path / "g.in"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    code, _, err = run(capsys, ["color", "--input", str(path)])
    assert code == 2 and err.startswith("error:") and reason in err


def test_deeply_nested_coloring_json_exits_2(capsys, tmp_path):
    cpath = tmp_path / "col.json"
    cpath.write_text('{"edges": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, _, err = run(capsys, ["verify", "--graph", graph_file(tmp_path, cycle(4)), "--coloring", str(cpath)])
    assert code == 2 and "bad coloring JSON" in err


@pytest.mark.parametrize("text", ["[]", "{}", '{"edges": 3}'], ids=["list", "no-edges", "edges-not-a-list"])
def test_coloring_without_an_edges_list_exits_2(capsys, tmp_path, text):
    cpath = tmp_path / "col.json"
    cpath.write_text(text)
    code, out, err = run(capsys, ["verify", "--graph", graph_file(tmp_path, cycle(4)), "--coloring", str(cpath)])
    assert code == 2 and out == ""
    assert err == 'error: coloring JSON needs an "edges" list\n'


def test_directory_as_input_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, ["color", "--input", str(tmp_path)])
    assert code == 2 and err.startswith("error:")


def test_verify_accepts_edgelist_graphs(capsys, tmp_path):
    g = cycle(4)
    gpath = tmp_path / "g.edges"
    gpath.write_text("0 1\n1 2\n2 3\n0 3\n")
    cpath = coloring_file(tmp_path, {e: i for i, e in enumerate(sorted(g.edges))})
    code, out, _ = run(
        capsys,
        ["verify", "--graph", str(gpath), "--coloring", cpath],
    )
    assert code == 0 and out.splitlines()[-1] == "overall: pass"


# --- minimalize / decompose --------------------------------------------


def test_minimalize_strips_k4_to_a_cycle(capsys, tmp_path):
    code, out, _ = run(capsys, ["minimalize", "--input", graph_file(tmp_path, k4())])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 4 and len(obj["edges"]) == 4


def test_decompose_reports_base_and_ears(capsys, tmp_path):
    code, out, _ = run(capsys, ["decompose", "--input", graph_file(tmp_path, k23())])
    assert code == 0
    obj = json.loads(out)
    assert obj["base"] == [0, 2, 1, 3]
    assert obj["ears"] == [[0, 4, 1]]


def test_decompose_refuses_a_plain_cycle(capsys, tmp_path):
    code, _, err = run(capsys, ["decompose", "--input", graph_file(tmp_path, cycle(5))])
    assert code == 2 and err.startswith("error:")


# --- oracle ------------------------------------------------------------


def test_oracle_reports_exact_minimum(capsys, tmp_path):
    code, out, _ = run(capsys, ["oracle", "--input", graph_file(tmp_path, k23())])
    assert code == 0
    assert json.loads(out) == {"rc2": 3}


def test_oracle_budget_flag_reports_lower_bound(capsys, tmp_path):
    code, out, _ = run(
        capsys, ["oracle", "--input", graph_file(tmp_path, k23()), "--budget", "3"]
    )
    assert code == 0
    assert json.loads(out) == {"budget_exceeded": True, "rc2_lower_bound": 2}


def test_oracle_negative_budget_exits_2(capsys, tmp_path):
    code, out, err = run(
        capsys, ["oracle", "--input", graph_file(tmp_path, wheel(6)), "--budget", "-5"]
    )
    assert code == 2 and out == ""
    assert err == "error: budget must be at least 0, got -5\n"


def test_oracle_zero_budget_is_legal(capsys, tmp_path):
    code, out, _ = run(
        capsys, ["oracle", "--input", graph_file(tmp_path, k23()), "--budget", "0"]
    )
    assert code == 0
    assert json.loads(out) == {"budget_exceeded": True, "rc2_lower_bound": 1}


# --- census / corpus ---------------------------------------------------


def test_census_n3_csv(capsys):
    code, out, _ = run(capsys, ["census", "--n", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph_id,n,m,edges,rc2_exact,rc2_constructive,is_cycle"
    assert lines[1] == "7,3,3,0-1;0-2;1-2,3,3,true"
    assert len(lines) == 2


def test_census_rejects_out_of_range_n(capsys):
    code, _, err = run(capsys, ["census", "--n", "7"])
    assert code == 2 and err == "error: census covers 3 to 6 vertices\n"


def test_corpus_listing(capsys):
    code, out, _ = run(capsys, ["corpus"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == CORPUS_SIZE
    assert lines[0] == "theta(a=2,b=2,c=2)\t5\t6"
    assert all(len(line.split("\t")) == 3 for line in lines)


# --- --out -------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "cycle", "--n", "5"],
        ["color", "--input", "{k23}"],
        ["minimalize", "--input", "{k4}"],
        ["decompose", "--input", "{k23}"],
        ["oracle", "--input", "{k23}"],
        ["census", "--n", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_gets_what_stdout_would(capsys, tmp_path, argv):
    graphs = {
        "k4": graph_file(tmp_path, k4(), "k4.json"),
        "k23": graph_file(tmp_path, k23(), "k23.json"),
    }
    argv = [arg.format(**graphs) for arg in argv]
    code, printed, _ = run(capsys, argv)
    assert code == 0 and printed
    dest = tmp_path / "out.txt"
    code, out, _ = run(capsys, argv + ["--out", str(dest)])
    assert code == 0 and out == ""
    assert dest.read_text() == printed


# --- one parser across calls ------------------------------------------
# ``main`` builds its parser on the first call and reuses it; each case
# below makes one call after another in this process, and the later call
# must see nothing of the earlier one.


def test_parser_is_built_once_across_calls(capsys, monkeypatch):
    assert main(["gen", "cycle", "--n", "3"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["gen", "cycle", "--n", "4"], ["corpus"], ["census", "--n", "3"]) * 3:
        assert main(argv) == 0
    capsys.readouterr()
    assert built == []
    assert cli._build_parser() is cli._build_parser()


def test_guard_skip_does_not_stick(capsys, tmp_path):
    gpath, cpath = colored_graph(capsys, tmp_path, cycle(4))
    argv = ["verify", "--graph", gpath, "--coloring", cpath]
    code, out, _ = run(capsys, argv + ["--max-vertices", "3"])
    assert code == 2 and out.splitlines()[-1] == "overall: skipped"
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.splitlines()[-1] == "overall: pass"


def test_trace_and_out_do_not_stick(capsys, tmp_path):
    gpath = graph_file(tmp_path, k23())
    dest = tmp_path / "traced.json"
    code, out, _ = run(capsys, ["color", "--input", gpath, "--trace", "--out", str(dest)])
    assert code == 0 and out == "" and "trace" in json.loads(dest.read_text())
    code, out, _ = run(capsys, ["color", "--input", gpath])
    assert code == 0 and "trace" not in json.loads(out)


def test_gen_parameters_do_not_stick(capsys):
    code, _, _ = run(capsys, ["gen", "random", "--n", "8", "--ears", "2", "--seed", "3"])
    assert code == 0
    code, out, err = run(capsys, ["gen", "wheel", "--n", "6"])
    assert code == 0 and err == ""
    assert json.loads(out)["n"] == 6


def test_good_call_after_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--budget", "many"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    code, out, err = run(capsys, ["gen", "cycle", "--n", "5"])
    assert code == 0 and err == "" and json.loads(out)["n"] == 5


def test_help_is_the_same_every_call(capsys, tmp_path):
    """A guard given to one call shows in no later help text."""
    gpath, cpath = colored_graph(capsys, tmp_path, cycle(4))
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
        run(capsys, ["verify", "--graph", gpath, "--coloring", cpath, "--max-vertices", "3"])
    assert helps[0] == helps[1]
    assert helps[0].startswith("usage: rc2 verify ") and "(default 12)" in helps[0]


# --- installed entry point ---------------------------------------------


def run_subprocess(argv, stdin_text=None):
    return subprocess.run(
        [sys.executable, "-m", "rc2", *argv],
        input=stdin_text,
        capture_output=True,
        text=True,
    )


def test_entry_point_colors_and_verifies(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(graph_to_json(c6_with_chord()) + "\n")
    colored = run_subprocess(["color", "--input", str(gpath)])
    assert colored.returncode == 0
    cpath = tmp_path / "col.json"
    cpath.write_text(colored.stdout)
    verified = run_subprocess(["verify", "--graph", str(gpath), "--coloring", str(cpath)])
    assert verified.returncode == 0
    assert verified.stdout.splitlines()[-1] == "overall: pass"


def test_entry_point_output_is_byte_deterministic(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(graph_to_json(k23()) + "\n")
    first = run_subprocess(["color", "--input", str(gpath)])
    second = run_subprocess(["color", "--input", str(gpath)])
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_verify_long_cycle_fails_without_a_traceback(tmp_path):
    """A failing verification on a 1500-cycle exits 1 with a report; the
    path search is not bounded by the interpreter's recursion limit."""
    n = 1500
    g = cycle(n)
    gpath = graph_file(tmp_path, g)
    # (0, 1) and (1, 2) share color 0; every other edge has its own color
    ring = [(0, 1)] + [(i, i + 1) for i in range(1, n - 1)] + [(0, n - 1)]
    cpath = coloring_file(tmp_path, {e: max(i - 1, 0) for i, e in enumerate(ring)})
    done = run_subprocess(
        ["verify", "--graph", gpath, "--coloring", cpath, "--max-vertices", "5000", "--max-edges", "5000"]
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr + done.stdout
    lines = done.stdout.splitlines()
    assert lines[0] == "A1: fail"
    assert lines[1].startswith("  - A1 (0, 2):")
