"""Fuzzing ``rc2 color``, ``verify``, ``minimalize`` and ``decompose`` with
malformed and oversized input, coloring supports among it.  ``oracle`` and
``census`` are left out: their brute force can run for a very long time on a
fuzzed graph.

The exit-code contract: 0 success, 1 only a verification that ran and
failed, 2 bad input or a refusal, and never a traceback.  ``main`` runs in
process, so an exception that escapes it fails the test with its traceback.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from rc2.cli import main
from rc2.coloring import color_rc2
from rc2.generators import cycle_graph, random_two_connected
from rc2.graphs import edge_list_text, graph_to_json

# JSON values of every type, including sizes no graph has.
values = st.one_of(
    st.integers(-2, 12),
    st.integers(-(10**40), 10**40),
    st.booleans(),
    st.none(),
    st.floats(),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
)

nested = st.integers(1, 20_000).map(lambda k: "[" * k + "]" * k)

malformed_graphs = st.one_of(
    st.fixed_dictionaries(
        {"n": values, "edges": st.one_of(values, st.lists(st.one_of(values, st.lists(values, max_size=3)), max_size=8))}
    ).map(json.dumps),
    st.lists(values, max_size=4).map(json.dumps),
    nested.map(lambda s: '{"n": 3, "edges": ' + s + "}"),
    st.integers(4000, 4600).map(lambda k: '{"n": ' + "9" * k + ', "edges": []}'),
    st.lists(
        st.lists(
            st.one_of(
                st.integers(0, 12).map(str),
                st.integers(0, 10**40).map(str),
                st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4),
            ),
            max_size=3,
        ).map(" ".join),
        max_size=10,
    ).map("\n".join),
    st.text(max_size=80),
)

small_graphs = st.builds(random_two_connected, st.integers(5, 11), st.integers(1, 2), st.integers(0, 10**6))


def supports_of(edges):
    """``support`` values: the graph's own edges, mixed with non-edges,
    self-loops and entries of the wrong shape or type, or no list at all."""
    entry = st.one_of(
        st.sampled_from([list(e) for e in edges]),
        st.lists(st.integers(-1, 12), min_size=2, max_size=2),
        st.lists(values, max_size=3),
        values,
    )
    return st.one_of(st.lists(entry, max_size=8), values)


@st.composite
def colorings_of(draw, edges):
    """Colorings of the given edges, some then damaged, some with a support."""
    k = draw(st.integers(1, len(edges) + 1))
    rng = draw(st.randoms(use_true_random=False))
    entries = [{"u": u, "v": v, "color": rng.randrange(k)} for u, v in edges]
    damage = draw(st.sampled_from(["drop", "duplicate", "field"])) if draw(st.booleans()) else None
    if entries and damage == "drop":
        entries.pop(draw(st.integers(0, len(entries) - 1)))
    elif entries and damage == "duplicate":
        entries.append(dict(entries[0]))
    elif entries and damage == "field":
        entries[0][draw(st.sampled_from(["u", "v", "color"]))] = draw(values)
    obj = {"edges": entries}
    if draw(st.booleans()):
        obj["support"] = draw(supports_of(edges))
    return json.dumps(obj)


malformed_colorings = st.one_of(
    st.fixed_dictionaries(
        {"edges": st.one_of(values, st.lists(st.dictionaries(st.sampled_from(["u", "v", "color"]), values), max_size=6))},
        optional={"support": supports_of([(0, 1)])},
    ).map(json.dumps),
    nested.map(lambda s: '{"edges": ' + s + "}"),
    st.text(max_size=40),
)


@st.composite
def cli_cases(draw):
    source = draw(st.sampled_from(["small", "small", "long cycle", "malformed"]))
    if source == "malformed":
        graph, coloring = draw(malformed_graphs), draw(malformed_colorings)
    else:
        g = draw(small_graphs if source == "small" else st.sampled_from([600, 1500]).map(cycle_graph))
        graph = draw(st.sampled_from([graph_to_json(g), edge_list_text(g)]))
        if draw(st.integers(0, 3)) == 0:
            graph = draw(st.text(min_size=1, max_size=3)) + graph
        kind = draw(st.sampled_from(["constructed", "random", "malformed"]))
        if kind == "constructed":
            obj = color_rc2(g).to_json_obj()
            if draw(st.booleans()):
                obj["support"] = draw(supports_of(sorted(g.edges)))
            coloring = json.dumps(obj)
        else:
            coloring = draw(colorings_of(sorted(g.edges)) if kind == "random" else malformed_colorings)
    graph = graph.encode()
    if draw(st.integers(0, 7)) == 0:
        graph = draw(st.binary(min_size=1, max_size=4)) + graph
    command = draw(st.sampled_from(["color", "verify", "minimalize", "decompose"]))
    if command == "verify":
        argv = ["verify", "--graph", "{graph}", "--coloring", "{coloring}"]
        argv += ["--json"] if draw(st.booleans()) else []
        argv += ["--max-vertices", str(draw(st.integers(-1, 14)))] if draw(st.booleans()) else []
    else:
        argv = [command, "--input", "{graph}", "--out", "{out}"]
        argv += ["--trace"] if command == "color" and draw(st.booleans()) else []
    return graph, coloring.encode(), argv


@given(cli_cases())
@settings(max_examples=150, deadline=None)
def test_cli_keeps_the_exit_code_contract(case):
    graph, coloring, argv = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"graph": Path(tmp) / "graph", "coloring": Path(tmp) / "coloring", "out": Path(tmp) / "out"}
        paths["graph"].write_bytes(graph)
        paths["coloring"].write_bytes(coloring)
        argv = [arg.format(**paths) for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    printed = out.getvalue() + err.getvalue()
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), printed
    assert "Traceback" not in printed
    if code == 1:
        assert argv[0] == "verify"
        assert "overall: fail" in printed or '"passed":false' in printed
