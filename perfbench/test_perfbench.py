"""Tests of the benchmark itself: counters tied to results, seeded inputs,
known-answer checks and the result contract.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from rc2 import cli  # noqa: E402
from rc2.coloring import color_rc2  # noqa: E402
from rc2.generators import (  # noqa: E402
    complete_bipartite_graph,
    complete_graph,
    random_two_connected,
    wheel_graph,
)
from rc2.graphs import canonical_json, graph_to_json  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDED = ("color-sparse", "color-dense", "verify-mid")


@pytest.fixture
def traced():
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    yield tracer
    uninstall()


def _files(tmp_path, g, coloring_obj):
    graph = tmp_path / "g.json"
    graph.write_text(graph_to_json(g))
    coloring = tmp_path / "c.json"
    coloring.write_text(canonical_json(coloring_obj))
    return str(graph), str(coloring)


def _verify(graph, coloring, g) -> int:
    return cli.main([
        "verify", "--graph", graph, "--coloring", coloring, "--json",
        "--max-vertices", str(g.vertex_count), "--max-edges", str(g.edge_count),
    ])


@pytest.mark.parametrize(
    "g", [complete_graph(7), wheel_graph(10), random_two_connected(16, 5, 3)], ids=["k7", "w10", "rand16"]
)
def test_pass_verdict_checks_every_pair(tmp_path, traced, g, capsys):
    graph, coloring = _files(tmp_path, g, color_rc2(g).to_json_obj())
    assert _verify(graph, coloring, g) == 0
    n = g.vertex_count
    assert tracing.layer_metrics(traced, 1)["verify.pairs_checked"][0] == n * (n - 1) // 2
    assert traced.calls["verify.a1"] == 1


@pytest.mark.parametrize("seed", range(6))
def test_broken_chain_fails_before_the_last_pair(tmp_path, traced, seed, capsys):
    g = random_two_connected(20, 6, seed)
    chain = random.Random(seed).choice(workloads._degree_two_chains(g))
    broken = workloads._break_chain(g, color_rc2(g).to_json_obj(), chain)
    graph, coloring = _files(tmp_path, g, broken)
    assert _verify(graph, coloring, g) == 1
    assert 0 < traced.counters["verify.pairs_checked"] <= g.vertex_count * (g.vertex_count - 1) // 2


@pytest.mark.parametrize("k, at", workloads.FAIL_WHEELS)
def test_fail_wheels_fail_at_the_ear_after_half_the_pairs(tmp_path, traced, k, at, capsys):
    g = workloads._wheel_with_ear(k, at)
    assert workloads._degree_two_chains(g) == [[at, at + 1]]
    broken = workloads._break_chain(g, color_rc2(g).to_json_obj(), [at, at + 1])
    graph, coloring = _files(tmp_path, g, broken)
    assert _verify(graph, coloring, g) == 1
    assert json.loads(capsys.readouterr().out)["report"]["violations"][0]["subject"] == [at, at + 1]
    n = g.vertex_count
    assert traced.counters["verify.pairs_checked"] > n * (n - 1) // 4


def _color_cases():
    cases = [("k2-12", complete_bipartite_graph(2, 12)), ("k9", complete_graph(9))]
    cases += [(f"rand{s}", random_two_connected(40, 12, s)) for s in range(8)]
    return cases


def test_fan_calls_equal_ears_plus_repairs(tmp_path, traced, capsys):
    def fans_and_ears():
        c = traced.counters
        return traced.calls["menger"], c["ears.count"] + c["ears.repair_exchanges"]

    for name, g in _color_cases():
        fans_before, ears_before = fans_and_ears()
        path = tmp_path / f"{name}.json"
        path.write_text(graph_to_json(g))
        assert cli.main(["color", "--input", str(path), "--out", str(tmp_path / "out.json")]) == 0
        fans, ears = fans_and_ears()
        assert fans - fans_before == ears - ears_before, name
    assert traced.calls["ears"] > 0


def test_minimalize_counters_match_the_output(tmp_path, traced, capsys):
    for name, g in _color_cases():
        before_in = traced.counters["minimalize.edges_in"]
        before_removed = traced.counters["minimalize.edges_removed"]
        path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.min.json"
        path.write_text(graph_to_json(g))
        assert cli.main(["minimalize", "--input", str(path), "--out", str(out)]) == 0
        kept = (traced.counters["minimalize.edges_in"] - before_in) - (
            traced.counters["minimalize.edges_removed"] - before_removed
        )
        assert kept == len(json.loads(out.read_text())["edges"]), name
    assert traced.counters["minimalize.connectivity_tests"] > 0


def test_uninstall_restores_the_originals():
    from rc2.graphs import Graph

    main, adjacency = cli.main, Graph.adjacency
    uninstall = tracing.install(tracing.Tracer())
    assert cli.main is not main
    uninstall()
    assert cli.main is main
    assert Graph.adjacency is adjacency


@pytest.mark.parametrize("name", SEEDED)
def test_seed_fixes_the_inputs(tmp_path, name):
    first = workloads.build(name, 7, tmp_path / "a").digest
    again = workloads.build(name, 7, tmp_path / "b").digest
    other = workloads.build(name, 8, tmp_path / "c").digest
    assert first == again
    assert first != other


def test_small_exact_has_no_random_members(tmp_path):
    assert (workloads.build("small-exact", 1, tmp_path / "a").digest
            == workloads.build("small-exact", 2, tmp_path / "b").digest)


def test_coverage_guard_names_the_empty_layer():
    tracer = tracing.Tracer()
    for layer in tracing.REQUIRED_LAYERS["color-sparse"]:
        if layer != "menger":
            tracer.calls[layer] = 1
    with pytest.raises(tracing.LayerCoverageError, match="menger"):
        tracing.check_coverage(tracer, "color-sparse")


def test_checks_reject_wrong_answers(tmp_path, capsys):
    wl = workloads.build("color-dense", 1, tmp_path)
    job = wl.jobs[0]
    outcome = job.run()
    assert job.failure(outcome) is None
    assert "unreadable output" in job.failure(outcome)  # the check consumed the file
    outcome = job.run()
    out = tmp_path / "out" / f"{job.name.split()[1]}.color.json"
    obj = json.loads(out.read_text())
    obj["edges"] = obj["edges"][1:]
    out.write_text(json.dumps(obj))
    assert "edge set" in job.failure(outcome)
    crashed = workloads.Outcome(0.0, error="Traceback ...\nValueError: boom\n")
    assert job.failure(crashed) == "ValueError: boom"
    assert workloads._oracle_check(3)(workloads.Outcome(0.0, 0, '{"rc2": 2}')) is not None
    assert workloads._verify_check(1, 5)(workloads.Outcome(0.0, 0, "{}")) == "exit 0, expected 1"


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_carries_every_declared_metric(trace, key):
    proc = _run(ROOT, "--workload", "verify-mid", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 15
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "small-exact", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
