"""The benchmark's workloads: inputs made from a seed, job lists, known answers.

A job is one user-level operation: a call of ``rc2.cli.main(argv)`` on files
in the run's work directory or, where the CLI has no command (the induction
replay), a call of the public library function.  Named families are fixed;
random members come from the seed.  Every job carries a check against an
answer known independently of the code under test; each check names its
source.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Replay guard: every corpus graph fits (the acceptance test uses the same).
CORPUS_GUARD = (12, 28)

# verify-mid's weighted fail instances: (k, at) for _wheel_with_ear.
FAIL_WHEELS = ((29, 11), (30, 11), (31, 11))


@dataclass
class Outcome:
    seconds: float
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    error: str | None = None


@dataclass
class Job:
    name: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], str | None]  # None when the known answer matched
    verdict: str | None = None  # verify jobs: the expected "pass" or "fail"

    def failure(self, outcome: Outcome) -> str | None:
        """Why this outcome counts as a failed job, or None."""
        if outcome.error is not None:
            return outcome.error.strip().splitlines()[-1]
        if "Traceback" in outcome.stderr:
            return "traceback on stderr"
        try:
            return self.check(outcome)
        except Exception as exc:  # a malformed output must count, not abort the run
            return f"unreadable output: {exc!r}"


@dataclass
class Workload:
    jobs: list[Job]
    digest: str


def _cli_job(cli, argv: list[str]) -> Callable[[], Outcome]:
    """Run ``rc2 <argv>`` in-process, capturing its streams.

    ``cli.main`` is looked up on every call so that the traced run's
    wrapper is the one called.
    """

    def run() -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        error = code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            end = time.perf_counter()
            error = "".join(traceback.format_exception(exc))
        else:
            end = time.perf_counter()
        return Outcome(end - start, code, out.getvalue(), err.getvalue(), error=error)

    return run


def _library_job(call: Callable[[], object]) -> Callable[[], Outcome]:
    def run() -> Outcome:
        start = time.perf_counter()
        try:
            value = call()
        except Exception as exc:
            end = time.perf_counter()
            return Outcome(end - start, error="".join(traceback.format_exception(exc)))
        return Outcome(time.perf_counter() - start, value=value)

    return run


# ---------------------------------------------------------------------------
# known answers


def _consume(path: Path) -> str:
    """An output file's text; the file is removed so that the next pass
    cannot pass on a stale copy."""
    text = path.read_text()
    path.unlink()
    return text


def _color_check(out_path: Path, n: int, edges: set, traced: bool):
    # Paper's theorem: a cycle needs n colors, any other 2-connected graph
    # at most n - 1.  A 2-connected graph is a cycle exactly when m == n.
    bound = n if len(edges) == n else n - 1

    def check(o: Outcome) -> str | None:
        if o.code != 0:
            return f"exit {o.code}, expected 0"
        obj = json.loads(_consume(out_path))
        got = [(e["u"], e["v"]) for e in obj["edges"]]
        if len(got) != len(edges) or set(got) != edges:
            return "colored edge set differs from the input's"
        k = obj["colors"]
        if {e["color"] for e in obj["edges"]} != set(range(k)):
            return f"colors are not exactly 0..{k - 1}"
        if k > bound:
            return f"{k} colors, bound is {bound}"
        if traced and not obj.get("trace"):
            return "--trace output has no trace"
        return None

    return check


def _verify_check(expected_exit: int, n: int):
    # Pass instances are rc2's own colorings: exit 0 by the paper's theorem.
    # Fail instances are broken as described in _break_chain: exit 1.
    def check(o: Outcome) -> str | None:
        if o.code != expected_exit:
            return f"exit {o.code}, expected {expected_exit}"
        obj = json.loads(o.stdout)
        if obj["report"]["skipped"]:
            return "size guard skipped the check"
        if obj["passed"] != (expected_exit == 0):
            return f"passed={obj['passed']} with exit {o.code}"
        if expected_exit == 0:
            pairs = dict(map(tuple, obj["report"]["witnesses"])).get("pairs_checked")
            if pairs != n * (n - 1) // 2:
                return f"pass verdict checked {pairs} pairs, not {n * (n - 1) // 2}"
        return None

    return check


def _oracle_check(expected: int):
    def check(o: Outcome) -> str | None:
        if o.code != 0:
            return f"exit {o.code}, expected 0"
        got = json.loads(o.stdout).get("rc2")
        return None if got == expected else f"rc2 = {got}, expected {expected}"

    return check


def _census_check(out_path: Path):
    def check(o: Outcome) -> str | None:
        if o.code != 0:
            return f"exit {o.code}, expected 0"
        lines = _consume(out_path).splitlines()[1:]
        # A013922: 238 labeled 2-connected graphs on 5 vertices.
        if len(lines) != 238:
            return f"{len(lines)} census rows, expected 238"
        for line in lines:
            cols = line.split(",")
            exact, built, is_cycle = int(cols[4]), int(cols[5]), cols[6] == "true"
            if is_cycle and exact != 5:  # paper's theorem: C_n needs n colors
                return f"cycle row {cols[0]} has exact {exact}, expected 5"
            if exact > built:  # the minimum never exceeds a construction
                return f"row {cols[0]}: exact {exact} > constructive {built}"
        return None

    return check


def _replay_check(o: Outcome) -> str | None:
    # Every level of a traced construction satisfies A1-A5, B1, B2 (paper).
    report = o.value
    if report.skipped:
        return "size guard skipped the replay"
    return None if report.passed else f"replay failed: {report.violations[0].reason}"


# ---------------------------------------------------------------------------
# inputs


class _Inputs:
    """Writes input files under ``work/in`` and hashes them for the digest."""

    def __init__(self, work: Path):
        self.dir = work / "in"
        self.out = work / "out"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)
        self.hash = hashlib.sha256()

    def write_graph(self, name: str, g) -> str:
        from rc2.graphs import graph_to_json

        return self.write(f"{name}.json", graph_to_json(g))

    def write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text)
        self.note(name, text)
        return str(path)

    def note(self, name: str, text: str) -> None:
        self.hash.update(f"{name}\0{len(text)}\0".encode())
        self.hash.update(text.encode())


def _add_color_job(jobs, cli, inputs: _Inputs, name: str, g, traced: bool = False) -> str:
    path = inputs.write_graph(name, g)
    out = inputs.out / f"{name}.color.json"
    argv = ["color", "--input", path, "--out", str(out)] + (["--trace"] if traced else [])
    jobs.append(
        Job(
            f"color {name}",
            _cli_job(cli, argv),
            _color_check(out, g.vertex_count, set(g.edges), traced),
        )
    )
    return str(out)


def _add_verify_job(jobs, cli, graph_path: str, coloring_path: str, name: str, g,
                    verdict: str, guard: tuple[int, int]) -> None:
    argv = [
        "verify", "--graph", graph_path, "--coloring", coloring_path, "--json",
        "--max-vertices", str(guard[0]), "--max-edges", str(guard[1]),
    ]
    expected = 0 if verdict == "pass" else 1
    jobs.append(
        Job(f"verify {name}", _cli_job(cli, argv),
            _verify_check(expected, g.vertex_count), verdict)
    )


def _hamiltonian_union(n: int, cycles: int, rng: random.Random):
    """Union of random Hamiltonian cycles: 2-connected by construction."""
    from rc2.graphs import Graph

    edges = set()
    for _ in range(cycles):
        order = list(range(n))
        rng.shuffle(order)
        edges |= {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
    return Graph.from_edges(n, edges)


def _degree_two_chains(g) -> list[list[int]]:
    """Maximal paths x1..xk (k >= 2) of degree-2 vertices, in id order."""
    adj: dict[int, list[int]] = {v: [] for v in range(g.vertex_count)}
    for u, v in sorted(g.edges):
        adj[u].append(v)
        adj[v].append(u)
    deg2 = {v for v, nb in adj.items() if len(nb) == 2}
    chains, seen = [], set()
    for v in sorted(deg2):
        if v in seen:
            continue
        seen.add(v)
        sides = []
        for start in adj[v]:
            side, prev, cur = [], v, start
            while cur in deg2 and cur not in seen:
                seen.add(cur)
                side.append(cur)
                prev, cur = cur, next(w for w in adj[cur] if w != prev)
            sides.append(side)
        chain = sides[0][::-1] + [v] + sides[1]
        if len(chain) >= 2:
            chains.append(chain)
    return chains


def _break_chain(g, coloring_obj: dict, chain: list[int]) -> dict:
    """A coloring that must fail verification.

    ``chain`` is a degree-2 chain a-x1-...-xk-b (k >= 2); give xk-b the color
    of a-x1.  The only two internally disjoint x1-xk paths are the chain and
    the outer path x1-a-...-b-xk; the outer path now repeats a color, so
    the pair (x1, xk) has no rainbow pair and the verdict is "fail".
    """
    x1, xk = chain[0], chain[-1]
    a = next(w for e in g.edges if x1 in e for w in e if w not in (x1, chain[1]))
    b = next(w for e in g.edges if xk in e for w in e if w not in (xk, chain[-2]))
    color = {(e["u"], e["v"]): e["color"] for e in coloring_obj["edges"]}
    color[tuple(sorted((xk, b)))] = color[tuple(sorted((a, x1)))]
    return {"edges": [{"u": u, "v": v, "color": c} for (u, v), c in sorted(color.items())]}


def _wheel_with_ear(k: int, at: int):
    """W_k plus one ear a-x-y-b between opposite rim vertices.

    The ear's inner vertices get ids ``at`` and ``at + 1``; the wheel's
    vertices take the other ids in order.  The verifier checks pairs in id
    order, so breaking the chain x-y fails at the pair (x, y), after the
    pairs of every lower id.
    """
    from rc2.generators import wheel_graph
    from rc2.graphs import Graph

    n = k + 2
    x, y = at, at + 1
    ids = [v for v in range(n) if v not in (x, y)]
    edges = {tuple(sorted((ids[u], ids[v]))) for u, v in wheel_graph(k).edges}
    a, b = ids[1], ids[1 + (k - 1) // 2]
    edges |= {tuple(sorted((a, x))), (x, y), tuple(sorted((y, b)))}
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# workloads


def _color_sparse(cli, rng: random.Random, inputs: _Inputs) -> list[Job]:
    """Sparse graphs, where the ear and fan layers do real work.

    Twelve random ear-glued graphs (sizes fixed per slot, graphs from the
    seed) and five many-ear K_{2,k}, colored with ``--trace`` so the
    O(ears * m) trace shows in peak RSS.  Three of the K_{2,k} are close in
    size, so the p90 job latency falls inside a cluster of similar jobs.
    """
    from rc2.generators import complete_bipartite_graph, random_two_connected

    jobs: list[Job] = []
    for i in range(12):
        n = 100 + 5 * i
        g = random_two_connected(n, n // 3, rng.randrange(2**31))
        _add_color_job(jobs, cli, inputs, f"rand{i}-n{n}", g)
    for k in (80, 105, 110, 115, 140):
        _add_color_job(jobs, cli, inputs, f"k2-{k}", complete_bipartite_graph(2, k), traced=True)
    return jobs


def _color_dense(cli, rng: random.Random, inputs: _Inputs) -> list[Job]:
    """Dense graphs, where the minimalizer removes most edges."""
    from rc2.generators import complete_graph, wheel_graph

    jobs: list[Job] = []
    for n in (30, 36):
        _add_color_job(jobs, cli, inputs, f"k{n}", complete_graph(n))
    for n in (100, 130, 160):
        _add_color_job(jobs, cli, inputs, f"w{n}", wheel_graph(n))
    for cycles in (3, 4):
        for n in (50, 60, 70, 80, 90):
            g = _hamiltonian_union(n, cycles, rng)
            _add_color_job(jobs, cli, inputs, f"ham{cycles}-n{n}", g)
    return jobs


def _verify_mid(cli, rng: random.Random, inputs: _Inputs) -> list[Job]:
    """Exhaustive verification with the size guard lifted.

    Pass instances are rc2's colorings of a fixed complete graph and wheels
    and of three seeded random graphs.  The random members are kept small:
    exhaustive verification time of a random graph swings several-fold with
    the seed.  Fail instances break a coloring on a degree-2 chain.  The
    last random graph is broken on a chain the seed picks; it fails within
    milliseconds.  Three fixed wheels with one ear (FAIL_WHEELS) are broken
    on that ear, which fails after more than half of the pairs, so the
    fail verdicts carry weight in ``wall_s``.  The four random jobs are the
    fastest of the 15, so the median job (the 8th) and the p90 job (the
    14th) are fixed ones.
    """
    from rc2.coloring import color_rc2
    from rc2.generators import complete_graph, random_two_connected, wheel_graph
    from rc2.graphs import canonical_json

    randoms = []
    for i, n in enumerate((18, 20, 22)):
        g = random_two_connected(n, n // 3, rng.randrange(2**31))
        while not _degree_two_chains(g):
            g = random_two_connected(n, n // 3, rng.randrange(2**31))
        randoms.append((f"rand{i}-n{n}", g))
    fixed = [("k18", complete_graph(18))]
    fixed += [(f"w{n}", wheel_graph(n)) for n in (20, 22, 24, 26, 28, 29, 30)]

    jobs: list[Job] = []

    def add(name, g, verdict: str, chain=None) -> None:
        graph_path = inputs.write_graph(name, g)
        coloring = color_rc2(g).to_json_obj()
        guard = (g.vertex_count, g.edge_count)
        if verdict == "fail":
            coloring = _break_chain(g, coloring, chain)
            name = f"{name}-broken"
        coloring_path = inputs.write(f"{name}.color.json", canonical_json(coloring))
        _add_verify_job(jobs, cli, graph_path, coloring_path, name, g, verdict, guard)

    for name, g in randoms + fixed:
        add(name, g, "pass")
    name, g = randoms[-1]
    add(name, g, "fail", rng.choice(_degree_two_chains(g)))
    for k, at in FAIL_WHEELS:
        g = _wheel_with_ear(k, at)
        add(f"w{k}-ear{at}", g, "fail", [at, at + 1])
    return jobs


def _small_exact(cli, rng: random.Random, inputs: _Inputs) -> list[Job]:
    """Tiny graphs: the corpus through color and verify, the induction
    replay, the oracle on known answers and the n=5 census."""
    from rc2 import verify
    from rc2.coloring import color_rc2
    from rc2.corpus import standard_corpus
    from rc2.generators import complete_bipartite_graph, complete_graph, cycle_graph, theta_graph, wheel_graph
    from rc2.graphs import Graph, canonical_json
    from rc2.reports import SizeGuard

    jobs: list[Job] = []
    replays: list[Job] = []
    guard = SizeGuard(*CORPUS_GUARD)
    for i, (_, g) in enumerate(standard_corpus()):
        name = f"corpus{i:03d}"
        out = _add_color_job(jobs, cli, inputs, name, g)
        _add_verify_job(jobs, cli, str(inputs.dir / f"{name}.json"), out, name, g, "pass", CORPUS_GUARD)
        traced = color_rc2(g, with_trace=True)
        if traced.trace is None:
            continue
        inputs.note(f"{name}.trace", canonical_json(traced.to_json_obj(include_trace=True)))
        replays.append(
            Job(
                f"replay {name}",
                _library_job(lambda r=traced, g=g: verify.check_induction_invariants(r, g, guard)),
                _replay_check,
            )
        )
    jobs += replays

    # Known minima: C_n -> n (paper's theorem); K4 -> 2, K_{2,3} -> 3,
    # diamond -> 3, W5 -> 2 (EXACT_RC2 in tests/common.py, derived by hand);
    # theta(2,3,4) -> 7 (tests/test_oracle.py).
    diamond = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    known = [(f"c{n}", cycle_graph(n), n) for n in range(3, 8)]
    known += [
        ("k4", complete_graph(4), 2),
        ("k2-3", complete_bipartite_graph(2, 3), 3),
        ("diamond", diamond, 3),
        ("w5", wheel_graph(5), 2),
        ("theta-2-3-4", theta_graph(2, 3, 4), 7),
    ]
    for name, g, k in known:
        path = inputs.write_graph(f"oracle-{name}", g)
        jobs.append(Job(f"oracle {name}", _cli_job(cli, ["oracle", "--input", path]),
                        _oracle_check(k)))

    census_out = inputs.out / "census5.csv"
    jobs.append(
        Job("census n=5", _cli_job(cli, ["census", "--n", "5", "--out", str(census_out)]),
            _census_check(census_out))
    )
    return jobs


_JOB_LISTS = {
    "color-sparse": _color_sparse,
    "color-dense": _color_dense,
    "verify-mid": _verify_mid,
    "small-exact": _small_exact,
}
WORKLOADS = tuple(_JOB_LISTS)


def build(name: str, seed: int, work: Path) -> Workload:
    """Import rc2, make the inputs for ``seed`` under ``work`` and return the
    job list.  Imports happen here so that set-up time covers them."""
    import rc2.cli as cli

    inputs = _Inputs(work)
    jobs = _JOB_LISTS[name](cli, random.Random(f"{name}/{seed}"), inputs)
    for job in jobs:
        inputs.note("job", job.name)
    return Workload(jobs, inputs.hash.hexdigest())
