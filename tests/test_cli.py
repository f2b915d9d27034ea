"""Command-line contract: ``factor`` output and the 0/1/2 exit codes."""

import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from factorsmith import cli
from factorsmith.cli import EXIT_ERROR, EXIT_NEGATIVE, EXIT_OK, main
from factorsmith.conditions import ConditionWitness
from factorsmith.corpus import enumerate_exhaustive
from factorsmith.factors import HalfIntegralAssignment
from factorsmith.families import classify_component, is_expansion_base
from factorsmith.graphs import Graph, encode_graph6, is_tree, parse_graph6
from factorsmith.reducer import (
    ComponentEntry,
    FactorCertificate,
    FixpointUnclassified,
    InvalidColoredFactor,
    extract_component_factor_detailed,
    verify_certificate,
)


def run(tmp_path, capsys, text: str, *args: str) -> tuple[int, str, str]:
    path = tmp_path / "input.g6"
    path.write_text(text + "\n", encoding="ascii")
    code = main([*args, str(path)])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize(
    "g6, k, lines",
    [
        (
            "Fh_GG",
            1,
            [
                "# Fh_GG: 1 rewrite(s)",
                "R8 loc=(3,2,1,0,4,5,6) removed=[4-5] recolored=[0-4:red,0-1:blue]",
                "# components: P5, P2",
            ],
        ),
        (
            "Gi_GGG",
            2,
            [
                "# Gi_GGG: 2 rewrite(s)",
                "S5 loc=(1,0,4,5) removed=[4-5] recolored=[]",
                "S7 loc=(4,0,1) removed=[0-1] recolored=[]",
                "# components: K1,1, K1,2, K1,2",
            ],
        ),
        (
            "Cp",
            1,
            [
                "# Cp: 1 rewrite(s)",
                "R7 loc=(1,0,2,3) removed=[0-2] recolored=[]",
                "# components: P2, P2",
            ],
        ),
    ],
)
def test_factor_trace(tmp_path, capsys, g6, k, lines):
    code, out, _ = run(tmp_path, capsys, g6, "factor", "--k", str(k), "--emit", "trace")
    assert code == EXIT_OK
    assert out.splitlines() == lines


def test_factor_dot_draws_certified_factor(tmp_path, capsys):
    """The DOT output highlights the certificate's edges: R8 removed 4-5 from
    the fractional assignment, so it is drawn as a non-factor edge."""
    code, out, _ = run(tmp_path, capsys, "Fh_GG", "factor", "--k", "1", "--emit", "dot")
    assert code == EXIT_OK
    assert "  4 -- 5 [style=dashed, color=gray];" in out.splitlines()
    highlighted = {
        line.split("[")[0].strip() for line in out.splitlines() if "--" in line and "dashed" not in line
    }
    assert highlighted == {"0 -- 1", "0 -- 4", "1 -- 2", "2 -- 3", "5 -- 6"}


def _certificate_from_json(g: Graph, k: int, record: dict) -> FactorCertificate:
    entries = []
    for comp in record["components"]:
        vertices = comp["vertices"]
        index = {v: i for i, v in enumerate(vertices)}
        edges = tuple(tuple(e) for e in comp["edges"])
        cls = classify_component(Graph(len(vertices), [(index[u], index[v]) for u, v in edges]), k)
        assert cls.label == comp["class"]
        entries.append(ComponentEntry(tuple(vertices), edges, cls))
    return FactorCertificate(k, tuple(entries))


@pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
def test_factor_long_input(tmp_path, capsys, closed):
    """A 5000-vertex path or cycle goes through ``factor`` without deepening
    the recursion limit, and its certificate re-verifies."""
    n = 5000
    edges = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if closed else [])
    text = f"n {n}\n" + "\n".join(f"{u} {v}" for u, v in edges)
    limit = sys.getrecursionlimit()
    code, out, _ = run(tmp_path, capsys, text, "factor", "--k", "1")
    assert code == EXIT_OK
    assert sys.getrecursionlimit() == limit
    lines = out.splitlines()
    assert len(lines) == 1
    g = Graph(n, edges)
    assert verify_certificate(g, _certificate_from_json(g, 1, json.loads(lines[0])["certificate"]))


def test_factor_missing_exits_one(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, "B?", "factor", "--k", "1", "--emit", "trace")
    assert code == EXIT_NEGATIVE
    assert "no factor" in out


def test_parse_error_exits_two(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, "@@@", "factor", "--k", "1", "--emit", "trace")
    assert code == EXIT_ERROR
    assert out == "" and err.startswith("error:")
    code, out, err = run(tmp_path, capsys, ">>graph6<<", "check", "--c", "3/2")
    assert code == EXIT_ERROR
    assert out == "" and err.startswith("error:")
    for c in ("1.5", "3"):
        code, out, err = run(tmp_path, capsys, "Bw", "check", f"--c={c}")
        assert (code, out, err) == (EXIT_ERROR, "", f"error: ratio must be written as p/q, got '{c}'\n")


def test_check_exit_codes(tmp_path, capsys):
    assert run(tmp_path, capsys, "Dhc", "check", "--c", "3/2")[0] == EXIT_OK  # C5
    assert run(tmp_path, capsys, "B?", "check", "--c", "3/2")[0] == EXIT_NEGATIVE


def test_usage_error_exits_two(tmp_path, capsys):
    assert main(["factor"]) == EXIT_ERROR
    assert run(tmp_path, capsys, "Fh_GG", "factor", "--k", "0")[0] == EXIT_ERROR
    capsys.readouterr()
    # The corpus generators are lazy: a bad range surfaces mid-stream and
    # must still exit 2, not crash.  A spec with a stray field is refused,
    # and so is a negative count; a count of 0 is an empty corpus.
    for argv in (
        ["gen", "--exhaustive=8"],
        ["gen", "--paths-cycles=1"],
        ["gen", "--gnp=9,1/2,2,sede=11"],
        ["gen", "--trees=5,2,99"],
        ["verify", "--trees", "5,-1", "--k", "1"],
        ["gen", "--gnp", "8,1/2,-3"],
        ["gen", "--all-trees", "-2"],
    ):
        assert main(argv) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")
    assert main(["gen", "--gnp", "8,1/2,0"]) == EXIT_OK
    assert capsys.readouterr() == ("", "")
    assert main(["gen", "--expansion-base=2,8"]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err == "error: expansion-base spec is k,size,seed, got '2,8'\n"
    # the k = 1 base replaced the cubic-tree option
    assert main(["gen", "--cubic-tree", "3,1"]) == EXIT_ERROR
    assert capsys.readouterr().out == ""
    # gen takes exactly one source, as verify does
    assert main(["gen", "--all-trees", "3", "--exhaustive", "2"]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err == "error: choose exactly one corpus source\n"


def test_gen_k1_expansion_base(capsys):
    assert main(["gen", "--expansion-base", "1,10,3"]) == EXIT_OK
    (line,) = capsys.readouterr().out.splitlines()
    assert is_expansion_base(parse_graph6(line), 1)


def test_gen_past_62_vertices(capsys):
    """Long-form graph6 carries graphs with more than 62 vertices."""
    assert main(["gen", "--paths-cycles=70"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 137  # P2..P70, C3..C70
    graphs = [parse_graph6(line) for line in lines]
    assert [g.n for g in graphs] == [*range(2, 71), *range(3, 71)]
    assert all(g.num_edges == g.n - 1 for g in graphs[:69])
    assert all(g.num_edges == g.n and all(g.degree(v) == 2 for v in range(g.n)) for g in graphs[69:])
    assert main(["gen", "--trees=80,1"]) == EXIT_OK
    (line,) = capsys.readouterr().out.splitlines()
    tree = parse_graph6(line)
    assert line.startswith("~?@O") and tree.n == 80 and is_tree(tree)


def test_toughness_size_guard_exits_two(tmp_path, capsys):
    """21 vertices is past TOUGHNESS_MAX_N: refused at once, not 2^21 subsets."""
    text = "n 21\n" + "\n".join(f"{i} {i + 1}" for i in range(20))
    t0 = time.perf_counter()
    code, out, err = run(tmp_path, capsys, text, "toughness")
    assert time.perf_counter() - t0 < 2.0
    assert code == EXIT_ERROR
    assert out == "" and "n <= 20" in err and err.startswith("error:")
    assert run(tmp_path, capsys, "Dhc", "toughness")[1] == "Dhc: 3/2\n"  # C5 is still answered


def test_toughness_refuses_before_answering(tmp_path, capsys):
    """One graph past TOUGHNESS_MAX_N refuses the whole input: the C5 before
    it is not answered either, as every other command prints nothing on exit 2."""
    p21 = encode_graph6(Graph(21, [(i, i + 1) for i in range(20)]))
    code, out, err = run(tmp_path, capsys, f"Dhc\n{p21}\nDhc", "toughness")
    assert code == EXIT_ERROR
    assert out == "" and err == f"error: {p21}: isolated toughness supports n <= 20, got n = 21\n"


# The command line as a child process, with this checkout's package first.
CLI = [sys.executable, "-m", "factorsmith.cli"]
_SRC = str(Path(__file__).resolve().parents[1] / "src")
CLI_ENV = {**os.environ, "PYTHONPATH": _SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "n, args",
    [
        (10**10, ["check", "--c", "3/2"]),
        (10**10, ["factor", "--k", "1"]),
        (10**10, ["toughness"]),
        (10**10, ["convert", "--to", "g6"]),
        (10**20, ["check", "--c", "3/2"]),
    ],
)
def test_huge_edge_list_header_exits_two(n, args):
    """An 'n' header far past memory is refused with exit 2, not a traceback.
    Runs in a child capped at 1 GB of address space, so the allocation that
    fails there is never tried in the test process."""
    proc = subprocess.run(
        [*CLI, *args],
        input=f"n {n}\n0 1\n",
        capture_output=True,
        text=True,
        env=CLI_ENV,
        preexec_fn=_cap_address_space,
        timeout=60,
    )
    assert proc.returncode == EXIT_ERROR, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: graph too large: n={n}")


@pytest.mark.parametrize(
    "args", [["gen", "--exhaustive", "6"], ["convert", "--to", "g6"]], ids=["gen", "convert"]
)
def test_closed_stdout_exits_one_quietly(tmp_path, args):
    """A reader that stops after one line (as `head -1` does) ends the
    command with exit 1 and nothing on stderr.  The 32,768 lines, about
    160 KB, overflow the pipe buffer, so the command is still writing."""
    if args[0] == "convert":
        path = tmp_path / "n6.g6"
        path.write_text("".join(encode_graph6(g) + "\n" for g in enumerate_exhaustive(6)))
        args = [*args, str(path)]
    with subprocess.Popen([*CLI, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CLI_ENV) as proc:
        assert proc.stdout.readline() == b"E???\n"
        proc.stdout.close()
        _out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (EXIT_NEGATIVE, b"")


def test_standard_input_is_read():
    """With no input argument, and with `--file -`, graph6 lines come from
    standard input, through the module's `__main__` guard."""

    def child(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [*CLI, *args], input="A_\nBw\nB?\n", capture_output=True, text=True, env=CLI_ENV, timeout=60
        )

    proc = child("verify", "--file", "-", "--k", "1,2")
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout == "3 graphs, 6 checks, 0 disagreements, 0 failures\n"
    proc = child("check", "--c", "3/2")
    assert (proc.returncode, proc.stderr) == (EXIT_NEGATIVE, "")
    assert proc.stdout == (
        "A_: holds (iso(G-S) <= 3/2 |S| for all S)\n"
        "Bw: holds (iso(G-S) <= 3/2 |S| for all S)\n"
        "B?: violated S={} isolates {0,1,2}\n"
    )


FAMILY_JSON = {1: {"kind": "F1", "k": 1}, 2: {"kind": "F2", "k": 2}}


@pytest.mark.parametrize("g6, k", [("Fh_GG", 1), ("Gi_GGG", 2)])
def test_factor_json_family(tmp_path, capsys, g6, k):
    code, out, _ = run(tmp_path, capsys, g6, "factor", "--k", str(k))
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["graph"] == g6
    assert record["certificate"]["family"] == FAMILY_JSON[k]


def _verify_json(capsys, *args: str) -> tuple[int, dict]:
    code = main(["verify", *args, "--emit", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_verify_exhaustive_small(capsys):
    assert main(["verify", "--exhaustive", "4", "--k", "1,2"]) == EXIT_OK
    assert capsys.readouterr().out == "64 graphs, 128 checks, 0 disagreements, 0 failures\n"
    code, report = _verify_json(capsys, "--exhaustive", "4", "--k", "1,2")
    assert code == EXIT_OK
    summary = report["summary"]
    del summary["elapsed_ms"]
    assert summary == {"graphs": 64, "checked": 128, "agreements": 128, "disagreements": 0, "failures": 0}
    certified = [r for r in report["graphs"] if r["certificate"] is not None]
    assert {r["k"] for r in certified} == {1, 2}
    assert all(r["certificate"]["family"] == FAMILY_JSON[r["k"]] for r in certified)


def test_verify_jobs_same_records(capsys):
    def records(jobs: str) -> list[dict]:
        code, report = _verify_json(capsys, "--exhaustive", "4", "--k", "1,2", "--jobs", jobs)
        assert code == EXIT_OK
        for r in report["graphs"]:
            del r["ms"]
        return report["graphs"]

    assert records("2") == records("1")


def test_verify_gnp_mid_seed_92(capsys):
    """gnp(16, 1/4) seed 92 has a factor at k = 1 that the search without
    the completion oracle took more than 8 s to find."""
    t0 = time.perf_counter()
    assert main(["verify", "--gnp", "16,1/4,1", "--seed", "92", "--k", "1,2"]) == EXIT_OK
    assert time.perf_counter() - t0 < 5.0
    assert capsys.readouterr().out == "1 graphs, 2 checks, 0 disagreements, 0 failures\n"


def test_verify_unclassified_exits_one(capsys, monkeypatch):
    def unclassified(g, k):
        raise FixpointUnclassified("fixpoint component (0,) is outside the k = 1 family", None, k)

    monkeypatch.setattr(cli, "extract_component_factor_detailed", unclassified)
    assert main(["verify", "--exhaustive", "3", "--k", "1"]) == EXIT_NEGATIVE
    out = capsys.readouterr().out
    assert out.startswith("8 graphs, 8 checks, 8 disagreements, 8 failures\n")
    assert "FIXPOINT_UNCLASSIFIED" in out


def _engine_fails_on_triangles(g, k):
    """The real extraction, except that a triangle makes the engine fail."""
    if g.n == 3 and g.num_edges == 3:
        raise InvalidColoredFactor("rule R3 at (0,1,2) touches (0, 1), outside the support")
    return extract_component_factor_detailed(g, k)


def test_verify_reports_engine_errors(capsys, monkeypatch):
    """An engine error is the record's error; the run keeps every record."""
    monkeypatch.setattr(cli, "extract_component_factor_detailed", _engine_fails_on_triangles)
    code, report = _verify_json(capsys, "--exhaustive", "3", "--k", "1", "--jobs", "1")
    assert code == EXIT_NEGATIVE
    assert len(report["graphs"]) == 8
    errors = [r["error"] for r in report["graphs"] if r["error"]]
    assert errors == ["REDUCER_ERROR: rule R3 at (0,1,2) touches (0, 1), outside the support"]
    assert report["summary"]["failures"] == 1


def test_factor_reports_engine_errors(tmp_path, capsys, monkeypatch):
    """factor names the graph the engine failed on and goes on to the next."""
    monkeypatch.setattr(cli, "extract_component_factor_detailed", _engine_fails_on_triangles)
    code, out, err = run(tmp_path, capsys, "Bw\nCp", "factor", "--k", "1", "--emit", "trace")
    assert code == EXIT_NEGATIVE
    assert err == "error: Bw: rule R3 at (0,1,2) touches (0, 1), outside the support\n"
    assert out.splitlines()[0] == "# Cp: 1 rewrite(s)"


def test_verify_rechecks_the_witness(capsys, monkeypatch):
    """S = {} is reported for every graph: on the edgeless graph it leaves
    the wrong isolated set, and on P2 it isolates nothing."""
    monkeypatch.setattr(cli, "check_iso_condition", lambda g, c: ConditionWitness(frozenset(), frozenset()))
    code, report = _verify_json(capsys, "--exhaustive", "2", "--k", "1", "--jobs", "1")
    assert code == EXIT_NEGATIVE
    assert [(r["graph_id"], r["error"]) for r in report["graphs"]] == [
        ("exhaustive:0", "witness isolates a different vertex set"),
        ("exhaustive:1", "witness does not violate the condition"),
    ]
    assert report["summary"]["failures"] == 2


def test_verify_rechecks_the_assignment(capsys, monkeypatch):
    """An all-zero assignment next to a valid certificate is caught."""

    def zero_assignment(g, k):
        cert, h, trace = extract_component_factor_detailed(g, k)
        if cert is None:
            return cert, h, trace
        return cert, HalfIntegralAssignment(g, {e: 0 for e in g.edges}), trace

    monkeypatch.setattr(cli, "extract_component_factor_detailed", zero_assignment)
    code, report = _verify_json(capsys, "--exhaustive", "3", "--k", "1", "--jobs", "1")
    assert code == EXIT_NEGATIVE
    errors = {r["error"] for r in report["graphs"] if r["has_factor"]}
    assert errors == {"assignment failed re-validation"}
    assert all(r["error"] is None for r in report["graphs"] if not r["has_factor"])


def test_verify_usage_exits_two(capsys):
    assert main(["verify", "--exhaustive", "3", "--trees", "5,2"]) == EXIT_ERROR
    assert main(["verify", "--exhaustive", "3", "--k", "0"]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 2


def test_verify_jobs_bounded(capsys, monkeypatch):
    """The pool gets min(--jobs, graphs, CPUs) workers.  A stand-in pool
    records that size and maps in-process, so no worker is started."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    for exhaustive, jobs, graphs in (("3", "100000", 8), ("2", "100000", 2), ("3", "3", 8), ("1", "100000", 1)):
        assert main(["verify", "--exhaustive", exhaustive, "--jobs", jobs]) == EXIT_OK
        assert capsys.readouterr().out == f"{graphs} graphs, {graphs} checks, 0 disagreements, 0 failures\n"
    assert sizes == [4, 2, 3]  # one graph runs in-process
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert main(["verify", "--exhaustive", "3", "--jobs", "100000"]) == EXIT_OK
    assert sizes == [4, 2, 3]  # an unknown CPU count means one worker


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_jobs_below_one_exits_two(capsys, monkeypatch, jobs):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", None)
    assert main(["verify", "--exhaustive", "3", "--jobs", jobs]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --jobs must be >= 1, got {jobs}\n"


P47 = Graph(47, [(i, i + 1) for i in range(46)])


@pytest.mark.parametrize(
    "text, fmt, graph",
    [
        ("# a comment\n0 1\n1 2", "edges", Graph(3, [(0, 1), (1, 2)])),
        ("# a comment\nBw", "g6", Graph(3, [(0, 1), (0, 2), (1, 2)])),
        ("n 4\n0 1", "edges", Graph(4, [(0, 1)])),
        (encode_graph6(P47), "g6", P47),
    ],
    ids=["comment-edges", "comment-graph6", "n-header", "graph6-47-vertices"],
)
def test_auto_detection(text, fmt, graph):
    """A comment line is skipped, an "n <count>" header means an edge list,
    and a graph6 line whose size byte is "n" (47 + 63) stays graph6."""
    assert encode_graph6(P47)[0] == "n"
    ((label, g),) = cli.read_graphs(io.StringIO(text))
    assert (label == "edges:0") == (fmt == "edges")
    assert g == graph


@pytest.mark.parametrize("text", ["n", ""], ids=["bare-n", "empty"])
def test_undetectable_input_exits_two(tmp_path, capsys, text):
    code, out, err = run(tmp_path, capsys, text, "check", "--c", "3/2")
    assert code == EXIT_ERROR
    assert out == "" and err.startswith("error:")


def test_edge_list_errors_keep_their_line_numbers(tmp_path, capsys):
    """Skipped lines ahead of an edge list still count in its error."""
    code, out, err = run(tmp_path, capsys, "# a comment\n\n0 1\n2 x", "check", "--c", "3/2")
    assert code == EXIT_ERROR and out == ""
    assert err == "error: line 4: non-integer vertex id in '2 x'\n"
    # "n" and more tokens is an edge-list header, never graph6, which has no spaces
    code, out, err = run(tmp_path, capsys, "n 3 4\n0 1", "check", "--c", "3/2")
    assert code == EXIT_ERROR and out == ""
    assert err == "error: line 1: header must be 'n <count>'\n"


def test_format_option_is_gone(tmp_path, capsys):
    """Detection is exact, so no command takes --format."""
    for args in (["check", "--c", "3/2"], ["factor", "--k", "1"], ["toughness"], ["convert", "--to", "g6"]):
        assert run(tmp_path, capsys, "Bw", *args, "--format", "g6")[0] == EXIT_ERROR


@pytest.mark.parametrize("c", ["0/1", "-3/2"])
def test_check_ratio_must_be_positive(tmp_path, capsys, c):
    code, out, err = run(tmp_path, capsys, "Bw", "check", f"--c={c}")
    assert code == EXIT_ERROR
    assert out == "" and err == f"error: condition ratio must be positive, got {c}\n"


def test_toughness_of_complete_graph_is_infinity(tmp_path, capsys):
    """No S leaves two isolated vertices in K4."""
    assert run(tmp_path, capsys, "C~", "toughness")[:2] == (EXIT_OK, "C~: infinity\n")


def test_convert(tmp_path, capsys):
    """g6 -> edges -> g6 gives the graph back; dot opens with the graph."""
    g6 = encode_graph6(P47)
    code, edges, _ = run(tmp_path, capsys, g6, "convert", "--to", "edges")
    assert code == EXIT_OK and edges.startswith("n 47\n")
    code, back, _ = run(tmp_path, capsys, edges, "convert", "--to", "g6")
    assert (code, back) == (EXIT_OK, g6 + "\n")
    code, dot, _ = run(tmp_path, capsys, "Bw\nCp", "convert", "--to", "dot")
    assert code == EXIT_OK
    assert [line for line in dot.splitlines() if line.startswith("graph")] == ["graph G {"] * 2
    code, out, err = run(tmp_path, capsys, "Bw\n@@@", "convert", "--to", "g6")
    assert code == EXIT_ERROR
    assert out == "" and err.startswith("error:")


def test_verify_file_skips_comments(tmp_path, capsys):
    path = tmp_path / "corpus.g6"
    path.write_text("# K3 and 2K2\nBw\n\nCp\n", encoding="ascii")
    assert main(["verify", "--file", str(path), "--k", "1"]) == EXIT_OK
    assert capsys.readouterr().out == "2 graphs, 2 checks, 0 disagreements, 0 failures\n"
    assert main(["verify", "--file", str(tmp_path / "missing.g6")]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


def test_gen_all_trees(capsys):
    assert main(["gen", "--all-trees", "5"]) == EXIT_OK
    trees = [parse_graph6(line) for line in capsys.readouterr().out.splitlines()]
    assert [t.n for t in trees] == [1, 2, 3, 4, 4, 5, 5, 5]
    assert all(is_tree(t) for t in trees)


def test_check_rechecks_the_witness(tmp_path, capsys, monkeypatch):
    """check re-evaluates S as verify does: S = {} leaves the edgeless graph
    a different isolated set, and isolates nothing in K3."""
    monkeypatch.setattr(cli, "check_iso_condition", lambda g, c: ConditionWitness(frozenset(), frozenset()))
    code, out, err = run(tmp_path, capsys, "B?\nBw", "check", "--c", "3/2")
    assert code == EXIT_NEGATIVE and out == ""
    assert err.splitlines() == [
        "error: B?: witness isolates a different vertex set",
        "error: Bw: witness does not violate the condition",
    ]


def _tampered(part):
    """The real extraction with its assignment or certificate replaced."""

    def extract(g, k):
        cert, h, trace = extract_component_factor_detailed(g, k)
        if cert is None:
            return cert, h, trace
        if part == "assignment":
            return cert, HalfIntegralAssignment(g, {e: 0 for e in g.edges}), trace
        return FactorCertificate(k, cert.components[1:]), h, trace

    return extract


@pytest.mark.parametrize("part", ["assignment", "certificate"])
def test_factor_rechecks_the_answer(tmp_path, capsys, monkeypatch, part):
    """factor prints no certificate that fails its re-validation."""
    monkeypatch.setattr(cli, "extract_component_factor_detailed", _tampered(part))
    code, out, err = run(tmp_path, capsys, "Cp\nB?", "factor", "--k", "1")
    assert code == EXIT_NEGATIVE
    assert out == "B?: no factor (condition fails)\n"
    assert err == f"error: Cp: {part} failed re-validation\n"
