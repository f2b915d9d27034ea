"""Command-line contract: ``factor`` output and the 0/1/2 exit codes."""

import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from factorsmith import cli
from factorsmith.cli import EXIT_ERROR, EXIT_NEGATIVE, EXIT_OK, main
from factorsmith.conditions import ConditionWitness, check_iso_condition
from factorsmith.corpus import enumerate_exhaustive, random_tree_expansion
from factorsmith.factors import HalfIntegralAssignment
from factorsmith.families import ComponentClass, classify_component, cubic_expansion, star
from factorsmith.graphs import Graph, encode_graph6, is_tree, parse_graph6
from factorsmith.reducer import (
    ComponentEntry,
    FactorCertificate,
    FixpointUnclassified,
    InvalidColoredFactor,
    RuleStep,
    RuleTrace,
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
        ("Fh_GG", 1, ["# Fh_GG: 0 rewrite(s)", "# components: P5, P2"]),
        ("Gi_GGG", 2, ["# Gi_GGG: 0 rewrite(s)", "# components: K1,1, K1,2, K1,2"]),
        ("Cp", 1, ["# Cp: 0 rewrite(s)", "# components: P2, P2"]),
        (
            "DLo",
            1,
            [
                "# DLo: 1 rewrite(s)",
                "R4 loc=(0,3,2,1,4) removed=[0-4] recolored=[0-3:red,1-4:red]",
                "# components: P5",
            ],
        ),
        (
            "Bw",
            2,
            [
                "# Bw: 1 rewrite(s)",
                "S4 loc=(0,1,2) removed=[0-2] recolored=[0-1:red,1-2:red]",
                "# components: K1,2",
            ],
        ),
    ],
)
def test_factor_trace(tmp_path, capsys, g6, k, lines):
    code, out, _ = run(tmp_path, capsys, g6, "factor", "--k", str(k), "--emit", "trace")
    assert code == EXIT_OK
    assert out.splitlines() == lines


def test_factor_dot_draws_certified_factor(tmp_path, capsys):
    """The DOT output highlights the certificate's edges: the fractional
    assignment leaves 1-2 at 0, so it is drawn as a non-factor edge."""
    code, out, _ = run(tmp_path, capsys, "Fh_GG", "factor", "--k", "1", "--emit", "dot")
    assert code == EXIT_OK
    assert "  1 -- 2 [style=dashed, color=gray];" in out.splitlines()
    highlighted = {
        line.split("[")[0].strip() for line in out.splitlines() if "--" in line and "dashed" not in line
    }
    assert highlighted == {"0 -- 1", "0 -- 4", "2 -- 3", "4 -- 5", "5 -- 6"}


def _class_from_label(label: str) -> ComponentClass:
    """The class a certificate label names, read without the classifier."""
    if label.startswith("K1,"):
        return star(int(label[3:]))
    if label.startswith("tree-expansion(") and label.endswith(")"):
        return ComponentClass("tree_expansion", int(label[len("tree-expansion(") : -1]))
    if label == "cubic-expansion":
        return cubic_expansion()
    assert label in ("P2", "C3", "P5"), label
    return ComponentClass(label)


def _certificate_from_json(record: dict) -> FactorCertificate:
    """The certificate a JSON record prints, at the k and with the class
    labels it prints; `verify_certificate` alone judges them."""
    return FactorCertificate(
        record["k"],
        tuple(
            ComponentEntry(tuple(c["vertices"]), tuple(map(tuple, c["edges"])), _class_from_label(c["class"]))
            for c in record["components"]
        ),
    )


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
    assert verify_certificate(g, _certificate_from_json(json.loads(lines[0])["certificate"]))


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


def test_help_is_for_users(capsys):
    """-h exits 0 and names no private code; argparse wraps the text
    differently across Python versions, so it is not pinned."""
    assert main(["-h"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "usage: factorsmith" in out and "2 = usage or parse error" in " ".join(out.split())
    assert "read_graphs" not in out and "_SOURCES" not in out


def test_usage_error_exits_two(tmp_path, capsys):
    assert main(["factor"]) == EXIT_ERROR
    assert run(tmp_path, capsys, "Fh_GG", "factor", "--k", "0")[0] == EXIT_ERROR
    capsys.readouterr()
    # The corpus generators are lazy: a bad range surfaces mid-stream and
    # must still exit 2, not crash.  A spec with a stray field is refused,
    # and so is a negative count; a count of 0 is an empty corpus.  A file
    # with a bad line is refused before its good first line is printed.
    bad = tmp_path / "bad.g6"
    bad.write_text("A_\nB?x\n", encoding="ascii")
    for argv in (
        ["gen", "--exhaustive=8"],
        ["gen", "--paths-cycles=1"],
        ["gen", "--gnp=9,1/2,2,sede=11"],
        ["gen", "--trees=5,2,99"],
        ["verify", "--trees", "5,-1", "--k", "1"],
        ["gen", "--gnp", "8,1/2,-3"],
        ["gen", "--all-trees", "-2"],
        ["gen", "--tree-expansion", "1,20,-1"],
        ["gen", "--tree-expansion", "0,20,1"],
        ["gen", f"--file={bad}"],
    ):
        assert main(argv) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")
    assert main(["gen", "--gnp", "8,1/2,0"]) == EXIT_OK
    assert capsys.readouterr() == ("", "")
    assert main(["gen", "--tree-expansion=2,8"]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err == "error: tree-expansion spec is k,size,count, got '2,8'\n"
    assert main(["gen", "--tree-expansion=2,6,1"]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err == "error: the smallest member of T(5) has 7 vertices, got size 6\n"
    # the tree-expansion source replaced the cubic-tree option
    assert main(["gen", "--cubic-tree", "3,1"]) == EXIT_ERROR
    assert capsys.readouterr().out == ""
    # gen takes exactly one source, as verify does
    assert main(["gen", "--all-trees", "3", "--exhaustive", "2"]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err == "error: choose exactly one corpus source\n"


def test_gen_k1_expansion_base(capsys):
    """The base-tree source is gone: gen emits members, with their seeds
    from --seed as the other random sources take theirs."""
    assert main(["gen", "--expansion-base", "1,10,3"]) == EXIT_ERROR
    assert capsys.readouterr().out == ""
    assert main(["gen", "--tree-expansion", "1,10,2", "--seed", "3"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [parse_graph6(line) for line in lines] == [random_tree_expansion(1, 10, s) for s in (3, 4)]
    assert all(classify_component(parse_graph6(line), 1) == cubic_expansion() for line in lines)


@pytest.mark.parametrize("command", ["gen", "verify"])
@pytest.mark.parametrize(
    "source, spec",
    [("--gnp", "8,3/2"), ("--gnp", "-5,1/2"), ("--trees", "0"), ("--tree-expansion", "2,6")],
    ids=["gnp-p", "gnp-n", "trees", "tree-expansion"],
)
def test_bad_spec_exits_two_at_any_count(capsys, command, source, spec):
    """A bad random-source spec is refused before any draw: a count of 0
    exits 2 with the message a count of 1 gives."""
    assert main([command, f"{source}={spec},1"]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert main([command, f"{source}={spec},0"]) == EXIT_ERROR
    assert capsys.readouterr() == ("", err)


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
    """21 vertices is past TOUGHNESS_MAX_N: refused at once, before any walk."""
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


@pytest.mark.parametrize(
    "args", [["toughness"], ["check", "--c", "3/2"], ["factor", "--k", "1"], ["convert", "--to", "g6"]]
)
def test_each_graph_is_parsed_once(tmp_path, capsys, monkeypatch, args):
    """In the up-front check, which also applies toughness's size guard;
    the command answers from the graphs it kept.  A bad line still exits 2
    with nothing printed, and no line after it is parsed."""
    parsed = []

    def counted(line):
        parsed.append(line)
        return parse_graph6(line)

    monkeypatch.setattr(cli, "parse_graph6", counted)
    code, out, _ = run(tmp_path, capsys, "Dhc\nBw\nC~", *args)
    assert code in (EXIT_OK, EXIT_NEGATIVE) and out
    assert parsed == ["Dhc", "Bw", "C~"]
    parsed.clear()
    code, out, err = run(tmp_path, capsys, "Dhc\nB?x\nC~", *args)
    assert (code, out) == (EXIT_ERROR, "") and err.startswith("error: trailing data in graph6 string")
    assert parsed == ["Dhc", "B?x"]


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


@pytest.mark.parametrize("args", [["convert", "--to", "g6"], ["check", "--c", "3/2"]], ids=["convert", "check"])
def test_input_is_kept_as_labelled_masks(tmp_path, capsys, args):
    """`main` parses the whole input before it answers and keeps each graph
    as its label and its neighbour masks, about 250 B for n = 7.  Over
    20,000 graph6 lines of 8 bytes the traced peak was 6.1 MiB for both
    commands on Python 3.11; the bound adds 0.9 MiB, about 15 %.  A graph
    that also kept its edge list took the peak to 15.4 MiB."""
    path = tmp_path / "n7.g6"
    with path.open("w", encoding="ascii") as fh:
        for _, g in zip(range(20_000), enumerate_exhaustive(7)):
            fh.write(encode_graph6(g) + "\n")
    tracemalloc.start()
    try:
        code = main([*args, str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (EXIT_OK, EXIT_NEGATIVE)
    assert len(capsys.readouterr().out.splitlines()) == 20_000
    assert peak < 7 << 20, peak


@pytest.mark.parametrize("g6, k", [("Fh_GG", 1), ("Gi_GGG", 2)])
def test_factor_json_family(tmp_path, capsys, g6, k):
    """k alone fixes the family, so the certificate carries k and no family
    object."""
    code, out, _ = run(tmp_path, capsys, g6, "factor", "--k", str(k))
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["graph"] == g6
    assert record["certificate"]["k"] == k
    assert list(record["certificate"]) == ["k", "components"]


@pytest.mark.parametrize(
    "k, labels",
    [
        (1, ["P2", "C3", "P5", "cubic-expansion"]),
        (2, ["K1,1", "K1,2", "tree-expansion(2)"]),
        (3, ["K1,1", "K1,2", "K1,3", "tree-expansion(3)"]),
    ],
)
def test_factor_json_round_trip(tmp_path, capsys, k, labels):
    """``factor --emit json`` on every labelled graph with 4 or 5 vertices
    and two members of T(2k+1), written to a file and read back: each
    certificate, rebuilt from its labels, re-verifies, and fails once any
    component loses an edge or names another class of the family."""
    for n in ("4", "5"):
        assert main(["gen", "--exhaustive", n]) == EXIT_OK
    assert main(["gen", "--tree-expansion", f"{k},14,2"]) == EXIT_OK
    graphs = tmp_path / "graphs.g6"
    graphs.write_text(capsys.readouterr().out, encoding="ascii")
    assert main(["factor", "--k", str(k), "--emit", "json", str(graphs)]) == EXIT_NEGATIVE
    saved = tmp_path / "factor.json"
    saved.write_text(capsys.readouterr().out, encoding="utf-8")
    family = [_class_from_label(label) for label in labels]
    seen = set()
    certified = 0
    for line in saved.read_text(encoding="utf-8").splitlines():
        if line.endswith(": no factor (condition fails)"):
            continue
        record = json.loads(line)
        g = parse_graph6(record["graph"])
        cert = _certificate_from_json(record["certificate"])
        assert cert.k == k and verify_certificate(g, cert), record
        certified += 1
        for i, entry in enumerate(cert.components):
            seen.add(entry.cls.label)
            other = family[(family.index(entry.cls) + 1) % len(family)]
            for changed in (entry._replace(edges=entry.edges[:-1]), entry._replace(cls=other)):
                components = cert.components[:i] + (changed,) + cert.components[i + 1 :]
                assert not verify_certificate(g, cert._replace(components=components)), (record, changed)
    assert certified == {1: 682, 2: 802, 3: 806}[k]
    assert sorted(seen) == sorted(labels)


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
    assert all(r["certificate"]["k"] == r["k"] and "family" not in r["certificate"] for r in certified)


def test_verify_jobs_same_records(capsys):
    def records(jobs: str) -> list[dict]:
        code, report = _verify_json(capsys, "--exhaustive", "4", "--k", "1,2", "--jobs", jobs)
        assert code == EXIT_OK
        for r in report["graphs"]:
            del r["ms"]
        return report["graphs"]

    assert records("2") == records("1")


def test_verify_gnp_mid_seed_92(capsys):
    """gnp(16, 1/4) seed 92 has a factor at k = 1 that the depth-first
    search without a completion oracle took more than 8 s to find."""
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
    assert out.splitlines()[0] == "# Cp: 0 rewrite(s)"


def _self_check_fails_on_triangles(g, k):
    """The real extraction, except that an engine self-check fails on a triangle."""
    if g.n == 3 and g.num_edges == 3:
        raise AssertionError("completion oracle contradicted the search")
    return extract_component_factor_detailed(g, k)


def test_verify_reports_engine_self_check_failures(capsys, monkeypatch):
    """A failed self-check inside the engine is the record's error, not a crash."""
    monkeypatch.setattr(cli, "extract_component_factor_detailed", _self_check_fails_on_triangles)
    code, report = _verify_json(capsys, "--exhaustive", "3", "--k", "1", "--jobs", "1")
    assert code == EXIT_NEGATIVE
    assert len(report["graphs"]) == 8
    errors = [r["error"] for r in report["graphs"] if r["error"]]
    assert errors == ["ENGINE_ERROR: AssertionError: completion oracle contradicted the search"]
    assert report["summary"]["failures"] == 1


def test_factor_reports_engine_self_check_failures(tmp_path, capsys, monkeypatch):
    """factor names the graph whose self-check failed and goes on to the next."""
    monkeypatch.setattr(cli, "extract_component_factor_detailed", _self_check_fails_on_triangles)
    code, out, err = run(tmp_path, capsys, "Bw\nCp", "factor", "--k", "1", "--emit", "trace")
    assert code == EXIT_NEGATIVE
    assert err == "error: Bw: AssertionError: completion oracle contradicted the search\n"
    assert out.splitlines()[0] == "# Cp: 0 rewrite(s)"


def _condition_fails_on_triangles(g, c):
    """The real condition check, except that it fails a self-check on a triangle."""
    if g.n == 3 and g.num_edges == 3:
        raise AssertionError("walk left a vertex in S")
    return check_iso_condition(g, c)


def test_verify_reports_condition_engine_failures(capsys, monkeypatch):
    """A failed condition check is the record's error, with no verdict and
    no witness; the factor is still extracted and reported."""
    monkeypatch.setattr(cli, "check_iso_condition", _condition_fails_on_triangles)
    code, report = _verify_json(capsys, "--exhaustive", "3", "--k", "1", "--jobs", "1")
    assert code == EXIT_NEGATIVE
    assert len(report["graphs"]) == 8
    (bad,) = [r for r in report["graphs"] if r["error"]]
    assert bad["error"] == "ENGINE_ERROR: AssertionError: walk left a vertex in S"
    assert (bad["condition_holds"], bad["witness"], bad["has_factor"]) == (None, None, True)
    assert all(r["condition_holds"] is not None for r in report["graphs"] if r is not bad)
    assert report["summary"]["failures"] == 1
    # when both engines fail, the factor's error is the one reported
    monkeypatch.setattr(cli, "extract_component_factor_detailed", _engine_fails_on_triangles)
    code, report = _verify_json(capsys, "--exhaustive", "3", "--k", "1", "--jobs", "1")
    assert code == EXIT_NEGATIVE
    errors = [r["error"] for r in report["graphs"] if r["error"]]
    assert errors == ["REDUCER_ERROR: rule R3 at (0,1,2) touches (0, 1), outside the support"]


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

    monkeypatch.setattr(cli, "_process_pool", InlinePool)
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
    monkeypatch.setattr(cli, "_process_pool", None)
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


def test_toughness_over_every_graph_up_to_six_vertices(tmp_path, capsys):
    """The sha256 of `toughness` over the 33,867 labelled graphs with
    n = 1..6, in `gen --exhaustive` order, pins every value and label."""
    text = "\n".join(encode_graph6(g) for n in range(1, 7) for g in enumerate_exhaustive(n))
    code, out, _ = run(tmp_path, capsys, text, "toughness")
    assert code == EXIT_OK and len(out.splitlines()) == 33_867
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "230129a167a1796c7954981f44baae1027c1b162ebab67d77cc1edf802d3d2df"
    )


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


@pytest.mark.parametrize(
    "argv, lines, digest",
    [
        (["--exhaustive", "3"], 8, "0a6a62a5b967c500e7178c8cc7c7f12631566b64f5ae11dc03c2299880ea7a0d"),
        (["--gnp", "9,1/3,4", "--seed", "7"], 4, "a6a45fe1d34b58784a786e1591bc881927f245262c996801941007656c9f0c8d"),
        (["--trees", "10,3", "--seed", "2"], 3, "6a6e02820dda995acfcbf1ade03302aebbb147fc944eae5970b24efa52f76be5"),
        (["--paths-cycles", "6"], 9, "9eb2312701269b83209390c9941c0137caebe6ae01dbb69948b8b837e74a2dc2"),
        (["--all-trees", "7"], 25, "a01a916153bf271a456198404d731c1352236cc7f6d171f930903c012eb12df1"),
        (["--tree-expansion", "2,14,2", "--seed", "5"], 2, "b690d7824622c7ddb34bfddab22e01bf04ab407689a78aef0bc875d78343fcc2"),
        (["--file", "edges.txt"], 1, "9ea90fe1b1f72ce7f9ddef33af40308b71d89794423954fb334d1b47444cf86c"),
        (["--file", "corpus.g6"], 3, "84e10e69dc2d20852c32d472b610e2c9e0ff11dfbb4ed84d37f16ee2e40b290c"),
    ],
    ids=["exhaustive", "gnp", "trees", "paths-cycles", "all-trees", "tree-expansion", "file-edges", "file-g6"],
)
def test_gen_streams_are_pinned(tmp_path, capsys, argv, lines, digest):
    """The sha256 of `gen` on one small spec per corpus source, so the
    source table cannot change a stream."""
    (tmp_path / "edges.txt").write_text("# a path and a chord\nn 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 3\n", encoding="ascii")
    (tmp_path / "corpus.g6").write_text("# K3, 2K2 and C5\nBw\n\nCp\nDhc\n", encoding="ascii")
    if argv[0] == "--file":
        argv = [argv[0], str(tmp_path / argv[1])]
    assert main(["gen", *argv]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == "" and len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_takes_gen_corpora(capsys):
    """verify reads the same sources as gen: every free tree with n <= 7 at
    k = 1, 2, and one T(5) member at k = 1, 2, 3, with graph ids named after
    the source."""
    assert main(["verify", "--all-trees", "7", "--k", "1,2"]) == EXIT_OK
    assert capsys.readouterr().out == "25 graphs, 50 checks, 0 disagreements, 0 failures\n"
    code, report = _verify_json(capsys, "--tree-expansion", "2,14,1", "--k", "1,2,3")
    assert code == EXIT_OK and report["summary"]["agreements"] == 3
    assert {r["graph_id"] for r in report["graphs"]} == {"tree_expansion:0"}
    assert main(["verify", "--tree-expansion", "2,12"]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err == "error: tree-expansion spec is k,size,count, got '2,12'\n"


@pytest.mark.parametrize("k, size", [(1, 20), (2, 14), (3, 18)])
def test_verify_tree_expansion(capsys, k, size):
    """Four members at their own k: each holds the condition at k + 1/2 and
    is its own one-component factor, so verify agrees on all four."""
    code, report = _verify_json(capsys, "--tree-expansion", f"{k},{size},4", "--k", str(k))
    assert code == EXIT_OK and report["summary"]["disagreements"] == 0
    assert [r["graph_id"] for r in report["graphs"]] == [f"tree_expansion:{i}" for i in range(4)]
    assert [r["n"] for r in report["graphs"]] == [size] * 4
    for r in report["graphs"]:
        assert r["condition_holds"] and r["has_factor"]
        (component,) = r["certificate"]["components"]
        assert component["class"] == ("cubic-expansion" if k == 1 else f"tree-expansion({k})")


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


def test_check_reports_condition_engine_failures(tmp_path, capsys, monkeypatch):
    """check names the graph the condition check failed on and goes on to the next."""
    monkeypatch.setattr(cli, "check_iso_condition", _condition_fails_on_triangles)
    code, out, err = run(tmp_path, capsys, "Bw\nCp", "check", "--c", "3/2")
    assert code == EXIT_NEGATIVE
    assert err == "error: Bw: AssertionError: walk left a vertex in S\n"
    assert out == "Cp: holds (iso(G-S) <= 3/2 |S| for all S)\n"


def _tampered(part):
    """The real extraction with its assignment, certificate or trace replaced;
    the trace by one with more rewrites than the graph has edges."""

    def extract(g, k):
        cert, h, trace = extract_component_factor_detailed(g, k)
        if cert is None:
            return cert, h, trace
        if part == "assignment":
            return cert, HalfIntegralAssignment(g, {e: 0 for e in g.edges}), trace
        if part == "trace":
            return cert, h, RuleTrace([RuleStep("R1", (), {})] * (g.num_edges + 1))
        return FactorCertificate(k, cert.components[1:]), h, trace

    return extract


REVALIDATION_ERRORS = {
    "assignment": "assignment failed re-validation",
    "certificate": "certificate failed re-validation",
    "trace": "rewrite count exceeded edge budget",
}


@pytest.mark.parametrize("part", REVALIDATION_ERRORS)
def test_factor_rechecks_the_answer(tmp_path, capsys, monkeypatch, part):
    """factor prints no certificate that fails its re-validation."""
    monkeypatch.setattr(cli, "extract_component_factor_detailed", _tampered(part))
    code, out, err = run(tmp_path, capsys, "Cp\nB?", "factor", "--k", "1")
    assert code == EXIT_NEGATIVE
    assert out == "B?: no factor (condition fails)\n"
    assert err == f"error: Cp: {REVALIDATION_ERRORS[part]}\n"


def test_verify_rechecks_the_trace_length(tmp_path, capsys, monkeypatch):
    """A trace longer than ||G|| is the record's error, next to a valid certificate."""
    monkeypatch.setattr(cli, "extract_component_factor_detailed", _tampered("trace"))
    path = tmp_path / "input.g6"
    path.write_text("Cp\nB?\n", encoding="ascii")
    code, report = _verify_json(capsys, "--file", str(path), "--k", "1")
    assert code == EXIT_NEGATIVE
    assert [(r["has_factor"], r["trace_length"], r["error"]) for r in report["graphs"]] == [
        (True, 4, "rewrite count exceeded edge budget"),  # Cp has 3 edges
        (False, None, None),
    ]
    assert report["summary"]["failures"] == 1
