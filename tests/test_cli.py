"""Command-line contract: ``factor`` output and the 0/1/2 exit codes."""

import json
import sys
import time

import pytest

from factorsmith.cli import EXIT_ERROR, EXIT_NEGATIVE, EXIT_OK, main
from factorsmith.families import Family, classify_component
from factorsmith.graphs import Graph
from factorsmith.reducer import ComponentEntry, FactorCertificate, verify_certificate


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
    family = Family.for_k(k)
    entries = []
    for comp in record["components"]:
        vertices = comp["vertices"]
        index = {v: i for i, v in enumerate(vertices)}
        edges = tuple(tuple(e) for e in comp["edges"])
        cls = classify_component(Graph(len(vertices), [(index[u], index[v]) for u, v in edges]), family)
        assert cls.label == comp["class"]
        entries.append(ComponentEntry(tuple(vertices), edges, cls))
    return FactorCertificate(family, tuple(entries))


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


def test_check_exit_codes(tmp_path, capsys):
    assert run(tmp_path, capsys, "Dhc", "check", "--c", "3/2")[0] == EXIT_OK  # C5
    assert run(tmp_path, capsys, "B?", "check", "--c", "3/2")[0] == EXIT_NEGATIVE


def test_usage_error_exits_two(tmp_path, capsys):
    assert main(["factor"]) == EXIT_ERROR
    assert run(tmp_path, capsys, "Fh_GG", "factor", "--k", "0")[0] == EXIT_ERROR
    capsys.readouterr()
    # The corpus generators are lazy: a bad range or a graph past graph6's
    # 62 vertices surfaces mid-stream and must still exit 2, not crash.
    for source in ("--exhaustive=8", "--paths-cycles=1", "--paths-cycles=70", "--trees=80,1"):
        assert main(["gen", source]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error:")


def test_toughness_size_guard_exits_two(tmp_path, capsys):
    """21 vertices is past TOUGHNESS_MAX_N: refused at once, not 2^21 subsets."""
    text = "n 21\n" + "\n".join(f"{i} {i + 1}" for i in range(20))
    t0 = time.perf_counter()
    code, out, err = run(tmp_path, capsys, text, "toughness")
    assert time.perf_counter() - t0 < 2.0
    assert code == EXIT_ERROR
    assert out == "" and "n <= 20" in err and err.startswith("error:")
    assert run(tmp_path, capsys, "Dhc", "toughness")[1] == "Dhc: 3/2\n"  # C5 is still answered
