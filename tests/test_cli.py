"""Command-line contract: trace output of ``factor`` and the 0/1/2 exit codes."""

import pytest

from factorsmith.cli import EXIT_ERROR, EXIT_NEGATIVE, EXIT_OK, main


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


def test_factor_missing_exits_one(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, "B?", "factor", "--k", "1", "--emit", "trace")
    assert code == EXIT_NEGATIVE
    assert "no factor" in out


def test_parse_error_exits_two(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, "@@@", "factor", "--k", "1", "--emit", "trace")
    assert code == EXIT_ERROR
    assert out == "" and err.startswith("error:")


def test_check_exit_codes(tmp_path, capsys):
    assert run(tmp_path, capsys, "Dhc", "check", "--c", "3/2")[0] == EXIT_OK  # C5
    assert run(tmp_path, capsys, "B?", "check", "--c", "3/2")[0] == EXIT_NEGATIVE


def test_usage_error_exits_two(capsys):
    assert main(["factor"]) == EXIT_ERROR
    capsys.readouterr()
