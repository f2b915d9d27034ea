"""Mutation check of the checkers and of the code they check.

Run from the repository root (pytest does not collect this file):

    python tests/mutate.py [FUNCTION ...]

Each mutant makes one change inside one target function: a comparison
flipped (< and <=, > and >=, == and !=, in and not in, is and is not), an
`and` swapped with `or`, a `not` dropped, 1 added to an integer literal, or
+ swapped with - or & with |.  The mutated module is written by
`ast.unparse` into a copy of src/ and tests/ in a temporary directory, and
the four module test files run there with -x, PYTHONPATH pointing at the
copy, and a time limit of TIMEOUT seconds and a 2 GiB address-space cap
per mutant; JOBS mutants run at once, and the checkout is never edited.
A mutant is killed when the tests fail or run out of time.  The script
prints one line per mutant, then the killed and surviving counts per
function, and exits 1 if any mutant survived.  It first runs the same tests
on the unmodified copy and exits 2 if they fail.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, function): the module's own test file runs first, so that most
# mutants fail within seconds.
TARGETS = [
    ("reducer", "verify_certificate"),
    ("factors", "verify_fractional"),
    ("conditions", "iso_after_removal"),
    ("families", "classify_component"),
    ("families", "_expansion_shape"),
    ("flows", "least_flow"),
    ("factors", "_round_trails"),
    ("factors", "find_fractional_factor"),
    ("conditions", "_walk_removal_sets"),
]
TEST_FILES = ["test_reducer.py", "test_factors.py", "test_conditions.py", "test_families.py"]
OWN_TESTS = {"reducer": "test_reducer.py", "factors": "test_factors.py", "flows": "test_factors.py",
             "conditions": "test_conditions.py", "families": "test_families.py"}

# pytest under a 2 GiB address-space cap, so that a mutant which allocates
# without bound fails instead of starving the machine.
CAPPED_PYTEST = (
    "import resource, sys, pytest; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
    "sys.exit(pytest.main(sys.argv[1:]))"
)
TIMEOUT = 300  # seconds per mutant
JOBS = 2

FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.And: ast.Or, ast.Or: ast.And, ast.Add: ast.Sub, ast.Sub: ast.Add, ast.BitAnd: ast.BitOr,
    ast.BitOr: ast.BitAnd,
}


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


def _code(node: ast.AST):
    """The nodes under `node` in walk order, without annotations, which
    `from __future__ import annotations` leaves unevaluated."""
    todo = [node]
    for node in todo:
        yield node
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                todo += [v for v in (value if isinstance(value, list) else [value]) if isinstance(v, ast.AST)]


def _sites(fn: ast.FunctionDef) -> list[tuple[ast.AST, int | None]]:
    """Every (node, operator index) one mutant changes, in walk order."""
    sites = []
    for node in _code(fn):
        if isinstance(node, ast.Compare):
            sites += [(node, i) for i, op in enumerate(node.ops) if type(op) in FLIPS]
        elif isinstance(node, (ast.BoolOp, ast.BinOp, ast.AugAssign)) and type(node.op) in FLIPS:
            sites.append((node, None))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            sites.append((node, None))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            sites.append((node, None))
    return sites


def _mutate(node: ast.AST, index: int | None, parents: dict) -> str:
    """Apply one mutant in place; describe it."""
    if isinstance(node, ast.Compare):
        old = node.ops[index]
        node.ops[index] = FLIPS[type(old)]()
        return f"{type(old).__name__} -> {type(node.ops[index]).__name__} (operator {index})"
    if isinstance(node, ast.UnaryOp):
        parent = parents[node]
        for field, value in ast.iter_fields(parent):
            if value is node:
                setattr(parent, field, node.operand)
            elif isinstance(value, list):
                value[:] = [node.operand if v is node else v for v in value]
        return "drop not"
    if isinstance(node, ast.Constant):
        node.value += 1
        return f"{node.value - 1} -> {node.value}"
    old = node.op
    node.op = FLIPS[type(old)]()
    return f"{type(old).__name__} -> {type(node.op).__name__}"


def mutants(module: str, name: str) -> list[tuple[str, str]]:
    """(description, mutated module source) for each mutant of one function
    that changes the module's code."""
    source = (ROOT / "src" / "factorsmith" / f"{module}.py").read_text()
    plain = ast.unparse(ast.parse(source))
    out = []
    for i in range(len(_sites(_function(ast.parse(source), name)))):
        tree = ast.parse(source)
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        node, index = _sites(_function(tree, name))[i]
        what = _mutate(node, index, parents)
        text = ast.unparse(tree)
        if text != plain:
            at = f"{node.lineno}:{node.col_offset}-{node.end_col_offset}"
            out.append(((node.lineno, node.col_offset), f"{name}:{at}: {what}", text))
    return [(what, text) for _at, what, text in sorted(out, key=lambda m: m[0])]


def run_mutant(module: str, text: str) -> str:
    """killed, timeout or survived: the four test files on a copy with
    `module` replaced by `text`."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", Path(tmp) / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        (Path(tmp) / "src" / "factorsmith" / f"{module}.py").write_text(text)
        files = [OWN_TESTS[module], *(f for f in TEST_FILES if f != OWN_TESTS[module])]
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-c", CAPPED_PYTEST, "-x", "-q", "-p", "no:cacheprovider", *(f"tests/{f}" for f in files)]
        try:
            done = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("functions", nargs="*", help="target functions to mutate (default: all)")
    args = ap.parse_args()
    targets = [t for t in TARGETS if not args.functions or t[1] in args.functions]
    work = [(module, name, what, text) for module, name in targets for what, text in mutants(module, name)]
    if run_mutant("reducer", (ROOT / "src" / "factorsmith" / "reducer.py").read_text()) != "survived":
        print("the unmutated tests fail; no mutant run", flush=True)
        return 2
    print(f"{len(work)} mutants", flush=True)
    tally = {name: {"killed": 0, "survived": 0} for _module, name in targets}

    def one(item):
        module, name, what, text = item
        verdict = run_mutant(module, text)
        print(f"{verdict:8} {module}.{what}", flush=True)
        return name, verdict

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for name, verdict in pool.map(one, work):
            tally[name]["survived" if verdict == "survived" else "killed"] += 1
    for name, counts in tally.items():
        print(f"{name:20} killed {counts['killed']:3}  survived {counts['survived']:3}")
    return 1 if any(c["survived"] for c in tally.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
