"""The benchmark harness's view of the program: the names it traces resolve,
and the assignment it digests is the factor engine's own."""

import ast
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from factorsmith.corpus import enumerate_exhaustive, random_gnp, random_tree_expansion
from factorsmith.factors import find_fractional_factor
from factorsmith.families import classify_component
from factorsmith.graphs import Graph
from factorsmith.reducer import extract_component_factor_detailed

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _table(name: str):
    """A literal table of perfbench/run.py, read without importing it."""
    for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/run.py defines no {name} table")


def test_traced_names_resolve():
    traced = _table("TRACED")
    assert "reducer.from_assignment" in {layer for layer, _module, _attr in traced}
    for layer, module, attr in traced:
        owner = importlib.import_module(f"factorsmith.{module}")
        assert callable(getattr(owner, attr, None)), (layer, module, attr)


def test_digested_assignment_is_the_search_answer():
    graphs = [*enumerate_exhaustive(4), *(random_gnp(12, Fraction(1, 3), seed) for seed in range(10))]
    for g in graphs:
        for k in (1, 2):
            _cert, h, _trace = extract_component_factor_detailed(g, k)
            expected = find_fractional_factor(g, k)
            assert (h is None) == (expected is None)
            if h is not None:
                assert h.units == expected.units


def test_class_names_are_the_classifier_tags():
    members = [
        (Graph(2, [(0, 1)]), 1),
        (Graph(3, [(0, 1), (1, 2), (0, 2)]), 1),
        (Graph(5, [(i, i + 1) for i in range(4)]), 1),
        (Graph(3, [(0, 1), (0, 2)]), 2),
        (random_tree_expansion(1, 10, 0), 1),  # the core K1,3
        (random_tree_expansion(2, 7, 0), 2),  # the core P2
    ]
    assert [classify_component(t, k).kind for t, k in members] == list(_table("CLASSES"))


def test_start_up_skips_dataclasses_and_the_pool():
    """The command line and the modules the benchmark loads import neither
    dataclasses (nor the inspect module it pulls in) nor the process pool,
    which `verify` loads only for --jobs > 1."""
    modules = ["cli", *_table("MODULES")]
    code = f"import sys\nfor m in {modules!r}: __import__('factorsmith.' + m)\nprint(sorted(sys.modules))"
    src = str(RUN_PY.parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(ast.literal_eval(proc.stdout))
    assert {f"factorsmith.{m}" for m in modules} <= loaded
    assert not {"dataclasses", "inspect", "concurrent.futures"} & loaded
