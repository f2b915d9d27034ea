"""The benchmark harness's view of the program: the names it traces resolve,
and the assignment it digests is the factor search's own."""

import ast
import importlib
from fractions import Fraction
from pathlib import Path

from factorsmith.corpus import enumerate_exhaustive, random_gnp
from factorsmith.factors import find_fractional_factor
from factorsmith.reducer import extract_component_factor_detailed

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _traced() -> tuple[tuple[str, str, str], ...]:
    """The TRACED table of perfbench/run.py, read without importing it."""
    for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no TRACED table")


def test_traced_names_resolve():
    traced = _traced()
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
