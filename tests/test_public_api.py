"""The API that README and the benchmark's tracer name from outside the tests."""

import ast
import importlib
import importlib.util
from pathlib import Path

from matprox import bridge, fixed_point

ROOT = Path(__file__).resolve().parents[1]


def _tour_statements():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Library tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    return [(stmt, lines[stmt.lineno - 1]) for stmt in ast.parse(block).body]


def test_readme_library_tour_runs_and_its_comments_hold():
    # Each statement runs in order; a line commented ``# == expr`` must equal
    # expr, evaluated at that point of the tour.
    namespace: dict = {}
    checked = 0
    for stmt, line in _tour_statements():
        if isinstance(stmt, ast.Expr) and "# ==" in line:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            expected = eval(line.split("# ==", 1)[1].strip(), namespace)
            assert value == expected, line
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    # upper_bound == pair.beta, certified_bound == haus + beta, and the gap.
    assert checked == 3
    h = namespace["h"]
    assert ((h.a, h.s, h.b), h.order) == ((4, 0, 12), 3)


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_the_benchmark_traces_exists():
    for name, home, attr, _ in _tracer().TRACED:
        assert callable(getattr(importlib.import_module(home), attr)), name
    # The reach descent and the fixed-point gaps call these by name through
    # their own module, which is where the tracer rebinds them.
    assert callable(bridge.operator_norm) and callable(bridge.minimize_scalar)
    assert callable(fixed_point.operator_norms)
