"""The API that README and the benchmark's tracer name from outside the tests."""

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import pkgutil
import re
from pathlib import Path

import matprox
from matprox import acceptance, bridge, fixed_point
from matprox.cli import main
from test_cli import CHEAP

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


def _code_spans(text: str) -> set[str]:
    """The inline code spans of markdown text, fenced blocks left out, each
    with its whitespace collapsed."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    return {" ".join(span.split()) for span in re.findall(r"`([^`]+)`", text)}


def _keys(value):
    """Every object key in a JSON value, at any depth."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _keys(item)
    elif isinstance(value, list):
        for item in value:
            yield from _keys(item)


def _result_keys(tmp_path, monkeypatch) -> set[str]:
    """The keys of the results of one cheap run of each subcommand, of a
    sweep and of a leibniz run with raw residuals."""
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"points": [[0, 0], [1, 0], [0, 1]]}), encoding="utf-8")
    runs = [(command, dict(config)) for command, config in CHEAP.items()]
    runs += [("fixedpoint", {"sweep": [4], "count": 2}), ("leibniz", {**CHEAP["leibniz"], "include_raw": True})]
    argvs = []
    for i, (command, config) in enumerate(runs):
        if command == "mk":
            config["space"] = str(space)
        (tmp_path / f"{i}.config.json").write_text(json.dumps(config), encoding="utf-8")
        argvs.append([command, "--config", str(tmp_path / f"{i}.config.json")])
    monkeypatch.setattr(acceptance, "CRITERIA", [lambda: acceptance.CheckResult(1, "fake pass", True, 0.0)])
    argvs.append(["selftest"])
    keys = set()
    for i, argv in enumerate(argvs):
        out = tmp_path / f"{i}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--output", str(out)]) == 0, argv
        keys |= set(_keys(json.loads(out.read_text(encoding="utf-8"))["results"]))
    return keys


def _resolve(name: str):
    """The object a dotted name under matprox names, through the longest
    prefix that imports as a module."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part)
        return obj
    raise ImportError(name)


def test_readme_documents_every_result_key_and_names_only_public_api(tmp_path, monkeypatch):
    # README is the user contract: a change to internals alone must leave
    # it true, so it names only fields the CLI writes and public API.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Result JSON\n", 1)[1].split("\n## ", 1)[0]
    documented = {part for span in _code_spans(section) for part in span.split(".")}
    assert sorted(_result_keys(tmp_path, monkeypatch) - documented) == []
    modules = {"matprox"} | {m.name for m in pkgutil.iter_modules(matprox.__path__)}
    spans = _code_spans(text)
    assert [s for s in spans if re.search(r"(?<!\w)_[A-Za-z]|\btest_|\btests/", s)] == []
    dotted = [s for s in spans if re.fullmatch(r"[A-Za-z]\w*(\.[A-Za-z]\w*)+", s) and s.split(".")[0] in modules]
    assert len(dotted) >= 10
    for name in dotted:
        _resolve(name if name.startswith("matprox.") else "matprox." + name)


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
