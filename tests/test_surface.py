"""The library surface: ``src/wcpx`` holds what the CLI, ``wcpx.__all__`` and
the README's library example reach, and that example runs as printed."""

import ast
from collections import defaultdict
from pathlib import Path

import wcpx

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wcpx"


def _is_click_command(node) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def test_every_module_level_definition_is_referenced_exported_or_a_command():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    # name -> the (module, top-level definition) of every place that names it;
    # the definition is None for module-level code outside any function or class
    owners = defaultdict(set)
    for module, tree in trees.items():
        for top in tree.body:
            owner = (module, top.name) if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    owners[node.id].add(owner)
                elif isinstance(node, ast.Attribute):
                    owners[node.attr].add(owner)
    unreached = [f"{module}.{node.name}"
                 for module, tree in trees.items() for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not owners[node.name] - {(module, node.name)}
                 and node.name not in wcpx.__all__ and not _is_click_command(node)]
    assert unreached == [], "move code that only tests use to tests/catalog.py, or delete it"


def test_readme_library_example_prints_what_its_comments_say(monkeypatch, capsys):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "3\nTrue 3\n"
