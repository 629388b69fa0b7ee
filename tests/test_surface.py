"""The library surface: ``src/wcpx`` holds what the CLI, ``wcpx.__all__`` and
the README's library example reach, and the README's examples run as printed."""

import ast
from collections import defaultdict
from pathlib import Path

import wcpx
from wcpx.parser import parse

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


def _readme_block(heading: str, fence: str) -> str:
    """The first fenced block opened by ``fence`` under ``heading`` in README.md."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(heading, 1)[1]
    return section.split(fence, 1)[1].split("```", 1)[0]


def test_readme_library_example_prints_what_its_comments_say(monkeypatch, capsys):
    code = _readme_block("## Library use\n", "```python\n")
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "3\nTrue 3\n"


def test_readme_structure_file_parses():
    sf = parse(_readme_block("## The CLI\n", "```\n"))
    assert sf.order == [("hopf", "H"), ("algebra", "A"), ("morphism", "act"),
                        ("morphism", "coc"), ("partial_action", "smash")]
