"""Import hygiene, checked with the standard library's `ast`: every
imported name is used, imports sit at module level, so the import graph
of the package is what the module headers say, and the test oracles use
only an allowlisted part of the package they check."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ORACLES = ROOT / "tests" / "oracles.py"
# What `tests/oracles.py` may import from deltalens: the value types, the
# identifier scheme `tag` that the glued category's normal forms are
# retagged with, and the few constructions the reference sweeps start
# from.  Widening it makes an oracle depend on more of the code it checks,
# so it is done on purpose.
ORACLE_ALLOWLIST = {
    ("deltalens.kernel", "FinCat"),
    ("deltalens.kernel", "FinFunctor"),
    ("deltalens.kernel", "compose_functors"),
    ("deltalens.kernel", "enumerate_functors"),
    ("deltalens.kernel", "tag"),
    ("deltalens.semimonad", "j_object"),
}
FILES = sorted([*(ROOT / "src" / "deltalens").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _imported_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The names an import binds: `import a.b` binds `a`."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _exported(tree: ast.Module) -> set[str]:
    """The strings listed in a module-level `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def import_problems(source: str) -> list[str]:
    """Unused imports and imports inside functions, one line each."""
    tree = ast.parse(source)
    problems = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            problems.extend(
                f"line {node.lineno}: import inside {fn.name}"
                for node in ast.walk(fn)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            )
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            problems.extend(
                f"line {node.lineno}: unused import {name}"
                for name in _imported_names(node)
                if name not in used
            )
    return problems


def package_imports(source: str) -> set[tuple[str, str]]:
    """(module, name) for every name imported from deltalens; a plain
    `import deltalens...` counts as importing the whole module."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "deltalens":
            found.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(
                (alias.name, "*") for alias in node.names if alias.name.split(".")[0] == "deltalens"
            )
    return found


def test_checker_flags_unused_and_local_imports():
    source = "import os\nimport sys\n\n\ndef f():\n    from json import dumps\n    return dumps(sys.argv)\n"
    assert import_problems(source) == ["line 6: import inside f", "line 1: unused import os"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imports_are_used_and_at_module_level(path):
    assert import_problems(path.read_text(encoding="utf-8")) == []


def test_oracles_import_only_the_allowlist():
    assert package_imports(ORACLES.read_text(encoding="utf-8")) <= ORACLE_ALLOWLIST
    assert package_imports("import deltalens.awfs\nfrom deltalens.kernel import tag\n") == {
        ("deltalens.awfs", "*"),
        ("deltalens.kernel", "tag"),
    }
