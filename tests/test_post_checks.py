"""Where the package checks its own results, found with the standard
library's `ast`.  A post-check is a `.require(` call on a report, a call
of `factorization._check`, or a `raise InternalInvariantError`.  They
stay only on what the command line prints or writes; a cached
construction carries the argument for its result in its docstring, and
the validator or law family that uses it decides the fact."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "deltalens").glob("*.py"))
# The helpers that raise on a failed post-check, which are not post-checks
# themselves: `ValidationReport.require` and `factorization._check`.
HELPERS = {"require", "_check"}
POST_CHECKED = {
    ("awfs", "free_lens"),
    ("awfs", "lift_against_coalgebra"),
    ("factorization", "comprehensive_factorise"),
    ("factorization", "orthogonal_lift"),
    ("lens", "lens_from_discrete_opfibration"),
}


def _is_post_check(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        fn = node.func
        return (isinstance(fn, ast.Attribute) and fn.attr == "require") or (
            isinstance(fn, ast.Name) and fn.id == "_check"
        )
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "InternalInvariantError"
    return False


def post_checked_functions(source: str) -> set[str]:
    """The names of the functions that hold a post-check, the helpers left out."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name not in HELPERS:
            if any(_is_post_check(node) for node in ast.walk(fn)):
                found.add(fn.name)
    return found


def test_scanner_finds_each_kind_of_post_check():
    source = (
        "def a(x):\n    validate_functor(x).require('no')\n\n"
        "def b(x):\n    _check(x, 'no')\n\n"
        "def c(x):\n    if not x:\n        raise InternalInvariantError('no')\n\n"
        "def d(x):\n    raise InputError('no')\n\n"
        "def _check(cond, message):\n    if not cond:\n        raise InternalInvariantError(message)\n"
    )
    assert post_checked_functions(source) == {"a", "b", "c"}


def test_post_checks_stay_on_command_line_outputs():
    found = {
        (path.stem, name)
        for path in SRC
        for name in post_checked_functions(path.read_text(encoding="utf-8"))
    }
    assert found == POST_CHECKED
