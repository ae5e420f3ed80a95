"""Dead code stays out of ``src/``.

Every function and class defined under ``src/`` must be named somewhere
in ``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` besides its own
definition — a call, an import, an ``__all__`` entry, a docstring
reference.  Stricter: it must be *used* by the program — named by code
in ``src/`` (not a docstring, not a package ``__init__`` re-export),
``benchmarks/`` or ``examples/`` — unless :data:`TESTED_ONLY` gives the
reason a name only tests call stays.  Dunders (called by Python) and the
server's ``_op_*`` request handlers (found by ``getattr`` from the wire
op name) are exempt.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks", "examples")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: ``src/`` definitions only tests call, each with the reason it stays
TESTED_ONLY = {
    "resolve_path": "public API (repro.resolve_path)",
    "apply_xquery_update": "public API (repro.apply_xquery_update)",
    "CollectingSink": "public API (repro.obs.CollectingSink)",
    "by_name": "public API (CollectingSink.by_name)",
    "ecc": "the paper's Definition 4.2.3 (TableSchema.ecc), under test",
    "replace_attribute": "the attribute replace an update statement will "
                         "route like a modify (ROADMAP)",
    "invalidate_all": "fault-injection hook of test_forced_invalidation",
}


def _exempt(name: str) -> bool:
    return (name.startswith("__") and name.endswith("__")) \
        or name.startswith("_op_")


def _modules(trees=TREES):
    """``(tree, path, text, parsed module)`` per file of ``trees``, every
    definition under ``src/`` as ``(path, line, name)``, and how often
    each name is defined in ``trees``."""
    modules, in_src, definitions = [], [], Counter()
    for tree in trees:
        for path in sorted((ROOT / tree).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            module = ast.parse(text, str(path))
            modules.append((tree, path, text, module))
            for node in ast.walk(module):
                if isinstance(node, _DEFINITIONS):
                    definitions[node.name] += 1
                    if tree == "src":
                        in_src.append((path.relative_to(ROOT), node.lineno,
                                       node.name))
    return modules, in_src, definitions


def _code_words(text: str, module: ast.Module) -> list[str]:
    """The names a module's code uses: its identifiers and the words of
    its string literals (``getattr`` names, opcode tables), docstrings
    and comments left out."""
    docstrings = set()
    for node in ast.walk(module):
        if isinstance(node, (ast.Module, *_DEFINITIONS)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add((first.lineno, first.col_offset))
    words = []
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.NAME:
            words.append(token.string)
        elif token.type == tokenize.STRING \
                and token.start not in docstrings:
            words.extend(re.findall(r"\w+", token.string))
    return words


def test_every_src_function_and_class_is_named_elsewhere():
    modules, in_src, definitions = _modules()
    mentions: Counter = Counter()
    for _tree, _path, text, _module in modules:
        mentions.update(re.findall(r"\w+", text))
    dead = [f"{path}:{line}: {name}" for path, line, name in in_src
            if not _exempt(name) and mentions[name] <= definitions[name]]
    assert not dead, "named nowhere but at their definition:\n" + \
        "\n".join(dead)


def test_every_src_function_and_class_is_used_by_the_program():
    modules, in_src, definitions = _modules(
        tuple(tree for tree in TREES if tree != "tests"))
    uses: Counter = Counter()
    for tree, path, text, module in modules:
        if not (tree == "src" and path.name == "__init__.py"):
            uses.update(_code_words(text, module))
    # a definition's own ``def``/``class`` line names it once
    tested_only = [f"{path}:{line}: {name}" for path, line, name in in_src
                   if not _exempt(name) and name not in TESTED_ONLY
                   and uses[name] <= definitions[name]]
    assert not tested_only, "only tests use (delete, or give a reason " \
        "in TESTED_ONLY):\n" + "\n".join(tested_only)
    used = [name for name in TESTED_ONLY
            if uses[name] > definitions[name]]
    assert not used, f"used by the program, drop from TESTED_ONLY: {used}"


def test_every_tested_only_name_is_defined_in_src():
    """A name deleted from ``src/`` leaves :data:`TESTED_ONLY` too."""
    _, in_src, _ = _modules(("src",))
    defined = {name for _path, _line, name in in_src}
    assert not set(TESTED_ONLY) - defined
