"""Dead code stays out of ``src/``.

Every function and class defined under ``src/`` must be named somewhere
in ``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` besides its own
definition — a call, an import, an ``__all__`` entry, a docstring
reference.  Dunders (called by Python) and the server's ``_op_*``
request handlers (found by ``getattr`` from the wire op name) are
exempt.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks", "examples")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _exempt(name: str) -> bool:
    return (name.startswith("__") and name.endswith("__")) \
        or name.startswith("_op_")


def test_every_src_function_and_class_is_named_elsewhere():
    mentions: Counter = Counter()
    definitions: Counter = Counter()
    in_src = []
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            mentions.update(re.findall(r"\w+", text))
            for node in ast.walk(ast.parse(text, str(path))):
                if isinstance(node, _DEFINITIONS):
                    definitions[node.name] += 1
                    if tree == "src":
                        in_src.append((path.relative_to(ROOT), node.lineno,
                                       node.name))
    dead = [f"{path}:{line}: {name}" for path, line, name in in_src
            if not _exempt(name) and mentions[name] <= definitions[name]]
    assert not dead, "named nowhere but at their definition:\n" + \
        "\n".join(dead)
