"""The library is stdlib-only and exact, checked on its source.

Every module under src/arclink is parsed with ast; an absolute import
outside the standard library, a cmath import, a float or complex literal,
or any use of the names float or complex fails the module.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "arclink").glob("*.py"))


def violations(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            modules = []
        for module in modules:
            top = module.partition(".")[0]
            if top == "cmath":
                out.append(f"line {node.lineno}: cmath import")
            elif top not in sys.stdlib_module_names:
                out.append(f"line {node.lineno}: non-stdlib import {module}")
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            out.append(f"line {node.lineno}: literal {node.value!r}")
        if isinstance(node, ast.Name) and node.id in ("float", "complex"):
            out.append(f"line {node.lineno}: name {node.id}")
    return out


def test_sources_found():
    assert {"__init__.py", "cli.py", "quadratic.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_is_stdlib_only_and_exact(path):
    assert violations(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "import numpy",
        "from sympy.core import Rational",
        "import cmath",
        "from cmath import exp",
        "x = 0.5",
        "x = 1e-9",
        "x = 2j",
        "x = float(y)",
        "def f() -> complex: ...",
    ],
)
def test_each_rule_fires(source):
    assert len(violations(source)) == 1


def test_exact_code_passes():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "from fractions import Fraction\n"
        "from .cusp import v_sequence\n"
        "x = Fraction(1, 2)\n"
    )
    assert violations(source) == []
