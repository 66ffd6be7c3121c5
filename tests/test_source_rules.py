"""The library is stdlib-only and exact, and refuses input with one type,
checked on its source.

Every module under src/arclink is parsed with ast; an absolute import
outside the standard library, a cmath import, a dataclasses import (a
record is a NamedTuple or a slotted class: building a dataclass costs each
CLI call the inspect import and an exec per generated method), a relative
import of a _-prefixed (module-private) name, a float or complex literal,
or any use of the names float or complex fails the module.  Every exception class
the library defines derives from InputError, except cli.Falsified, the
exit-2 outcome.  Only cli.py imports checks, so the sweeps and the oracles
they test against stay out of the library path.
"""
from __future__ import annotations

import ast
import builtins
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
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            out += [f"line {node.lineno}: private import {a.name}" for a in node.names if a.name.startswith("_")]
        for module in modules:
            top = module.partition(".")[0]
            if top in ("cmath", "dataclasses"):
                out.append(f"line {node.lineno}: {top} import")
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
        "import dataclasses",
        "from dataclasses import dataclass",
        "from .calculus import _resolve",
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


def checks_imports(source: str) -> list[str]:
    """Lines that import arclink.checks, by relative or absolute import."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "arclink." + base if base else "arclink"
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(t == "arclink.checks" or t.startswith("arclink.checks.") for t in targets):
            out.append(f"line {node.lineno}: imports checks")
    return out


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"], ids=lambda p: p.name)
def test_only_the_cli_imports_checks(path):
    assert checks_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "from .checks import seifert_data",
        "from . import checks",
        "import arclink.checks",
        "from arclink.checks import run_all_sweeps",
        "from arclink import checks",
        "def f():\n    from .checks import run_all_sweeps",
    ],
)
def test_checks_import_rule_fires(source):
    assert len(checks_imports(source)) == 1


def test_checks_import_rule_passes_other_modules():
    source = "from .calculus import minimal_dlt_model\nfrom . import cusp\nimport arclink.quotient\n"
    assert checks_imports(source) == []


EXEMPT = {("inputs", "InputError"), ("cli", "Falsified")}


def exception_violations(sources: dict[str, str]) -> list[str]:
    """Exception classes, as module.name, that do not derive from inputs.InputError."""
    classes = [
        (module, node.name, [b.id for b in node.bases if isinstance(b, ast.Name)])
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    ]
    bases = {name: names for _, name, names in classes}

    def derives(name: str, ancestor) -> bool:
        return ancestor(name) or any(derives(b, ancestor) for b in bases.get(name, ()))

    def is_builtin_exception(name: str) -> bool:
        obj = getattr(builtins, name, None)
        return isinstance(obj, type) and issubclass(obj, BaseException)

    return [
        f"{module}.{name}"
        for module, name, names in classes
        if (module, name) not in EXEMPT
        and any(derives(b, is_builtin_exception) for b in names)
        and (name == "InputError" or not any(derives(b, "InputError".__eq__) for b in names))
    ]


def test_every_library_exception_is_an_input_error():
    assert exception_violations({p.stem: p.read_text(encoding="utf-8") for p in SOURCES}) == []


def test_exception_rule_fires():
    sources = {
        "inputs": "class InputError(ValueError): ...",
        "graph": "from .inputs import InputError\nclass GraphError(InputError): ...\nclass ChainError(GraphError): ...",
        "cusp": "class CuspError(ValueError): ...\nclass Cone(Enum): ...",
        "cli": "class Falsified(Exception): ...\nclass InputError(Exception): ...",
    }
    assert exception_violations(sources) == ["cusp.CuspError", "cli.InputError"]
