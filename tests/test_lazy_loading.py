"""The package loads on demand: ``import arclink`` loads no submodule, and a
CLI call loads only the modules its subcommand uses.  No call loads
``dataclasses`` or the ``inspect`` module it imports, and neither importing
the CLI nor a usage error loads ``fractions`` or the ``decimal`` under it.

Module sets are read from ``sys.modules`` in a fresh interpreter, so each
case pays one interpreter start; nothing is timed.
"""
from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arclink

SRC = Path(__file__).resolve().parent.parent / "src"

CLASS_BUILDERS = {"dataclasses", "inspect"}
WATCHED = ("arclink", *sorted(CLASS_BUILDERS), "decimal", "fractions")
LOADED = f"*sorted(m for m in sys.modules if m.partition('.')[0] in {WATCHED!r})"

CUSP_TEXT = """
graph cusp333
vertex v0 euler=-3 genus=0
vertex v1 euler=-3 genus=0
vertex v2 euler=-3 genus=0
edge v0 v1
edge v1 v2
edge v2 v0
"""

CHAIN_TEXT = """
graph a52
vertex a euler=-3 genus=0
vertex b euler=-2 genus=0
edge a b
"""

FIELD_TEXT = "d=5\nbasis=1 1/2+1/2*sqrt\nu=3/2+1/2*sqrt\n"

CLI = {"arclink", "arclink.cli", "arclink.inputs"}
CUSP_SIDE = CLI | {"arclink.cusp", "arclink.hjcf", "arclink.quadratic"}
GRAPH_SIDE = CUSP_SIDE | {"arclink.calculus", "arclink.components", "arclink.graph_core"}


def fresh(code: str, *argv: str) -> list[str]:
    """Run ``code`` in a new interpreter and return the words of its last line."""
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


@pytest.mark.parametrize(
    "argv, files, code, loaded",
    [
        (["dual", "--seq", "3,3,3"], {}, 0, CUSP_SIDE),
        (["cusp", "--seq", "3,3,3"], {}, 0, CUSP_SIDE),
        (["quotient", "--builtin", "2T"], {}, 0, CLI | {"arclink.quadratic", "arclink.quotient"}),
        (["inoue", "--field", "{f}"], {"f": FIELD_TEXT}, 0, CUSP_SIDE | {"arclink.inoue"}),
        (["analyze", "{g}"], {"g": CUSP_TEXT}, 0, GRAPH_SIDE),
        (["analyze", "{g}"], {"g": CHAIN_TEXT}, 0,
         GRAPH_SIDE - {"arclink.components"} | {"arclink.quotient"}),
        (["frobnicate"], {}, 1, CLI),
    ],
    ids=["dual", "cusp", "quotient", "inoue", "analyze-cusp", "analyze-chain", "usage-error"],
)
def test_a_subcommand_loads_only_its_modules(tmp_path, argv, files, code, loaded):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / tok[1:-1]) if tok.startswith("{") else tok for tok in argv]
    script = f"import sys\nfrom arclink.cli import main\nprint(main(sys.argv[1:]), {LOADED})"
    exit_code, *modules = fresh(script, *argv, "--quiet")
    assert int(exit_code) == code
    assert not CLASS_BUILDERS & set(modules)
    assert {m for m in modules if m.partition(".")[0] == "arclink"} == loaded
    if code == 1:  # a usage error loads neither fractions nor decimal
        assert set(modules) == loaded
    if argv[0] == "analyze":
        assert not {"arclink.checks", "arclink.inoue"} & set(modules)


def test_importing_the_cli_loads_only_the_cli_and_inputs():
    assert set(fresh(f"import sys, arclink.cli\nprint({LOADED})")) == CLI


def test_no_module_of_the_package_loads_dataclasses_or_inspect():
    names = [p.stem for p in (SRC / "arclink").glob("*.py") if p.stem != "__init__"]
    assert "checks" in names
    script = f"import importlib, sys\nfor n in {names!r}: importlib.import_module('arclink.' + n)\nprint({LOADED})"
    modules = set(fresh(script))
    assert {f"arclink.{n}" for n in names} <= modules
    assert not CLASS_BUILDERS & modules


def test_importing_the_package_loads_no_submodule():
    assert fresh(f"import sys, arclink\nprint({LOADED})") == ["arclink"]
    script = "import arclink\nfrom arclink import calculus\nprint(calculus.__name__)"
    assert fresh(script) == ["arclink.calculus"]


EXPORTS = [
    "ArcComponent", "ComponentKind", "Cone", "ConePosition", "ConjClasses", "CuspComponent",
    "CuspError", "CuspLattice", "CuspSequence", "DltKind", "DltModel", "EdgeTorus", "FiniteGroup",
    "GraphError", "HomotopyKind", "HomotopyType", "InoueError", "InputError", "Mat2",
    "OrbifoldPoint", "PlumbingGraph", "QuadNum", "Quaternion", "SeifertWord", "Shape", "ShapeClass",
    "SingClass", "SingKind", "Vertex", "builtin_generators", "check_duality", "classify_shape",
    "cone_position", "conjugacy_classes", "cyclic_quotient_components", "dual_sequence",
    "enumerate_components", "enumerate_cusp_components", "group_closure", "hj_expand",
    "hj_numerator", "inoue_cross_check", "intersection_matrix", "is_negative_definite",
    "mckay_report", "minimal_dlt_model", "minimal_log_resolution", "mono_product", "monodromy",
    "parse_plumbing", "recover_sequence", "reduce_mod_monodromy", "singularity_class", "v_sequence",
]


def test_the_namespace_exports_the_same_names():
    assert len(EXPORTS) == 54
    assert sorted(arclink.__all__) == EXPORTS


def test_each_name_is_the_object_of_its_defining_module():
    listed = dir(arclink)
    for name in EXPORTS:
        value = getattr(arclink, name)
        assert value.__module__.startswith("arclink."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
        assert name in listed, name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        arclink.nope
    assert not hasattr(arclink, "_resolve")


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from arclink import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)
    assert all(namespace[name] is getattr(arclink, name) for name in EXPORTS)
