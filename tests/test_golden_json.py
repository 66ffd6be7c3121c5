"""Pinned CLI output: ``analyze --json --bound 3`` for a few fixed graphs,
and the text and JSON output of every subcommand on one input each.

Refactors must leave the output byte-identical; a deliberate change of
the report is a schema change and updates these hashes with it.
"""
from __future__ import annotations

import hashlib

import pytest

import arclink.cusp as cusp_mod
from arclink.calculus import DltKind, SingKind, minimal_dlt_model
from arclink.cli import main
from arclink.components import component_count, enumerate_components
from arclink.graph_core import parse_plumbing
from arclink.quotient import cyclic_quotient_components
from conftest import E8_TEXT, SIGMA_237_TEXT

CUSP_333_TEXT = """
graph cusp333
vertex v0 euler=-3 genus=0
vertex v1 euler=-3 genus=0
vertex v2 euler=-3 genus=0
edge v0 v1
edge v1 v2
edge v2 v0
"""

# The cusp 2,3,3 after an edge blow-up between v0 and v1 and a point
# blow-up on v2.
BLOWN_UP_CYCLE_TEXT = """
graph blowncycle
vertex v0 euler=-4 genus=0
vertex v1 euler=-4 genus=0
vertex v2 euler=-3 genus=0
vertex e euler=-1 genus=0
vertex p euler=-1 genus=0
edge v0 e
edge e v1
edge v1 v2
edge v2 v0
edge v2 p
"""

# Two nodes joined by a parallel edge, a loop at node a, and a tail at
# each node.
GENERAL_TEXT = """
graph knotted
vertex a euler=-7 genus=0
vertex b euler=-5 genus=1
vertex c euler=-2 genus=0
vertex d euler=-3 genus=0
vertex x euler=-2 genus=0
edge a a
edge a b
edge a b
edge b c
edge c d
edge a x
"""

CHAIN_TEXT = """
graph chain
vertex u euler=-3 genus=0
vertex w euler=-2 genus=0
vertex t euler=-4 genus=0
edge t w
edge w u
"""

# A one-curve cusp (a loop) and a two-curve cusp (a parallel edge).
CUSP_LOOP_TEXT = """
graph cuspLoop
vertex v0 euler=-5 genus=0
edge v0 v0
"""

CUSP_PAIR_TEXT = """
graph cuspPair
vertex v0 euler=-2 genus=0
vertex v1 euler=-3 genus=0
edge v0 v1
edge v1 v0
"""

GOLDEN = {
    "e8": (
        E8_TEXT,
        "8b8d89c2134a619a66ef50c3888f4e7d1e78877f12af915fb4fd3a545dfa1923",
    ),
    "sigma237": (
        SIGMA_237_TEXT,
        "879571b627ae1eb98907d054082e6e219a59b0e8e63f83169bf33add933a10dd",
    ),
    "cusp333": (
        CUSP_333_TEXT,
        "30a747e621a2871631c39c86ee32828917feaafbca903ff035b3df2e2a50990e",
    ),
    "blown_up_cycle": (
        BLOWN_UP_CYCLE_TEXT,
        "46ae502e04c12cb9c0801dea8dd6e0714b4b499b64268207090b30c5baf37a27",
    ),
    "general": (
        GENERAL_TEXT,
        "7106fc83abf31d28a9b445d6997cbf2969d6812fbbd3f5746b948cd59359066a",
    ),
    "chain": (
        CHAIN_TEXT,
        "d7f255e0ea9aa4350c4ef4d902205dd43cd682a19ca673ed800d0e15d7658391",
    ),
    "cusp_loop": (
        CUSP_LOOP_TEXT,
        "a29ef13986c2a51529b6b412ed869018beb9b75746f115137e5e46527b64574b",
    ),
    "cusp_pair": (
        CUSP_PAIR_TEXT,
        "4795371457678f585208e0faa304ed5852b2d338ae4ba2afa5c65ab67b50e68c",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_analyze_json_is_pinned(name, tmp_path, capsys):
    text, want = GOLDEN[name]
    path = tmp_path / f"{name}.graph"
    path.write_text(text)
    assert main(["analyze", str(path), "--json", "--bound", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_row_count_is_read_off_the_model(name):
    model = minimal_dlt_model(parse_plumbing(GOLDEN[name][0]))
    cls = model.sing_class
    for bound in range(1, 7):
        if model.kind is DltKind.MODEL:
            assert component_count(model, bound) == len(enumerate_components(model, bound))
        elif cls.kind is SingKind.CYCLIC_QUOTIENT:
            assert len(cyclic_quotient_components(cls.m, cls.q, bound)) == bound * cls.m


FIELD_TEXT = "d=5\nbasis=1 1/2+1/2*sqrt\nu=3/2+1/2*sqrt\n"

# argv ({g} names a file holding GENERAL_TEXT, {c} CUSP_333_TEXT, {f}
# FIELD_TEXT) and the sha256 of its stdout; every call exits 0.
CLI_GOLDEN = {
    "analyze_text": (
        ["analyze", "{g}"],
        "f1cd42e0b74cef396b174224b5d5a36a5a34629ed8c7402b82ace1872b62097a",
    ),
    "analyze_cusp_text": (
        ["analyze", "{c}"],
        "a85e54c16bfb591a5bcf8183f4aec77a83e7f8de147b7dc13eaf014a8cadf308",
    ),
    "components_text": (
        ["components", "{g}"],
        "90678c13f22b7c6b924bbb441096df14ff455467e9f30b9bfc453eb4fbe5e129",
    ),
    "components_json": (
        ["components", "{g}", "--json"],
        "ae2f46f931f79a88d1920222b4d47d4e128931801d032b52835685ad76be00b8",
    ),
    "cusp_text": (
        ["cusp", "--seq", "2,3,4"],
        "20bfa901fd28e1a5bb12503dac5a420b39bbdbd2848cf53b22d433ed301c082d",
    ),
    "cusp_json": (
        ["cusp", "--seq", "2,3,4", "--json"],
        "01b548efa2f7e8827871184f7c0955fd1e1c98e2d94580062b996adde516e807",
    ),
    "dual_text": (
        ["dual", "--seq", "2,3,4"],
        "063e9432860d73cdca19a2a1923d5956d517c3d30b00ca0e6638a30fe2bf8ae5",
    ),
    "dual_json": (
        ["dual", "--seq", "2,3,4", "--json"],
        "31c1c26805bd628af546a7b40ffedbeaede8f666ac1ddc5caeb2394c5fdbf3ba",
    ),
    "quotient_text": (
        ["quotient", "--builtin", "2T"],
        "63f45c7d6f4aa26b92471add3e00cd688d8309f801d307714fcd14159524a2e0",
    ),
    "quotient_json": (
        ["quotient", "--builtin", "2T", "--json"],
        "f9ec870eecd6d44df5098fe762b5036d916e5f1f7bf99d977f58b5594d89a0d1",
    ),
    "inoue_text": (
        ["inoue", "--field", "{f}"],
        "7e748394fa741cadd0bdd7b58b9f4226c703df82527a36103765bb308a53bc23",
    ),
    "inoue_json": (
        ["inoue", "--field", "{f}", "--json"],
        "8a1ed5b887f218ff71c6d0412394eeb4b5c11011ed249b29e5be0679441d03b5",
    ),
    "check_text": (
        ["check"],
        "e676a17ad1eae70c6d3e7584217f88be296b6d10c1076ede3f7bb5d35d34e45a",
    ),
    "check_json": (
        ["check", "--json"],
        "2744ac04d51e37703a6bc38bd777939a52db723427c8cb02d2e642207fffd121",
    ),
}


def _files(tmp_path) -> dict[str, str]:
    paths = {}
    for token, text in (("{g}", GENERAL_TEXT), ("{c}", CUSP_333_TEXT), ("{f}", FIELD_TEXT)):
        path = tmp_path / f"input{token[1]}"
        path.write_text(text)
        paths[token] = str(path)
    return paths


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_cli_output_is_pinned(name, tmp_path, capsys):
    argv, want = CLI_GOLDEN[name]
    files = _files(tmp_path)
    assert main([files.get(tok, tok) for tok in argv]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _sha(captured.out) == want


def test_falsified_cusp_prints_its_report_first(capsys, monkeypatch):
    # A wrong bridge matrix: cusp prints the whole report, then the witness.
    monkeypatch.setattr(cusp_mod, "T_MATRIX", cusp_mod.Mat2(-1, -1, 1, 3))
    assert main(["cusp", "--seq", "3,3,3", "--json"]) == 2
    captured = capsys.readouterr()
    assert _sha(captured.out) == (
        "fbd9aab7aedb0e9dbbcabe8ca7e6466160a915128e687add17b0d26c0434ed51"
    )
    assert captured.err == "FALSIFIED: MT = TM* failed for (3, 3, 3)\n"


def test_falsified_analyze_prints_nothing(tmp_path, capsys, monkeypatch):
    # analysis_report raises before anything is printed, in every mode.
    monkeypatch.setattr(cusp_mod, "T_MATRIX", cusp_mod.Mat2(-1, -1, 1, 3))
    path = _files(tmp_path)["{c}"]
    for mode in (["--json"], [], ["--quiet"]):
        assert main(["analyze", path, *mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "FALSIFIED: MT = TM* failed for (3, 3, 3)\n"
