"""Pinned ``analyze --json --bound 3`` output for a few fixed graphs.

Refactors must leave the report byte-identical; a deliberate change of
the report is a schema change and updates these hashes with it.
"""
from __future__ import annotations

import hashlib

import pytest

from arclink.cli import main
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
