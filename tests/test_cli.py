from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import arclink
from arclink.cli import main
from conftest import E8_TEXT, SIGMA_237_TEXT

CUSP_TEXT = """
graph cusp333
vertex v0 euler=-3 genus=0
vertex v1 euler=-3 genus=0
vertex v2 euler=-3 genus=0
edge v0 v1
edge v1 v2
edge v2 v0
"""

FIELD_TEXT = "d=5\nbasis=1 1/2+1/2*sqrt\nu=3/2+1/2*sqrt\n"
GROUP_2I_TEXT = "d=5\n1/2 1/2 1/2 1/2\n1/4+1/4*sqrt 1/2 -1/4+1/4*sqrt 0\n"
DOUBLE_EDGE_TEXT = "vertex a euler=-3 genus=0\nvertex b euler=-3 genus=0\nedge a b\nedge a b\n"


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="input.graph"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_e8(graph_file, capsys):
    code, out = run(capsys, "analyze", graph_file(E8_TEXT), "--bound", "1")
    assert code == 0
    assert "noncyclic quotient (2,3,5)" in out


def test_analyze_sigma237_json(graph_file, capsys):
    path = graph_file(SIGMA_237_TEXT)
    code, out = run(capsys, "analyze", path, "--bound", "6", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["singularity_class"]["kind"] == "general"
    assert len(report["components"]) == 19
    # determinism: byte-identical on a second run
    code2, out2 = run(capsys, "analyze", path, "--bound", "6", "--json")
    assert out2 == out


def test_analyze_cusp_reports_duality(graph_file, capsys):
    code, out = run(capsys, "analyze", graph_file(CUSP_TEXT), "--bound", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["singularity_class"]["b_sequence"] == [3, 3, 3]
    assert report["duality"]["auto_dual"] is True
    assert report["duality"]["mt_equals_tm_star"] is True


def test_analyze_chain_emits_cyclic_labels(graph_file, capsys):
    text = "\n".join(
        ["graph a4"]
        + [f"vertex v{i} euler=-2 genus=0" for i in range(4)]
        + [f"edge v{i} v{i+1}" for i in range(3)]
    )
    code, out = run(capsys, "analyze", graph_file(text), "--bound", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["singularity_class"]["m"] == 5
    labels = report["components"]
    assert len(labels) == 10
    on_curve = [l for l in labels if l["center"] == "on_curve"]
    assert [l["intersection_number"] for l in on_curve] == ["1", "2"]


def test_components_subcommand(graph_file, capsys):
    code, out = run(capsys, "components", graph_file(SIGMA_237_TEXT), "--bound", "6", "--json")
    assert code == 0
    assert len(json.loads(out)["components"]) == 19


def test_cusp_subcommand(capsys):
    code, out = run(capsys, "cusp", "--seq", "3,3,3", "--bound", "2")
    assert code == 0
    assert "((21,8),(-8,-3))" in out
    assert "auto-dual: True" in out


def test_dual_subcommand(capsys):
    code, out = run(capsys, "dual", "--seq", "2,3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["dual_sequence"] == [4]
    assert report["mt_equals_tm_star"] and report["traces_equal"]


def test_quotient_subcommand_builtin(capsys):
    code, out = run(capsys, "quotient", "--builtin", "2I")
    assert code == 0
    assert "order=120 classes=9" in out and "8 = 8 OK" in out


def test_quotient_subcommand_file(graph_file, capsys):
    path = graph_file(GROUP_2I_TEXT, "2I.grp")
    code, out = run(capsys, "quotient", "--group", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 120 and report["classes"] == 9
    assert report["mckay"]["family"] == "E8" and report["mckay"]["matches"]


def test_inoue_subcommand(graph_file, capsys):
    path = graph_file(FIELD_TEXT, "golden.field")
    code, out = run(capsys, "inoue", "--field", path, "--bound", "3")
    assert code == 0
    assert "recovered cusp sequence: 3" in out
    assert "FALSIFIED" not in out


def test_dot_export(graph_file, capsys, tmp_path):
    dot = tmp_path / "out.dot"
    code, _ = run(capsys, "analyze", graph_file(E8_TEXT), "--dot", str(dot), "--quiet")
    assert code == 0
    text = dot.read_text()
    assert "e=-2, g=0" in text and "--" in text


DOT_STRING = re.compile(r'"((?:[^"\\\n]|\\.)*)"')


def test_dot_export_escapes_quotes_and_backslashes(graph_file, capsys, tmp_path):
    ids = ['a"b', "c\\d", "e\\"]
    text = 'graph g"\\\n' + "".join(f"vertex {v} euler=-2 genus=0\n" for v in ids)
    text += f"edge {ids[0]} {ids[1]}\nedge {ids[1]} {ids[2]}\n"
    dot = tmp_path / "out.dot"
    code, _ = run(capsys, "analyze", graph_file(text), "--dot", str(dot), "--quiet")
    assert code == 0
    lines = dot.read_text(encoding="utf-8").splitlines()
    assert lines == [
        r'graph "g\"\\" {',
        r'  "a\"b" [label="a\"b\ne=-2, g=0"];',
        r'  "c\\d" [label="c\\d\ne=-2, g=0"];',
        r'  "e\\" [label="e\\\ne=-2, g=0"];',
        r'  "a\"b" -- "c\\d";',
        r'  "c\\d" -- "e\\";',
        "}",
    ]
    # Outside its quoted strings no line has a quote or a backslash, and the
    # node strings read back as the ids.
    for line in lines:
        rest = DOT_STRING.sub("", line)
        assert '"' not in rest and "\\" not in rest, line
    unescaped = [re.sub(r"\\(.)", r"\1", s) for s in DOT_STRING.findall("\n".join(lines[1:4]))]
    assert unescaped[0::2] == ids


def test_input_errors_exit_1(graph_file, capsys):
    assert main(["analyze", "/nonexistent/file.graph"]) == 1
    bad = graph_file("vertex a euler=-2 genus=0\nedge a b\n")
    assert main(["analyze", bad]) == 1
    plus = graph_file("vertex a euler=1 genus=0\n")
    assert main(["analyze", plus]) == 1
    assert main(["cusp", "--seq", "2,2"]) == 1
    assert main(["quotient", "--builtin", "nonsense"]) == 1


def test_quotient_requires_source(capsys):
    assert main(["quotient"]) == 1


def test_arrow_graph_roundtrip(graph_file, capsys):
    # The graph format has no arrowheads: an arrow line is an unknown directive.
    text = "graph g\nvertex a euler=-2 genus=1\narrow a\n"
    assert main(["analyze", graph_file(text), "--json"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: line 3: unknown directive 'arrow'\n")


# Every sweep and its case count: ranges never shrink to buy speed.
CHECK_SWEEPS = [
    ("duality sweep", 19524),
    ("dual involution", 1359),
    ("recover roundtrip", 500),
    ("chain system infeasibility", 200),
    ("mckay families", 21),
    ("negative definiteness gate", 666),
    ("seifert vs components (sigma(2,3,7))", 1),
    ("chain quotient agreement", 5460),
    ("quotient detection", 343),
    ("inoue cross-check", 3),
]


def test_check_subcommand_green(capsys):
    code, out = run(capsys, "check", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert [(s["name"], s["cases"]) for s in report["sweeps"]] == CHECK_SWEEPS
    assert all(s["passed"] and s["witness"] == "" for s in report["sweeps"])


def test_check_goes_red_under_seeded_mutation(capsys, monkeypatch):
    # Corrupting the duality bridge matrix must falsify the sweep.
    import arclink.cusp as cusp_mod

    monkeypatch.setattr(cusp_mod, "T_MATRIX", cusp_mod.Mat2(-1, -1, 1, 3))
    assert main(["check", "--quiet"]) == 2


def test_check_names_the_case_a_library_error_falls_on(capsys, monkeypatch):
    # A library error inside a sweep's witness is that case's witness and
    # names the case; the sweeps after it still run and pass.
    import arclink.checks as checks_mod
    from arclink.cusp import CuspError

    real = checks_mod.dual_sequence

    def planted(c):
        if c.b == (2, 4):
            raise CuspError("planted")
        return real(c)

    monkeypatch.setattr(checks_mod, "dual_sequence", planted)
    code, out = run(capsys, "check", "--json")
    assert code == 2
    sweeps = json.loads(out)["sweeps"]
    case = list(checks_mod._valid_sequences(5, 5)).index((2, 4)) + 1
    assert sweeps[1] == {
        "name": "dual involution", "passed": False, "cases": case,
        "witness": "raised CuspError: planted at (2, 4)",
    }
    assert all(s["passed"] for i, s in enumerate(sweeps) if i != 1)
    assert main(["check"]) == 2
    assert f"[FALSIFIED] dual involution ({case} cases): raised CuspError: planted at (2, 4)\n" in capsys.readouterr().out


def test_check_goes_red_under_a_planted_continuant(capsys, monkeypatch):
    # The ordinary (plus) continuant in place of the minus one: the
    # duality sweep must falsify, and the sweeps the wrong matrices make
    # the library reject count as falsified, not as bad input.
    import arclink.cusp as cusp_mod

    def plus_continuant(terms):
        p, q, r, s = 1, 0, 0, 1
        for a in terms:
            p, q = a * p + q, p
            r, s = a * r + s, r
        return cusp_mod.Mat2(p, q, r, s)

    monkeypatch.setattr(cusp_mod, "mono_product", plus_continuant)
    code, out = run(capsys, "check", "--json")
    assert code == 2
    sweeps = json.loads(out)["sweeps"]
    # A sweep that raised still carries its display name.
    assert [s["name"] for s in sweeps] == [name for name, _ in CHECK_SWEEPS]
    assert sweeps[0]["name"] == "duality sweep" and sweeps[0]["witness"] == "MT != TM* at (3,)"
    raised = [s for s in sweeps if s["witness"].startswith("raised CuspError")]
    assert raised and not any(s["passed"] for s in raised)


@pytest.mark.parametrize("argv", [
    ["analyze", "{g}", "--json"],
    ["cusp", "--seq", "2,3,4", "--json"],
    ["dual", "--seq", "2,3,4", "--json"],
])
def test_one_dual_construction_per_report(graph_file, capsys, monkeypatch, argv):
    import arclink.cusp as cusp_mod

    calls = []
    real = cusp_mod.dual_construction
    monkeypatch.setattr(cusp_mod, "dual_construction", lambda c: calls.append(c) or real(c))
    argv = [graph_file(CUSP_TEXT) if tok == "{g}" else tok for tok in argv]
    code, out = run(capsys, *argv)
    assert code == 0 and json.loads(out)
    assert len(calls) == 1


def test_quotient_computes_the_classes_once(capsys, monkeypatch):
    import arclink.quotient as quotient_mod

    calls = []
    real = quotient_mod.conjugacy_classes
    counted = lambda g: calls.append(g) or real(g)
    monkeypatch.setattr(quotient_mod, "conjugacy_classes", counted)
    code, out = run(capsys, "quotient", "--builtin", "2T", "--json")
    assert code == 0 and json.loads(out)["mckay"]["family"] == "E6"
    assert len(calls) == 1


def test_vertex_declaration_order_does_not_matter(graph_file, capsys):
    lines = [ln for ln in SIGMA_237_TEXT.strip().splitlines()]
    head, vertices, edges = lines[0], lines[1:5], lines[5:]
    reordered = "\n".join([head] + vertices[::-1] + edges[::-1])
    _, out1 = run(capsys, "analyze", graph_file(SIGMA_237_TEXT, "a.graph"), "--bound", "4", "--json")
    _, out2 = run(capsys, "analyze", graph_file(reordered, "b.graph"), "--bound", "4", "--json")
    assert out1 == out2


GENERAL_TEXT = """
graph twonodes
vertex n1 euler=-2 genus=1
vertex m1 euler=-2 genus=0
vertex n2 euler=-3 genus=0
vertex a euler=-2 genus=0
vertex b euler=-3 genus=0
vertex t euler=-4 genus=0
edge n1 m1
edge m1 n2
edge n2 a
edge n2 b
edge n1 t
"""


def test_analyze_general_graph_with_nodes(graph_file, capsys):
    code, out = run(capsys, "analyze", graph_file(GENERAL_TEXT), "--bound", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["singularity_class"]["kind"] == "general"
    comps = report["components"]
    kinds = {c["kind"] for c in comps}
    assert kinds == {"curve_interior", "node_point", "orbifold_point"}
    node_windings = [c["winding"] for c in comps if c["kind"] == "node_point"]
    assert all(w["type"] == "edge_torus" for w in node_windings)
    orb = [c for c in comps if c["kind"] == "orbifold_point"]
    assert all("intersection_number" in c for c in orb)


# -- malformed input: exit 1, one 'error:' line, never a traceback ------------------


_THREE_TWO_10K = ",".join(["3,2"] * 10_000)
# a cycle of 12,000 -3 curves: its cusp-lattice windings have 5,015 digits
_MINUS_THREE_CYCLE_12K = "".join(
    [f"vertex v{i} euler=-3 genus=0\n" for i in range(12_000)]
    + [f"edge v{i} v{(i + 1) % 12_000}\n" for i in range(12_000)]
)
# a -2 centre with legs -3, -3 and a leg of 4,600 -9 curves: the orbifold
# point at the end of the long leg has an order m of 4,365 digits
_LONG_LEG_STAR_4600 = "".join(
    ["vertex c euler=-2 genus=0\n", "vertex a euler=-3 genus=0\n", "vertex b euler=-3 genus=0\n",
     "edge c a\n", "edge c b\n"]
    + [f"vertex l{i} euler=-9 genus=0\n" for i in range(4_600)]
    + ["edge c l0\n"] + [f"edge l{i} l{i + 1}\n" for i in range(4_599)]
)
# a chain of 4,600 -9 curves: its class description prints an m past the limit
_MINUS_NINE_CHAIN_4600 = "".join(
    [f"vertex v{i} euler=-9 genus=0\n" for i in range(4_600)]
    + [f"edge v{i} v{i + 1}\n" for i in range(4_599)]
)


def _subprocess_env() -> dict[str, str]:
    src = str(Path(arclink.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def _run_subprocess(*argv, timeout: int = 120) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "arclink.cli", *argv], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=timeout)


def _run_with_files(tmp_path, argv, files) -> subprocess.CompletedProcess:
    """Run ``argv`` with each ``{name}`` token naming a file of ``tmp_path``,
    after writing the texts of ``files`` there."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return _run_subprocess(*[str(tmp_path / tok[1:-1]) if tok.startswith("{") else tok for tok in argv])


def test_inverse_unit_field_finishes(graph_file):
    # u^-1 = (3 - sqrt5)/2 < 1 once looped for good in the orbit reduction
    path = graph_file("d=5\nbasis=1 1/2+1/2*sqrt\nu=3/2-1/2*sqrt\n", "u-inverse.field")
    proc = _run_subprocess("inoue", "--field", path, "--bound", "3", timeout=10)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.count("[ok]") == 8 and "recovered cusp sequence: 3" in proc.stdout


def test_closed_stdout_gives_one_error_line(graph_file):
    # `<call> | head -1` on each write path: the text lines printed in one
    # call, the JSON text, and the text of the components rows.  Each
    # output is far more than the pipe holds, so the writer meets the
    # closed end.
    double = graph_file(DOUBLE_EDGE_TEXT, "double.graph")
    for argv, first in [
        (["cusp", "--seq", "3,3,3", "--bound", "200"], "monodromy "),  # 60,300 rows
        (["cusp", "--seq", "3,3,3", "--bound", "200", "--json"], "{"),
        (["components", double, "--bound", "200"], '{"kind": '),  # 40,200 rows
    ]:
        proc = subprocess.Popen([sys.executable, "-m", "arclink.cli", *argv],
                                env=_subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        with proc:
            try:
                assert proc.stdout.readline().startswith(first)
                proc.stdout.close()
                _, err = proc.communicate(timeout=120)
            finally:
                proc.kill()
        assert proc.returncode == 1, argv
        assert "Traceback" not in err and "Exception ignored" not in err
        lines = [ln for ln in err.splitlines() if ln.strip()]
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)


@pytest.mark.parametrize(
    "argv, files",
    [
        (["analyze", "{g}", "--bound", "0", "--json"], {"g": CUSP_TEXT}),
        (["components", "{g}", "--bound", "-2"], {"g": CUSP_TEXT}),
        (["cusp", "--seq", "3,3", "--bound", "0"], {}),
        (["inoue", "--field", "{f}", "--bound", "0"], {"f": FIELD_TEXT}),
        (["inoue", "--field", "{f}"], {"f": "d=5\nbasis=1 1/2+1/2*sqrt\nu=3/2+1/2*sqrtx\n"}),
        (["inoue", "--field", "{f}"], {"f": "d=five\nbasis=1 sqrt\nu=1+sqrt\n"}),
        (["inoue", "--field", "{f}"], {"f": "d=5\nbasis=1 1/0\nu=3/2+1/2*sqrt\n"}),
        (["quotient", "--group", "{f}"], {"f": "matrix 2\n1 0\n"}),
        (["quotient", "--group", "{f}"], {"f": "matrix\n1\n"}),
        (["quotient", "--group", "{f}"], {"f": "matrix 1\n1/0\n"}),
        (["cusp"], {}),
        (["frobnicate"], {}),
        (["cusp", "--seq", "3,3", "--bound", "x"], {}),
        # quaternions over Q(sqrt 2), then a d=3 line and more quaternions
        (["quotient", "--group", "{f}"], {"f": "d=2\n1/2*sqrt 1/2*sqrt 0 0\nd=3\n1/2 1/2*sqrt 0 0\n0 0 1 0\n"}),
        (["quotient", "--builtin", "cyclic:1000000"], {}),
        # the dual would have about 10^23 entries
        (["dual", "--seq", "99999999999999999999999,3"], {}),
        (["cusp", "--seq", "100000000,3"], {}),
        (["quotient", "--group", "{f}", "--builtin", "2T"], {"f": GROUP_2I_TEXT}),
        (["quotient", "--builtin", ""], {}),
        (["quotient", "--builtin", "cyclic:x"], {}),
        (["quotient", "--builtin", "bd:1"], {}),
        # --dot into a missing directory, then onto a directory ("{.}")
        (["analyze", "{g}", "--dot", "{missing/x.dot}"], {"g": CUSP_TEXT}),
        (["analyze", "{g}", "--dot", "{.}"], {"g": CUSP_TEXT}),
        # sum(b_i - 2) = 10^4 passes the dual ceiling, but the monodromy has
        # 5,720 digits, past the interpreter's int-to-str limit
        (["cusp", "--seq", _THREE_TWO_10K, "--bound", "1", "--json"], {}),
        (["dual", "--seq", _THREE_TWO_10K], {}),
        (["dual", "--seq", _THREE_TWO_10K, "--json"], {}),
        (["analyze", "{g}", "--bound", "1", "--json"], {"g": _MINUS_THREE_CYCLE_12K}),
        (["components", "{g}", "--bound", "1"], {"g": _MINUS_THREE_CYCLE_12K}),
        (["components", "{g}", "--bound", "1", "--json"], {"g": _MINUS_THREE_CYCLE_12K}),
        # k*B*(B+1)/2 rows just past the ceiling of 2*10^5: 200,385 and 200,028
        (["cusp", "--seq", "3,3,3", "--bound", "365"], {}),
        (["inoue", "--field", "{f}", "--bound", "632"], {"f": FIELD_TEXT}),
        # rows counted off the model, past the same ceiling: B*m = 3*10^8 for
        # one -3 curve, B*V + B(B-1)/2*E = 25,005,000 for a double edge
        (["analyze", "{g}", "--bound", "100000000"], {"g": "vertex a euler=-3 genus=0\n"}),
        (["components", "{g}", "--bound", "5000"], {"g": DOUBLE_EDGE_TEXT}),
        # the m of the long leg's orbifold point, in the report's rows and text
        (["analyze", "{g}", "--bound", "1", "--json"], {"g": _LONG_LEG_STAR_4600}),
        (["analyze", "{g}", "--bound", "1"], {"g": _LONG_LEG_STAR_4600}),
        (["components", "{g}", "--bound", "1"], {"g": _LONG_LEG_STAR_4600}),
        # the m of the chain's class description, made in every mode
        (["analyze", "{g}", "--bound", "1", "--quiet"], {"g": _MINUS_NINE_CHAIN_4600}),
        (["analyze", "{g}", "--bound", "1", "--json"], {"g": _MINUS_NINE_CHAIN_4600}),
    ],
)
def test_malformed_input_gives_one_error_line(tmp_path, argv, files):
    proc = _run_with_files(tmp_path, argv, files)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert proc.stdout == ""


def test_long_windings_are_refused_only_where_printed(graph_file, capsys):
    # The text form of analyze prints no winding, and --quiet prints nothing.
    path = graph_file(_MINUS_THREE_CYCLE_12K)
    code, out = run(capsys, "analyze", path, "--bound", "1")
    assert code == 0 and "components (bound 1): 12000" in out
    assert run(capsys, "components", path, "--bound", "1", "--quiet") == (0, "")


@pytest.mark.parametrize(
    "argv, files",
    [
        # --quiet makes no text, so nothing refuses the long m or monodromy
        (["analyze", "{g}", "--bound", "1", "--quiet"], {"g": _LONG_LEG_STAR_4600}),
        (["cusp", "--seq", _THREE_TWO_10K, "--bound", "1", "--quiet"], {}),
        (["dual", "--seq", _THREE_TWO_10K, "--quiet"], {}),
    ],
)
def test_long_integers_pass_where_no_text_is_made(tmp_path, argv, files):
    proc = _run_with_files(tmp_path, argv, files)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_unprintable_integer_is_refused_with_the_limit(capsys):
    default = sys.get_int_max_str_digits()
    if not default:
        pytest.skip("the interpreter has no int-to-str digit limit")
    try:
        for limit in (default, 640):  # 640 is the least limit the interpreter takes
            sys.set_int_max_str_digits(limit)
            assert main(["dual", "--seq", _THREE_TWO_10K]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: the report holds an integer of more than {limit} digits, "
                                    "the interpreter's limit on int-to-str conversion\n")
    finally:
        sys.set_int_max_str_digits(default)


def test_a_plain_value_error_in_the_text_is_a_bug(graph_file, capsys, monkeypatch):
    # The refusal of a long integer hides no other ValueError, and a line
    # made before the error is never written.
    import arclink.cli as cli

    def broken(report):
        yield "input: e8"
        raise ValueError("boom")

    monkeypatch.setattr(cli, "_pretty_report", broken)
    with pytest.raises(ValueError, match="boom"):
        main(["analyze", graph_file(E8_TEXT), "--bound", "1"])
    assert capsys.readouterr().out == ""


def test_quotient_refuses_two_sources(graph_file, capsys):
    # --group used to be ignored silently when --builtin was given too
    path = graph_file(GROUP_2I_TEXT, "2i.grp")
    assert main(["quotient", "--group", path, "--builtin", "2T"]) == 1
    captured = capsys.readouterr()
    lines = [ln for ln in captured.err.splitlines() if ln.strip()]
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert captured.out == ""


def test_a_library_bug_is_not_an_input_error(monkeypatch):
    import arclink.quotient as quotient_mod

    def broken(name):
        raise ValueError("a bug, not a refusal")

    monkeypatch.setattr(quotient_mod, "builtin_generators", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["quotient", "--builtin", "2T"])


def test_undecodable_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.graph"
    path.write_bytes("graph caf\xe9\n".encode("latin-1"))
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_quotient_of_a_noncatalog_group_says_why(graph_file, capsys):
    klein = graph_file("matrix 2\n-1 0\n0 1\nmatrix 2\n1 0\n0 -1\n", "klein.grp")
    code, out = run(capsys, "quotient", "--group", klein, "--json")
    assert code == 0
    report = json.loads(out)
    assert (report["order"], report["classes"]) == (4, 4)
    assert report["mckay"] == {"error": "abelian but not cyclic: no free SL(2) action exists"}


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cusp", "--help"])
    assert exc.value.code == 0
    assert "--seq" in capsys.readouterr().out


@pytest.mark.parametrize("sub", ["analyze", "components"])
def test_quiet_builds_no_rows(graph_file, capsys, monkeypatch, sub):
    # --quiet without --json prints nothing, so no row is built; the row
    # ceiling is still refused from the count, with the enumeration's message.
    import arclink.components as components_mod
    import arclink.quotient as quotient_mod

    double = graph_file(DOUBLE_EDGE_TEXT, "double.graph")
    curve = graph_file("vertex a euler=-3 genus=0\n", "curve.graph")
    cases = [(double, 446), (curve, 66666)]  # the last bounds under the ceiling
    refusals = []
    for path, bound in cases:
        assert main([sub, path, "--bound", str(bound + 1)]) == 1
        refusals.append(capsys.readouterr().err)

    def build_rows(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(components_mod, "enumerate_components", build_rows)
    monkeypatch.setattr(quotient_mod, "cyclic_quotient_components", build_rows)
    for (path, bound), refusal in zip(cases, refusals):
        assert run(capsys, sub, path, "--bound", str(bound), "--quiet") == (0, "")
        assert main([sub, path, "--bound", str(bound + 1), "--quiet"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == refusal
        assert refusal.startswith("error: the enumeration would have") and refusal.count("\n") == 1
        with pytest.raises(AssertionError, match="a row was built"):
            main([sub, path, "--bound", "2", "--quiet", "--json"])
