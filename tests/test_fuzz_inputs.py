"""The refusal contract under fuzzing.

Each text parser, and the ``--seq`` reader, either returns or raises
``InputError``; any other exception is a bug.  ``cli.main`` run in process
on fuzzed argv exits 0, 1 or 2, and on 1 prints exactly one ``error:`` line
and nothing on stdout.  Inputs mix each format's directives with junk
tokens and stay tiny (bound <= 3, <= 6 vertices, ``--seq`` <= 6 entries).
"""
from __future__ import annotations

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from arclink import InputError
from arclink.cli import _parse_seq, main
from arclink.graph_core import parse_plumbing
from arclink.inoue import parse_field_file
from arclink.quotient import parse_group_file

JUNK = st.sampled_from(["", "#", "# note", "=", "x", "-", "0", "-1", "1/0", "sqrt", "*", ",", "é",
                        "99999999999999999999"])


def text_of(line) -> st.SearchStrategy[str]:
    return st.lists(st.one_of(line, JUNK), max_size=8).map("\n".join)


ID = st.sampled_from(["a", "b", "c", "d", "e", "f"])
GRAPH_TEXT = text_of(st.one_of(
    st.builds("vertex {} euler={} genus={}".format, ID, st.integers(-4, 1), st.integers(-1, 1)),
    st.builds("edge {} {}".format, ID, ID),
    st.builds("arrow {}".format, ID),
    st.builds("graph {}".format, ID),
    st.lists(st.one_of(ID, JUNK, st.sampled_from(
        ["vertex", "edge", "arrow", "graph", "euler=-2", "genus=0", "euler=x", "genus"])), max_size=5,
    ).map(" ".join),
))

GROUP_TOKEN = st.sampled_from(["0", "1", "-1", "2", "1/2", "-1/2", "sqrt", "1/2*sqrt", "-1/2*sqrt",
                               "1/4+1/4*sqrt", "-1/4+1/4*sqrt", "x", "1/0"])
GROUP_TEXT = st.one_of(
    st.just("d=5\n1/2 1/2 1/2 1/2\n1/4+1/4*sqrt 1/2 -1/4+1/4*sqrt 0\n"),
    text_of(st.one_of(
        st.builds("d={}".format, st.sampled_from(["5", "2", "3", "0", "-3", "4", "x", ""])),
        st.builds("matrix {}".format, st.sampled_from(["1", "2", "0", "-1", "x", ""])),
        st.lists(GROUP_TOKEN, min_size=1, max_size=5).map(" ".join),
    )),
)

FIELD_TOKEN = st.sampled_from(["1", "sqrt", "2*sqrt", "1/2+1/2*sqrt", "3/2+1/2*sqrt", "3+2*sqrt",
                               "2+sqrt", "1+sqrt", "0", "-1", "x", "1/0"])
FIELD_TEXT = st.one_of(
    st.sampled_from(["d=5\nbasis=1 1/2+1/2*sqrt\nu=3/2+1/2*sqrt\n", "d=2\nbasis=sqrt 1\nu=3+2*sqrt\n",
                     "# d=3\nd=3\nbasis=1 sqrt\n\nu=2+sqrt  # unit\n"]),
    st.builds("d={}\nbasis=1 {}\nu={}\n".format, st.sampled_from(["2", "3", "5"]), FIELD_TOKEN, FIELD_TOKEN),
    text_of(st.one_of(
        st.builds("d={}".format, st.sampled_from(["5", "2", "3", "0", "-1", "4", "x", ""])),
        st.lists(FIELD_TOKEN, max_size=3).map(lambda toks: "basis=" + " ".join(toks)),
        st.builds("u={}".format, FIELD_TOKEN),
    )),
)

SEQ = st.lists(st.sampled_from(["2", "3", "4", "5", "0", "-1", "x", "", " 3", "99999999999999999999999"]),
               min_size=1, max_size=6).map(",".join)


def returns_or_refuses(parse, text: str) -> None:
    try:
        parse(text)
    except InputError:
        pass


@given(GRAPH_TEXT)
def test_parse_plumbing_returns_or_refuses(text):
    returns_or_refuses(parse_plumbing, text)


@given(GROUP_TEXT)
def test_parse_group_file_returns_or_refuses(text):
    returns_or_refuses(parse_group_file, text)


@given(FIELD_TEXT)
def test_parse_field_file_returns_or_refuses(text):
    returns_or_refuses(parse_field_file, text)


@given(SEQ)
def test_seq_returns_or_refuses(text):
    returns_or_refuses(_parse_seq, text)


# -- argv through cli.main -------------------------------------------------------

BOUND = st.one_of(st.just([]), st.sampled_from(["-1", "0", "1", "2", "3", "x"]).map(lambda b: ["--bound", b]))
OPTS = st.lists(st.sampled_from(["--json", "--quiet", "--json", "--quiet", "--bound", "3", "x", "--frob"]),
                max_size=2)
BUILTIN = st.sampled_from(["2T", "2I", "Q8", "cyclic:3", "cyclic:x", "cyclic:0", "cyclic:2000", "bd:1",
                           "bd:3", "bd:7", "", "nonsense"])


@st.composite
def invocations(draw):
    """(argv with {g}, {q} and {f} standing for the three files, their texts)."""
    graph, group, field = draw(GRAPH_TEXT), draw(GROUP_TEXT), draw(FIELD_TEXT)
    sub = draw(st.sampled_from(["analyze", "components", "cusp", "dual", "quotient", "inoue", "frobnicate"]))
    if sub in ("analyze", "components"):
        argv = [sub, draw(st.sampled_from(["{g}", "{missing}"]))] + draw(BOUND)
    elif sub in ("cusp", "dual"):
        argv = [sub, "--seq", draw(SEQ)] + (draw(BOUND) if sub == "cusp" else [])
    elif sub == "quotient":
        sources = [["--builtin", draw(BUILTIN)], ["--group", "{q}"]]
        argv = [sub] + [tok for src in draw(st.sets(st.sampled_from([0, 1]))) for tok in sources[src]]
    elif sub == "inoue":
        argv = [sub, "--field", "{f}"] + draw(BOUND)
    else:
        argv = [sub]
    return argv + draw(OPTS), {"g": graph, "q": group, "f": field}


@settings(max_examples=150, deadline=None)
@given(invocations())
def test_main_exit_codes_and_one_error_line(tmp_path_factory, invocation):
    argv, files = invocation
    where = tmp_path_factory.mktemp("argv")
    for name, text in files.items():
        (where / name).write_text(text, encoding="utf-8")
    argv = [str(where / tok[1:-1]) if tok.startswith("{") else tok for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        lines = [ln for ln in err.getvalue().splitlines() if ln.strip()]
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
        assert out.getvalue() == "", argv
