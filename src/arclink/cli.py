"""Command-line interface: analyze, components, cusp, dual, quotient, inoue, check.

Exit codes: 0 success, 1 input error, 2 falsified mathematical identity
(the witness is printed).  JSON output is deterministic: same input,
byte-identical report.

Each ``cmd_*`` returns ``(report, text, failure)``: the JSON report, a
function that yields the lines of the text form, and the witness of a
falsification or None.  ``main`` alone prints one of the two forms, making
its whole text before it writes any, and then reports the falsification.
An integer longer than the interpreter's int-to-str limit is refused in
``main`` alone, where it fails to become text.

Each subcommand imports the library modules it uses when it runs, so a call
loads only those; at module level this file imports the standard library and
``inputs`` alone.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from math import gcd

from .inputs import InputError

SCHEMA = 1


class Falsified(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: one ``error:`` line, exit 1.
    Subparsers are built from the same class."""

    def error(self, message):
        raise InputError(message)


def positive_int(text: str) -> int:
    """The ``--bound`` type: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


# -- serialization helpers ----------------------------------------------------


def _fraction_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for d > 0, without importing fractions."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _mat_json(m: Mat2) -> list[list[int]]:
    return [[m.p, m.q], [m.r, m.s]]


def _graph_json(g: PlumbingGraph) -> dict:
    return {
        "name": g.name,
        "vertices": [
            {"id": v.id, "euler": v.euler, "genus": v.genus}
            for v in sorted(g.vertices, key=lambda v: v.id)
        ],
        "edges": [list(e) for e in g.edges],
        "arrows": [],  # a schema-1 key, always empty
    }


def _winding_json(w) -> dict:
    # Dispatch on the class name: an import here would run once per component.
    kind = type(w).__name__
    if kind == "SeifertWord":
        return {"type": "seifert_word", "piece": w.piece, "word": w.render()}
    if kind == "EdgeTorus":
        return {"type": "edge_torus", "chain": list(w.chain), "vector": list(w.vector)}
    assert kind == "CuspLattice", kind
    return {"type": "cusp_lattice", "vector": list(w.vector)}


def _sing_json(cls) -> dict:
    from .calculus import SingKind

    out = {"kind": cls.kind.value, "description": cls.describe()}
    if cls.kind is SingKind.CYCLIC_QUOTIENT:
        out["m"], out["q"] = cls.m, cls.q
    elif cls.kind is SingKind.NONCYCLIC_QUOTIENT:
        out["alphas"] = list(cls.alphas)
    elif cls.kind is SingKind.CUSP:
        out["b_sequence"] = list(cls.b_sequence)
    return out


def _dot_escape(text: str) -> str:
    """``text`` for the inside of a DOT quoted string: each backslash and
    double quote gets a backslash."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def write_dot(g: PlumbingGraph, path: str) -> None:
    lines = [f'graph "{_dot_escape(g.name)}" {{']
    for v in sorted(g.vertices, key=lambda v: v.id):
        vid = _dot_escape(v.id)
        lines.append(f'  "{vid}" [label="{vid}\\ne={v.euler}, g={v.genus}"];')
    for u, v in g.edges:
        lines.append(f'  "{_dot_escape(u)}" -- "{_dot_escape(v)}";')
    lines.append("}")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


# -- analysis report ------------------------------------------------------------


def analysis_report(g: PlumbingGraph, bound: int, rows: bool = True) -> dict:
    """The ``analyze`` report, read off the one minimal dlt model of ``g``.
    With ``rows`` False its ``components`` is the row count alone: nothing
    prints the rows, but the row ceiling and the duality check still hold."""
    from .calculus import SingKind, minimal_dlt_model
    from .cusp import CuspSequence, check_duality

    model = minimal_dlt_model(g)
    mlr, cls = model.source, model.sing_class
    report = {
        "schema": SCHEMA,
        "input": g.name,
        "negative_definite": True,
        "singularity_class": _sing_json(cls),
        "minimal_log_resolution": _graph_json(mlr),
        "dlt_model": {
            "kind": model.kind.value,
            "residual": _graph_json(model.residual),
            "orbifold_points": [
                {"host": p.host, "m": p.m, "omega": p.omega, "leg": p.leg}
                for p in model.orbifold_points
            ],
        },
        "bound": bound,
    }
    report["components"] = _model_components_json(model, bound, rows)
    if cls.kind is SingKind.CUSP:
        dual = check_duality(CuspSequence(cls.b_sequence))
        dual_sequence, auto_dual = dual.canonical_dual()
        report["duality"] = {
            "dual_sequence": dual_sequence,
            "auto_dual": auto_dual,
            "mt_equals_tm_star": dual.t_identity_holds,
            "traces_equal": dual.traces_equal,
        }
        if not dual.ok:
            raise Falsified(f"MT = TM* failed for {cls.b_sequence}")
    return report


def _model_components_json(model: DltModel, bound: int, rows: bool = True) -> list | dict | int:
    """The report's component rows; with ``rows`` False only their count,
    refused past the row ceiling as the enumeration would refuse it."""
    from .calculus import DltKind, SingKind

    cls = model.sing_class
    if model.kind is DltKind.MODEL:
        from .components import checked_component_count, enumerate_components

        if not rows:
            return checked_component_count(model, bound)
        return _arc_rows_json(enumerate_components(model, bound))
    if cls.kind is SingKind.CYCLIC_QUOTIENT:
        from .quotient import checked_label_count, cyclic_quotient_components

        if not rows:
            return checked_label_count(cls.m, bound)
        return [
            {
                "kind": "cyclic_quotient_label",
                "intersection_number": _fraction_text(r.m1, r.m),
                "center": r.center.value,
                "model_arc": {"m1": r.m1, "c": r.c},
            }
            for r in cyclic_quotient_components(cls.m, cls.q, bound)
        ]
    return {
        "note": (
            "noncyclic quotient: components biject with the conjugacy classes "
            "of the finite local fundamental group; see the quotient subcommand"
        )
    }


def _arc_rows_json(comps: list[ArcComponent]) -> list[dict]:
    """One dict per component.  A location's rows are consecutive and share
    its location tuple, and most share their kind and homotopy type, so the
    strings of each are made once per run of rows that share the object;
    every row still gets its own dict and lists."""
    out = []
    location = kind = homotopy = None
    for c in comps:
        if c.kind is not kind:
            kind = c.kind
            kind_text = kind.value
        if c.location is not location:
            location = c.location
            location_text = [str(x) for x in location]
        if c.homotopy is not homotopy:
            homotopy = c.homotopy
            homotopy_type, homotopy_text = homotopy.kind.value, homotopy.render()
        row = {"kind": kind_text, "location": location_text.copy(), "multiplicities": list(c.multiplicities)}
        if c.denominator is not None:
            row["denominator"] = c.denominator
            row["intersection_number"] = _fraction_text(c.multiplicities[0], c.denominator)
        row["winding"] = _winding_json(c.winding)
        row["homotopy"] = {"type": homotopy_type, "description": homotopy_text}
        out.append(row)
    return out


# -- subcommands ------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _pretty_report(report: dict):
    yield f"input: {report['input']}"
    yield f"singularity class: {report['singularity_class']['description']}"
    yield f"negative definite: {report['negative_definite']}"
    model = report["dlt_model"]
    if model["kind"] == "self_dlt":
        yield "minimal dlt modification: the singularity itself (quotient)"
    else:
        res = model["residual"]
        yield (
            f"dlt model: {len(res['vertices'])} curve(s), "
            f"{len(model['orbifold_points'])} orbifold point(s)"
        )
        for p in model["orbifold_points"]:
            yield f"  orbifold point ({p['m']},{p['omega']}) on {p['host']} (leg {p['leg']})"
    comps = report["components"]
    if isinstance(comps, dict):
        yield comps["note"]
        return
    yield f"components (bound {report['bound']}): {len(comps)}"
    for c in comps:
        if c["kind"] == "cyclic_quotient_label":
            yield (
                f"  {c['intersection_number']:>8}  {c['center']}  "
                f"model arc t -> (t^{c['model_arc']['m1']}, t^{c['model_arc']['c']})"
            )
        else:
            loc = ",".join(c["location"])
            mult = ",".join(str(m) for m in c["multiplicities"])
            extra = f" = {c['intersection_number']}" if "intersection_number" in c else ""
            yield f"  {c['kind']}[{loc}] mult ({mult}){extra}  {c['homotopy']['description']}"
    if "duality" in report:
        d = report["duality"]
        yield (
            f"dual sequence: {','.join(map(str, d['dual_sequence']))}  "
            f"auto-dual: {d['auto_dual']}  MT=TM*: {d['mt_equals_tm_star']}"
        )


def cmd_analyze(args):
    from .graph_core import parse_plumbing

    g = parse_plumbing(_read(args.graph))
    # --quiet without --json prints nothing, so no row is built
    report = analysis_report(g, args.bound, rows=args.json or not args.quiet)
    if args.dot:
        write_dot(g, args.dot)
    return report, lambda: _pretty_report(report), None


def cmd_components(args):
    from .graph_core import parse_plumbing

    g = parse_plumbing(_read(args.graph))
    # --quiet without --json prints nothing, so no row is built
    report = analysis_report(g, args.bound, rows=args.json or not args.quiet)
    comps = report["components"]
    out = {"schema": SCHEMA, "input": report["input"], "bound": args.bound, "components": comps}

    def text():
        if isinstance(comps, dict):
            yield comps["note"]
        else:
            for c in comps:
                yield json.dumps(c)

    return out, text, None


def _parse_seq(text: str) -> CuspSequence:
    from .cusp import CuspSequence

    try:
        return CuspSequence(tuple(int(tok) for tok in text.split(",")))
    except ValueError as exc:  # a bad integer, or a CuspError
        raise InputError(f"bad cusp sequence {text!r}: {exc}") from None


def cmd_cusp(args):
    from .cusp import check_duality, enumerate_cusp_components, monodromy

    c = _parse_seq(args.seq)
    m = monodromy(c)
    dual = check_duality(c)
    comps = enumerate_cusp_components(c, args.bound)
    dual_sequence, auto_dual = dual.canonical_dual()
    report = {
        "schema": SCHEMA,
        "sequence": list(c.b),
        "monodromy": _mat_json(m),
        "trace": m.trace(),
        "dual_sequence": dual_sequence,
        "auto_dual": auto_dual,
        "bound": args.bound,
        "components": [
            {
                "kind": comp.kind,
                "index": comp.index,
                "multiplicities": list(comp.multiplicities),
                "winding_vector": list(comp.vector),
            }
            for comp in comps
        ],
    }

    def text():
        yield f"monodromy {m}, trace {m.trace()}"
        yield f"dual sequence: {','.join(map(str, dual_sequence))}"
        yield f"auto-dual: {auto_dual}"
        yield f"fundamental-domain components, mass <= {args.bound}:"
        for comp in comps:
            mult = ",".join(map(str, comp.multiplicities))
            yield f"  {comp.kind}[{comp.index}] ({mult}) -> {comp.vector}"

    return report, text, None if dual.ok else f"MT = TM* failed for {c.b}"


def cmd_dual(args):
    from .cusp import check_duality

    c = _parse_seq(args.seq)
    report = check_duality(c)
    dual_sequence, auto_dual = report.canonical_dual()
    out = {
        "schema": SCHEMA,
        "sequence": list(c.b),
        "rotated": list(report.sequence),
        "dual_sequence": dual_sequence,
        "dual_construction_order": list(report.dual),
        "m": _mat_json(report.m),
        "m_star": _mat_json(report.m_star),
        "mt_equals_tm_star": report.t_identity_holds,
        "traces_equal": report.traces_equal,
        "auto_dual": auto_dual,
    }

    def text():
        yield f"dual of {','.join(map(str, c.b))}: {','.join(map(str, dual_sequence))}"
        yield f"M = {report.m}, M* = {report.m_star}"
        yield f"MT = TM*: {report.t_identity_holds}; traces equal: {report.traces_equal}"

    failure = None if report.ok else (
        f"duality identity failed for {c.b}: M={report.m}, M*={report.m_star}")
    return out, text, failure


def cmd_quotient(args):
    from .quotient import (
        builtin_generators,
        conjugacy_classes,
        group_closure,
        mckay_report,
        parse_group_file,
    )

    if args.builtin is not None:
        gens = builtin_generators(args.builtin)
    else:
        gens = parse_group_file(_read(args.group))
    group = group_closure(gens)
    classes = conjugacy_classes(group)
    out = {
        "schema": SCHEMA,
        "order": group.order,
        "classes": classes.count,
        "class_sizes": [len(cl) for cl in classes.classes],
    }
    try:
        report = mckay_report(group, classes)
    except InputError as exc:
        out["mckay"] = {"error": str(exc)}
        line = f"order={group.order} classes={classes.count} (not an SL(2)-type catalog group)"
        return out, lambda: [line], None
    out["mckay"] = {
        "family": report.family,
        "nontrivial_classes": report.nontrivial_classes,
        "expected_exceptional_curves": report.expected_exceptional_curves,
        "matches": report.matches,
    }
    failure = None if report.matches else "McKay class count does not match the exceptional-curve count"
    return out, lambda: [report.render()], failure


def cmd_inoue(args):
    from .inoue import inoue_cross_check, parse_field_file

    data = parse_field_file(_read(args.field))
    report = inoue_cross_check(data.d, data.basis, data.u, args.bound)
    out = {
        "schema": SCHEMA,
        "d": report.d,
        "matrix": _mat_json(report.matrix),
        "sequence": list(report.sequence),
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks
        ],
        "passed": report.passed,
    }
    fail = report.first_failure()
    failure = None if fail is None else f"{fail.name}: {fail.detail}"
    return out, lambda: [report.render()], failure


def cmd_check(args):
    from .checks import run_all_sweeps

    results = run_all_sweeps()
    out = {
        "schema": SCHEMA,
        "sweeps": [
            {"name": r.name, "passed": r.passed, "cases": r.cases, "witness": r.witness}
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    fail = next((r for r in results if not r.passed), None)
    failure = None if fail is None else f"{fail.name}: {fail.witness}"
    return out, lambda: [r.render() for r in results], failure


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="arclink",
        description="Exact computations on resolution graphs of surface singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bound=True):
        if bound:
            p.add_argument("--bound", type=positive_int, default=3, help="multiplicity bound (default 3)")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--quiet", action="store_true", help="suppress normal output")

    p = sub.add_parser("analyze", help="full report for a plumbing graph file")
    p.add_argument("graph")
    p.add_argument("--dot", help="write a DOT rendering of the input graph")
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("components", help="component list for a plumbing graph file")
    p.add_argument("graph")
    common(p)
    p.set_defaults(fn=cmd_components)

    p = sub.add_parser("cusp", help="monodromy and fundamental-domain enumeration")
    p.add_argument("--seq", required=True, help="comma-separated b-sequence, e.g. 3,3,3")
    common(p)
    p.set_defaults(fn=cmd_cusp)

    p = sub.add_parser("dual", help="dual sequence and the MT = TM* verification")
    p.add_argument("--seq", required=True)
    common(p, bound=False)
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("quotient", help="conjugacy classes and McKay report")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--group", help="group file (quaternion or matrix generators)")
    source.add_argument("--builtin", help="builtin group: 2T, 2O, 2I, Q8, cyclic:m, bd:n")
    common(p, bound=False)
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("inoue", help="real quadratic cross-check of a cusp")
    p.add_argument("--field", required=True, help="field data file (d=, basis=, u=)")
    common(p)
    p.set_defaults(fn=cmd_inoue)

    p = sub.add_parser("check", help="run the exhaustive invariant sweeps")
    common(p, bound=False)
    p.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report, text, failure = args.fn(args)
        # each form is made whole before any of it is written, so a refused
        # integer leaves stdout empty
        if args.json:
            print(json.dumps(report, indent=2))
        elif not args.quiet:
            print(*text(), sep="\n")
        sys.stdout.flush()
        if failure is not None:
            raise Falsified(failure)
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # the interpreter's refusal to turn a too-long integer into text,
        # met while the report or its text is made; any other is a bug
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: the report holds an integer of more than {sys.get_int_max_str_digits()} "
              "digits, the interpreter's limit on int-to-str conversion", file=sys.stderr)
        return 1
    except Falsified as exc:
        print(f"FALSIFIED: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout.  Point it at the null device, so the
        # flush at interpreter exit cannot fail on it again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed before the report was written", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
