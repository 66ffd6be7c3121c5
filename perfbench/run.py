#!/usr/bin/env python3
"""arclink benchmark: end-to-end and per-layer timings on seeded workloads.

Usage, from the root of a source checkout (the package need not be
installed; ``src`` is put on the path):

    python3 perfbench/run.py --workload graph_scale --seed 1 --seconds 40 --trace 0

One process runs a closed loop, one call at a time.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer ones; the last line of
stdout is one JSON object.  A results file in the schema of ROADMAP item 1
goes to ``perfbench/results/``; ``--compare`` names an earlier one whose
per-case output hashes are compared with this run's.  See README.md.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

SETUP_REPEATS = (3, 4)  # before and after the measured loop
MIN_PASSES = 2
SUBPROCESS_TIMEOUT = 150
SWEEPS = ("duality", "dual_involution", "recover_roundtrip", "chain_system", "mckay",
          "negative_definite", "seifert_vs_components", "chain_quotient_agreement",
          "quotient_detection", "inoue")
# Smaller sweep arguments for the tiny probe; () keeps the defaults, whose
# expectations (such as 19 labels at bound 6) are fixed by the sweep itself.
TINY_SWEEP_ARGS = {"duality": (3, 4), "dual_involution": (3, 4), "recover_roundtrip": (20,),
                   "chain_system": (20,), "negative_definite": (4,),
                   "chain_quotient_agreement": (3, 4), "quotient_detection": (4,)}
CLI_SUBCOMMANDS = ("analyze", "components", "cusp", "dual", "quotient", "inoue")
# End-to-end times are given in reference seconds: raw seconds times
# REF_SECONDS over the time the reference job took around the call.
REF_SECONDS = 0.005
SPEED_WINDOW = 3  # reference samples on each side of a timed call
CHECK_SAMPLE_EVERY = 0.2  # seconds between reference samples while ``check`` runs


class SetupError(Exception):
    """The checkout cannot run the benchmark (no sources, import fails)."""


def _import_arclink():
    if not (SRC / "arclink" / "__init__.py").is_file():
        raise SetupError(f"no arclink sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from arclink import calculus, checks, cli, components, cusp, graph_core, inoue, quotient
    return {"calculus": calculus, "checks": checks, "cli": cli, "components": components,
            "cusp": cusp, "graph_core": graph_core, "inoue": inoue, "quotient": quotient}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Wall seconds and result of ``python -m arclink.cli argv``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "arclink.cli", *argv], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
    return time.perf_counter() - t0, proc


def run_cli_sampled(argv: list[str], speed: Speed) -> tuple[float, float, subprocess.CompletedProcess]:
    """Like run_cli for a long child, taking a reference sample every
    CHECK_SAMPLE_EVERY seconds while it runs on the same core.

    Returns the child's seconds (wall time less the samples' own CPU time),
    the same in reference seconds at the mean speed sampled meanwhile,
    and the result.
    """
    t0 = time.perf_counter()
    first = len(speed.samples)
    child = subprocess.Popen([sys.executable, "-m", "arclink.cli", *argv], cwd=ROOT, env=_env(),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        while True:
            try:
                out, err = child.communicate(timeout=CHECK_SAMPLE_EVERY)
                break
            except subprocess.TimeoutExpired:
                if time.perf_counter() - t0 > SUBPROCESS_TIMEOUT:
                    raise
                speed.sample()
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    during = speed.samples[first:] or speed.samples[-1:]
    seconds = time.perf_counter() - t0 - sum(speed.samples[first:])
    proc = subprocess.CompletedProcess(child.args, child.returncode, out, err)
    return seconds, seconds * REF_SECONDS / statistics.fmean(during), proc


# -- machine speed --------------------------------------------------------------------


def reference_job() -> int:
    """A fixed stdlib job of the kinds of work arclink does: dict and tuple
    churn, Fraction sums, big-integer 2x2 matrix products, sorting, JSON."""
    table = {}
    acc = 0
    for i in range(3000):
        x = (i * 2654435761) % 1000003
        table[(x, i & 7)] = x
        acc += x * x
    frac = Fraction(0)
    for i in range(1, 120):
        frac += Fraction(1, i)
    m = (1, 0, 0, 1)
    for b in range(200):
        m = gen.mat_mul(m, (3 + b % 4, 1, -1, 0))
    text = json.dumps(sorted(table.items())[:800])
    return acc + frac.denominator + m[0] + len(text)


class Speed:
    """The machine's current speed, from the reference job timed between calls.

    The reference machine's speed drifts by up to half over minutes (other
    tenants share its cores), while a call's time relative to a reference
    job run beside it stays within a few percent.  So every end-to-end time
    is scaled by REF_SECONDS over the reference time measured around it.
    The process is pinned to one core, which its children inherit, so that
    the reference job and the measured calls run on the same core.  That
    core's speed jumps between two levels, about 1.6 apart, as the load on
    the host changes; a mean of samples taken at even intervals follows the
    share of time spent at each level, where their median jumps too.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def sample(self) -> float:
        """CPU seconds of one reference job, with the collector off."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.thread_time()
            reference_job()
            dt = time.thread_time() - t0
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append(dt)
        return dt

    def mark(self) -> int:
        """Sample after a timed call; the index of that sample."""
        self.sample()
        return len(self.samples) - 1

    def scale(self, seconds: float, mark: int) -> float:
        """``seconds`` of the call that ``mark`` followed, in reference seconds:
        at the mean speed of SPEED_WINDOW samples on each side of it."""
        near = self.samples[max(0, mark - SPEED_WINDOW):mark + SPEED_WINDOW]
        return seconds * REF_SECONDS / statistics.fmean(near)


# -- spans --------------------------------------------------------------------------


class Trace:
    """Seconds and counts summed per layer name, from spans around calls."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list] = defaultdict(list)  # name -> [(key, seconds)]

    def call(self, name: str, fn, *args, key=None, **kwargs):
        """fn(*args, **kwargs), timed; ``key`` also keeps this call's time."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.seconds[name] += dt
        if key is not None:
            self.samples[name].append((key, dt))
        return out

    def per_pass(self, passes: int) -> dict:
        """Seconds (as ``<name>_s``) and counts per pass."""
        out = {f"{k}_s": v / passes for k, v in self.seconds.items()}
        out.update({k: v / passes for k, v in self.counts.items()})
        return out

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n


class NoTrace(Trace):
    """Same interface, records nothing: the untraced path."""

    def call(self, name, fn, *args, key=None, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n):
        pass


def growth_exponent(samples) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    pts = [(math.log(s), math.log(t)) for s, t in samples if t > 0]
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


# -- graph_scale ----------------------------------------------------------------------


def check_report(report: dict, exp: dict) -> str | None:
    """Compare an analysis report with the generator's expectation."""
    cls = report["singularity_class"]
    if cls["kind"] != exp["kind"]:
        return f"class {cls['kind']} != {exp['kind']}"
    if "b_sequence" in exp and cls.get("b_sequence") != exp["b_sequence"]:
        return f"cusp sequence {cls.get('b_sequence')} != {exp['b_sequence']}"
    for key in ("m", "q", "alphas"):
        if key in exp and cls.get(key) != exp[key]:
            return f"{key} {cls.get(key)} != {exp[key]}"
    if "orbifold_ms" in exp:
        ms = sorted(p["m"] for p in report["dlt_model"]["orbifold_points"])
        if ms != exp["orbifold_ms"]:
            return f"orbifold orders {ms} != {exp['orbifold_ms']}"
    if "components" in exp and len(report["components"]) != exp["components"]:
        return f"{len(report['components'])} components != {exp['components']}"
    if exp["kind"] == "cusp" and not report["duality"]["mt_equals_tm_star"]:
        return "MT != TM*"
    return None


def graph_case(mods, case: gen.GraphCase, tr: Trace):
    """The ``analyze --json`` path in process: parse, report, serialize."""
    g = mods["graph_core"].parse_plumbing(case.text)
    report = mods["cli"].analysis_report(g, gen.BOUND)
    text = json.dumps(report, indent=2)
    return check_report(report, case.expect), text


def graph_case_traced(mods, case: gen.GraphCase, tr: Trace):
    """Each stage called on its own through the public API, then the report."""
    gc, calc, comp, cli = mods["graph_core"], mods["calculus"], mods["components"], mods["cli"]
    n = case.vertices
    g = tr.call("graph_core.parse", gc.parse_plumbing, case.text)
    tr.call("graph_core.definite", lambda: gc.is_negative_definite(gc.intersection_matrix(g)),
            key=(case.family, n))
    mlr = tr.call("calculus.mlr", calc.minimal_log_resolution, g)
    tr.call("calculus.class", calc.singularity_class, mlr)
    model = tr.call("calculus.dlt", calc.minimal_dlt_model, mlr)
    if model.kind is calc.DltKind.MODEL:
        comps = tr.call("components.enumerate", comp.enumerate_components, model, gen.BOUND)
        tr.count("components.count", len(comps))
    report = tr.call("cli.report", cli.analysis_report, g, gen.BOUND, key=(case.family, n))
    text = tr.call("cli.json", json.dumps, report, indent=2)
    tr.count("graph_core.vertices", len(g.vertices))
    tr.count("graph_core.edges", len(g.edges))
    blowdowns = len(g.vertices) - len(mlr.vertices)
    tails = sum(len(p.tail_ids) for p in model.orbifold_points)
    tr.count("calculus.blowdowns", blowdowns)
    tr.count("calculus.orbifold_points", len(model.orbifold_points))
    tr.count("calculus.tails", tails)
    tr.count("cli.json_bytes", len(text))
    err = check_report(report, case.expect)
    if err is None and blowdowns != case.expect["blowdowns"]:
        err = f"{blowdowns} blow-downs != {case.expect['blowdowns']}"
    if err is None and tails != case.expect["tail_vertices"]:
        err = f"{tails} contracted tail vertices != {case.expect['tail_vertices']}"
    return err, text


def graph_layer_metrics(tr: Trace, passes: int) -> dict:
    out = tr.per_pass(passes)
    out["calculus.mlr_self_s"] = out["calculus.mlr_s"] - out["graph_core.definite_s"]
    for layer, metric in (("graph_core.definite", "graph_core.definite_growth"),
                          ("cli.report", "cli.report_growth")):
        for family in gen.FAMILIES:
            per_size = defaultdict(list)
            for (fam, n), t in tr.samples[layer]:
                if fam == family:
                    per_size[n].append(t)
            pts = [(n, statistics.median(ts)) for n, ts in per_size.items()]
            out[f"{metric}.{family}"] = growth_exponent(pts)
    return out


# -- cusp_group ------------------------------------------------------------------------


def cusp_case(mods, case: gen.CuspCase, tr: Trace):
    cusp, quot, ino = mods["cusp"], mods["quotient"], mods["inoue"]
    d = case.data
    if case.kind == "sequence":
        bs = d["b"]
        c = cusp.CuspSequence(tuple(bs))
        m = tr.call("cusp.monodromy", cusp.monodromy, c)
        rep = tr.call("cusp.duality", cusp.check_duality, c)
        dual = tr.call("cusp.duality", cusp.dual_sequence, c)
        rec = tr.call("cusp.recover", cusp.recover_sequence, m)
        comps = tr.call("cusp.enumerate", cusp.enumerate_cusp_components, c, gen.BOUND)
        tr.count("cusp.components", len(comps))
        tr.count("cusp.monodromy_bits", max(abs(x) for x in (m.p, m.q, m.r, m.s)).bit_length())
        k = len(bs)
        if (m.p, m.q, m.r, m.s) != gen.monodromy_of(bs):
            return f"monodromy {m} differs from the product of the sequence", ""
        if not rep.ok:
            return "MT != TM*", ""
        if len(dual.b) != sum(b - 2 for b in bs) or sum(b - 2 for b in dual.b) != k:
            return f"dual {dual.b} breaks the length/excess exchange", ""
        if not gen.is_rotation(rec.b, bs):
            return f"recovered {rec.b} is not a rotation of the input", ""
        if len(comps) != k * gen.BOUND * (gen.BOUND + 1) // 2:
            return f"{len(comps)} components for k={k}", ""
        return None, ""
    if case.kind == "reduce":
        c = cusp.CuspSequence(tuple(d["b"]))
        rep, ell = tr.call("cusp.reduce", cusp.reduce_mod_monodromy, d["moved"], c)
        if tuple(rep) != tuple(d["w"]) or ell != -d["power"]:
            return f"reduced to {rep} with l={ell}, expected {d['w']} with {-d['power']}", ""
        return None, ""
    if case.kind == "group":
        gens = quot.builtin_generators(d["name"])
        grp = tr.call("quotient.closure", quot.group_closure, gens)
        cc = tr.call("quotient.classes", quot.conjugacy_classes, grp)
        mk = tr.call("quotient.mckay", quot.mckay_report, grp)
        tr.count("quotient.order", grp.order)
        tr.count("quotient.table_cells", sum(len(row) for row in grp.table))
        order, classes, family = gen.group_expect(d["name"])
        if (grp.order, cc.count, mk.family, mk.matches) != (order, classes, family, True):
            return (f"order {grp.order}, {cc.count} classes, {mk.family} "
                    f"(matches={mk.matches}); expected {order}, {classes}, {family}"), ""
        return None, ""
    fd = ino.parse_field_file(gen.field_text(d))
    rep = tr.call("inoue.cross_check", ino.inoue_cross_check, fd.d, fd.basis, fd.u, gen.BOUND)
    p, q, r, s = gen.monodromy_of(rep.sequence)
    if not rep.passed:
        return f"cross-check failed: {rep.first_failure().name}", ""
    if p + s != d["trace"] or rep.matrix.trace() != d["trace"]:
        return f"trace of {rep.sequence} is {p + s}, expected {d['trace']}", ""
    if d["sequence"] is not None and list(rep.sequence) != d["sequence"]:
        return f"sequence {rep.sequence} != {d['sequence']}", ""
    return None, ""


# -- cli_batch -------------------------------------------------------------------------


def _resolve(case: gen.CliCase, workdir: Path) -> list[str]:
    out = []
    for tok in case.argv:
        if tok.startswith("{") and tok.endswith("}"):
            tok = str(workdir / f"{case.id}.{tok[1:-1]}")
        out.append(tok)
    return out


def write_cli_files(corpus, workdir: Path) -> None:
    for case in corpus:
        for name, text in case.files.items():
            (workdir / f"{case.id}.{name}").write_text(text, encoding="utf-8")


def check_cli(case: gen.CliCase, proc: subprocess.CompletedProcess) -> str | None:
    exp = case.expect
    if exp.get("error"):
        lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
        if proc.returncode != 1:
            return f"exit {proc.returncode}, expected 1"
        if "Traceback" in proc.stderr:
            return "traceback on stderr: " + (lines[-1] if lines else "")
        if len(lines) != 1 or not lines[0].startswith("error:") or proc.stdout:
            return f"expected one 'error:' line, got {lines!r}"
        return None
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    try:
        out = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    kind = exp["json"]
    if kind == "analyze":
        return check_report(out, exp["graph"])
    if kind == "components":
        n, want = len(out["components"]), exp["graph"]["components"]
        return None if n == want else f"{n} components != {want}"
    if kind == "cusp":
        bs, k = exp["b"], len(exp["b"])
        mono = gen.monodromy_of(bs)
        if out["monodromy"] != [[mono[0], mono[1]], [mono[2], mono[3]]]:
            return f"monodromy {out['monodromy']} differs from the product of the sequence"
        if len(out["components"]) != exp["count"]:
            return f"{len(out['components'])} components != {exp['count']}"
        if len(out["dual_sequence"]) != sum(b - 2 for b in bs):
            return "dual length != sum(b - 2)"
        return None
    if kind == "dual":
        bs, dual = exp["b"], out["dual_sequence"]
        if len(dual) != sum(b - 2 for b in bs) or sum(b - 2 for b in dual) != len(bs):
            return f"dual {dual} breaks the length/excess exchange"
        if not (out["mt_equals_tm_star"] and out["traces_equal"]):
            return "MT != TM*"
        return None
    if kind == "quotient":
        got = (out["order"], out["classes"], out["mckay"].get("family"), out["mckay"].get("matches"))
        want = (exp["order"], exp["classes"], exp["family"], True)
        return None if got == want else f"{got} != {want}"
    if kind == "inoue":
        if not out["passed"]:
            return "cross-check failed"
        p, q, r, s = gen.monodromy_of(out["sequence"])
        if p + s != exp["trace"]:
            return f"trace {p + s} != {exp['trace']}"
        if exp["sequence"] is not None and out["sequence"] != exp["sequence"]:
            return f"sequence {out['sequence']} != {exp['sequence']}"
        return None
    raise ValueError(f"unknown expectation {kind!r}")


def check_check(proc: subprocess.CompletedProcess) -> str | None:
    if proc.returncode != 0:
        return f"check exited {proc.returncode}: {proc.stderr.strip()[-200:]}"
    out = json.loads(proc.stdout)
    names = [s["name"] for s in out["sweeps"]]
    if len(names) != len(SWEEPS) or not out["passed"]:
        return f"check reported {names} passed={out['passed']}"
    return None


def cli_case(case: gen.CliCase, workdir: Path, tr: Trace):
    dt, proc = run_cli(_resolve(case, workdir))
    err = check_cli(case, proc)
    if case.expect.get("error"):
        return err, "", dt
    tr.samples[f"cli.{case.sub}"].append((case.id, dt))
    return err, hashlib.sha256(proc.stdout.encode()).hexdigest(), dt


def cli_layer_metrics(mods, corpus, tr: Trace, tiny: bool) -> tuple[dict, list[str]]:
    """Per-subcommand medians, in-process enumeration and JSON, the sweeps."""
    out: dict = {}
    failures = []
    for sub in CLI_SUBCOMMANDS:
        ts = [t for _, t in tr.samples.get(f"cli.{sub}", [])]
        out[f"cli.{sub}_s"] = statistics.median(ts)
    calc, comp, gc, cli = mods["calculus"], mods["components"], mods["graph_core"], mods["cli"]
    enum_s = json_s = 0.0
    count = nbytes = 0
    for case in corpus:
        bound = int(case.argv[case.argv.index("--bound") + 1]) if "--bound" in case.argv else 3
        if case.sub not in ("analyze", "components") or case.expect.get("error") or bound < 10:
            continue
        g = gc.parse_plumbing(case.files["g"])
        model = calc.minimal_dlt_model(calc.minimal_log_resolution(g))
        t0 = time.perf_counter()
        comps = comp.enumerate_components(model, bound)
        enum_s += time.perf_counter() - t0
        report = cli.analysis_report(g, bound)
        t0 = time.perf_counter()
        text = json.dumps(report, indent=2)
        json_s += time.perf_counter() - t0
        count += len(comps)
        nbytes += len(text)
    out.update({"components.enumerate_s": enum_s, "components.count": count,
                "cli.json_s": json_s, "cli.json_bytes": nbytes})
    checks = mods["checks"]
    for name in SWEEPS:
        args = TINY_SWEEP_ARGS.get(name, ()) if tiny else ()
        t0 = time.perf_counter()
        res = getattr(checks, f"sweep_{name}")(*args)
        out[f"checks.{name}_s"] = time.perf_counter() - t0
        out[f"checks.{name}_cases"] = res.cases
        if not res.passed:
            failures.append(f"sweep {name}: {res.witness}")
    return out, failures


# -- the measured loop ------------------------------------------------------------------


class Workload:
    """Corpus, setup, one pass, and layer metrics of one workload."""

    def __init__(self, name: str, mods, seed: int, tiny: bool) -> None:
        self.name, self.mods, self.seed, self.tiny = name, mods, seed, tiny
        self.workdir: Path | None = None

    def build(self):
        if self.name == "graph_scale":
            return gen.graph_corpus(self.seed, self.tiny)
        if self.name == "cusp_group":
            return gen.cusp_corpus(self.seed, self.tiny)
        corpus = gen.cli_corpus(self.seed, self.tiny)
        if self.workdir is not None:
            shutil.rmtree(self.workdir)
        RESULTS.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="corpus-", dir=RESULTS))
        write_cli_files(corpus, self.workdir)
        return corpus

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    def run_case(self, case, tr: Trace, traced: bool):
        """(error or None, sha256 of the output or '', seconds)."""
        if self.name == "cli_batch":
            return cli_case(case, self.workdir, tr)
        t0 = time.perf_counter()
        if self.name == "graph_scale":
            err, text = (graph_case_traced if traced else graph_case)(self.mods, case, tr)
        else:
            err, text = cusp_case(self.mods, case, tr)
        dt = time.perf_counter() - t0
        return err, hashlib.sha256(text.encode()).hexdigest() if text else "", dt

    def layer_metrics(self, corpus, tr: Trace, passes: int) -> tuple[dict, list[str]]:
        if self.name == "graph_scale":
            return graph_layer_metrics(tr, passes), []
        if self.name == "cusp_group":
            return tr.per_pass(passes), []
        return cli_layer_metrics(self.mods, corpus, tr, self.tiny)


def setup(workload: Workload, repeats: int, speed: Speed):
    """Fresh-interpreter ``import arclink`` plus building the corpus, timed.

    Returns the corpus, the seconds and speed mark of each repeat, and the
    seconds of each import.
    """
    totals, imports = [], []
    corpus = None
    speed.sample()
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import arclink.cli"], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
        t1 = time.perf_counter()
        if proc.returncode != 0:
            raise SetupError(f"import arclink failed: {proc.stderr.strip()[-300:]}")
        corpus = workload.build()
        totals.append((time.perf_counter() - t0, speed.mark()))
        imports.append(t1 - t0)
    return corpus, totals, imports


class Tally:
    """Per-case timings, failures and output hashes over the passes.

    An operation is one case: it is run once per pass and has failed if any
    of its runs failed, so ``attempted`` and ``failed`` do not depend on how
    many passes fitted in the time.
    """

    def __init__(self, speed: Speed | None = None) -> None:
        self.speed = speed  # marks each run when given, for ``times``
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.marks: dict[str, list[int]] = defaultdict(list)
        self.prescaled: dict[str, list[float]] = defaultdict(list)
        self.errors: dict[str, str] = {}
        self.digests: dict[str, str] = {}
        self.pass_walls: list[float] = []

    @property
    def attempted(self) -> int:
        return len(self.raw)

    @property
    def failed(self) -> int:
        return len(self.errors)

    def one_pass(self, workload: Workload, corpus, tr: Trace, traced: bool) -> None:
        t0 = time.perf_counter()
        for case in corpus:
            t1 = time.perf_counter()
            try:
                err, digest, dt = workload.run_case(case, tr, traced)
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                err, digest, dt = f"{type(exc).__name__}: {exc}", "", time.perf_counter() - t1
            self.record(case.id, err, dt, digest)
        self.pass_walls.append(time.perf_counter() - t0)

    def record(self, cid: str, err: str | None, dt: float, digest: str = "",
               scaled: float | None = None) -> None:
        """One run of a case; ``scaled`` is its time when already scaled."""
        self.raw[cid].append(dt)
        if scaled is not None:
            self.prescaled[cid].append(scaled)
        elif self.speed is not None:
            self.marks[cid].append(self.speed.mark())
        if digest:
            self.digests[cid] = digest
        if err is not None:
            self.errors.setdefault(cid, err)

    def times(self) -> dict[str, list[float]]:
        """Each case's run times, in reference seconds if marked."""
        if self.speed is None:
            return dict(self.raw)
        return {cid: self.prescaled.get(cid) or [self.speed.scale(dt, m)
                                                 for dt, m in zip(self.raw[cid], self.marks[cid])]
                for cid in self.raw}


def latency_stats(per_case: dict[str, float]) -> tuple[float, float, float, int]:
    """Median, tail value, tail percentile and sample count of per-case times.

    The tail is the highest percentile with at least ten samples beyond it.
    """
    vals = sorted(per_case.values())
    n = len(vals)
    j = max(0, n - 11)
    return statistics.median(vals), vals[j], 100.0 * (j + 1) / n, n


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def is_known_defect(corpus, cid: str) -> bool:
    return any(c.id == cid and getattr(c, "known_defect", False) for c in corpus)


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            corpus_hook=None) -> dict:
    """Run one workload and return the result record (see README.md).

    Set-up is repeated before and after the measured loop, so that its
    median does not rest on one moment of a machine whose speed drifts.
    """
    mods = _import_arclink()
    workload = Workload(name, mods, seed, tiny)
    speed = Speed()
    try:
        corpus, totals, imports = setup(workload, SETUP_REPEATS[0], speed)
        if corpus_hook is not None:
            corpus = corpus_hook(corpus)
        result = _measure(workload, corpus, seconds, trace, speed)
        _, more_totals, more_imports = setup(workload, SETUP_REPEATS[1], speed)
    finally:
        workload.close()
    metric, value = (("cli.import_s", imports + more_imports) if trace
                     else ("setup_s", [speed.scale(dt, m) for dt, m in totals + more_totals]))
    result["metrics"][metric] = {"value": statistics.median(value), "unit": "s"}
    return result


def _measure(workload: Workload, corpus, seconds, trace, speed: Speed) -> dict:
    name = workload.name
    tally = Tally(None if trace else speed)
    deadline = time.perf_counter() + seconds
    extra_failures: list[str] = []
    if not trace:
        # Each case time is scaled by the machine speed measured around it,
        # then the median over passes is taken.  ``check`` runs before and
        # after the passes, as one run of it varies more than a pass.  A
        # pass starts only if it and the second check can end before the
        # deadline, once the minimum is met.
        checks = [run_cli_sampled(["check", "--json"], speed)]
        for _ in range(SPEED_WINDOW):  # precede the first case
            speed.sample()
        while (len(tally.pass_walls) < MIN_PASSES
               or _fits(tally.pass_walls, deadline - checks[0][0])):
            tally.one_pass(workload, corpus, NoTrace(), traced=False)
        for _ in range(SPEED_WINDOW - 1):  # follow the last case
            speed.sample()
        checks.append(run_cli_sampled(["check", "--json"], speed))
        for check_raw, check_s, proc in checks:
            tally.record("check", check_check(proc), check_raw, scaled=check_s)
        per_case = {k: statistics.median(v) for k, v in tally.times().items() if k != "check"}
        p50, tail, tail_pct, samples = latency_stats(per_case)
        metrics = {
            "wall_s": (sum(per_case.values()), "s"),
            "latency_p50_s": (p50, "s"),
            "latency_tail_s": (tail, "s"),
            "check_s": (statistics.median(tally.times()["check"]), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ok_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
        }
        info = {"tail_percentile": tail_pct, "latency_samples": samples,
                "check_raw_s": tally.raw["check"], "reference_s": statistics.median(speed.samples)}
    else:
        # Untraced and traced passes alternate, so that drift in the
        # machine's speed falls on both sides of the overhead ratio.
        tr = Trace()
        untraced_walls, traced_walls = [], []
        pair_walls: list[float] = []
        while not pair_walls or _fits(pair_walls, deadline):
            t0 = time.perf_counter()
            tally.one_pass(workload, corpus, NoTrace(), traced=False)
            untraced_walls.append(tally.pass_walls[-1])
            tally.one_pass(workload, corpus, tr, traced=True)
            traced_walls.append(tally.pass_walls[-1])
            pair_walls.append(time.perf_counter() - t0)
        layer, extra_failures = workload.layer_metrics(corpus, tr, len(traced_walls))
        untraced = statistics.median(untraced_walls)
        layer["bench.trace_overhead"] = statistics.median(traced_walls) / untraced
        for other in WORKLOADS:
            if other != name:
                _fill_from_tiny(layer, other, workload.mods, workload.seed, extra_failures)
        metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
        info = {"traced_passes": len(traced_walls), "untraced_wall_s": untraced}
    times = tally.times()
    failures = dict(tally.errors)
    for i, msg in enumerate(extra_failures):
        failures[f"layer-probe-{i}"] = msg
    attempted = tally.attempted + len(extra_failures)
    failed = tally.failed + len(extra_failures)
    unexpected = [cid for cid in failures if not is_known_defect(corpus, cid)]
    return {
        "workload": name,
        "seed": workload.seed,
        "trace": int(trace),
        "passes": len(tally.pass_walls),
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
        "cases": [
            {"id": c.id, "best_raw_s": min(tally.raw[c.id]),
             "median_s": statistics.median(times[c.id]),
             "runs": len(times[c.id]), "ok": c.id not in tally.errors,
             "sha256": tally.digests.get(c.id, ""), **_case_shape(c)}
            for c in corpus
        ],
    }


def _fits(walls: list[float], deadline: float) -> bool:
    """Whether one more pass, as long as the median so far, ends in time."""
    return time.perf_counter() + statistics.median(walls) <= deadline


def _case_shape(case) -> dict:
    if isinstance(case, gen.GraphCase):
        return {"family": case.family, "size": case.size, "vertices": case.vertices}
    if isinstance(case, gen.CuspCase):
        return {"family": case.kind}
    return {"family": case.sub, "known_defect": case.known_defect}


def _fill_from_tiny(layer: dict, other: str, mods, seed: int, failures: list[str]) -> None:
    """Per-layer metrics of layers this workload does not exercise, from a
    traced pass over the other workload's tiny corpus."""
    wl = Workload(other, mods, seed, tiny=True)
    try:
        corpus = wl.build()
        tr = Trace()
        tally = Tally()
        tally.one_pass(wl, corpus, tr, traced=True)
        probe, extra = wl.layer_metrics(corpus, tr, 1)
    finally:
        wl.close()
    failures.extend(f"{other} probe {cid}: {msg}" for cid, msg in tally.errors.items()
                    if not is_known_defect(corpus, cid))
    failures.extend(extra)
    for k, v in probe.items():
        layer.setdefault(k, v)


WORKLOADS = ("graph_scale", "cusp_group", "cli_batch")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric == "cli.json_bytes":
        return "bytes"
    if "_growth." in metric:
        return "exponent"
    if metric == "bench.trace_overhead":
        return "ratio"
    return "count"


def git_commit() -> str:
    """HEAD of the checkout, if it is a git work tree; git looks no higher."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def compare_digests(result: dict, earlier: dict, earlier_path: str) -> str:
    old = {c["id"]: c.get("sha256", "") for c in earlier.get("cases", [])}
    same, differ, missing = 0, [], 0
    for c in result["cases"]:
        if not c["sha256"]:
            continue
        if c["id"] not in old:
            missing += 1
        elif old[c["id"]] == c["sha256"]:
            same += 1
        else:
            differ.append(c["id"])
    return (f"compare with {earlier_path}: {same} byte-identical, {len(differ)} differ"
            f"{' ' + ','.join(differ) if differ else ''}, {missing} not in the earlier file")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", help="earlier results file to compare output hashes with")
    args = ap.parse_args(argv)
    earlier = None
    if args.compare:  # read first: this run overwrites its own results file
        try:
            earlier = json.loads(Path(args.compare).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            ap.error(f"cannot read --compare file: {exc}")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    result.update({"schema": 1, "python": platform.python_version(), "commit": git_commit()})
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for cid, msg in sorted(result["failures"].items()):
        print(f"failed {cid}: {msg}")
    print(f"info: {json.dumps(result['info'])}; results in {path.relative_to(ROOT)}")
    if earlier is not None:
        print(compare_digests(result, earlier, args.compare))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
