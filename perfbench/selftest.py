#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

For every workload, with tracing off and on, it checks that each metric
named in BENCHMARK.json is emitted and that every value is a finite
number.  It then plants one wrong expectation per workload and checks
that the harness reports it as a failed operation and as incorrect.
Exits 0 when all of that holds.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402


def _plant(workload: str):
    """A corpus hook that makes one expectation wrong."""

    def hook(corpus):
        if workload == "graph_scale":
            corpus[0].expect = dict(corpus[0].expect, components=corpus[0].expect["components"] + 1)
        elif workload == "cusp_group":
            case = next(c for c in corpus if c.kind == "reduce")
            case.data = dict(case.data, power=-case.data["power"])
        else:
            case = next(c for c in corpus if c.expect.get("json") == "quotient")
            case.expect = dict(case.expect, order=case.expect["order"] + 1)
        return corpus

    return hook


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            res = run.measure(workload, seed=1, seconds=0.1, trace=bool(trace), tiny=True)
            got = res["metrics"]
            for name, unit in wanted[trace].items():
                if name not in got:
                    problems.append(f"{workload} trace={trace}: {name} not emitted")
                elif got[name]["unit"] != unit or not math.isfinite(got[name]["value"]):
                    problems.append(f"{workload} trace={trace}: {name} = {got[name]}")
            extra = set(got) - set(wanted[trace])
            if extra:
                problems.append(f"{workload} trace={trace}: undeclared metrics {sorted(extra)}")
            if not res["correct"]:
                problems.append(f"{workload} trace={trace}: unexpected failures {res['failures']}")
            print(f"{workload} trace={trace}: {len(got)} metrics, {res['failed']} failed "
                  f"of {res['attempted']}")
        res = run.measure(workload, seed=1, seconds=0.1, trace=False, tiny=True,
                          corpus_hook=_plant(workload))
        planted = [cid for cid in res["failures"] if cid != "check"]
        known = {c.id for c in gen.cli_corpus(1, tiny=True) if c.known_defect}
        if res["correct"] or not set(planted) - known:
            problems.append(f"{workload}: planted wrong expectation not caught ({res['failures']})")
        else:
            print(f"{workload}: planted wrong expectation caught")
    for p in problems:
        print("PROBLEM:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
