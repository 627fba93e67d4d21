"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For each of the four workloads, runs the traced benchmark twice with seed
7 and once with seed 8. The exact counts must repeat exactly between the
two seed-7 runs, and seed 8 must run the same workload shape (variables,
factors, rows) with every answer correct. Exits 1 and names each mismatch
otherwise.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SEED, OTHER_SEED = 7, 8
EXACT = ("fgraph.variables", "fgraph.factors", "fgraph.rows", "fgraph.edges",
         "fgraph.fill_in", "fgraph.dead_rows", "transcribe.structure_repeat_frac",
         "fgraph.edges.crba", "fgraph.edges.aba", "fgraph.edges.md", "fgraph.edges.nd")
SHAPE = ("fgraph.variables", "fgraph.factors", "fgraph.rows")


def traced(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170,
                         cwd=HERE.parent)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(workload: str) -> list:
    runs = ((SEED, traced(workload, SEED)), (SEED, traced(workload, SEED)),
            (OTHER_SEED, traced(workload, OTHER_SEED)))
    problems = [f"seed {s}: correct={r['correct']} failed={r['failed']}"
                for s, r in runs if not r["correct"] or r["failed"]]
    a, b, c = ({k: v["value"] for k, v in r["metrics"].items()} for _s, r in runs)
    problems += [f"{k} differs between same-seed runs: {a[k]} vs {b[k]}"
                 for k in EXACT if a[k] != b[k]]
    problems += [f"{k} differs with seed {OTHER_SEED}: {a[k]} vs {c[k]}"
                 for k in SHAPE if a[k] != c[k]]
    return problems


def main() -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from workloads import BUILDERS

    failed = False
    for w in BUILDERS:
        problems = check(w)
        print(f"{w}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
