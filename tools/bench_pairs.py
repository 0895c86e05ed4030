"""Alternating before/after benchmark pairs, summarized into one JSON file.

    python3 tools/bench_pairs.py --before DIR --after DIR --out BENCH_<n>.json

DIR is the root of a checkout (the tree before the change and the tree after
it). For each workload, pair k = 1, ..., PAIRS runs ``perfbench/run.py
--trace 0 --seconds SECONDS`` once in each tree with seed k; odd pairs run
the before tree first, even pairs the after tree first. Every run must print ``check: outputs match the
reference``. For each end-to-end metric of BENCHMARK.json the output holds
the median and quartiles of each side, the after/before ratio of the medians
and the number of pairs the after tree won. Per workload it also runs
TRACES traced passes (``--trace 1``) per tree, seeds 1, ..., TRACES in the
same alternating order, and stores the median and quartiles of each
per-layer metric per side: one traced pass is too noisy to compare.
perfbench itself is only invoked, never changed.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ladder", "regimes", "point")
PAIRS = 10
TRACES = 5
SECONDS = 30.0


def run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    if "check: outputs match the reference" not in lines:
        raise SystemExit(f"{tree} {workload} seed {seed}: {proc.stdout}{proc.stderr}")
    record = next(json.loads(s[len("record "):]) for s in lines if s.startswith("record "))
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    return {"seed": seed, "metrics": metrics, "record": record}


def alternate(trees: dict, workload: str, count: int, trace: int) -> dict:
    """count runs per side with seeds 1, ..., count; odd seeds run the before
    tree first, even seeds the after tree."""
    runs = {"before": [], "after": []}
    for seed in range(1, count + 1):
        for side in (("before", "after") if seed % 2 else ("after", "before")):
            runs[side].append(run(trees[side], workload, seed, trace))
            print(workload, side, seed, trace, runs[side][-1]["metrics"], file=sys.stderr, flush=True)
    return runs


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(before: list[dict], after: list[dict], end_to_end: list[dict]) -> dict:
    out = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        b = [r["metrics"][name] for r in before]
        a = [r["metrics"][name] for r in after]
        wins = sum((y > x) if higher else (y < x) for x, y in zip(b, a))
        sb, sa = quartiles(b), quartiles(a)
        out[name] = {"unit": spec["unit"], "better": spec["better"], "before": sb, "after": sa,
                     "ratio": sa["median"] / sb["median"], "wins": wins, "pairs": len(b)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, default=ROOT)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    end_to_end = json.loads((args.after / "BENCHMARK.json").read_text())["end_to_end"]
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    doc = {"command": "perfbench/run.py --trace 0", "seconds": SECONDS,
           "pairs": PAIRS, "traces": TRACES, "order": "odd pairs before first, even pairs after first",
           "host": {"python": platform.python_version(), "machine": platform.machine()},
           "workloads": {}}
    for workload in WORKLOADS:
        runs = alternate(trees, workload, PAIRS, 0)
        entry = {"metrics": summarize(runs["before"], runs["after"], end_to_end), "runs": runs}
        traces = alternate(trees, workload, TRACES, 1)
        entry["trace"] = {
            side: {name: quartiles([r["metrics"][name] for r in rs]) for name in rs[0]["metrics"]}
            for side, rs in traces.items()
        }
        doc["workloads"][workload] = entry
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
