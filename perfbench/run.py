"""meanlab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload ladder|regimes|point --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it times set-up in SETUP_REPEATS fresh processes and then
runs the workload for S seconds in one more, untraced, and reports the
end-to-end metrics. With ``--trace 1`` it runs one fixed pass of the workload
traced and once untraced, each in its own fresh process, and reports the
per-layer metrics and the tracing overhead. Every operation's output is
checked against ``reference/``. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it print
each metric by name and unit, and a ``record`` line with the measured stream
shares and the provenance of the run.

The workloads, the metrics and the layer each metric should move are in
``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

SETUP_REPEATS = 5
DEADLINE_S = 170.0
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "peak_rss_mb": "MB",
}


def _worker(mode: str, args, deadline: float, *extra: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, deadline: float):
    setups = [_worker("setup", args, deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
    run = _worker("run", args, deadline, "--seconds", str(args.seconds))
    metrics = {name: run[name] for name in END_TO_END if name != "setup_s"}
    metrics["setup_s"] = statistics.median(setups)
    units = END_TO_END
    return run, metrics, units, run["failed"] == 0 and run["wrong"] == 0


def per_layer(args, deadline: float):
    traced = _worker("pass", args, deadline, "--trace", "1")
    plain = _worker("pass", args, deadline, "--trace", "0")
    metrics = dict(traced["layers"])
    metrics["trace.overhead"] = traced["elapsed_s"] / plain["elapsed_s"]
    correct = (traced["digest"] == plain["digest"]
               and all(r["failed"] == 0 and r["wrong"] == 0 for r in (traced, plain)))
    return traced, metrics, LAYER_METRICS, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "meanlab" / "__init__.py").is_file():
        print(f"no meanlab source tree under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    result, metrics, units, correct = measure(args, deadline)
    for sample in result["samples"]:
        print(f"mismatch: {sample}", file=sys.stderr)
    for name in units:
        print(f"{args.workload} {name} = {metrics[name]!r} {units[name]}")
    record = {k: result[k] for k in ("seed", "nproc", "python", "numpy", "scipy",
                                     "repeat_share", "reject_share", "ops", "failed", "wrong")}
    record.update({k: result[k] for k in ("slowdown", "raw_ops_per_s") if k in result})
    record.update(workload=args.workload, trace=args.trace,
                  fail_frac=result["failed"] / result["ops"],
                  wrong_frac=result["wrong"] / result["ops"])
    print("record " + json.dumps(record, sort_keys=True))
    print("check: " + ("outputs match the reference" if correct else
                       f"FAILED: {result['failed']} raised, {result['wrong']} wrong"))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": result["ops"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
