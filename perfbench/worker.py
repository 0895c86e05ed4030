"""One workload in one fresh, single-threaded process.

    python3 perfbench/worker.py setup --workload W --seed S
    python3 perfbench/worker.py run   --workload W --seed S --seconds N
    python3 perfbench/worker.py pass  --workload W --seed S --trace 0|1

``setup`` times import, pair validation and measure construction. ``run``
repeats the workload's operations for N seconds and times each one. ``pass``
runs one fixed pass, the same on every call, with or without tracing, so its
counts repeat exactly. Each mode prints one JSON object. ``run.py`` starts
these processes and assembles their output.
"""

from __future__ import annotations

import os

# the program's lstsq calls are tiny; a BLAS thread pool only adds noise
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import math
import platform
import random
import resource
import signal
import statistics
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import workloads as wl  # noqa: E402

# The host's speed moves between levels up to 1.8x apart, from a fraction
# of a second to minutes at a time, with the load of other tenants; medians
# over a run do not remove that. So while work is timed, an interval timer
# runs a short pure-Python loop (calls, attribute reads, dict stores and float
# math, like the program's scalar code) every SAMPLE_EVERY_S, and each
# duration, net of those loops, is scaled by SAMPLE_REF_S over the mean time
# of the loops run during it (at least SAMPLE_MIN of the nearest ones). It
# then reads as seconds at the speed where the loop takes SAMPLE_REF_S: a
# quiet core of the 2-core host the benchmark was defined on.
SAMPLE_EVERY_S = 0.02
SAMPLE_LOOPS = 1500
SAMPLE_REF_S = 0.0005
SAMPLE_MIN = 8

# requests that warm the interpreter before timing; they are not measured
# and use pairs that no measured operation uses
WARMUP_CLI = wl.Op(
    "warmup", "cli",
    ("check-equality", "--f", "sinh(x)", "--g", "cosh(x)", "--F", "x", "--G", "1",
     "--measure", "ebm", "--lo", "-0.5", "--hi", "0.5", "--grid", "8", "--format", "json"),
)
WARMUP_POINT = wl.Op("warmup", "point", request=wl.Request(
    "warmup", "x * x", "1", (0.5, 1.5), ((0.6, 1.4),) * 8, True,
))


def load_program():
    """Import meanlab from the checkout's own source tree."""
    if not (SRC / "meanlab" / "__init__.py").is_file():
        raise SystemExit(f"no meanlab source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import meanlab
    import meanlab.cli  # noqa: F401

    if Path(meanlab.__file__).resolve().parent != (SRC / "meanlab").resolve():
        raise SystemExit(f"imported meanlab from {meanlab.__file__}, not from {SRC}")
    return meanlab


def build_measures(ml, workload: str) -> dict:
    measures = {}
    for spec in wl.measure_specs(workload):
        if spec.startswith("{"):
            measures[spec] = ml.measure_from_json(spec)
        else:
            measures[spec] = ml.preset_measure(spec)
    return measures


def setup(workload: str, seed: int):
    """Import the program, validate the workload's pairs, build its measures.

    Returns the package, the measures, and the perf_counter readings at the
    start and end of that work. The pair strings are generated before the
    clock starts: that is the benchmark's work, not the program's.
    """
    pairs = wl.setup_pairs(workload, seed)
    t0 = perf_counter()
    ml = load_program()
    for f, g, interval in pairs:
        ml.validate_pair(f, g, interval)
    measures = build_measures(ml, workload)
    return ml, measures, (t0, perf_counter())


def load_reference(workload: str) -> dict:
    if workload == "point":
        with open(REFERENCE / "point.jsonl", encoding="utf-8") as fh:
            return {row["entry"]: row for row in map(json.loads, fh)}
    with open(REFERENCE / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Counts operations that raised or whose output differs from the reference."""

    def __init__(self, workload: str):
        self.reference = load_reference(workload)
        self.attempted = self.failed = self.wrong = 0
        self.digest = hashlib.sha256()
        self.samples: list[str] = []

    def check(self, op: wl.Op, raw) -> None:
        self.attempted += 1
        self.digest.update(json.dumps([op.key, raw]).encode())
        ref = self.reference[op.key]
        if op.kind == "point":
            r = op.request
            if [r.f, r.g, list(r.interval)] != [ref["f"], ref["g"], ref["interval"]]:
                raise SystemExit(f"catalog entry {op.key} no longer matches its reference")
            ref = compare.fingerprint(ref)
        if raw is None or raw.get("code", 0) != 0:
            self.failed += 1
            self._note(f"{op.key}: raised or exited non-zero")
            return
        bad = compare.mismatches(ref, compare.fingerprint(raw))
        if bad:
            self.wrong += 1
            self._note(f"{op.key}: differs at {', '.join(bad[:4])}")

    def _note(self, text: str) -> None:
        if len(self.samples) < 5:
            self.samples.append(text)


class _Affine:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a, self.b = a, b

    def __call__(self, x: float) -> float:
        return self.a * x + self.b


def _speed_loop() -> float:
    """Seconds one run of the sampling loop takes now."""
    t0 = perf_counter()
    affine, table, acc = _Affine(0.5, 1.0), {}, 0.0
    for i in range(SAMPLE_LOOPS):
        acc += affine(i * 1e-3)
        table[i & 255] = acc
        acc += math.sin(acc * 1e-9)
    return perf_counter() - t0


class SpeedSampler:
    """Samples the host's speed while work is timed; see SAMPLE_EVERY_S."""

    def __init__(self):
        self.at: list[float] = []
        self.cost: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.at.append(perf_counter())
        self.cost.append(_speed_loop())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> float:
        """The duration from t0 to t1, net of sampling, at the reference speed."""
        i0, i1 = bisect_left(self.at, t0), bisect_right(self.at, t1)
        net = (t1 - t0) - sum(self.cost[i0:i1])
        mid = bisect_left(self.at, 0.5 * (t0 + t1))
        lo = min(i0, max(0, mid - SAMPLE_MIN // 2))
        hi = max(i1, min(len(self.at), lo + SAMPLE_MIN))
        costs = self.cost[lo:hi]
        return net * SAMPLE_REF_S * len(costs) / sum(costs)

    def slowdown(self) -> float:
        """How much slower than the reference speed the host ran."""
        return statistics.median(self.cost) / SAMPLE_REF_S


def timed_op(ml, op, measures):
    """Run one operation; return its raw output, start and end times."""
    t0 = perf_counter()
    try:
        raw = wl.run_op(ml, op, measures)
    except Exception:  # an operation that raises is a failure to count, not a crash
        raw = None
    return raw, t0, perf_counter()


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
    }


def mode_setup(args) -> dict:
    with SpeedSampler() as sampler:
        # samples on both sides of the set-up, which is short
        time.sleep(SAMPLE_MIN * SAMPLE_EVERY_S / 2)
        _, _, (t0, t1) = setup(args.workload, args.seed)
        time.sleep(SAMPLE_MIN * SAMPLE_EVERY_S / 2)
    return {"setup_s": sampler.scaled(t0, t1)}


def summarize(done: list, durations: list[float], cli: bool) -> dict:
    """Throughput and latency percentiles of a timed run.

    A cli workload repeats a fixed set of operations, so each operation
    contributes the median of its repeats; that keeps a slow stretch of the
    machine from deciding which repeat sets a percentile. A point request is
    never repeated as a whole workload, so there every sample counts.
    """
    if cli:
        by_key: dict[str, list[float]] = {}
        for op, dt in zip(done, durations):
            by_key.setdefault(op.key, []).append(dt)
        samples = sorted(statistics.median(v) for v in by_key.values())
    else:
        samples = sorted(durations)
    return {
        "ops_per_s": len(samples) / sum(samples),
        "op_s_p50": statistics.median(samples),
        "op_s_p90": statistics.quantiles(samples, n=10, method="inclusive")[-1],
    }


def mode_run(args) -> dict:
    """Time operations until the time is up.

    A cli workload runs its first pass whole, then repeats its operations,
    reshuffled each pass, for as long as the next one's last duration still
    fits; the run ends within its time with every operation timed at least
    once. The point stream runs until the time is up or the stream ends.
    """
    ml, measures, _ = setup(args.workload, args.seed)
    checker = Checker(args.workload)
    cli = args.workload != "point"
    timed_op(ml, WARMUP_CLI if cli else WARMUP_POINT, measures)
    ops = wl.workload_ops(args.workload, args.seed)
    rng = random.Random(args.seed)
    windows, done = [], []
    last: dict[str, float] = {}
    with SpeedSampler() as sampler:
        begin = perf_counter()
        while True:
            for op in ops:
                elapsed = perf_counter() - begin
                if cli and op.key in last and elapsed + last[op.key] > args.seconds:
                    break
                if not cli and elapsed >= args.seconds:
                    break
                raw, t0, t1 = timed_op(ml, op, measures)
                windows.append((t0, t1))
                done.append(op)
                last[op.key] = t1 - t0
                checker.check(op, raw)
            else:
                if cli:
                    rng.shuffle(ops)
                    continue
            break
    scaled = [sampler.scaled(t0, t1) for t0, t1 in windows]
    unscaled = summarize(done, [t1 - t0 for t0, t1 in windows], cli)
    return {
        "ops": checker.attempted, "failed": checker.failed, "wrong": checker.wrong,
        "samples": checker.samples, **summarize(done, scaled, cli),
        "slowdown": sampler.slowdown(), "raw_ops_per_s": unscaled["ops_per_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **wl.stream_shares(done), **provenance(args.seed),
    }


def fixed_pass(workload: str, seed: int) -> list[wl.Op]:
    ops = wl.workload_ops(workload, seed)
    return ops[:wl.POINT_TRACE_REQUESTS] if workload == "point" else ops


def mode_pass(args) -> dict:
    """One fixed pass; traced, it also reports the per-layer metrics."""
    ml, measures, _ = setup(args.workload, args.seed)
    checker = Checker(args.workload)
    timed_op(ml, WARMUP_CLI if args.workload != "point" else WARMUP_POINT, measures)
    ops = fixed_pass(args.workload, args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(ml)
        run = tracer.timed("op", timed_op)
    else:
        run = timed_op
    # sampling stays off during the pass: it would add its time to the spans
    sampler = SpeedSampler()
    with sampler:
        time.sleep(SAMPLE_MIN * SAMPLE_EVERY_S / 2)
    begin = perf_counter()
    for op in ops:
        raw, _, _ = run(ml, op, measures)
        checker.check(op, raw)
    end = perf_counter()
    with sampler:
        time.sleep(SAMPLE_MIN * SAMPLE_EVERY_S / 2)
    elapsed = sampler.scaled(begin, end)
    out = {
        "ops": checker.attempted, "failed": checker.failed, "wrong": checker.wrong,
        "samples": checker.samples, "elapsed_s": elapsed,
        "digest": checker.digest.hexdigest(), **wl.stream_shares(ops), **provenance(args.seed),
    }
    if tracer is not None:
        tracer.uninstall()
        # self times in seconds at the reference speed, like every timing
        to_reference = elapsed / (end - begin)
        out["layers"] = {
            k: v * to_reference if k.endswith("self_s") else v
            for k, v in tracer.layer_metrics(len(ops)).items()
        }
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.npz")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "pass"))
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = {"setup": mode_setup, "run": mode_run, "pass": mode_pass}[args.mode](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
