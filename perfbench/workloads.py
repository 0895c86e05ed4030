"""The operations each workload runs, and how a seed orders them.

An operation is one ``check-equality`` run through the CLI (``ladder``,
``regimes``) or one library request (``point``). ``run_op`` executes an
operation and returns its raw output, which ``compare.py`` checks.

All calls into meanlab go through module attributes looked up at call time,
so the wrappers a traced run installs see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass

INTERVAL = (-0.7, 0.7)
# the README witness and the non-witness; neither is equivalent to (x, 1),
# so every ladder runs to its last assertion, (viii) included
PAIRS = (("sin(x)", "cos(x)", "x", "1"), ("exp(x)", "1", "x", "1"))
LADDER_MEASURES = ("ebm", "lebesgue")
LADDER_GRIDS = (50, 100)

_S = 0.21378583129651413
_W, _B = 0.045875854768009934, 0.15891862259787443
# measures from tests/test_equality.py: one per regime and N3 branch
REGIME_MEASURES = {
    "atoms": {"type": "atoms", "atoms": [[0.0, 0.3], [0.7, 0.7]]},  # N1.5
    "density": {"type": "density", "rho": "2 * x", "order": 32},  # N1.5
    "split": {"type": "atoms", "atoms": [[0.0, 0.6 - _S], [0.6, 0.4], [1.0, _S]]},  # N2.5
    "fourth_only": {"type": "atoms", "atoms": [[0.0, 1 / 6], [0.5, 2 / 3], [1.0, 1 / 6]]},  # N3 iii
    "sixth_only": {"type": "atoms", "atoms": [[0.0, 0.1], [0.5, 0.8], [1.0, 0.1]]},  # N3 ii
    "gaussian_ratio": {
        "type": "atoms",
        "atoms": [[0.0, _W], [0.5 - _B, 0.5 - _W], [0.5 + _B, 0.5 - _W], [1.0, _W]],
    },  # N3 i
}
REGIMES_GRID = 100

WORKLOADS = ("ladder", "regimes", "point")

# point stream shape
POOL_SIZE = 24
POOL_SHARE = 0.5
REJECT_SHARE = 0.05
NUMERIC_SHARE = 0.1
POINT_MEASURES = ("ebm", "lebesgue")
MEANS_PER_MEASURE = 4
# the traced pass of point is this many requests from the head of the stream
POINT_TRACE_REQUESTS = 200
# catalog sizes; a stream ends when its fresh pairs run out
CATALOG_SIZE = 1500
REJECT_CATALOG_SIZE = 200
PAIR_FAMILIES = ("trig", "hyperbolic", "exponential", "power", "log", "polynomial")


@dataclass(frozen=True)
class Op:
    key: str
    kind: str  # "cli" or "point"
    argv: tuple[str, ...] = ()
    request: "Request | None" = None


@dataclass(frozen=True)
class Request:
    """One library request: validate a pair, evaluate means, differentiate."""

    entry: str  # "ok/<i>" or "bad/<i>": the catalog entry it comes from
    f: str
    g: str
    interval: tuple[float, float]
    points: tuple[tuple[float, float], ...]  # MEANS_PER_MEASURE per measure
    numeric: bool


# ------------------------------------------------------------- cli workloads


def _check_argv(f, g, F, G, measure: str, grid: int) -> tuple[str, ...]:
    lo, hi = INTERVAL
    return (
        "check-equality", "--f", f, "--g", g, "--F", F, "--G", G,
        "--measure", measure, "--lo", repr(lo), "--hi", repr(hi),
        "--grid", str(grid), "--format", "json",
    )


def ladder_ops() -> list[Op]:
    ops = []
    for measure in LADDER_MEASURES:
        for grid in LADDER_GRIDS:
            for pair in PAIRS:
                key = f"{measure}/{grid}/{pair[0]}"
                ops.append(Op(key, "cli", _check_argv(*pair, measure, grid)))
    return ops


def regimes_ops() -> list[Op]:
    ops = []
    for name, spec in REGIME_MEASURES.items():
        for pair in PAIRS:
            key = f"{name}/{pair[0]}"
            ops.append(Op(key, "cli", _check_argv(*pair, json.dumps(spec), REGIMES_GRID)))
    return ops


def setup_pairs(workload: str, seed: int) -> list[tuple[str, str, tuple[float, float]]]:
    """The distinct (f, g, interval) a workload validates before it starts:
    the three pairs of the cli workloads, or the pool of a point stream."""
    if workload == "point":
        return [(r.f, r.g, r.interval) for r in point_stream(seed)[0]]
    distinct = dict.fromkeys((p[i], p[i + 1]) for p in PAIRS for i in (0, 2))
    return [(f, g, INTERVAL) for f, g in distinct]


def measure_specs(workload: str) -> list[str]:
    if workload == "ladder":
        return list(LADDER_MEASURES)
    if workload == "regimes":
        return [json.dumps(spec) for spec in REGIME_MEASURES.values()]
    return list(POINT_MEASURES)


# ------------------------------------------------------------ point workload


def _family_pair(rng: random.Random, fam: str) -> tuple[str, str, tuple[float, float]]:
    """The six families of the tests' random admissible pairs.

    The power family gains a random factor on f so that its pairs are
    distinct; its exponents alone give only a dozen pairs.
    """
    def c(lo, hi):
        return round(rng.uniform(lo, hi), 6)

    if fam == "trig":
        a, b = c(0.4, 1.2), c(-0.2, 0.2)
        return f"sin({a} * x + {b})", f"cos({a} * x + {b})", (-0.3, 0.9)
    if fam == "hyperbolic":
        a = c(0.4, 1.5)
        return f"sinh({a} * x)", f"cosh({a} * x)", (-1.0, 1.0)
    if fam == "exponential":
        a, b = c(0.3, 1.5), c(-1.0, -0.1)
        return f"exp({a} * x)", f"exp({b} * x)", (-1.0, 1.0)
    if fam == "power":
        p = rng.choice(["sqrt(x)", "x^(3/2)", "x^2", "x^3", "x^(-1)"])
        q = rng.choice(["x^(-1/2)", "x", "x^(5/2)"])
        return f"{c(0.5, 2.0)} * {p}", q, (0.5, 2.0)
    if fam == "log":
        return "log(x)", f"{c(0.5, 2.0)}", (1.2, 3.0)
    a = c(0.1, 0.5)
    return f"x + {a} * x * x", "1", (-0.4, 0.4)


def _inadmissible_pair(rng: random.Random, i: int) -> tuple[str, str, tuple[float, float]]:
    """Pairs that validate_pair must reject: g <= 0 or W = 0 inside I."""
    kind = i % 4
    if kind == 0:  # cos(a x + b) crosses zero below hi
        a, b = round(rng.uniform(0.4, 1.2), 6), round(rng.uniform(-0.2, 0.2), 6)
        hi = round((math.pi / 2 - b) / a + rng.uniform(0.05, 0.5), 6)
        return f"sin({a} * x + {b})", f"cos({a} * x + {b})", (-0.3, hi)
    if kind == 1:  # negative constant g
        return "log(x)", f"-{round(rng.uniform(0.5, 2.0), 6)}", (1.2, 3.0)
    if kind == 2:  # f' = 1 + 2 a x vanishes at -1/(2a) inside I
        a = round(rng.uniform(0.7, 1.2), 6)
        return f"x + {a} * x * x", "1", (-1.0, 0.4)
    a = round(rng.uniform(0.3, 1.5), 6)  # f and g proportional: W = 0
    return f"{round(rng.uniform(0.5, 2.0), 6)} * exp({a} * x)", f"exp({a} * x)", (-1.0, 1.0)


def _points(rng: random.Random, interval) -> tuple[tuple[float, float], ...]:
    lo, hi = interval
    pts = []
    while len(pts) < MEANS_PER_MEASURE * len(POINT_MEASURES):
        x = round(lo + (hi - lo) * rng.uniform(0.02, 0.98), 6)
        y = round(lo + (hi - lo) * rng.uniform(0.02, 0.98), 6)
        if x != y:
            pts.append((x, y))
    return tuple(pts)


def catalog_request(entry: str) -> Request:
    """The request of a catalog entry, rebuilt from the entry's own seed.

    Entries are fixed once and for all, so their reference outputs can be
    recorded; a run's seed only chooses which entries it sends, and when.
    """
    kind, idx = entry.split("/")
    i = int(idx)
    rng = random.Random(f"{kind}-{i}")
    if kind == "ok":
        f, g, interval = _family_pair(rng, PAIR_FAMILIES[i % len(PAIR_FAMILIES)])
    else:
        f, g, interval = _inadmissible_pair(rng, i)
    return Request(
        entry=entry, f=f, g=g, interval=interval,
        points=_points(rng, interval), numeric=rng.random() < NUMERIC_SHARE,
    )


def point_stream(seed: int) -> tuple[list[Request], list[Request]]:
    """The seed's pool and its request stream.

    About POOL_SHARE of the requests repeat a request of the small pool,
    REJECT_SHARE submit an inadmissible pair, and the rest each send a
    catalog pair not sent before in the stream. The stream ends when the
    fresh pairs run out, so its mix never changes with the program's speed.
    """
    rng = random.Random(seed)
    # Entry i belongs to family i % 6. Validation time differs up to 6x
    # between families, so the pool takes as many pairs of each, and the
    # fresh pairs cycle through the families: the mix, and so the cost, does
    # not change with the seed. Each pool request repeats a few hundred
    # times, so a larger pool keeps any one of them from setting the median.
    n_fam = len(PAIR_FAMILIES)
    by_family = [[f"ok/{i}" for i in range(fam, CATALOG_SIZE, n_fam)] for fam in range(n_fam)]
    for entries in by_family:
        rng.shuffle(entries)
    per_family = POOL_SIZE // n_fam
    pool = [catalog_request(e) for entries in by_family for e in entries[:per_family]]
    fresh = [e for group in zip(*(entries[per_family:] for entries in by_family)) for e in group]
    fresh.reverse()  # popped from the end
    bad = [f"bad/{i}" for i in range(REJECT_CATALOG_SIZE)]
    rng.shuffle(bad)
    stream = []
    n_bad = 0
    while fresh:
        u = rng.random()
        if u < REJECT_SHARE:
            stream.append(catalog_request(bad[n_bad % len(bad)]))
            n_bad += 1
        elif u < REJECT_SHARE + POOL_SHARE:
            stream.append(pool[rng.randrange(POOL_SIZE)])
        else:
            stream.append(catalog_request(fresh.pop()))
    return pool, stream


def point_ops(seed: int) -> list[Op]:
    return [Op(r.entry, "point", request=r) for r in point_stream(seed)[1]]


def stream_shares(ops: list[Op]) -> dict[str, float]:
    """Measured share of requests that repeat an earlier one, and of rejections."""
    seen = set()
    repeats = rejects = 0
    for op in ops:
        if op.key in seen:
            repeats += 1
        seen.add(op.key)
        if op.key.startswith("bad/"):
            rejects += 1
    n = max(len(ops), 1)
    return {"repeat_share": repeats / n, "reject_share": rejects / n}


def workload_ops(workload: str, seed: int) -> list[Op]:
    """One pass of a workload. cli passes are shuffled by the seed."""
    if workload == "point":
        return point_ops(seed)
    ops = ladder_ops() if workload == "ladder" else regimes_ops()
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------- execution


def run_op(ml, op: Op, measures: dict):
    """Run one operation; return its raw output as a JSON-able value."""
    if op.kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ml.cli.main(list(op.argv))
        return {"code": code, "stdout": buf.getvalue()}
    r = op.request
    try:
        pair = ml.validate_pair(r.f, r.g, r.interval)
    except ml.MeanLabError as exc:
        return {"error": type(exc).__name__}
    means = []
    for k, name in enumerate(POINT_MEASURES):
        spec = ml.MeanSpec(pair, measures[name])
        for x, y in r.points[k * MEANS_PER_MEASURE:(k + 1) * MEANS_PER_MEASURE]:
            means.append(ml.mean_eval(spec, x, y))
    mid = 0.5 * (r.interval[0] + r.interval[1])
    leb = measures["lebesgue"]
    out = {"error": None, "means": means, "diag": list(ml.diagonal_derivatives(pair, leb, mid))}
    if r.numeric:
        out["numeric"] = list(ml.diagonal_derivatives_numeric(pair, leb, mid))
    return out
