"""Tests of the benchmark itself: tracing, determinism and the correctness gate.

    python3 -m pytest perfbench/tests -q

Most tests run shrunken operations in-process: the cli operations at a
small grid, and the head of a point stream. The wrappers and code paths are
the same as in a full pass.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402

ml = worker.load_program()

SEED = 7
SMALL_GRID = "12"
POINT_HEAD = 60

# the .calls metrics each workload must drive; zero here means a binding
# that the tracer did not wrap, or a workload that lost a layer
EXPECTED_CALLS = {
    "ladder": {
        "means.mean_eval", "means.brentq", "measures.integrate", "measures.moments",
        "measures.classify", "means.quasiarithmetic", "equality.CumulativeIntegral",
        "equality.check", "calculus.wronskian", "calculus.phi_psi",
        "calculus.diagonal_derivatives", "expr.parse", "expr.validate_pair",
        "expr.eval_jet", "cli.main",
    },
    "regimes": {
        "means.mean_eval", "means.brentq", "measures.integrate", "measures.moments",
        "measures.classify", "equality.CumulativeIntegral", "equality.check",
        "calculus.wronskian", "calculus.phi_psi", "expr.parse", "expr.validate_pair",
        "expr.eval_jet", "cli.main",
    },
    "point": {
        "means.mean_eval", "means.brentq", "measures.integrate", "measures.moments",
        "calculus.phi_psi", "calculus.diagonal_derivatives", "expr.parse",
        "expr.validate_pair", "expr.eval_jet",
    },
}


def _shrink(op: wl.Op) -> wl.Op:
    if op.kind != "cli":
        return op
    argv = list(op.argv)
    argv[argv.index("--grid") + 1] = SMALL_GRID
    return wl.Op(op.key, op.kind, tuple(argv))


def _ops(workload: str) -> list[wl.Op]:
    ops = wl.workload_ops(workload, SEED)
    return ops[:POINT_HEAD] if workload == "point" else [_shrink(op) for op in ops]


def _measures(workload: str) -> dict:
    return worker.build_measures(ml, workload)


def _run(workload: str, traced: bool):
    ml.expr.compile_scalar.cache_clear()
    ops, measures = _ops(workload), _measures(workload)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install(ml)
    try:
        outputs = [wl.run_op(ml, op, measures) for op in ops]
    finally:
        if tracer:
            tracer.uninstall()
    return outputs, tracer.layer_metrics(len(ops)) if tracer else None


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_outputs_are_bit_identical(workload):
    plain, _ = _run(workload, traced=False)
    traced, _ = _run(workload, traced=True)
    assert json.dumps(traced) == json.dumps(plain)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_expected_layers_are_called_and_counts_repeat(workload):
    _, first = _run(workload, traced=True)
    _, second = _run(workload, traced=True)
    assert set(first) == set(LAYER_METRICS) - {"trace.overhead"}
    for layer in EXPECTED_CALLS[workload]:
        name = layer + ".calls"
        assert first[name] > 0, name
    counts = {k for k, unit in LAYER_METRICS.items() if unit.startswith("count") and k in first}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_each_call_is_counted_once():
    pair = ml.validate_pair("sin(x)", "cos(x)", (-0.7, 0.7))
    spec = ml.MeanSpec(pair, ml.Lebesgue())
    tracer = Tracer()
    tracer.install(ml)
    try:
        ml.validate_pair("x", "1", (-0.7, 0.7))
        ml.mean_eval(spec, -0.3, 0.5)
        ml.calculus.phi_psi(pair, 0.1)
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics(1)
    assert (m["expr.validate_pair.calls"], m["expr.parse.calls"]) == (1, 2)
    assert (m["means.mean_eval.calls"], m["means.brentq.calls"]) == (1, 1)
    assert (m["measures.integrate.calls"], m["measures.integrate.nodes"]) == (2, 64)
    assert m["calculus.phi_psi.calls"] == 1
    # two jets per grid point of validate_pair, two for phi_psi
    assert m["expr.eval_jet.calls"] == 2 * 257 + 2


def test_uninstall_restores_every_binding():
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name == "meanlab" or name.startswith("meanlab.")}
    tracer = Tracer()
    tracer.install(ml)
    tracer.uninstall()
    for name, attrs in before.items():
        after = vars(sys.modules[name])
        assert all(after[k] is v for k, v in attrs.items()), name
    assert ml.measures.Measure.__dict__["integrate"] is ml.measures.Measure.integrate


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.timed("inner", lambda: sum(range(20000)))

    def outer():
        inner()
        inner()

    tracer.timed("outer", outer)()
    name, dur, self_time = tracer._arrays()
    outer_i = list(name).index(tracer._ids["outer"])
    children = [i for i, n in enumerate(name) if n == tracer._ids["inner"]]
    assert self_time[outer_i] == pytest.approx(dur[outer_i] - sum(dur[i] for i in children))
    assert all(self_time[i] == dur[i] for i in children)


def test_sampler_scales_net_of_its_own_loops():
    sampler = worker.SpeedSampler()
    # a host twice as slow as the reference, sampled every 0.1 s from t = 0
    sampler.at = [0.1 * i for i in range(20)]
    sampler.cost = [2.0 * worker.SAMPLE_REF_S] * 20
    net = 1.0 - 10 * sampler.cost[0]  # ten samples fall inside [0.05, 1.05]
    assert sampler.scaled(0.05, 1.05) == pytest.approx(net / 2.0)
    # a short window borrows the nearest samples
    assert sampler.scaled(0.52, 0.53) == pytest.approx(0.01 / 2.0)
    assert sampler.slowdown() == pytest.approx(2.0)


def test_point_stream_is_deterministic_per_seed():
    assert wl.point_stream(SEED) == wl.point_stream(SEED)
    assert wl.point_stream(SEED)[1] != wl.point_stream(SEED + 1)[1]
    assert [op.key for op in wl.workload_ops("ladder", SEED)] == [
        op.key for op in wl.workload_ops("ladder", SEED)
    ]


def test_point_stream_shape():
    pool, stream = wl.point_stream(SEED)
    shares = wl.stream_shares([wl.Op(r.entry, "point", request=r) for r in stream])
    assert 0.4 < shares["repeat_share"] < 0.6
    assert 0.03 < shares["reject_share"] < 0.07
    families = [int(r.entry[3:]) % len(wl.PAIR_FAMILIES) for r in pool]
    per_family = wl.POOL_SIZE // len(wl.PAIR_FAMILIES)
    assert sorted(families) == sorted(list(range(len(wl.PAIR_FAMILIES))) * per_family)
    fresh = [r.entry for r in stream if r.entry.startswith("ok/") and r not in pool]
    assert len(fresh) == len(set(fresh)) == wl.CATALOG_SIZE - wl.POOL_SIZE


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_outputs_match_reference(workload):
    checker = worker.Checker(workload)
    measures = _measures(workload)
    ops = wl.workload_ops(workload, SEED)
    ops = ops[:POINT_HEAD] if workload == "point" else ops[:2]
    for op in ops:
        checker.check(op, wl.run_op(ml, op, measures))
    assert (checker.failed, checker.wrong) == (0, 0), checker.samples


def _perturbed_checker(workload, op, edit):
    checker = worker.Checker(workload)
    checker.reference = copy.deepcopy(checker.reference)
    edit(checker.reference[op.key])
    return checker


def test_perturbed_point_reference_is_caught():
    op = next(op for op in wl.workload_ops("point", SEED) if op.key.startswith("ok/"))

    def edit(ref):
        ref["means"][0] *= 1.0 + 1e-9

    checker = _perturbed_checker("point", op, edit)
    checker.check(op, wl.run_op(ml, op, _measures("point")))
    assert checker.wrong == 1 and checker.wrong / checker.attempted > 0


def test_perturbed_verdict_is_caught():
    op = next(op for op in wl.regimes_ops() if op.key.startswith("sixth_only"))

    def edit(rows):
        row = next(r for r in rows if r[0] == "holds")
        row[2] = not row[2]

    checker = _perturbed_checker("regimes", op, edit)
    checker.check(op, wl.run_op(ml, op, {}))
    assert checker.wrong == 1


def test_rejected_pair_error_class_is_compared():
    op = next(op for op in wl.workload_ops("point", SEED) if op.key.startswith("bad/"))
    raw = wl.run_op(ml, op, _measures("point"))
    assert raw["error"] in ("NotPositive", "WronskianVanishes")
    other = {"error": "ParseError"}
    assert compare.mismatches(compare.fingerprint(raw), compare.fingerprint(other)) == ["error"]


def test_residual_rule_ignores_roundoff_and_keeps_three_digits():
    def rows(res):
        return [["r", "residual", [res, 1e-11]]]

    assert not compare.mismatches(rows(1.11e-16), rows(2.2e-16))
    assert not compare.mismatches(rows(0.1234), rows(0.12345))
    assert compare.mismatches(rows(0.1234), rows(0.1254)) == ["r"]
    assert compare.mismatches(rows(1e-16), rows(1e-13)) == ["r"]


def test_constant_rule_treats_tiny_values_as_zero():
    def rows(v):
        return [["c", "constant", v]]

    assert not compare.mismatches(rows(6.4e-17), rows(-2e-12))
    assert not compare.mismatches(rows(-1.0), rows(-0.9999999999999998))
    assert compare.mismatches(rows(-1.0), rows(-1.00001)) == ["c"]


def test_run_prints_every_layer_metric_and_a_correct_result(tmp_path):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "point", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=170,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(LAYER_METRICS)
    assert result["metrics"]["trace.overhead"]["value"] > 0.5
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    assert record["seed"] == 3 and record["wrong_frac"] == 0.0
