"""Pins of meanlab's numbers, each with the value, text or verdict it must keep.

    python3 tools/pins.py

Needs numpy alone, and ends by asserting that no scipy module was imported.
It raises AssertionError at the first pin that differs and prints
``pins: all hold`` otherwise. Every pin holds with numpy's AVX-512 dispatch on
and off (``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``). The
CLI pins run ``meanlab.cli.main`` in-process. The pin groups:

- mean_eval: the CLI rounds a mean, so only reprs show its last bits.
- cube: a jet's constant term is the float route's value.
- recursion and pair jets: the printed kernels keep the bits of the routes they replaced.
- batteries: each battery keeps its report keys, and N2.5 and N3 their verdicts.
- CLI: eval and derivatives run the float route that check-equality never runs;
  failures keep their texts, and N3 at a moment boundary keeps a report.
- ladder verdicts: numpy's AVX-512 exp, log, sinh and cosh must not move a verdict.
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
import sys

from meanlab import MeanSpec, check_equality, mean_eval, preset_measure, validate_pair
from meanlab.calculus import phi_psi, recursion_seq
from meanlab.cli import main
from meanlab.expr import compile_scalar, eval_jet, pair_jets, parse

# f, g, interval, (x, y), and the reprs of the mean for (ebm, lebesgue)
MEAN_CASES = [
    ("sin(0.734 * x + 0.1)", "cos(0.734 * x + 0.1)", (-0.3, 0.9), (0.1, 0.5), ("0.3", "0.29999999999999993")),
    ("exp(0.8 * x)", "exp(-0.4 * x)", (-1.0, 1.0), (-0.3, 0.6), ("0.18944466495828333", "0.1634277237252823")),
    ("1.3 * x^(3/2)", "x^(5/2)", (0.5, 2.0), (0.7, 1.9), ("1.6806941390255585", "1.4341010687177327")),
    ("log(x)", "1.3", (1.2, 3.0), (1.5, 2.5), ("1.9364916731037085", "1.9788763181515097")),
    ("x + 0.3 * x * x", "1", (-0.4, 0.4), (-0.1, 0.3), ("0.11128471374594492", "0.10376956331860013")),
    # f and g share a subtree, and sinh, cosh, S and C check for overflow
    ("sinh(0.5 * x + 0.2)", "cosh(0.5 * x + 0.2)", (-1.0, 1.0), (-0.3, 0.6), ("0.1499999999999999", "0.1499999999999997")),
    ("S(-2; x^2 + 0.5 * x)", "C(-2; x^2 + 0.5 * x)", (0.1, 0.6), (0.2, 0.5), ("0.36846584384264913", "0.3561639484283889")),
]


def pin_mean_eval() -> None:
    """meanlab eval rounds its output, so it cannot see the last bits; these
    reprs are those of the node loops and brentq that the printed mean
    kernels replaced."""
    for f, g, interval, (x, y), want in MEAN_CASES:
        pair = validate_pair(f, g, interval)
        got = tuple(repr(mean_eval(MeanSpec(pair, preset_measure(m)), x, y)) for m in ("ebm", "lebesgue"))
        assert got == want, (f, got, want)


def pin_cube() -> None:
    """A jet's constant term is the float route's value: x^3 is 0.3 ** 3 on
    both, not the product 0.3 * 0.3 * 0.3 (0.027)."""
    got = (repr(eval_jet(parse("x^3"), 0.3, 2).coeffs[0]), repr(compile_scalar(parse("x^3"))(0.3)))
    assert got == ("0.026999999999999996",) * 2, got


def pin_recursion_and_pair_jets() -> None:
    """recursion_seq runs one printed kernel per depth; the reprs are those of
    the jet-arithmetic route it replaced. closed_form_seq differs from them
    in the last bits, so the pin tells the two routes apart. The phi_psi
    reprs are those of one jet kernel per tree, before a pair's jets came
    from one kernel that shares the argument of sin and cos. The S/C and
    sinh/cosh reprs are those of two coupled recurrences per pair, before
    one recurrence per argument served both halves."""
    s = recursion_seq(validate_pair("exp(0.8 * x)", "exp(-0.4 * x)", (-1.0, 1.0)), 0.1)
    assert s.phi == (0.0, 1.0, 0.4000000000000001, 0.48, 0.32, 0.28159999999999996, 0.21503999999999984), s.phi
    assert s.psi == (1.0, 0.0, 0.32, 0.12800000000000003, 0.1536, 0.10239999999999996, 0.090112), s.psi
    p = phi_psi(validate_pair("sin(0.734*x + 0.1)", "cos(0.734*x + 0.1)", (-0.3, 0.9)), 0.2, 4)
    got = tuple(map(repr, p.phi_jet.coeffs + p.psi_jet.coeffs))
    assert got == ("3.781413571611569e-17", "7.562827143223138e-17", "-3.7814135716115696e-17",
                   "3.574772149892041e-33", "-4.726766964514459e-18", "-0.5387560000000001",
                   "4.0745185003743257e-17", "-3.081487911019578e-33", "-1.0186296250935814e-17",
                   "-7.3276232190689e-19"), got
    p = phi_psi(validate_pair("S(-2; x^2 + 0.5 * x)", "C(-2; x^2 + 0.5 * x)", (0.1, 0.6)), 0.3, 4)
    got = tuple(map(repr, p.phi_jet.coeffs + p.psi_jet.coeffs))
    assert got == ("1.8181818181818183", "-3.3057851239669427", "6.010518407212625",
                   "-10.928215285841132", "19.869482337892965", "-2.420000000000001", "-8.8",
                   "-8.000000000000007", "9.135083395978327e-15", "-2.708033188078257e-14"), got
    jf, jg = pair_jets(validate_pair("sinh(0.5 * x + 0.2)", "cosh(0.5 * x + 0.2)", (-1.0, 1.0)), 0.3, 6)
    got = tuple(map(repr, jf.coeffs + jg.coeffs))
    assert got == ("0.3571897294372719", "0.5309389095779926", "0.04464871617965899",
                   "0.022122454565749693", "0.0009301815870762289", "0.0002765306820718712",
                   "7.751513225635241e-06", "1.0618778191559852", "0.17859486471863595",
                   "0.13273472739449815", "0.007441452696609831", "0.0027653068207187117",
                   "9.301815870762289e-05", "2.3044223505989265e-05"), got


def run(*argv: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``meanlab *argv``, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


SINCOS = "--f 'sin(x)' --g 'cos(x)' --F x --G 1 --lo -0.7 --hi 0.7 --grid 20"
LADDER_KEYS = ["R_values", "S_values", "all_hold", "assertions", "battery", "equivalence",
               "failing", "fitted", "grid", "interval", "notes", "regime", "tolerances"]
N25_KEYS = ["alternative", "battery", "gamma", "holds", "note", "regime", "residual", "tolerance"]
N3_KEYS = sorted(N25_KEYS + ["alpha", "beta", "delta", "grid_used", "p", "q", "r"])
# a measure, its battery, the result keys and the pinned result values
BATTERY_CASES = [
    ("ebm", "EBM", LADDER_KEYS, {}),
    ("lebesgue", "ECM", LADDER_KEYS, {}),
    ('{"type": "atoms", "atoms": [[0.0, 0.3], [0.7, 0.7]]}', "N1.5", LADDER_KEYS, {}),
    ('{"type": "atoms", "atoms": [[0.0, 0.38621416870348585], [0.6, 0.4], [1.0, 0.21378583129651413]]}',
     "N2.5", N25_KEYS, {"alternative": "power_law", "holds": False}),
    ('{"type": "atoms", "atoms": [[0.0, 0.2], [0.5, 0.6], [1.0, 0.2]]}', "N3", N3_KEYS, {"alternative": "iv", "holds": True}),
]


def pin_batteries() -> None:
    """One check-equality per battery keeps its meanlab-report/1 result keys:
    the ladder fields, or the flat one-row form of N2.5 and N3 that the
    recorded benchmark outputs share, whose branch and verdict are pinned."""
    for measure, battery, keys, values in BATTERY_CASES:
        code, out, err = run(*shlex.split(f"check-equality {SINCOS} --format json"), "--measure", measure)
        assert code == 0, (measure, err)
        result = json.loads(out)["result"]
        assert (result["battery"], sorted(result)) == (battery, keys), (measure, result)
        assert {name: result[name] for name in values} == values, (battery, result)


EXP = "derivatives --f 'exp(x)' --g 1 --x 0.2 --lo -0.5 --hi 0.9 --measure lebesgue"
BOUNDARY = ('{"type": "atoms", "atoms": [[0.2369580832448388, 0.09999999849054474], [0.5, 0.8000000030189105], '
            '[0.7630419167551612, 0.09999999849054474]]}')
NONSMOOTH = "error (NonSmooth): function not smooth to the requested order at {0}: {1} at {0}\n"
# a command line, and the exit code, stdout and stderr it gives (None: not pinned)
CLI_CASES = [
    # check-equality runs the array kernels only; eval and derivatives --numeric run the float route
    ("eval --f 'sin(x)' --g 'cos(x)' --x 0.1 --y 0.5 --measure ebm", 0, "0.3\n", ""),
    ("eval --f 'sin(x)' --g 'cos(x)' --x 0.1 --y 0.5 --measure lebesgue", 0, "0.3\n", ""),
    ("eval --f 'exp(x)' --g 1 --x 0.1 --y 0.5 --measure lebesgue", 0, "0.306657800285\n", ""),
    (f"{EXP} --numeric", 0, None, ""),
    # an inadmissible pair
    ("eval --f 'log(x)' --g 1 --x 0.5 --y 2 --lo -1 --hi 3", 2, "", None),
    # a zero divisor, and an integer power that overflows where x^2 underflows, fail validation as
    # NonSmooth at their point with the value kernels' text, not with a division by zero
    ("eval --f 1/x --g 1 --x -0.5 --y 0.5 --lo -1 --hi 1", 2, "", NONSMOOTH.format("0.0", "division by zero")),
    ("eval --f 'x^(-2)' --g 1 --x 2e-201 --y 5e-200 --lo 1e-201 --hi 1e-199", 2, "",
     NONSMOOTH.format("1.383720930232558e-201", "power overflow")),
    # without --numeric, derivatives reads the order-6 float jets and the Phi/Psi kernel; the
    # lines are its output before the jet kernels were printed
    (EXP, 0, "m1 = 0.0\nm2 = 0.08333333333333333\nm3 = 0.0\nm4 = -0.008333333333333331\nm5 = 0.0\n"
     "m6 = 0.003968253968253965\n", ""),
    ("""derivatives --f 'exp(0.8 * x)' --g 'exp(-0.4 * x)' --x 0.1 --lo -1 --hi 1
     --measure '{"type": "atoms", "atoms": [[0.0, 0.3], [0.7, 0.7]]}'""", 0,
     "m1 = 0.0\nm2 = 0.041159999999999995\nm3 = -0.013829759999999991\nm4 = -0.004195027199999999\n"
     "m5 = 0.006042904412159995\nm6 = -4.2502724812799116e-05\n", ""),
    # N3 on a measure whose mu6 - 5 mu2 mu4 sits at the zero tolerance gives a report (it once exited 1)
    (f"check-equality {SINCOS} --measure '{BOUNDARY}'", 0, None, ""),
]


def pin_cli() -> None:
    """The exit codes and texts of eval, derivatives and check-equality."""
    for command, *want in CLI_CASES:
        got = run(*shlex.split(command))
        assert all(w is None or g == w for g, w in zip(got, want)), (command, got)


ROWS = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix")


def pin_ladder_verdicts() -> None:
    """Under its AVX-512 targets numpy's exp, log, sinh and cosh give other
    last bits than libm, so residuals move with the host; the verdicts of
    the benchmark's eight ladder checks must not. Against (x, 1), (sin, cos)
    holds every row, and (exp(x), 1) fails every row but (vii) and ECM's exp
    row, which stay open."""
    linear = validate_pair("x", "1", (-0.7, 0.7))
    for measure, ids in (("ebm", ROWS), ("lebesgue", ROWS + ("exp",))):
        holds = dict.fromkeys(ids, True)
        fails = {i: None if i in ("vii", "exp") else False for i in ids}
        for grid in (50, 100):
            for f, g, want in (("sin(x)", "cos(x)", holds), ("exp(x)", "1", fails)):
                rep = check_equality(validate_pair(f, g, (-0.7, 0.7)), linear, preset_measure(measure), grid)
                got = [(a.assertion_id, a.holds) for a in rep.assertions]
                assert got == list(want.items()), (f, measure, grid, got)
                assert list(rep.failing) == [i for i, h in want.items() if h is False], (f, measure, grid, rep.failing)


if __name__ == "__main__":
    pin_mean_eval()
    pin_cube()
    pin_recursion_and_pair_jets()
    pin_batteries()
    pin_cli()
    pin_ladder_verdicts()
    # the runtime needs numpy alone, after a full CLI run as after the import
    assert not [m for m in sys.modules if m.partition(".")[0] == "scipy"], "scipy was imported"
    print("pins: all hold")
