"""Bit pins of the float routes: mean_eval, x^3, the phi_i/psi_i recursion
and the pair jets.

    python3 tools/pins.py

Needs numpy alone. Each pin compares the reprs of one route's results with
those of the route it replaced, so a change that moves a last bit shows. The
script raises AssertionError at the first pin that differs and prints
``pins: all hold`` otherwise. The pins hold with numpy's AVX-512 dispatch on
and off (``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``).
"""

from __future__ import annotations

from meanlab import MeanSpec, mean_eval, preset_measure, validate_pair
from meanlab.calculus import phi_psi, recursion_seq
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


if __name__ == "__main__":
    pin_mean_eval()
    pin_cube()
    pin_recursion_and_pair_jets()
    print("pins: all hold")
