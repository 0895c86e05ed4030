"""Command line front end.

Subcommands evaluate a mean at a point, report measure moments and
regime classification, differentiate the diagonal section, run the
equality batteries, and build sine and cosine type pairs. Reports come
in a text form and a versioned JSON envelope; identical configurations
produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from . import __version__
from . import equality as eqmod
from . import expr as ex
from .calculus import diagonal_derivatives, diagonal_derivatives_numeric
from .errors import MeanLabError
from .means import MeanSpec, mean_eval
from .measures import (
    Measure,
    classify,
    measure_from_json,
    measure_to_json,
    moments,
    preset_measure,
)

SCHEMA = "meanlab-report/1"


def _parse_measure(spec: str) -> Measure:
    spec = spec.strip()
    if spec.startswith("{"):
        return measure_from_json(spec)
    return preset_measure(spec)


def _parse_tolerances(items: Sequence[str] | None) -> dict[str, float]:
    tols: dict[str, float] = {}
    for item in items or ():
        name, sep, raw = item.partition("=")
        if not sep or not name:
            raise ValueError(f"tolerance override must look like name=value, got {item!r}")
        tols[name] = float(raw)
    return tols


def _default_interval(x: float, y: float) -> tuple[float, float]:
    # a padded hull of the two arguments; the mean only looks between them,
    # but validation wants strict interior room on both sides
    lo, hi = min(x, y), max(x, y)
    pad = 0.05 * (hi - lo + 1.0)
    return lo - pad, hi + pad


def _interval_from_args(args: argparse.Namespace) -> tuple[float, float]:
    lo, hi = args.lo, args.hi
    if not lo < hi:
        raise ValueError(f"empty interval: lo={lo} hi={hi}")
    return float(lo), float(hi)


def _envelope(command: str, config: dict, result: dict) -> dict:
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "config": config,
        "result": result,
    }


def _emit(args: argparse.Namespace, command: str, config: dict, result: dict, text: str) -> None:
    if args.format == "json":
        payload = json.dumps(_envelope(command, config, result), sort_keys=True, indent=2)
    else:
        payload = text
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _regime_text(info) -> list[str]:
    lines = [f"regime = {info.regime.value}"]
    for name in ("p", "q", "r"):
        value = getattr(info, name)
        lines.append(f"{name} = {'undefined' if value is None else repr(value)}")
    lines.append(f"moment_condition_6 = {info.moment_condition_6!r}")
    return lines


# ------------------------------------------------------------- subcommands


def _cmd_eval(args: argparse.Namespace) -> None:
    measure = _parse_measure(args.measure)
    x, y = float(args.x), float(args.y)
    if (args.lo is None) != (args.hi is None):
        raise ValueError("--lo and --hi go together: give both or neither")
    lo, hi = _default_interval(x, y) if args.lo is None else _interval_from_args(args)
    pair = ex.validate_pair(args.f, args.g, (lo, hi))
    value = mean_eval(MeanSpec(pair, measure), x, y)
    config = {
        "f": args.f, "g": args.g, "measure": measure_to_json(measure),
        "lo": lo, "hi": hi, "x": x, "y": y,
    }
    _emit(args, "eval", config, {"value": value}, repr(round(value, 12)))


def _cmd_moments(args: argparse.Namespace) -> None:
    measure = _parse_measure(args.measure)
    nmax = int(args.nmax)
    md = moments(measure, nmax)
    result: dict = {"mu_hat1": md.mu_hat1, "mu": list(md.mu)}
    lines = [f"mu_hat1 = {md.mu_hat1!r}"]
    lines += [f"mu{n} = {md.mu[n]!r}" for n in range(2, nmax + 1)]
    if nmax >= 6:
        info = classify(measure)
        result["regime"] = info.as_dict()
        lines += _regime_text(info)
    config = {"measure": measure_to_json(measure), "nmax": nmax}
    _emit(args, "moments", config, result, "\n".join(lines))


def _cmd_classify(args: argparse.Namespace) -> None:
    measure = _parse_measure(args.measure)
    info = classify(measure)
    config = {"measure": measure_to_json(measure)}
    _emit(args, "classify", config, info.as_dict(), "\n".join(_regime_text(info)))


def _cmd_derivatives(args: argparse.Namespace) -> None:
    measure = _parse_measure(args.measure)
    lo, hi = _interval_from_args(args)
    pair = ex.validate_pair(args.f, args.g, (lo, hi))
    x = float(args.x)
    ms = diagonal_derivatives(pair, measure, x)
    result: dict = {"closed_form": list(ms)}
    lines = [f"m{k} = {v!r}" for k, v in enumerate(ms, start=1)]
    if args.numeric:
        numeric = diagonal_derivatives_numeric(pair, measure, x, h=args.radius)
        result["numeric"] = list(numeric)
        lines += [f"m{k} (numeric) = {v!r}" for k, v in enumerate(numeric, start=1)]
    config = {
        "f": args.f, "g": args.g, "measure": measure_to_json(measure),
        "lo": lo, "hi": hi, "x": x, "numeric": bool(args.numeric),
    }
    if args.radius is not None:
        config["radius"] = float(args.radius)
    _emit(args, "derivatives", config, result, "\n".join(lines))


_MARK = {True: "PASS", False: "FAIL", None: "OPEN"}


def _report_text(report, lo: float, hi: float) -> str:
    lines = [f"battery {report.battery} on ({lo}, {hi})"]
    for a in report.assertions:
        resid = "-" if a.residual is None else f"{a.residual:.3e}"
        lines.append(f"[{_MARK[a.holds]}] ({a.assertion_id}) residual {resid} tol {a.tolerance:.1e}  {a.note}".rstrip())
    fitted = {k: v for k, v in report.fitted.items() if v is not None}
    if fitted:
        lines.append("fitted: " + ", ".join(f"{k} = {v!r}" for k, v in sorted(fitted.items())))
    lines.append("verdict: " + ("all assertions hold" if report.all_hold
                                else "failing: " + ", ".join(report.failing)))
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _cmd_check_equality(args: argparse.Namespace) -> None:
    measure = _parse_measure(args.measure)
    lo, hi = _interval_from_args(args)
    pairA = ex.validate_pair(args.f, args.g, (lo, hi))
    pairB = ex.validate_pair(args.F, args.G, (lo, hi))
    tols = _parse_tolerances(args.tol)
    grid = int(args.grid)
    config = {
        "f": args.f, "g": args.g, "F": args.F, "G": args.G,
        "measure": measure_to_json(measure), "lo": lo, "hi": hi,
        "grid": grid, "tolerances": tols,
    }
    report = eqmod.check_equality(pairA, pairB, measure, grid, tols)
    _emit(args, "check-equality", config, report.as_dict(), _report_text(report, lo, hi))


def _cmd_make_pair(args: argparse.Namespace) -> None:
    lo, hi = _interval_from_args(args)
    pair = eqmod.make_sincos_pair(
        float(args.alpha), args.phi, cauchy_flavor=bool(args.cauchy), interval=(lo, hi)
    )
    f_str, g_str = ex.to_string(pair.f), ex.to_string(pair.g)
    config = {
        "alpha": float(args.alpha), "phi": args.phi,
        "cauchy": bool(args.cauchy), "lo": lo, "hi": hi,
    }
    _emit(args, "make-pair", config, {"f": f_str, "g": g_str}, f"f = {f_str}\ng = {g_str}")


# ------------------------------------------------------------------ parser


# built once per process: parse_args leaves the parser as it was
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanlab",
        description="evaluate generalized quasiarithmetic means and check equality conditions",
    )
    parser.add_argument("--version", action="version", version=f"meanlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", default=None, help="write the report to this file")

    def measure_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--measure", default="ebm",
            help="preset name (ebm, lebesgue) or a measure JSON object",
        )

    p_eval = sub.add_parser("eval", help="evaluate the mean at a point")
    p_eval.add_argument("--f", required=True, help="first generator expression")
    p_eval.add_argument("--g", required=True, help="second generator expression")
    measure_arg(p_eval)
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.add_argument("--y", type=float, required=True)
    p_eval.add_argument("--lo", type=float, default=None, help="interval start (default: padded hull of x, y)")
    p_eval.add_argument("--hi", type=float, default=None, help="interval end")
    common(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_mom = sub.add_parser("moments", help="centered moments of a measure")
    measure_arg(p_mom)
    p_mom.add_argument("--nmax", type=int, default=6)
    common(p_mom)
    p_mom.set_defaults(func=_cmd_moments)

    p_cls = sub.add_parser("classify", help="moment regime and exponents")
    measure_arg(p_cls)
    common(p_cls)
    p_cls.set_defaults(func=_cmd_classify)

    p_der = sub.add_parser("derivatives", help="diagonal derivatives of the mean")
    p_der.add_argument("--f", required=True)
    p_der.add_argument("--g", required=True)
    measure_arg(p_der)
    p_der.add_argument("--x", type=float, required=True, help="diagonal base point")
    p_der.add_argument("--lo", type=float, required=True)
    p_der.add_argument("--hi", type=float, required=True)
    p_der.add_argument("--numeric", action="store_true", help="also run the polynomial-fit oracle")
    p_der.add_argument("--radius", type=float, default=None, help="oracle sampling radius")
    common(p_der)
    p_der.set_defaults(func=_cmd_derivatives)

    p_chk = sub.add_parser("check-equality", help="run the equality battery for the measure")
    p_chk.add_argument("--f", required=True)
    p_chk.add_argument("--g", required=True)
    p_chk.add_argument("--F", required=True, help="first generator of the second pair")
    p_chk.add_argument("--G", required=True, help="second generator of the second pair")
    measure_arg(p_chk)
    p_chk.add_argument("--lo", type=float, required=True)
    p_chk.add_argument("--hi", type=float, required=True)
    p_chk.add_argument("--grid", type=int, default=50)
    p_chk.add_argument(
        "--tol", action="append", metavar="NAME=VALUE",
        help="override a battery tolerance; repeatable",
    )
    common(p_chk)
    p_chk.set_defaults(func=_cmd_check_equality)

    p_mk = sub.add_parser("make-pair", help="build a sine and cosine type pair")
    p_mk.add_argument("--alpha", type=float, required=True, help="parameter t of S_t, C_t")
    p_mk.add_argument("--phi", required=True, help="inner generator expression")
    p_mk.add_argument("--cauchy", action="store_true", help="multiply both components by phi'")
    p_mk.add_argument("--lo", type=float, required=True)
    p_mk.add_argument("--hi", type=float, required=True)
    common(p_mk)
    p_mk.set_defaults(func=_cmd_make_pair)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (MeanLabError, ValueError) as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
