"""The correctness gate: reduce an operation's output to a fingerprint and
compare it with the recorded reference.

A fingerprint is a list of ``[path, rule, value]`` rows. Rules:

``exact``     battery, assertion ids, ``holds``, the N2.5/N3 ``alternative``,
              ``grid_used``, the error class of a rejected pair.
``constant``  fitted constants and regime exponents: relative 1e-6, with
              values below 1e-9 treated as 0.
``residual``  compared only where either side exceeds 1e-3 times its
              tolerance, and then to 3 significant digits (relative 5e-3,
              which does not flip at a rounding boundary the way comparing
              rounded strings does). Roundoff-level residuals, such as EBM (i)
              at 1e-16, may move freely below that threshold.
``mean``      ``mean_eval`` values: 1e-12 relative to max(|value|, 1). The
              means live on intervals of unit size, where a root is located to
              about 1e-15 absolute.
``deriv``     closed-form diagonal derivatives: relative 1e-9, values below
              1e-9 treated as 0.
``oracle``    sampling-oracle derivatives of order k: relative 1e-9 plus
              1e-14 * k! / h^k with the oracle radius h = 0.12. The oracle's
              degree-8 fit amplifies a one-ulp change of ``mean_eval`` by
              k! / h^k, so without that term any change in the last digit of a
              mean would flag it.
"""

from __future__ import annotations

import json
import math

CONSTANT_REL = 1e-6
CONSTANT_ZERO = 1e-9
RESIDUAL_FLOOR = 1e-3
RESIDUAL_REL = 5e-3
MEAN_REL = 1e-12
DERIV_REL = 1e-9
DERIV_ZERO = 1e-9
ORACLE_RADIUS = 0.12
ORACLE_NOISE = 1e-14

_CONSTANT_KEYS = ("gamma", "delta", "alpha", "beta", "p", "q", "r")


def _ladder_rows(res: dict) -> list:
    rows = [["battery", "exact", res["battery"]]]
    for a in res["assertions"]:
        at = f"assertion.{a['id']}"
        rows.append([at, "exact", a["holds"]])
        rows.append([at + ".residual", "residual", [a["residual"], a["tolerance"]]])
        for k in sorted(a["constants"]):
            rows.append([f"{at}.{k}", "constant", a["constants"][k]])
    for k in sorted(res["fitted"]):
        rows.append([f"fitted.{k}", "constant", res["fitted"][k]])
    eqv = res["equivalence"]
    for k in sorted(eqv):
        rule = "exact" if isinstance(eqv[k], bool) else "constant"
        rows.append([f"equivalence.{k}", rule, eqv[k]])
    return rows


def _branch_rows(res: dict) -> list:
    rows = [
        ["battery", "exact", res["battery"]],
        ["alternative", "exact", res["alternative"]],
        ["holds", "exact", res["holds"]],
        ["residual", "residual", [res["residual"], res["tolerance"]]],
    ]
    if "grid_used" in res:
        rows.append(["grid_used", "exact", res["grid_used"]])
    for k in _CONSTANT_KEYS:
        if k in res:
            rows.append([k, "constant", res[k]])
    return rows


def fingerprint(raw: dict) -> list:
    """The compared part of one operation's raw output."""
    if "stdout" in raw:
        if raw["code"] != 0:
            return [["exit_code", "exact", raw["code"]]]
        res = json.loads(raw["stdout"])["result"]
        rows = _ladder_rows(res) if "assertions" in res else _branch_rows(res)
        for k in ("p", "q", "r"):
            rows.append([f"regime.{k}", "constant", res["regime"][k]])
        return rows
    if raw["error"] is not None:
        return [["error", "exact", raw["error"]]]
    rows = [["error", "exact", None]]
    rows += [[f"mean.{i}", "mean", v] for i, v in enumerate(raw["means"])]
    rows += [[f"diag.{k + 1}", "deriv", v] for k, v in enumerate(raw["diag"])]
    rows += [[f"oracle.{k + 1}", "oracle", v] for k, v in enumerate(raw.get("numeric", ()))]
    return rows


def _close(rule: str, path: str, a, b) -> bool:
    if rule == "exact":
        return a == b
    if rule == "residual":
        (ra, tol), (rb, _) = a, b
        if ra is None or rb is None:
            return ra is rb
        floor = RESIDUAL_FLOOR * tol
        if ra <= floor and rb <= floor:
            return True
        return abs(ra - rb) <= RESIDUAL_REL * max(ra, rb)
    if a is None or b is None:
        return a is b
    if rule == "constant":
        a = 0.0 if abs(a) < CONSTANT_ZERO else a
        b = 0.0 if abs(b) < CONSTANT_ZERO else b
        return abs(a - b) <= CONSTANT_REL * max(abs(a), abs(b))
    if rule == "mean":
        return abs(a - b) <= MEAN_REL * max(abs(a), abs(b), 1.0)
    if rule == "deriv":
        a = 0.0 if abs(a) < DERIV_ZERO else a
        b = 0.0 if abs(b) < DERIV_ZERO else b
        return abs(a - b) <= DERIV_REL * max(abs(a), abs(b))
    if rule == "oracle":
        k = int(path.rsplit(".", 1)[1])
        noise = ORACLE_NOISE * math.factorial(k) / ORACLE_RADIUS**k
        return abs(a - b) <= DERIV_REL * max(abs(a), abs(b)) + noise
    raise ValueError(f"unknown rule {rule!r}")


def mismatches(reference: list, current: list) -> list[str]:
    """Paths where the current fingerprint differs from the reference."""
    if [r[:2] for r in reference] != [c[:2] for c in current]:
        return ["<shape>"]
    return [
        ref[0] for ref, cur in zip(reference, current)
        if not _close(ref[1], ref[0], ref[2], cur[2])
    ]
