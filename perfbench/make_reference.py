"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/make_reference.py

Run it on the commit whose outputs are the reference, never on a commit
under test. It rewrites ``perfbench/reference/``: one fingerprint per
operation of ``ladder`` and ``regimes``, and for each entry of the ``point``
catalog its raw output, which is small, with the entry's inputs beside it as
a guard. It stops if an operation the workloads expect to succeed fails, or
an inadmissible pair is accepted: no operation of a workload may fail.
"""

from __future__ import annotations

import json
import sys

import worker
import workloads as wl
from compare import fingerprint


def main() -> int:
    ml = worker.load_program()
    worker.REFERENCE.mkdir(exist_ok=True)
    for workload, ops in (("ladder", wl.ladder_ops()), ("regimes", wl.regimes_ops())):
        ref = {}
        for op in ops:
            raw = wl.run_op(ml, op, {})
            if raw["code"] != 0:
                raise SystemExit(f"{workload} {op.key} exited {raw['code']}")
            ref[op.key] = fingerprint(raw)
        with open(worker.REFERENCE / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")

    measures = worker.build_measures(ml, "point")
    entries = [f"ok/{i}" for i in range(wl.CATALOG_SIZE)]
    entries += [f"bad/{i}" for i in range(wl.REJECT_CATALOG_SIZE)]
    with open(worker.REFERENCE / "point.jsonl", "w", encoding="utf-8") as fh:
        for entry in entries:
            req = wl.catalog_request(entry)
            raw = wl.run_op(ml, wl.Op(entry, "point", request=req), measures)
            if (raw["error"] is None) != entry.startswith("ok/"):
                raise SystemExit(f"{entry} ({req.f}, {req.g}) gave error {raw['error']}")
            row = {"entry": entry, "f": req.f, "g": req.g, "interval": list(req.interval), **raw}
            fh.write(json.dumps(row) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
