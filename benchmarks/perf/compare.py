"""Compare two result sets written by ``sweep.py``.

``python3 benchmarks/perf/compare.py A.json B.json`` prints one row per
(workload, end-to-end metric): both medians and quartiles, the metric's
bound, and a verdict for B against A —

* ``unresolved``: either side's run-to-run spread is wider than the bound;
* ``worse``: B's median is worse than A's by more than the bound;
* ``same``: neither.

Exits non-zero on any ``worse`` row or when B's failed share is higher.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR))

from catalogue import GATED, NAMED  # noqa: E402


def bounds() -> dict:
    """metric -> (better, bound): BENCHMARK.json's for the gated
    metrics, the catalogue's for the named ones."""
    spec = json.loads((PERF_DIR.parent.parent / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    if set(out) != set(GATED):
        raise SystemExit("BENCHMARK.json and catalogue.py disagree")
    out.update({n: (better, bound)
                for n, (_unit, better, bound, _w) in NAMED.items()})
    return out


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    if a["samples"] == b["samples"]:
        return "same"       # exact counts repeat exactly at equal seeds
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    if not a["median"]:
        return "same"
    change = (b["median"] - a["median"]) / a["median"]
    if better == "higher":
        change = -change
    return "worse" if change > bound else "same"


def compare(a: dict, b: dict) -> int:
    table = bounds()
    bad = 0
    print(f"{'workload':<14}{'metric':<24}{'A median':>12}{'A q1..q3':>24}"
          f"{'B median':>12}{'B q1..q3':>24}{'bound':>7}  verdict")
    for workload, side_a in a["workloads"].items():
        side_b = b["workloads"].get(workload)
        if side_b is None:
            continue
        for name, row_a in side_a["metrics"].items():
            row_b = side_b["metrics"].get(name)
            if row_b is None or name not in table:
                continue
            better, bound = table[name]
            result = verdict(row_a, row_b, better, bound)
            bad += result == "worse"
            print(f"{workload:<14}{name:<24}{row_a['median']:>12.5g}"
                  f"{row_a['q1']:>12.5g}{row_a['q3']:>12.5g}"
                  f"{row_b['median']:>12.5g}"
                  f"{row_b['q1']:>12.5g}{row_b['q3']:>12.5g}"
                  f"{bound:>7.2f}  {result}")
        share_a = side_a["failed"] / max(1, side_a["attempted"])
        share_b = side_b["failed"] / max(1, side_b["attempted"])
        if share_b > share_a:
            bad += 1
            print(f"{workload:<14}failed share rose: {share_a:.4f} -> "
                  f"{share_b:.4f}")
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    return compare(a, b)


if __name__ == "__main__":
    sys.exit(main())
