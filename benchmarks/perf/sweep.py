"""Run every workload over several seeds, each run in a fresh process as
the driver does, and write one result-set file ``compare.py`` can read.

``python3 benchmarks/perf/sweep.py --seeds 10 --out A.json`` prints, per
(workload, metric), the sample count, median, quartiles and the spread
(Q3 - Q1 over the median) the driver holds against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR))

from harness import OUT_DIR, REPO_ROOT, summarize  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = OUT_DIR / f"sweep-{workload}-{seed}-{trace}.json"
    done = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--out", str(out)],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {done.stderr[-800:]}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    detail = json.loads(out.read_text())
    out.unlink()
    return {"line": line, "named": detail["named"],
            "provenance": detail["provenance"]}


def main(argv=None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10,
                        help="runs per workload, seeds FIRST..FIRST+N-1")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="restrict to these workloads")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    names = args.workload or [w["name"] for w in spec["workloads"]]
    result = {"seconds": args.seconds, "workloads": {}}
    for workload in names:
        samples: dict[str, list] = {}
        attempted = failed = 0
        started = time.perf_counter()
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            run = run_once(workload, seed, args.seconds, 0)
            result.setdefault("provenance", run["provenance"])
            attempted += run["line"]["attempted"]
            failed += run["line"]["failed"]
            for name, row in run["line"]["metrics"].items():
                samples.setdefault(name, []).append(row["value"])
            for name, row in run["named"].items():
                if name != "setup_s":
                    samples.setdefault(name, []).append(row["value"])
        result["workloads"][workload] = {
            "attempted": attempted, "failed": failed,
            "wall_s_per_run": (time.perf_counter() - started) / args.seeds,
            "metrics": {n: {"samples": v, **summarize(v)}
                        for n, v in samples.items()},
        }
        print(f"{workload}: attempted {attempted} failed {failed} "
              f"({result['workloads'][workload]['wall_s_per_run']:.1f} s/run)")
        for name, row in result["workloads"][workload]["metrics"].items():
            print(f"  {name:<26} n={row['n']:<3} median {row['median']:<14.5g}"
                  f" q1 {row['q1']:<12.5g} q3 {row['q3']:<12.5g}"
                  f" spread {row['spread']:.4f}")
    Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
