#!/usr/bin/env python3
"""Record perfbench/baseline.json: run every workload on several seeds.

For each workload: ``--seeds`` untraced runs (seeds 1..N), summarised per
end-to-end metric as median, quartiles and quartile distance over median
(``statistics.quantiles(values, n=4)``), and one traced run on each of
seeds 1 and 2 for the per-layer metrics.  Run from the root of a checkout::

    python3 perfbench/make_baseline.py --seeds 10 --seconds 40

Runs one benchmark process at a time; prints each result line to stderr
as it comes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    *_, meta_line, result_line = proc.stdout.splitlines()
    print(f"{workload} seed={seed} trace={trace} took {time.perf_counter() - start:.1f}s "
          f"{result_line}", file=sys.stderr, flush=True)
    return json.loads(meta_line)["meta"], json.loads(result_line)


def summary(values, unit):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median,
            "unit": unit, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)

    seeds = list(range(1, args.seeds + 1))
    workloads = {}
    for workload in args.workloads:
        runs = [run(workload, seed, args.seconds, 0) for seed in seeds]
        traced = {f"seed {seed}": run(workload, seed, args.seconds, 1) for seed in (1, 2)}
        meta = runs[0][0]
        workloads[workload] = {
            "seeds": seeds,
            "all_correct": all(r["correct"] for _, r in runs + list(traced.values())),
            "end_to_end": {
                name: summary([r["metrics"][name]["value"] for _, r in runs], entry["unit"])
                for name, entry in runs[0][1]["metrics"].items()
            },
            "meta": {k: meta[k] for k in ("commit", "python", "nproc", "kernel", "workers",
                                          "passes", "ops_per_pass", "items_per_pass",
                                          "tail_percentile", "known_defects") if k in meta},
            "per_layer": {key: {name: m["value"] for name, m in r["metrics"].items()}
                          for key, (_, r) in traced.items()},
        }
    args.out.write_text(json.dumps({
        "note": f"--seconds {args.seconds:g}; end_to_end over untraced runs on seeds "
                f"1..{args.seeds}; per_layer from one traced run on seed 1 and one on seed 2.",
        "workloads": workloads,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
