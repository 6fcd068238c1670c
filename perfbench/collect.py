"""Run the benchmark over several seeds and summarise it against its bounds.

    python3 perfbench/collect.py --out perfbench/baseline/BENCH_0.json

For each workload of BENCHMARK.json this makes one untraced run per
seed 1..10 and one traced run with seed 1, each ``run_seconds`` long, one
process at a time.  It records every run's metrics and process time, the
median and quartiles of each end-to-end metric, and its spread: the
distance between the quartiles as a share of the median, next to the
bound that BENCHMARK.json fixes for it.
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
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    process_s = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["process_s"] = process_s
    result["input_digest"] = report["input_digest"]
    result["rounds"] = len(report["rounds"])
    if "latency_tail" in report:
        result["latency_tail"] = report["latency_tail"]
    result["environment"] = report["environment"]
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="write the summary JSON here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: rounds={runs[-1]['rounds']}", file=sys.stderr)
        entry = {
            "environment": runs[0]["environment"],
            "runs": [{k: v for k, v in r.items() if k != "environment"} for r in runs],
            "all_correct": all(r["correct"] for r in runs),
            "metrics": {},
        }
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in runs])
            entry["metrics"][name] = s
            flag = "" if s["spread"] <= bound / 3 else "  <-- above bound/3"
            worst = max(worst, s["spread"] / bound)
            print(
                f"{workload:13s} {name:16s} median {s['median']:12.5g}  "
                f"spread {s['spread']:.3f}  bound {bound}{flag}"
            )
        traced = run_once(workload, SEEDS[0], seconds, 1)
        entry["traced"] = {
            "seed": SEEDS[0],
            "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(
            f"{workload:13s} trace overhead "
            f"{traced['metrics']['trace.overhead_frac']['value']:+.3f}"
        )
        summary["workloads"][workload] = entry
    print(f"largest spread / bound: {worst:.3f}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
