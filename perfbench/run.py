"""atomlab benchmark: one workload, one seed, one single-threaded process.

    python3 perfbench/run.py --workload horizon-wall --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; atomlab is imported from its
``src`` directory, never from an installed copy.  With ``--trace 0`` the
last line of standard output is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics, and the spans
go to ``perfbench/out``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 9

WORKLOADS = {
    "verify-all": "wl_verify_all",
    "horizon-wall": "wl_horizon_wall",
    "towers": "wl_towers",
}

# Every per-layer metric is reported for every workload, 0 where the
# workload makes no such call, so the names are fixed here.
LAYERS = (
    [
        "atom_action.pointwise_stabilizer",
        "atom_action.orbit",
        "atom_action.stabilizer_in",
        "atom_action.act_hf",
        "supports.is_support",
        "supports.find_small_support",
        "counterexample.build_tower",
        "counterexample.swap_effect",
        "counterexample.refute_pcf",
    ]
    + [
        f"cli.{c}"
        for c in (
            "act",
            "orbit",
            "stabilizer",
            "support-check",
            "reduce-support",
            "density",
            "logstar",
            "extract-thin",
            "certify",
            "tower",
            "refute-pcf",
        )
    ]
    + [
        f"verify.suite.{s}"
        for s in (
            "action-laws",
            "density-ideal",
            "encoding",
            "extraction",
            "fp-core",
            "support-basics",
            "support-reduction",
            "tower-refutation",
        )
    ]
)
COUNTS = [
    "atom_action.stabilizer_in.elements",
    "atom_action.stabilizer_in.footprint_elements",
    "counterexample.refute_pcf.selections",
]


def _purge_program_modules(workload_module: str) -> None:
    for name in list(sys.modules):
        if name == "atomlab" or name.startswith("atomlab.") or name == workload_module:
            del sys.modules[name]


def digest(plan) -> str:
    text = json.dumps(plan, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def set_up(workload: str, seed: int, reps: int = SETUP_REPS):
    """Import the program and build the inputs ``reps`` times from a cold
    module cache; return the last build (one list of operations per planned
    round) and the median set-up time, raw and at reference speed (see
    harness)."""
    name = WORKLOADS[workload]
    raw, scaled, digests = [], [], set()
    clock = harness.ReferenceClock()
    for _ in range(reps):
        _purge_program_modules(name)
        start = time.perf_counter()
        module = importlib.import_module(name)
        plan = module.make_plan(seed)
        built = module.build(plan)
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * clock.scale())
        digests.add(digest(plan))
    if len(digests) != 1:
        raise RuntimeError(f"inputs differ between builds with seed {seed}")
    return module, plan, built, statistics.median(raw), statistics.median(scaled)


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, argv) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": ["python3", "perfbench/run.py", *argv],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "atomlab" / "__init__.py").is_file():
        print(f"error: no atomlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    module, plan, plan_rounds, setup_raw_s, setup_s = set_up(args.workload, args.seed)
    rounds, rec, failures = harness.run_closed_loop(
        plan_rounds, args.seconds, bool(args.trace)
    )
    attempted = sum(sum(r.outcomes.values()) for r in rounds)
    wrong = sum(r.outcomes[harness.WRONG] for r in rounds)
    report = {
        "environment": environment(args, argv),
        "input_digest": digest(plan),
        "input_properties": module.describe(plan),
        "setup_raw_s": setup_raw_s,
        "rounds": [
            {
                "traced": r.traced,
                "raw_wall_s": r.raw_wall_s,
                "wall_s": r.wall_s,
                "cpu_s": r.cpu_s,
                "outcomes": r.outcomes,
            }
            for r in rounds
        ],
        "failures": failures,
    }
    if args.trace:
        metrics = harness.per_layer(rounds, rec, LAYERS, COUNTS)
        report["spans"] = {
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "rows": [list(s) for s in rec.spans],
        }
    else:
        metrics, report["latency_tail"] = harness.end_to_end(
            [r for r in rounds if not r.traced], module.TAIL_Q, setup_s
        )
    report["metrics"] = metrics

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1) + "\n")
    for line in failures:
        print(f"WRONG {line}", file=sys.stderr)
    print(
        f"# {args.workload} seed={args.seed} rounds={len(rounds)} "
        f"digest={report['input_digest'][:16]} report={out_file.relative_to(ROOT)}"
    )
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": wrong,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
