"""Workload ``verify-all``: the property suites, then every CLI subcommand.

This is what a user runs to check the whole lab.  A round runs each of
the 8 suites behind ``atomlab verify-all`` through ``verify.run_suite``
(the loop ``verify_all`` runs, one suite per operation so that each one
is timed) with a seed of its own, then each of the 11 other CLI subcommands once on its shipped
fixture or README example, through ``cli.main`` with output captured.
Every layer does some work at small horizons (H <= 4), so the footprint
quotient has nothing to remove here, while ``act_hf`` and ``log_star_p``
run often.

Trial counts are scaled down (``trials``, ``logstar_max``) so that a run
holds about ten rounds.  With 19 slots per round, the median (rank 9.5)
and the tail quantile 17.5/19 fall in the middle of one slot's samples;
the 0.9 quantile (rank 17.1) would sit on the edge between two suites.
The slowest slots, action-laws, support-reduction and tower-refutation,
overlap, so the tail depends on the mix of suite seeds a run draws.
At 5 trials the cost of action-laws varied 10x with its seed, and the
tail's spread over ten run seeds was 0.093 and 0.121 in two sets; at 10
trials it varies about 3x, and the spread was 0.072 and 0.065.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from atomlab import cli
from atomlab.verify import VerifyConfig, run_suite

import harness

TAIL_Q = 17.5 / 19  # the middle of the second-slowest slot's samples
TRIALS = 10
LOGSTAR_MAX = 10**4
PLAN_ROUNDS = 32
SUITES = [
    "action-laws",
    "density-ideal",
    "encoding",
    "extraction",
    "fp-core",
    "support-basics",
    "support-reduction",
    "tower-refutation",
]
CERTIFICATE = "fixtures/certificate.json"  # relative to this directory
_PARALLEL = json.dumps(
    {
        "set": [
            {"tuple": [{"atom": "(0|0:1)"}, {"atom": "(0|1:1)"}]},
            {"tuple": [{"atom": "(1|0:1)"}, {"atom": "(1|1:1)"}]},
        ]
    }
)
_CELL = json.dumps({"set": [{"atom": "(0|0:1)"}, {"atom": "(1|0:1)"}]})

# (argv, expected stdout lines): each expected line must appear in order;
# a line ending in "..." matches any line with that prefix.  Exit code 0.
CLI_CASES = [
    (["act", "--g", "1,0", "--atom", "(0|0:1)"], ["(1|0:1)"]),
    (
        ["orbit", "--x", '{"atom":"(0|0:1)"}', "--horizon", "2"],
        ["orbit size 2", "(0|0:1)", "(1|0:1)"],
    ),
    (
        ["stabilizer", "--x", _CELL, "--horizon", "2"],
        ["stabilizer dimension 2 size 4", "basis: 1,0 0,1"],
    ),
    (["support-check", "--a", "0:1,1:1", "--x", _PARALLEL, "--horizon", "2"], ["true"]),
    (
        ["reduce-support", "--fixture", "matching-p2"],
        ["step 1: h = 1,1 m = 1 n = 1 b = 0:1,1:1", "support: 0:1,1:1"],
    ),
    (
        ["density", "--vectors", "0:1;1:1", "--span", "--profile", "4"],
        ["k,d_k,logstar_dk,logstar_k", "1,2,1,0", "2,4,2,1", "3,4,2,2", "4,4,2,2"],
    ),
    (["logstar", "--p", "2", "--n", "16"], ["3"]),
    (["extract-thin", "--count", "3", "--p", "2"], ["indices: 0,3,5"]),
    (["certify", "--input", CERTIFICATE], ["valid"]),
    (
        ["tower", "--levels", "4"],
        ["tower of height 4", "X_0 = {(0|0:1), (1|0:1)}", "X_1 = ...", "X_2 = ...", "X_3 = ..."],
    ),
    (
        ["refute-pcf", "--fixture", "refute-n4"],
        [
            "S = [0, 2]; first unsupported level i = 1; swap g = 0,1,0,0",
            "all 24 selections over the covered domains were moved",
            "level 1: both elements moved",
            "level 2: both elements moved",
            "level 3: both elements moved",
        ],
    ),
]


def make_plan(seed: int) -> list[list[dict]]:
    """Per round, a suite seed drawn from ``seed`` and the CLI invocations.

    The cost of a suite run varies with its seed by up to 2x (the random
    objects of action-laws differ in size), so every round draws its own
    suite seed and a run's figures average over several of them.
    """
    plan = []
    cmds = [{"kind": "cli", "argv": argv, "expect": expect} for argv, expect in CLI_CASES]
    for r in range(PLAN_ROUNDS):
        suite_seed = random.Random(f"verify-all:{seed}:{r}").randrange(2**31)
        suites = [
            {"kind": "suite", "name": n, "seed": suite_seed, "trials": TRIALS,
             "logstar_max": LOGSTAR_MAX}
            for n in SUITES
        ]  # fmt: skip
        plan.append(suites + cmds)
    return plan


def describe(plan: list[list[dict]]) -> dict:
    ops = [op for rnd in plan for op in rnd]
    return {
        "ops": len(ops),
        "suites": sum(op["kind"] == "suite" for op in ops),
        "suite_seeds": len({op["seed"] for op in ops if op["kind"] == "suite"}),
        "cli_subcommands": sum(op["kind"] == "cli" for op in ops),
        "trials": TRIALS,
        "logstar_max": LOGSTAR_MAX,
        "beyond_cap_frac": 0.0,
    }


class SuiteOp:
    kind = "suite"

    def __init__(self, spec: dict):
        self.name = spec["name"]
        self.cfg = VerifyConfig(
            seed=spec["seed"], trials=spec["trials"], logstar_max=spec["logstar_max"]
        )

    def run(self, rec: harness.Recorder):
        return rec.call(f"verify.suite.{self.name}", run_suite, self.name, self.cfg)

    def check(self, checks, exc: BaseException | None) -> str:
        ok = exc is None and len(checks) > 0 and all(c.passed for c in checks)
        return harness.OK if ok else harness.WRONG


class CliExitError(RuntimeError):
    """A subcommand exited non-zero."""


def _run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CliExitError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def lines_match(text: str, expect: list[str]) -> bool:
    """True iff each expected line occurs in ``text``, in order."""
    lines = iter(text.splitlines())
    for want in expect:
        if want.endswith("..."):
            hit = any(line.startswith(want[:-3]) for line in lines)
        else:
            hit = want in lines
        if not hit:
            return False
    return True


class CliOp:
    kind = "cli"

    def __init__(self, spec: dict):
        here = Path(__file__).resolve().parent
        self.argv = [str(here / a) if a == CERTIFICATE else a for a in spec["argv"]]
        self.layer = f"cli.{self.argv[0]}"
        self.expect = spec["expect"]

    def run(self, rec: harness.Recorder) -> str:
        return rec.call(self.layer, _run_cli, self.argv)

    def check(self, text: str, exc: BaseException | None) -> str:
        ok = exc is None and lines_match(text, self.expect)
        return harness.OK if ok else harness.WRONG


def build(plan: list[list[dict]]) -> list[list]:
    return [[SuiteOp(s) if s["kind"] == "suite" else CliOp(s) for s in rnd] for rnd in plan]
