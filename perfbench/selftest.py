"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import dataclasses
import io
import json
import random
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import run  # noqa: E402


def _built(workload: str, seed: int = 1):
    module, plan, built, _, _ = run.set_up(workload, seed, reps=1)
    return module, plan, built


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_gives_same_input_digest(workload):
    first = run.digest(_built(workload, 7)[1])
    again = run.digest(_built(workload, 7)[1])
    other = run.digest(_built(workload, 8)[1])
    assert first == again
    assert first != other


def _spec(module, kind: str, p: int, horizon: int, seed: int = 0) -> dict:
    rng = random.Random(seed)
    if kind == "query":
        return module._query_spec(rng, p, horizon, 2)
    return module._reduce_spec(rng, p, horizon)


def _op(module, spec: dict):
    return module.QueryOp(spec, {}) if spec["kind"] == "query" else module.ReduceOp(spec)


def _one_round(ops, tracing=False):
    rec = harness.Recorder(tracing=tracing)
    failures: list = []
    return harness.run_round(ops, rec, failures), rec, failures


def test_checked_answers_pass():
    module, _, _ = _built("horizon-wall")
    ops = [
        _op(module, _spec(module, "query", 2, 5)),
        _op(module, _spec(module, "query", 3, 4)),
        _op(module, _spec(module, "reduce", 2, 6)),
        _op(module, _spec(module, "reduce", 3, 6)),
    ]
    res, _, failures = _one_round(ops)
    assert res.outcomes == {harness.OK: 4, harness.REFUSED: 0, harness.WRONG: 0}, failures


def test_corrupted_answer_is_counted_failed():
    module, _, _ = _built("horizon-wall")
    good = _op(module, _spec(module, "query", 2, 5))

    def corrupt(rec):
        out = good.run(rec)
        out["orbit"] = frozenset(list(out["orbit"])[1:])
        return out

    def boom(rec):
        raise KeyError("not a cap refusal")

    ops = [harness.Op("query", corrupt, good.check), harness.Op("query", boom, good.check), good]
    res, _, failures = _one_round(ops)
    assert res.outcomes == {harness.OK: 1, harness.REFUSED: 0, harness.WRONG: 2}
    assert len(res.latencies_s) == 1
    assert len(failures) == 2


def test_corrupted_tower_and_cli_answers_are_counted_failed():
    towers, plan, built = _built("towers")
    tower_op = built[0][0]

    def miscount(rec):
        out = tower_op.run(rec)
        rep = out["reports"][0]
        out["reports"][0] = type(rep)(
            rep.proposed_support, rep.swap_level, rep.g, rep.witnesses,
            rep.selections_checked + 1,
        )  # fmt: skip
        return out

    _, _, verify_all = _built("verify-all")
    cli_op = next(op for op in verify_all[0] if op.kind == "cli")
    ops = [
        harness.Op("tower", miscount, tower_op.check),
        harness.Op("cli", lambda rec: cli_op.run(rec) + "extra\n", cli_op.check),
        harness.Op("cli", lambda rec: "", cli_op.check),
    ]
    res, _, _ = _one_round(ops)
    assert res.outcomes[harness.WRONG] == 2  # extra output lines are allowed
    assert res.outcomes[harness.OK] == 1


def test_query_check_does_not_use_the_programs_action(monkeypatch):
    from atomlab import atom_action

    module, _, _ = _built("horizon-wall")
    op = _op(module, _spec(module, "query", 3, module.ORACLE_MAX_H + 1))
    out = op.run(harness.Recorder())

    def no_action(*args):
        raise AssertionError("the check called the program's action")

    monkeypatch.setattr(atom_action, "act_hf", no_action)
    monkeypatch.setattr(atom_action, "act_atom", no_action)
    assert op.check(out, None) == harness.OK


def test_cap_refusal_counts_in_failed_frac_and_layer_failed():
    module, _, _ = _built("horizon-wall")
    beyond = _op(module, _spec(module, "query", 2, 21))
    reduce_beyond = _op(module, _spec(module, "reduce", 2, 22))
    small = _op(module, _spec(module, "query", 2, 5))
    res, rec, failures = _one_round([beyond, reduce_beyond, small], tracing=True)
    assert res.outcomes == {harness.OK: 1, harness.REFUSED: 2, harness.WRONG: 0}, failures
    assert rec.layers["atom_action.orbit"].failed == 1
    assert rec.layers["atom_action.stabilizer_in"].failed == 1
    assert rec.layers["supports.find_small_support"].failed == 1
    assert rec.layers["supports.is_support"].failed == 0

    plain = dataclasses.replace(res, traced=False)
    layers = harness.per_layer([res, plain], rec, run.LAYERS, run.COUNTS)
    assert layers["ops.failed_frac"]["value"] == pytest.approx(2 / 3)
    assert layers["atom_action.orbit.failed"]["value"] == 1
    e2e, _ = harness.end_to_end([plain], module.TAIL_Q, 0.1)
    assert e2e["answered_frac"]["value"] == pytest.approx(1 / 3)


def test_refusal_under_the_cap_is_wrong():
    module, _, _ = _built("horizon-wall")
    small = module.QueryOp(_spec(module, "query", 2, 5), {})
    out = {
        "fixers": None,
        "orbit": module.ResourceError("cap"),
        "stabilizer_in": module.ResourceError("cap"),
        "is_support": True,
    }
    out["fixers"] = module.pointwise_stabilizer(small.footprint, small.h, small.p)
    assert small.check(out, None) == harness.WRONG


def test_benchmark_json_names_match_the_output():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    r = harness.RoundResult(True, 1.0, 1.0, 1.0, [0.001], {"ok": 1, "refused": 0, "wrong": 0})
    plain = dataclasses.replace(r, traced=False)
    layer = harness.per_layer([r, plain], harness.Recorder(), run.LAYERS, run.COUNTS)
    e2e, _ = harness.end_to_end([plain], 0.9, 0.1)
    for listed, got in ((bench["per_layer"], layer), (bench["end_to_end"], e2e)):
        assert [m["name"] for m in listed] == list(got)
        assert [m["unit"] for m in listed] == [v["unit"] for v in got.values()]


def test_every_suite_and_subcommand_is_measured():
    # a suite or subcommand added to the program must not go unmeasured
    from atomlab import cli, verify

    module, _, _ = _built("verify-all")
    assert module.SUITES == sorted(verify.SUITES)
    assert [f"verify.suite.{n}" for n in module.SUITES] == [
        layer for layer in run.LAYERS if layer.startswith("verify.suite.")
    ]
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    commands = sorted(set(sub.choices) - {"verify-all"})
    assert sorted(argv[0] for argv, _ in module.CLI_CASES) == commands
    assert sorted(f"cli.{c}" for c in commands) == sorted(
        layer for layer in run.LAYERS if layer.startswith("cli.")
    )


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_one_round_end_to_end(workload):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0"]) == 0
    result = json.loads(buf.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "towers", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_loop_ends_when_checks_outweigh_the_program():
    def slow_check(result, exc):
        time.sleep(0.05)
        return harness.OK

    ops = [harness.Op("noop", lambda rec: None, slow_check)] * 4
    start = time.perf_counter()
    rounds, _, _ = harness.run_closed_loop([ops], 0.5, False)
    assert time.perf_counter() - start < 0.5 * harness.WALL_LIMIT_FACTOR + 1.0
    assert len(rounds) >= 2


def test_loop_runs_enough_rounds_for_the_tail():
    ops = [harness.Op("nap", lambda rec: time.sleep(0.2), lambda result, exc: harness.OK)]
    rounds, _, _ = harness.run_closed_loop([ops], 1.0, False)
    assert len(rounds) == harness.MIN_ROUNDS
