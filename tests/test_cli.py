import json

import pytest

from atomlab.cli import load_fixture, main

MATCHING = (
    '{"set":[{"tuple":[{"atom":"(0|0:1)"},{"atom":"(0|1:1)"}]},'
    '{"tuple":[{"atom":"(1|0:1)"},{"atom":"(1|1:1)"}]}]}'
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_logstar(capsys):
    code, out, _ = run(capsys, "logstar", "--p", "2", "--n", "16")
    assert code == 0
    assert out.strip() == "3"


def test_logstar_json(capsys):
    code, out, _ = run(capsys, "logstar", "--p", "3", "--n", "27", "--json")
    assert code == 0
    assert json.loads(out) == {"logstar": 2, "n": 27, "p": 3}


def test_reduce_support_fixture(capsys):
    code, out, _ = run(capsys, "reduce-support", "--fixture", "matching-p2")
    assert code == 0
    assert "b = 0:1,1:1" in out
    assert "support: 0:1,1:1" in out


def test_reduce_support_fixture_p3(capsys):
    code, out, _ = run(capsys, "reduce-support", "--fixture", "matching-p3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["support"] == ["0:1,1:2"]
    assert payload["trace"][0]["h"] == "1,1"


def test_act_atom(capsys):
    code, out, _ = run(capsys, "act", "--g", "1,0", "--atom", "(0|0:1)")
    assert code == 0
    assert out.strip() == "(1|0:1)"


def test_act_requires_exactly_one_target(capsys):
    code, _, _ = run(capsys, "act", "--g", "1,0")
    assert code == 2


def test_orbit(capsys):
    code, out, _ = run(
        capsys,
        "orbit",
        "--x",
        '{"atom":"(0|0:1)"}',
        "--horizon",
        "2",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 2


def test_stabilizer(capsys):
    code, out, _ = run(
        capsys, "stabilizer", "--x", MATCHING, "--horizon", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 1
    assert payload["basis"] == ["1,1"]


def test_support_check_exit_codes(capsys):
    code, out, _ = run(
        capsys, "support-check", "--a", "0:1,1:1", "--x", MATCHING, "--horizon", "2"
    )
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(
        capsys, "support-check", "--a", "", "--x", '{"atom":"(0|0:1)"}', "--horizon", "2"
    )
    assert (code, out.strip()) == (1, "false")


def test_density_single(capsys):
    code, out, _ = run(capsys, "density", "--vectors", "0:1;1:1;0:1,1:1", "--k", "1")
    assert code == 0
    assert out.strip() == "2"


def test_density_profile_csv(capsys):
    code, out, _ = run(
        capsys, "density", "--vectors", "0:1;1:1", "--span", "--profile", "3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,d_k,logstar_dk,logstar_k"
    assert len(lines) == 4


def test_extract_thin_canonical(capsys):
    code, out, _ = run(capsys, "extract-thin", "--count", "3", "--p", "2")
    assert code == 0
    assert out.strip() == "indices: 0,3,5"


def test_extract_thin_fixture(capsys):
    code, out, _ = run(
        capsys,
        "extract-thin",
        "--stream",
        "fixture",
        "--fixture",
        "stream-canonical-p2",
        "--count",
        "3",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["indices"] == [0, 3, 5]
    assert payload["certificate"]["kind"] == "extracted-stream"


def test_certify_round_trip(tmp_path, capsys):
    cert = {
        "kind": "extracted-stream",
        "p": 2,
        "window": 64,
        "checkpoints": [[0, 1], [3, 2], [5, 3]],
    }
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "certify", "--input", str(path))
    assert (code, out.strip()) == (0, "valid")

    cert["checkpoints"][1] = [2, 2]
    path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "certify", "--input", str(path))
    assert code == 1
    assert "invalid" in out


def test_tower(capsys):
    code, out, _ = run(capsys, "tower", "--levels", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["height"] == 3
    assert len(payload["levels"]) == 3


def test_refute_pcf(capsys):
    code, out, _ = run(
        capsys, "refute-pcf", "--levels", "4", "--s", "0,2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["i"] == 1
    assert payload["S"] == [0, 2]
    assert [lv["n"] for lv in payload["levels"]] == [1, 2, 3]


def test_refute_pcf_full_support_errors(capsys):
    code, _, err = run(capsys, "refute-pcf", "--levels", "2", "--s", "0,1")
    assert code == 2
    assert "error" in err


def test_unknown_fixture(capsys):
    code, _, err = run(capsys, "reduce-support", "--fixture", "nope")
    assert code == 2
    assert "unknown fixture" in err


def test_bad_flag_exits_two(capsys):
    code, _, _ = run(capsys, "logstar", "--n", "not-a-number")
    assert code == 2


def test_verify_all_scaled_deterministic(tmp_path, capsys):
    args = [
        "verify-all",
        "--seed",
        "7",
        "--trials",
        "3",
        "--logstar-max",
        "500",
        "--json",
    ]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["passed"] is True
    assert [s["name"] for s in report["suites"]] == sorted(
        s["name"] for s in report["suites"]
    )


def test_cap_and_window_exhaustion_exit_three(capsys):
    # footprint rank 21 at horizon 30: 2^21 elements to list, over the cap
    wide = json.dumps({"tuple": [{"atom": f"(0|{i}:1)"} for i in range(21)]})
    code, _, err = run(capsys, "orbit", "--x", wide, "--horizon", "30")
    assert code == 3
    assert "enumeration of 2097152 elements exceeds cap 1000000" in err
    code, _, err = run(capsys, "extract-thin", "--count", "5", "--window", "64")
    assert code == 3
    assert "WindowExhaustedError" in err


def test_orbit_at_horizon_thirty(capsys):
    # 2^30 group elements, of which only the pairing with 0:1 matters
    code, out, _ = run(capsys, "orbit", "--x", '{"atom":"(0|0:1)"}', "--horizon", "30")
    assert code == 0
    assert out.splitlines()[0] == "orbit size 2"


def test_unread_flags_rejected(capsys):
    for argv in (
        ["verify-all", "--p", "5"],
        ["logstar", "--seed", "3", "--n", "4"],
        ["certify", "--horizon", "2", "--input", "unused.json"],
        ["density", "--cap-enum", "5", "--vectors", "0:1"],
    ):
        code, _, _ = run(capsys, *argv)
        assert code == 2, argv


def test_extract_thin_fixture_p_mismatch(capsys):
    for flag in (["--p=3"], ["--p", "3"]):
        code, _, err = run(capsys, "extract-thin", "--stream", "fixture", *flag)
        assert code == 2
        assert "fixture has p=2" in err
    code, out, _ = run(capsys, "extract-thin", "--stream", "fixture", "--p=2")
    assert (code, out.strip()) == (0, "indices: 0,3,5")


def test_verify_all_config_holds_only_read_flags(capsys):
    code, out, _ = run(
        capsys, "verify-all", "--trials", "1", "--logstar-max", "10", "--json"
    )
    assert code == 0
    assert json.loads(out)["config"] == {"seed": 42, "trials": 1, "logstar_max": 10}


def test_certify_rejects_non_prime_modulus(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"kind": "finite-set", "p": 4, "elements": []}))
    code, _, err = run(capsys, "certify", "--input", str(path))
    assert code == 2
    assert "prime" in err


def test_certify_checks_window(tmp_path, capsys):
    cert = {"kind": "extracted-stream", "p": 2, "window": 3,
            "checkpoints": [[0, 1], [3, 2], [5, 3]]}  # fmt: skip
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "certify", "--input", str(path))
    assert code == 1
    assert "outside the inspected window 3" in out
    del cert["window"]
    path.write_text(json.dumps(cert))
    code, _, _ = run(capsys, "certify", "--input", str(path))
    assert code == 2


def test_logstar_past_a_huge_tower(capsys):
    # one above tower(3, 3) = 3^27: the next tower, 3^(3^27), must not be built
    code, out, _ = run(capsys, "logstar", "--p", "3", "--n", "7625597484988")
    assert (code, out.strip()) == (0, "4")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certify", "--input", "missing.json"], "cannot read"),
        (["certify", "--input", "truncated.json"], "cannot read"),
        (["act", "--g", "1,0", "--x", '{"atom": 5}'], "bad HF JSON node"),
        (["act", "--g", "1,0", "--x", '{"set": 5}'], "bad HF JSON node"),
        (["reduce-support", "--input", "p_only.json"], "KeyError: 'horizon'"),
        (["extract-thin", "--stream", "file", "--input", "p_only.json"],
         "KeyError: 'vectors'"),
        (["logstar", "--n", "16", "--output", "no_such_dir/out.json"],
         "cannot write"),
        (["verify-all", "--trials", "0"], "trials must be positive"),
        (["verify-all", "--trials", "-3"], "trials must be positive"),
        (["certify", "--input", "p_float.json"], "expected an integer, got 2.5"),
        (["certify", "--input", "window_float.json"], "expected an integer, got 10.9"),
        (["certify", "--input", "bound_text.json"], "expected an integer, got '3'"),
        (["certify", "--input", "window_bool.json"], "expected an integer, got True"),
        (["reduce-support", "--input", "instance_float.json"],
         "TypeError: expected an integer, got 2.9"),
    ],
    ids=["missing-file", "truncated-json", "atom-not-text", "set-not-list",
         "reduce-support-missing-keys", "extract-thin-missing-keys",
         "output-unwritable", "trials-zero", "trials-negative",
         "certify-p-float", "certify-window-and-index-float", "certify-bound-text",
         "certify-window-and-bound-bool", "reduce-support-p-and-horizon-float"],
)  # fmt: skip
def test_malformed_input_exits_two(tmp_path, capsys, argv, message):
    stream = {"kind": "extracted-stream", "p": 2, "window": 64,
              "checkpoints": [[0, 1], [3, 2], [5, 3]]}  # fmt: skip
    inputs = {
        "truncated.json": '{"kind": "finite-set", "p": 2, "elem',
        "p_only.json": '{"p": 2}',
        # each of these was once read through int() and accepted
        "p_float.json": {**stream, "p": 2.5},
        "window_float.json": {
            **stream, "window": 10.9, "checkpoints": [[0, 1], [3.7, 2]]
        },
        "bound_text.json": {**stream, "checkpoints": [[0, 1], [3, 2], [5, "3"]]},
        "window_bool.json": {**stream, "window": True, "checkpoints": [[0, True]]},
        "instance_float.json": {
            **load_fixture("matching-p2"), "p": 2.9, "horizon": 3.5
        },
    }
    for name, content in inputs.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["refute-pcf", "--fixture", "refute-n4", "--levels", "9"],
        ["refute-pcf", "--fixture", "refute-n4", "--s", "3"],
        ["extract-thin", "--input", "stream.json"],
        ["extract-thin", "--stream", "canonical", "--fixture", "stream-canonical-p2"],
        ["extract-thin", "--stream", "fixture", "--input", "stream.json"],
        ["orbit", "--x", '{"atom":"(0|0:1)"}', "--cap-enum", "-5"],
        ["stabilizer", "--x", '{"atom":"(0|0:1)"}', "--cap-enum", "0"],
        ["tower", "--levels", "3", "--cap-tower", "-1"],
        ["extract-thin", "--count", "2", "--window", "-3"],
        ["orbit", "--x", '{"atom":"(0|0:1)"}', "--horizon", "-2"],
    ],
    ids=["refute-fixture-levels", "refute-fixture-s", "extract-input-no-file",
         "extract-canonical-fixture", "extract-fixture-input",
         "orbit-cap-negative", "stabilizer-cap-zero", "tower-cap-negative",
         "extract-window-negative", "orbit-horizon-negative"],
)  # fmt: skip
def test_flags_the_route_ignores_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"atomlab {argv[0]}: error:" in err
