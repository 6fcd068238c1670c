"""Command-line front door.

Conventions: vectors are written ``0:1,2:1`` (zero vector: empty string
or ∅), sets of vectors are semicolon-separated, group elements are dense
residue lists like ``1,0,1``, and HF objects are JSON
({"atom": "(a|w)"} | {"set": [...]} | {"tuple": [...]}).

Exit status is 0 iff every executed check passed (a false support-check
or an invalid certificate exits 1); bad flags or inputs exit 2; a cap or
lookahead window that runs out (ResourceError, WindowExhaustedError) or
a failed runtime self-check (InternalConsistencyError) exits 3.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from importlib import resources

from .atom_action import (
    Atom,
    FiniteSet,
    GroupElement,
    act_atom,
    act_hf,
    hf_from_json,
    hf_to_json,
    orbit,
    pointwise_stabilizer,
    sort_key,
    stabilizer_in,
)
from .counterexample import build_tower, refute_pcf
from .errors import (
    CertificateError,
    InternalConsistencyError,
    ResourceError,
    UsageError,
)
from .fp_core import Vector, span_of
from .supports import find_small_support, is_support
from .thin_ideal import (
    VectorStream,
    canonical_stream,
    certificate_from_json,
    certificate_to_json,
    certificate_violations,
    density_d_k,
    density_profile,
    extract_thin_subsequence,
    log_star_p,
)
from .verify import VerifyConfig, verify_all

FIXTURES = {
    "matching-p2": "matching_p2.json",
    "matching-p3": "matching_p3.json",
    "stream-canonical-p2": "stream_canonical_p2.json",
    "refute-n4": "refute_n4.json",
}


def load_fixture(name: str) -> dict:
    try:
        filename = FIXTURES[name]
    except KeyError:
        raise UsageError(
            f"unknown fixture {name!r}; available: {', '.join(sorted(FIXTURES))}"
        ) from None
    text = resources.files("atomlab").joinpath("fixtures", filename).read_text()
    return json.loads(text)


def parse_vector_set(text: str, p: int) -> list[Vector]:
    text = text.strip()
    if not text:
        return []
    return [Vector.from_text(part, p) for part in text.split(";")]


def parse_hf(text: str, p: int):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"bad HF JSON: {exc}") from None
    return hf_from_json(obj, p)


def emit(args, payload: dict, text: str) -> None:
    if args.json:
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        out = text if text.endswith("\n") else text + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def cmd_act(args) -> int:
    g = GroupElement.from_text(args.g, args.p)
    if args.atom is not None:
        result = act_atom(Atom.from_text(args.atom, args.p), g)
        emit(args, {"result": {"atom": result.to_text()}}, result.to_text(zero="∅"))
    else:
        result = act_hf(parse_hf(args.x, args.p), g)
        emit(args, {"result": hf_to_json(result)}, repr(result))
    return 0


def _subgroup(args):
    vectors = parse_vector_set(args.stab_of, args.p)
    return pointwise_stabilizer(vectors, args.horizon, args.p)


def cmd_orbit(args) -> int:
    x = parse_hf(args.x, args.p)
    orb = sorted(orbit(x, _subgroup(args), cap=args.cap_enum), key=sort_key)
    payload = {"size": len(orb), "orbit": [hf_to_json(m) for m in orb]}
    text = f"orbit size {len(orb)}\n" + "\n".join(repr(m) for m in orb)
    emit(args, payload, text)
    return 0


def cmd_stabilizer(args) -> int:
    x = parse_hf(args.x, args.p)
    sub = stabilizer_in(x, _subgroup(args), cap=args.cap_enum)
    basis = [g.to_text() for g in sub.basis_elements()]
    payload = {"dimension": sub.dimension, "size": sub.size, "basis": basis}
    text = f"stabilizer dimension {sub.dimension} size {sub.size}\nbasis: " + (
        " ".join(basis) if basis else "(trivial)"
    )
    emit(args, payload, text)
    return 0


def cmd_support_check(args) -> int:
    vectors = parse_vector_set(args.a, args.p)
    x = parse_hf(args.x, args.p)
    ok = is_support(
        vectors, x, args.horizon, args.p, exhaustive=args.exhaustive, cap=args.cap_enum
    )
    emit(args, {"supports": ok}, "true" if ok else "false")
    return 0 if ok else 1


def cmd_reduce_support(args) -> int:
    if args.fixture:
        data = load_fixture(args.fixture)
    else:
        with open(args.input) as fh:
            data = json.load(fh)
    p = int(data["p"])
    horizon = int(data["horizon"])
    base = [Vector.from_text(t, p) for t in data["A"]]
    supp = [Vector.from_text(t, p) for t in data["B"]]
    x = hf_from_json(data["x"], p)
    orbit_set = FiniteSet(hf_from_json(m, p) for m in data["X"])
    result, trace = find_small_support(
        x, orbit_set, base, supp, horizon, p, cap=args.cap_enum
    )
    support_texts = sorted(v.to_text() for v in result)
    lines = []
    for k, step in enumerate(trace.steps):
        if step.shortcut:
            lines.append(f"step {k + 1}: shortcut, dropped to a proper subset")
        else:
            lines.append(
                f"step {k + 1}: h = {step.h.to_text()} m = {step.m} "
                f"n = {step.n} b = {step.b.to_text()}"
            )
    lines.append("support: " + ("; ".join(support_texts) if support_texts else "∅"))
    emit(
        args,
        {"support": support_texts, "trace": trace.to_json()},
        "\n".join(lines),
    )
    return 0


def cmd_density(args) -> int:
    vectors = parse_vector_set(args.vectors, args.p)
    source = span_of(vectors, args.p) if args.span else vectors
    if args.profile is not None:
        profile = density_profile(source, args.profile, args.p, cap=args.cap_enum)
        rows = profile.csv_rows()
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        emit(args, {"profile": rows[1:]}, buf.getvalue().rstrip("\n"))
        return 0
    d = density_d_k(source, args.k, cap=args.cap_enum)
    emit(args, {"k": args.k, "d_k": d}, str(d))
    return 0


def cmd_logstar(args) -> int:
    value = log_star_p(args.n, args.p)
    emit(args, {"n": args.n, "p": args.p, "logstar": value}, str(value))
    return 0


def cmd_extract_thin(args) -> int:
    if args.stream == "canonical":
        p = 2 if args.p is None else args.p
        stream = VectorStream(canonical_stream(p), p)
    else:
        if args.fixture:
            data = load_fixture(args.fixture)
        else:
            with open(args.input) as fh:
                data = json.load(fh)
        p = int(data["p"])
        if args.p is not None and args.p != p:
            raise UsageError(f"fixture has p={p}, flag says p={args.p}")
        terms = [Vector.from_text(t, p) for t in data["vectors"]]
        stream = VectorStream(iter(terms), p)
    indices, cert = extract_thin_subsequence(stream, args.count, p, window=args.window)
    payload = {
        "indices": list(indices),
        "certificate": certificate_to_json(cert),
    }
    text = "indices: " + ",".join(str(i) for i in indices)
    emit(args, payload, text)
    return 0


def cmd_certify(args) -> int:
    with open(args.input) as fh:
        data = json.load(fh)
    cert = certificate_from_json(data)
    problems = certificate_violations(cert)
    ok = not problems
    payload = {"valid": ok, "problems": problems}
    text = "valid" if ok else "invalid\n" + "\n".join(problems)
    emit(args, payload, text)
    return 0 if ok else 1


def cmd_tower(args) -> int:
    tower = build_tower(args.levels, cap=args.cap_tower)
    payload = {
        "height": tower.height,
        "levels": [hf_to_json(level) for level in tower.levels],
    }
    lines = [f"tower of height {tower.height}"]
    lines += [f"X_{n} = {level!r}" for n, level in enumerate(tower.levels)]
    emit(args, payload, "\n".join(lines))
    return 0


def cmd_refute_pcf(args) -> int:
    if args.fixture:
        data = load_fixture(args.fixture)
        levels, s = int(data["levels"]), [int(i) for i in data["s"]]
    else:
        levels = args.levels
        s = [int(t) for t in args.s.split(",") if t.strip() != ""] if args.s else []
    tower = build_tower(levels, cap=args.cap_tower)
    report = refute_pcf(tower, s)
    lines = [
        f"S = {sorted(s)}; first unsupported level i = {report.swap_level}; "
        f"swap g = {report.g.to_text()}",
        f"all {report.selections_checked} selections over the covered domains "
        "were moved",
    ]
    for w in report.witnesses:
        lines.append(f"level {w.n}: both elements moved")
    emit(args, report.to_json(), "\n".join(lines))
    return 0


def cmd_verify_all(args) -> int:
    cfg = VerifyConfig(
        seed=args.seed, trials=args.trials, logstar_max=args.logstar_max
    )
    report = verify_all(cfg)
    lines = []
    for suite in report["suites"]:
        status = "PASS" if suite["passed"] else "FAIL"
        lines.append(f"suite {suite['name']}: {status} ({len(suite['checks'])} checks)")
        for check in suite["checks"]:
            if not check["passed"]:
                lines.append(f"  FAIL {check['name']} {check['detail']}")
    lines.append("verify-all: " + ("PASS" if report["passed"] else "FAIL"))
    emit(args, report, "\n".join(lines))
    return 0 if report["passed"] else 1


# Flags shared by several subcommands; each subcommand declares only the
# ones it reads, besides --json and --output.
SHARED_FLAGS = {
    "--p": dict(type=int, default=2, help="prime modulus (default 2)"),
    "--horizon": dict(type=int, default=3, help="coordinate cutoff (default 3)"),
    "--cap-enum": dict(type=int, default=10**6, help="enumeration size cap"),
    "--cap-tower": dict(type=int, default=12, help="tower height cap"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomlab",
        description="Finite-horizon group actions on atoms: supports, "
        "density ideals, pair towers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *shared):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--json", action="store_true", help="emit JSON")
        sp.add_argument("--output", help="write the report to this file")
        for flag in shared:
            sp.add_argument(flag, **SHARED_FLAGS[flag])
        sp.set_defaults(func=func)
        return sp

    group_flags = ("--p", "--horizon", "--cap-enum")

    sp = command("act", cmd_act, "apply a group element", "--p")
    sp.add_argument("--g", required=True, help="group element, e.g. 1,0")
    sp.add_argument("--atom", help="atom text (a|w)")
    sp.add_argument("--x", help="HF object JSON")

    sp = command("orbit", cmd_orbit, "orbit of an HF object", *group_flags)
    sp.add_argument("--x", required=True, help="HF object JSON")
    sp.add_argument(
        "--stab-of",
        default="",
        help="act by the pointwise stabilizer of these vectors (default: full group)",
    )

    sp = command(
        "stabilizer", cmd_stabilizer, "stabilizer of an HF object", *group_flags
    )
    sp.add_argument("--x", required=True, help="HF object JSON")
    sp.add_argument("--stab-of", default="", help="restrict to this pointwise stabilizer")

    sp = command("support-check", cmd_support_check, "does A support x?", *group_flags)
    sp.add_argument("--a", default="", help="vectors, semicolon separated")
    sp.add_argument("--x", required=True, help="HF object JSON")
    sp.add_argument(
        "--exhaustive", action="store_true", help="enumerate the whole stabilizer"
    )

    sp = command(
        "reduce-support",
        cmd_reduce_support,
        "shrink a supplementary support",
        "--cap-enum",
    )
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--fixture", help="bundled instance, e.g. matching-p2")
    group.add_argument("--input", help="instance JSON file")

    sp = command("density", cmd_density, "prefix density d_k", "--p", "--cap-enum")
    sp.add_argument("--vectors", default="", help="vectors, semicolon separated")
    sp.add_argument("--k", type=int, default=1, help="prefix length")
    sp.add_argument("--span", action="store_true", help="use the span of the vectors")
    sp.add_argument(
        "--profile", type=int, metavar="KMAX", help="emit CSV profile for k=1..KMAX"
    )

    sp = command("logstar", cmd_logstar, "iterated logarithm log*_p", "--p")
    sp.add_argument("--n", type=int, required=True)

    sp = command("extract-thin", cmd_extract_thin, "extract a sparse subsequence")
    sp.add_argument(
        "--p", type=int, help="prime modulus (default: the stream's, 2 if canonical)"
    )
    sp.add_argument(
        "--stream",
        default="canonical",
        choices=["canonical", "fixture", "file"],
        help="term source",
    )
    sp.add_argument("--fixture", help="bundled stream name")
    sp.add_argument("--input", help="stream JSON file")
    sp.add_argument("--count", type=int, default=3, help="how many indices")
    sp.add_argument("--window", type=int, default=256, help="lookahead window")

    sp = command("certify", cmd_certify, "validate a thinness certificate")
    sp.add_argument("--input", required=True, help="certificate JSON file")

    sp = command("tower", cmd_tower, "build a pair tower", "--cap-tower")
    sp.add_argument("--levels", type=int, required=True)

    sp = command(
        "refute-pcf",
        cmd_refute_pcf,
        "defeat a proposed partial-choice support",
        "--cap-tower",
    )
    sp.add_argument("--levels", type=int, help="tower height")
    sp.add_argument("--s", default="", help="proposed support levels, e.g. 0,2")
    sp.add_argument("--fixture", help="bundled instance, e.g. refute-n4")

    sp = command(
        "verify-all", cmd_verify_all, "run every property and acceptance suite"
    )
    sp.add_argument("--seed", type=int, default=42, help="seed for randomized suites")
    sp.add_argument(
        "--trials", type=int, help="scale randomized trial counts down to this"
    )
    sp.add_argument(
        "--logstar-max",
        type=int,
        default=10**6,
        help="upper bound for the log* cross-check",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "act" and (args.atom is None) == (args.x is None):
            parser.error("act needs exactly one of --atom or --x")
        if args.command == "extract-thin":
            if args.stream == "fixture" and not args.fixture:
                args.fixture = "stream-canonical-p2"
            if args.stream == "file" and not args.input:
                parser.error("--stream file needs --input")
        if args.command == "refute-pcf" and not args.fixture and args.levels is None:
            parser.error("refute-pcf needs --levels or --fixture")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, CertificateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceError, InternalConsistencyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - surface module diagnostics
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
