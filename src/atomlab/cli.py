"""Command-line front door.

Conventions: vectors are written ``0:1,2:1`` (zero vector: empty string
or ∅), sets of vectors are semicolon-separated, group elements are dense
residue lists like ``1,0,1``, and HF objects are JSON
({"atom": "(a|w)"} | {"set": [...]} | {"tuple": [...]}).

Exit status is 0 iff every executed check passed (a false support-check
or an invalid certificate exits 1); bad flags or inputs, and an --output
file that cannot be written, exit 2; a cap or lookahead window that runs
out (ResourceError, WindowExhaustedError) or a failed runtime self-check
(InternalConsistencyError) exits 3.
"""

from __future__ import annotations

import argparse
import csv
import functools
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
from .counterexample import DEFAULT_TOWER_CAP, build_tower, refute_pcf
from .errors import (
    CertificateError,
    InternalConsistencyError,
    ResourceError,
    UsageError,
)
from .fp_core import DEFAULT_ENUM_CAP, Vector, json_int, span_of
from .supports import find_small_support, is_support
from .thin_ideal import (
    DEFAULT_WINDOW,
    VectorStream,
    canonical_stream,
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


def read_input(fields, fixture: str | None = None, path: str | None = None):
    """``fields`` applied to the bundled ``fixture``, or else to the JSON
    file at ``path``.  An unreadable file, bad JSON, and a missing or
    mistyped field are all UsageErrors."""
    if fixture:
        data = load_fixture(fixture)
    else:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read {path}: {exc}") from None
    try:
        return fields(data)
    except (UsageError, CertificateError):  # ValueErrors that already say what is wrong
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise UsageError(f"malformed input: {type(exc).__name__}: {exc}") from None


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
        try:
            with open(args.output, "w") as fh:
                fh.write(out)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc}") from None
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


def _reduction_instance(data) -> tuple:
    p = json_int(data["p"])
    return (
        p,
        json_int(data["horizon"]),
        [Vector.from_text(t, p) for t in data["A"]],
        [Vector.from_text(t, p) for t in data["B"]],
        hf_from_json(data["x"], p),
        FiniteSet(hf_from_json(m, p) for m in data["X"]),
    )


def cmd_reduce_support(args) -> int:
    p, horizon, base, supp, x, orbit_set = read_input(
        _reduction_instance, args.fixture, args.input
    )
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
        profile = density_profile(source, args.profile, args.p)
        rows = profile.csv_rows()
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        emit(args, {"profile": rows[1:]}, buf.getvalue().rstrip("\n"))
        return 0
    d = density_d_k(source, args.k)
    emit(args, {"k": args.k, "d_k": d}, str(d))
    return 0


def cmd_logstar(args) -> int:
    value = log_star_p(args.n, args.p)
    emit(args, {"n": args.n, "p": args.p, "logstar": value}, str(value))
    return 0


def _stream_terms(data) -> tuple[int, list[Vector]]:
    p = json_int(data["p"])
    return p, [Vector.from_text(t, p) for t in data["vectors"]]


def cmd_extract_thin(args) -> int:
    if args.stream == "canonical":
        p = 2 if args.p is None else args.p
        stream = VectorStream(canonical_stream(p), p)
    else:
        if args.stream == "fixture":
            p, terms = read_input(_stream_terms, args.fixture or "stream-canonical-p2")
        else:
            p, terms = read_input(_stream_terms, path=args.input)
        if args.p is not None and args.p != p:
            raise UsageError(f"fixture has p={p}, flag says p={args.p}")
        stream = VectorStream(iter(terms), p)
    indices, cert = extract_thin_subsequence(stream, args.count, p, window=args.window)
    payload = {"indices": list(indices), "certificate": cert}
    text = "indices: " + ",".join(str(i) for i in indices)
    emit(args, payload, text)
    return 0


def cmd_certify(args) -> int:
    problems = read_input(certificate_violations, path=args.input)
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
        levels, s = json_int(data["levels"]), [json_int(i) for i in data["s"]]
    else:
        levels, s = args.levels, args.s or []
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


def int_at_least(least: int):
    """The parser type of an int flag with a least value."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


positive_int = int_at_least(1)  # the size flags: caps and the window


# Flags shared by several subcommands; each subcommand declares only the
# ones it reads, besides --json and --output.
SHARED_FLAGS = {
    "--p": dict(type=int, default=2, help="prime modulus (default 2)"),
    "--horizon": dict(
        type=int_at_least(0), default=3, help="coordinate cutoff (default 3)"
    ),
    "--cap-enum": dict(
        type=positive_int, default=DEFAULT_ENUM_CAP, help="enumeration size cap"
    ),
    "--cap-tower": dict(
        type=positive_int, default=DEFAULT_TOWER_CAP, help="tower height cap"
    ),
}


class RuleParser(argparse.ArgumentParser):
    """An ArgumentParser that also enforces flag rules argparse cannot
    state: each rule is a (broken, message) pair, and parsing fails with
    the message when ``broken`` holds for the parsed flags."""

    def __init__(self, *args, rules=(), **kwargs):
        super().__init__(*args, **kwargs)
        self.rules = rules

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        for broken, message in self.rules:
            if broken(namespace):
                self.error(message)
        return namespace, extras


def level_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip() != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = RuleParser(
        prog="atomlab",
        description="Finite-horizon group actions on atoms: supports, "
        "density ideals, pair towers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *shared, rules=()):
        sp = sub.add_parser(name, help=help, rules=rules)
        sp.add_argument("--json", action="store_true", help="emit JSON")
        sp.add_argument("--output", help="write the report to this file")
        for flag in shared:
            sp.add_argument(flag, **SHARED_FLAGS[flag])
        sp.set_defaults(func=func)
        return sp

    group_flags = ("--p", "--horizon", "--cap-enum")

    sp = command("act", cmd_act, "apply a group element", "--p")
    sp.add_argument("--g", required=True, help="group element, e.g. 1,0")
    target = sp.add_mutually_exclusive_group(required=True)
    target.add_argument("--atom", help="atom text (a|w)")
    target.add_argument("--x", help="HF object JSON")

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

    sp = command("density", cmd_density, "prefix density d_k", "--p")
    sp.add_argument("--vectors", default="", help="vectors, semicolon separated")
    sp.add_argument("--k", type=int, default=1, help="prefix length")
    sp.add_argument("--span", action="store_true", help="use the span of the vectors")
    sp.add_argument(
        "--profile", type=int, metavar="KMAX", help="emit CSV profile for k=1..KMAX"
    )

    sp = command("logstar", cmd_logstar, "iterated logarithm log*_p", "--p")
    sp.add_argument("--n", type=int, required=True)

    sp = command(
        "extract-thin",
        cmd_extract_thin,
        "extract a sparse subsequence",
        rules=(
            (
                lambda a: a.fixture and a.stream != "fixture",
                "--fixture needs --stream fixture",
            ),
            (lambda a: a.input and a.stream != "file", "--input needs --stream file"),
            (
                lambda a: a.stream == "file" and not a.input,
                "--stream file needs --input",
            ),
        ),
    )
    sp.add_argument(
        "--p", type=int, help="prime modulus (default: the stream's, 2 if canonical)"
    )
    sp.add_argument(
        "--stream",
        default="canonical",
        choices=["canonical", "fixture", "file"],
        help="term source",
    )
    sp.add_argument(
        "--fixture", help="bundled stream name (default stream-canonical-p2)"
    )
    sp.add_argument("--input", help="stream JSON file")
    sp.add_argument("--count", type=int, default=3, help="how many indices")
    sp.add_argument(
        "--window", type=positive_int, default=DEFAULT_WINDOW, help="lookahead window"
    )

    sp = command("certify", cmd_certify, "validate a thinness certificate")
    sp.add_argument("--input", required=True, help="certificate JSON file")

    sp = command("tower", cmd_tower, "build a pair tower", "--cap-tower")
    sp.add_argument("--levels", type=int, required=True)

    sp = command(
        "refute-pcf",
        cmd_refute_pcf,
        "defeat a proposed partial-choice support",
        "--cap-tower",
        rules=((lambda a: a.fixture and a.s is not None, "--s needs --levels"),),
    )
    instance = sp.add_mutually_exclusive_group(required=True)
    instance.add_argument("--levels", type=int, help="tower height")
    instance.add_argument("--fixture", help="bundled instance, e.g. refute-n4")
    sp.add_argument(
        "--s", type=level_list, help="proposed support levels, e.g. 0,2 (default none)"
    )

    sp = command(
        "verify-all", cmd_verify_all, "run every property and acceptance suite"
    )
    sp.add_argument(
        "--seed", type=int, default=VerifyConfig.seed, help="seed for randomized suites"
    )
    sp.add_argument(
        "--trials", type=int, help="scale randomized trial counts down to this"
    )
    sp.add_argument(
        "--logstar-max",
        type=int,
        default=VerifyConfig.logstar_max,
        help="upper bound for the log* cross-check",
    )
    return parser


# built on first use, once per process: building takes longer than most
# subcommands run
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
