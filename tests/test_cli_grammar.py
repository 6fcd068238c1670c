"""The CLI's exit contract as a property, by grammar-based fuzzing.

Each example is one argv, drawn from a grammar of one subcommand's
flags: valid values, boundary values, type-confused JSON, and --input
files that are well-formed, mutated or truncated.  Whatever the argv,
``main`` returns a code from 0 to 3 and raises nothing; exit 1 is a
negative answer, with nothing on stderr; exit 2 writes nothing to
stdout; and with --json, exit 0 or 1 writes exactly one JSON document.
``main`` has no catch-all, so an escape is a failing example with its
traceback.  ``verify-all`` gets flags only: each drawn argv holds one
value it rejects, since a full run takes seconds.
"""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomlab.cli import FIXTURES, load_fixture, main
from atomlab.thin_ideal import CERTIFICATE_KINDS

CONTRACT = settings(max_examples=600, deadline=None, database=None, derandomize=True)

JUNK = st.sampled_from(["", "x", "2.5", "-", "1e3", "0x10", "[]"])
JSON_JUNK = st.sampled_from([5, -1, 2.5, "2", True, None, [], {}, [2]])


class Input(str):
    """The text of a file whose path goes into the argv."""


def usually(valid, *odd):
    """``valid`` three times in four, else one of the ``odd`` strategies:
    an argv holds several values, and each odd one ends most runs early."""
    return st.integers(0, 3).flatmap(lambda k: st.one_of(*odd) if k == 1 else valid)


def ints(lo, hi, *odd):
    """An int flag's text: usually in [lo, hi], else an odd value or junk."""
    return usually(st.integers(lo, hi).map(str), st.sampled_from(odd or ("0",)), JUNK)


def flag(name, values):
    return values.map(lambda v: [name, v])


def optional(name, values):
    """[] or [name, value]."""
    return st.one_of(st.just([]), flag(name, values))


@st.composite
def truncated(draw, texts):
    text = draw(texts)
    return text[: draw(st.integers(0, max(len(text) - 1, 0)))]


# 0 is drawn three times as often as each other odd modulus: it once
# escaped through seven subcommands.  2^61 - 1 is prime; the last is the
# least strong pseudoprime to the bases 2..41, where exact primality ends.
modulus = usually(
    st.sampled_from(["2", "3", "5"]),
    st.sampled_from(
        ["0", "0", "0", "1", "4", "-3", "2.5", str(2**61 - 1),
         "3317044064679887385961981"]
    ),
)  # fmt: skip
# coordinates below 4, so that horizons from 4 up hold every vector
vector = usually(
    st.dictionaries(st.integers(0, 3), st.integers(-2, 6), max_size=3).map(
        lambda d: ",".join(f"{i}:{v}" for i, v in d.items()) or "∅"
    ),
    st.lists(st.builds("{}:{}".format, st.integers(-1, 44), st.integers(-2, 6)),
             max_size=3).map(",".join),
    st.sampled_from(["1", "1:", ":1", "a:1", "1:2:3", "1.5:1", "0:1,0:1"]),
)  # fmt: skip
vector_set = st.lists(vector, max_size=3).map(";".join)
group_element = usually(
    st.lists(st.integers(0, 6), min_size=4, max_size=6).map(
        lambda c: ",".join(map(str, c))
    ),
    st.lists(st.integers(-1, 1), max_size=3).map(lambda c: ",".join(map(str, c))),
    st.sampled_from(["1,,0", "1.0", "x"]),
)
atom_text = usually(
    st.builds("({}|{})".format, st.integers(-3, 6), vector),
    st.sampled_from(["(0|", "0|0:1", "(x|0:1)", "()", "(|)", "(1|0:1|2)"]),
)
# at most 4 leaves: footprint rank at most 4, so p^rank stays small
hf_json = st.recursive(
    usually(
        atom_text.map(lambda t: {"atom": t}),
        st.sampled_from([{"atom": 5}, {"set": 5}, {"tuple": "x"}, {}, "x", None]),
        st.just({"atom": "(0|0:1)", "set": []}),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(lambda m: {"set": m}),
        st.lists(inner, max_size=3).map(lambda m: {"tuple": m}),
    ),
    max_leaves=4,
)
hf_text = usually(hf_json.map(json.dumps), truncated(hf_json.map(json.dumps)), JUNK)


@st.composite
def mutated(draw, document, fields):
    """``document`` with some fields replaced by drawn values or deleted."""
    doc = dict(document)
    for key in draw(st.lists(st.sampled_from(sorted(fields)), max_size=2)):
        if draw(st.integers(0, 3)):
            doc[key] = draw(fields[key])
        else:
            doc.pop(key, None)
    return doc


def input_file(documents):
    """A file holding a drawn document, the document truncated, or junk."""
    texts = documents.map(json.dumps)
    return usually(
        texts, truncated(texts), st.sampled_from(["", "{", "[1, 2", "null", "5"])
    ).map(Input)


json_int = usually(st.integers(-2, 40), JSON_JUNK)
json_vectors = usually(st.lists(vector, max_size=3), JSON_JUNK)
json_modulus = usually(
    st.sampled_from([2, 3]), st.sampled_from([0, 1, 4, -3]), JSON_JUNK
)
reduction_files = input_file(
    st.sampled_from(["matching-p2", "matching-p3"]).flatmap(
        lambda name: mutated(
            load_fixture(name),
            {
                "p": json_modulus,
                "horizon": json_int,
                "A": json_vectors,
                "B": json_vectors,
                "x": hf_json,
                "X": usually(st.lists(hf_json, max_size=3), JSON_JUNK),
            },
        )
    )
)
stream_files = input_file(
    mutated(
        load_fixture("stream-canonical-p2"),
        {"p": json_modulus, "vectors": json_vectors},
    )
)
checkpoint = usually(
    st.tuples(st.integers(-1, 70000), st.integers(-1, 6)).map(list),
    st.lists(usually(st.integers(-1, 9), JSON_JUNK), max_size=3),
    JSON_JUNK,
)
leaf_certificate = st.sampled_from(
    [
        {"kind": "finite-set", "p": 2, "elements": ["0:1", "2:1"]},
        {"kind": "span-of-finite", "p": 3, "generators": ["0:1,1:2"]},
        {"kind": "extracted-stream", "p": 2, "window": 64,
         "checkpoints": [[0, 1], [3, 2], [5, 3]]},
    ]
).flatmap(
    lambda cert: mutated(
        cert,
        {
            "kind": st.sampled_from(CERTIFICATE_KINDS + ("nope", 5, None)),
            "p": json_modulus,
            "elements": json_vectors,
            "generators": json_vectors,
            "window": usually(st.integers(-1, 300), JSON_JUNK),
            "checkpoints": usually(st.lists(checkpoint, max_size=4), JSON_JUNK),
        },
    )
)  # fmt: skip
certificates = st.recursive(
    leaf_certificate,
    lambda inner: st.lists(inner, max_size=3).map(
        lambda c: {"kind": "finite-union", "children": c}
    ),
    max_leaves=4,
)

p_flag = optional("--p", modulus)
# --cap-enum bounds the `stabilizer` listing, H - r dense vectors of H
# coordinates each (r the footprint rank); the horizon stays at most 40 so
# that the draws stay fast
horizon_flag = optional("--horizon", ints(4, 8, "-1", "0", "1", "2", "3", "40"))
cap_enum_flag = optional("--cap-enum", ints(1, 64, "0", "-5", "4096", "1000000"))
cap_tower_flag = optional("--cap-tower", ints(1, 8, "0", "-1"))
# --levels at most 8: the text and JSON of a level expand its tree, which
# doubles with each level
levels = ints(1, 8, "0", "-2", "13", "40")
fixture_name = st.sampled_from(sorted(FIXTURES) + ["nope"])


def command(name, *parts):
    """``name`` followed by the drawn parts, each a list of argv items."""
    return st.tuples(*parts).map(lambda ps: [name] + [a for part in ps for a in part])


def switch(name):
    return st.sampled_from([[], [name]])


group_query = (p_flag, horizon_flag, cap_enum_flag)

SUBCOMMANDS = [
    command(
        "act",
        p_flag,
        flag("--g", group_element),
        usually(
            st.one_of(flag("--atom", atom_text), flag("--x", hf_text)),
            st.just([]),
            st.tuples(atom_text, hf_text).map(lambda t: ["--atom", t[0], "--x", t[1]]),
        ),
    ),
    command("orbit", *group_query, flag("--x", hf_text),
            optional("--stab-of", vector_set)),
    command("stabilizer", *group_query, flag("--x", hf_text),
            optional("--stab-of", vector_set)),
    command("support-check", *group_query, optional("--a", vector_set),
            flag("--x", hf_text)),
    # --exhaustive lists p^(H - |A|) elements: a small cap bounds the listing
    command("support-check", p_flag, horizon_flag,
            flag("--cap-enum", ints(1, 64, "0", "-5")), optional("--a", vector_set),
            flag("--x", hf_text), st.just(["--exhaustive"])),
    command(
        "reduce-support",
        cap_enum_flag,
        st.one_of(flag("--fixture", fixture_name), flag("--input", reduction_files)),
    ),
    command("density", p_flag, optional("--vectors", vector_set),
            optional("--k", ints(0, 12, "-2", "50")), switch("--span"),
            optional("--profile", ints(1, 12, "0", "-1", "30"))),
    command("logstar", p_flag,
            flag("--n", ints(1, 10**40, "0", "-2", "16", "65536", "65537",
                             str(2**61 - 1)))),
    command(
        "extract-thin",
        p_flag,
        usually(
            st.one_of(
                st.sampled_from([[], ["--stream", "canonical"]]),
                optional("--fixture", fixture_name).map(
                    lambda f: ["--stream", "fixture", *f]
                ),
                flag("--input", stream_files).map(lambda f: ["--stream", "file", *f]),
            ),
            st.tuples(
                optional(
                    "--stream", st.sampled_from(["canonical", "fixture", "file", "x"])
                ),
                optional("--fixture", fixture_name),
                optional("--input", stream_files),
            ).map(lambda t: [a for part in t for a in part]),
        ),
        optional("--count", ints(1, 5, "0", "-1", "6")),
        optional("--window", ints(2, 300, "1", "0", "-2")),
    ),
    command("certify", usually(flag("--input", input_file(certificates)), st.just([]))),
    command("tower", flag("--levels", levels), cap_tower_flag),
    command(
        "refute-pcf",
        cap_tower_flag,
        usually(
            st.one_of(
                st.tuples(flag("--levels", levels), optional("--s", st.lists(
                    st.integers(0, 8), max_size=4).map(lambda s: ",".join(map(str, s))))
                ).map(lambda t: t[0] + t[1]),
                flag("--fixture", fixture_name),
            ),
            st.tuples(
                levels, st.sampled_from(["-1", "x", ",", "1,,2", "1.5", "40"])
            ).map(lambda t: ["--levels", t[0], "--s", t[1]]),
            fixture_name.map(lambda f: ["--fixture", f, "--s", "1"]),
        ),
    ),
    # flags only: one rejected value among valid flags, in any order
    st.tuples(
        st.sampled_from(
            [["--trials", "0"], ["--trials", "-3"], ["--trials", "x"],
             ["--logstar-max", "0"], ["--logstar-max", "-1"], ["--seed", "1.5"],
             ["--p", "5"], ["--horizon", "2"], ["--bogus"]]
        ),
        st.lists(
            st.sampled_from(
                [["--seed", "7"], ["--trials", "1"], ["--logstar-max", "10"]]
            ),
            max_size=2,
        ),
    ).flatmap(
        # a valid value of the rejected flag must not come after it
        lambda t: st.permutations([t[0], *(f for f in t[1] if f[0] != t[0][0])])
    ).map(lambda parts: ["verify-all"] + [a for part in parts for a in part]),
]  # fmt: skip

# --json and --output apply to every subcommand; an --output directory
# that does not exist makes an unwritable path
outputs = st.tuples(
    switch("--json"),
    usually(st.sampled_from([[], ["--output", "out.json"]]),
            st.just(["--output", "no/out.json"])),
)  # fmt: skip
argvs = st.tuples(st.one_of(SUBCOMMANDS), outputs).map(
    lambda t: t[0] + t[1][0] + t[1][1]
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("argvs")


SERIAL = itertools.count()


@CONTRACT
@given(argv=argvs)
def test_every_subcommand_keeps_the_exit_contract(workdir, argv):
    where = workdir / str(next(SERIAL))  # made when the argv names a file
    argv = list(argv)
    for k, item in enumerate(argv):
        if isinstance(item, Input):
            where.mkdir(exist_ok=True)
            (where / f"in{k}.json").write_text(item)
            argv[k] = str(where / f"in{k}.json")
        elif item.endswith("out.json"):
            where.mkdir(exist_ok=True)
            argv[k] = str(where / item)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), err.getvalue()
    if code == 1:  # a negative answer, never an error
        assert argv[0] in ("support-check", "certify") and err.getvalue() == ""
    if code == 2:
        assert out.getvalue() == ""
    if "--json" in argv and code in (0, 1):
        written = where / "out.json"
        document = written.read_text() if "--output" in argv else out.getvalue()
        json.loads(document)  # a second document would be "Extra data"
