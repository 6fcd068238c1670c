"""Property suites: every module invariant plus the acceptance checks.

Each suite returns a list of named checks.  All randomness derives from
one seed (per-suite streams are split off with sha256 so suite order
cannot change results), so identical configs give identical reports.

Where an operation has a brute-force counterpart, the suite runs the
brute force independently of the production route: support checks are
re-done by enumerating the whole group with raw dot products, orbits and
stabilizers by acting with every member of the whole group that lies in
the subgroup, log* is re-derived by iterating ceiling logs, and span
densities are re-counted over the listed span.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

from .atom_action import (
    AtomLeaf,
    FiniteSet,
    GroupElement,
    GroupSubspace,
    HFObject,
    HFTuple,
    act_atom,
    act_hf,
    atom,
    compose,
    from_kuratowski,
    orbit,
    pointwise_stabilizer,
    stabilizer_in,
    to_kuratowski,
)
from .counterexample import build_tower, level_swap, refute_pcf, swap_effect
from .errors import UsageError
from .fp_core import (
    Subspace,
    Vector,
    complement_within,
    project_prefix,
    span_of,
    unit,
)
from .supports import find_small_support, is_support
from .thin_ideal import (
    VectorStream,
    canonical_stream,
    certify_thin,
    check_span_density_bound,
    density_d_k,
    extract_thin_subsequence,
    log_star_p,
)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 42
    trials: int | None = None
    logstar_max: int = 10**6

    def __post_init__(self):
        if self.trials is not None and self.trials < 1:
            raise UsageError("trials must be positive")
        if self.logstar_max < 1:
            raise UsageError("logstar_max must be positive")


def _suite_rng(cfg: VerifyConfig, name: str) -> random.Random:
    digest = hashlib.sha256(f"{cfg.seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _n(cfg: VerifyConfig, default: int) -> int:
    if cfg.trials is None:
        return default
    return min(default, cfg.trials)


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------


def random_vector(
    rng: random.Random, p: int, horizon: int, nonzero: bool = False
) -> Vector:
    while True:
        v = Vector.from_dict(p, {i: rng.randrange(p) for i in range(horizon)})
        if not nonzero or not v.is_zero:
            return v


def random_hf(rng: random.Random, p: int, horizon: int, depth: int) -> HFObject:
    if depth == 0 or rng.random() < 0.35:
        return AtomLeaf(atom(rng.randrange(p), random_vector(rng, p, horizon)))
    children = [
        random_hf(rng, p, horizon, depth - 1) for _ in range(rng.randint(1, 3))
    ]
    return FiniteSet(children) if rng.random() < 0.5 else HFTuple(children)


def random_hf_over(
    rng: random.Random, p: int, vectors: list[Vector], depth: int
) -> HFObject:
    """Random HF object whose atom vectors are drawn from the given list."""
    if depth == 0 or rng.random() < 0.35:
        return AtomLeaf(atom(rng.randrange(p), rng.choice(vectors)))
    children = [
        random_hf_over(rng, p, vectors, depth - 1) for _ in range(rng.randint(1, 3))
    ]
    return FiniteSet(children) if rng.random() < 0.5 else HFTuple(children)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def support_oracle(
    vectors: tuple[Vector, ...], x: HFObject, horizon: int, p: int
) -> bool:
    """Full-group brute force: every element fixing at the vectors (checked
    by raw dot products) must fix x.  No stabilizer machinery involved."""
    for coords in itertools.product(range(p), repeat=horizon):
        if all(w.dot_dense(coords) == 0 for w in vectors):
            if act_hf(x, GroupElement(p, coords)) != x:
                return False
    return True


def iterated_log_star(n: int, p: int) -> int:
    """log* by literally iterating the integer ceiling log until <= 1; each
    ceiling log multiplies by p until the power reaches n, keeping nothing."""
    k = 0
    while n > 1:
        e, power = 0, 1
        while power < n:
            e, power = e + 1, power * p
        n = e
        k += 1
    return k


def group_oracle(
    x: HFObject, fixed: Subspace, horizon: int, p: int
) -> tuple[set[HFObject], set[tuple[int, ...]]]:
    """The orbit of x and the coordinates of its fixers over Ann(fixed), by
    listing every coordinate tuple below the horizon and keeping those
    whose raw dot product with each basis vector of ``fixed`` is 0.  No
    subgroup basis, no enumeration and no footprint split."""
    images, fixers = set(), set()
    for coords in itertools.product(range(p), repeat=horizon):
        if all(s.dot_dense(coords) == 0 for s in fixed.basis):
            y = act_hf(x, GroupElement(p, coords))
            images.add(y)
            if y == x:
                fixers.add(coords)
    return images, fixers


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_fp_core(cfg: VerifyConfig) -> list[Check]:
    rng = _suite_rng(cfg, "fp-core")
    checks = []

    ok = True
    for p in (2, 3, 5):
        for _ in range(_n(cfg, 100)):
            gens = [random_vector(rng, p, 5) for _ in range(rng.randint(0, 4))]
            shuffled = gens[:]
            rng.shuffle(shuffled)
            if span_of(gens, p) != span_of(shuffled, p):
                ok = False
    checks.append(Check("echelon-canonicity", ok))

    ok = True
    for p in (2, 3):
        space = span_of((unit(p, i) for i in range(4)), p)
        vs = list(space.enumerate_elements())
        for u in vs:
            for v in vs:
                for k in range(5):
                    if project_prefix(u + v, k) != project_prefix(u, k) + project_prefix(v, k):
                        ok = False
    checks.append(Check("prefix-projection-linearity", ok))

    all_vecs = list(span_of((unit(2, i) for i in range(4)), 2).enumerate_elements())
    seen: set[Subspace] = set()
    for r in range(5):
        for combo in itertools.combinations(all_vecs, r):
            seen.add(span_of(combo, 2))
    ok = True
    for s in seen:
        t = complement_within(s, 4)
        if s.dimension + t.dimension != 4:
            ok = False
        if any(not v.is_zero and s.contains(v) for v in t.enumerate_elements()):
            ok = False
        if span_of(s.basis + t.basis, 2).dimension != 4:
            ok = False
    checks.append(Check("complement-postconditions", ok, f"{len(seen)} subspaces"))

    ok = True
    for p in (2, 3):
        for _ in range(_n(cfg, 30)):
            gens = [random_vector(rng, p, 4) for _ in range(rng.randint(0, 3))]
            s = span_of(gens, p)
            reachable = set()
            for coeffs in itertools.product(range(p), repeat=len(gens)):
                v = Vector(p)
                for c, g in zip(coeffs, gens):
                    v = v + g.scale(c)
                reachable.add(v)
            space = span_of((unit(p, i) for i in range(4)), p)
            for v in space.enumerate_elements():
                if s.contains(v) != (v in reachable):
                    ok = False
    checks.append(Check("membership-vs-brute-force", ok))
    return checks


def suite_action_laws(cfg: VerifyConfig) -> list[Check]:
    rng = _suite_rng(cfg, "action-laws")
    checks = []
    horizon = 3

    for p in (2, 3):
        group = list(GroupSubspace.full(p, horizon).elements())
        table = {
            (g.coords, h.coords): compose(g, h) for g in group for h in group
        }
        comm_ok = all(
            table[(g.coords, h.coords)] == table[(h.coords, g.coords)]
            for g in group
            for h in group
        )
        checks.append(Check(f"compose-commutative-p{p}", comm_ok))

        ident = GroupElement.identity(p, horizon)
        objs = [random_hf(rng, p, horizon, 3) for _ in range(_n(cfg, 260))]
        id_ok = all(act_hf(x, ident) == x for x in objs)
        checks.append(Check(f"identity-law-p{p}", id_ok, f"{len(objs)} objects"))

        law_ok = True
        for x in objs:
            acted = {g.coords: act_hf(x, g) for g in group}
            for g in group:
                xg = acted[g.coords]
                for h in group:
                    if act_hf(xg, h) != acted[table[(g.coords, h.coords)].coords]:
                        law_ok = False
        checks.append(
            Check(
                f"compose-consistency-p{p}",
                law_ok,
                f"{len(objs)} objects x {len(group)}^2 pairs",
            )
        )

        swap_ok = True
        for x in objs[:20]:
            for g in group:
                for h in group:
                    if act_hf(act_hf(x, g), h) != act_hf(act_hf(x, h), g):
                        swap_ok = False
        checks.append(Check(f"action-commutes-p{p}", swap_ok))

    ok = True
    for p in (2, 3, 5):
        for g in GroupSubspace.full(p, horizon).elements():
            acc = GroupElement.identity(p, horizon)
            for k in range(1, p + 1):
                acc = compose(acc, g)
                if k < p and not g.is_identity and acc.is_identity:
                    ok = False
            if not acc.is_identity:
                ok = False
    checks.append(Check("order-p", ok))
    return checks


def suite_support_basics(cfg: VerifyConfig) -> list[Check]:
    rng = _suite_rng(cfg, "support-basics")
    checks = []
    horizon = 3

    for p in (2, 3):
        space = span_of((unit(p, i) for i in range(horizon)), p)
        vectors = list(space.enumerate_elements())
        full = GroupSubspace.full(p, horizon)
        group = list(full.elements())

        ok = True
        for w in vectors:
            for g in group:
                fixes_one = act_atom(atom(0, w), g) == atom(0, w)
                fixes_all = all(
                    act_atom(atom(j, w), g) == atom(j, w) for j in range(p)
                )
                linear = w.dot_dense(g.coords) == 0
                if not (fixes_one == fixes_all == linear):
                    ok = False
        checks.append(Check(f"fix-one-iff-fix-all-p{p}", ok))

        ok = True
        for w in vectors:
            stab = pointwise_stabilizer([w], horizon, p)
            for j in range(p):
                if stabilizer_in(AtomLeaf(atom(j, w)), full) != stab:
                    ok = False
        checks.append(Check(f"cell-stabilizer-p{p}", ok))

        ok = True
        for _ in range(_n(cfg, 150)):
            vs = [random_vector(rng, p, horizon) for _ in range(rng.randint(0, 3))]
            spanned = list(span_of(vs, p).enumerate_elements())
            basis = span_of(vs, p).basis
            for g in group:
                a = all(w.dot_dense(g.coords) == 0 for w in vs)
                b = all(w.dot_dense(g.coords) == 0 for w in basis)
                c = all(w.dot_dense(g.coords) == 0 for w in spanned)
                if not (a == b == c):
                    ok = False
            x = random_hf(rng, p, horizon, 2)
            s1 = support_oracle(tuple(vs), x, horizon, p)
            s2 = support_oracle(tuple(basis), x, horizon, p)
            s3 = support_oracle(tuple(spanned), x, horizon, p)
            if not (s1 == s2 == s3 == is_support(vs, x, horizon, p)):
                ok = False
        checks.append(Check(f"support-iff-span-supports-p{p}", ok))

        part = [FiniteSet(AtomLeaf(atom(a, w)) for a in range(p)) for w in vectors]
        ok = is_support((), FiniteSet(part), horizon, p=p, exhaustive=True)
        checks.append(Check(f"empty-set-supports-partition-p{p}", ok))

        ok = True
        for _ in range(_n(cfg, 100)):
            vs = [random_vector(rng, p, horizon) for _ in range(rng.randint(0, 2))]
            more = vs + [random_vector(rng, p, horizon)]
            x = random_hf(rng, p, horizon, 2)
            if is_support(vs, x, horizon, p) and not is_support(more, x, horizon, p):
                ok = False
        checks.append(Check(f"support-monotone-p{p}", ok))

    for p in (2, 3):
        ok = True
        cases = 0
        for h in range(1, 5):
            for _ in range(_n(cfg, 20)):
                if rng.random() < 0.5:
                    fixed = Subspace(p)
                else:
                    gens = [random_vector(rng, p, h) for _ in range(rng.randint(0, h))]
                    fixed = span_of(gens, p)
                sub = GroupSubspace(h, fixed)
                x = random_hf(rng, p, h, 3)
                want_orbit, want_fixers = group_oracle(x, fixed, h, p)
                fixers = {g.coords for g in stabilizer_in(x, sub).elements()}
                if orbit(x, sub) != want_orbit or fixers != want_fixers:
                    ok = False
                cases += 1
        checks.append(Check(f"footprint-quotient-p{p}", ok, f"{cases} cases"))
    return checks


def _shifted_matching(p: int, b1: Vector, b2: Vector, c: int, d: int) -> FiniteSet:
    """The graph {((j, b1), (c*j+d, b2)) : j}; its stabilizer is a line."""
    return FiniteSet(
        HFTuple((AtomLeaf(atom(j, b1)), AtomLeaf(atom((c * j + d) % p, b2))))
        for j in range(p)
    )


def random_reduction_instance(rng: random.Random, p: int, horizon: int):
    """A p-element orbit with a two-vector supplementary support."""
    while True:
        base: list[Vector] = []
        if rng.random() < 0.5:
            a = random_vector(rng, p, horizon, nonzero=True)
            base = [a]
        base_span = span_of(base, p)
        b1 = random_vector(rng, p, horizon, nonzero=True)
        if base_span.contains(b1):
            continue
        b2 = random_vector(rng, p, horizon, nonzero=True)
        if span_of(base + [b1], p).contains(b2):
            continue

        fixed_vecs = list(base_span.enumerate_elements())
        junk = random_hf_over(rng, p, fixed_vecs, rng.randint(0, 2))
        if rng.random() < 0.3:
            core: HFObject = AtomLeaf(atom(rng.randrange(p), b1))
        else:
            core = _shifted_matching(p, b1, b2, rng.randrange(1, p), rng.randrange(p))
        style = rng.random()
        if style < 0.4:
            x: HFObject = core
        elif style < 0.7:
            x = HFTuple((core, junk))
        else:
            x = FiniteSet((core, junk))

        stab_base = pointwise_stabilizer(base, horizon, p)
        x_orbit = orbit(x, stab_base)
        if len(x_orbit) == p:
            return base, [b1, b2], x, FiniteSet(x_orbit)


def suite_support_reduction(cfg: VerifyConfig) -> list[Check]:
    rng = _suite_rng(cfg, "support-reduction")
    checks = []

    e0, e1 = unit(2, 0), unit(2, 1)
    parallel = FiniteSet(
        HFTuple((AtomLeaf(atom(j, e0)), AtomLeaf(atom(j, e1)))) for j in range(2)
    )
    crossed = FiniteSet(
        HFTuple((AtomLeaf(atom(j, e0)), AtomLeaf(atom(1 - j, e1)))) for j in range(2)
    )
    res, trace = find_small_support(
        parallel, FiniteSet((parallel, crossed)), (), [e0, e1], 2, 2
    )
    ok = res == {e0 + e1} and trace.steps[-1].b == e0 + e1
    checks.append(Check("matching-fixture-p2", ok, f"b={trace.steps[-1].b!r}"))

    f0, f1 = unit(3, 0), unit(3, 1)
    ident3 = _shifted_matching(3, f0, f1, 1, 0)
    orbit3 = FiniteSet(_shifted_matching(3, f0, f1, 1, d) for d in range(3))
    res, trace = find_small_support(ident3, orbit3, (), [f0, f1], 2, 3)
    expected = f0 + f1.scale(2)
    ok = res == {expected} and trace.steps[-1].b == expected
    checks.append(Check("matching-fixture-p3", ok, f"b={trace.steps[-1].b!r}"))

    horizon = 4
    for p in (2, 3, 5):
        ok = True
        shrunk = 0
        for _ in range(_n(cfg, 100)):
            base, supp, x, x_orbit = random_reduction_instance(rng, p, horizon)
            result, trace = find_small_support(
                x, x_orbit, base, supp, horizon, p
            )
            if not is_support(result, x, horizon, p):
                ok = False
            if not support_oracle(tuple(result), x, horizon, p):
                ok = False
            if len(result) > len(base) + 1:
                ok = False
            shrunk += len(trace.steps)
        checks.append(
            Check(f"reduction-soundness-p{p}", ok, f"{shrunk} reduction steps")
        )

    ok = True
    for p in (2, 3):
        horizon = 3
        for _ in range(_n(cfg, 50)):
            base, supp, x, x_orbit = random_reduction_instance(rng, p, horizon)
            stab = pointwise_stabilizer(base, horizon, p)
            for member in x_orbit:
                if len(orbit(member, stab)) not in (1, p):
                    ok = False
    checks.append(Check("orbit-dichotomy", ok))
    return checks


def suite_density_ideal(cfg: VerifyConfig) -> list[Check]:
    rng = _suite_rng(cfg, "density-ideal")
    checks = []

    for p in (2, 3):
        sub_ok = True
        span_ok = True
        chain_ok = True
        mono_ok = True
        for _ in range(_n(cfg, 500)):
            a = [random_vector(rng, p, 8) for _ in range(rng.randint(1, 5))]
            b = [random_vector(rng, p, 8) for _ in range(rng.randint(1, 5))]
            k = rng.randrange(0, 9)
            if density_d_k(set(a) | set(b), k) > density_d_k(a, k) + density_d_k(b, k):
                sub_ok = False
            lhs, rhs, ok = check_span_density_bound(a, k, p)
            listed = span_of(a, p).enumerate_elements()
            if not ok or lhs != len({project_prefix(v, k) for v in listed}):
                span_ok = False
            if log_star_p(lhs, p) > 1 + log_star_p(density_d_k(a, k), p):
                chain_ok = False
            if density_d_k(a, k) > density_d_k(a, k + 1):
                mono_ok = False
        checks.append(Check(f"union-subadditivity-p{p}", sub_ok))
        checks.append(Check(f"span-density-bound-p{p}", span_ok))
        checks.append(Check(f"logstar-chain-p{p}", chain_ok))
        checks.append(Check(f"density-monotone-in-k-p{p}", mono_ok))

    ok = True
    bad = None
    for p in (2, 3, 5):
        prev = 0
        for n in range(1, cfg.logstar_max + 1):
            got = log_star_p(n, p)
            if got != iterated_log_star(n, p) or got < prev:
                ok = False
                bad = (p, n)
                break
            prev = got
        if not ok:
            break
    checks.append(
        Check(
            "logstar-tower-equals-iterated-log",
            ok,
            f"n <= {cfg.logstar_max}" + (f", first failure {bad}" if bad else ""),
        )
    )
    return checks


def random_stabilizing_stream(
    rng: random.Random, p: int, coords: int = 32, marker_base: int = 64
):
    """Terms with every coordinate eventually constant: coordinate j settles
    by index j (a few early ones may lag, but all settle by index 12), and
    a high marker coordinate keeps terms pairwise distinct."""
    settle = []
    for j in range(coords):
        if j < 10 and rng.random() < 0.3:
            settle.append(rng.randint(j, 12))
        else:
            settle.append(rng.randint(0, j))
    final = [rng.randrange(p) for _ in range(coords)]
    noise = [
        [rng.randrange(p) for _ in range(coords)] for _ in range(max(settle) + 1)
    ]

    def term(m: int) -> Vector:
        entries = {marker_base + m: 1}
        for j in range(coords):
            entries[j] = final[j] if m >= settle[j] else noise[m][j]
        return Vector.from_dict(p, entries)

    return term


def suite_extraction(cfg: VerifyConfig) -> list[Check]:
    rng = _suite_rng(cfg, "extraction")
    checks = []

    stream = VectorStream(canonical_stream(2), 2)
    idx, cert = extract_thin_subsequence(stream, 3, 2, window=64)
    checks.append(Check("canonical-stream-indices", idx == (0, 3, 5), f"{idx}"))
    stream = VectorStream(canonical_stream(2), 2)
    idx4, cert4 = extract_thin_subsequence(stream, 4, 2, window=64)
    checks.append(
        Check(
            "canonical-stream-extended",
            idx4 == (0, 3, 5, 17) and certify_thin(cert4),
            f"{idx4}",
        )
    )

    ok = True
    for trial in range(_n(cfg, 100)):
        p, count, window = (2, 4, 40) if trial % 2 == 0 else (3, 3, 36)
        term = random_stabilizing_stream(rng, p)
        terms = [term(m) for m in range(window)]
        stream = VectorStream(iter(terms), p)
        idx, cert = extract_thin_subsequence(stream, count, p, window=window)
        if not certify_thin(cert):
            ok = False
        selected = [terms[i] for i in idx]
        for i, n_i in enumerate(idx):
            if iterated_log_star(n_i, p) <= i and i >= 1:
                ok = False
            if len({project_prefix(v, n_i) for v in selected}) > i + 1:
                ok = False
            if i + 1 < len(idx):
                ref = project_prefix(terms[idx[i + 1]], n_i)
                if any(
                    project_prefix(t, n_i) != ref for t in terms[idx[i + 1] :]
                ):
                    ok = False
    checks.append(Check("random-stream-extraction", ok))
    return checks


def suite_tower_refutation(cfg: VerifyConfig) -> list[Check]:
    checks = []

    ok = True
    for height in range(1, 9):
        tower = build_tower(height)
        if any(len(level) != 2 for level in tower.levels):
            ok = False
    checks.append(Check("level-cardinality", ok))

    ok = True
    for height in range(1, 9):
        tower = build_tower(height)
        for i in range(height):
            effects = swap_effect(tower, i)
            if effects != [(n, n >= i) for n in range(height)]:
                ok = False
    checks.append(Check("swap-propagation", ok))

    ok = True
    tower = build_tower(6)
    for i in range(6):
        for j in range(6):
            gi, gj = level_swap(tower, i), level_swap(tower, j)
            for level in tower.levels:
                if act_hf(act_hf(level, gi), gj) != act_hf(level, compose(gi, gj)):
                    ok = False
    checks.append(Check("swap-composition-consistency", ok))

    ok = True
    count = 0
    for height in range(1, 6):
        tower = build_tower(height)
        full = frozenset(range(height))
        for r in range(height):
            for s in itertools.combinations(sorted(full), r):
                report = refute_pcf(tower, s)
                if report.swap_level != min(full - frozenset(s)):
                    ok = False
                if any(not w.moved for w in report.witnesses):
                    ok = False
                count += 1
    checks.append(Check("refutation-exhaustive", ok, f"{count} proper supports"))
    return checks


def suite_encoding(cfg: VerifyConfig) -> list[Check]:
    rng = _suite_rng(cfg, "encoding")
    horizon = 3
    ok = True
    for trial in range(_n(cfg, 200)):
        p = 2 if trial % 2 == 0 else 3
        t = HFTuple(
            (random_hf(rng, p, horizon, 2), random_hf(rng, p, horizon, 2))
        )
        g = GroupElement(
            p, tuple(rng.randrange(p) for _ in range(horizon))
        )
        enc = to_kuratowski(t)
        if from_kuratowski(enc) != t:
            ok = False
        if to_kuratowski(act_hf(t, g)) != act_hf(enc, g):
            ok = False
        if from_kuratowski(act_hf(enc, g)) != act_hf(t, g):
            ok = False
    return [Check("kuratowski-equivariance", ok, "200 random pairs")]


SUITES = {
    "action-laws": suite_action_laws,
    "density-ideal": suite_density_ideal,
    "encoding": suite_encoding,
    "extraction": suite_extraction,
    "fp-core": suite_fp_core,
    "support-basics": suite_support_basics,
    "support-reduction": suite_support_reduction,
    "tower-refutation": suite_tower_refutation,
}


def run_suite(name: str, cfg: VerifyConfig) -> list[Check]:
    return SUITES[name](cfg)


def verify_all(cfg: VerifyConfig) -> dict:
    """Run every suite; the report is a JSON-ready dict, suites in name order."""
    suites = []
    all_passed = True
    for name in sorted(SUITES):
        checks = run_suite(name, cfg)
        passed = all(c.passed for c in checks)
        all_passed = all_passed and passed
        suites.append(
            {
                "name": name,
                "passed": passed,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in checks
                ],
            }
        )
    return {
        "config": {
            "seed": cfg.seed,
            "trials": cfg.trials,
            "logstar_max": cfg.logstar_max,
        },
        "passed": all_passed,
        "suites": suites,
    }
