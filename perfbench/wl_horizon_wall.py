"""Workload ``horizon-wall``: group queries on small-footprint HF objects.

Every round holds the same slots, each with fresh random objects:

* 11 group queries, one per horizon, p=2 at H=6..12 and p=3 at H=4..7.
  A query computes ``pointwise_stabilizer`` of the footprint, then
  ``orbit`` and ``stabilizer_in`` over the whole horizon group, then
  ``is_support`` of the footprint.  The footprint is 1, 2 or 3
  independent atom vectors (fixed per slot); the object has exactly 6
  atoms, 2 sets and 2 tuples at depth <= 3, so that a slot costs the
  same in every round and for every seed.
* 4 support reductions, ``find_small_support`` on p-element-orbit
  instances whose orbit and answer are known by construction, at p=2,
  H=8 and 11 and p=3, H=6 and 8.
* 4 operations beyond the 10^6 enumeration cap: group queries at p=2,
  H=20..30 (two) and p=3, H=13..20, and one reduction at p=2, H=21..30.
  Today the program refuses these with ResourceError.

The horizons span a query costing milliseconds to about a second on a
2-core box; the slow-but-under-cap band (p=2, H 13..19) is left out so
that a run holds several rounds.  With 15 answered slots per round, the
median (rank 7.5) and the tail quantile 13.5/15 = 0.9 fall in the middle
of one slot's samples.
"""

from __future__ import annotations

import random

from atomlab.atom_action import (
    AtomLeaf,
    FiniteSet,
    GroupSubspace,
    HFTuple,
    atom,
    orbit,
    pointwise_stabilizer,
    stabilizer_in,
)
from atomlab.errors import ResourceError
from atomlab.fp_core import Vector
from atomlab.supports import find_small_support, is_support
from atomlab.verify import support_oracle

import harness

TAIL_Q = 13.5 / 15  # the middle of the second-slowest slot's samples
CAP = 10**6  # the program's default enumeration cap
ORACLE_MAX_H = 6  # support_oracle enumerates all p^H elements
N_ATOMS, N_SETS, N_TUPLES = 6, 2, 2
GROUP_SLOTS = [(2, h) for h in range(6, 13)] + [(3, h) for h in range(4, 8)]
REDUCE_SLOTS = [(2, 8), (2, 11), (3, 6), (3, 8)]
PLAN_ROUNDS = 32


# ---------------------------------------------------------------------------
# Plain-data inputs (digested; independent of the program's classes)
# ---------------------------------------------------------------------------


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank of dense rows over F_p (Gaussian elimination)."""
    rows = [r[:] for r in rows]
    k = 0
    for col in range(len(rows[0]) if rows else 0):
        hit = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[k], rows[hit] = rows[hit], rows[k]
        inv = pow(rows[k][col], -1, p)
        rows[k] = [c * inv % p for c in rows[k]]
        for i in range(len(rows)):
            if i != k and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[k])]
        k += 1
    return k


def _split(rng: random.Random, n: int, m: int, cap: int) -> list[int]:
    while True:
        cuts = sorted(rng.sample(range(1, n), m - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        if max(parts) <= cap:
            return parts


def _shape(rng: random.Random, n: int, depth: int) -> list:
    """A tree of exactly n leaves ["a"] under containers ["c", children]."""
    if n == 1 and (depth == 0 or rng.random() < 0.6):
        return ["a"]
    if n == 1:
        return ["c", [_shape(rng, 1, depth - 1)]]
    cap = 3 ** (depth - 1)
    m = rng.choice([k for k in (2, 3) if k <= n and k * cap >= n])
    return ["c", [_shape(rng, k, depth - 1) for k in _split(rng, n, m, cap)]]


def _nodes(tree: list, kind: str) -> list:
    if tree[0] == "a":
        return [tree] if kind == "a" else []
    own = [tree] if tree[0] == kind else []
    return own + [n for child in tree[1] for n in _nodes(child, kind)]


def _depth(tree: list) -> int:
    return 0 if tree[0] == "a" else 1 + max(_depth(c) for c in tree[1])


def _canon(tree: list) -> str:
    if tree[0] == "a":
        return f"a{tree[1]}:{tree[2]}"
    kids = [_canon(c) for c in tree[1]]
    return tree[0] + "(" + ",".join(sorted(kids) if tree[0] == "s" else kids) + ")"


def _tree(rng: random.Random, p: int, nvec: int) -> list:
    """An object of exactly N_ATOMS atoms, N_SETS sets and N_TUPLES tuples,
    no set holding two equal members.  Leaves are ["a", residue, vector
    index], and every vector index below nvec occurs."""
    while True:
        tree = _shape(rng, N_ATOMS, 3)
        containers = _nodes(tree, "c")
        if len(containers) != N_SETS + N_TUPLES:
            continue
        kinds = ["s"] * N_SETS + ["t"] * N_TUPLES
        rng.shuffle(kinds)
        for node, kind in zip(containers, kinds):
            node[0] = kind
        idx = list(range(nvec)) + [rng.randrange(nvec) for _ in range(N_ATOMS - nvec)]
        rng.shuffle(idx)
        for leaf, i in zip(_nodes(tree, "a"), idx):
            leaf.extend([rng.randrange(p), i])
        if all(len({_canon(c) for c in s[1]}) == len(s[1]) for s in _nodes(tree, "s")):
            return tree


def _query_spec(rng: random.Random, p: int, horizon: int, nvec: int) -> dict:
    while True:
        vectors = [[rng.randrange(p) for _ in range(horizon)] for _ in range(nvec)]
        if rank_mod_p(vectors, p) == nvec:
            break
    return {"kind": "query", "p": p, "H": horizon, "vectors": vectors, "x": _tree(rng, p, nvec)}


def _sparse(rng: random.Random, p: int, horizon: int, coords: list[int]) -> list[int]:
    v = [0] * horizon
    for i in coords:
        v[i] = rng.randrange(1, p)
    return v


def _reduce_spec(rng: random.Random, p: int, horizon: int) -> dict:
    """A, b1 and b2 have disjoint supports, so echelon normalization leaves
    them as they are and no proper subset of {b1, b2} supports x: every
    reduction enumerates the pointwise stabilizer of A."""
    cols = rng.sample(range(horizon), horizon)
    cut1, cut2 = sorted(rng.sample(range(1, horizon), 2))
    cut3 = rng.randint(cut2 + 1, horizon)
    return {
        "kind": "reduce",
        "p": p,
        "H": horizon,
        "A": _sparse(rng, p, horizon, cols[:cut1]),
        "b1": _sparse(rng, p, horizon, cols[cut1:cut2]),
        "b2": _sparse(rng, p, horizon, cols[cut2:cut3]),
        "c": rng.randrange(1, p),
        "d": rng.randrange(p),
        # two atoms (residue, k) over k*A, which Stab(A) fixes
        "junk": [[rng.randrange(p), rng.randrange(p)] for _ in range(2)],
    }


def make_plan(seed: int) -> list[list[dict]]:
    plan = []
    for r in range(PLAN_ROUNDS):
        rng = random.Random(f"horizon-wall:{seed}:{r}")
        # the footprint rank changes a query's cost (stabilizer_in spans
        # p^(H-rank) fixers), so each slot keeps one rank, cycling 1, 2, 3
        ops = [_query_spec(rng, p, h, 1 + i % 3) for i, (p, h) in enumerate(GROUP_SLOTS)]
        ops += [_reduce_spec(rng, p, h) for p, h in REDUCE_SLOTS]
        ops += [
            _query_spec(rng, 2, rng.randint(20, 30), rng.randint(1, 3)),
            _query_spec(rng, 2, rng.randint(20, 30), rng.randint(1, 3)),
            _query_spec(rng, 3, rng.randint(13, 20), rng.randint(1, 3)),
            _reduce_spec(rng, 2, rng.randint(21, 30)),
        ]
        rng.shuffle(ops)
        plan.append(ops)
    return plan


def _enum_size(spec: dict) -> int:
    """Elements the program enumerates: the whole group for a query, the
    pointwise stabilizer of A (dimension H-1) for a reduction."""
    return spec["p"] ** (spec["H"] - (spec["kind"] == "reduce"))


def describe(plan: list[list[dict]]) -> dict:
    """Input properties, over every planned operation."""
    ops = [op for rnd in plan for op in rnd]
    queries = [op for op in ops if op["kind"] == "query"]

    def hist(keys):
        return {str(k): keys.count(k) for k in sorted(set(keys))}

    return {
        "ops": len(ops),
        "kind": hist([op["kind"] for op in ops]),
        "kind_p_H": hist([f"{op['kind']}_p{op['p']}_H{op['H']}" for op in ops]),
        "footprint_rank": hist([len(q["vectors"]) for q in queries]),
        "hf_nodes": hist([sum(len(_nodes(q["x"], k)) for k in "ast") for q in queries]),
        "hf_depth": hist([_depth(q["x"]) for q in queries]),
        "beyond_cap_frac": sum(_enum_size(op) > CAP for op in ops) / len(ops),
    }


# ---------------------------------------------------------------------------
# Program objects and checks
# ---------------------------------------------------------------------------


def _vec(p: int, dense: list[int]) -> Vector:
    return Vector.from_dict(p, dict(enumerate(dense)))


def _hf(tree: list, vectors: list[Vector]):
    if tree[0] == "a":
        return AtomLeaf(atom(tree[1], vectors[tree[2]]))
    children = [_hf(c, vectors) for c in tree[1]]
    return FiniteSet(children) if tree[0] == "s" else HFTuple(children)


def _dense_of(v: Vector, horizon: int) -> list[int]:
    out = [0] * horizon
    for i, c in v.entries:
        out[i] = c
    return out


def shifted(tree: list, t: list[int], p: int) -> list:
    """The plain-data image of x under any g with <w_i, g> = t[i] for each
    footprint vector w_i: atom (a | w_i) goes to (a + t[i] | w_i)."""
    if tree[0] == "a":
        return ["a", (tree[1] + t[tree[2]]) % p, tree[2]]
    return [tree[0], [shifted(c, t, p) for c in tree[1]]]


def pairings(dense_footprint: list[list[int]], coords, p: int) -> list[int]:
    return [sum(a * b for a, b in zip(w, coords)) % p for w in dense_footprint]


def expected_orbit(tree: list, vectors: list[Vector], p: int) -> set:
    """x.g depends only on the pairings <w_i, g>, and since the footprint
    vectors are independent, the group reaches every tuple of pairings:
    the orbit is the p^rank images of the plain-data tree, built without
    the program's action."""
    rank = len(vectors)
    images = set()
    for n in range(p**rank):
        t = []
        for _ in range(rank):
            n, c = divmod(n, p)
            t.append(c)
        images.add(_hf(shifted(tree, t, p), vectors))
    return images


class QueryOp:
    kind = "query"

    def __init__(self, spec: dict, groups: dict):
        self.p, self.h = spec["p"], spec["H"]
        self.dense = spec["vectors"]
        self.footprint = [_vec(self.p, v) for v in self.dense]
        self.tree = spec["x"]
        self.x = _hf(self.tree, self.footprint)
        key = (self.p, self.h)
        if key not in groups:
            groups[key] = GroupSubspace.full(self.p, self.h)
        self.group = groups[key]

    def run(self, rec: harness.Recorder) -> dict:
        out = {
            "fixers": rec.call(
                "atom_action.pointwise_stabilizer",
                pointwise_stabilizer,
                self.footprint,
                self.h,
                self.p,
            )
        }
        for name, fn in (("orbit", orbit), ("stabilizer_in", stabilizer_in)):
            try:
                out[name] = rec.call(f"atom_action.{name}", fn, self.x, self.group)
            except ResourceError as exc:
                out[name] = exc
        if not isinstance(out["stabilizer_in"], ResourceError):
            rec.add("atom_action.stabilizer_in.elements", self.group.size)
            rec.add(
                "atom_action.stabilizer_in.footprint_elements",
                self.p ** len(self.footprint),
            )
        out["is_support"] = rec.call(
            "supports.is_support", is_support, self.footprint, self.x, self.h, self.p
        )
        return out

    def _fixes(self, coords) -> bool:
        t = pairings(self.dense, coords, self.p)
        return _hf(shifted(self.tree, t, self.p), self.footprint) == self.x

    def check(self, out: dict, exc: BaseException | None) -> str:
        if exc is not None:
            return harness.WRONG
        fixers, orb, stab = out["fixers"], out["orbit"], out["stabilizer_in"]
        ok = (
            out["is_support"] is True
            and fixers.dimension == self.h - len(self.footprint)
            and all(
                w.dot_dense(g.coords) == 0
                for g in fixers.basis_elements()
                for w in self.footprint
            )
        )
        refused = [isinstance(v, ResourceError) for v in (orb, stab)]
        if any(refused):
            beyond = all(refused) and self.group.size > CAP
            return harness.REFUSED if ok and beyond else harness.WRONG
        ok = (
            ok
            and orb == expected_orbit(self.tree, self.footprint, self.p)
            and len(orb) * stab.size == self.group.size
            and stab.space.contains_subspace(fixers.space)
            and all(self._fixes(g.coords) for g in stab.basis_elements())
            and (
                self.h > ORACLE_MAX_H
                or support_oracle(tuple(self.footprint), self.x, self.h, self.p)
            )
        )
        return harness.OK if ok else harness.WRONG


class ReduceOp:
    kind = "reduce"

    def __init__(self, spec: dict):
        p, h, c = spec["p"], spec["H"], spec["c"]
        self.p, self.h = p, h
        self.enum_size = _enum_size(spec)
        self.base = [_vec(p, spec["A"])]
        self.supplement = [_vec(p, spec["b1"]), _vec(p, spec["b2"])]
        # x is fixed exactly when <c*b1 - b2, g> = 0, so the reduction must
        # reach a set spanning the same space as A and c*b1 - b2
        self.want = [spec["A"], [(c * u - v) % p for u, v in zip(spec["b1"], spec["b2"])]]
        b1, b2 = self.supplement
        junk = HFTuple(AtomLeaf(atom(a, self.base[0].scale(k))) for a, k in spec["junk"])

        def member(d):
            core = FiniteSet(
                HFTuple((AtomLeaf(atom(j, b1)), AtomLeaf(atom((c * j + d) % p, b2))))
                for j in range(p)
            )
            return FiniteSet((core, junk))

        self.x = member(spec["d"])
        self.orbit_set = FiniteSet(member(d) for d in range(p))

    def run(self, rec: harness.Recorder):
        return rec.call(
            "supports.find_small_support",
            find_small_support,
            self.x,
            self.orbit_set,
            self.base,
            self.supplement,
            self.h,
            self.p,
        )

    def check(self, out, exc: BaseException | None) -> str:
        if isinstance(exc, ResourceError):
            return harness.REFUSED if self.enum_size > CAP else harness.WRONG
        if exc is not None:
            return harness.WRONG
        result, _ = out
        got = [_dense_of(v, self.h) for v in result]
        ok = (
            len(result) <= len(self.base) + 1
            and set(self.base) <= result
            and rank_mod_p(got, self.p) == len(self.want)
            and rank_mod_p(got + self.want, self.p) == len(self.want)
            and (
                self.h > ORACLE_MAX_H
                or support_oracle(tuple(result), self.x, self.h, self.p)
            )
        )
        return harness.OK if ok else harness.WRONG


def build(plan: list[list[dict]]) -> list[list]:
    groups: dict = {}
    return [
        [QueryOp(s, groups) if s["kind"] == "query" else ReduceOp(s) for s in rnd]
        for rnd in plan
    ]
