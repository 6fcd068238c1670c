"""Iterated-logarithm density machinery: log*, prefix densities, thinness
certificates, and sparse-subsequence extraction from vector streams.

log* is computed by exact integer tower comparison (tower(p, 0) = 1,
tower(p, k+1) = p ** tower(p, k)): the least k with tower(p, k) >= n.
Floating point never enters, so boundary values are classified exactly.

Thinness is a limit statement and is never "decided" for arbitrary
sets; instead, certificates are issued for the four closed-form classes
(finite set, finite union, span of a finite set, extracted stream) and
validated arithmetically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .errors import CertificateError, UsageError, WindowExhaustedError
from .fp_core import (
    DEFAULT_ENUM_CAP,
    Subspace,
    Vector,
    check_prime,
    project_prefix,
    span_of,
    unit,
)

DEFAULT_WINDOW = 256

_towers: dict[int, list[int]] = {}


def _tower_list(p: int, upto: int) -> list[int]:
    """Towers of p, extended until the last one reaches ``upto``."""
    check_prime(p)
    ts = _towers.setdefault(p, [1])
    while ts[-1] < upto:
        ts.append(p ** ts[-1])
    return ts


def log_star_p(n: int, p: int) -> int:
    """Least k whose height-k tower of p reaches n (n >= 1)."""
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"log* is defined for integers n >= 1, got {n!r}")
    ts = _tower_list(p, n)
    for k, t in enumerate(ts):
        if t >= n:
            return k
    raise AssertionError("unreachable")


def density_d_k(
    vectors: Union[Iterable[Vector], Subspace], k: int, cap: int = DEFAULT_ENUM_CAP
) -> int:
    """Number of distinct k-prefixes among the given vectors."""
    if isinstance(vectors, Subspace):
        vectors = vectors.enumerate_elements(cap)
    return len({project_prefix(w, k) for w in vectors})


def check_span_density_bound(
    vectors: Iterable[Vector], k: int, p: int | None = None, cap: int = DEFAULT_ENUM_CAP
) -> tuple[int, int, bool]:
    """Returns (d_k of the span, p ** d_k of the generators, lhs <= rhs)."""
    vectors = tuple(vectors)
    if p is None:
        if not vectors:
            raise UsageError("empty generating set needs an explicit p")
        p = vectors[0].p
    spanned = span_of(vectors, p)
    lhs = density_d_k(spanned, k, cap)
    rhs = p ** density_d_k(vectors, k)
    return lhs, rhs, lhs <= rhs


@dataclass(frozen=True)
class DensityProfile:
    """Per-k densities of a fixed set, with the (log* d_k, log* k) ratio pairs."""

    p: int
    entries: tuple[tuple[int, int, tuple[int, int]], ...]

    def __post_init__(self):
        prev_k = 0
        prev_d = 0
        for k, d, _ in self.entries:
            if k <= prev_k:
                raise UsageError("profile k values must strictly increase")
            if d < prev_d:
                raise UsageError("d_k cannot decrease in k for a fixed set")
            prev_k, prev_d = k, d

    def csv_rows(self) -> list[list]:
        rows = [["k", "d_k", "logstar_dk", "logstar_k"]]
        for k, d, (ls_d, ls_k) in self.entries:
            rows.append([k, d, ls_d, ls_k])
        return rows


def density_profile(
    vectors: Union[Iterable[Vector], Subspace],
    k_max: int,
    p: int,
    cap: int = DEFAULT_ENUM_CAP,
) -> DensityProfile:
    """Profile at k = 1..k_max (k = 0 is skipped: log* needs n >= 1)."""
    if k_max < 1:
        raise UsageError("profile needs k_max >= 1")
    if isinstance(vectors, Subspace):
        vectors = tuple(vectors.enumerate_elements(cap))
    else:
        vectors = tuple(vectors)
    if not vectors:
        raise UsageError("profile of an empty set is all zeros; nothing to chart")
    entries = []
    for k in range(1, k_max + 1):
        d = density_d_k(vectors, k, cap)
        entries.append((k, d, (log_star_p(d, p), log_star_p(k, p))))
    return DensityProfile(p, tuple(entries))


# ---------------------------------------------------------------------------
# Vector streams and extraction
# ---------------------------------------------------------------------------


class VectorStream:
    """Single-consumer stream of pairwise distinct vectors.

    The declared (unverifiable in full) property is that every coordinate
    is eventually constant along the stream; distinctness is checked
    online as terms are pulled into the lookahead buffer.
    """

    def __init__(self, source: Iterable[Vector], p: int):
        check_prime(p)
        self.p = p
        self._it = iter(source)
        self._buf: list[Vector] = []
        self._seen: set[Vector] = set()

    def try_get(self, i: int) -> Vector | None:
        while len(self._buf) <= i:
            try:
                v = next(self._it)
            except StopIteration:
                return None
            if not isinstance(v, Vector) or v.p != self.p:
                raise UsageError("stream produced a non-vector or wrong modulus")
            if v in self._seen:
                raise UsageError(f"stream repeated the vector {v!r}")
            self._seen.add(v)
            self._buf.append(v)
        return self._buf[i]

    def get(self, i: int) -> Vector:
        v = self.try_get(i)
        if v is None:
            raise WindowExhaustedError(f"stream ended before index {i}")
        return v


def canonical_stream(p: int) -> Iterator[Vector]:
    """x_n = e_0 + ... + e_n."""
    acc = Vector(p)
    i = 0
    while True:
        acc = acc + unit(p, i)
        yield acc
        i += 1


def _first_prefix_disagreement(a: Vector, b: Vector, k: int) -> int:
    """Least coordinate < k where the two vectors differ (they must differ)."""
    da = {i: v for i, v in a.entries if i < k}
    db = {i: v for i, v in b.entries if i < k}
    diff = [i for i in set(da) | set(db) if da.get(i, 0) != db.get(i, 0)]
    return min(diff)


def _stable_from(
    stream: VectorStream, c: int, end: int
) -> tuple[bool, int | None]:
    """Whether pr_c(x_m) is constant for m in [c, end); on failure, the
    offending coordinate.  A candidate with nothing after it to compare
    against never passes (no vacuous stability)."""
    base = stream.try_get(c)
    if base is None:
        return False, None
    ref = project_prefix(base, c)
    m = c + 1
    compared = 0
    while m < end:
        v = stream.try_get(m)
        if v is None:
            break
        pv = project_prefix(v, c)
        if pv != ref:
            return False, _first_prefix_disagreement(pv, ref, c)
        compared += 1
        m += 1
    return compared > 0, None


@dataclass(frozen=True)
class FiniteSetCert:
    """A finite set is thin: its densities are bounded outright."""

    p: int
    elements: tuple[Vector, ...]


@dataclass(frozen=True)
class SpanOfFiniteCert:
    """The span of a finite set is thin."""

    p: int
    generators: tuple[Vector, ...]


@dataclass(frozen=True)
class ExtractedStreamCert:
    """Checkpoints (n_i, bound) with the extracted set satisfying
    d_{n_i} <= bound <= i+1 and log*(n_i) > i for i >= 1.

    ``window`` records the lookahead actually inspected: the stream's
    for-all-later-terms stability condition was only checked that far, so
    every checkpoint index must lie below it.
    """

    p: int
    checkpoints: tuple[tuple[int, int], ...]
    window: int


@dataclass(frozen=True)
class FiniteUnionCert:
    children: tuple["ThinCertificate", ...]


ThinCertificate = Union[
    FiniteSetCert, SpanOfFiniteCert, ExtractedStreamCert, FiniteUnionCert
]


def extract_thin_subsequence(
    stream: VectorStream, count: int, p: int, window: int = DEFAULT_WINDOW
) -> tuple[tuple[int, ...], ExtractedStreamCert]:
    """Select count indices n_0 = 0 < n_1 < ... whose terms form a sparse set.

    n_{i+1} is the least in-window index c with log*_p(c) > i + 1 whose
    length-c prefix has already stabilized at c (within the window).  The
    stabilization requirement makes every later selected term agree with
    x_{n_{i+1}} below n_{i+1}, which is what pins d_{n_i} <= i + 1.
    """
    if count < 1:
        raise UsageError("need count >= 1")
    if stream.p != p:
        raise UsageError(f"stream modulus {stream.p} differs from p={p}")
    indices = [0]
    stream.get(0)
    for i in range(count - 1):
        # log*(c) > i+1 iff c > tower(p, i+1); extend towers only while
        # they stay below the window, anything larger is out of reach
        ts = _tower_list(p, 1)
        while len(ts) <= i + 1 and ts[-1] <= window:
            ts = _tower_list(p, ts[-1] + 1)
        if len(ts) <= i + 1 or ts[i + 1] + 1 >= window:
            raise WindowExhaustedError(
                f"window {window} holds no index with log* above {i + 1}"
            )
        c = max(indices[-1] + 1, ts[i + 1] + 1)
        found = None
        last_coord = None
        while c < window:
            ok, coord = _stable_from(stream, c, window)
            if ok:
                found = c
                break
            if coord is not None:
                last_coord = coord
            c += 1
        if found is None:
            raise WindowExhaustedError(
                f"no admissible index for checkpoint {i + 1} within window "
                f"{window}"
                + (
                    f"; coordinate {last_coord} kept changing"
                    if last_coord is not None
                    else ""
                ),
                coordinate=last_coord,
            )
        indices.append(found)
    selected = [stream.get(j) for j in indices]
    checkpoints = []
    for i, n_i in enumerate(indices):
        d = density_d_k(selected, n_i)
        if d > i + 1:
            raise WindowExhaustedError(
                f"checkpoint {i}: density {d} exceeds bound {i + 1}; the "
                "stream was not stable enough in the inspected window"
            )
        checkpoints.append((n_i, i + 1))
    return tuple(indices), ExtractedStreamCert(p, tuple(checkpoints), window)


# ---------------------------------------------------------------------------
# Certificate validation and JSON forms
# ---------------------------------------------------------------------------


def certificate_violations(cert: ThinCertificate, path: str = "") -> list[str]:
    """All arithmetic problems in the certificate; empty means valid."""
    where = path or "certificate"
    if isinstance(cert, FiniteSetCert):
        return []
    if isinstance(cert, SpanOfFiniteCert):
        return []
    if isinstance(cert, FiniteUnionCert):
        problems = []
        for idx, child in enumerate(cert.children):
            problems.extend(certificate_violations(child, f"{where}.children[{idx}]"))
        return problems
    if isinstance(cert, ExtractedStreamCert):
        problems = []
        if not cert.checkpoints:
            problems.append(f"{where}: no checkpoints")
            return problems
        prev = -1
        for i, (n_i, bound) in enumerate(cert.checkpoints):
            tag = f"{where}.checkpoints[{i}]"
            if n_i <= prev:
                problems.append(f"{tag}: indices must strictly increase")
            prev = n_i
            if bound > i + 1:
                problems.append(f"{tag}: density bound {bound} exceeds {i + 1}")
            if i >= 1:
                got = log_star_p(n_i, cert.p) if n_i >= 1 else None
                if got is None or got <= i:
                    problems.append(
                        f"{tag}: log*_{cert.p}({n_i}) = {got} is not > {i}"
                    )
            if n_i >= cert.window:
                problems.append(
                    f"{tag}: index {n_i} is outside the inspected window {cert.window}"
                )
        return problems
    raise CertificateError(f"unknown certificate object {type(cert).__name__}")


def certify_thin(cert: ThinCertificate) -> bool:
    return not certificate_violations(cert)


def certificate_to_json(cert: ThinCertificate) -> dict:
    if isinstance(cert, FiniteSetCert):
        return {
            "kind": "finite-set",
            "p": cert.p,
            "elements": [v.to_text() for v in cert.elements],
        }
    if isinstance(cert, SpanOfFiniteCert):
        return {
            "kind": "span-of-finite",
            "p": cert.p,
            "generators": [v.to_text() for v in cert.generators],
        }
    if isinstance(cert, ExtractedStreamCert):
        return {
            "kind": "extracted-stream",
            "p": cert.p,
            "window": cert.window,
            "checkpoints": [[n, b] for n, b in cert.checkpoints],
        }
    if isinstance(cert, FiniteUnionCert):
        return {
            "kind": "finite-union",
            "children": [certificate_to_json(c) for c in cert.children],
        }
    raise CertificateError(f"unknown certificate object {type(cert).__name__}")


def certificate_from_json(obj) -> ThinCertificate:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise CertificateError(f"certificate JSON must be an object with a kind: {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "finite-set":
            p = check_prime(int(obj["p"]))
            return FiniteSetCert(
                p, tuple(Vector.from_text(t, p) for t in obj["elements"])
            )
        if kind == "span-of-finite":
            p = check_prime(int(obj["p"]))
            return SpanOfFiniteCert(
                p, tuple(Vector.from_text(t, p) for t in obj["generators"])
            )
        if kind == "extracted-stream":
            p = check_prime(int(obj["p"]))
            cps = tuple((int(n), int(b)) for n, b in obj["checkpoints"])
            return ExtractedStreamCert(p, cps, int(obj["window"]))
        if kind == "finite-union":
            return FiniteUnionCert(
                tuple(certificate_from_json(c) for c in obj["children"])
            )
    except (KeyError, TypeError, ValueError, UsageError) as exc:
        raise CertificateError(f"malformed {kind} certificate: {exc}") from None
    raise CertificateError(f"unknown certificate kind {kind!r}")
