"""Iterated-logarithm density machinery: log*, prefix densities, thinness
certificates, and sparse-subsequence extraction from vector streams.

log* is computed by exact integer tower comparison (tower(p, 0) = 1,
tower(p, k+1) = p ** tower(p, k)): the least k with tower(p, k) >= n.
Floating point never enters, so boundary values are classified exactly.

Thinness is a limit statement and is never "decided" for arbitrary
sets; instead, certificates are issued for the four closed-form classes
(finite set, finite union, span of a finite set, extracted stream) and
validated arithmetically.  A certificate is the JSON object that
``certify`` reads and ``extract-thin`` prints; the README lists each
kind's fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .errors import CertificateError, UsageError, WindowExhaustedError
from .fp_core import (
    Subspace,
    Vector,
    check_prime,
    json_int,
    project_prefix,
    span_of,
    unit,
)

DEFAULT_WINDOW = 256
CERTIFICATE_KINDS = ("finite-set", "span-of-finite", "extracted-stream", "finite-union")


def log_star_p(n: int, p: int) -> int:
    """Least k whose height-k tower of p reaches n (n >= 1).

    A tower t >= n.bit_length() ends the search without computing the
    next tower: p ** t >= 2 ** t > n.
    """
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"log* is defined for integers n >= 1, got {n!r}")
    check_prime(p)
    k, t = 0, 1
    while t < n:
        k += 1
        if t >= n.bit_length():
            break
        t = p**t
    return k


def density_d_k(vectors: Union[Iterable[Vector], Subspace], k: int) -> int:
    """Number of distinct k-prefixes among the given vectors.

    The k-prefixes of a subspace form the span of its basis's k-prefixes,
    so a subspace's count is p ** (the rank of that span), not a listing.
    """
    if isinstance(vectors, Subspace):
        prefixes = (project_prefix(b, k) for b in vectors.basis)
        return vectors.p ** span_of(prefixes, vectors.p).dimension
    return len({project_prefix(w, k) for w in vectors})


def check_span_density_bound(
    vectors: Iterable[Vector], k: int, p: int
) -> tuple[int, int, bool]:
    """Returns (d_k of the span, p ** d_k of the generators, lhs <= rhs)."""
    vectors = tuple(vectors)
    lhs = density_d_k(span_of(vectors, p), k)
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
    vectors: Union[Iterable[Vector], Subspace], k_max: int, p: int
) -> DensityProfile:
    """Profile at k = 1..k_max (k = 0 is skipped: log* needs n >= 1)."""
    if k_max < 1:
        raise UsageError("profile needs k_max >= 1")
    if not isinstance(vectors, Subspace):
        vectors = tuple(vectors)
        if not vectors:
            raise UsageError("profile of an empty set is all zeros; nothing to chart")
    entries = []
    for k in range(1, k_max + 1):
        d = density_d_k(vectors, k)
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


def extract_thin_subsequence(
    stream: VectorStream, count: int, p: int, window: int = DEFAULT_WINDOW
) -> tuple[tuple[int, ...], dict]:
    """Select count indices n_0 = 0 < n_1 < ... whose terms form a sparse set.

    n_{i+1} is the least in-window index c with log*_p(c) > i + 1 whose
    length-c prefix has already stabilized at c (within the window).  The
    stabilization requirement makes every later selected term agree with
    x_{n_{i+1}} below n_{i+1}, which is what pins d_{n_i} <= i + 1.

    Returns the indices and their extracted-stream certificate, whose
    ``window`` records the lookahead actually inspected: later terms were
    only checked that far, so every checkpoint index lies below it.
    """
    if count < 1:
        raise UsageError("need count >= 1")
    if stream.p != p:
        raise UsageError(f"stream modulus {stream.p} differs from p={p}")
    indices = [0]
    stream.get(0)
    for i in range(count - 1):
        # log* is non-decreasing, so some index below the window has
        # log* > i+1 exactly when window - 1 does
        if window < 2 or log_star_p(window - 1, p) <= i + 1:
            raise WindowExhaustedError(
                f"window {window} holds no index with log* above {i + 1}"
            )
        c = indices[-1] + 1
        while log_star_p(c, p) <= i + 1:
            c += 1
        last_coord = None
        for c in range(c, window):
            ok, coord = _stable_from(stream, c, window)
            if ok:
                break
            if coord is not None:
                last_coord = coord
        else:
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
        indices.append(c)
    selected = [stream.get(j) for j in indices]
    checkpoints = []
    for i, n_i in enumerate(indices):
        d = density_d_k(selected, n_i)
        if d > i + 1:
            raise WindowExhaustedError(
                f"checkpoint {i}: density {d} exceeds bound {i + 1}; the "
                "stream was not stable enough in the inspected window"
            )
        checkpoints.append([n_i, i + 1])
    cert = {
        "kind": "extracted-stream",
        "p": p,
        "window": window,
        "checkpoints": checkpoints,
    }
    return tuple(indices), cert


# ---------------------------------------------------------------------------
# Certificate validation
# ---------------------------------------------------------------------------


def certificate_violations(cert, path: str = "") -> list[str]:
    """All arithmetic problems in a certificate (its JSON object); empty
    means valid.  A malformed shape raises CertificateError."""
    where = path or "certificate"
    if not isinstance(cert, dict) or "kind" not in cert:
        raise CertificateError(
            f"certificate JSON must be an object with a kind: {cert!r}"
        )
    kind = cert["kind"]
    if kind not in CERTIFICATE_KINDS:
        raise CertificateError(f"unknown certificate kind {kind!r}")
    try:
        if kind == "finite-union":
            # a malformed child surfaces as this union's CertificateError
            return [
                problem
                for idx, child in enumerate(cert["children"])
                for problem in certificate_violations(child, f"{where}.children[{idx}]")
            ]
        p = check_prime(json_int(cert["p"]))
        if kind != "extracted-stream":
            for text in cert["elements" if kind == "finite-set" else "generators"]:
                Vector.from_text(text, p)
            return []
        window = json_int(cert["window"])
        checkpoints = [(json_int(n), json_int(b)) for n, b in cert["checkpoints"]]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CertificateError(f"malformed {kind} certificate: {exc}") from None
    if not checkpoints:
        return [f"{where}: no checkpoints"]
    problems = []
    prev = -1
    for i, (n_i, bound) in enumerate(checkpoints):
        tag = f"{where}.checkpoints[{i}]"
        if n_i <= prev:
            problems.append(f"{tag}: indices must strictly increase")
        prev = n_i
        if bound > i + 1:
            problems.append(f"{tag}: density bound {bound} exceeds {i + 1}")
        if i >= 1:
            got = log_star_p(n_i, p) if n_i >= 1 else None
            if got is None or got <= i:
                problems.append(f"{tag}: log*_{p}({n_i}) = {got} is not > {i}")
        if n_i >= window:
            problems.append(
                f"{tag}: index {n_i} is outside the inspected window {window}"
            )
    return problems


def certify_thin(cert) -> bool:
    return not certificate_violations(cert)
