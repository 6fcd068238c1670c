import random

import pytest

from atomlab.errors import CertificateError, UsageError, WindowExhaustedError
from atomlab.fp_core import Vector, project_prefix, span_of, unit
from atomlab.thin_ideal import (
    VectorStream,
    canonical_stream,
    certificate_violations,
    certify_thin,
    check_span_density_bound,
    density_d_k,
    density_profile,
    extract_thin_subsequence,
    log_star_p,
)


def e(i, p=2):
    return unit(p, i)


def finite_set(p, *vectors):
    return {"kind": "finite-set", "p": p, "elements": [v.to_text() for v in vectors]}


def span_of_finite(p, *vectors):
    return {"kind": "span-of-finite", "p": p, "generators": [v.to_text() for v in vectors]}


def stream_cert(p, checkpoints, window):
    return {"kind": "extracted-stream", "p": p, "window": window,
            "checkpoints": [list(c) for c in checkpoints]}  # fmt: skip


def union(*children):
    return {"kind": "finite-union", "children": list(children)}


def logstar_by_iterated_log(n, p):
    """Independent route: iterate 'replace n by the least m with p^m >= n'."""
    k = 0
    while n > 1:
        m, power = 0, 1
        while power < n:
            power *= p
            m += 1
        n = m
        k += 1
    return k


class TestLogStar:
    def test_base_cases(self):
        assert log_star_p(1, 2) == 0
        assert log_star_p(2, 2) == 1

    def test_sixteen(self):
        # 16 -> 4 -> 2 -> 1 under log_2
        assert logstar_by_iterated_log(16, 2) == 3
        assert log_star_p(16, 2) == 3

    def test_twenty_seven(self):
        # 27 -> 3 -> 1 under log_3
        assert logstar_by_iterated_log(27, 3) == 2
        assert log_star_p(27, 3) == 2

    def test_zero_rejected(self):
        with pytest.raises(UsageError):
            log_star_p(0, 2)

    def test_matches_iterated_log_sample(self):
        for p in (2, 3, 5):
            for n in range(1, 10_000):
                assert log_star_p(n, p) == logstar_by_iterated_log(n, p)

    def test_monotone(self):
        prev = 0
        for n in range(1, 3000):
            cur = log_star_p(n, 2)
            assert cur >= prev
            prev = cur


class TestDensity:
    def test_small_set(self):
        a = [e(0), e(1), e(0) + e(1)]
        assert density_d_k(a, 1) == 2

    def test_k_zero(self):
        assert density_d_k([e(0), e(1)], 0) == 1
        assert density_d_k([], 0) == 0

    def test_subspace_input(self):
        s = span_of([e(0), e(1)])
        assert density_d_k(s, 1) == 2

    def test_union_subadditive_random(self):
        rng = random.Random(13)
        for p in (2, 3):
            for _ in range(100):
                a = {
                    Vector.from_dict(p, {i: rng.randrange(p) for i in range(6)})
                    for _ in range(rng.randint(1, 4))
                }
                b = {
                    Vector.from_dict(p, {i: rng.randrange(p) for i in range(6)})
                    for _ in range(rng.randint(1, 4))
                }
                for k in range(7):
                    assert density_d_k(a | b, k) <= density_d_k(a, k) + density_d_k(b, k)


class TestSpanDensityBound:
    def test_single_generator(self):
        # Span{e0} = {0, e0}: two 1-prefixes; 2 <= 2^1
        assert check_span_density_bound([e(0)], 1, 2) == (2, 2, True)

    def test_empty_generators(self):
        # Span {} = {0}: one prefix; d_k of the empty set is 0, so the bound is 1
        assert check_span_density_bound([], 3, p=2) == (1, 1, True)

    def test_plane(self):
        # oracle: enumerate all 4 span elements and count 2-prefixes directly
        span_elems = list(span_of([e(0), e(1)]).enumerate_elements())
        assert len(span_elems) == 4
        lhs_oracle = len({project_prefix(v, 2) for v in span_elems})
        assert lhs_oracle == 4
        assert check_span_density_bound([e(0), e(1)], 2, 2) == (4, 4, True)

    def test_bound_holds_randomized(self):
        rng = random.Random(14)
        for p in (2, 3):
            for _ in range(80):
                a = [
                    Vector.from_dict(p, {i: rng.randrange(p) for i in range(6)})
                    for _ in range(rng.randint(1, 4))
                ]
                k = rng.randrange(7)
                lhs, rhs, ok = check_span_density_bound(a, k, p)
                assert ok
                assert log_star_p(lhs, p) <= 1 + log_star_p(max(density_d_k(a, k), 1), p)


def simulate_selection(terms, count, p):
    """Independent scan for the expected indices: the least index beyond the
    previous pick whose log* exceeds the checkpoint number and whose own
    prefix is already constant from that index on."""
    idx = [0]
    for i in range(count - 1):
        c = idx[-1] + 1
        while True:
            if logstar_by_iterated_log(c, p) > i + 1:
                ref = project_prefix(terms[c], c)
                if all(project_prefix(t, c) == ref for t in terms[c:]):
                    break
            c += 1
        idx.append(c)
    return tuple(idx)


class TestExtraction:
    def test_canonical_stream_indices(self):
        terms = []
        gen = canonical_stream(2)
        for _ in range(64):
            terms.append(next(gen))
        assert simulate_selection(terms, 3, 2) == (0, 3, 5)
        stream = VectorStream(iter(terms), 2)
        idx, cert = extract_thin_subsequence(stream, 3, 2, window=64)
        assert idx == (0, 3, 5)
        assert cert == stream_cert(2, ((0, 1), (3, 2), (5, 3)), 64)
        assert certify_thin(cert)

    def test_canonical_stream_fourth_index(self):
        terms = []
        gen = canonical_stream(2)
        for _ in range(64):
            terms.append(next(gen))
        assert simulate_selection(terms, 4, 2) == (0, 3, 5, 17)
        stream = VectorStream(canonical_stream(2), 2)
        idx, _ = extract_thin_subsequence(stream, 4, 2, window=64)
        assert idx == (0, 3, 5, 17)

    def test_count_one(self):
        stream = VectorStream(canonical_stream(2), 2)
        idx, cert = extract_thin_subsequence(stream, 1, 2, window=8)
        assert idx == (0,)
        assert certify_thin(cert)

    def test_constant_prefix_stream_density(self):
        # terms share every prefix below 32; selected prefixes collapse
        terms = [e(0) + e(40 + n) for n in range(40)]
        stream = VectorStream(iter(terms), 2)
        idx, cert = extract_thin_subsequence(stream, 3, 2, window=40)
        selected = [terms[i] for i in idx]
        for i, n_i in enumerate(idx):
            assert len({project_prefix(v, n_i) for v in selected}) <= i + 1

    def test_unstable_coordinate_diagnosed(self):
        # coordinate 0 never settles
        terms = [e(5 + n) + (e(0) if n % 2 else Vector(2)) for n in range(40)]
        stream = VectorStream(iter(terms), 2)
        with pytest.raises(WindowExhaustedError) as exc_info:
            extract_thin_subsequence(stream, 2, 2, window=16)
        assert str(exc_info.value).endswith("; coordinate 0 kept changing")

    def test_window_too_small_for_logstar(self):
        stream = VectorStream(canonical_stream(2), 2)
        with pytest.raises(WindowExhaustedError):
            extract_thin_subsequence(stream, 3, 2, window=4)

    def test_window_messages(self):
        cases = [
            (3, 2, 4, "no admissible index for checkpoint 1 within window 4"),
            (3, 2, 6, "no admissible index for checkpoint 2 within window 6"),
            (5, 2, 64, "window 64 holds no index with log* above 4"),
            (3, 3, 20, "window 20 holds no index with log* above 2"),
        ]
        for count, p, window, message in cases:
            stream = VectorStream(canonical_stream(p), p)
            with pytest.raises(WindowExhaustedError) as exc_info:
                extract_thin_subsequence(stream, count, p, window=window)
            assert str(exc_info.value) == message

    def test_stream_distinctness_enforced(self):
        terms = [e(0), e(1), e(0)]
        stream = VectorStream(iter(terms), 2)
        with pytest.raises(UsageError):
            extract_thin_subsequence(stream, 2, 2, window=8)


class TestCertificates:
    def test_finite_set_valid(self):
        assert certify_thin(finite_set(2, e(0), e(1)))

    def test_union_of_valid_is_valid(self):
        cert = union(finite_set(2, e(0)), span_of_finite(2, e(1), e(2)))
        assert certify_thin(cert)

    def test_bad_checkpoint_diagnosed(self):
        cert = stream_cert(2, ((0, 1), (2, 2), (5, 3)), 64)
        assert not certify_thin(cert)
        problems = certificate_violations(cert)
        assert any("checkpoints[1]" in p for p in problems)

    def test_bad_density_bound_diagnosed(self):
        cert = stream_cert(2, ((0, 1), (3, 5)), 64)
        problems = certificate_violations(cert)
        assert any("density bound" in p for p in problems)

    def test_union_propagates_child_problems(self):
        bad = stream_cert(2, ((0, 1), (2, 2)), 64)
        cert = union(finite_set(2), bad)
        problems = certificate_violations(cert)
        assert any("children[1]" in p for p in problems)

    def test_non_prime_modulus_rejected(self):
        for kind, key in (
            ("finite-set", "elements"),
            ("span-of-finite", "generators"),
        ):
            with pytest.raises(CertificateError):
                certificate_violations({"kind": kind, "p": 4, key: []})
        with pytest.raises(CertificateError):
            certificate_violations(
                {"kind": "extracted-stream", "p": 4, "window": 8,
                 "checkpoints": [[0, 1]]}
            )  # fmt: skip

    def test_checkpoint_beyond_window_diagnosed(self):
        cert = stream_cert(2, ((0, 1), (3, 2), (5, 3)), 3)
        problems = certificate_violations(cert)
        assert [p.split(":")[0] for p in problems] == [
            "certificate.checkpoints[1]",
            "certificate.checkpoints[2]",
        ]
        assert all("window 3" in p for p in problems)
        assert certify_thin(dict(cert, window=6))

    def test_stream_certificate_needs_window(self):
        with pytest.raises(CertificateError):
            certificate_violations(
                {"kind": "extracted-stream", "p": 2, "checkpoints": [[0, 1]]}
            )

    def test_malformed_json_rejected(self):
        with pytest.raises(CertificateError):
            certificate_violations({"kind": "mystery"})
        with pytest.raises(CertificateError):
            certificate_violations({"kind": "finite-set", "p": 2})
        with pytest.raises(CertificateError):
            certificate_violations([1, 2, 3])
        with pytest.raises(CertificateError):
            certificate_violations({"kind": "finite-set", "p": 2, "elements": [5]})


class TestProfile:
    def test_columns(self):
        profile = density_profile(span_of([e(0), e(1)]), 4, 2)
        rows = profile.csv_rows()
        assert rows[0] == ["k", "d_k", "logstar_dk", "logstar_k"]
        assert [r[0] for r in rows[1:]] == [1, 2, 3, 4]
        ds = [r[1] for r in rows[1:]]
        assert ds == sorted(ds)

    def test_ratio_entries(self):
        profile = density_profile([e(0), e(1), e(2)], 3, 2)
        for k, d, (ls_d, ls_k) in profile.entries:
            assert ls_d == log_star_p(d, 2)
            assert ls_k == log_star_p(k, 2)

