import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newform_dedekind import contfrac
from newform_dedekind.contfrac import (
    ContinuedFraction,
    digit_symmetry_delta,
    expand,
    g_count,
    hensley_prediction,
    matrix_factorization,
    max_partial_quotient,
    phi_count,
    quotient_counts,
    reverse_denominator_expansion,
    to_parity_form,
)
from newform_dedekind.dedekind import complete_matrix
from newform_dedekind.errors import CertificationError, CoprimalityError


def totients(limit):
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def test_expand_examples():
    assert expand(1, 2).terms == (0, 2)
    assert expand(5, 7).terms == (0, 1, 2, 2)
    assert expand(3, 7).terms == (0, 2, 3)


def test_expand_errors():
    with pytest.raises(CoprimalityError):
        expand(4, 6)
    with pytest.raises(ValueError):
        expand(1, 0)
    with pytest.raises(ValueError):
        expand(3, -7)


def test_expand_reduces_numerator_first():
    assert expand(9, 7).terms == expand(2, 7).terms
    assert expand(-3, 7).terms == expand(4, 7).terms


def test_roundtrip_and_canonical_exhaustive():
    for c in range(2, 501):
        for a in range(1, c):
            if math.gcd(a, c) != 1:
                continue
            cf = expand(a, c)
            assert (cf.numerator, cf.denominator) == (a, c)
            assert cf.is_canonical
            assert cf.partials[-1] >= 2


def test_from_terms_rejects_bad_partials():
    with pytest.raises(ValueError):
        ContinuedFraction.from_terms(0, (2, 0))
    with pytest.raises(ValueError):
        ContinuedFraction.from_terms(0, (-1,))


def test_parity_form_examples():
    cf = expand(3, 7)  # [0;2,3], n even
    odd = to_parity_form(cf, want_odd_n=True)
    assert odd.terms == (0, 2, 2, 1)
    back = to_parity_form(odd, want_odd_n=False)
    assert back.terms == (0, 2, 3)
    same = expand(1, 2)  # [0;2], n odd already
    assert to_parity_form(same, want_odd_n=True) is same


def test_parity_form_bare_a0():
    bare = ContinuedFraction.from_terms(4, ())
    odd = to_parity_form(bare, want_odd_n=True)
    assert odd.terms == (3, 1)
    assert (odd.numerator, odd.denominator) == (4, 1)


def test_parity_form_exhaustive():
    for c in range(2, 201):
        for a in range(1, c):
            if math.gcd(a, c) != 1:
                continue
            cf = expand(a, c)
            for want in (True, False):
                out = to_parity_form(cf, want)
                assert out.n % 2 == (1 if want else 0)
                assert (out.numerator, out.denominator) == (a, c)


def test_max_partial_quotient():
    assert max_partial_quotient(5, 7) == 2
    assert max_partial_quotient(3, 7) == 3
    for c in (2, 9, 57):
        assert max_partial_quotient(1, c) == c


def test_matrix_factorization_example():
    m = matrix_factorization(ContinuedFraction.from_terms(0, (2, 2, 1)))
    assert (m[0][0], m[1][0]) == (3, 7)
    assert m[1][1] == 5
    assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1


def test_matrix_factorization_rejects_even_count():
    with pytest.raises(ValueError):
        matrix_factorization(ContinuedFraction.from_terms(4, ()))
    with pytest.raises(ValueError):
        matrix_factorization(expand(3, 7))  # [0;2,3] has n = 2


def test_matrix_factorization_exhaustive():
    # det +1, first column (a, c), and the b/d entries match the completed matrix
    for c in range(2, 301):
        for a in range(1, c):
            if math.gcd(a, c) != 1:
                continue
            odd = to_parity_form(expand(a, c), want_odd_n=True)
            m = matrix_factorization(odd)
            assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
            assert (m[0][0], m[1][0]) == (a, c)
            gamma = complete_matrix(a, c, 1, 1)
            assert (m[0][1], m[1][1]) == (gamma.b, gamma.d)


def test_reversal_examples():
    rev = reverse_denominator_expansion(3, 7)
    assert rev.terms == (0, 1, 2, 2)
    assert (rev.numerator, rev.denominator) == (5, 7)
    assert reverse_denominator_expansion(1, 5).terms == (0, 5)
    assert reverse_denominator_expansion(2, 5).numerator == 3


def test_reversal_check_raises_certification_error(monkeypatch):
    # a wrong expansion of 2/5 (here 1/5) reverses to d = 1, and 2*1 != 1 mod 5
    # must raise an exception that, unlike an assert, survives python -O
    monkeypatch.setattr(contfrac, "expand", lambda a, c: ContinuedFraction.from_terms(0, (c,)))
    with pytest.raises(CertificationError, match="not d/c"):
        reverse_denominator_expansion(2, 5)


def test_reversal_exhaustive():
    for c in range(2, 501):
        for a in range(1, c):
            if math.gcd(a, c) != 1:
                continue
            rev = reverse_denominator_expansion(a, c)
            d = rev.numerator
            assert 0 < d < c and a * d % c == 1
            # reversed form equals the direct expansion up to the
            # two-expansion ambiguity
            direct = expand(d, c)
            matched = to_parity_form(rev, want_odd_n=direct.n % 2 == 1)
            assert matched.terms == direct.terms


def test_delta_examples():
    assert digit_symmetry_delta(3, 7) == 1
    assert digit_symmetry_delta(1, 5) == 0
    for c in (8, 12, 35):
        assert digit_symmetry_delta(c - 1, c) == 0  # a^2 = 1 mod c


def test_delta_bounded_exhaustive():
    for c in range(2, 501):
        for a in range(1, c):
            if math.gcd(a, c) == 1:
                assert abs(digit_symmetry_delta(a, c)) <= 1


@functools.lru_cache(maxsize=None)
def reference_D(c):
    """D(a, c) for the units 1 < a < c, from a per-c vectorized Euclid: the
    route quotient_counts took before its walk over the expansions."""
    a = np.arange(1, c, dtype=np.int64)
    x = np.full_like(a, c)
    y = a.copy()
    best = np.zeros_like(a)
    while True:
        live = np.nonzero(y > 0)[0]
        if live.size == 0:
            break
        q = x[live] // y[live]
        np.maximum.at(best, live, q)
        x[live], y[live] = y[live], x[live] - q * y[live]
    return best[(x == 1) & (a > 1)]


def reference_counts(tables, alpha, C):
    """(phi, g) at (alpha, C) from tables[c] = reference_D(c)."""
    limit = alpha * math.log(C)
    phi = g = 0
    for c in range(3, C + 1):
        phi += int((tables[c] <= limit).sum())
        g += int((tables[c] > limit).sum())
    return phi, g


def test_euclid_table_rows_are_the_expansions():
    for c in range(1, 201):
        partials, n = contfrac._euclid_rows(np.arange(1, c), c)
        assert partials.shape[0] == n.size == c - 1
        for a in range(1, c):
            # a/c and its reduced form (a/g)/(c/g) share their partials
            g = math.gcd(a, c)
            assert tuple(partials[a - 1, :n[a - 1]]) == expand(a // g, c // g).partials
            assert not partials[a - 1, n[a - 1]:].any()


def test_euclid_rows_on_random_pairs_are_the_expansions():
    rng = np.random.default_rng(11)
    c = rng.integers(2, 10**6, size=3000)
    a = rng.integers(1, c)
    partials, n = contfrac._euclid_rows(a, c)
    assert partials.shape[0] == n.size == a.size
    for i in range(a.size):
        x, y = int(a[i]), int(c[i])
        g = math.gcd(x, y)
        assert tuple(partials[i, :n[i]]) == expand(x // g, y // g).partials
        assert not partials[i, n[i]:].any()
    with pytest.raises(ValueError):
        contfrac._euclid_rows(np.array([3]), np.array([3]))


def test_unit_blocks_list_every_unit_pair_in_order():
    for lo, hi in ((2, 2), (1, 60), (90, 400)):
        blocks = list(contfrac._unit_blocks(lo, hi))
        got = [(int(x), int(y)) for a, c in blocks for x, y in zip(a, c)]
        want = [(x, y) for y in range(max(lo, 2), hi + 1) for x in range(1, y)
                if math.gcd(x, y) == 1]
        assert got == want
        assert all(a.size <= contfrac._PAIR_BLOCK for a, _ in blocks)
    # a modulus with more numerators than a block holds is a block of its own
    (a, c), = contfrac._unit_blocks(5000, 5000)
    assert a.size == 2000 and (c == 5000).all()


def test_convergents_row_by_row():
    # each row's odd expansion, padded with zeros from the Euclid table's
    # width W to the odd height W + 1 + W % 2 as in the cf suite, forward and
    # reversed against from_terms
    pads = set()

    @settings(derandomize=True, deadline=None, database=None, max_examples=25)
    @given(st.integers(2, 600), st.integers(0, 600))
    def check(lo, span):
        a, c = next(contfrac._unit_blocks(lo, min(600, lo + span)))
        W = contfrac._euclid_rows(a, c)[0].shape[1]
        odd = [to_parity_form(expand(x, y), want_odd_n=True).partials
               for x, y in zip(a.tolist(), c.tolist())]
        digits = np.zeros((W + 1 + W % 2, a.size), dtype=np.int64)
        for i, t in enumerate(odd):
            digits[:len(t), i] = t
        forward = contfrac._convergents(digits)
        reverse = contfrac._convergents(digits, reverse=True)
        for i, t in enumerate(odd):
            for got, terms in ((forward, t), (reverse, t[::-1])):
                last = ContinuedFraction.from_terms(0, terms)
                prev = ContinuedFraction.from_terms(0, terms[:-1])
                assert [int(v[i]) for v in got] == [last.numerator, last.denominator,
                                                    prev.numerator, prev.denominator]
        pads.add(1 + W % 2)

    check()
    # both pad heights, one and two zero rows, were exercised
    assert pads == {1, 2}


def test_unit_digits_D_is_the_largest_partial_quotient():
    rng = np.random.default_rng(5)
    for a, c, D in contfrac._unit_digits(2, 1000):
        assert np.array_equal(D, contfrac._euclid_rows(a, c)[0].max(axis=1))
        for i in rng.choice(a.size, size=min(a.size, 20), replace=False):
            assert D[i] == max_partial_quotient(int(a[i]), int(c[i]))


def test_quotient_counts_walk_matches_per_c_euclid():
    tables = {c: reference_D(c) for c in range(3, 121)}
    for C in range(3, 121):
        # 1.5/log C and 2.5/log C give M = 1 and M = 2; a suffix ends in a
        # digit >= 2, so there the table of completions is empty or nearly so
        for alpha in (0.3, 0.5, 1, 1.5, 2, 3, 1e9, math.inf, 1.5 / math.log(C),
                      2.5 / math.log(C)):
            assert quotient_counts(alpha, C) == reference_counts(tables, alpha, C), (C, alpha)


def test_quotient_counts_walk_matches_per_c_euclid_at_1000():
    tables = {c: reference_D(c) for c in range(3, 1001)}
    for alpha in (1, 2):
        assert quotient_counts(alpha, 1000) == reference_counts(tables, alpha, 1000)


def test_quotient_counts_pinned_at_large_C():
    # counted by the walk over every prefix, without the table of completions
    assert quotient_counts(1, 10**4) == (8980798, 21406688)
    tracemalloc.start()
    try:
        assert quotient_counts(1, 10**5) == (861087891, 2178462863)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(C=st.integers(3, 300), kind=st.sampled_from(["M = 0", "M >= (C-1)//2", "inf", "any"]),
       data=st.data())
def test_quotient_counts_property_matches_per_c_euclid(C, kind, data):
    # phi is walked over the prefixes with digits <= M and g is the totient
    # complement, so both halves are checked against the per-c reference
    log_c = math.log(C)
    if kind == "M = 0":
        alpha = data.draw(st.floats(1e-6, 0.999)) / log_c
    elif kind == "M >= (C-1)//2":
        alpha = ((C - 1) // 2 + 0.5 + data.draw(st.floats(0, 100))) / log_c
    elif kind == "inf":
        alpha = math.inf
    else:
        alpha = data.draw(st.floats(0.01, 5))
    M = math.floor(min(alpha * log_c, C))
    assert kind != "M = 0" or M == 0
    assert kind in ("M = 0", "any") or M >= (C - 1) // 2
    tables = {c: reference_D(c) for c in range(3, C + 1)}
    assert quotient_counts(alpha, C) == reference_counts(tables, alpha, C)


def test_quotient_counts_nan_and_infinite_alpha():
    with pytest.raises(ValueError, match="alpha > 0"):
        quotient_counts(math.nan, 50)
    with pytest.raises(ValueError, match="alpha > 0"):
        hensley_prediction(math.nan, 50)
    assert quotient_counts(math.inf, 50) == (724, 0)
    assert hensley_prediction(math.inf, 50) == 3 / math.pi**2 * 50**2


def test_counts_match_brute_force_small():
    # independent recount with strict 1 < a < c
    for C, alpha in ((10, 1.0), (30, 0.8), (30, 2.0)):
        limit = alpha * math.log(C)
        lo = hi = 0
        for c in range(3, C + 1):
            for a in range(2, c):
                if math.gcd(a, c) != 1:
                    continue
                if max_partial_quotient(a, c) <= limit:
                    lo += 1
                else:
                    hi += 1
        assert phi_count(alpha, C) == lo
        assert g_count(alpha, C) == hi
        assert quotient_counts(alpha, C) == (lo, hi)


def test_counts_partition_against_totient_sum():
    phi = totients(200)
    for C in (10, 50, 200):
        total = sum(phi[c] - 1 for c in range(2, C + 1))
        for alpha in (0.5, 1.0, 3.0):
            assert phi_count(alpha, C) + g_count(alpha, C) == total


def test_counts_extremes():
    phi = totients(50)
    total = sum(p - 1 for p in phi[2:51])
    assert phi_count(1e9, 50) == total
    assert g_count(1e9, 50) == 0
    assert phi_count(1e-9, 50) == 0
    assert g_count(1e-9, 50) == total


def test_count_validation():
    with pytest.raises(ValueError):
        phi_count(1.0, 2)
    with pytest.raises(ValueError):
        g_count(0.0, 100)


def test_hensley_prediction_values():
    assert abs(hensley_prediction(2, 3000) - 1.4895e6) < 2e3
    big = hensley_prediction(1e9, 100)
    assert abs(big - 3 / math.pi**2 * 100**2) < 1e-3
    assert hensley_prediction(1e-6, 100) < 1e-300 or hensley_prediction(1e-6, 100) == 0.0
