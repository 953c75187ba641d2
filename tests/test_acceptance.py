"""Acceptance gate: ten numbered criteria with pinned tolerances and budgets.

Each test prints exactly one summary line (visible with pytest -s, or in the
captured output of a failing test) and then asserts the criterion.
"""
import math
import random
import statistics
import time
from fractions import Fraction

import pytest

from newform_dedekind.characters import character_from_index, legendre_character
from newform_dedekind.contfrac import (
    digit_symmetry_delta,
    expand,
    matrix_factorization,
    phi_count,
    reverse_denominator_expansion,
    to_parity_form,
)
from newform_dedekind.dedekind import (
    _korobov_table,
    complete_matrix,
    dw_exact,
    s_analytic,
    s_analytic_table,
    s_double_sum,
    s_double_sum_exact,
)
from newform_dedekind.stats import ScanConfig, largeval_sweep, scan_F, second_moment

LEG5 = legendre_character(5)
LEG3 = legendre_character(3)
ODD4 = character_from_index(4, 1)
PAIRS = [(LEG3, LEG3), (ODD4, LEG3), (LEG5, LEG5)]


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


@pytest.fixture(scope="module")
def scan_1500():
    config = ScanConfig(
        char_pair=(LEG5.label, LEG5.label),
        C_max=1500,
        alpha=1.0,
        method="analytic",
        target_error=1e-6,
    )
    start = time.monotonic()
    records, measured = scan_F(config)
    return measured["count"], records, time.monotonic() - start


def test_c01_exact_identity_both_methods():
    start = time.monotonic()
    worst = 0.0
    for p in (5, 7, 13):
        chi = legendre_character(p)
        for k in range(1, 9):
            for l in range(1, p + 1):
                a, c = 1 + l * k * p, k * p * p
                want = dw_exact(p, k, l)
                assert s_double_sum_exact(chi, chi, a, c) == want
                target = float(want)
                for res in (
                    s_double_sum(chi, chi, a, c),
                    s_analytic(chi, chi, a, c),
                ):
                    worst = max(worst, abs(res.value - target))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 30
    report(1, ok, f"closed form vs both methods, worst |diff| = {worst:.2e}, "
                  f"exact mode equal ({elapsed:.1f}s)")
    assert worst <= 1e-6
    assert elapsed < 30


def test_c02_vanishing_at_one():
    start = time.monotonic()
    worst, checked = 0.0, 0
    for chi1, chi2 in PAIRS:
        q1q2 = chi1.modulus * chi2.modulus
        for c in range(q1q2, 601, q1q2):
            worst = max(worst, abs(s_analytic(chi1, chi2, 1, c, 1e-10).value))
            checked += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 30
    report(2, ok, f"|S(1,c)| <= 1e-8 across {checked} admissible c <= 600, "
                  f"worst {worst:.2e} ({elapsed:.1f}s)")
    assert worst <= 1e-8
    assert elapsed < 30


def test_c03_cross_method_agreement():
    start = time.monotonic()
    rng = random.Random(0)
    worst_excess = -1.0
    for _ in range(200):
        chi1, chi2 = PAIRS[rng.randrange(len(PAIRS))]
        q1q2 = chi1.modulus * chi2.modulus
        c = q1q2 * rng.randint(1, 2000 // q1q2)
        while True:
            a = rng.randint(1, c - 1)
            if math.gcd(a, c) == 1:
                break
        slow = s_double_sum(chi1, chi2, a, c)
        fast = s_analytic(chi1, chi2, a, c, 1e-8)
        excess = abs(slow.value - fast.value) - (1e-6 + fast.truncation_bound)
        worst_excess = max(worst_excess, excess)
    elapsed = time.monotonic() - start
    ok = worst_excess <= 0 and elapsed < 60
    report(3, ok, f"200 random (a,c), c <= 2000, all within 1e-6 + certified "
                  f"bound (margin {-worst_excess:.2e}, {elapsed:.1f}s)")
    assert worst_excess <= 0
    assert elapsed < 60


def test_c04_quotient_density():
    start = time.monotonic()
    C = 3000
    norm = 3 / math.pi**2 * C * C
    ratios = {alpha: phi_count(alpha, C) / norm for alpha in (1, 2)}
    elapsed = time.monotonic() - start
    want = {1: math.exp(-12 / math.pi**2), 2: math.exp(-12 / (2 * math.pi**2))}
    ok = all(abs(ratios[a] - want[a]) <= 0.10 for a in (1, 2)) and elapsed < 60
    report(4, ok, f"density ratios {ratios[1]:.4f}/{ratios[2]:.4f} vs "
                  f"{want[1]:.4f}/{want[2]:.4f} +- 0.10 ({elapsed:.1f}s)")
    for a in (1, 2):
        assert abs(ratios[a] - want[a]) <= 0.10
    assert elapsed < 60


def test_c05_exceedance_decay(scan_1500):
    count, records, elapsed = scan_1500
    log3 = math.log(1500) ** 3
    F = {a: sum(1 for r in records if r.S_abs > a * log3) for a in (1, 2, 4, 8)}
    ok = (
        F[1] == count
        and F[8] <= F[1] / 4
        and F[1] >= F[2] >= F[4] >= F[8]
        and elapsed < 600
    )
    report(5, ok, f"F(alpha,1500) = {F[1]}/{F[2]}/{F[4]}/{F[8]} for "
                  f"alpha = 1/2/4/8 ({elapsed:.1f}s)")
    assert F[1] == count
    assert F[8] <= F[1] / 4
    assert F[1] >= F[2] >= F[4] >= F[8]
    assert elapsed < 600


def test_c06_bound_ratio_growth(scan_1500):
    _, records, _ = scan_1500
    max_1000 = max(r.bound_ratio for r in records if r.c <= 1000)
    max_500 = max(r.bound_ratio for r in records if r.c <= 500)
    growth = max_1000 / max_500
    ok = math.isfinite(max_1000) and growth <= 3
    report(6, ok, f"max bound_ratio {max_1000:.5f} (c <= 1000) vs "
                  f"{max_500:.5f} (c <= 500), growth {growth:.2f}x <= 3x")
    assert math.isfinite(max_1000)
    assert growth <= 3


def test_c07_main_term_asymptotic():
    start = time.monotonic()
    records = largeval_sweep(LEG5, LEG5, 1, range(1, 41))
    worst_res, worst_main = -math.inf, 0.0
    for r in records:
        assert not r.skipped
        bound = 5 * (1 + math.log(r.c_prime))
        residual = abs(complex(r.S_re, r.S_im) - 2 * r.k)
        worst_res = max(worst_res, residual - bound)
        closed = float(dw_exact(5, r.k, 1))
        worst_main = max(worst_main, abs(complex(r.main_re, r.main_im) - closed))
    elapsed = time.monotonic() - start
    ok = worst_res <= 0 and worst_main <= 1e-8 and elapsed < 60
    report(7, ok, f"k <= 40: residual within 5(1+log c') (margin {-worst_res:.2f}), "
                  f"main term vs closed form {worst_main:.2e} ({elapsed:.1f}s)")
    assert worst_res <= 0
    assert worst_main <= 1e-8
    assert elapsed < 60


def test_c08_second_moment_exponent_window():
    """Growth exponent of M(c) = sum |S(a, c)|^2 as a slope across scales.

    M(c) grows like K(c) * c * phi(c), so the single-scale ratio
    log M(c) / log c equals 2 + log(K(c) * phi(c) / c) / log c: it mixes the
    exponent with a constant that pulls it about 0.4 below 2 at c <= 900.
    The least-squares slope of log M against log c cancels that constant, so
    the window is asserted on the slope. A slope cannot see a constant-factor
    error, so each M(c) is also pinned to the exact sum of |S|^2, and so is
    the same sum over the analytic route's values.
    """
    scales = (225, 450, 900)
    moments, analytic, exact = {}, {}, {}
    for c in scales:
        moments[c] = second_moment(LEG5, LEG5, c)
        S = s_analytic_table(LEG5, LEG5, c, 1e-6)[2]
        analytic[c] = sum((abs(val) ** 2 for val in S.tolist()), 0.0)
        exact[c] = sum(
            (
                abs(s_double_sum_exact(LEG5, LEG5, a, c)) ** 2
                for a in range(1, c)
                if math.gcd(a, c) == 1
            ),
            Fraction(0),
        )
    xs = [math.log(c) for c in scales]
    ys = [math.log(moments[c]) for c in scales]
    slope = statistics.linear_regression(xs, ys).slope
    ratios = "/".join(f"{y / x:.4f}" for x, y in zip(xs, ys))
    agree = all(moments[c] == exact[c] and abs(analytic[c] - exact[c]) < 1e-4 for c in scales)
    ok = 1.6 <= slope <= 2.6 and agree
    report(8, ok, f"second-moment slope {slope:.4f} over c = 225/450/900, "
                  f"required window [1.6, 2.6]; single-scale ratios {ratios}; "
                  f"exact M = {'/'.join(str(exact[c]) for c in scales)}")
    assert 1.6 <= slope <= 2.6, (
        f"slope of log M(c) against log c = {slope:.4f} falls outside [1.6, 2.6]"
    )
    for c in scales:
        assert moments[c] == exact[c], (
            f"M({c}) = {moments[c]!r} differs from the exact {exact[c]}"
        )
        assert abs(analytic[c] - exact[c]) < 1e-4, (
            f"the analytic M({c}) = {analytic[c]!r} differs from the exact {exact[c]}"
        )


def test_c09_reciprocal_distance_bounds():
    start = time.monotonic()
    pairs, violations = 0, 0
    for q in range(2, 1001):
        a_vals, s1, s2, D = _korobov_table(q)
        pairs += len(a_vals)
        logq = math.log(q)
        violations += int((s1 > 2 * q * logq).sum())
        violations += int((s2 > 18 * D * logq**2).sum())
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 60
    report(9, ok, f"both reciprocal-distance bounds over {pairs} coprime pairs, "
                  f"q <= 1000, {violations} violations ({elapsed:.1f}s)")
    assert violations == 0
    assert elapsed < 60


def test_c10_continued_fraction_structure():
    start = time.monotonic()
    for c in range(2, 501):
        for a in range(1, c):
            if math.gcd(a, c) != 1:
                continue
            rev = reverse_denominator_expansion(a, c)
            assert a * rev.numerator % c == 1 and rev.denominator == c
            assert abs(digit_symmetry_delta(a, c)) <= 1
    for c in range(2, 301):
        for a in range(1, c):
            if math.gcd(a, c) != 1:
                continue
            m = matrix_factorization(to_parity_form(expand(a, c), want_odd_n=True))
            assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
            assert (m[0][0], m[1][0]) == (a, c)
    elapsed = time.monotonic() - start
    report(10, True, f"reversal inverse + |delta| <= 1 for c <= 500, matrix "
                     f"determinant/column for c <= 300 ({elapsed:.1f}s)")
