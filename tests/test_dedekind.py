"""Both evaluation routes for S(a, c), the exact identities, and the oracles.

The brute-force double series used here sums chi1(l) conj(chi2)(k) / l * e(klz)
directly over kl <= K; it is an independent check on the closed-form f.
"""
import cmath
import math
import os
import random
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from newform_dedekind.characters import (
    character_from_index,
    enumerate_characters,
    is_primitive,
    legendre_character,
)
from newform_dedekind.dedekind import (
    DedekindSumResult,
    GammaMatrix,
    beta_constant,
    complete_matrix,
    dw_exact,
    f_eval,
    korobov_sum_1,
    korobov_sum_2,
    phi_eval,
    ratio_to_bound,
    s_analytic,
    s_analytic_table,
    s_double_sum,
    s_double_sum_exact,
    s_double_sum_table,
)
from newform_dedekind import dedekind
from newform_dedekind.characters import character_product, gauss_sum, l2_principal, l2_value
from newform_dedekind.errors import (
    CertificationError,
    CoprimalityError,
    DivisibilityError,
    ParityError,
    PrimitivityError,
)
from newform_dedekind.stats import ScanConfig, largeval_sweep, scan_F, second_moment

LEG5 = legendre_character(5)
LEG3 = legendre_character(3)
LEG7 = legendre_character(7)
QUARTIC = character_from_index(5, 1)
ODD4 = character_from_index(4, 1)
ORDER6 = character_from_index(7, 1)


def rows_of(columns):
    """A table's columns (a, d, S, bound) as rows of Python numbers."""
    return list(zip(*(col.tolist() for col in columns)))


def brute_f(chi1, chi2, z, K):
    total = 0j
    for l in range(1, K + 1):
        if chi1(l) == 0:
            continue
        for k in range(1, K // l + 1):
            total += (
                chi1(l)
                * chi2(k).conjugate()
                / l
                * cmath.exp(2j * math.pi * k * l * z)
            )
    return total


def test_b1_values():
    # B1 itself, the sawtooth the exact references below are built on
    assert exact_b1(Fraction(0)) == 0
    assert exact_b1(Fraction(7)) == 0
    assert exact_b1(Fraction(1, 4)) == Fraction(-1, 4)
    assert exact_b1(Fraction(-1, 4)) == Fraction(1, 4)
    assert exact_b1(Fraction(3)) == 0
    rng = random.Random(1)
    for _ in range(200):
        x = Fraction(rng.randrange(1, 99), 100)
        assert exact_b1(-x) == -exact_b1(x)
        assert exact_b1(x + 5) == exact_b1(x)


def test_gamma_matrix_determinant_enforced():
    GammaMatrix(2, 1, 1, 1)
    with pytest.raises(ValueError):
        GammaMatrix(2, 1, 1, 2)


def test_complete_matrix_examples():
    g = complete_matrix(6, 25, 5, 5)
    assert (g.a, g.b, g.c, g.d) == (6, 5, 25, 21)
    g = complete_matrix(1, 25, 5, 5)
    assert (g.b, g.d) == (0, 1)
    g = complete_matrix(4, 9, 3, 3)
    assert (g.b, g.d) == (3, 7)


def test_complete_matrix_normalization_and_errors():
    rng = random.Random(2)
    for _ in range(100):
        c = rng.randint(2, 500)
        a = rng.randint(1, c - 1)
        if math.gcd(a, c) != 1:
            continue
        g = complete_matrix(a, c, 1, 1)
        assert 0 < g.d < c and g.a * g.d - g.b * g.c == 1
    with pytest.raises(CoprimalityError):
        complete_matrix(5, 25, 5, 5)
    with pytest.raises(DivisibilityError):
        complete_matrix(2, 15, 5, 5)


# every public entry point that takes a character pair, called as
# f(chi1, chi2, a, c), with the arguments it takes besides the pair
@pytest.mark.parametrize(
    "takes, call",
    [
        pytest.param("a, c", s_double_sum, id="s_double_sum"),
        pytest.param("a, c", s_double_sum_exact, id="s_double_sum_exact"),
        pytest.param("a, c", s_analytic, id="s_analytic"),
        pytest.param("c", lambda x, y, a, c: s_analytic_table(x, y, c), id="s_analytic_table"),
        pytest.param("c", lambda x, y, a, c: phi_eval(x, y, complete_matrix(a, c, 1, 1), 1e-8),
                     id="phi_eval"),
        pytest.param("c", lambda x, y, a, c: second_moment(x, y, c), id="second_moment"),
        pytest.param("", lambda x, y, a, c: largeval_sweep(x, y, 1, range(1, 3)),
                     id="largeval_sweep"),
        pytest.param("", lambda x, y, a, c: beta_constant(x, y, 0, 1, 1), id="beta_constant"),
        pytest.param("", lambda x, y, a, c: scan_F(ScanConfig((x.label, y.label), c, 1.0)),
                     id="scan_F"),
    ],
)
def test_pair_validation_errors_are_distinct(takes, call):
    with pytest.raises(ParityError):
        call(character_from_index(3, 1), LEG5, 1, 15)
    with pytest.raises(PrimitivityError):
        call(character_from_index(5, 0), LEG5, 1, 25)
    with pytest.raises(PrimitivityError):
        call(character_from_index(6, 1), character_from_index(6, 1), 1, 36)
    if "a" in takes:
        with pytest.raises(CoprimalityError):
            call(LEG5, LEG5, 5, 25)
    if "c" in takes:
        with pytest.raises(DivisibilityError):
            call(LEG5, LEG5, 2, 35)


def test_pair_memo_is_keyed_on_the_character_objects():
    # a fresh character with the label of the last pair but inflated values
    # must be checked as itself, not served the cached pair of the old one
    routes = (
        lambda chi: s_double_sum(chi, chi, 6, 25),
        lambda chi: s_double_sum_table(chi, chi, 25),
        lambda chi: s_analytic(chi, chi, 6, 25),
        lambda chi: s_analytic_table(chi, chi, 25),
    )
    for route in routes:
        route(legendre_character(5))
        inflated = legendre_character(5)
        inflated.values = inflated.values * 1000
        with pytest.raises(CertificationError):
            route(inflated)


@pytest.mark.parametrize(
    "run, gauss_sums, products",
    [
        pytest.param(lambda chi: scan_F(ScanConfig((chi.label, chi.label), 150, 1.0)), 1, 0,
                     id="scan_F"),
        pytest.param(lambda chi: [second_moment(chi, chi, c) for c in (25, 50, 75)], 0, 0,
                     id="second_moment"),
        # the one more is tau(conj(chi2)), derived with chi1*chi2 for the pair's
        # beta_scale, which all 5 beta_constant calls read
        pytest.param(lambda chi: largeval_sweep(chi, chi, 1, range(1, 6)), 2, 1,
                     id="largeval_sweep"),
        pytest.param(lambda chi: (s_double_sum(chi, chi, 6, 25), s_analytic(chi, chi, 6, 25)),
                     1, 0, id="point"),
    ],
)
def test_pair_is_checked_and_tau_derived_once_per_pair(monkeypatch, run, gauss_sums, products):
    calls = {"is_primitive": 0, "gauss_sum": 0, "character_product": 0}
    for name in calls:
        def counting(*args, name=name, fn=getattr(dedekind, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(dedekind, name, counting)
    run(legendre_character(5))
    assert calls == {"is_primitive": 2, "gauss_sum": gauss_sums, "character_product": products}


def test_nan_target_error_is_rejected():
    for call in (
        lambda: f_eval(LEG5, LEG5, 1, 25, math.nan),
        lambda: s_analytic(LEG5, LEG5, 6, 25, math.nan),
        lambda: s_analytic_table(LEG5, LEG5, 25, math.nan),
    ):
        with pytest.raises(ValueError, match="target_error must be positive"):
            call()


@st.composite
def gamma0_elements(draw, N):
    """(a, b, c, d) in Gamma0(N) with c > 0; a and d range beyond (0, c)."""
    c = N * draw(st.integers(1, 3))
    a = draw(st.sampled_from([x for x in range(1, c) if math.gcd(x, c) == 1]))
    d = pow(a, -1, c) + c * draw(st.integers(-2, 2))
    a += c * draw(st.integers(-2, 2))
    return a, (a * d - 1) // c, c, d


@pytest.mark.parametrize(
    "chi1, chi2",
    [(LEG5, LEG5), (QUARTIC, QUARTIC), (QUARTIC, QUARTIC.conjugate()), (ORDER6, ORDER6)],
    ids=["legendre5", "quartic5", "quartic5-conjugate", "order6-mod7"],
)
@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(data=st.data())
def test_crossed_homomorphism_law(chi1, chi2, data):
    # S(g1 g2) = S(g1) + psi(g1) S(g2) on Gamma0(q1 q2), psi(g) = chi1(d) conj(chi2)(d)
    # (Stucker-Vennos-Young, "Dedekind sums arising from newform Eisenstein series")
    N = chi1.modulus * chi2.modulus
    g1 = data.draw(gamma0_elements(N))
    g2 = data.draw(gamma0_elements(N))
    a, c = g1[0] * g2[0] + g1[1] * g2[2], g1[2] * g2[0] + g1[3] * g2[2]
    assume(c > 0)
    psi = chi1(g1[3]) * chi2(g1[3]).conjugate()
    s1 = s_double_sum(chi1, chi2, g1[0], g1[2]).value
    s2 = s_double_sum(chi1, chi2, g2[0], g2[2]).value
    assert abs(s_double_sum(chi1, chi2, a, c).value - s1 - psi * s2) < 1e-9


def test_double_sum_vanishes_at_one():
    for c in (25, 50, 225):
        assert abs(s_double_sum(LEG5, LEG5, 1, c).value) < 1e-10


def test_double_sum_known_values():
    assert abs(s_double_sum(LEG5, LEG5, 6, 25).value - 2) < 1e-12
    assert abs(s_double_sum(LEG5, LEG5, 11, 50).value - 4) < 1e-12


def test_double_sum_periodicity_exact():
    for a, c in ((6, 25), (7, 100), (11, 50)):
        assert s_double_sum(LEG5, LEG5, a, c).value == s_double_sum(LEG5, LEG5, a + c, c).value


def test_double_sum_result_fields():
    res = s_double_sum(LEG5, LEG5, 6, 25)
    assert res.method == "double_sum"
    assert res.truncation_bound == 0.0
    assert res.d_used == 21
    assert res.max_partial_quotient == 5  # D(6 mod 5, 5) = D(1, 5)
    assert not hasattr(res, "__dict__")  # slotted: each result holds no instance dict


def test_conjugation_symmetry():
    pairs = [(QUARTIC, QUARTIC), (QUARTIC, QUARTIC.conjugate())]
    for chi1, chi2 in pairs:
        for a, c in ((2, 25), (7, 50), (13, 75)):
            s = s_double_sum(chi1, chi2, a, c).value
            sbar = s_double_sum(chi1.conjugate(), chi2.conjugate(), a, c).value
            assert abs(sbar - s.conjugate()) < 1e-10


def test_trivial_bound():
    rng = random.Random(3)
    for _ in range(30):
        c = 25 * rng.randint(1, 12)
        a = rng.randint(1, c - 1)
        if math.gcd(a, c) != 1:
            continue
        res = s_double_sum(LEG5, LEG5, a, c)
        assert abs(res.value) <= 5 * c


def test_exact_mode_matches_closed_form():
    assert s_double_sum_exact(LEG5, LEG5, 6, 25) == Fraction(2)
    assert s_double_sum_exact(LEG5, LEG5, 11, 50) == Fraction(4)
    assert s_double_sum_exact(LEG5, LEG5, 1, 25) == 0


def test_exact_mode_matches_float():
    rng = random.Random(4)
    for _ in range(20):
        c = 25 * rng.randint(1, 8)
        a = rng.randint(1, c - 1)
        if math.gcd(a, c) != 1:
            continue
        exact = s_double_sum_exact(LEG5, LEG5, a, c)
        approx = s_double_sum(LEG5, LEG5, a, c).value
        assert abs(approx - float(exact)) < 1e-10


def test_exact_mode_rejects_complex_characters():
    with pytest.raises(ValueError):
        s_double_sum_exact(QUARTIC, QUARTIC, 2, 25)


def exact_b1(x):
    """B1 of a Fraction: x - floor(x) - 1/2, and 0 at integers."""
    return Fraction(0) if x.denominator == 1 else x - math.floor(x) - Fraction(1, 2)


def defining_sum_exact(chi1, chi2, a, c):
    """The definition summed term by term in Fractions (both characters real)."""
    q1 = chi1.modulus
    total = Fraction(0)
    for j in range(c):
        for n in range(q1):
            w = chi2(j).conjugate() * chi1(n).conjugate()
            assert w.imag == 0
            x = Fraction(n, q1) + Fraction(a * j, c)
            total += int(w.real) * exact_b1(Fraction(j, c)) * exact_b1(x)
    return total


REAL_PAIRS = [(LEG3, LEG3), (LEG5, LEG5), (LEG7, LEG7), (LEG3, LEG7),
              (ODD4, LEG3), (LEG3, ODD4)]


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(data=st.data())
def test_exact_mode_matches_definition(data):
    chi1, chi2 = data.draw(st.sampled_from(REAL_PAIRS))
    c = chi1.modulus * chi2.modulus * data.draw(st.integers(1, 3))
    a = data.draw(st.integers(-c, 2 * c - 1))
    assume(math.gcd(a, c) == 1)
    assert s_double_sum_exact(chi1, chi2, a, c) == defining_sum_exact(chi1, chi2, a, c)


def test_exact_mode_dw_closed_form_at_a_million():
    # S(1 + l*k*p, k*p^2) with p = 5, k = 40000, l = 2: c = 10^6
    assert dw_exact(5, 40000, 2) == -80000
    assert s_double_sum_exact(LEG5, LEG5, 1 + 2 * 40000 * 5, 40000 * 25) == -80000


@pytest.mark.parametrize(
    "route",
    [s_double_sum, s_double_sum_exact, lambda x, y, a, c: s_double_sum_table(x, y, c)],
    ids=["s_double_sum", "s_double_sum_exact", "s_double_sum_table"],
)
def test_exact_mode_rejects_int64_overflow_before_building_arrays(monkeypatch, route):
    def refuse(*args, **kwargs):
        raise AssertionError("array built")

    for name in ("arange", "zeros", "empty", "ones", "full"):
        monkeypatch.setattr(np, name, refuse)
    # (q1*c)^2 >= 2^63 at c = 25 * 3 * 10^7 and at the first multiple of 25 above
    # sqrt(2^63)/5; the multiple below it passes the range check
    for c in (25 * 3 * 10**7, 607400100):
        with pytest.raises(ValueError, match="2\\^63"):
            route(LEG5, LEG5, 1, c)
    assert (5 * 607400075) ** 2 < 2**63 <= (5 * 607400100) ** 2
    with pytest.raises(AssertionError, match="array built"):
        route(LEG5, LEG5, 1, 607400075)


def defining_sum_float(chi1, chi2, a, c):
    """The definition summed term by term, each exact B1 of Fractions as a float."""
    q1 = chi1.modulus
    total = 0j
    for j in range(c):
        for n in range(q1):
            w = chi2(j).conjugate() * chi1(n).conjugate()
            x = Fraction(n, q1) + Fraction(a * j, c)
            total += w * float(exact_b1(Fraction(j, c))) * float(exact_b1(x))
    return total


COMPLEX_PAIRS = [(QUARTIC, QUARTIC), (QUARTIC, QUARTIC.conjugate()), (ORDER6, ORDER6),
                 (QUARTIC, ORDER6)]


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(data=st.data())
def test_double_sum_matches_definition_on_complex_pairs(data):
    chi1, chi2 = data.draw(st.sampled_from(COMPLEX_PAIRS))
    c = chi1.modulus * chi2.modulus * data.draw(st.integers(1, 3))
    a = data.draw(st.integers(-c, 2 * c - 1))
    assume(math.gcd(a, c) == 1)
    assert abs(s_double_sum(chi1, chi2, a, c).value - defining_sum_float(chi1, chi2, a, c)) < 1e-10


def test_double_sum_is_the_rounded_exact_value_for_legendre_5():
    # s_double_sum sums the integer 4*q1*c^2*S in floats and divides once, so it
    # is the correctly rounded Fraction while |4*q1*c^2*S| and the kernel's
    # partial sums stay below 2^53: c <= 900 lies far inside that range
    for c in range(25, 901, 25):
        for a in range(1, c):
            if math.gcd(a, c) == 1:
                got = s_double_sum(LEG5, LEG5, a, c).value
                assert got == complex(float(s_double_sum_exact(LEG5, LEG5, a, c))), (a, c)


def _admissible_pairs(moduli):
    prim = [chi for q in moduli for chi in enumerate_characters(q)
            if not chi.is_principal and is_primitive(chi)]
    return [(x, y) for x in prim for y in prim if x.parity * y.parity == 1]


SMALL_PAIRS = _admissible_pairs((3, 4, 5, 7, 8, 11, 12, 13))


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(pair=st.sampled_from(SMALL_PAIRS), k=st.integers(1, 6))
def test_double_sum_table_rows_equal_s_double_sum(pair, k):
    chi1, chi2 = pair
    c = chi1.modulus * chi2.modulus * k
    rows = rows_of(s_double_sum_table(chi1, chi2, c))
    assert [row[0] for row in rows] == [a for a in range(1, c) if math.gcd(a, c) == 1]
    for a, d, value, bound in rows:
        ref = s_double_sum(chi1, chi2, a, c)
        assert (value, d, bound) == (ref.value, ref.d_used, 0.0), (a, c)


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(pair=st.sampled_from(SMALL_PAIRS), data=st.data())
def test_symmetry_orbit_identities(pair, data):
    # S(c - a, c) = -chi1(-1) S(a, c), as B1 is odd, and S(d, c) =
    # chi1(-1) conj(psi(d)) S(a, c) with a*d = 1 mod c and psi(d) =
    # chi1(d) conj(chi2)(d), the crossed-homomorphism law at gamma^-1
    chi1, chi2 = pair
    q1q2 = chi1.modulus * chi2.modulus
    c = q1q2 * data.draw(st.integers(1, max(1, 300 // q1q2)))
    real = all(np.all(chi.values.imag == 0) for chi in pair)
    floats = {a: (d, value) for a, d, value, _ in rows_of(s_double_sum_table(chi1, chi2, c))}
    analytic = {a: (value, bound)
                for a, _, value, bound in rows_of(s_analytic_table(chi1, chi2, c))}
    exact = {a: s_double_sum_exact(chi1, chi2, a, c) for a in floats} if real else {}
    for a, (d, value) in floats.items():
        psi = chi1(d) * chi2(d).conjugate()
        for b, factor in ((c - a, -chi1.parity), (d, chi1.parity * psi.conjugate())):
            assert abs(floats[b][1] - factor * value) <= 1e-12, (a, b, c)
            (s_a, bound_a), (s_b, bound_b) = analytic[a], analytic[b]
            assert abs(s_b - factor * s_a) <= bound_a + bound_b, (a, b, c)
            if real:
                assert exact[b] == int(factor.real) * exact[a], (a, b, c)


@pytest.mark.parametrize("chi1, chi2", [(LEG3, LEG3), (LEG5, LEG5), (LEG7, LEG7),
                                        (LEG3, LEG7), (LEG7, LEG3)],
                         ids=["3-3", "5-5", "7-7", "3-7", "7-3"])
def test_q1_times_s_is_an_integer_for_legendre_pairs(chi1, chi2):
    # A tested observation, not a certificate: 4*c^2 divides the exact numerator
    # 4*q1*c^2*S, so q1*S is an integer, for every unit a mod c at c <= 40*q1*q2.
    # Nothing here proves it beyond that range, and no rounding relies on it.
    t1, t2 = (np.rint(chi.values.real).astype(np.int64) for chi in (chi1, chi2))
    q1q2 = chi1.modulus * chi2.modulus
    for c in range(q1q2, 40 * q1q2 + 1, q1q2):
        units, nums = dedekind._double_sum_numerator(t1, t2, c)
        assert len(nums) == len(units) > 0
        assert all(num % (4 * c * c) == 0 for num in nums), c


def test_dw_exact_values():
    assert dw_exact(5, 1, 1) == Fraction(2)
    assert dw_exact(5, 1, 5) == 0
    assert dw_exact(7, 3, 2) == -12
    assert isinstance(dw_exact(3, 2, 1), Fraction)
    with pytest.raises(ValueError):
        dw_exact(5, 0, 1)


def test_f_eval_periodic_in_numerator():
    eps = 1e-7
    v1, b1_ = f_eval(LEG5, LEG5, 2, 45, eps)
    v2, b2_ = f_eval(LEG5, LEG5, 2 + 45, 45, eps)
    assert abs(v1 - v2) <= b1_ + b2_ + 1e-12


def test_f_eval_tail_bound_is_honoured():
    coarse, bc = f_eval(LEG5, LEG5, 7, 100, 1e-4)
    fine, bf = f_eval(LEG5, LEG5, 7, 100, 1e-12)
    assert abs(coarse - fine) <= bc + bf


def test_f_eval_against_brute_double_series():
    # c = 45 with the Legendre-5 pair; direct summation over kl <= 10^4
    z = (2 + 1j) / 45
    brute = brute_f(LEG5, LEG5, z, 10**4)
    closed, bound = f_eval(LEG5, LEG5, 2, 45, 1e-9)
    assert abs(brute - closed) < 1e-5


def test_f_eval_errors():
    with pytest.raises(DivisibilityError):
        f_eval(LEG5, LEG5, 1, 12, 1e-8)
    with pytest.raises(CoprimalityError):
        f_eval(LEG5, LEG5, 5, 25, 1e-8)
    with pytest.raises(ValueError):
        f_eval(LEG5, LEG5, 1, 25, 0.0)


def test_phi_eval_independent_of_d_representative():
    eps = 1e-9
    gamma = complete_matrix(6, 25, 5, 5)
    shifted = GammaMatrix(gamma.a, gamma.b + gamma.a, gamma.c, gamma.d + gamma.c)
    v1, b1_ = phi_eval(LEG5, LEG5, gamma, eps)
    v2, b2_ = phi_eval(LEG5, LEG5, shifted, eps)
    assert abs(v1 - v2) <= b1_ + b2_ + 1e-12


def test_phi_eval_vanishes_at_identity_orbit():
    gamma = complete_matrix(1, 25, 5, 5)
    val, bound = phi_eval(LEG5, LEG5, gamma, 1e-9)
    assert abs(val) <= bound + 1e-10


def test_phi_eval_z_independence_spot_check():
    # recompute phi from the raw double series at a z crafted so that both
    # Im(z) and Im(gz) stay large enough for direct summation to converge
    gamma = complete_matrix(2, 9, 3, 3)
    z0 = (-gamma.d + 0.4 + 1.3j) / gamma.c
    gz = (gamma.a * z0 + gamma.b) / (gamma.c * z0 + gamma.d)
    psi = LEG3(gamma.d) * LEG3(gamma.d).conjugate()
    brute = brute_f(LEG3, LEG3, gz, 250) - psi * brute_f(LEG3, LEG3, z0, 250)
    val, _ = phi_eval(LEG3, LEG3, gamma, 1e-10)
    assert abs(brute - val) < 1e-8


def test_analytic_matches_closed_form_value():
    res = s_analytic(LEG5, LEG5, 6, 25)
    assert abs(res.value - 2) < 1e-6
    assert res.method == "analytic"
    assert 0 < res.truncation_bound < 1e-7
    assert res.d_used == 21 and res.max_partial_quotient == 5


def test_analytic_vanishes_at_one():
    for c in (25, 150, 600):
        assert abs(s_analytic(LEG5, LEG5, 1, c).value) < 1e-8


def test_methods_agree_on_random_pairs():
    rng = random.Random(5)
    pairs = [(LEG5, LEG5, 25), (QUARTIC, QUARTIC, 25), (LEG3, ODD4, 12),
             (QUARTIC, QUARTIC.conjugate(), 25)]
    for chi1, chi2, q1q2 in pairs:
        for _ in range(12):
            c = q1q2 * rng.randint(1, 400 // q1q2 + 1)
            while True:
                a = rng.randint(1, c - 1)
                if math.gcd(a, c) == 1:
                    break
            ref = s_double_sum(chi1, chi2, a, c)
            fast = s_analytic(chi1, chi2, a, c, 1e-8)
            assert abs(ref.value - fast.value) <= 1e-6 + fast.truncation_bound


TABLE_CASES = [
    # (chi1, chi2, (c = q1*q2, a larger c spanning several row blocks))
    pytest.param(LEG5, LEG5, (25, 450), id="legendre5"),
    pytest.param(QUARTIC, QUARTIC, (25, 450), id="quartic5"),
    pytest.param(ORDER6, ORDER6, (49, 490), id="order6-mod7"),
    pytest.param(ODD4, LEG3, (12, 600), id="q4-q3"),
]


@pytest.mark.parametrize("chi1, chi2, cs", TABLE_CASES)
@pytest.mark.parametrize("eps", [1e-6, 1e-10])
def test_analytic_table_rows_equal_s_analytic(chi1, chi2, cs, eps):
    for c in cs:
        rows = rows_of(s_analytic_table(chi1, chi2, c, eps))
        assert [row[0] for row in rows] == [a for a in range(1, c) if math.gcd(a, c) == 1]
        for a, d, value, bound in rows:
            ref = s_analytic(chi1, chi2, a, c, eps)
            assert (value, d, bound) == (ref.value, ref.d_used, ref.truncation_bound)


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(pair=st.sampled_from(SMALL_PAIRS), data=st.data(),
       eps=st.floats(-12, -4).map(lambda e: 10.0**e))
def test_analytic_table_rows_equal_s_analytic_on_random_pairs(pair, data, eps):
    # both routes share _f_terms, _folded_sines and _analytic_rows; the table
    # reads f at c - d where s_analytic evaluates f_eval at -d, so f_eval must
    # depend on its numerator mod c alone, bit for bit
    chi1, chi2 = pair
    q1q2 = chi1.modulus * chi2.modulus
    c = q1q2 * data.draw(st.integers(1, 400 // q1q2))
    rows = rows_of(s_analytic_table(chi1, chi2, c, eps))
    assert [row[0] for row in rows] == [a for a in range(1, c) if math.gcd(a, c) == 1]
    for a, d, value, bound in rows:
        ref = s_analytic(chi1, chi2, a, c, eps)
        assert (value, d, bound) == (ref.value, ref.d_used, ref.truncation_bound), (a, c)
    x = data.draw(st.sampled_from([row[0] for row in rows]))
    f = f_eval(chi1, chi2, x, c, eps)
    assert f_eval(chi1, chi2, x + c, c, eps) == f == f_eval(chi1, chi2, x - c, c, eps)
    assert f_eval(chi1, chi2, -x, c, eps) == f_eval(chi1, chi2, c - x, c, eps)


def test_analytic_table_is_independent_of_row_blocks(monkeypatch):
    whole = rows_of(s_analytic_table(QUARTIC, QUARTIC, 150, 1e-8))
    monkeypatch.setattr(dedekind, "_TABLE_BLOCK", 1)  # one unit per block
    assert rows_of(s_analytic_table(QUARTIC, QUARTIC, 150, 1e-8)) == whole


def test_analytic_table_threads_keep_separate_work_arrays():
    # each thread computes in its own work arrays; shared ones would mix the
    # rows of tables computed at the same time
    cases = [(LEG5, LEG5, 450), (QUARTIC, QUARTIC, 300), (ORDER6, ORDER6, 245),
             (ODD4, LEG3, 360)]
    expected = [rows_of(s_analytic_table(*case)) for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(lambda case: rows_of(s_analytic_table(*case)), cases * 2))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected * 2


def test_analytic_table_errors():
    with pytest.raises(DivisibilityError):
        s_analytic_table(LEG5, LEG5, 30)
    with pytest.raises(ParityError):
        s_analytic_table(LEG5, ODD4, 20)
    with pytest.raises(ValueError):
        s_analytic_table(LEG5, LEG5, 25, 0.0)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(pair=st.sampled_from(SMALL_PAIRS), data=st.data(),
       eps=st.floats(-12, -3).map(lambda e: 10.0**e))
def test_tail_terms_keep_one_minus_theta_at_least_a_half(pair, data, eps):
    # the tail bound needs |1 - theta| >= 1/2 for l >= c'; f_eval and _f_table
    # round Re(1 - theta) as -expm1(-t) plus exp(-t) * 2 * sin^2 >= 0, so these
    # entries bound it from below and no check at run time is needed
    chi1, chi2 = pair
    q1q2 = chi1.modulus * chi2.modulus
    c = q1q2 * data.draw(st.integers(1, 2000 // q1q2))
    _, _, l, _, re_base, _, _ = dedekind._f_terms(chi1, chi2, c, eps)
    tail = re_base[l >= c // chi2.modulus]
    assert tail.size and tail.min() >= 0.998


def test_tables_name_the_first_row_a_perturbed_entry_breaks(monkeypatch):
    # F[7] is f at a = 7 and at -d for a = 257 (d = 443 = -7 mod 450); the
    # numerator of a = 7 moves S(7, 450) by 10^6; either breaks the trivial bound
    # q1*c = 2250 first at the row a = 7
    real_f, real_num = dedekind._f_table, dedekind._double_sum_numerator

    def f_table(*args):
        F, bound = real_f(*args)
        F[7] += 1e6
        return F, bound

    def numerator(*args):
        a, nums = real_num(*args)
        nums[a.tolist().index(7)] += 10**6 * 4 * 5 * 450**2
        return a, nums

    monkeypatch.setattr(dedekind, "_f_table", f_table)
    with pytest.raises(CertificationError, match=r"^\|S\(7, 450\)\| = "):
        s_analytic_table(LEG5, LEG5, 450)
    monkeypatch.setattr(dedekind, "_double_sum_numerator", numerator)
    with pytest.raises(CertificationError, match=r"^\|S\(7, 450\)\| = "):
        s_double_sum_table(LEG5, LEG5, 450)


def test_check_agreement_over_columns_is_the_row_by_row_maximum():
    rng = np.random.default_rng(7)
    x = rng.normal(size=50) + 1j * rng.normal(size=50)
    y = x + 1e-7 * (rng.normal(size=50) + 1j * rng.normal(size=50))
    a, bound = np.arange(1, 51), np.full(50, 1e-5)
    dev = dedekind.check_agreement(x, y, bound, a, 51)
    assert type(dev) is float
    assert dev == max(abs(u - v) for u, v in zip(x.tolist(), y.tolist()))
    u, v = x[3].item(), y[3].item()
    assert dedekind.check_agreement(u, v, 1e-5, 4, 51) == abs(u - v)
    # every row is off by 5e-6, past 1e-6 + bound only where the bound is 0
    bound[[20, 40]] = 0.0
    with pytest.raises(CertificationError, match=r"^method disagreement 5e-06 at \(a=21, c=51\)$"):
        dedekind.check_agreement(x, x + 5e-6, bound, a, 51)


@pytest.mark.parametrize("chi1, chi2, cs", [
    pytest.param(QUARTIC, character_from_index(5, 3), (25, 150, 450), id="5-idx1-5-idx3"),
    pytest.param(ORDER6, ORDER6, (49, 245, 490), id="7-idx1-7-idx1"),
])
def test_table_columns_round_as_python_complex_arithmetic(chi1, chi2, cs):
    # the columns are formed from float ufuncs in Python's order: numpy's complex
    # * and / round a share of these rows differently
    tau = dedekind.check_admissible(chi1, chi2)[0].tau
    q1 = chi1.modulus
    for c in cs:
        a, d, S, _ = s_analytic_table(chi1, chi2, c, 1e-8)
        for x, y, value in zip(a.tolist(), d.tolist(), S.tolist()):
            fa, _ = f_eval(chi1, chi2, x, c, 1e-8 / 2)
            fd, _ = f_eval(chi1, chi2, -y, c, 1e-8 / 2)
            psi = chi1(y) * chi2(y).conjugate()
            assert value == tau / (math.pi * 1j) * (fa - psi * fd), (x, c)
        _, nums = dedekind._double_sum_numerator(np.conj(chi1.values), np.conj(chi2.values), c)
        want = [complex(num) / (4 * q1 * c * c) for num in nums]
        assert s_double_sum_table(chi1, chi2, c)[2].tolist() == want, c


def test_certification_checks_survive_python_O():
    # an inflated character table pushes |S| past q1*c; under -O an assert
    # would vanish, the CertificationError must not
    code = textwrap.dedent("""
        from newform_dedekind import dedekind, legendre_character
        from newform_dedekind.errors import CertificationError
        chi = legendre_character(5)
        chi.values = chi.values * 1000
        routes = (
            lambda: dedekind.s_double_sum(chi, chi, 6, 25),
            lambda: dedekind.s_analytic(chi, chi, 6, 25),
            lambda: dedekind.s_analytic_table(chi, chi, 25),
        )
        for route in routes:
            try:
                route()
            except CertificationError:
                continue
            raise SystemExit("no CertificationError")
        assert False  # stripped by -O
        print("ok")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_beta_zero_at_origin():
    assert abs(beta_constant(LEG5, LEG5, 0, 0, 1)) < 1e-15


def test_beta_legendre_5_value():
    # tau^2/(4 pi^2 i) * L(2, principal mod 5) * 2i = 2/5
    val = beta_constant(LEG5, LEG5, 1, 1, 1)
    assert abs(val - 0.4) < 1e-10


def test_beta_self_dual_closed_form():
    # chi1 = conj(chi2): beta(conj chi2, chi2, n, n) with chi2(d) = 1
    chi2 = QUARTIC
    chi1 = QUARTIC.conjugate()
    q = 5
    for n in (1, 2, 3):
        want = chi2(-n) * q / 12 * (1 - q**-2)
        got = beta_constant(chi1, chi2, n, n, 1)
        assert abs(got - want) < 1e-9


def _beta_built_per_call(chi1, chi2, m, n, d, l2):
    """beta_constant's value as built on every call before the pair held
    beta_scale, with the same float operations in the same order."""
    prod = character_product(chi1, chi2)
    lval = l2_principal(prod.modulus) if prod.is_principal else l2(prod)
    t1, t2 = gauss_sum(chi1.conjugate()), gauss_sum(chi2.conjugate())
    bracket = (1 + 1j) * chi2(n) - (1 - 1j) * chi2(m) * chi2(d).conjugate()
    return t1 * t2 / (4 * math.pi**2 * 1j) * lval * bracket


def test_beta_from_the_pair_equals_the_per_call_product(monkeypatch):
    # every admissible pair with moduli in (3, 4, 5, 7, 8, 11, 12, 13), the
    # pairs of the bench's point workload: == fails if the product is reordered.
    # Each of the 227 non-principal products gets its L(2, .) once, for both sides.
    lvals = {}

    def l2_once(chi):
        if chi.label not in lvals:
            lvals[chi.label] = l2_value(chi)
        return lvals[chi.label]

    monkeypatch.setattr(dedekind, "l2_value", l2_once)
    moduli = (3, 4, 5, 7, 8, 11, 12, 13)
    prim = [chi for q in moduli for chi in enumerate_characters(q)
            if not chi.is_principal and is_primitive(chi)]
    pairs = [(x, y) for x in prim for y in prim if x.parity * y.parity == 1]
    assert len(pairs) == 557
    for chi1, chi2 in pairs:
        for m, n, d in ((1, 1, 1), (0, 1, 2), (2, 3, 1), (-1, 2, 5)):
            want = _beta_built_per_call(chi1, chi2, m, n, d, l2_once)
            assert beta_constant(chi1, chi2, m, n, d) == want
    assert len(lvals) == 227


def test_beta_uses_l2_of_the_product():
    # non-principal product: (3, 4) pair
    prod = character_product(LEG3, ODD4)
    assert not prod.is_principal
    lv = l2_value(prod)
    t1 = abs(beta_constant(LEG3, ODD4, 1, 1, 1))
    assert t1 > 0 and abs(lv) > 0


def test_korobov_hand_values():
    assert abs(korobov_sum_1(1, 2) - 2) < 1e-12
    assert korobov_sum_1(1, 2) <= 2 * 2 * math.log(2) + 1e-9
    assert abs(korobov_sum_1(1, 3) - 6) < 1e-12
    assert abs(korobov_sum_2(1, 3) - 4.5) < 1e-12


def test_korobov_bounds_small_moduli():
    from newform_dedekind.contfrac import max_partial_quotient

    for q in range(2, 121):
        logq = math.log(q)
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            assert korobov_sum_1(a, q) <= 2 * q * logq + 1e-9
            D = max_partial_quotient(a, q)
            assert korobov_sum_2(a, q) <= 18 * D * logq**2 + 1e-9


def test_korobov_table_sum_1_is_the_per_a_sum():
    # the table computes sum_1 once per q; the per-a definition must agree
    for q in range(2, 80):
        a_vals, s1, s2, D = dedekind._korobov_table(q)
        assert s1.shape == s2.shape == D.shape == a_vals.shape
        for a, v1, v2 in zip(a_vals, s1, s2):
            assert abs(korobov_sum_1(int(a), q) - v1) <= 1e-12 * v1
            assert abs(korobov_sum_2(int(a), q) - v2) <= 1e-12 * v2


# unit groups that are trivial (2), cyclic of 2-power order (4), or not
# cyclic (8, 2^k * p^j)
KOROBOV_MODULI = [2, 4, 8, 12, 16, 24, 40, 48, 72, 96, 112, 200, 288, 360, 392]


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(q=st.one_of(st.sampled_from(KOROBOV_MODULI), st.integers(2, 400)), data=st.data())
def test_batched_korobov_sum_2_matches_the_definition(q, data):
    # sum_2 = sum over m | q of (m/q) K_m(a mod m), each K_m one FFT correlation
    a = data.draw(st.integers(1, q - 1).filter(lambda x: math.gcd(x, q) == 1))
    a_vals, _, s2, _ = dedekind._korobov_table(q)
    got = s2[int(np.searchsorted(a_vals, a))]
    want = korobov_sum_2(a, q)
    assert abs(got - want) <= 1e-12 * want


def test_korobov_table_builds_each_divisor_kernel_once(monkeypatch):
    # one modulus needs K_m for its divisors m >= 2 only, each built once
    real = dedekind._korobov_kernel
    for q in (2, 3, 12, 97, 360, 1000):
        built = []

        def counting(m):
            built.append(m)
            return real(m)

        monkeypatch.setattr(dedekind, "_korobov_kernel", counting)
        a_vals, s1, s2, D = dedekind._korobov_table(q)
        assert sorted(built) == [m for m in range(2, q + 1) if q % m == 0], q
        assert a_vals.size == s2.size == sum(math.gcd(a, q) == 1 for a in range(1, q))


def test_unit_correlate_matches_the_direct_sum():
    rng = np.random.default_rng(3)
    for m in (2, 3, 4, 8, 9, 15, 16, 24, 40, 63):
        w, h = rng.standard_normal(m), rng.standard_normal(m)
        units = [u for u in range(m) if math.gcd(u, m) == 1]
        got = dedekind._unit_correlate(w, h, m)
        for b in range(m):
            want = sum(w[u] * h[u * b % m] for u in units) if b in units else 0.0
            assert abs(got[b] - want) <= 1e-12 * len(units), (m, b)


def test_korobov_validation():
    with pytest.raises(CoprimalityError):
        korobov_sum_1(2, 4)
    with pytest.raises(ValueError):
        korobov_sum_1(0, 5)
    with pytest.raises(ValueError):
        korobov_sum_2(5, 5)


def test_bound_ratio_values():
    res = s_analytic(LEG5, LEG5, 1, 25)
    assert ratio_to_bound(abs(res.value), res.max_partial_quotient, 25 // 5) < 1e-9
    res = s_analytic(LEG5, LEG5, 6, 25)
    val = ratio_to_bound(abs(res.value), res.max_partial_quotient, 25 // 5)
    assert abs(val - 2 / (5 * math.log(5) ** 2)) < 1e-3
    res = s_double_sum(LEG5, LEG5, 7, 50)
    assert ratio_to_bound(abs(res.value), res.max_partial_quotient, 50 // 5) >= 0


def test_elementary_inequalities():
    # |1 - e(x)|^{-1} <= (4 ||x||)^{-1} and |1 - e^{i phi}| <= 2 |1 - r e^{i phi}|
    rng = random.Random(6)
    for _ in range(2000):
        x = rng.uniform(-3, 3)
        dist = abs(x - round(x))
        if dist < 1e-9:
            continue
        gap = abs(1 - cmath.exp(2j * math.pi * x))
        assert 1 / gap <= 1 / (4 * dist) + 1e-12
    for _ in range(2000):
        r = rng.uniform(0, 1)
        phi = rng.uniform(0, 2 * math.pi)
        lhs = abs(1 - cmath.exp(1j * phi))
        rhs = 2 * abs(1 - r * cmath.exp(1j * phi))
        assert lhs <= rhs + 1e-12
