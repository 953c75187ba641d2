"""Character table construction, Gauss sums, L-values."""
import cmath
import math
import random

import numpy as np
import pytest

from newform_dedekind.characters import (
    _unit_group,
    _units,
    character_from_index,
    character_product,
    enumerate_characters,
    gauss_sum,
    is_primitive,
    l2_principal,
    l2_value,
    legendre_character,
)
from newform_dedekind.dedekind import _korobov_tables


def sieve_totient(limit):
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def test_enumeration_count_and_distinctness():
    phi = sieve_totient(40)
    for q in range(1, 41):
        chars = enumerate_characters(q)
        assert len(chars) == phi[q]
        tables = {tuple(np.round(chi.values, 9)) for chi in chars}
        assert len(tables) == len(chars)
        for i, chi in enumerate(chars):
            assert chi.label == (q, i)


def test_principal_is_index_zero():
    for q in (1, 2, 5, 8, 12, 36):
        chi = character_from_index(q, 0)
        assert chi.is_principal
        for n in range(q):
            expect = 1 if math.gcd(n, q) == 1 else 0
            assert chi(n) == expect


def test_q1_single_all_ones_character():
    chars = enumerate_characters(1)
    assert len(chars) == 1
    assert chars[0](0) == 1 and chars[0](17) == 1


def test_unit_group_logs_are_pow_consistent():
    # units are exactly the residues coprime to m, ascending, and logs maps
    # them onto the log grid with units[j] = prod g_i^logs[j, i] mod m; the
    # FFT correlations index by it
    for m in range(1, 1001):
        comps, units, logs, exponent = _unit_group(m)
        n = np.arange(m)
        assert np.array_equal(units, n[np.gcd(n, m) == 1])
        assert logs.dtype == np.int32 and logs.shape == (units.size, len(comps))
        assert units.size == math.prod(s for s, _ in comps)
        assert exponent == math.lcm(*(s for s, _ in comps))
        prod = np.ones(units.size, dtype=np.int64) % m
        for i, (s, g) in enumerate(comps):
            assert ((0 <= logs[:, i]) & (logs[:, i] < s)).all()
            powers = np.array([pow(g, t, m) for t in range(s)], dtype=np.int64)
            prod = prod * powers[logs[:, i]] % m
        assert np.array_equal(prod, units), m


def test_units_are_the_residues_coprime_to_q_and_fill_no_cache():
    _unit_group.cache_clear()
    for q in range(1, 200):
        units = _units(q)
        assert units.dtype == np.int64
        assert units.tolist() == [x for x in range(q) if math.gcd(x, q) == 1]
    assert _unit_group.cache_info().currsize == 0


def test_unit_group_cache_after_korobov_tables_is_small():
    # the korobov suite builds the unit group of every m <= qmax and the
    # cache keeps them all; units and logs only, in int32 (2^20 bytes per MB)
    _unit_group.cache_clear()
    for _ in _korobov_tables(2, 1000):
        pass
    info = _unit_group.cache_info()
    total = sum(arr.nbytes for m in range(2, 1001) for arr in _unit_group(m)[1:3])
    assert _unit_group.cache_info().misses == info.misses == info.currsize == 999
    assert total <= 4 * 2**20, total / 2**20


def test_character_mod_large_prime_has_exact_logs():
    # q > 46341: k * log overflows int32 unless the logs are widened first;
    # q - 1 = 65520 does not divide 2^32, so a wrapped product shows mod q - 1
    q, k = 65521, 65519
    chi = character_from_index(q, k)
    (s, g), = _unit_group(q)[0]
    assert s == chi.order == q - 1
    rng = random.Random(5)
    for t in [1, 2, q - 2, *(rng.randrange(q - 1) for _ in range(200))]:
        n = pow(g, t, q)
        assert chi.logs[n] == k * t % (q - 1)
        assert abs(chi(n) - cmath.exp(2j * math.pi * (k * t % (q - 1)) / (q - 1))) < 1e-12


def test_q5_exactly_one_order_two_character():
    chars = enumerate_characters(5)
    real_nonprincipal = [
        chi for chi in chars
        if not chi.is_principal and np.allclose(chi.values.imag, 0, atol=1e-12)
    ]
    assert len(real_nonprincipal) == 1
    assert real_nonprincipal[0].index == legendre_character(5).index


def test_q8_unit_group_two_by_two():
    chars = enumerate_characters(8)
    assert len(chars) == 4
    for chi in chars:
        # C2 x C2 dual: every character is real
        assert np.allclose(chi.values.imag, 0, atol=1e-12)
        assert np.allclose(chi.values[[1, 3, 5, 7]] ** 2, 1, atol=1e-12)


def test_legendre_small_values():
    chi5 = legendre_character(5)
    assert [int(round(chi5(n).real)) for n in range(5)] == [0, 1, -1, -1, 1]
    chi3 = legendre_character(3)
    assert chi3(1) == 1 and chi3(2) == -1
    assert legendre_character(7)(14) == 0


def test_legendre_matches_euler_criterion():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        chi = legendre_character(p)
        for n in range(1, p):
            euler = pow(n, (p - 1) // 2, p)
            want = 1 if euler == 1 else -1
            assert chi(n) == want


def test_legendre_rejects_non_odd_primes():
    for bad in (1, 2, 4, 9, 15):
        with pytest.raises(ValueError):
            legendre_character(bad)


def test_character_axioms():
    rng = random.Random(0)
    for q in range(1, 51):
        for chi in enumerate_characters(q):
            assert chi(1) == 1
            assert chi(3 + q) == chi(3)
            n = np.arange(q)
            unit = np.gcd(n, q) == 1
            assert np.all(chi.values[~unit] == 0)
            assert np.allclose(np.abs(chi.values[unit]), 1, atol=1e-12)
            # parity field equals the evaluated chi(q-1)
            assert abs(chi((q - 1) % q) - chi.parity) < 1e-12
            # multiplicativity on random pairs
            m1 = np.array([rng.randrange(q if q > 1 else 1) for _ in range(1000)])
            m2 = np.array([rng.randrange(q if q > 1 else 1) for _ in range(1000)])
            lhs = chi.values[(m1 * m2) % q]
            rhs = chi.values[m1 % q] * chi.values[m2 % q]
            assert np.allclose(lhs, rhs, atol=1e-12)


def test_nonprincipal_sum_vanishes():
    for q in range(2, 51):
        for chi in enumerate_characters(q):
            total = chi.values.sum()
            if chi.is_principal:
                assert abs(total - np.count_nonzero(chi.values)) < 1e-10
            else:
                assert abs(total) < 1e-10


def test_gauss_sum_principal_mod_1():
    assert gauss_sum(character_from_index(1, 0)) == 1


def test_gauss_sum_legendre_5_is_sqrt5():
    tau = gauss_sum(legendre_character(5))
    assert abs(tau - math.sqrt(5)) < 1e-10
    assert abs(tau.imag) < 1e-10


def test_gauss_sum_modulus_sqrt_q_for_primitive():
    for q in range(2, 51):
        for chi in enumerate_characters(q):
            if is_primitive(chi):
                assert abs(abs(gauss_sum(chi)) - math.sqrt(q)) < 1e-9


def test_is_primitive_cases():
    assert not is_primitive(character_from_index(5, 0))
    assert is_primitive(legendre_character(5))
    # the nontrivial character mod 6 comes from mod 3, conductor 3 < 6
    chi6 = character_from_index(6, 1)
    assert not chi6.is_principal
    assert not is_primitive(chi6)
    # known primitive counts: mod 8 has two, mod 9 has four
    assert sum(is_primitive(c) for c in enumerate_characters(8)) == 2
    assert sum(is_primitive(c) for c in enumerate_characters(9)) == 4
    assert is_primitive(character_from_index(1, 0))


def mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def test_primitive_count_is_mobius_sum_of_totients():
    # the number of primitive characters mod q is sum over d | q of mu(q/d) phi(d)
    phi = sieve_totient(150)
    for q in range(1, 151):
        want = sum(mobius(q // d) * phi[d] for d in range(1, q + 1) if q % d == 0)
        assert sum(is_primitive(chi) for chi in enumerate_characters(q)) == want, q


def test_conjugate_is_pointwise_conjugate():
    for q in (5, 7, 8, 12, 13):
        for chi in enumerate_characters(q):
            bar = chi.conjugate()
            assert np.allclose(bar.values, np.conj(chi.values), atol=1e-12)
            assert bar.conjugate().index == chi.index


def test_product_of_conjugates_is_principal():
    for q in (5, 7, 12):
        for chi in enumerate_characters(q):
            prod = character_product(chi, chi.conjugate())
            assert prod.is_principal
    chi = legendre_character(5)
    assert character_product(chi, chi).is_principal


def test_product_cross_modulus():
    chi3 = character_from_index(3, 1)
    chi4 = character_from_index(4, 1)
    prod = character_product(chi3, chi4)
    assert prod.modulus == 12
    assert prod.parity == 1  # odd * odd
    for n in range(12):
        assert abs(prod(n) - chi3(n) * chi4(n)) < 1e-12


def test_product_values_match_pointwise():
    for q1, q2 in ((5, 5), (5, 7), (8, 12)):
        for chi1 in enumerate_characters(q1)[:4]:
            for chi2 in enumerate_characters(q2)[:4]:
                for conj in (False, True):
                    prod = character_product(chi1, chi2.conjugate() if conj else chi2)
                    m = prod.modulus
                    for n in range(m):
                        v2 = chi2(n).conjugate() if conj else chi2(n)
                        assert abs(prod(n) - chi1(n) * v2) < 1e-12


def test_l2_value_mod3():
    val = l2_value(character_from_index(3, 1))
    assert abs(val - 0.7813024128) < 2e-6
    assert abs(val.imag) < 1e-10


def test_l2_real_character_real_value():
    val = l2_value(legendre_character(5))
    assert abs(val.imag) < 1e-10


def test_l2_rejects_principal():
    with pytest.raises(ValueError):
        l2_value(character_from_index(5, 0))


def test_l2_principal_euler_product():
    # zeta(2) * (1 - 1/25)
    assert abs(l2_principal(5) - math.pi**2 / 6 * (24 / 25)) < 1e-12
    assert abs(l2_principal(5) - 1.579137) < 5e-7
    assert abs(l2_principal(1) - math.pi**2 / 6) < 1e-12


def test_l2_value_against_slow_partial_sum():
    # independent low-tech oracle: direct scalar summation plus tail bound
    chi = character_from_index(5, 1)
    N = 20000
    acc = 0j
    for n in range(1, N + 1):
        acc += chi(n) / n**2
    assert abs(l2_value(chi) - acc) < 2 * 5 / N**2 + 1e-9


def test_index_out_of_range():
    with pytest.raises(ValueError):
        character_from_index(5, 4)
    with pytest.raises(ValueError):
        character_from_index(5, -1)
