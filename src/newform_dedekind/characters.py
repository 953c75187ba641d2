"""Dirichlet characters mod q as precomputed value tables.

A character is stored as an integer exponent table: chi(n) = exp(2*pi*i*t/e)
with t = logs[n] and e the common order of the full character group. All
structural questions (products, conjugates, primitivity, labels) are decided
in exact integer arithmetic on the exponents; the complex table is built once
from the reduced exponents.

Enumeration is deterministic: characters mod q are labeled (q, index) with
index running lexicographically over exponent vectors on a fixed canonical
generating set of the unit group (2-part components first, then odd prime
powers in ascending order; index 0 is the principal character).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CertificationError

__all__ = [
    "DirichletCharacter",
    "character_from_index",
    "enumerate_characters",
    "legendre_character",
    "is_primitive",
    "gauss_sum",
    "l2_value",
    "l2_principal",
    "character_product",
]


def _factorize(n):
    """Prime factorization [(p, e), ...] with p ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _smallest_primitive_root(m, phi_m):
    phi_primes = [p for p, _ in _factorize(phi_m)]
    g = 2
    while True:
        if math.gcd(g, m) == 1 and all(pow(g, phi_m // p, m) != 1 for p in phi_primes):
            return g
        g += 1


def _crt_lift(x, m, q):
    """The residue mod q that is x mod m and 1 mod q//m (gcd(m, q//m) = 1)."""
    rest = q // m
    if rest == 1:
        return x % q
    return (x * rest * pow(rest, -1, m) + m * pow(m, -1, rest)) % q


def _powers(g, count, m):
    """int64 array of g^t mod m for t = 0..count-1, by doubling (needs m^2 < 2^63)."""
    out = np.ones(count, dtype=np.int64)
    done = 1
    while done < count:
        step = min(done, count - done)
        out[done:done + step] = out[:step] * pow(g, done, m) % m
        done += step
    return out


def _units(q):
    """The units mod q, ascending, as int64; uncached, so sweeps leave _unit_group's cache."""
    n = np.arange(q, dtype=np.int64)
    return n[np.gcd(n, q) == 1]


@lru_cache(maxsize=None)
def _unit_group(q):
    """Canonical cyclic decomposition of (Z/q)* with discrete-log tables.

    Returns (components, units, logs, exponent) where components is a tuple
    of (order, global_generator), units holds the residues coprime to q in
    ascending order (int32), logs[j, i] is the discrete log of units[j] on
    component i (int32), and exponent = lcm of the orders.
    """
    if q < 1:
        raise ValueError("modulus must be a positive integer")
    comps = []
    tables = []  # parallel list of (piece_modulus, dlog array; -1 off units)
    for p, e in _factorize(q):
        pe = p**e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                comps.append((2, _crt_lift(3, 4, q)))
                tables.append((4, np.array([-1, 0, -1, 1])))
            else:
                # every unit is (-1)^eps * 5^b mod 2^e, eps < 2, b < 2^(e-2)
                s = pe // 4
                five = _powers(5, s, pe)
                sign = np.full(pe, -1, dtype=np.int64)
                sign[five], sign[pe - five] = 0, 1
                dlog = np.full(pe, -1, dtype=np.int64)
                dlog[five] = dlog[pe - five] = np.arange(s)
                comps.append((2, _crt_lift(pe - 1, pe, q)))
                tables.append((pe, sign))
                comps.append((s, _crt_lift(5, pe, q)))
                tables.append((pe, dlog))
        else:
            s = pe - pe // p
            g = _smallest_primitive_root(pe, s)
            dlog = np.full(pe, -1, dtype=np.int64)
            dlog[_powers(g, s, pe)] = np.arange(s)
            comps.append((s, _crt_lift(g, pe, q)))
            tables.append((pe, dlog))
    units = _units(q)
    # int32 keeps the cache small: the korobov suite fills it for every m <= qmax
    logs = np.empty((units.size, len(comps)), dtype=np.int32)
    for i, (m, dlog) in enumerate(tables):
        logs[:, i] = dlog[units % m]
    exponent = math.lcm(*(s for s, _ in comps)) if comps else 1
    return tuple(comps), units.astype(np.int32), logs, exponent


def _group_order(q):
    comps = _unit_group(q)[0]
    return math.prod(s for s, _ in comps)


def _index_to_exponents(q, index):
    comps = _unit_group(q)[0]
    ks = []
    for s, _ in reversed(comps):
        ks.append(index % s)
        index //= s
    if index:
        raise ValueError("character index out of range")
    return list(reversed(ks))


def _exponents_to_index(q, ks):
    comps = _unit_group(q)[0]
    index = 0
    for (s, _), k in zip(comps, ks):
        index = index * s + k % s
    return index


@dataclass(eq=False)
class DirichletCharacter:
    """Immutable-by-convention character table; see module docstring."""

    modulus: int
    index: int
    order: int  # common exponent e of the character group mod q
    logs: np.ndarray  # logs[n] = t with chi(n) = exp(2*pi*i*t/order); -1 off units
    values: np.ndarray  # complex128 table of length q

    @property
    def label(self):
        return (self.modulus, self.index)

    @property
    def is_principal(self):
        return self.index == 0

    @property
    def parity(self):
        """chi(-1) as an exact integer (+1 or -1)."""
        t = int(self.logs[(self.modulus - 1) % self.modulus])
        return 1 if t == 0 else -1

    def __call__(self, n):
        return complex(self.values[n % self.modulus])

    def conjugate(self):
        ks = _index_to_exponents(self.modulus, self.index)
        comps = _unit_group(self.modulus)[0]
        conj = [(-k) % s for (s, _), k in zip(comps, ks)]
        return character_from_index(self.modulus, _exponents_to_index(self.modulus, conj))

    def __repr__(self):
        return f"DirichletCharacter(q={self.modulus}, index={self.index})"


def character_from_index(q, index):
    """The character labeled (q, index) in the canonical enumeration."""
    total = _group_order(q)
    if not 0 <= index < total:
        raise ValueError(f"index {index} out of range for modulus {q} ({total} characters)")
    comps, units, ulogs, e = _unit_group(q)
    ks = _index_to_exponents(q, index)
    t = np.zeros(units.size, dtype=np.int64)
    for i, ((s, _), k) in enumerate(zip(comps, ks)):
        t += k * (e // s) * ulogs[:, i].astype(np.int64)
    t %= e
    phases = np.exp(2j * np.pi * t / e)
    # quarter-turn angles are exact fourth roots of unity; snapping them keeps
    # order <= 2 characters integer-valued and conjugation bit-exact
    exact = 4 * t % e == 0
    phases[exact] = np.array([1, 1j, -1, -1j])[4 * t[exact] // e % 4]
    logs = np.full(q, -1, dtype=np.int64)
    values = np.zeros(q, dtype=complex)
    logs[units], values[units] = t, phases
    return DirichletCharacter(q, index, e, logs, values)


def enumerate_characters(q):
    """All phi(q) characters mod q in label order (index 0 principal)."""
    return [character_from_index(q, i) for i in range(_group_order(q))]


def legendre_character(p):
    """The quadratic residue character mod an odd prime p."""
    if p < 3 or p % 2 == 0 or any(p % d == 0 for d in range(3, int(p**0.5) + 1, 2)):
        raise ValueError(f"{p} is not an odd prime")
    # single cyclic component of order p-1; the order-2 character has k = (p-1)/2
    return character_from_index(p, (p - 1) // 2)


def is_primitive(chi):
    """True iff the conductor equals the modulus.

    chi factors through mod d iff it is trivial on {n = 1 mod d}, the slice
    logs[1::d] (-1 off units). Every proper d | q divides some q/p with p a
    prime factor of q, and the kernel of q/p lies inside d's, so the q/p suffice.
    """
    q = chi.modulus
    return all(chi.logs[1::q // p].max() > 0 for p, _ in _factorize(q))


def gauss_sum(chi):
    """Sum of chi(n)*e(n/q) over n mod q, e(x) = exp(2*pi*i*x).

    Each term's phase is reduced exactly as an integer mod order*q before the
    single exp call, so no drift accumulates.
    """
    q = chi.modulus
    e = chi.order
    n = np.arange(q)
    unit = chi.logs >= 0
    num = (chi.logs[unit] * q + n[unit] * e) % (e * q)
    return complex(np.exp(2j * np.pi * num / (e * q)).sum())


def l2_value(chi):
    """L(2, chi) = sum chi(n)/n^2, truncated with guaranteed tail <= 1e-9.

    Rejects principal characters: for those the caller must use the
    zeta(2) Euler product (l2_principal).
    """
    if chi.is_principal:
        raise ValueError("principal character: use l2_principal(q) instead")
    q = chi.modulus
    # partial summation tail bound: |sum_{n>N} chi(n)/n^2| <= 2q/N^2
    N = math.ceil(math.sqrt(2 * q / 1e-9))
    total = 0j
    step = 10**6
    for start in range(1, N + 1, step):
        n = np.arange(start, min(start + step, N + 1))
        total += (chi.values[n % q] / n.astype(float) ** 2).sum()
    return complex(total)


def l2_principal(q):
    """L(2, principal character mod q) = zeta(2) * prod_{p | q} (1 - p^-2)."""
    val = math.pi**2 / 6
    for p, _ in _factorize(q):
        val *= 1 - p**-2
    return val


def character_product(chi1, chi2):
    """The product character chi1*chi2 mod lcm(q1, q2).

    Computed exactly: the product's exponent on each canonical generator g of
    the unit group mod lcm is the rational t1/e1 + t2/e2 reduced mod 1, which
    is always a multiple of 1/ord(g).
    """
    q1, q2 = chi1.modulus, chi2.modulus
    m = math.lcm(q1, q2)
    comps = _unit_group(m)[0]
    ks = []
    for s, g in comps:
        fr = Fraction(int(chi1.logs[g % q1]), chi1.order)
        fr += Fraction(int(chi2.logs[g % q2]), chi2.order)
        fr %= 1
        k = fr * s
        if k.denominator != 1:  # g^s = 1 forces an s-th root of unity
            raise CertificationError(f"product exponent {k} on a generator of order {s}")
        ks.append(int(k) % s)
    return character_from_index(m, _exponents_to_index(m, ks))
