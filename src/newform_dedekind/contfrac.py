"""Finite continued fractions and partial-quotient statistics.

Covers the expansion/reversal machinery (two-expansion identity, matrix form,
inverse-denominator reversal) and the density counts Phi/G with the
(3/pi^2) C^2 exp(-12/(alpha pi^2)) prediction. log is natural log throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, CoprimalityError

__all__ = [
    "ContinuedFraction",
    "expand",
    "to_parity_form",
    "max_partial_quotient",
    "matrix_factorization",
    "reverse_denominator_expansion",
    "digit_symmetry_delta",
    "quotient_counts",
    "phi_count",
    "g_count",
    "hensley_prediction",
]


@dataclass(frozen=True)
class ContinuedFraction:
    """[a0; a1, ..., an] with the reduced rational it represents.

    partials may be empty (the bare [a0]) and may end in 1: reversal and the
    odd/even parity forms need non-canonical expansions. expand() itself always
    returns the canonical form (final partial >= 2 unless bare).
    """

    a0: int
    partials: tuple
    numerator: int
    denominator: int

    @classmethod
    def from_terms(cls, a0, partials):
        partials = tuple(int(x) for x in partials)
        if any(x < 1 for x in partials):
            raise ValueError("partial quotients must be >= 1")
        a0 = int(a0)
        if partials:
            num, den = partials[-1], 1
            for x in reversed(partials[:-1]):
                num, den = x * num + den, num
            p, q = a0 * num + den, num
        else:
            p, q = a0, 1
        if math.gcd(p, q) != 1 or q < 1:
            raise CertificationError(f"terms {a0}, {partials} gave {p}/{q}, not reduced")
        return cls(a0, partials, p, q)

    @property
    def terms(self):
        return (self.a0, *self.partials)

    @property
    def n(self):
        """Number of partial quotients past a0."""
        return len(self.partials)

    @property
    def is_canonical(self):
        return not self.partials or self.partials[-1] >= 2

    def __str__(self):
        if not self.partials:
            return f"[{self.a0}]"
        return f"[{self.a0};{','.join(str(x) for x in self.partials)}]"


def expand(a, c):
    """Canonical continued fraction of a/c by the Euclidean algorithm.

    a is reduced mod c to [0, c) first (callers outside that range lose only
    a0, which the partial-quotient statistics ignore).
    """
    if c <= 0:
        raise ValueError("denominator must be a positive integer")
    if math.gcd(a, c) != 1:
        raise CoprimalityError(f"gcd({a}, {c}) != 1")
    a %= c
    partials = []
    x, y = c, a
    while y:
        q, r = divmod(x, y)
        partials.append(q)
        x, y = y, r
    cf = ContinuedFraction.from_terms(0, partials)
    if not cf.is_canonical or (cf.numerator, cf.denominator) != (a, c):
        raise CertificationError(f"Euclid gave {cf} for {a}/{c}")
    return cf


def to_parity_form(cf, want_odd_n):
    """The equivalent expansion whose partial count n has the requested parity.

    Uses [..., x, 1] = [..., x+1]; exactly one of the two forms has each parity.
    """
    if cf.n % 2 == (1 if want_odd_n else 0):
        return cf
    if not cf.partials:
        out = ContinuedFraction.from_terms(cf.a0 - 1, (1,))
    elif cf.partials[-1] == 1:
        if cf.n == 1:
            out = ContinuedFraction.from_terms(cf.a0 + 1, ())
        else:
            out = ContinuedFraction.from_terms(
                cf.a0, cf.partials[:-2] + (cf.partials[-2] + 1,)
            )
    else:
        out = ContinuedFraction.from_terms(
            cf.a0, cf.partials[:-1] + (cf.partials[-1] - 1, 1)
        )
    if (out.numerator, out.denominator) != (cf.numerator, cf.denominator):
        raise CertificationError(f"parity form {out} does not equal {cf}")
    return out


def max_partial_quotient(a, c):
    """D(a, c) = max of the canonical expansion's partials (a0 excluded)."""
    cf = expand(a, c)
    if not cf.partials:
        raise ValueError("max partial quotient undefined for denominator 1")
    return max(cf.partials)


def _mat_mul(m, v):
    return (
        (m[0][0] * v[0][0] + m[0][1] * v[1][0], m[0][0] * v[0][1] + m[0][1] * v[1][1]),
        (m[1][0] * v[0][0] + m[1][1] * v[1][0], m[1][0] * v[0][1] + m[1][1] * v[1][1]),
    )


def matrix_factorization(cf):
    """Product of (a_i 1; 1 0) over all terms a0..an, for odd n only.

    First column is (numerator, denominator); determinant is (-1)^(n+1) = +1.
    Returned as a nested tuple ((a, b), (c, d)) in exact integers.
    """
    if cf.n % 2 == 0:
        raise ValueError("matrix form requires an odd number of partial quotients")
    m = ((cf.a0, 1), (1, 0))
    for x in cf.partials:
        m = _mat_mul(m, ((x, 1), (1, 0)))
    return m


def reverse_denominator_expansion(a, c):
    """Expansion of d/c with a*d = 1 mod c, as the reversed odd-parity form of a/c.

    The reversal identity: if a/c = [0; a1, ..., an] with n odd, then
    d/c = [0; an, ..., a1]. Verified internally by re-expanding d/c.
    """
    if not 0 < a < c:
        raise ValueError("need 0 < a < c")
    odd = to_parity_form(expand(a, c), want_odd_n=True)
    rev = ContinuedFraction.from_terms(0, tuple(reversed(odd.partials)))
    d = rev.numerator
    if rev.denominator != c or a * d % c != 1:
        raise CertificationError(f"reversal {rev} of {a}/{c} is not d/c with a*d = 1 mod c")
    check = expand(d, c)
    if (check.numerator, check.denominator) != (d, c):
        raise CertificationError(f"re-expanding the reversal {rev} of {a}/{c} gave {check}")
    return rev


def digit_symmetry_delta(a, c):
    """D(a, c) - D(d, c) for the inverse d of a mod c; always in {-1, 0, 1}."""
    if c < 2:
        raise ValueError("need c >= 2")
    da = max_partial_quotient(a, c)
    d = pow(a, -1, c)
    delta = da - max_partial_quotient(d, c)
    if abs(delta) > 1:
        raise CertificationError(f"D({a}, {c}) - D({d}, {c}) = {delta} is outside [-1, 1]")
    return delta


def _max_quotient_table(c):
    """Vectorized Euclid over all numerators at once.

    Returns (D, g): for a = 1..c-1, D[a-1] is the largest partial quotient of
    a/c and g[a-1] = gcd(a, c).
    """
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
    return best, x


def quotient_counts(alpha, C):
    """(phi_count, g_count): the pairs 1 < a < c <= C with gcd(a, c) = 1 split
    by D(a, c) <= alpha*log C, from one Euclid table per c."""
    if C < 3:
        raise ValueError("need C >= 3")
    if alpha <= 0:
        raise ValueError("need alpha > 0")
    limit = alpha * math.log(C)
    phi = g = 0
    for c in range(3, C + 1):
        D, gcd = _max_quotient_table(c)
        D = D[(gcd == 1) & (np.arange(1, c) > 1)]
        phi += int((D <= limit).sum())
        g += int((D > limit).sum())
    return phi, g


def phi_count(alpha, C):
    """#{(a, c): 1 < a < c <= C, gcd(a, c) = 1, D(a, c) <= alpha*log C}."""
    return quotient_counts(alpha, C)[0]


def g_count(alpha, C):
    """Complement count: same pairs with D(a, c) > alpha*log C."""
    return quotient_counts(alpha, C)[1]


def hensley_prediction(alpha, C):
    """Main-term density (3/pi^2) C^2 exp(-12/(alpha pi^2)).

    Computed for any positive inputs; the asymptotic is only meaningful for
    large C and alpha > 4/log log C.
    """
    if alpha <= 0 or C <= 0:
        raise ValueError("need alpha > 0 and C > 0")
    return 3 / math.pi**2 * C * C * math.exp(-12 / (alpha * math.pi**2))
