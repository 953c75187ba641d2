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
    "quotient_cutoff",
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
    t = cf.terms
    t = t[:-2] + (t[-2] + 1,) if cf.n and t[-1] == 1 else t[:-1] + (t[-1] - 1, 1)
    out = ContinuedFraction.from_terms(t[0], t[1:])
    if (out.numerator, out.denominator) != (cf.numerator, cf.denominator):
        raise CertificationError(f"parity form {out} does not equal {cf}")
    return out


def max_partial_quotient(a, c):
    """D(a, c) = max of the canonical expansion's partials (a0 excluded)."""
    cf = expand(a, c)
    if not cf.partials:
        raise ValueError("max partial quotient undefined for denominator 1")
    return max(cf.partials)


def matrix_factorization(cf):
    """Product of (a_i 1; 1 0) over all terms a0..an, for odd n only.

    First column is (numerator, denominator); determinant is (-1)^(n+1) = +1.
    Returned as a nested tuple ((a, b), (c, d)) in exact integers.
    """
    if cf.n % 2 == 0:
        raise ValueError("matrix form requires an odd number of partial quotients")
    (a, b), (c, d) = (cf.a0, 1), (1, 0)
    for x in cf.partials:  # times (x 1; 1 0)
        (a, b), (c, d) = (a * x + b, a), (c * x + d, c)
    return (a, b), (c, d)


def reverse_denominator_expansion(a, c):
    """Expansion of d/c with a*d = 1 mod c, as the reversed odd-parity form of a/c.

    The reversal identity: if a/c = [0; a1, ..., an] with n odd, then
    d/c = [0; an, ..., a1]. Verified by checking that the reversal's
    denominator is c and that a*d = 1 mod c.
    """
    if not 0 < a < c:
        raise ValueError("need 0 < a < c")
    odd = to_parity_form(expand(a, c), want_odd_n=True)
    rev = ContinuedFraction.from_terms(0, tuple(reversed(odd.partials)))
    d = rev.numerator
    if rev.denominator != c or a * d % c != 1:
        raise CertificationError(f"reversal {rev} of {a}/{c} is not d/c with a*d = 1 mod c")
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


def _euclid_steps(a, c):
    """Vectorized Euclid on the pairs (a[i], c[i]), 0 < a < c, at once.

    Yields one (live, q, done) per division step x = q*y + r: the indices
    live of the rows still running, their quotients q and the mask done of
    the rows that finish at this step (r = 0).
    """
    y = np.asarray(a, dtype=np.int64)
    x = np.broadcast_to(np.asarray(c, dtype=np.int64), y.shape)
    if y.ndim != 1 or not ((0 < y) & (y < x)).all():
        raise ValueError("need a one-dimensional array of pairs with 0 < a < c")
    live = np.arange(y.size)  # rows whose Euclid has not finished
    while live.size:
        q, r = np.divmod(x, y)
        done = r == 0
        yield live, q, done
        keep = ~done
        live, x, y = live[keep], y[keep], r[keep]


def _euclid_rows(a, c):
    """_euclid_steps as a table: returns (partials, n), where row i of the
    int64 matrix partials holds the partial quotients of a[i]/c[i] in its
    first n[i] columns and zeros after them. partials is the transpose of a
    C-contiguous (digit, row) array, so partials.T is that array without a
    copy.
    """
    n = np.empty(np.shape(a), dtype=np.int64)
    columns = []
    for live, q, done in _euclid_steps(a, c):
        columns.append((live, q))
        n[live[done]] = len(columns)
    # filled digit by digit, so each digit's row is contiguous
    partials = np.zeros((len(columns), n.size), dtype=np.int64)
    for k, (rows, q) in enumerate(columns):
        partials[k, rows] = q
    return partials.T, n


def _convergents(digits, reverse=False):
    """(p_n, q_n, p_{n-1}, q_{n-1}) of [0; a1, ..., an] for every column of the
    (digit, row) array digits, which holds a1..an in its first rows and an
    even number of zeros after them; with reverse, of the reversed
    [0; an, ..., a1]. A pair of zero digits leaves (p, q) unchanged."""
    pq = np.stack([np.zeros_like(digits[0]), np.ones_like(digits[0])])  # (p_k, q_k), from k = 0
    prev = 1 - pq  # (p_{k-1}, q_{k-1})
    for x in digits[::-1] if reverse else digits:
        prev += x * pq
        pq, prev = prev, pq
    return (*pq, *prev)


def _max_quotient_table(c):
    """D[a-1], the largest partial quotient of a/c, for a = 1..c-1."""
    # kept for bench/tracing.py, which wraps this name
    return _euclid_rows(np.arange(1, c), c)[0].max(axis=1, initial=0)


_PAIR_BLOCK = 1 << 12  # numerators per _unit_blocks block: 15% faster than 2**11, +1 MB peak RSS


def _unit_blocks(lo, hi):
    """The pairs (a, c) with lo <= c <= hi, 0 < a < c and gcd(a, c) = 1,
    ordered by c then a, as int64 arrays (a, c) per block of consecutive
    moduli. A block spans at most _PAIR_BLOCK numerators (units or not), or
    a single modulus."""
    start = max(lo, 2)
    while start <= hi:
        stop, size = start + 1, start - 1
        while stop <= hi and size + stop - 1 <= _PAIR_BLOCK:
            size += stop - 1
            stop += 1
        moduli = np.arange(start, stop, dtype=np.int64)
        c = np.repeat(moduli, moduli - 1)
        a = np.arange(1, size + 1) - np.repeat(np.cumsum(moduli - 1) - (moduli - 1), moduli - 1)
        unit = np.gcd(a, c) == 1
        yield a[unit], c[unit]
        start = stop


def _unit_digits(lo, hi):
    """_unit_blocks(lo, hi) with D, the largest partial quotient of each a/c,
    as a running max over the Euclid steps."""
    for a, c in _unit_blocks(lo, hi):
        D = np.zeros_like(a)
        for live, q, _ in _euclid_steps(a, c):
            np.maximum.at(D, live, q)
        yield a, c, D


def quotient_cutoff(alpha, C):
    """M = floor(min(alpha*log C, C)): the largest digit quotient_counts admits."""
    return math.floor(min(alpha * math.log(C), C))


_LOOKUP_BLOCK = 1 << 16  # table lookups per step of quotient_counts; bounds its memory


def quotient_counts(alpha, C):
    """(phi_count, g_count): the pairs 1 < a < c <= C with gcd(a, c) = 1 split
    by D(a, c) <= alpha*log C.

    These pairs are the canonical expansions a/c = [0; a1, ..., an] with
    n >= 2, an >= 2 and q_n <= C; phi counts those with all ai <= M =
    floor(alpha*log C). It meets in the middle at X = 2.5*C**(1/3), the
    fastest factor at C = 2000 and 10**5. A depth-first walk visits the
    prefixes with q_k < X, held as (q_{k-1}, q_k), and adds their final
    digits 2 <= x <= min(M, (C - q_{k-1}) // q_k). The suffixes
    v/u = [0; b1, ..., br] with D(v, u) <= M complete a prefix with q_k >= X
    to q_k*u + q_{k-1}*v, u <= U = C // X, counted by one lookup per u in the
    int32 table cum[u, t] = #{v <= t : gcd(v, u) = 1, D(v, u) <= M}. Cost:
    M*C*X + U**2, so X ~ C**(1/3). Memory: the table and steps of at most
    _LOOKUP_BLOCK lookups, 4 MB in all at C = 10**5. g is the complement:
    the totient sum of (phi(c) - 1) over 3 <= c <= C, minus phi.
    """
    if C < 3:
        raise ValueError("need C >= 3")
    if not alpha > 0:
        raise ValueError("need alpha > 0")
    M = quotient_cutoff(alpha, C)
    X = max(2, round(2.5 * C ** (1 / 3)))
    U = C // X
    cum = np.zeros((U + 1, U + 1), dtype=np.int32)
    for v, u, D in _unit_digits(2, U):
        cum[u, v] = D <= M
    np.cumsum(cum, axis=1, out=cum)
    # rows q_{k-1}, q_k; a prefix is stacked only if it admits a final digit
    # 2 <= x, i.e. 2*q_k + q_{k-1} <= C, starting from [0; a1]
    a1 = np.arange(1, min(M, (C - 1) // 2) + 1, dtype=np.int64)
    stack = np.stack([np.ones_like(a1), a1])
    top, phi = a1.size, 0
    while top:
        lo = max(0, top - max(1, _LOOKUP_BLOCK // (U + 1)))  # a prefix makes <= U lookups
        prev, q = stack[:, lo:top]
        top = lo
        walk = q < X
        n = np.where(walk, 0, (C - prev) // q - 1)  # u = 2 .. (C - prev) // q
        row = np.repeat(np.arange(q.size), n)
        u = np.arange(2, row.size + 2) - np.repeat(np.cumsum(n) - n, n)
        phi += int(cum[u, np.minimum((C - u * q[row]) // prev[row], U)].sum())
        phi += int((np.clip(np.minimum((C - prev) // q, M) - 1, 0, None) * walk).sum())
        # children of a walked prefix: next digits 1 <= x <= M that admit a final digit
        kids = np.clip((C - q - 2 * prev) // (2 * q), 0, M) * walk
        total = int(kids.sum())
        parent = np.repeat(np.arange(q.size), kids)
        x = np.arange(1, total + 1) - np.repeat(np.cumsum(kids) - kids, kids)
        if top + total > stack.shape[1]:
            stack = np.pad(stack[:, :top], ((0, 0), (0, max(stack.shape[1], total))))
        stack[:, top:top + total] = q[parent], x * q[parent] + prev[parent]
        top += total
    tot = np.arange(C + 1)  # Euler's phi, sieved over the primes p <= C
    for p in range(2, C + 1):
        if tot[p] == p:  # untouched by smaller primes, so p is prime
            tot[p::p] -= tot[p::p] // p
    return phi, int(tot[3:].sum()) - (C - 2) - phi


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
    if not (alpha > 0 and C > 0):
        raise ValueError("need alpha > 0 and C > 0")
    return 3 / math.pi**2 * C * C * math.exp(-12 / (alpha * math.pi**2))
