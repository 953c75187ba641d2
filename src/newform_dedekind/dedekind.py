"""Twisted Dedekind sums for a pair of primitive characters.

Two evaluation routes for S(a, c):

* the defining finite double sum over j mod c and n mod q1 of
  conj(chi2)(j) * conj(chi1)(n) * B1(j/c) * B1(n/q1 + a*j/c), and
* the analytic route S = tau(conj(chi1))/(pi*i) * (f(gamma z) - psi(gamma) f(z))
  at z = (-d + i)/c, gamma z = (a + i)/c, with f evaluated by a closed-form
  l-series truncated at a certified tail bound.

Admissibility (check_admissible, which returns (Pair, matrix)): chi1 and chi2
primitive nontrivial with chi1(-1)*chi2(-1) = +1, checked once per pair by _pair,
then gcd(a, c) = 1 and q1*q2 | c. Throughout c' = c/q2.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .characters import (
    _unit_group,
    _units,
    character_product,
    gauss_sum,
    is_primitive,
    l2_principal,
    l2_value,
    legendre_character,
)
from .contfrac import _unit_digits, max_partial_quotient
from .errors import (
    CertificationError,
    CoprimalityError,
    DivisibilityError,
    ParityError,
    PrimitivityError,
)

__all__ = [
    "GammaMatrix",
    "DedekindSumResult",
    "complete_matrix",
    "check_admissible",
    "check_agreement",
    "s_double_sum",
    "s_double_sum_exact",
    "s_double_sum_table",
    "f_eval",
    "phi_eval",
    "s_analytic",
    "s_analytic_table",
    "dw_exact",
    "beta_constant",
    "korobov_sum_1",
    "korobov_sum_2",
    "ratio_to_bound",
]


@dataclass(frozen=True)
class GammaMatrix:
    """Integer matrix (a b; c d) with determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")


@dataclass(frozen=True, slots=True)
class DedekindSumResult:
    value: complex
    method: str  # 'double_sum' or 'analytic'
    truncation_bound: float  # 0 for the double sum
    d_used: int  # the completed inverse of a mod c
    max_partial_quotient: int  # D(a, c')


def complete_matrix(a, c, q1, q2):
    """Extend (a, c) to a determinant-1 matrix with 0 < d < c (d = 1 if c = 1)."""
    if c < 1:
        raise ValueError("need c >= 1")
    if math.gcd(a, c) != 1:
        raise CoprimalityError(f"gcd({a}, {c}) != 1")
    if c % (q1 * q2):
        raise DivisibilityError(f"q1*q2 = {q1 * q2} must divide c = {c}")
    d = 1 if c == 1 else pow(a, -1, c)
    b = (a * d - 1) // c
    return GammaMatrix(a, b, c, d)


@dataclass(frozen=True)
class Pair:
    """An admissible (chi1, chi2), made only by _pair; tau = tau(conj(chi1)) and
    beta_scale = tau * tau(conj(chi2)) / (4 pi^2 i) * L(2, chi1*chi2)."""

    chi1: object
    chi2: object

    @cached_property  # on first use: a double-sum-only pair never needs it
    def tau(self):
        return gauss_sum(self.chi1.conjugate())

    @cached_property  # zeta(2)'s Euler product stands in for L(2, principal)
    def beta_scale(self):
        prod = character_product(self.chi1, self.chi2)
        lval = l2_principal(prod.modulus) if prod.is_principal else l2_value(prod)
        return self.tau * gauss_sum(self.chi2.conjugate()) / (4 * math.pi**2 * 1j) * lval


@lru_cache(maxsize=1)  # keyed on the character objects; a run holds one pair
def _pair(chi1, chi2):
    """The Pair, once chi1 and chi2 are primitive nontrivial and chi1(-1)*chi2(-1) = +1."""
    for chi in (chi1, chi2):
        if chi.is_principal or not is_primitive(chi):
            raise PrimitivityError(
                f"character (q={chi.modulus}, index={chi.index}) is not primitive nontrivial"
            )
    if chi1.parity * chi2.parity != 1:
        raise ParityError("character pair must satisfy chi1(-1)*chi2(-1) = +1")
    return Pair(chi1, chi2)


def check_admissible(chi1, chi2, a=1, c=None):
    """(_pair(chi1, chi2), complete_matrix(a, c, q1, q2)), the matrix None without c;
    callers that take c alone leave a = 1, which is a unit mod every c."""
    moduli = (chi1.modulus, chi2.modulus)
    return _pair(chi1, chi2), None if c is None else complete_matrix(a, c, *moduli)


def _cmul(x, y):
    """x * y rounded as Python's complex product, from float products in its order:
    numpy's complex multiply may fuse them, which moves the last digit of emitted S."""
    out = np.empty(np.broadcast(x, y).shape, complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _inverse(a, c):
    """a^-1 mod c for the int64 array a by pow, as fast as a vectorized Euclid to c ~ 1500."""
    return np.array([pow(x, -1, c) for x in a.tolist()], dtype=np.int64)


def _rows(pair, c, a, d, S, bound):
    """The columns (a, d, S, bound) once every |S| <= q1*c + bound, or
    CertificationError naming the first row past it."""
    q1c = pair.chi1.modulus * c
    s_abs = np.hypot(S.real, S.imag)  # bit for bit abs(S), where np.abs is not
    bad = np.flatnonzero(~(s_abs <= q1c + bound + 1e-9))
    if bad.size:
        raise CertificationError(
            f"|S({a[bad[0]]}, {c})| = {s_abs[bad[0]]:.6g} exceeds the trivial bound q1*c = {q1c}"
        )
    return a, d, S, bound


def _double_sum_numerator(w1, w2, c, a=None):
    """(a, [4*q1*c^2 * S(a, c) for each a]) from w1 = conj(chi1) mod q1 and
    w2 = conj(chi2) mod q2: exact ints from integer tables, complex floats from
    complex ones. a is an int64 array in [0, c), or None for every unit mod c.

    4*q1*c^2 * B1(j/c) * B1(R/(q1*c)) = (2j - c) * (2R - q1*c), R = n*c + q1*r mod
    q1*c, r = a*j mod c. R wraps for n >= q1 - r // (c/q1); as sum_n w1[n] = 0, the
    sum over n is 2c * (sum_n n*w1[n] - q1 * (w1 summed over the wrapped n)).
    B1's 0 at R = 0 is not applied: R = 0 forces (c/q1) | j, so q2 | j and w2[j] = 0.
    Every a is summed over the same blocks of j, so its value is the same in any call.
    """
    q1, q2 = len(w1), len(w2)
    if (q1 * c) ** 2 >= 2**63:  # keeps a*j < c^2 and a row's sums in int64
        raise ValueError(f"the double sum needs (q1*c)^2 < 2^63, got q1 = {q1}, c = {c}")
    a = _units(c) if a is None else a
    moment = (np.arange(q1) * w1).sum().item()
    tail = np.concatenate(([0], np.cumsum(w1[:0:-1])))  # tail[k]: w1 summed over the last k n
    step = 1 << 18  # entries per block of j and per (a, j) block: bounds the working set
    rows = max(1, step // c)
    nums = []
    for r in range(0, len(a), rows):
        plain = wrapped = 0  # x and plain repeat per chunk: O(c) next to O(rows * c)
        for lo in range(1, c, step):
            j = np.arange(lo, min(lo + step, c), dtype=np.int64)
            x = w2[j % q2] * (2 * j - c)
            plain += x.sum().item()
            wrapped += (x * tail[a[r:r + rows, None] * j % c // (c // q1)]).sum(1)
        nums += [2 * c * (moment * plain - q1 * w) for w in wrapped.tolist()]
    return a, nums


def _double_sum_rows(pair, c, a=None):
    """_rows of one kernel call on the pair's tables, for the int64 array a (None: every
    unit mod c), bound 0; S is divided in Python, as numpy's complex / rounds otherwise."""
    a, nums = _double_sum_numerator(np.conj(pair.chi1.values), np.conj(pair.chi2.values), c, a)
    S = np.array([complex(num) / (4 * pair.chi1.modulus * c * c) for num in nums])
    return _rows(pair, c, a, _inverse(a, c), S, np.zeros(len(a)))


def s_double_sum(chi1, chi2, a, c):
    """S(a, c) by the defining double sum, O(c) work in double precision; every B1
    argument is an integer remainder, so integer points are decided exactly."""
    pair, _ = check_admissible(chi1, chi2, a, c)
    a, d, value, _ = (x.item() for x in _double_sum_rows(pair, c, np.array([a % c])))
    D = max_partial_quotient(a, c // chi2.modulus)
    return DedekindSumResult(value, "double_sum", 0.0, d, D)


def s_double_sum_exact(chi1, chi2, a, c):
    """s_double_sum's kernel on +-1/0 tables: S(a, c) as a Fraction, chi1 and chi2 real."""
    check_admissible(chi1, chi2, a, c)
    # a real character's exponent on a unit is 0 (value 1) or order/2 (value -1)
    if any(np.any((chi.logs > 0) & (2 * chi.logs != chi.order)) for chi in (chi1, chi2)):
        raise ValueError("exact mode requires real-valued characters")
    t1, t2 = (np.where(chi.logs > 0, -1, chi.logs + 1) for chi in (chi1, chi2))
    _, (num,) = _double_sum_numerator(t1, t2, c, np.array([a % c]))
    return Fraction(num, 4 * chi1.modulus * c * c)


def s_double_sum_table(chi1, chi2, c):
    """s_double_sum for every unit a mod c from one kernel call, O(c * phi(c)) work:
    the columns (a, d, S, bound = 0) over the units a = 1..c-1 in order, each row
    equal to s_double_sum(chi1, chi2, a, c)'s a, d_used and value."""
    return _double_sum_rows(check_admissible(chi1, chi2, c=c)[0], c)


def _f_terms(chi1, chi2, c, target_error):
    """The set-up of f_eval and _f_table at c, which no numerator changes.

    Returns (L, tail bound, l = 1..L, exp(-t), -expm1(-t), chi1(l), terms), t =
    2*pi*l/c', terms the pairs (k0, conj(chi2)(k0) * exp(-2*pi*k0*l/c)) with
    conj(chi2)(k0) != 0 as a generator, so f_eval holds one decay array at a
    time (about half its peak memory). L is the smallest L >= c' whose
    certified tail bound 2*q2*(c/(2*pi*L))*exp(-2*pi*L/c) is <= target_error.
    Its |1 - theta| >= 1/2 at l >= c' needs no check: rounded, Re >= -expm1(-t) >= 0.998.
    """
    if not target_error > 0:  # NaN too
        raise ValueError("target_error must be positive")
    q1, q2 = chi1.modulus, chi2.modulus
    cp = c // q2

    def tail(L):
        return 2 * q2 * c / (2 * math.pi * L) * math.exp(-2 * math.pi * L / c)

    lo = hi = cp
    while tail(hi) > target_error:
        hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if tail(mid) <= target_error:
            hi = mid
        else:
            lo = mid
    l = np.arange(1, hi + 1)
    t = 2 * np.pi * l / cp
    chi2bar = np.conj(chi2.values)
    terms = ((k0, chi2bar[k0 % q2] * np.exp(-2 * np.pi * k0 * l / c))
             for k0 in range(1, q2 + 1) if chi2bar[k0 % q2] != 0)
    return hi, float(tail(hi)), l, np.exp(-t), -np.expm1(-t), chi1.values[l % q1], terms


def _folded_sines(r, cp):
    """sin^2(pi*x) and sin(2*pi*x) at x = r/c' reduced exactly mod 1, then
    folded to (-1/2, 1/2], so that 1 - theta is cancellation-safe."""
    frac = (r % cp) / cp
    frac = np.where(frac > 0.5, frac - 1.0, frac)
    ang = np.pi * frac
    return np.sin(ang) ** 2, np.sin(2 * ang)


def f_eval(chi1, chi2, numerator, c, target_error):
    """The period-like function f at z = (numerator + i)/c, with certified tail.

    Closed form: sum over l >= 1 of chi1(l) / (l * (1 - theta)) times
    sum_{k0=1..q2} conj(chi2)(k0) e(k0*l*z), where theta = e(l*(numerator+i)/c').
    The series is truncated at _f_terms' L; its tail bound is returned.
    """
    q2 = chi2.modulus
    if c < 1 or c % q2:
        raise DivisibilityError(f"q2 = {q2} must divide c = {c}")
    if math.gcd(numerator, c) != 1:
        raise CoprimalityError(f"gcd({numerator}, {c}) != 1")
    L, tbound, l, emt, re_base, chi1_l, terms = _f_terms(chi1, chi2, c, target_error)
    cp = c // q2
    # 1 - theta with theta = exp(-t) * e(x), x = l*numerator/c':
    # Re = -expm1(-t) + exp(-t)*2*sin^2(pi*x), Im = -exp(-t)*sin(2*pi*x)
    sin_sq, sin_2ang = _folded_sines(l * (numerator % cp), cp)
    one_minus_theta = (re_base + emt * 2 * sin_sq) - 1j * (emt * sin_2ang)
    coeff = chi1_l / (l * one_minus_theta)
    num_c = numerator % c
    inner = np.zeros(L, dtype=complex)
    for k0, w_decay in terms:
        rk = (k0 * l % c) * num_c % c
        inner += w_decay * np.exp(2j * np.pi * rk / c)
    return complex((coeff * inner).sum()), tbound


def phi_eval(chi1, chi2, gamma, target_error):
    """f(gamma z) - psi(gamma) f(z) at z = (-d + i)/c, so gamma z = (a + i)/c.

    psi(gamma) = chi1(d) * conj(chi2)(d). The target is split across the two
    f evaluations, so the returned bound is <= target_error.
    """
    check_admissible(chi1, chi2, gamma.a, gamma.c)
    half = target_error / 2
    fa, ba = f_eval(chi1, chi2, gamma.a, gamma.c, half)
    fd, bd = f_eval(chi1, chi2, -gamma.d, gamma.c, half)
    psi = chi1(gamma.d) * chi2(gamma.d).conjugate()
    return fa - psi * fd, ba + abs(psi) * bd


def _analytic_rows(pair, c, a, d, fa, fd, fb):
    """_rows of S = pair.tau/(pi*i) * (fa - psi * fd) from f at a and at -d (columns,
    tail bound fb each), psi = chi1(d) * conj(chi2)(d), bounded by |tau|/pi *
    (1 + |psi|) * fb; every product rounded as Python's by _cmul."""
    psi = _cmul(pair.chi1.values[d % pair.chi1.modulus],
                np.conj(pair.chi2.values[d % pair.chi2.modulus]))
    S = _cmul(pair.tau / (math.pi * 1j), fa - _cmul(psi, fd))
    bound = abs(pair.tau) / math.pi * (fb + np.hypot(psi.real, psi.imag) * fb)
    return _rows(pair, c, a, d, S, bound)


def s_analytic(chi1, chi2, a, c, target_error=1e-8):
    """S(a, c) via the analytic route: two f series, O(L*q2) work per call.

    _analytic_rows' one row, with f at a and -d from f_eval at target_error/2
    each; the truncation_bound is that of phi scaled by |tau|/pi = sqrt(q1)/pi.
    L ~ c*ln(1/target_error)/(2*pi) grows with c, so this is the single-query
    route; sweeps over every a mod c use s_analytic_table.
    """
    pair, gamma = check_admissible(chi1, chi2, a, c)
    fa, fb = f_eval(chi1, chi2, a, c, target_error / 2)  # f_eval reads a mod c alone
    fd, _ = f_eval(chi1, chi2, -gamma.d, c, target_error / 2)
    cols = _analytic_rows(pair, c, *map(np.array, ([a % c], [gamma.d], [fa], [fd])), fb)
    _, d, value, bound = (x.item() for x in cols)
    D = max_partial_quotient(a, c // chi2.modulus)
    return DedekindSumResult(value, "analytic", bound, d, D)


# complex entries per row block of the f table: bounds the kernel's working
# set whatever c and the number of units
_TABLE_BLOCK = 1 << 15
_WORK_DTYPES = (np.int64, np.int64, float, float, complex, complex, complex)
_work = threading.local()


def _work_arrays(size):
    """This thread's work arrays for _f_table, of at least `size` entries each.

    Kept from call to call (80 bytes per entry, 2.6 MB at the default
    block), so a sweep writes the same pages again instead of faulting in
    fresh ones for every block of every c.
    """
    arrays = getattr(_work, "arrays", None)
    if arrays is None or arrays[0].size < size:
        arrays = _work.arrays = [np.empty(size, dtype) for dtype in _WORK_DTYPES]
    return arrays


def _f_table(chi1, chi2, c, target_error, units):
    """f_eval(chi1, chi2, x, c, target_error) for every x in the int64 array units.

    Returns (F, bound), F[x] the value in a complex array (0 off the units). f_eval's
    _f_terms, _folded_sines and per-term arithmetic, so each value is
    bit-identical to it: e(r/c) and the folded sines of pi*r/c' are read from
    residue tables indexed by r = l*x mod c, and the units are taken in row
    blocks of at most _TABLE_BLOCK terms, in place in this thread's work arrays.
    """
    q2 = chi2.modulus
    L, tbound, l, emt, re_base, chi1_l, terms = _f_terms(chi1, chi2, c, target_error)
    terms = list(terms)  # every row block reads every term
    emt2 = emt * 2
    # l*x mod c' = (l*x mod c) mod c', so the sine tables have length c too
    sin_sq, sin_2ang = _folded_sines(np.arange(c), c // q2)
    # e(r/c) for 0 <= r < q2*c, so k0*(l*x mod c) needs no further reduction
    e_ext = np.tile(np.exp(2j * np.pi * np.arange(c) / c), q2)
    l_mod_c = l % c
    rows = max(1, _TABLE_BLOCK // L)
    # the block loop computes in place (out=) in the work arrays
    work = _work_arrays(max(_TABLE_BLOCK, L))
    F = np.zeros(c, dtype=complex)
    for start in range(0, len(units), rows):
        block = units[start:start + rows]
        r, k0r, re, im, omt, e_k, inner = (
            w[:len(block) * L].reshape(len(block), L) for w in work
        )
        np.remainder(np.multiply(l_mod_c, block[:, None], out=r), c, out=r)
        # 1 - theta = (re_base + emt*2*sin^2) - 1j*(emt*sin(2*ang)), as in f_eval
        np.multiply(emt2, np.take(sin_sq, r, out=re, mode="clip"), out=re)
        np.add(re_base, re, out=re)
        np.multiply(emt, np.take(sin_2ang, r, out=im, mode="clip"), out=im)
        np.subtract(re, np.multiply(1j, im, out=omt), out=omt)
        # coeff = chi1(l) / (l * (1 - theta))
        np.divide(chi1_l, np.multiply(l, omt, out=omt), out=omt)
        inner.fill(0)
        for k0, w_decay in terms:
            np.take(e_ext, np.multiply(r, k0, out=k0r), out=e_k, mode="clip")
            np.add(inner, np.multiply(w_decay, e_k, out=e_k), out=inner)
        F[block] = np.multiply(omt, inner, out=inner).sum(axis=1)
    return F, tbound


def s_analytic_table(chi1, chi2, c, target_error=1e-8):
    """S(a, c) by the analytic route for every unit a mod c, from one f table.

    Returns the columns (a, d, S, truncation_bound) over the units a = 1..c-1
    in order; each row equals s_analytic(chi1, chi2, a, c, target_error)'s a,
    d_used, value and truncation_bound exactly. f is tabulated once at every
    unit x (with s_analytic's target_error/2) and each value serves both a
    and -d; the rows come from the same _analytic_rows.
    """
    pair, _ = check_admissible(chi1, chi2, c=c)
    a = _units(c)
    d = _inverse(a, c)
    F, fb = _f_table(chi1, chi2, c, target_error / 2, a)
    return _analytic_rows(pair, c, a, d, F[a], F[-d], fb)


def dw_exact(p, k, l):
    """The closed-form value chi(-l) * k * (p^2 - 1) / 12 (chi Legendre mod p).

    This is the exact value of S(1 + l*k*p, k*p^2) for the self-paired
    Legendre character; zero when p divides l.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    chi = legendre_character(p)
    sign = int(round(chi(-l).real))
    return Fraction(sign * k * (p * p - 1), 12)


def beta_constant(chi1, chi2, m, n, d_mod_q2):
    """Large-value constant beta(chi1, chi2, m, n) with conj(chi2)(d) explicit.

    tau(conj chi1) tau(conj chi2) / (4 pi^2 i) * L(2, chi1*chi2)
    * ((1+i) chi2(n) - (1-i) chi2(m) conj(chi2)(d)).
    Everything before the bracket is the pair's beta_scale, derived once.
    """
    pair, _ = check_admissible(chi1, chi2)
    bracket = (1 + 1j) * chi2(n) - (1 - 1j) * chi2(m) * chi2(d_mod_q2).conjugate()
    return pair.beta_scale * bracket


def _korobov_distances(a, q):
    """l = 1..q-1 and ||l*a/q||, once 1 <= a < q and gcd(a, q) = 1 are checked."""
    if q < 2:
        raise ValueError("need q >= 2")
    if not 1 <= a < q:
        raise ValueError("need 1 <= a < q")
    if math.gcd(a, q) != 1:
        raise CoprimalityError(f"gcd({a}, {q}) != 1")
    l = np.arange(1, q, dtype=np.int64)
    r = l * a % q
    return l, np.minimum(r, q - r) / q


def korobov_sum_1(a, q):
    """Sum over 0 < l < q of 1/||l*a/q|| (distance to nearest integer)."""
    l, dist = _korobov_distances(a, q)
    return float((1.0 / dist).sum())


def korobov_sum_2(a, q):
    """Sum over 0 < l < q of 1/(l * ||l*a/q||)."""
    l, dist = _korobov_distances(a, q)
    return float((1.0 / (l * dist)).sum())


def _unit_correlate(w, h, m):
    """T(b) = sum over units u mod m of w(u) * h(u*b mod m), for every unit b.

    w and h are float arrays indexed by residue mod m, read at units only;
    T comes back indexed the same way, 0 off units. On the discrete-log grid
    of the cyclic decomposition of (Z/m)^*, u*b adds log vectors, so T is a
    cross-correlation there, computed with real FFTs.
    """
    comps, units, logs, _ = _unit_group(m)
    out = np.zeros(m)
    if not comps:  # m <= 2: the group is trivial
        out[units] = w[units] * h[units]
        return out
    shape = tuple(s for s, _ in comps)
    cells = tuple(logs.T)
    W, H = np.zeros(shape), np.zeros(shape)
    W[cells], H[cells] = w[units], h[units]
    T = np.fft.irfftn(np.conj(np.fft.rfftn(W)) * np.fft.rfftn(H), s=shape,
                      axes=range(len(shape)))
    out[units] = T[cells]
    return out


def _korobov_kernel(m):
    """K_m(b) = sum over units u mod m (1 <= u < m) of m / (u * min(r, m - r)),
    r = u*b mod m, for every unit b (indexed by residue, 0 off units)."""
    r = np.arange(1, m)
    w, h = np.zeros(m), np.zeros(m)
    w[1:] = 1.0 / r
    h[1:] = m / np.minimum(r, m - r)
    return _unit_correlate(w, h, m)


def _korobov_sum_2(q, a, kernels):
    """sum_2(a, q) for the rows of one block of consecutive moduli: the terms
    (m/q) * K_m(a mod m) over the divisors m >= 2 of q, gathered from one flat
    store of the block's kernels (built into kernels when missing) and summed
    per row in order of m."""
    lo, hi = int(q[0]), int(q[-1])
    dq, dm = np.nonzero(np.arange(lo, hi + 1)[:, None] % np.arange(2, hi + 1) == 0)
    dm += 2  # the pairs (modulus - lo, divisor m >= 2), by modulus then m
    need = np.flatnonzero(np.bincount(dm))  # np.unique would import numpy.ma
    kernels.update({m: _korobov_kernel(m) for m in need.tolist() if m not in kernels})
    start = np.zeros(hi + 1, np.int64)  # where each K_m begins in the store
    start[need] = np.cumsum(need) - need
    # each row once per divisor of its modulus; pos is its pair in (dq, dm)
    counts = np.bincount(dq)
    ndiv = counts[q - lo]
    row = np.repeat(np.arange(q.size), ndiv)
    pos = np.repeat((np.cumsum(counts) - counts)[q - lo] - np.cumsum(ndiv) + ndiv, ndiv)
    pos += np.arange(pos.size)
    idx = a[row]  # in place from here: the working set is a few rows * divisors
    idx %= dm[pos]
    idx += start[dm[pos]]
    terms = np.concatenate([kernels[m] for m in need.tolist()])[idx]
    terms *= (dm / (dq + lo))[pos]
    return np.bincount(row, weights=terms, minlength=q.size)


def _korobov_tables(qmin, qmax):
    """Both Korobov sums for every unit a mod q, qmin <= q <= qmax.

    Yields (q, a, sum1, sum2, D) per block of consecutive moduli (rows by q,
    then a), D the largest partial quotient of a/q. sum_1 does not depend on
    a (l -> l*a permutes 1..q-1): it is q * (H_{(q-1)//2} + H_{q//2}). With
    l = g*u, m = q/g and u a unit mod m, sum_2(a, q) = sum over m | q, m >= 2
    of (m/q) * K_m(a mod m); each K_m is built once and kept while a later
    modulus is a multiple of m.
    """
    if qmin < 2:
        raise ValueError("need q >= 2")
    harmonic = np.cumsum(np.r_[0, 1 / np.arange(1, qmax // 2 + 1)])
    kernels = {}
    for a, q, D in _unit_digits(qmin, qmax):
        s2 = _korobov_sum_2(q, a, kernels)
        kernels = {m: K for m, K in kernels.items() if (q[-1] // m + 1) * m <= qmax}
        yield q, a, q * (harmonic[(q - 1) // 2] + harmonic[q // 2]), s2, D


def _korobov_table(q):
    """(a_values, sum1, sum2, D) of _korobov_tables for the single modulus q."""
    return next(_korobov_tables(q, q))[1:]


def ratio_to_bound(s_abs, D, cp):
    """|S| / (D * log^2 c'): the bound ratio of one S(a, c) with D = D(a, c'), the
    empirical constant of the partial-quotient bound; s_abs and D may be arrays."""
    return s_abs / (D * math.log(cp) ** 2)


def check_agreement(analytic, double_sum, bound, a, c):
    """max |analytic - double_sum| over the rows (a, c), scalars or columns;
    CertificationError at the first row past 1e-6 (for rounding) + bound (the
    analytic truncation bound)."""
    diff = np.subtract(analytic, double_sum)
    dev, a = np.atleast_1d(np.hypot(diff.real, diff.imag), a)  # hypot: bit for bit abs
    bad = np.flatnonzero(~(dev <= 1e-6 + bound))
    if bad.size:
        raise CertificationError(
            f"method disagreement {dev[bad[0]]:.3g} at (a={a[bad[0]]}, c={c})")
    return dev.max().item()
