"""Command-line front end.

Subcommands: compute, cf, hensley, scan, moment, largeval, verify.
Logs (including the resolved invocation) go to stderr; data to stdout or
--out. Exit codes: 0 success, 1 verification or certification failure,
2 validation error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import bisect
import functools
import json
import math
import random
import sys

import numpy as np

from . import characters, contfrac, dedekind, stats
from .errors import CertificationError, ValidationError


def _parse_character(q, spec):
    if spec == "legendre":
        return characters.legendre_character(q)
    if spec.startswith("idx:"):
        return characters.character_from_index(q, int(spec[4:]))
    raise ValidationError(f"bad character spec {spec!r}: use 'legendre' or 'idx:<k>'")


def _pair_from_args(args):
    return _parse_character(args.q1, args.chi1), _parse_character(args.q2, args.chi2)


def _add_pair_flags(p, q_default=None, chi_default=None):
    req = q_default is None
    p.add_argument("--q1", type=int, required=req, default=q_default)
    p.add_argument("--chi1", default=chi_default, required=chi_default is None and req,
                   help="'legendre' or 'idx:<k>'")
    p.add_argument("--q2", type=int, required=req, default=q_default)
    p.add_argument("--chi2", default=chi_default, required=chi_default is None and req,
                   help="'legendre' or 'idx:<k>'")


def _fmt_complex(z, digits=12):
    return f"{z.real:.{digits}g} {z.imag:+.{digits}g}i"


def _fmt_s(z):
    re = 0.0 if abs(z.real) < 5e-7 else z.real
    im = 0.0 if abs(z.imag) < 5e-7 else z.imag
    if im == 0.0:
        return f"{re:.6f}"
    return f"{re:.6f}{im:+.6f}i"


def cmd_compute(args):
    chi1, chi2 = _pair_from_args(args)
    results = {}
    if args.method in ("double_sum", "both"):
        results["double_sum"] = dedekind.s_double_sum(chi1, chi2, args.a, args.c)
    if args.method in ("analytic", "both"):
        results["analytic"] = dedekind.s_analytic(chi1, chi2, args.a, args.c, args.eps)
    if args.method == "both":  # the routes must agree before anything prints
        an, ds = results["analytic"], results["double_sum"]
        dedekind.check_agreement(an.value, ds.value, an.truncation_bound, args.a, args.c)
    primary = results.get("analytic", results.get("double_sum"))
    print(f"S = {_fmt_s(primary.value)}")
    for name, res in results.items():
        line = f"S_{name} = {_fmt_complex(res.value)}"
        if name == "analytic":
            line += f"  (truncation_bound {res.truncation_bound:.3g})"
        print(line)
    cp = args.c // chi2.modulus
    trivial = chi1.modulus * args.c
    print(f"D(a,c') = {primary.max_partial_quotient}")
    print(f"trivial_bound = {trivial}")
    ratio = dedekind.ratio_to_bound(abs(primary.value), primary.max_partial_quotient, cp)
    print(f"bound_ratio = {ratio:.6g}")
    return 0


def cmd_cf(args):
    cf = contfrac.expand(args.a, args.c)
    if not cf.partials:
        print(str(cf))
        return 0
    # the reversal raises CertificationError unless a*d = 1 mod c
    rev = contfrac.reverse_denominator_expansion(args.a % args.c, args.c)
    print(f"{cf} D={max(cf.partials)} reversed→{rev.numerator}/{rev.denominator} ok")
    return 0


def cmd_hensley(args):
    phi, g = contfrac.quotient_counts(args.alpha, args.C)
    M = contfrac.quotient_cutoff(args.alpha, args.C)  # phi counts D <= M: predict at M/log C too
    print(f"phi_count = {phi}")
    print(f"g_count = {g}")
    for at, alpha in (("", args.alpha), ("_at_M", M / math.log(args.C))):
        pred = contfrac.hensley_prediction(alpha, args.C) if alpha else 0.0
        print(f"prediction{at} = {pred:.6g}")
        print(f"ratio{at} = {phi / pred if pred else math.nan:.6g}")
    return 0


def cmd_scan(args):
    chi1, chi2 = _pair_from_args(args)
    if args.workers < 1:  # accepted for old invocations; the scan runs in one thread
        raise ValidationError("--workers must be >= 1")
    config = stats.ScanConfig(
        char_pair=(chi1.label, chi2.label),
        C_max=args.C,
        alpha=args.alpha,
        method=args.method,
        target_error=args.eps,
        exceedances_only=args.exceedances_only,
    )
    records, measured = stats.scan_F(config)
    print(f"count = {measured['count']}", file=sys.stderr)
    stats.emit(records, args.format, args.out or sys.stdout)
    summary = stats.summarize(config, measured)
    if args.summary:
        with open(args.summary, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    else:
        print(f"summary: {json.dumps(summary)}", file=sys.stderr)
    return 0


def cmd_moment(args):
    chi1, chi2 = _pair_from_args(args)
    moments = [stats.second_moment(chi1, chi2, c) for c in args.c]  # all, before any prints
    print("c,second_moment,exponent")
    for c, m in zip(args.c, moments):
        expo = math.log(m) / math.log(c) if m > 0 and c > 1 else float("nan")
        print(f"{c},{m:.12g},{expo:.12g}")
    return 0


def cmd_largeval(args):
    if args.kmin > args.kmax:
        raise ValidationError(f"need kmin <= kmax, got {args.kmin} > {args.kmax}")
    chi1, chi2 = _pair_from_args(args)
    records = stats.largeval_sweep(chi1, chi2, args.n, range(args.kmin, args.kmax + 1))
    stats.emit(records, args.format, args.out or sys.stdout)
    return 0


def _suite_dw(args):
    failures = []
    for p in (5, 7, 13):
        chi = characters.legendre_character(p)
        for k in range(1, args.kmax + 1):
            for l in range(1, p + 1):
                want = dedekind.dw_exact(p, k, l)
                got = dedekind.s_double_sum_exact(chi, chi, 1 + l * k * p, k * p * p)
                if got != want:
                    failures.append(f"dw: exact S(1+{l}*{k}*{p}, {k}*{p}^2) = {got} != {want}")
                approx = dedekind.s_analytic(chi, chi, 1 + l * k * p, k * p * p).value
                if abs(approx - float(want)) > 1e-6:
                    failures.append(f"dw: analytic off by {abs(approx - float(want)):.2g} "
                                    f"at (p={p}, k={k}, l={l})")
    return failures


def _suite_korobov(args):
    failures = []
    rng = random.Random(args.seed)
    spot = []
    for q, a, s1, s2, D in dedekind._korobov_tables(2, args.qmax):
        first = np.flatnonzero(np.diff(q, prepend=0))  # rows run by q, then a
        count = np.diff(first, append=q.size)
        logs = [math.log(x) for x in q[first].tolist()]  # per q, as the scalar bounds
        lim1 = 2 * q * np.repeat(logs, count)
        lim2 = 18 * D * np.repeat([x**2 for x in logs], count)
        found = [(q[i], 1, i, s1[i], lim1[i]) for i in np.flatnonzero(s1 > lim1)]
        found += [(q[i], 2, i, s2[i], lim2[i]) for i in np.flatnonzero(s2 > lim2)]
        for qq, k, i, s, lim in sorted(found):  # by q, then sum_1 before sum_2
            failures.append(f"korobov: sum_{k}({a[i]}, {qq}) = {s:.6g} > {lim:.6g}")
        for lo, n in zip(first.tolist(), count.tolist()):
            if q[lo] > 2 and rng.random() < 0.05:
                i = lo + rng.randrange(n)
                spot.append((int(a[i]), int(q[i]), float(s1[i]), float(s2[i])))
    # the batch table must agree with the public scalar functions
    for a, q, v1, v2 in spot[:100]:
        if abs(dedekind.korobov_sum_1(a, q) - v1) > 1e-9 * max(1.0, v1):
            failures.append(f"korobov: batch/scalar sum_1 mismatch at ({a}, {q})")
        if abs(dedekind.korobov_sum_2(a, q) - v2) > 1e-9 * max(1.0, v2):
            failures.append(f"korobov: batch/scalar sum_2 mismatch at ({a}, {q})")
    return failures


def _random_unit(rng, c):
    while True:
        a = rng.randint(1, c - 1)
        if math.gcd(a, c) == 1:
            return a


def _suite_agreement(args):
    failures = []
    rng = random.Random(args.seed)
    chi1, chi2 = _pair_from_args(args)
    q1q2 = chi1.modulus * chi2.modulus
    cmax = args.cmax if args.cmax is not None else 2000
    for _ in range(args.trials):
        c = q1q2 * rng.randint(1, max(1, cmax // q1q2))
        a = _random_unit(rng, c)
        exact = dedekind.s_double_sum(chi1, chi2, a, c)
        approx = dedekind.s_analytic(chi1, chi2, a, c, args.eps)
        try:
            dedekind.check_agreement(approx.value, exact.value, approx.truncation_bound, a, c)
        except CertificationError as err:
            failures.append(f"agreement: {err}")
    return failures


_CF_SAMPLE = 100  # pairs on which the cf suite checks the scalar functions


def _suite_cf(args):
    """Every unit a mod c, c <= cmax, from one Euclid pass per block of
    moduli: the odd expansion's convergent is a/c, its matrix is (a b; c d)
    with det 1, its reversal is d/c with a*d = 1 mod c, the table has a row
    for d, and |D(a, c) - D(d, c)| <= 1. A seeded sample of pairs checks the
    public scalar functions against the table. Failures are listed by c,
    then by check and a, then the sample's."""
    failures = []
    cmax = args.cmax if args.cmax is not None else 500
    rng = random.Random(args.seed)
    sample = []  # (c, draw, a), by c and then in the order drawn
    for j in range(_CF_SAMPLE):
        c = rng.randint(2, cmax)
        bisect.insort(sample, (c, j, _random_unit(rng, c)))
    for a, c, row in contfrac._unit_blocks(2, cmax):
        partials, n = contfrac._euclid_rows(a, c)
        digits = partials.T  # (digit, row): digit k of every row is contiguous
        D = digits.max(axis=0)
        # [..., x] = [..., x - 1, 1] makes every digit count odd; an odd height
        # then leaves every column an even number of zeros
        odd = np.concatenate([digits, np.zeros((1 + len(digits) % 2, n.size), digits.dtype)])
        even = np.nonzero(n % 2 == 0)[0]
        odd[n[even] - 1, even] -= 1
        odd[n[even], even] = 1
        n[even] += 1
        p, q, b, d_col = contfrac._convergents(odd)
        d, den, _, _ = contfrac._convergents(odd, reverse=True)
        ok_rev = (den == c) & (0 < d) & (d < c) & (a * d % c == 1)
        partner = row[c - c[0], np.where(ok_rev, d, a)]  # of a itself if the reversal failed
        delta = D - D[np.where(partner >= 0, partner, np.arange(a.size))]
        checks = (
            ("convergent is not a/c", (p == a) & (q == c)),
            ("matrix is not (a b; c d) with det 1",
             (p * d_col - b * q == 1) & (d_col == d) & (b * c == a * d - 1)),
            ("reversal is not d/c with a*d = 1 mod c", ok_rev),
            ("the inverse d has no row in the table", partner >= 0),
            ("|D(a, c) - D(d, c)| > 1", np.abs(delta) <= 1),
        )
        found = []  # (c, check, a or sample draw, line)
        for k, (what, ok) in enumerate(checks):
            found.extend((c[i], k, a[i], f"cf: {what} at ({a[i]}, {c[i]})")
                         for i in np.nonzero(~ok)[0])
        here = sample[:bisect.bisect_right(sample, (int(c[-1]) + 1,))]
        del sample[:len(here)]
        at = row[[cc - c[0] for cc, _, _ in here], [x for *_, x in here]]  # one gather
        for (cc, j, x), i in zip(here, at.tolist()):
            if i < 0:
                lines = [f"cf: the table lists {x} as no unit mod {cc}"]
            else:
                lines = _cf_scalar_failures(x, cc, odd[:n[i], i][::-1], d[i], delta[i],
                                            ((x, int(b[i])), (cc, int(d_col[i]))))
            found.extend((cc, len(checks), j, line) for line in lines)
        failures.extend(line for *_, line in sorted(found, key=lambda f: f[:3]))
    return failures


def _cf_scalar_failures(a, c, rev, d, delta, matrix):
    """The public scalar functions at the unit a mod c against the table's
    reversal digits rev of d/c, D(a, c) - D(d, c) = delta and odd matrix."""
    out = []
    try:
        r = contfrac.reverse_denominator_expansion(a, c)
        if r.partials != tuple(rev.tolist()) or r.numerator != d:
            out.append(f"cf: reverse_denominator_expansion({a}, {c}) = {r} "
                       "disagrees with the table")
        if contfrac.digit_symmetry_delta(a, c) != delta:
            out.append(f"cf: digit_symmetry_delta({a}, {c}) disagrees with the table")
        odd_cf = contfrac.ContinuedFraction.from_terms(0, r.partials[::-1])  # a/c, odd form
        if contfrac.matrix_factorization(odd_cf) != matrix:
            out.append(f"cf: matrix_factorization of {odd_cf} is not {matrix}")
    except CertificationError as err:
        out.append(f"cf: {err}")
    return out


_SUITES = {
    "dw": _suite_dw,
    "korobov": _suite_korobov,
    "agreement": _suite_agreement,
    "cf": _suite_cf,
}

# each suite's size flag and the least value at which it checks anything
_SUITE_SIZES = {"dw": ("kmax", 1), "korobov": ("qmax", 2), "agreement": ("trials", 1),
                "cf": ("cmax", 2)}


def cmd_verify(args):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        flag, least = _SUITE_SIZES[name]
        value = getattr(args, flag)
        if value is not None and value < least:
            raise ValidationError(f"--{flag} {value} leaves the {name} suite nothing to "
                                  f"check: need --{flag} >= {least}")
    if "agreement" in names and args.cmax is not None:  # its c are multiples of q1*q2
        least = math.prod(chi.modulus for chi in _pair_from_args(args))
        if args.cmax < least:
            raise ValidationError(f"--cmax {args.cmax} leaves the agreement suite nothing "
                                  f"to check: need --cmax >= {least}")
    failures = []
    for name in names:
        failures.extend(_SUITES[name](args))
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print(f"verify {'+'.join(names)}: "
          f"{'ok' if not failures else f'{len(failures)} failure(s)'}")
    return 1 if failures else 0


@functools.cache  # built once per process; each parse_args returns a new Namespace
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nfds",
        description="Twisted Dedekind sums: evaluation, continued-fraction "
        "statistics, and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="evaluate S(a, c) for a character pair")
    _add_pair_flags(p)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--method", choices=("both", "double_sum", "analytic"), default="both")
    p.add_argument("--eps", type=float, default=1e-8)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("cf", help="continued fraction, D, and reversal check")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("hensley", help="density counts vs the closed-form prediction")
    p.add_argument("--C", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=cmd_hensley)

    p = sub.add_parser("scan", help="sweep all admissible (a, c) up to C")
    _add_pair_flags(p)
    p.add_argument("--C", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", choices=("analytic", "double_sum", "both"),
                   default="analytic")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and ignored; must be >= 1")
    p.add_argument("--out", default="")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--summary", default="")
    p.add_argument("--exceedances-only", action="store_true")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("moment", help="second moment over a mod c")
    _add_pair_flags(p)
    p.add_argument("--c", type=int, action="append", required=True,
                   help="repeatable")
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("largeval", help="S vs the predicted main term along c = k*q1*q2")
    _add_pair_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmin", type=int, default=1)
    p.add_argument("--kmax", type=int, default=40)
    p.add_argument("--out", default="")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.set_defaults(func=cmd_largeval)

    p = sub.add_parser("verify", help="run a property suite; nonzero exit on failure")
    p.add_argument("--suite", choices=(*_SUITES, "all"), required=True)
    p.add_argument("--qmax", type=int, default=1000)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--cmax", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-8)
    _add_pair_flags(p, q_default=5, chi_default="legendre")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    flags = {k: stats._json_value(v) for k, v in vars(args).items()
             if k not in ("command", "func")}
    config = {"subcommand": args.command, "flags": flags}
    print(f"config: {json.dumps(config, default=str)}", file=sys.stderr)
    try:
        return args.func(args)
    except ValidationError as err:
        print(f"validation error ({type(err).__name__}): {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3
    except CertificationError as err:
        print(f"certification error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
