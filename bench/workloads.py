"""The benchmark's workloads: seeded inputs, one timed repetition, output checks.

Each workload is a closed loop with one caller: the next request is issued
only after the previous one returned. A request is one `nfds` command run
in-process through `newform_dedekind.cli.main`, or one point query through
the library. `run_once(on_request)` calls the hook before each request; the
traced run uses it to give spans a request id. A workload's inputs repeat
every `cycle` repetitions (Point rotates through its parts; the others run
the same inputs each time). Every module attribute of the package is looked
up at call time, so the traced run's wrappers (see tracing.py) see every
call.

Checks run outside the timed region and compare against references that do
not share the code path under test: an exact rational or the other
evaluation route for S, a local Euclid for continued fractions, a local
totient sieve for pair counts.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

from newform_dedekind import characters, cli, dedekind, stats

DIGITS_CAP = 15.0


@dataclass
class Rep:
    """One timed repetition: the work it asked for and what came back."""

    ops: int
    wall_s: float
    latencies_s: dict  # request key (CLI command or point query) -> seconds
    output: object
    emit_bytes: int = 0


@dataclass
class Check:
    """Outcome of checking one repetition's output."""

    attempted: int
    failed: int = 0
    digits: float = DIGITS_CAP
    notes: list = field(default_factory=list)

    def fail(self, n, note):
        self.failed += n
        if len(self.notes) < 20:
            self.notes.append(note)

    def digits_of(self, value, ref):
        err = abs(value - ref) / max(1.0, abs(ref))
        if not math.isfinite(err):
            self.digits = 0.0
        elif err > 0:
            self.digits = min(self.digits, -math.log10(err))


def run_cli(argv):
    """Run one `nfds` command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _no_hook():
    pass


def timed_cli(key, argv, latencies, on_request):
    on_request()
    t0 = time.perf_counter()
    result = run_cli(argv)
    latencies[key] = time.perf_counter() - t0
    return result


def euclid_partials(a, c):
    """Partial quotients of a/c for 0 < a < c, gcd(a, c) = 1."""
    out = []
    x, y = c, a % c
    while y:
        q, r = divmod(x, y)
        out.append(q)
        x, y = y, r
    return out


def totients(n):
    """phi(0..n) by sieve."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    return phi


def _random_unit(rng, c):
    while True:
        a = rng.randrange(1, c)
        if math.gcd(a, c) == 1:
            return a


def _real_valued(chi):
    return all(v.imag == 0 for v in chi.values)


def _check_s(check, value, d, D, a, c, q2):
    """The S-independent parts of a result: the completed inverse and D(a, c')."""
    if a * d % c != 1 % c:
        check.fail(1, f"d={d} is not 1/a mod c at (a={a}, c={c})")
        return False
    if D != max(euclid_partials(a % (c // q2), c // q2)):
        check.fail(1, f"D={D} wrong at (a={a}, c={c})")
        return False
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        check.fail(1, f"S = {value} at (a={a}, c={c})")
        return False
    return True


class Sweep:
    """`nfds scan --method analytic` over every admissible (a, c), c <= C, mod (5, 5).

    The seed picks one of the five admissible character pairs mod (5, 5)
    (indices of characters mod 5; (2, 2) is Legendre x Legendre, the only
    real pair), which all cost the same, and the records to spot-check.
    """

    name = "sweep"
    cycle = 1
    PAIRS = ((2, 2), (1, 1), (1, 3), (3, 1), (3, 3))
    ALPHA = 0.05
    EPS = 1e-6

    def __init__(self, seed, workers, tmpdir, C=450, sample=150):
        rng = random.Random(seed)
        self.i1, self.i2 = self.PAIRS[rng.randrange(len(self.PAIRS))]
        self.check_seed = rng.randrange(2**32)
        self.C, self.sample = C, sample
        self.workers = workers
        self.csv_path = os.path.join(tmpdir, "scan.csv")
        self.summary_path = os.path.join(tmpdir, "summary.json")
        phi = totients(C)
        self.expected_records = sum(phi[c] for c in range(25, C + 1, 25))
        self.sizes = {"C": C, "alpha": self.ALPHA, "eps": self.EPS, "pair": [self.i1, self.i2],
                      "records": self.expected_records, "checked_sample": sample}

    def setup(self):
        self.chi1 = characters.character_from_index(5, self.i1)
        self.chi2 = characters.character_from_index(5, self.i2)
        dedekind.s_analytic(self.chi1, self.chi2, 1, 25, self.EPS)

    def argv(self):
        return ["scan", "--q1", "5", "--chi1", f"idx:{self.i1}", "--q2", "5",
                "--chi2", f"idx:{self.i2}", "--C", str(self.C), "--alpha", str(self.ALPHA),
                "--method", "analytic", "--eps", str(self.EPS),
                "--workers", str(self.workers), "--out", self.csv_path,
                "--summary", self.summary_path]

    def run_once(self, on_request=_no_hook):
        latencies = {}
        code, _, stderr = timed_cli("scan", self.argv(), latencies, on_request)
        with open(self.csv_path) as fh:
            text = fh.read()
        with open(self.summary_path) as fh:
            summary = fh.read()
        return Rep(self.expected_records, latencies["scan"], latencies,
                   (code, text, summary, stderr), len(text.encode()))

    def _fields_ok(self, r, threshold):
        """Every field of a record except S itself, against local references."""
        if not (r.c % 25 == 0 and 25 <= r.c <= self.C and 0 < r.a < r.c
                and math.gcd(r.a, r.c) == 1):
            return False
        cp = r.c // 5
        partials = euclid_partials(r.a, cp)
        return (r.a * r.d % r.c == 1 and r.D == max(partials) and r.cf_len == len(partials)
                and math.isclose(r.S_abs, math.hypot(r.S_re, r.S_im), rel_tol=1e-9,
                                 abs_tol=1e-9)
                and math.isclose(r.bound_ratio, r.S_abs / (r.D * math.log(cp) ** 2),
                                 rel_tol=1e-9, abs_tol=1e-12)
                and r.exceeds_threshold == (r.S_abs > threshold))

    def check(self, output):
        code, text, summary_text, stderr = output
        check = Check(self.expected_records)
        if code != 0:
            check.fail(self.expected_records, f"scan exited {code}: {stderr[-300:]}")
            return check
        # parse the text, never a path: read_records treats a path with ',' as text
        records = stats.read_records(text)
        if len(records) != self.expected_records:
            check.fail(abs(len(records) - self.expected_records),
                       f"{len(records)} records, expected {self.expected_records}")
        threshold = self.ALPHA * math.log(self.C) ** 3
        bad = set()
        for i, r in enumerate(records):
            if not self._fields_ok(r, threshold):
                bad.add(i)
                check.fail(1, f"record fields wrong at (a={r.a}, c={r.c})")
        if len({(r.c, r.a) for r in records}) != len(records):
            check.fail(1, "duplicate (a, c) records")
        # spot-check S against an independent evaluation: the exact rational for
        # the real pair, the double sum for complex pairs
        chi1, chi2 = self.chi1, self.chi2
        exact = _real_valued(chi1) and _real_valued(chi2)
        tol = 1e-6 + math.sqrt(5) / math.pi * self.EPS  # certified analytic bound at eps
        rng = random.Random(self.check_seed)
        for i in rng.sample(range(len(records)), min(self.sample, len(records))):
            r = records[i]
            value = complex(r.S_re, r.S_im)
            if exact:
                ref = complex(float(dedekind.s_double_sum_exact(chi1, chi2, r.a, r.c)))
            else:
                ref = dedekind.s_double_sum(chi1, chi2, r.a, r.c).value
            check.digits_of(value, ref)
            if abs(value - ref) > tol and i not in bad:
                bad.add(i)
                check.fail(1, f"S off by {abs(value - ref):.3g} at (a={r.a}, c={r.c})")
        summary = json.loads(summary_text)
        count = sum(r.S_abs > threshold for r in records)
        if summary["count"] != count or f"count = {count}\n" not in stderr:
            check.fail(1, f"count {summary['count']} != {count} records above threshold")
        moments = {}
        for r in records:
            moments[str(r.c)] = moments.get(str(r.c), 0.0) + r.S_abs**2
        table = summary["second_moment_table"]
        if table.keys() != moments.keys() or any(
                not math.isclose(table[k], v, rel_tol=1e-9, abs_tol=1e-9)
                for k, v in moments.items()):
            check.fail(1, "second_moment_table disagrees with the records")
        return check


class Point:
    """Independent queries S(a, c), each as `nfds compute` does by default.

    Every admissible primitive pair with moduli in MODULI is queried `parts`
    times, with c = q1*q2*k log-uniform up to c_max (one stratum of the log
    scale per copy) and a a random unit; the seed picks k inside each
    stratum, a, and the query order. The queries form `parts` repetitions of
    one query per pair, the pair's stratum rotating with the repetition, so
    every repetition does nearly the same work for every seed.
    """

    name = "point"
    MODULI = (3, 4, 5, 7, 8, 11, 12, 13)
    EPS = 1e-8

    def __init__(self, seed, c_max=1000, parts=4):
        self.seed, self.c_max = seed, c_max
        self.parts = [[] for _ in range(parts)]
        self.cycle = parts
        self.sizes = {"moduli": list(self.MODULI), "c_max": c_max, "parts": parts,
                      "eps": self.EPS}
        self._next = 0
        self._exact = {}

    def setup(self):
        prim = {}
        for q in self.MODULI:
            prim[q] = [chi for chi in characters.enumerate_characters(q)
                       if not chi.is_principal and characters.is_primitive(chi)]
        pairs = [(x, y) for q1 in self.MODULI for q2 in self.MODULI
                 for x in prim[q1] for y in prim[q2] if x.parity * y.parity == 1]
        rng = random.Random(self.seed)
        n = len(self.parts)
        for j, (chi1, chi2) in enumerate(pairs):
            m = chi1.modulus * chi2.modulus
            span = math.log(self.c_max // m + 1)
            for s in range(n):
                k = max(1, min(self.c_max // m, int(math.exp((s + rng.random()) / n * span))))
                c = m * k
                self.parts[(j + s) % n].append((chi1, chi2, _random_unit(rng, c), c))
        for part in self.parts:
            rng.shuffle(part)
        self.sizes.update(pairs=len(pairs), queries_per_rep=len(pairs),
                          real_pairs=sum(_real_valued(x) and _real_valued(y) for x, y in pairs))
        chi1, chi2, a, c = self.parts[0][0]
        dedekind.s_double_sum(chi1, chi2, a, c)
        dedekind.s_analytic(chi1, chi2, a, c, self.EPS)

    def run_once(self, on_request=_no_hook):
        part = self._next
        self._next = (part + 1) % len(self.parts)
        latencies = {}
        results = []
        eps = self.EPS
        t0 = time.perf_counter()
        for i, (chi1, chi2, a, c) in enumerate(self.parts[part]):
            on_request()
            t = time.perf_counter()
            ds = dedekind.s_double_sum(chi1, chi2, a, c)
            an = dedekind.s_analytic(chi1, chi2, a, c, eps)
            latencies[part, i] = time.perf_counter() - t
            results.append((ds, an))
        wall = time.perf_counter() - t0
        return Rep(len(results), wall, latencies, (part, results))

    def check(self, output):
        part, results = output
        queries = self.parts[part]
        check = Check(len(queries))
        if len(results) != len(queries):
            check.fail(abs(len(results) - len(queries)), "wrong number of results")
        for i, ((chi1, chi2, a, c), (ds, an)) in enumerate(zip(queries, results)):
            q2 = chi2.modulus
            if not (_check_s(check, ds.value, ds.d_used, ds.max_partial_quotient, a, c, q2)
                    and _check_s(check, an.value, an.d_used, an.max_partial_quotient, a, c, q2)):
                continue
            # |tau| = sqrt(q1) times a tail bound at most eps; slack for the rounding of |tau|
            certified = math.sqrt(chi1.modulus) / math.pi * self.EPS * (1 + 1e-9)
            if not 0 <= an.truncation_bound <= certified:
                check.fail(1, f"truncation bound {an.truncation_bound:.3g} above target")
                continue
            tol = 1e-6 + an.truncation_bound
            if _real_valued(chi1) and _real_valued(chi2):
                key = (part, i)
                if key not in self._exact:
                    self._exact[key] = complex(float(dedekind.s_double_sum_exact(chi1, chi2, a, c)))
                ref = self._exact[key]
                ok = abs(an.value - ref) <= tol and abs(ds.value - ref) <= 1e-6
            else:
                ref = ds.value
                ok = abs(an.value - ref) <= tol
            check.digits_of(an.value, ref)
            if not ok:
                check.fail(1, f"S disagrees at (a={a}, c={c}, chi1={chi1.label}, "
                              f"chi2={chi2.label})")
        return check


class Quotients:
    """`nfds hensley`, `nfds verify --suite cf` and `nfds verify --suite korobov`.

    Continued-fraction tables and expansions do the work; no S is evaluated.
    The seed picks alpha (which changes no work) and the korobov spot checks.
    """

    name = "quotients"
    cycle = 1
    ALPHAS = (1.0, 1.5, 2.0)

    def __init__(self, seed, C=2000, cmax=250, qmax=300):
        rng = random.Random(seed)
        self.alpha = rng.choice(self.ALPHAS)
        self.suite_seed = rng.randrange(2**31)
        self.C, self.cmax, self.qmax = C, cmax, qmax
        phi = totients(max(C, cmax, qmax))
        self.hensley_pairs = sum(phi[c] - 1 for c in range(3, C + 1))
        # ops: each (a, c) pair classified by hensley or checked by a suite
        self.ops = (self.hensley_pairs + sum(phi[c] for c in range(2, cmax + 1))
                    + sum(phi[q] for q in range(2, qmax + 1)))
        self.sizes = {"C": C, "alpha": self.alpha, "cf_cmax": cmax, "korobov_qmax": qmax,
                      "pairs": self.ops}

    def commands(self):
        return [
            ["hensley", "--C", str(self.C), "--alpha", str(self.alpha)],
            ["verify", "--suite", "cf", "--cmax", str(self.cmax)],
            ["verify", "--suite", "korobov", "--qmax", str(self.qmax),
             "--seed", str(self.suite_seed)],
        ]

    def setup(self):
        run_cli(["hensley", "--C", "30", "--alpha", str(self.alpha)])

    def run_once(self, on_request=_no_hook):
        latencies = {}
        t0 = time.perf_counter()
        outputs = [timed_cli(i, argv, latencies, on_request)
                   for i, argv in enumerate(self.commands())]
        return Rep(self.ops, time.perf_counter() - t0, latencies, outputs)

    def check(self, output):
        check = Check(self.ops)
        (code, out, err), *suites = output
        values = {}
        for line in out.splitlines():
            key, sep, val = line.partition(" = ")
            if sep:
                values[key] = val
        try:
            phi = int(values["phi_count"])
            g = int(values["g_count"])
            pred = float(values["prediction"])
            ratio = float(values["ratio"])
        except (KeyError, ValueError):
            check.fail(self.hensley_pairs, f"hensley output unreadable (exit {code}): {err[-300:]}")
            phi = g = None
        if phi is not None:
            if code != 0:
                check.fail(1, f"hensley exited {code}")
            if phi + g != self.hensley_pairs:
                check.fail(abs(phi + g - self.hensley_pairs),
                           f"phi_count + g_count = {phi + g} != {self.hensley_pairs}")
            check.digits_of(phi + g, self.hensley_pairs)
            norm = 3 / math.pi**2 * self.C**2
            want = math.exp(-12 / (self.alpha * math.pi**2))
            if abs(phi / norm - want) > 0.10:
                check.fail(1, f"density {phi / norm:.4f} not within 0.10 of {want:.4f}")
            if not (math.isclose(pred, norm * want, rel_tol=1e-5)
                    and math.isclose(ratio, phi / (norm * want), rel_tol=1e-5)):
                check.fail(1, f"prediction {pred} or ratio {ratio} misprinted")
        for argv, (code, out, err) in zip(self.commands()[1:], suites):
            suite = argv[2]
            fails = sum(line.startswith("FAIL ") for line in err.splitlines())
            if code != 0 or out != f"verify {suite}: ok\n":
                check.fail(max(1, fails), f"verify {suite} exited {code}: {out.strip()}")
        return check


def make(name, seed, workers, tmpdir, **sizes):
    if name == "sweep":
        return Sweep(seed, workers, tmpdir, **sizes)
    if name == "point":
        return Point(seed, **sizes)
    if name == "quotients":
        return Quotients(seed, **sizes)
    raise ValueError(f"unknown workload {name!r}")
