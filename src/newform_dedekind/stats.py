"""Sweep harnesses over admissible (a, c) with deterministic emission.

scan_F counts threshold exceedances |S| > alpha * log^3(C_max) over
1 <= a < c <= C_max with gcd(a, c) = 1 and q1*q2 | c. Each c takes one table
call for every a mod c: dedekind.s_analytic_table (analytic), or
dedekind.s_double_sum_table (double_sum, and the reference checked by 'both').
The c values run in order in the calling thread. second_moment takes one
double-sum table per c and largeval_sweep one double-sum kernel row per k: the
double sum has no truncation error.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import dedekind
from .characters import character_from_index
from .contfrac import _euclid_rows, expand  # expand: bench/tracing.py wraps stats.expand
from .errors import CertificationError

__all__ = [
    "ScanConfig",
    "ScanRecord",
    "LargevalRecord",
    "scan_F",
    "second_moment",
    "largeval_sweep",
    "emit",
    "read_records",
    "summarize",
]

CSV_HEADER = ("c", "a", "d", "D", "cf_len", "S_re", "S_im", "S_abs", "bound_ratio", "exceeds")


@dataclass(frozen=True)
class ScanConfig:
    char_pair: tuple  # ((q1, index1), (q2, index2))
    C_max: int
    alpha: float
    method: str = "analytic"  # 'analytic' | 'double_sum' | 'both'
    target_error: float = 1e-6
    exceedances_only: bool = False


@dataclass(frozen=True)
class ScanRecord:
    c: int
    a: int
    d: int
    D: int  # largest partial quotient of a/c'
    cf_len: int  # partial count of the canonical expansion of a/c'
    S_re: float
    S_im: float
    S_abs: float
    bound_ratio: float
    exceeds_threshold: bool


@dataclass(frozen=True)
class LargevalRecord:
    k: int
    c: int
    c_prime: int
    a: int
    d: int
    m: int
    S_re: float
    S_im: float
    main_re: float
    main_im: float
    residual: float
    normalized_residual: float  # residual / (1 + log c')
    skipped: bool


def scan_F(config):
    """Run the sweep; returns (records, measured).

    The c values run in order in the calling thread: with the per-c table
    most of a c's time holds the GIL, so a second thread gained nothing at
    C_max = 450. measured is taken over every row evaluated, kept or not: the count
    above alpha*log^3 C_max, max_bound_ratio and second_moment_table (each c's sum of
    |S|^2), and max_method_deviation exactly when method is 'both' (maxima of no rows are 0.0).
    """
    chi1, chi2 = (character_from_index(q, i) for q, i in config.char_pair)
    dedekind.check_admissible(chi1, chi2)
    if config.C_max < 1:
        raise ValueError("C_max must be a positive integer")
    if not config.alpha > 0:  # NaN too
        raise ValueError("alpha must be positive")
    if not 0 < config.target_error <= 1e-3:
        raise ValueError("target_error must lie in (0, 1e-3]")
    if config.method not in ("analytic", "double_sum", "both"):
        raise ValueError(f"unknown method {config.method!r}")
    q1q2 = chi1.modulus * chi2.modulus
    threshold = config.alpha * math.log(config.C_max) ** 3
    records, count, max_ratio, moments, max_dev = [], 0, 0.0, {}, 0.0
    for c in range(q1q2, config.C_max + 1, q1q2):
        cp = c // chi2.modulus
        rows = (dedekind.s_double_sum_table(chi1, chi2, c) if config.method == "double_sum"
                else dedekind.s_analytic_table(chi1, chi2, c, config.target_error))
        refs = dedekind.s_double_sum_table(chi1, chi2, c) if config.method == "both" else ()
        for (a, _, val, bound), ref in zip(rows, refs):
            max_dev = max(max_dev, dedekind.check_agreement(val, ref[2], bound, a, c))
        # D and cf_len of every row's a/c' from one Euclid table
        partials, n = _euclid_rows(np.array([a for a, *_ in rows]) % cp, cp)
        moment = 0.0
        for (a, d, val, bound), D, cf_len in zip(rows, partials.max(1).tolist(), n.tolist()):
            sabs = abs(val)
            moment += sabs**2
            exceeds = sabs > threshold
            count += exceeds
            ratio = dedekind.ratio_to_bound(sabs, D, cp)
            max_ratio = max(max_ratio, ratio)
            if exceeds or not config.exceedances_only:
                records.append(
                    ScanRecord(
                        c=c,
                        a=a,
                        d=d,
                        D=D,
                        cf_len=cf_len,
                        S_re=val.real,
                        S_im=val.imag,
                        S_abs=sabs,
                        bound_ratio=ratio,
                        exceeds_threshold=exceeds,
                    )
                )
        moments[str(c)] = moment
    measured = {"count": count, "max_bound_ratio": max_ratio, "second_moment_table": moments}
    if config.method == "both":
        measured["max_method_deviation"] = max_dev
    return records, measured


def second_moment(chi1, chi2, c):
    """Sum of |S(a, c)|^2 over the phi(c) residues coprime to c, by the double sum."""
    rows = dedekind.s_double_sum_table(chi1, chi2, c)
    return sum((abs(val) ** 2 for _, _, val, _ in rows), 0.0)


def largeval_sweep(chi1, chi2, n, k_range):
    """Track S against the predicted main term beta * c' along c = k*q1*q2.

    For each k: c = k*q1*q2, c' = c/q2, a = 1 + n*c'. Since a = 1 (mod c'),
    the completed d satisfies d = 1 (mod c') and m = (1 - d)/c' is integral.
    S and d come from one double-sum kernel row on the pair, checked once.
    Non-coprime a yields a flagged record with NaN values.
    """
    pair, _ = dedekind.check_admissible(chi1, chi2)
    q1, q2 = chi1.modulus, chi2.modulus
    records = []
    for k in k_range:
        if k < 1:
            raise ValueError("k values must be >= 1")
        c = k * q1 * q2
        cp = c // q2
        a = 1 + n * cp
        if math.gcd(a, c) != 1:
            nan = math.nan
            records.append(
                LargevalRecord(k, c, cp, a, 0, 0, nan, nan, nan, nan, nan, nan, True)
            )
            continue
        (_, d, value, _), = dedekind._double_sum_rows(pair, c, np.array([a % c]))
        if (1 - d) % cp:
            raise CertificationError(f"d = {d} is not 1 mod c' = {cp} at (a={a}, c={c})")
        m = (1 - d) // cp
        beta = dedekind.beta_constant(chi1, chi2, m, n, d % q2)
        main = beta * cp
        residual = abs(value - main)
        records.append(
            LargevalRecord(
                k=k,
                c=c,
                c_prime=cp,
                a=a,
                d=d,
                m=m,
                S_re=value.real,
                S_im=value.imag,
                main_re=main.real,
                main_im=main.imag,
                residual=residual,
                normalized_residual=residual / (1 + math.log(cp)),
                skipped=False,
            )
        )
    return records


def _fmt(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _json_value(value):
    """value, or None (JSON null) if it is a non-finite float: JSON has no NaN or Infinity."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _row_dict(record):
    if isinstance(record, ScanRecord):
        d = asdict(record)
        d["exceeds"] = d.pop("exceeds_threshold")
        return {k: d[k] for k in CSV_HEADER}
    return asdict(record)


def emit(records, fmt="csv", dest=None):
    """Write records as CSV (fixed header) or JSON lines.

    Records are sorted by (c, a); floats carry 12 significant digits; CSV
    booleans are 1/0; JSONL writes NaN and infinities as null. dest may be a
    path, a file-like object, or None to get the rendered text back. An empty
    record list yields a header-only CSV (scan header).
    """
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {fmt!r}")
    rows = [_row_dict(r) for r in sorted(records, key=lambda r: (r.c, r.a))]
    buf = io.StringIO()
    if fmt == "csv":
        header = list(rows[0]) if rows else list(CSV_HEADER)
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row.values()])
    else:
        for row in rows:
            clean = {k: _json_value(float(format(v, ".12g")) if isinstance(v, float) else v)
                     for k, v in row.items()}
            buf.write(json.dumps(clean) + "\n")
    text = buf.getvalue()
    if dest is None:
        return text
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w") as fh:
            fh.write(text)
    return None


def read_records(source, fmt="csv"):
    """Parse emitted scan records back (path, file-like, or text).

    A str that is empty or holds a newline is emitted text (all of emit's
    output but "" ends in one); any other str or path-like is a file path.
    """
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {fmt!r}")
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str) and ("\n" in source or not source):
        text = source
    else:
        with open(source) as fh:
            text = fh.read()
    if fmt == "csv":
        ints = {"c", "a", "d", "D", "cf_len", "exceeds"}  # the other columns are floats
        rows = [{k: (int if k in ints else float)(v) for k, v in row.items()}
                for row in csv.DictReader(io.StringIO(text))]
    else:
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    records = []
    for row in rows:
        row["exceeds_threshold"] = bool(row.pop("exceeds"))
        records.append(ScanRecord(**row))
    return records


def summarize(config, measured):
    """scan_F's measured dict with the config's C, alpha and pair added after its count:
    {count, C, alpha, pair, max_bound_ratio, second_moment_table[, max_method_deviation]}."""
    return {
        "count": measured["count"],  # measured's other keys follow the pair
        "C": config.C_max,
        "alpha": _json_value(config.alpha),
        "pair": [{"q": q, "index": i} for q, i in config.char_pair],
        **measured,
    }
