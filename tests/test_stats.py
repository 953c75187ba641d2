"""Sweep determinism, serialization round trips, and the frozen moment oracle."""
import io
import json
import math
import random
from fractions import Fraction

import pytest

from newform_dedekind import stats
from newform_dedekind.characters import character_from_index, legendre_character
from newform_dedekind.contfrac import expand, max_partial_quotient
from newform_dedekind.dedekind import s_analytic_table, s_double_sum_exact, s_double_sum_table
from newform_dedekind.stats import (
    CSV_HEADER,
    LargevalRecord,
    ScanConfig,
    ScanRecord,
    emit,
    largeval_sweep,
    read_records,
    scan_F,
    second_moment,
    summarize,
)

LEG5 = legendre_character(5)
PAIR55 = ((5, 2), (5, 2))


def small_config(**kw):
    base = dict(char_pair=PAIR55, C_max=200, alpha=0.01, method="analytic")
    base.update(kw)
    return ScanConfig(**base)


def test_scan_counts_match_manual_recount():
    config = small_config()
    records, measured = scan_F(config)
    count = measured["count"]
    assert count == 362
    threshold = config.alpha * math.log(config.C_max) ** 3
    manual = sum(1 for r in records if r.S_abs > threshold)
    assert manual == count
    assert all(r.exceeds_threshold == (r.S_abs > threshold) for r in records)
    # every admissible pair must appear when exceedances_only is off
    expected_pairs = sum(
        1
        for c in range(25, 201, 25)
        for a in range(1, c)
        if math.gcd(a, c) == 1
    )
    assert len(records) == expected_pairs


def test_scan_methods_agree():
    fast = scan_F(small_config())
    slow = scan_F(small_config(method="double_sum"))
    assert fast[1]["count"] == slow[1]["count"]
    for r1, r2 in zip(fast[0], slow[0]):
        assert (r1.c, r1.a, r1.d, r1.D, r1.cf_len) == (r2.c, r2.a, r2.d, r2.D, r2.cf_len)
        assert abs(r1.S_abs - r2.S_abs) < 1e-5
        assert r1.exceeds_threshold == r2.exceeds_threshold


def test_scan_both_records_deviation():
    records, measured = scan_F(small_config(method="both", C_max=100))
    assert measured["max_method_deviation"] < 1e-6
    assert measured["count"] == scan_F(small_config(C_max=100))[1]["count"]


def test_scan_empty_range():
    empty = {"count": 0, "max_bound_ratio": 0.0, "second_moment_table": {}}
    assert scan_F(small_config(C_max=20)) == ([], empty)
    assert scan_F(small_config(C_max=20, method="both")) == (
        [], {**empty, "max_method_deviation": 0.0})


def test_scan_huge_alpha_counts_nothing():
    records, measured = scan_F(small_config(alpha=1e9))
    assert measured["count"] == 0
    assert records and not any(r.exceeds_threshold for r in records)


def test_scan_exceedances_only_subset():
    config = small_config(alpha=0.05)
    full, full_measured = scan_F(config)
    only, only_measured = scan_F(small_config(alpha=0.05, exceedances_only=True))
    assert only_measured["count"] == full_measured["count"]
    kept = [(r.c, r.a) for r in full if r.exceeds_threshold]
    assert [(r.c, r.a) for r in only] == kept
    assert all(r.exceeds_threshold for r in only)


def test_scan_config_has_no_output_or_worker_fields():
    # scan_F writes nothing and runs in one thread; emit writes the records
    with pytest.raises(TypeError):
        small_config(output_path="scan.csv")
    with pytest.raises(TypeError):
        small_config(worker_count=2)


def test_scan_config_validation():
    with pytest.raises(ValueError):
        scan_F(small_config(alpha=0.0))
    with pytest.raises(ValueError):
        scan_F(small_config(alpha=math.nan))
    with pytest.raises(ValueError):
        scan_F(small_config(target_error=1e-2))
    with pytest.raises(ValueError):
        scan_F(small_config(method="fast"))
    with pytest.raises(ValueError):
        scan_F(small_config(C_max=0))


def test_second_moment_oracle_225():
    moment = second_moment(LEG5, LEG5, 225)
    exact = sum(
        (
            abs(s_double_sum_exact(LEG5, LEG5, a, 225)) ** 2
            for a in range(1, 225)
            if math.gcd(a, 225) == 1
        ),
        Fraction(0),
    )
    assert exact == Fraction(4592)
    assert moment == 4592.0


def test_second_moment_at_1800_matches_exact():
    # twice criterion 08's largest scale: the analytic moment's error grows
    # with c, so pin it beyond the criterion's scales too
    rows = s_analytic_table(LEG5, LEG5, 1800, 1e-6)
    approx = sum((abs(val) ** 2 for _, _, val, _ in rows), 0.0)
    exact = sum(
        (
            abs(s_double_sum_exact(LEG5, LEG5, a, 1800)) ** 2
            for a in range(1, 1800)
            if math.gcd(a, 1800) == 1
        ),
        Fraction(0),
    )
    assert exact == Fraction(200096)
    assert abs(approx - 200096) < 1e-4
    assert second_moment(LEG5, LEG5, 1800) == exact


def test_second_moment_by_double_sum_is_exact_for_legendre_5():
    # the double-sum table's floats square and sum to the exact integer moments
    for c, want in ((225, 4592.0), (450, 12016.0), (900, 49728.0), (1800, 200096.0),
                    (9000, 5038640.0)):
        assert second_moment(LEG5, LEG5, c) == want


def test_second_moment_rejects_bad_modulus():
    from newform_dedekind.errors import DivisibilityError

    with pytest.raises(DivisibilityError):
        second_moment(LEG5, LEG5, 30)


def test_largeval_main_terms():
    records = largeval_sweep(LEG5, LEG5, 1, range(1, 13))
    assert not any(r.skipped for r in records)
    for r in records:
        assert r.c == 25 * r.k and r.c_prime == 5 * r.k
        assert abs(complex(r.main_re, r.main_im) - 2 * r.k) < 1e-8
        assert r.residual <= 5 * (1 + math.log(r.c_prime))
        assert abs(r.normalized_residual - r.residual / (1 + math.log(r.c_prime))) < 1e-15


def test_largeval_zero_direction():
    records = largeval_sweep(LEG5, LEG5, 0, range(1, 5))
    for r in records:
        assert r.a == 1
        assert abs(complex(r.main_re, r.main_im)) < 1e-12
        assert abs(complex(r.S_re, r.S_im)) < 1e-7


@pytest.mark.parametrize(
    "chi1, chi2, n",
    [(LEG5, LEG5, 1), (character_from_index(5, 1), character_from_index(5, 3), 2)],
    ids=["legendre5", "quartic5"],
)
def test_largeval_residual_vanishes_where_s_is_the_main_term(chi1, chi2, n):
    # S from the double sum has no truncation error, so S = beta*c' leaves rounding only
    records = [r for r in largeval_sweep(chi1, chi2, n, range(1, 41)) if not r.skipped]
    assert records
    for r in records:
        assert r.residual < 1e-12, (r.k, r.residual)


def test_largeval_residual_of_a_third_on_the_3_4_pair():
    # k = 2: c = 24, c' = 6, a = 7; S = -2/3 against the main term beta*c' = -1
    records = largeval_sweep(legendre_character(3), character_from_index(4, 1), 1, range(1, 3))
    r = records[1]
    assert r.k == 2 and not r.skipped
    assert abs(r.S_re + 2 / 3) < 1e-12
    assert abs(r.residual - 1 / 3) < 1e-12


def test_largeval_flags_non_coprime():
    chi1 = character_from_index(3, 1)
    chi2 = character_from_index(4, 1)
    records = largeval_sweep(chi1, chi2, 1, range(1, 3))
    # k = 1: c = 12, c' = 3, a = 4 shares a factor with c
    assert records[0].skipped and math.isnan(records[0].S_re)
    assert not records[1].skipped


def test_largeval_rejects_bad_k():
    with pytest.raises(ValueError):
        largeval_sweep(LEG5, LEG5, 1, [0])


def test_emit_read_round_trip():
    # floats are rounded to 12 significant digits on the way out, so a parsed
    # record re-serializes identically but is only float-close to the original
    records, _ = scan_F(small_config(C_max=75))
    for fmt in ("csv", "jsonl"):
        text = emit(records, fmt)
        back = read_records(text if fmt == "csv" else io.StringIO(text), fmt)
        assert emit(back, fmt) == text
        assert len(back) == len(records)
        for r1, r2 in zip(back, records):
            assert (r1.c, r1.a, r1.d, r1.D, r1.cf_len) == (r2.c, r2.a, r2.d, r2.D, r2.cf_len)
            assert r1.exceeds_threshold == r2.exceeds_threshold
            assert abs(r1.S_abs - r2.S_abs) <= 1e-11 * max(1.0, r2.S_abs)


def test_emit_read_round_trip_empty():
    # emit([], "jsonl") is "": read_records takes it as text, not as a path
    for fmt in ("csv", "jsonl"):
        text = emit([], fmt)
        assert read_records(text, fmt) == []
        assert emit(read_records(text, fmt), fmt) == text


def test_read_records_path_with_comma(tmp_path):
    # a path is never mistaken for CSV text, whatever characters it holds
    records, _ = scan_F(small_config(C_max=50))
    assert len(records) == 40
    folder = tmp_path / "a,b"
    folder.mkdir()
    for fmt in ("csv", "jsonl"):
        path = folder / f"x.{fmt}"
        emit(records, fmt, str(path))
        for source in (str(path), path):
            back = read_records(source, fmt)
            assert [(r.c, r.a) for r in back] == [(r.c, r.a) for r in records]


def test_emit_sorts_shuffled_input():
    records, _ = scan_F(small_config(C_max=75))
    shuffled = records[:]
    random.Random(7).shuffle(shuffled)
    assert emit(shuffled) == emit(records)


def test_emit_empty_is_header_only():
    assert emit([]) == ",".join(CSV_HEADER) + "\n"
    assert emit([], "jsonl") == ""


def test_emit_csv_layout():
    rec = ScanRecord(25, 6, 21, 5, 2, 2.0, 0.0, 2.0, 0.1234567890123456, True)
    text = emit([rec])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    cells = lines[1].split(",")
    assert cells[:5] == ["25", "6", "21", "5", "2"]
    assert cells[8] == "0.123456789012"  # 12 significant digits
    assert cells[9] == "1"


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit([], "xml")
    with pytest.raises(ValueError):
        read_records("", "xml")


def test_emit_largeval_records():
    records = largeval_sweep(LEG5, LEG5, 1, range(1, 4))
    text = emit(records, "jsonl")
    rows = [json.loads(line) for line in text.splitlines()]
    assert [row["k"] for row in rows] == [1, 2, 3]
    assert all(abs(row["main_re"] - 2 * row["k"]) < 1e-6 for row in rows)


def test_summarize_contents():
    config = small_config(C_max=100)
    records, measured = scan_F(config)
    summary = summarize(config, measured)
    assert summary["count"] == measured["count"]
    assert summary["C"] == 100 and summary["alpha"] == 0.01
    assert summary["pair"] == [{"q": 5, "index": 2}, {"q": 5, "index": 2}]
    assert summary["max_bound_ratio"] == max(r.bound_ratio for r in records)
    table = summary["second_moment_table"]
    assert set(table) == {"25", "50", "75", "100"}
    for c_str, total in table.items():
        c = int(c_str)
        direct = sum(r.S_abs**2 for r in records if r.c == c)
        assert abs(total - direct) < 1e-12
        assert abs(total - second_moment(LEG5, LEG5, c)) < 1e-3
    assert "max_method_deviation" not in summary
    assert json.dumps(summary)  # must be JSON-serializable


def test_summarize_both_adds_deviation():
    config = small_config(C_max=50, method="both")
    summary = summarize(config, scan_F(config)[1])
    assert 0.0 <= summary["max_method_deviation"] < 1e-6


def test_each_summary_carries_its_own_scans_deviation():
    # the scans run first and are summarized after, so no scan's deviation
    # may leak into the summary of another
    configs = [ScanConfig(((5, 1), (5, 3)), 150, 0.05, method="both"),
               ScanConfig(PAIR55, 50, 0.05, method="both")]
    results = [scan_F(config) for config in configs]
    for config, (_, measured) in zip(configs, results):
        chi1, chi2 = (character_from_index(q, i) for q, i in config.char_pair)
        want = max(abs(an[2] - ds[2])
                   for c in range(25, config.C_max + 1, 25)
                   for an, ds in zip(s_analytic_table(chi1, chi2, c, config.target_error),
                                     s_double_sum_table(chi1, chi2, c)))
        assert summarize(config, measured)["max_method_deviation"] == want
    assert results[0][1]["max_method_deviation"] != results[1][1]["max_method_deviation"]


@pytest.mark.parametrize("pair", [((5, 2), (5, 2)), ((5, 1), (5, 1)), ((5, 1), (5, 3)),
                                  ((5, 3), (5, 1)), ((5, 3), (5, 3))])
def test_exceedances_only_summary_equals_full(pair):
    # the summary is measured over every row evaluated, so keeping only the
    # exceedances changes the records and nothing of the summary
    full, only = (ScanConfig(pair, 150, 0.05, method="both", exceedances_only=flag)
                  for flag in (False, True))
    full_records, full_measured = scan_F(full)
    only_records, only_measured = scan_F(only)
    assert len(only_records) < len(full_records)
    assert summarize(only, only_measured) == summarize(full, full_measured)
    assert full_measured["max_bound_ratio"] == max(r.bound_ratio for r in full_records)


def test_moment_table_covers_rows_not_kept():
    # at this alpha no row exceeds, so no record is kept; the table still holds
    # each c's whole second moment, exact for the double sum
    _, measured = scan_F(small_config(C_max=225, alpha=1e9, method="double_sum",
                                      exceedances_only=True))
    assert measured["second_moment_table"]["225"] == 4592 == second_moment(LEG5, LEG5, 225)
    assert set(measured["second_moment_table"]) == {str(c) for c in range(25, 226, 25)}


@pytest.mark.parametrize("pair", [PAIR55, ((5, 1), (5, 3))])
@pytest.mark.parametrize("method", ["analytic", "double_sum"])
@pytest.mark.parametrize("exceedances_only", [False, True])
def test_scan_D_and_cf_len_match_the_scalar_expansion(pair, method, exceedances_only,
                                                      monkeypatch):
    # the scan reads D and cf_len from its Euclid table, never from expand
    def no_expand(a, c):
        raise AssertionError(f"scan_F called expand({a}, {c})")

    monkeypatch.setattr(stats, "expand", no_expand)
    records, _ = scan_F(ScanConfig(pair, 300, 0.05, method=method,
                                   exceedances_only=exceedances_only))
    assert records
    for r in records:
        assert r.D == max_partial_quotient(r.a, r.c // 5)
        assert r.cf_len == expand(r.a, r.c // 5).n
