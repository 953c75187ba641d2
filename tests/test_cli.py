"""End-to-end runs of the nfds entry point via main(argv)."""
import dataclasses
import json
import math

import pytest

from newform_dedekind import cli, contfrac, dedekind
from newform_dedekind.cli import main
from newform_dedekind.contfrac import ContinuedFraction

PAIR = ["--q1", "5", "--chi1", "legendre", "--q2", "5", "--chi2", "legendre"]


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_compute_known_value(capsys):
    rc, out, err = run(capsys, ["compute", *PAIR, "--a", "6", "--c", "25"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "S = 2.000000"
    assert any(line.startswith("S_double_sum = ") for line in lines)
    assert any("truncation_bound" in line for line in lines)
    assert "D(a,c') = 5" in lines
    assert "trivial_bound = 125" in lines
    assert any(line.startswith("bound_ratio = ") for line in lines)
    config_line = err.strip().split("\n")[0]
    assert config_line.startswith("config: ")
    parsed = json.loads(config_line[len("config: "):])
    assert parsed["subcommand"] == "compute"
    assert parsed["flags"]["a"] == 6


def test_compute_vanishes_at_one(capsys):
    rc, out, _ = run(capsys, ["compute", *PAIR, "--a", "1", "--c", "50"])
    assert rc == 0
    assert out.strip().split("\n")[0] == "S = 0.000000"


def test_compute_single_method(capsys):
    rc, out, _ = run(
        capsys,
        ["compute", *PAIR, "--a", "6", "--c", "25", "--method", "analytic"],
    )
    assert rc == 0
    assert "S_double_sum" not in out


def test_compute_rejects_parity_violation(capsys):
    rc, _, err = run(
        capsys,
        ["compute", "--q1", "3", "--chi1", "idx:1", "--q2", "5",
         "--chi2", "legendre", "--a", "1", "--c", "15"],
    )
    assert rc == 2
    assert "validation error" in err


@pytest.mark.parametrize(
    "argv",
    [["compute", *PAIR, "--a", "6", "--c", "25", "--eps", "nan"]],
    ids=["compute"],
)
def test_nan_eps_exits_two(capsys, argv):
    rc, _, err = run(capsys, argv)
    assert rc == 2
    assert "validation error: target_error must be positive" in err


def test_compute_rejects_bad_character_spec(capsys):
    rc, _, err = run(
        capsys,
        ["compute", "--q1", "5", "--chi1", "primitive", "--q2", "5",
         "--chi2", "legendre", "--a", "1", "--c", "25"],
    )
    assert rc == 2
    assert "character spec" in err


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", *PAIR, "--a", "6", "--c", "25", "--fast"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cf_example(capsys):
    rc, out, _ = run(capsys, ["cf", "--a", "3", "--c", "7"])
    assert rc == 0
    assert out.strip() == "[0;2,3] D=3 reversed→5/7 ok"


def test_cf_reduces_numerator(capsys):
    _, out1, _ = run(capsys, ["cf", "--a", "3", "--c", "7"])
    _, out2, _ = run(capsys, ["cf", "--a", "10", "--c", "7"])
    assert out1 == out2


def test_cf_rejects_common_factor(capsys):
    rc, _, err = run(capsys, ["cf", "--a", "6", "--c", "9"])
    assert rc == 2
    assert "validation error" in err


def test_hensley_counts(capsys):
    rc, out, _ = run(capsys, ["hensley", "--C", "10", "--alpha", "1"])
    assert rc == 0
    got = dict(line.split(" = ") for line in out.strip().split("\n"))
    assert got["phi_count"] == "6"
    assert got["g_count"] == "16"
    pred = float(got["prediction"])
    assert abs(float(got["ratio"]) - 6 / pred) < 1e-4


def test_hensley_ratio_at_the_counts_cutoff(capsys):
    # phi counts D <= M = floor(alpha*log C) = 11, so the last two lines
    # predict at alpha_eff = 11/log 2000
    rc, out, _ = run(capsys, ["hensley", "--C", "2000", "--alpha", "1.5"])
    assert rc == 0
    got = dict(line.split(" = ") for line in out.strip().split("\n"))
    assert list(got) == ["phi_count", "g_count", "prediction", "ratio",
                         "prediction_at_M", "ratio_at_M"]
    assert got["ratio"] == "1.07482" and got["ratio_at_M"] == "1.10708"
    want = contfrac.hensley_prediction(11 / math.log(2000), 2000)
    assert got["prediction_at_M"] == f"{want:.6g}" == "524821"


def test_hensley_zero_prediction_prints_nan(capsys):
    # M = 0 predicts 0 at the cutoff, and this alpha's prediction underflows to 0
    rc, out, _ = run(capsys, ["hensley", "--C", "10", "--alpha", "1e-6"])
    assert rc == 0
    got = dict(line.split(" = ") for line in out.strip().split("\n"))
    assert got["phi_count"] == "0" and got["g_count"] == "22"
    assert got["prediction"] == got["prediction_at_M"] == "0"
    assert got["ratio"] == got["ratio_at_M"] == "nan"


def test_hensley_huge_alpha_admits_everything(capsys):
    rc, out, _ = run(capsys, ["hensley", "--C", "10", "--alpha", "1e9"])
    assert rc == 0
    got = dict(line.split(" = ") for line in out.strip().split("\n"))
    assert got["phi_count"] == "22" and got["g_count"] == "0"


def test_hensley_alpha_nan_is_rejected_and_inf_admits_everything(capsys):
    rc, out, err = run(capsys, ["hensley", "--C", "50", "--alpha", "nan"])
    assert rc == 2
    assert out == ""
    assert "validation error: need alpha > 0" in err
    rc, out, err = run(capsys, ["hensley", "--C", "50", "--alpha", "inf"])
    assert rc == 0
    got = dict(line.split(" = ") for line in out.strip().split("\n"))
    assert got["phi_count"] == "724" and got["g_count"] == "0"
    # the config line is JSON, so the infinite alpha is written as null
    config_line = err.splitlines()[0]
    assert config_line.startswith("config: ")
    assert strict_json(config_line[len("config: "):])["flags"]["alpha"] is None


def test_verify_cf_reports_broken_expand_per_pair(capsys, monkeypatch):
    # every scalar check goes through expand; the tables do not
    monkeypatch.setattr(contfrac, "expand", lambda a, c: ContinuedFraction.from_terms(0, (c,)))
    rc, out, err = run(capsys, ["verify", "--suite", "cf", "--cmax", "40"])
    assert rc == 1
    fails = [line for line in err.splitlines() if line.startswith("FAIL cf: ")]
    assert len(fails) > 1
    assert out == f"verify cf: {len(fails)} failure(s)\n"
    assert "Traceback" not in err and "certification error" not in err


def test_verify_cf_fails_on_a_perturbed_euclid_table(capsys, monkeypatch):
    real = contfrac._euclid_rows

    def perturbed(a, c):
        partials, n = real(a, c)
        row = (a == 3) & (c == 7)
        if row.any():
            partials = partials.copy()
            partials[row, 0] += 1  # 3/7 = [0;2,3] read as [0;3,3]
        return partials, n

    monkeypatch.setattr(contfrac, "_euclid_rows", perturbed)
    rc, out, err = run(capsys, ["verify", "--suite", "cf", "--cmax", "40"])
    assert rc == 1
    assert "FAIL cf: convergent is not a/c at (3, 7)" in err.splitlines()
    assert out.startswith("verify cf: ") and out.endswith(" failure(s)\n")


def test_verify_cf_fails_on_a_perturbed_reversal(capsys, monkeypatch):
    real = contfrac._convergents

    def perturbed(digits, reverse=False):
        p, q, p_prev, q_prev = real(digits, reverse)
        if reverse:
            p = p.copy()
            p[(p == 5) & (q == 7)] += 1  # 3/7 reversed is 5/7, read as 6/7
        return p, q, p_prev, q_prev

    monkeypatch.setattr(contfrac, "_convergents", perturbed)
    rc, out, err = run(capsys, ["verify", "--suite", "cf", "--cmax", "40"])
    assert rc == 1
    assert "FAIL cf: reversal is not d/c with a*d = 1 mod c at (3, 7)" in err.splitlines()
    assert out.startswith("verify cf: ") and out.endswith(" failure(s)\n")


def test_verify_korobov_fails_on_a_perturbed_kernel(capsys, monkeypatch):
    real = dedekind._korobov_kernel

    def perturbed(m):
        K = real(m)
        if m == 7:
            K[3] += 1000.0  # every sum_2(a, q) with 7 | q and a = 3 mod 7
        return K

    monkeypatch.setattr(dedekind, "_korobov_kernel", perturbed)
    rc, out, err = run(capsys, ["verify", "--suite", "korobov", "--qmax", "10"])
    assert rc == 1
    value = dedekind.korobov_sum_2(3, 7) + 1000.0
    limit = 18 * contfrac.max_partial_quotient(3, 7) * math.log(7) ** 2
    fails = [line for line in err.splitlines() if line.startswith("FAIL ")]
    assert fails[0] == f"FAIL korobov: sum_2(3, 7) = {value:.6g} > {limit:.6g}"
    assert out == f"verify korobov: {len(fails)} failure(s)\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--suite", "cf", "--cmax", "1"], "--cmax 1 leaves the cf suite nothing to check"),
        (["--suite", "korobov", "--qmax", "1"],
         "--qmax 1 leaves the korobov suite nothing to check"),
        (["--suite", "dw", "--kmax", "0"], "--kmax 0 leaves the dw suite nothing to check"),
        (["--suite", "agreement", "--trials", "0"],
         "--trials 0 leaves the agreement suite nothing to check"),
        (["--suite", "agreement", "--cmax", "10", "--trials", "3"],
         "--cmax 10 leaves the agreement suite nothing to check: need --cmax >= 25"),
        (["--suite", "all", "--cmax", "1"], "--cmax 1 leaves the cf suite nothing to check"),
    ],
    ids=["cf", "korobov", "dw", "agreement", "agreement_cmax", "all"],
)
def test_verify_with_nothing_to_check_is_a_validation_error(capsys, argv, message):
    rc, out, err = run(capsys, ["verify", *argv])
    assert rc == 2
    assert out == ""
    assert f"validation error (ValidationError): {message}" in err


def test_scan_alpha_nan_exits_two(capsys):
    rc, out, err = run(capsys, ["scan", *PAIR, "--C", "50", "--alpha", "nan"])
    assert rc == 2
    assert out == ""
    assert "validation error: alpha must be positive" in err
    assert "summary:" not in err


def test_scan_alpha_inf_writes_strict_json(capsys):
    rc, _, err = run(capsys, ["scan", *PAIR, "--C", "50", "--alpha", "inf"])
    assert rc == 0
    config_line, summary_line = err.splitlines()[0], err.splitlines()[-1]
    assert strict_json(config_line[len("config: "):])["flags"]["alpha"] is None
    assert summary_line.startswith("summary: ")
    summary = strict_json(summary_line[len("summary: "):])
    assert summary["alpha"] is None and summary["count"] == 0


def test_scan_stdout(capsys):
    rc, out, err = run(capsys, ["scan", *PAIR, "--C", "75", "--alpha", "0.1"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "c,a,d,D,cf_len,S_re,S_im,S_abs,bound_ratio,exceeds"
    data = [line.split(",") for line in lines[1:]]
    admissible = sum(
        1 for c in (25, 50, 75) for a in range(1, c) if math.gcd(a, c) == 1
    )
    assert len(data) == admissible
    assert "count = " in err
    assert "summary: {" in err


def test_scan_file_outputs(capsys, tmp_path):
    out_path = tmp_path / "records.csv"
    sum_path = tmp_path / "summary.json"
    rc, out, err = run(
        capsys,
        ["scan", *PAIR, "--C", "75", "--alpha", "0.1",
         "--out", str(out_path), "--summary", str(sum_path)],
    )
    assert rc == 0
    assert out == ""
    text = out_path.read_text()
    assert text.startswith("c,a,d,")
    summary = json.loads(sum_path.read_text())
    assert summary["C"] == 75
    assert summary["pair"][0] == {"q": 5, "index": 2}
    count_line = [l for l in err.split("\n") if l.startswith("count = ")][0]
    assert summary["count"] == int(count_line.split(" = ")[1])


def test_scan_workers_flag_is_accepted_and_ignored(capsys):
    argv = ["scan", *PAIR, "--C", "200", "--alpha", "0.01"]
    rc1, out1, _ = run(capsys, [*argv, "--workers", "1"])
    rc4, out4, _ = run(capsys, [*argv, "--workers", "4"])
    assert rc1 == rc4 == 0
    assert out1 == out4 and out1.startswith("c,a,d,")
    rc, out, err = run(capsys, [*argv, "--workers", "0"])
    assert rc == 2 and out == ""
    assert "--workers must be >= 1" in err


def test_scan_bad_out_path_is_io_error(capsys, tmp_path):
    rc, _, err = run(
        capsys,
        ["scan", *PAIR, "--C", "50", "--alpha", "0.1",
         "--out", str(tmp_path / "missing" / "x.csv")],
    )
    assert rc == 3
    assert "i/o error" in err


def test_certification_error_exits_one(capsys, monkeypatch):
    from newform_dedekind import characters

    real = characters.legendre_character

    def inflated(p):
        chi = real(p)
        chi.values = chi.values * 1000
        return chi

    monkeypatch.setattr(characters, "legendre_character", inflated)
    rc, _, err = run(capsys, ["compute", *PAIR, "--a", "6", "--c", "25",
                              "--method", "analytic"])
    assert rc == 1
    last = err.strip().split("\n")[-1]
    assert last.startswith("certification error: |S(6, 25)|")


def test_scan_both_disagreement_exits_one(capsys, monkeypatch):
    real = dedekind.s_double_sum_table

    def perturbed(*args):
        return [(a, d, value + 1e-3, bound) for a, d, value, bound in real(*args)]

    monkeypatch.setattr(dedekind, "s_double_sum_table", perturbed)
    rc, _, err = run(capsys, ["scan", *PAIR, "--C", "50", "--alpha", "1", "--method", "both"])
    assert rc == 1
    last = err.strip().split("\n")[-1]
    assert last.startswith("certification error: method disagreement 0.001 at (a=")


def test_compute_both_disagreement_exits_one_before_printing(capsys, monkeypatch):
    real = dedekind.s_double_sum

    def perturbed(*args):
        res = real(*args)
        return dataclasses.replace(res, value=res.value + 1e-3)

    monkeypatch.setattr(dedekind, "s_double_sum", perturbed)
    rc, out, err = run(capsys, ["compute", *PAIR, "--a", "6", "--c", "25"])
    assert rc == 1
    assert out == ""
    last = err.strip().split("\n")[-1]
    assert last.startswith("certification error: method disagreement 0.001 at (a=6, c=25)")


def test_moment_values(capsys):
    rc, out, _ = run(capsys, ["moment", *PAIR, "--c", "225"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "c,second_moment,exponent"
    c, m, expo = lines[1].split(",")
    assert c == "225"
    assert abs(float(m) - 4592) < 1e-3
    assert abs(float(expo) - math.log(4592) / math.log(225)) < 1e-6


@pytest.mark.parametrize("bad_c", ["1000000000", "30"], ids=["int64-limit", "not-multiple"])
def test_moment_checks_every_c_before_printing(capsys, bad_c):
    rc, out, err = run(capsys, ["moment", *PAIR, "--c", "225", "--c", bad_c])
    assert rc == 2
    assert out == ""
    assert err.strip().split("\n")[-1].startswith("validation error")


def test_largeval_rows(capsys):
    rc, out, _ = run(capsys, ["largeval", *PAIR, "--n", "1", "--kmax", "5"])
    assert rc == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "k" and "main_re" in header and "skipped" in header
    ik = header.index("k")
    imain = header.index("main_re")
    for line in lines[1:]:
        cells = line.split(",")
        assert abs(float(cells[imain]) - 2 * int(cells[ik])) < 1e-6
    # an empty k range is rejected, not emitted as a header-only CSV
    rc, out, err = run(capsys, ["largeval", *PAIR, "--n", "1", "--kmin", "5", "--kmax", "4"])
    assert rc == 2
    assert out == ""
    assert "validation error (ValidationError): need kmin <= kmax" in err


def test_largeval_jsonl_skipped_rows_are_strict_json(capsys):
    # a = 1 + c' shares a factor with c at k = 1 and 3, so those rows are skipped
    argv = ["largeval", "--q1", "3", "--chi1", "legendre", "--q2", "4", "--chi2", "idx:1",
            "--n", "1", "--kmax", "3"]
    values = ["S_re", "S_im", "main_re", "main_im", "residual", "normalized_residual"]

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    rc, out, _ = run(capsys, [*argv, "--format", "jsonl"])
    assert rc == 0
    rows = [json.loads(line, parse_constant=reject) for line in out.splitlines()]
    assert [row["skipped"] for row in rows] == [True, False, True]
    for row in rows:
        kinds = {type(row[k]) for k in values}
        assert kinds == ({type(None)} if row["skipped"] else {float})
    # CSV keeps nan in the skipped rows
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert out.splitlines()[1].split(",")[6:12] == ["nan"] * 6


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "cf", "--cmax", "60"],
        ["verify", "--suite", "dw", "--kmax", "2"],
        ["verify", "--suite", "agreement", "--trials", "5", "--cmax", "300"],
        ["verify", "--suite", "korobov", "--qmax", "50"],
    ],
)
def test_verify_suites_pass(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 0
    assert "ok" in out
    assert "FAIL" not in err


def test_cached_parser_keeps_no_state_between_calls(capsys):
    def config(argv):
        rc, _, err = run(capsys, argv)
        assert rc == 0
        line = err.splitlines()[0]
        assert line.startswith("config: ")
        return json.loads(line[len("config: "):])["flags"]

    assert cli._build_parser() is cli._build_parser()
    assert config(["verify", "--suite", "cf", "--cmax", "40"])["cmax"] == 40
    assert config(["verify", "--suite", "cf"])["cmax"] is None
    scan = ["scan", *PAIR, "--C", "50", "--alpha", "0.1"]
    assert config([*scan, "--exceedances-only"])["exceedances_only"] is True
    assert config(scan)["exceedances_only"] is False
