"""End-to-end CLI tests over the real entry point."""

import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace
from itertools import product

import pytest

from kstab import SizeError, donaldson_futaki, gamma, rat, verification
from kstab.arrangements import MAX_BRAID_G
from kstab.cli import main
from kstab.flags import MAX_M, MAX_POINTS, MAX_S_DIGITS, UniPoly, flag_from_json

KSTAB = [sys.executable, "-m", "kstab"]


def run_cli(*args, stdin=None):
    return subprocess.run(
        KSTAB + list(args),
        input=stdin,
        capture_output=True,
        text=True,
    )


def run_json(*args, stdin=None):
    proc = run_cli(*args, stdin=stdin)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# lct


def test_lct_braid_golden():
    data = run_json("lct-braid", "--g", "5")
    assert data["lct"] == "2/5"
    assert {"rank": 4, "count": 10, "hyperplanes": list(range(10))} in data[
        "minimizers"
    ]


def test_lct_braid_precondition():
    proc = run_cli("lct-braid", "--g", "1")
    assert proc.returncode == 2
    assert "input error" in proc.stderr


def test_lct_braid_size_cap_exits_3():
    proc = run_cli("lct-braid", "--g", "1001")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "limit reached" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_lct_arrangement_from_file(tmp_path):
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps({"n": 2, "forms": [[1, 0], [0, 1], [1, 1]]}))
    data = run_json("lct-arrangement", "--file", str(tri))
    assert data["lct"] == "2/3"
    assert data["minimizers"] == [
        {"rank": 2, "count": 3, "hyperplanes": [0, 1, 2]}
    ]


ARR_DATA = pathlib.Path(__file__).parent / "data" / "arrangements"
ARR_EXPECTED = json.loads((ARR_DATA / "expected.json").read_text())


@pytest.mark.parametrize("name", sorted(ARR_EXPECTED))
def test_lct_arrangement_checked_in_outputs(name, capsys):
    for fmt, expected in ARR_EXPECTED[name].items():
        code = main(["lct-arrangement", "--file", str(ARR_DATA / name), "--format", fmt])
        out = capsys.readouterr()
        assert {"exit": code, "stdout": out.out, "stderr": out.err} == expected, fmt


def test_lct_arrangement_from_stdin():
    payload = json.dumps({"n": 2, "forms": [["1", "1/2"]]})
    data = run_json("lct-arrangement", "--file", "-", stdin=payload)
    assert data["lct"] == "1"


def test_lct_arrangement_bad_input(tmp_path):
    missing = run_cli("lct-arrangement", "--file", str(tmp_path / "nope.json"))
    assert missing.returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"forms": [[1,0]]}')
    proc = run_cli("lct-arrangement", "--file", str(bad))
    assert proc.returncode == 2
    assert "'n'" in proc.stderr


# ---------------------------------------------------------------------------
# gamma


def test_gamma_single_k():
    data = run_json("gamma-p1", "--k", "3")
    assert data == {"k": 3, "N": 7, "gamma_k": "6/7"}


def test_gamma_report():
    data = run_json("gamma-p1", "--k-max", "4")
    assert data["verdict"] == "semistable_not_stable"
    assert data["gamma"] == "1"
    assert [s["gamma_k"] for s in data["samples"]] == ["2/3", "4/5", "6/7", "8/9"]


def test_gamma_bad_k():
    assert run_cli("gamma-p1", "--k", "0").returncode == 2
    assert run_cli("gamma-p1").returncode == 2
    # both once printed the k = 2 sample with exit 0, --k-max unread
    proc = run_cli("gamma-p1", "--k", "2", "--k-max", "5")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "input error: pass one of --k and --k-max\n"
    )


def test_gamma_k_is_capped_only_by_lct_braid():
    assert run_json("gamma-p1", "--k", "7")["gamma_k"] == "14/15"
    proc = run_cli("gamma-p1", "--k", "500")  # N = 1001
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_gamma_k_max_cap_exits_3_before_sampling(monkeypatch, capsys):
    def no_sample(k):
        raise AssertionError(f"sampled k = {k} past the cap")

    monkeypatch.setattr(gamma, "gamma_at_k", no_sample)
    code = main(["gamma-p1", "--k-max", "500"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (
        3, "", "limit reached: lct_braid capped at g = 1000\n"
    )


# ---------------------------------------------------------------------------
# df


@pytest.fixture
def point_flag(tmp_path):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"M": 1, "divisors": [{"p": 1}]}))
    return str(path)


def test_df_reduced_point(point_flag):
    data = run_json("df", "--flag", point_flag, "--s", "1")
    assert data["DF"] == "1/2"
    assert data["DF0"] == "2"
    assert data["w_poly"] == ["0", "-1/2", "-1/2"]
    assert data["semiampleness_checked"] is False


def test_df_boundary_s(point_flag):
    data = run_json("df", "--flag", point_flag, "--s", "2")
    assert data["DF0"] == "0"


def test_df_trivial_flag(tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({"M": 1, "divisors": [{}]}))
    proc = run_cli("df", "--flag", str(path))
    assert proc.returncode == 2
    assert "isomorphism" in proc.stderr


def test_df_period_nine_flag_escalates(tmp_path):
    # the default grid mixes residue classes of this flag's weight; the
    # command escalates the grid base until 9 divides it
    path = tmp_path / "period9.json"
    path.write_text(
        json.dumps(
            {"divisors": [{"p": 2, "q": 2, "r": 2}, {"p": 4, "q": 2, "r": 3}]}
        )
    )
    data = run_json("df", "--flag", str(path))
    assert data["w_poly"] == ["0", "-26/9", "-32/9"]


def test_df_refines_a_coincidental_fit(tmp_path):
    # base 1 passes the grid test with DF0 = -2, but that fit gives
    # w(10) = -579 against the counted -577; base 5 reproduces every
    # multiple of 5 up to k*s = 480
    path = tmp_path / "flag.json"
    path.write_text(json.dumps({"divisors": [
        {"p": 2, "q": 1, "r": 2}, {"p": 2, "q": 2, "r": 3}, {"p": 3, "q": 3, "r": 4},
    ]}))
    data = run_json("df", "--flag", str(path))
    assert data["DF0"] == "36/5"
    assert data["k_grid"][0]["k"] == 10


@pytest.mark.parametrize("s", ["481", "961/2"], ids=["integer", "fractional"])
def test_df_scale_cap_exits_3(point_flag, s):
    # the first sample already needs k*s > MAX_KS = 480; a fractional s
    # samples at multiples of den(s), so 961/2 hits the cap at k = 2
    proc = run_cli("df", "--flag", point_flag, "--s", s)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "limit reached" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_df_saturated_base_grid(tmp_path):
    # every count saturates on the base-1 grid, where a blind fit reads
    # DF0 = 0; the closed form gives 8 - 8/25
    path = tmp_path / "fat25.json"
    path.write_text(json.dumps({"divisors": [{"p": 25}]}))
    data = run_json("df", "--flag", str(path))
    assert data["DF0"] == "192/25"


def test_df_flag_length_cap_exits_3(tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"divisors": [{"p": 1}] * (MAX_M + 1)}))
    proc = run_cli("df", "--flag", str(path))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert f"limit reached: flag length M capped at {MAX_M}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_df_point_count_cap_exits_3(tmp_path):
    # at s = 481 the first sample needs k*s > MAX_KS, so without the
    # point cap this exits 3 at once on the scale cap instead
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"divisors": [
        {f"p{i}": 1 for i in range(MAX_POINTS + 1)}
    ]}))
    proc = run_cli("df", "--flag", str(path), "--s", "481")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert f"limit reached: flag points capped at {MAX_POINTS}" in proc.stderr
    assert "Traceback" not in proc.stderr


# Fixed flags (M = 1..4, one to three points, fat point 16 and a flag
# that exits 3 with SizeError at s = 2/3 and 3/2) and the stdout, stderr
# and exit code `kstab df --flag F --s S --format FMT` gave for them
# with the full min-plus convolution (expected.json), and fat points 31,
# which answers at base 31 at s = 1 and 1/2, and 41, whose walk ends on
# the k*s cap at every s (expected_walk.json); any change must reproduce
# them byte for byte.  Run in-process through
# cli.main, and through the library call, which must answer as the
# command does.
DF_DATA = pathlib.Path(__file__).parent / "data" / "df"
DF_EXPECTED = {
    name: by_s
    for table in ("expected.json", "expected_walk.json")
    for name, by_s in json.loads((DF_DATA / table).read_text()).items()
}


@pytest.mark.parametrize("name,s", [(name, s) for name in DF_EXPECTED
                                    for s in DF_EXPECTED[name]])
def test_df_checked_in_outputs(name, s, capsys):
    for fmt, expected in DF_EXPECTED[name][s].items():
        code = main(["df", "--flag", str(DF_DATA / name), "--s", s, "--format", fmt])
        out = capsys.readouterr()
        assert {"exit": code, "stdout": out.out, "stderr": out.err} == expected, fmt
    expected = DF_EXPECTED[name][s]["json"]
    flag = flag_from_json(json.loads((DF_DATA / name).read_text()))
    if expected["exit"] == 0:
        report = donaldson_futaki(flag, rat(s))
        assert json.dumps(report.to_json()) + "\n" == expected["stdout"]
    else:
        # every recorded exit 3 is a size cap
        assert expected["exit"] == 3
        with pytest.raises(SizeError) as info:
            donaldson_futaki(flag, rat(s))
        assert f"limit reached: {info.value}\n" == expected["stderr"]


def test_df_long_denominator_exits_3():
    # w2 has den(s)^2 in its denominator: 4,400 digits here, past
    # Python's default int-to-string limit; the cap on den(s) exits
    # before any sample
    flag = str(DF_DATA / "reduced_point.json")
    proc = run_cli("df", "--flag", flag, "--s", "1/" + "9" * 2200)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", f"limit reached: denominator of s capped at {MAX_S_DIGITS} digits\n"
    )
    data = run_json("df", "--flag", flag, "--s", "1/99999999999")
    assert data["k_grid"][0]["k"] == 2 * 99999999999


def test_df_long_numerator_exits_3():
    # the k*s cap message would print 2 * num(s), 4,301 digits here, past
    # Python's default int-to-string limit; a 99-digit numerator keeps it
    flag = str(DF_DATA / "reduced_point.json")
    proc = run_cli("df", "--flag", flag, "--s", "5" + "0" * 4299)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", f"limit reached: numerator of s capped at {MAX_S_DIGITS} digits\n"
    )
    proc = run_cli("df", "--flag", flag, "--s", "5" + "0" * 98)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", f"limit reached: k*s capped at 480 (got 1{'0' * 99})\n"
    )


# ---------------------------------------------------------------------------
# summation


def test_check_summation(tmp_path):
    path = tmp_path / "sum.json"
    path.write_text(
        json.dumps(
            {
                "a0": {"n": 2, "generators": [[0, 0]]},
                "parts": [
                    {"n": 2, "generators": [[1, 0]]},
                    {"n": 2, "generators": [[0, 1]]},
                ],
                "c": "2",
            }
        )
    )
    data = run_json("check-summation", "--file", str(path))
    assert data["equal"] is True
    assert data["witness_denominator"] == 2
    assert data["lhs"] == {"n": 2, "generators": [[0, 1], [1, 0]]}
    assert data["rhs"] == data["lhs"]


def test_check_summation_text_keeps_each_generator_on_one_line(tmp_path):
    # J(z^3 (x^2, y^2)) = z^3 (x, y): two generators, two lines each side
    path = tmp_path / "sum.json"
    path.write_text(
        json.dumps(
            {
                "a0": {"n": 3, "generators": [[0, 0, 3]]},
                "c0": "1",
                "parts": [{"n": 3, "generators": [[2, 0, 0], [0, 2, 0]]}],
                "c": "1",
            }
        )
    )
    proc = run_cli("check-summation", "--file", str(path), "--format", "text")
    assert proc.returncode == 0
    side = ["  n: 3", "  generators:", "    - [0, 1, 3]", "    - [1, 0, 3]"]
    assert proc.stdout.splitlines() == [
        "equal: True", "witness_denominator: 1", "lhs:", *side, "rhs:", *side
    ]


def test_check_summation_scan_cap_exits_3(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(
        json.dumps(
            {
                "a0": {"n": 2, "generators": [[0, 0]]},
                "parts": [{"n": 2, "generators": [[100000, 0], [0, 100000]]}],
                "c": 1,
            }
        )
    )
    proc = run_cli("check-summation", "--file", str(path))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "limit reached" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_check_summation_scan_cap_past_printable_counts_exits_3(tmp_path, capsys):
    # the box has (d + 2)^2 prefixes, over 8,000 digits: more than Python
    # prints, so the message gives the count's length, not the count
    d = 10**4000
    path = tmp_path / "huger.json"
    path.write_text(
        json.dumps(
            {
                "a0": {"n": 3, "generators": [[0, 0, 0]]},
                "parts": [{"n": 3, "generators": [[d, 0, 0], [0, d, 0], [0, 0, 1]]}],
                "c": 1,
            }
        )
    )
    code = main(["check-summation", "--file", str(path)])
    out = capsys.readouterr()
    assert (code, out.out) == (3, "")
    assert out.err == (
        "limit reached: multiplier-ideal scan capped at 50000 prefixes "
        "(this product needs a count of more than 100 digits)\n"
    )


def test_check_summation_past_the_old_hull_cap(tmp_path, capsys):
    # a0 is the 84 monomials of degree 6 in 4 variables, whose hull with
    # the part the candidate enumeration refused (about 1.9 million
    # candidate normals): J(m^6 x_1) = x_1 m^3, 20 generators, at D = 1
    gens = [g for g in product(range(7), repeat=4) if sum(g) == 6]
    path = tmp_path / "hull.json"
    path.write_text(
        json.dumps(
            {
                "a0": {"n": 4, "generators": gens},
                "c0": 1,
                "parts": [{"n": 4, "generators": [[1, 0, 0, 0]]}],
                "c": 1,
            }
        )
    )
    code = main(["check-summation", "--file", str(path)])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    answer = json.loads(out.out)
    assert answer["equal"] is True and answer["witness_denominator"] == 1
    cube = [[1 + g[0], *g[1:]] for g in product(range(4), repeat=4) if sum(g) == 3]
    assert answer["lhs"] == answer["rhs"] == {"n": 4, "generators": sorted(cube)}


# Fixed instances (arity 2, 3 and 4, c with denominators 1 and 2, a
# refinement that stalls at D = 1 and 2 before growing at D = 4, a sweep
# that stops at its denom_bound and a product past the scan cap) and the
# stdout, stderr and exit code `kstab check-summation --file F --format
# FMT` gave for them before the staircase was swept line by line; any
# change must reproduce them byte for byte.  The oversized_* entries
# came later: the two caps that turned their tracebacks into exit 3.
# principal_parts.json (a principal a0 and part beside a two-generator
# part) was recorded before facet normals left principal factors out.
# confirm_past_scan_cap.json equals at D = 1, and the splitting (1/2, 1/2)
# at D = 2 needs 63,504 box prefixes: it exited 3 on the scan cap while
# the sweep built RHS(2D) to confirm RHS(D) = LHS, and answers since the
# sweep accepts at the first refinement equal to the LHS.
# equal_at_the_bound.json (recorded as inconclusive.json) equals at D = 1
# with denom_bound 1: it exited 3 while an answer also needed 2D within
# the bound, and answers since the sweep stops at its first proof.  The
# inconclusive.json of today is stalled.json with denom_bound 2, which
# has proven neither answer at D = 2.  past_hull_cap.json (a0 the 84
# monomials of degree 6 in 4 variables, one part x_1) was recorded when
# the hull became a double description: the candidate enumeration before
# it refused the sum's hull and exited 3.  past_sum_cap.json was recorded
# when each step of a Minkowski sum was capped: a0 is the 20 monomials of
# degree 3 in 4 variables at c0 = 1, the three parts are 200 monomials each
# of random.Random(1).sample(mons, 600), mons the 891 monomials of degree
# 20 in 4 variables with exponents <= 10, and c = 3.  Its splitting
# (0, 1, 2) at D = 1 needs 1,329 minimal partial sums of a0 and one part
# times 200 generators, 265,800 sums; the uncapped sweep answered equal at
# D = 1 after building that sum and larger ones.  nested_parts.json was
# recorded when parts inside another part's Newton polyhedron left the
# splittings: of its four parts (x^2, y) twice, (x^3, y^3) and (x, y^2),
# the repeat and (x^3, y^3) are dropped, so c = 40 has 41 splittings at
# D = 1, not C(43, 3) = 12,341, which exited 3 on the splitting cap.
SUMMATION_DATA = pathlib.Path(__file__).parent / "data" / "summation"
SUMMATION_EXPECTED = json.loads((SUMMATION_DATA / "expected.json").read_text())


@pytest.mark.parametrize("name", sorted(SUMMATION_EXPECTED))
def test_check_summation_checked_in_outputs(name, capsys):
    for fmt, expected in SUMMATION_EXPECTED[name].items():
        code = main(["check-summation", "--file", str(SUMMATION_DATA / name),
                     "--format", fmt])
        out = capsys.readouterr()
        assert {"exit": code, "stdout": out.out, "stderr": out.err} == expected, fmt


def test_check_summation_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"a0": {"n": 1, "generators": [[0]]}}))
    proc = run_cli("check-summation", "--file", str(path))
    assert proc.returncode == 2
    assert "parts" in proc.stderr


# ---------------------------------------------------------------------------
# verify


def test_verify_quick_deterministic():
    first = run_cli("verify", "--quick")
    second = run_cli("verify", "--quick")
    assert first.returncode == 0
    assert first.stdout == second.stdout  # byte-identical scorecard
    card = json.loads(first.stdout)
    assert card["all_pass"] is True
    assert len(card["criteria"]) == 10
    assert [c["id"] for c in card["criteria"]] == [
        "C01-braid-lct",
        "C02-diagonal-discrepancy",
        "C03-gamma-p1",
        "C04-vandermonde",
        "C05-df-closed-forms",
        "C06-weight-sign-polynomiality",
        "C07-min-plus-oracle",
        "C08-df-nonnegative-probe",
        "C09-summation-formula",
        "C10-multiplier-laws",
    ]
    # per-criterion timings go to stderr only
    assert "PASS" in first.stderr


VERIFY_DATA = pathlib.Path(__file__).parent / "data" / "verify"


@pytest.mark.parametrize("name,extra", [
    ("quick.json", ["--quick"]),
    ("full.json", []),
    ("quick.txt", ["--quick", "--format", "text"]),
])
def test_verify_checked_in_outputs(name, extra, capsys):
    code = main(["verify", "--seed", "42", *extra])
    assert code == 0
    assert capsys.readouterr().out == (VERIFY_DATA / name).read_text()


def test_verify_failing_criterion_exits_1(monkeypatch, capsys):
    # the whole scorecard still reaches stdout; only the exit code and
    # the stderr line tell a failure apart
    def forced(quick, seed):
        return False, "forced failure"

    monkeypatch.setattr(
        verification, "CRITERIA", [("C01-braid-lct", forced)] + verification.CRITERIA[1:]
    )
    code = main(["verify", "--seed", "42", "--quick"])
    out = capsys.readouterr()
    card = json.loads((VERIFY_DATA / "quick.json").read_text())
    card["criteria"][0].update({"pass": False, "detail": "forced failure"})
    card["all_pass"] = False
    assert code == 1
    assert out.out == json.dumps(card) + "\n"
    assert "C01-braid-lct: FAIL (" in out.err


def test_verify_reports_a_wrong_determinant_as_c04_fail(monkeypatch, capsys):
    # veronese_determinant returns the expansion unchecked; C04 alone
    # compares it with the Vandermonde product, so a wrong one is a
    # failing criterion, not a traceback
    def wrong(k):
        return {(0,) * (2 * k + 1): 1}

    monkeypatch.setattr(verification, "veronese_determinant", wrong)
    assert verification.check_vandermonde(quick=True) == (
        False, "determinant mismatch at k = 1"
    )
    code = main(["verify", "--quick"])
    out = capsys.readouterr()
    card = json.loads(out.out)
    assert code == 1 and card["all_pass"] is False
    assert [c["id"] for c in card["criteria"] if not c["pass"]] == ["C04-vandermonde"]
    assert "C04-vandermonde: FAIL (" in out.err


def test_verify_reports_a_wrong_constant_term_as_c06_fail(monkeypatch, capsys):
    # C06 evaluates each report's w_poly at the grid's k from onset_k on,
    # so a constant term off by one is a failing criterion
    real = verification._df_corpus_reports

    def off_by_one(seed, quick):
        corpus, reports = real(seed, quick)
        return corpus, [
            replace(r, w_poly=UniPoly([r.w_poly.coeff(0) + 1, *r.w_poly.coeffs[1:]]))
            for r in reports
        ]

    monkeypatch.setattr(verification, "_df_corpus_reports", off_by_one)
    k = real(42, True)[1][0].onset_k
    assert verification.check_weight_sign_and_fit(quick=True) == (
        False, f"w_poly misses w({k}) at flag #0"
    )
    code = main(["verify", "--quick"])
    out = capsys.readouterr()
    card = json.loads(out.out)
    assert code == 1 and card["all_pass"] is False
    assert [c["id"] for c in card["criteria"] if not c["pass"]] == [
        "C06-weight-sign-polynomiality"
    ]
    assert "C06-weight-sign-polynomiality: FAIL (" in out.err


# lct-braid and gamma-p1 at fixed arguments, and the stdout, stderr and
# exit code `kstab COMMAND --format FMT` gave for them before every
# subcommand returned its payload to main; any change must reproduce
# them byte for byte.
CLI_EXPECTED = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli" / "expected.json").read_text()
)


@pytest.mark.parametrize("command", sorted(CLI_EXPECTED))
def test_lct_braid_and_gamma_checked_in_outputs(command, capsys):
    for fmt, expected in CLI_EXPECTED[command].items():
        code = main([*command.split(), "--format", fmt])
        out = capsys.readouterr()
        assert {"exit": code, "stdout": out.out, "stderr": out.err} == expected, fmt


def test_text_format_rendering():
    proc = run_cli("gamma-p1", "--k", "1", "--format", "text")
    assert proc.returncode == 0
    assert "gamma_k: 2/3" in proc.stdout


def test_unknown_subcommand_rejected():
    assert run_cli("frobnicate").returncode == 2


# a reader that left before the output was written, as `| head -n 1` may:
# once a BrokenPipeError traceback with exit 1, which also means a failing
# verify criterion; now 141, the status of a tool that SIGPIPE ended
@pytest.mark.parametrize("args", [
    ["lct-braid", "--g", "5"],
    ["verify", "--quick"],
    ["check-summation", "--file", str(SUMMATION_DATA / "arity3.json")],
    ["lct-arrangement", "--file", str(ARR_DATA / "scaled_generic.json"),
     "--format", "text"],
], ids=["lct-braid", "verify", "check-summation", "lct-arrangement-text"])
def test_a_closed_stdout_exits_141(args):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(KSTAB + args, stdout=write, stderr=subprocess.PIPE,
                              text=True)
    finally:
        os.close(write)
    assert proc.returncode == 141, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


# a reader that closed stderr: its messages are dropped, and the exit code
# and stdout are those of an open stderr (once exit 1 with nothing on stdout)
@pytest.mark.parametrize("args,code,stdout", [
    (["lct-braid", "--g", "0"], 2, ""),
    (["lct-braid", "--g", str(MAX_BRAID_G + 1)], 3, ""),
    (["verify", "--quick"], 0, (VERIFY_DATA / "quick.json").read_text()),
], ids=["input-error", "limit", "verify"])
def test_a_closed_stderr_keeps_exit_and_stdout(args, code, stdout):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(KSTAB + args, stdout=subprocess.PIPE, stderr=write,
                              text=True)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stdout) == (code, stdout)


# ---------------------------------------------------------------------------
# malformed input: typed errors, never a traceback

IDEAL = {"n": 1, "generators": [[1]]}
SUMMATION = {"a0": {"n": 1, "generators": [[0]]}, "parts": [IDEAL], "c": 1}

MALFORMED = {
    "summation-integer": ("check-summation", 5),
    "summation-parts": ("check-summation", dict(SUMMATION, parts=5)),
    "summation-generators": (
        "check-summation",
        dict(SUMMATION, a0={"n": 1, "generators": 5}),
    ),
    "summation-bound-string": ("check-summation", dict(SUMMATION, denom_bound="8")),
    "summation-bound-bool": ("check-summation", dict(SUMMATION, denom_bound=True)),
    "ideal-n-bool": ("check-summation", dict(SUMMATION, parts=[dict(IDEAL, n=True)])),
    "exponent-bool": (
        "check-summation",
        dict(SUMMATION, parts=[dict(IDEAL, generators=[[True]])]),
    ),
    "arrangement-n-bool": ("lct-arrangement", {"n": True, "forms": [[1]]}),
    "multiplicity-bool": ("df", {"divisors": [{"p": True}]}),
    "flag-length-bool": ("df", {"M": True, "divisors": [{"p": 1}]}),
    "flag-length-float": ("df", {"M": 1.0, "divisors": [{"p": 1}]}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_json_is_an_input_error(tmp_path, case):
    command, doc = MALFORMED[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    option = "--flag" if command == "df" else "--file"
    proc = run_cli(command, option, str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("input error:")
    assert "Traceback" not in proc.stderr


# the engine's own typed errors, past the reader's checks
@pytest.mark.parametrize("doc,code,stderr", [
    (
        dict(SUMMATION, a0={"n": 5, "generators": [[0] * 5]},
             parts=[{"n": 5, "generators": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]}]),
        3,
        "limit reached: multiplier ideals capped at arity 4\n",
    ),
    (dict(SUMMATION, c="-1"), 2, "input error: exponents must be >= 0\n"),
], ids=["arity-5", "negative-c"])
def test_check_summation_engine_errors(tmp_path, capsys, doc, code, stderr):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["check-summation", "--file", str(path)]) == code
    assert capsys.readouterr() == ("", stderr)


# oversized input: a limit with exit 3, never a traceback; each of these
# once printed one or spent 12 s building 10**10000000

OVERSIZED = {
    "df-s-exponent": ("df", DF_DATA / "reduced_point.json", "--s", "1e10000000"),
    "form-exponent": (
        "lct-arrangement",
        {"n": 2, "forms": [[1, 0], [0, "1e10000000"]]},
    ),
    "summation-c-exponent": (
        "check-summation",
        SUMMATION_DATA / "oversized_exponent.json",
    ),
    "summation-height-arity-1": (
        "check-summation",
        SUMMATION_DATA / "oversized_height_arity1.json",
    ),
    "summation-height-arity-2": (
        "check-summation",
        SUMMATION_DATA / "oversized_height_arity2.json",
    ),
    # one past monomials.MAX_GENERATORS; 8,436 took 12 s to exit 3
    "summation-generators": (
        "check-summation",
        dict(SUMMATION, parts=[{"n": 1, "generators": [[e] for e in range(1025)]}]),
    ),
    # five parts of 205 minimal generators each: one past MAX_GENERATORS
    # summed, though each part is under it
    "summation-summed-generators": (
        "check-summation",
        dict(
            SUMMATION,
            a0={"n": 2, "generators": [[0, 0]]},
            parts=[{"n": 2, "generators": [[i, 204 - i] for i in range(205)]}] * 5,
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_input_is_a_limit(tmp_path, case):
    command, doc, *extra = OVERSIZED[case]
    if isinstance(doc, dict):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        doc = path
    option = "--flag" if command == "df" else "--file"
    proc = run_cli(command, option, str(doc), *extra)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("limit reached:")
    assert "Traceback" not in proc.stderr


# nesting past the recursion limit once printed a RecursionError traceback
# with exit 1, and a repeated key once kept its last value with exit 0:
# {"p": 1, "p": 2} was a point of multiplicity 2
UNPARSABLE = {
    "df-deep": ("df", "[" * 100000, "maximum recursion depth exceeded"),
    "df-repeated-key": (
        "df", '{"divisors": [{"p": 1, "p": 2}]}', "repeated key 'p'"
    ),
    "summation-deep": ("check-summation", "[" * 100000, "maximum recursion depth"),
    "summation-repeated-key": (
        "check-summation",
        '{"a0": {"n": 1, "generators": [[0]]}, '
        '"parts": [{"n": 1, "generators": [[1]]}], "c": 1, "c": 2}',
        "repeated key 'c'",
    ),
}


@pytest.mark.parametrize("case", sorted(UNPARSABLE))
def test_unparsable_json_is_an_input_error(tmp_path, case):
    command, text, reason = UNPARSABLE[case]
    path = tmp_path / "doc.json"
    path.write_text(text)
    option = "--flag" if command == "df" else "--file"
    proc = run_cli(command, option, str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"input error: malformed JSON in {path}: {reason}")
    assert "Traceback" not in proc.stderr


def test_unreadable_file_is_an_input_error(tmp_path):
    binary = tmp_path / "latin1.json"
    binary.write_bytes(b'{"n": 1, "forms": [["\xe9"]]}')
    for path in (tmp_path, binary):
        proc = run_cli("lct-arrangement", "--file", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("input error:")
        assert "Traceback" not in proc.stderr


def test_check_summation_split_cap_exits_3(tmp_path):
    # c = 40 over four parts is C(43, 3) = 12,341 splittings at D = 1
    path = tmp_path / "splits.json"
    path.write_text(
        json.dumps(
            {
                "a0": {"n": 2, "generators": [[0, 0]]},
                "parts": [
                    {"n": 2, "generators": [g]}
                    for g in ([2, 1], [1, 2], [3, 0], [0, 3])
                ],
                "c": 40,
            }
        )
    )
    proc = run_cli("check-summation", "--file", str(path))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "splittings" in proc.stderr
    assert "Traceback" not in proc.stderr
