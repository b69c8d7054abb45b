"""End-to-end CLI tests over the real entry point."""

import json
import subprocess
import sys

import pytest

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


def test_gamma_k_is_capped_only_by_lct_braid():
    assert run_json("gamma-p1", "--k", "7")["gamma_k"] == "14/15"
    proc = run_cli("gamma-p1", "--k", "500")  # N = 1001
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


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


def test_df_unstabilized_grid_exits_3(tmp_path):
    path = tmp_path / "period9.json"
    path.write_text(
        json.dumps(
            {"divisors": [{"p": 2, "q": 2, "r": 2}, {"p": 4, "q": 2, "r": 3}]}
        )
    )
    proc = run_cli("df", "--flag", str(path))
    assert proc.returncode == 3
    assert "--k-base" in proc.stderr
    data = run_json("df", "--flag", str(path), "--k-base", "9")
    assert data["w_poly"] == ["0", "-26/9", "-32/9"]


@pytest.mark.parametrize("option", ["--k-max", "--k-base"])
def test_df_sample_size_cap_exits_3(point_flag, option):
    proc = run_cli("df", "--flag", point_flag, option, "100000000")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "limit reached" in proc.stderr
    assert "Traceback" not in proc.stderr


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


def test_text_format_rendering():
    proc = run_cli("gamma-p1", "--k", "1", "--format", "text")
    assert proc.returncode == 0
    assert "gamma_k: 2/3" in proc.stdout


def test_unknown_subcommand_rejected():
    assert run_cli("frobnicate").returncode == 2


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


def test_unreadable_file_is_an_input_error(tmp_path):
    binary = tmp_path / "latin1.json"
    binary.write_bytes(b'{"n": 1, "forms": [["\xe9"]]}')
    for path in (tmp_path, binary):
        proc = run_cli("lct-arrangement", "--file", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("input error:")
        assert "Traceback" not in proc.stderr
