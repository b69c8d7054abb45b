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
