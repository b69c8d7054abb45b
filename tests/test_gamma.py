"""Gibbs-type stability of P^1: determinants, samples, verdict."""

import json
import math
from fractions import Fraction

import pytest

from kstab import (
    InputError,
    SizeError,
    braid_arrangement,
    classify,
    gamma_at_k,
    gamma_report,
    lct_central,
    vandermonde_product,
    veronese_determinant,
)
from kstab import arrangements, gamma, verification
from kstab.cli import main
from kstab.gamma import gamma_report_json

F = Fraction


def test_determinant_k0_is_one():
    assert veronese_determinant(0) == {(0,): 1}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_determinant_matches_product(k):
    det = veronese_determinant(k)
    product = vandermonde_product(2 * k + 1)
    # det = prod_{i<j} (u_j - u_i), which has (2k+1)k sign flips
    assert det == {expo: (-1) ** k * c for expo, c in product.items()}
    assert len(det) == math.factorial(2 * k + 1)


def test_determinant_size_cap():
    with pytest.raises(SizeError):
        veronese_determinant(4)
    with pytest.raises(InputError):
        veronese_determinant(-1)
    # the product is capped at the determinant's size, before expanding
    with pytest.raises(SizeError, match=r"^Vandermonde product capped at 7 variables$"):
        vandermonde_product(8)


@pytest.mark.parametrize(
    "k,expected", [(1, F(2, 3)), (2, F(4, 5)), (3, F(6, 7)), (4, F(8, 9))]
)
def test_gamma_samples_closed_form(k, expected):
    sample = gamma_at_k(k)
    assert sample.gamma_k == expected
    assert sample.N == 2 * k + 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gamma_cross_oracle(k):
    generic = lct_central(braid_arrangement(2 * k + 1))
    assert gamma_at_k(k).gamma_k == k * generic.value


def test_gamma_sequence_monotone_below_one():
    values = [gamma_at_k(k).gamma_k for k in range(1, 7)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(0 < v < 1 for v in values)


def test_gamma_input_contracts():
    with pytest.raises(InputError):
        gamma_at_k(0)
    with pytest.raises(SizeError):
        gamma_at_k(500)  # N = 1001 is over lct_braid's cap


def test_report_cap_fails_before_any_sample(monkeypatch):
    def no_sample(k):
        raise AssertionError(f"sampled k = {k} past the cap")

    monkeypatch.setattr(gamma, "gamma_at_k", no_sample)
    with pytest.raises(SizeError, match=r"^lct_braid capped at g = 1000$"):
        gamma_report(500)  # its last sample needs N = 1001
    monkeypatch.setattr(gamma, "gamma_at_k", lambda k: k)
    assert gamma_report(499)["samples"] == list(range(1, 500))  # N = 999


def test_report_builds_no_braid_certificate(monkeypatch):
    # gamma_at_k reads the braid lct's value; the certificate's Flat of
    # C(2k + 1, 2) hyperplanes is never built
    def no_flat(*args, **kwargs):
        raise AssertionError("a braid certificate was built")

    monkeypatch.setattr(arrangements, "Flat", no_flat)
    report = gamma_report(499)
    assert report["samples"][-1].gamma_k == F(998, 999)
    assert report["verdict"].kind == "semistable_not_stable"
    with pytest.raises(AssertionError, match="certificate was built"):
        arrangements.lct_braid(3)


def test_a_wrong_braid_value_fails_c03_only(monkeypatch, capsys):
    # gamma_at_k returns k * lct_braid_value(2k + 1) unchecked; C03 alone
    # compares it with 2k/(2k+1), so a wrong value is a failing
    # criterion, not a traceback
    monkeypatch.setattr(gamma, "lct_braid_value", lambda g: F(1, g))
    assert gamma_at_k(1).gamma_k == F(1, 3)
    assert verification.check_gamma(quick=True) == (
        False, "gamma sample at k = 1 is 1/3"
    )
    code = main(["verify", "--quick"])
    out = capsys.readouterr()
    card = json.loads(out.out)
    assert code == 1 and card["all_pass"] is False
    assert [c["id"] for c in card["criteria"] if not c["pass"]] == ["C03-gamma-p1"]
    assert "C03-gamma-p1: FAIL (" in out.err
    assert "Traceback" not in out.err


def test_verdict_thresholds():
    assert classify(F(5, 4)).kind == "stable"
    assert classify(1).kind == "semistable_not_stable"
    assert classify(F(2, 3)).kind == "not_semistable"


def test_report_certifies_gamma_one():
    report = gamma_report(4)
    assert [s.gamma_k for s in report["samples"]] == [
        F(2, 3),
        F(4, 5),
        F(6, 7),
        F(8, 9),
    ]
    assert report["gamma"] == 1
    assert report["verdict"].kind == "semistable_not_stable"
    # the limit certificate does not depend on where sampling stops
    assert gamma_report(1)["verdict"].kind == "semistable_not_stable"


def test_report_json_shape():
    data = gamma_report_json(2)
    assert data == {
        "samples": [
            {"k": 1, "N": 3, "gamma_k": "2/3"},
            {"k": 2, "N": 5, "gamma_k": "4/5"},
        ],
        "gamma": "1",
        "verdict": "semistable_not_stable",
    }
