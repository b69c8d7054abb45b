"""The acceptance gate: every verification criterion, run in full.

One test per criterion; each prints a single pass/fail line so the
scorecard is readable straight off the pytest output (-s or the
captured stdout on failure).  Each criterion's failing branches are
reached too, with the engine it checks patched to answer wrongly.
"""

import ast
import json
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from kstab import MonomialIdeal, UniPoly, verification
from kstab.cli import main
from kstab.flags import flag_from_json
from kstab.verification import CRITERIA, check_braid_lct

SEED = 42


@pytest.mark.parametrize("cid,check", CRITERIA, ids=[cid for cid, _ in CRITERIA])
def test_criterion(cid, check):
    ok, detail = check(quick=False, seed=SEED)
    print(f"{cid}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{cid} failed: {detail}"


def test_braid_criterion_runtime_budget():
    # criterion 1 carries its own budget: < 10 s
    start = time.monotonic()
    ok, detail = check_braid_lct(quick=False, seed=SEED)
    assert ok, detail
    assert time.monotonic() - start < 10.0


@pytest.fixture
def df_reports():
    # no report made under a fake DF path may outlive the test
    cached = verification._df_corpus_reports
    cached.cache_clear()
    yield cached
    cached.cache_clear()


def test_df_report_cache_stays_within_its_bound(df_reports, monkeypatch):
    # the reports themselves do not matter here, only how many are kept
    monkeypatch.setattr(verification, "donaldson_futaki", lambda flag, s: flag)
    bound = df_reports.cache_info().maxsize
    for seed in range(bound + 3):
        corpus, reports = df_reports(seed, True)
        assert reports == corpus
        assert df_reports.cache_info().currsize <= bound
    assert df_reports(seed, True)[1] is reports


# Each criterion's failing branch, reached by patching the engine it checks
# to return a wrong value: (criterion, patched name, the patch as a function
# of the real one, the detail's fixed prefix).
SQUARE = [(MonomialIdeal(2, [(1, 0), (0, 1)]), Fraction(2))]


def _positive_weight(real):
    def fake(flag, s):
        report = real(flag, s)
        return replace(report, k_grid=replace(report.k_grid, entries=((1, 1),)))
    return fake


def _wrong_square(real):
    def fake(prod):
        return MonomialIdeal.unit(2) if prod == SQUARE else real(prod)
    return fake


FAILING = {
    "C01-value": (
        "C01-braid-lct", "lct_braid",
        lambda real: lambda g: replace(real(g), value=Fraction(0)),
        "lct_braid(2) = 0 != 2/2",
    ),
    "C01-cross-check": (
        "C01-braid-lct", "lct_central",
        lambda real: lambda arr: replace(real(arr), minimizers=()),
        "braid/matrix certificates disagree at g = 2",
    ),
    "C02": (
        "C02-diagonal-discrepancy", "diagonal_discrepancy",
        lambda real: lambda g, c: real(g, c) + 1,
        "discrepancy at g = 2 is 0",
    ),
    "C03-sample": (
        "C03-gamma-p1", "gamma_at_k",
        lambda real: lambda k: replace(real(k), gamma_k=Fraction(1)),
        "gamma sample at k = 1 is 1",
    ),
    "C03-limit": (
        "C03-gamma-p1", "gamma_report",
        lambda real: lambda k_max: {**real(k_max), "gamma": Fraction(2)},
        "limit or verdict wrong",
    ),
    "C05-weight": (
        "C05-df-closed-forms", "donaldson_futaki",
        lambda real: lambda flag, s: replace(real(flag, s), w_poly=UniPoly([1])),
        "w(k) mismatch for [{'p': 1}], s=1",
    ),
    "C05-DF0": (
        "C05-df-closed-forms", "donaldson_futaki",
        lambda real: lambda flag, s: replace(real(flag, s), DF0=Fraction(3)),
        "DF0 for [{'p': 1}], s=1: 3 != 2",
    ),
    "C06": (
        "C06-weight-sign-polynomiality", "donaldson_futaki", _positive_weight,
        "positive weight at flag #0, k = 1",
    ),
    "C07": (
        "C07-min-plus-oracle", "tilde_divisors",
        lambda real: lambda flag, ks: replace(real(flag, ks), divisors=()),
        "min-plus mismatch at flag #0, ks = 1",
    ),
    "C08": (
        "C08-df-nonnegative-probe", "donaldson_futaki",
        lambda real: lambda flag, s: replace(real(flag, s), DF0=Fraction(-1)),
        "negative DF0 counterexample: ",
    ),
    "C09": (
        "C09-summation-formula", "summation_check",
        lambda real: lambda *args: replace(real(*args), equal=False),
        "splitting identity failed at instance #0: lhs ",
    ),
    "C10-law": (
        "C10-multiplier-laws", "multiplier_ideal",
        lambda real: lambda prod: MonomialIdeal.unit(prod[0][0].arity),
        "law divisor_factoring failed: [",
    ),
    "C10-square": (
        "C10-multiplier-laws", "multiplier_ideal", _wrong_square,
        "I((x,y)^2) != (x,y)",
    ),
    "C10-lct": (
        "C10-multiplier-laws", "lct_monomial",
        lambda real: lambda ideal: Fraction(1),
        "lct(x^2, y^3) = 1 != 5/6",
    ),
}


@pytest.mark.parametrize("case", sorted(FAILING))
def test_each_criterion_fails_cleanly(df_reports, monkeypatch, capsys, case):
    cid, name, patch, prefix = FAILING[case]
    monkeypatch.setattr(verification, name, patch(getattr(verification, name)))
    check = dict(CRITERIA)[cid]
    ok, detail = check(quick=True, seed=SEED)
    assert ok is False and detail.startswith(prefix), detail
    if cid == "C08-df-nonnegative-probe":
        # the counterexample artifact names the flag, readable as a flag
        artifact = ast.literal_eval(detail[len(prefix):])
        corpus, _ = df_reports(SEED, True)
        assert flag_from_json(artifact["flag"]) == corpus[0]
        assert artifact["DF0"] == "-1" and artifact["semiampleness_checked"] is False
    # the scorecard reaches stdout with the same detail, and the exit is 1
    code = main(["verify", "--quick", "--seed", str(SEED)])
    out = capsys.readouterr()
    card = json.loads(out.out)
    assert code == 1 and card["all_pass"] is False
    assert {"id": cid, "pass": False, "detail": detail} in card["criteria"]
    assert f"{cid}: FAIL (" in out.err and "Traceback" not in out.err
