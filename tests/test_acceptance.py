"""The acceptance gate: every verification criterion, run in full.

One test per criterion; each prints a single pass/fail line so the
scorecard is readable straight off the pytest output (-s or the
captured stdout on failure).
"""

import time

import pytest

from kstab import verification
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
