"""Acceptance battery as a test module.

Runs every criterion at its pinned tolerance and prints one pass/fail line
per criterion (run with ``pytest -s`` to see them as they complete; the same
battery backs ``glset selftest``).
"""

import pytest

from glset.selftest import ALL_CRITERIA, run_acceptance


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in run_acceptance(verbose=False)}


@pytest.mark.parametrize("number", [i + 1 for i in range(len(ALL_CRITERIA))])
def test_criterion(results, number):
    res = results[number]
    status = "PASS" if res.passed else "FAIL"
    print(f"[{status}] criterion {res.number:2d} {res.name}: {res.detail} "
          f"[{res.runtime_s:.1f}s]")
    assert res.passed, f"criterion {number} ({res.name}): {res.detail}"


def test_details_hold_no_timings(results):
    # the details go into the report body, which must not depend on how
    # long a criterion took
    assert [r.number for r in results.values() if "runtime" in r.detail] == []
