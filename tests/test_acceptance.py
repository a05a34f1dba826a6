"""Acceptance gate: every criterion at its stated tolerance.

The whole suite runs once per session; each test asserts one criterion and
prints its pass/fail line.
"""

import pytest

from liftrec import acceptance


@pytest.fixture(scope="module")
def suite():
    results = acceptance.run_all(printer=None)
    return {r.index: r for r in results}


@pytest.mark.parametrize("index", sorted(acceptance.CRITERIA))
def test_criterion(suite, index):
    result = suite[index]
    print(result.line())
    assert result.passed, result.details


def test_bound_criterion_audits_every_noisy_solve(suite):
    # results come back in index order although criterion 8 runs last, and
    # it audits criterion 3's 20 internal rows and criterion 11's 3 boundary
    # rows
    assert list(suite) == sorted(acceptance.CRITERIA)
    assert suite[8].details["n_reports"] == 23
