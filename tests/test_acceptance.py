"""Acceptance gate: every criterion at its stated tolerance.

The whole suite runs once per session; each test asserts one criterion and
prints its pass/fail line.
"""

import pytest

from liftrec import acceptance
from liftrec import calderon as cal
from liftrec import quadratic


@pytest.fixture(scope="module")
def run():
    """The suite's results by index, the data count of every Calderon system
    it assembles, and the noise levels and seed of every Calderon and every
    PhaseLift row solve."""
    assemblies, row_calls, phaselift_calls = [], [], []
    assemble, recover_rows = cal.assemble_calderon_system, cal.recover_rows
    phaselift_rows = quadratic.recover_rows

    def recording_rows(problem, system, deltas, seed, c, opts):
        row_calls.append((tuple(deltas), seed))
        return recover_rows(problem, system, deltas, seed, c, opts)

    def recording_phaselift_rows(instance, deltas, seed, c, opts):
        phaselift_calls.append((tuple(deltas), seed))
        return phaselift_rows(instance, deltas, seed, c, opts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cal, "assemble_calderon_system",
                   lambda problem: assemblies.append(problem.n_data) or assemble(problem))
        mp.setattr(cal, "recover_rows", recording_rows)
        mp.setattr(quadratic, "recover_rows", recording_phaselift_rows)
        results = acceptance.run_all(printer=None)
    return {r.index: r for r in results}, assemblies, row_calls, phaselift_calls


@pytest.fixture(scope="module")
def suite(run):
    return run[0]


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


def test_boundary_criterion_assembles_its_system_once(run):
    # criterion 11's certificate study reuses the N = 4 system it solves on
    assert run[1] == [4]


def test_boundary_criterion_solves_the_rows_of_calderon_recover(run):
    # criterion 11's exact and noisy solves are one `calderon recover` row loop
    assert run[2] == [((0.0, 3e-3, 1e-3, 3e-4), 11)]


def test_phaselift_criterion_solves_the_rows_of_phaselift(run):
    # criterion 10's exact row, then one noisy sweep per noise base
    deltas = (0.1, 0.01, 0.001, 0.0001)
    assert run[3] == [((0.0,), 7), (deltas, 100), (deltas, 200), (deltas, 300)]
