"""The BLAS thread cap that sweeps run under."""

import sys
import threading

import numpy as np
import pytest

from liftrec import _blas, acceptance, certify, cli
from liftrec.cli import INTERNAL_SCHEMA, main, read_table

# 8 jump sizes x 3 noise levels: 24 rows, more than three workers can take at once
SWEEP_CFG = ("[grid]\nn = 21\n[sweep]\nq0_values = "
             + ",".join(f"{0.1 * k:.1f}" for k in range(1, 9))
             + "\n[noise]\ndeltas = 0,1e-2,1e-3\n")
JOIN_TIMEOUT = 120.0


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS at two threads, so a missing cap shows as 2."""
    controls = _blas._loaded_controls()
    if not controls:
        pytest.skip("no OpenBLAS library with a thread setter is loaded")
    previous = [getter() for _, getter in controls]
    for setter, _ in controls:
        setter(2)
    try:
        yield [2] * len(controls)
    finally:
        for (setter, _), count in zip(controls, previous):
            setter(count)


def _thread_counts():
    """Current thread count of every loaded OpenBLAS library, in load order."""
    return [getter() for _, getter in _blas._loaded_controls()]


def _recording_row(seen, fail_at=None):
    """A row function that samples the thread counts around some BLAS work."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((120, 120))

    def row(config, q0, delta, seed, c, opts):
        seen.append(tuple(_thread_counts()))
        b = a
        for _ in range(5):
            b = np.tanh(a @ b)
            seen.append(tuple(_thread_counts()))
        if seed == fail_at:
            raise RuntimeError("row failed")
        return {"q0": q0, "lhs": 0.0, "pass": True, "w_norm": float(b[0, 0]),
                "err_L2": 0.0, "delta": delta, "lambda": c * delta, "iters": 0,
                "status": "converged"}
    return row


def _run_sweep(tmp_path, jobs):
    """`internal sweep` in a thread joined with a timeout; returns its error."""
    cfg = tmp_path / "s.cfg"
    cfg.write_text(SWEEP_CFG)
    outcome = {}

    def target():
        try:
            outcome["code"] = main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                                    "--jobs", str(jobs), "internal", "sweep"])
        except RuntimeError as exc:
            outcome["error"] = exc

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        worker = threading.Thread(target=target)
        worker.start()
        worker.join(JOIN_TIMEOUT)
    finally:
        sys.setswitchinterval(switch)
    assert not worker.is_alive(), "sweep did not finish in time"
    return outcome


def test_sweep_rows_run_on_one_blas_thread(tmp_path, monkeypatch, two_blas_threads):
    seen = []
    monkeypatch.setattr(cli, "_internal_row", _recording_row(seen))
    outcome = _run_sweep(tmp_path, jobs=3)
    assert outcome == {"code": 0}
    assert len(seen) == 24 * 6
    assert set(seen) == {(1,) * len(two_blas_threads)}
    assert _thread_counts() == two_blas_threads
    assert len(read_table(tmp_path / "out" / "sweep.csv", INTERNAL_SCHEMA)) == 24


def test_cap_is_restored_when_a_row_raises(tmp_path, monkeypatch, two_blas_threads):
    seen = []
    monkeypatch.setattr(cli, "_internal_row", _recording_row(seen, fail_at=5))
    outcome = _run_sweep(tmp_path, jobs=3)
    assert str(outcome.get("error")) == "row failed"
    assert set(seen) == {(1,) * len(two_blas_threads)}
    assert _thread_counts() == two_blas_threads


def test_cap_is_a_no_op_without_a_library(tmp_path, monkeypatch, two_blas_threads):
    controls = _blas._loaded_controls()
    monkeypatch.setattr(_blas, "MAPS", str(tmp_path / "no-maps"))
    assert _thread_counts() == []
    inside = _blas.map_rows(lambda _: [getter() for _, getter in controls], range(4), 2)
    assert inside == [two_blas_threads] * 4
    assert [getter() for _, getter in controls] == two_blas_threads


def _internal_certify(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[grid]\nn = 41\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                 "internal", "certify"]) == 0


PRE_CERTIFICATE_CALLERS = {
    "internal certify": _internal_certify,
    "criterion 2": lambda _: acceptance.criterion_2(),
    "criterion 3": lambda _: acceptance.criterion_3([]),
    "criterion 5": lambda _: acceptance.criterion_5(),
}


@pytest.mark.parametrize("caller", sorted(PRE_CERTIFICATE_CALLERS))
def test_pre_certificates_run_on_one_blas_thread(tmp_path, monkeypatch, two_blas_threads,
                                                 caller):
    # their small factorizations run faster on one thread than on two
    seen = []
    solve = certify._tangent_least_norm

    def recording(*args):
        seen.append(tuple(_thread_counts()))
        return solve(*args)

    monkeypatch.setattr(certify, "_tangent_least_norm", recording)
    PRE_CERTIFICATE_CALLERS[caller](tmp_path)
    assert seen and set(seen) == {(1,) * len(two_blas_threads)}
    assert _thread_counts() == two_blas_threads
