"""The BLAS thread cap that sweeps run under."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from liftrec import _blas, acceptance, calderon, certify, cli, quadratic
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

    def row(state, delta, seed, c, opts):
        seen.append(tuple(_thread_counts()))
        b = a
        for _ in range(5):
            b = np.tanh(a @ b)
            seen.append(tuple(_thread_counts()))
        if seed == fail_at:
            raise RuntimeError("row failed")
        return {"lhs": 0.0, "pass": True, "w_norm": float(b[0, 0]),
                "err_L2": 0.0, "delta": delta, "lambda": c * delta, "iters": 0,
                "status": "converged"}, None
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
    monkeypatch.setattr(cli, "recover_row", _recording_row(seen))
    outcome = _run_sweep(tmp_path, jobs=3)
    assert outcome == {"code": 0}
    assert len(seen) == 24 * 6
    assert set(seen) == {(1,) * len(two_blas_threads)}
    assert _thread_counts() == two_blas_threads
    assert len(read_table(tmp_path / "out" / "sweep.csv", INTERNAL_SCHEMA)) == 24


def test_cap_is_restored_when_a_row_raises(tmp_path, monkeypatch, two_blas_threads):
    seen = []
    monkeypatch.setattr(cli, "recover_row", _recording_row(seen, fail_at=5))
    outcome = _run_sweep(tmp_path, jobs=3)
    assert str(outcome.get("error")) == "row failed"
    assert set(seen) == {(1,) * len(two_blas_threads)}
    assert _thread_counts() == two_blas_threads


def test_cap_is_a_no_op_without_a_library(tmp_path, monkeypatch, two_blas_threads):
    controls = _blas._loaded_controls()
    # the setters are looked up once per process: clear the cache so the
    # patched maps file is read, and again once the real one is back
    try:
        with monkeypatch.context() as patch:
            patch.setattr(_blas, "MAPS", str(tmp_path / "no-maps"))
            _blas._loaded_controls.cache_clear()
            assert _thread_counts() == []
            inside = _blas.map_rows(lambda _: [getter() for _, getter in controls],
                                    range(4), 2)
            assert inside == [two_blas_threads] * 4
            assert [getter() for _, getter in controls] == two_blas_threads
    finally:
        _blas._loaded_controls.cache_clear()


def test_setters_found_after_import_are_all_there_are():
    # a fresh process, so the cache fills at the first lookup after import
    probe = ("import liftrec.cli\n"
             "from liftrec import _blas\n"
             "print(len(_blas._loaded_controls()), "
             "len(_blas._loaded_controls.__wrapped__()))\n")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=JOIN_TIMEOUT, check=True)
    cached, fresh = map(int, proc.stdout.split())
    assert cached == fresh


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


CALDERON_CFG = "[grid]\nnx = 9\nny = 9\n[sweep]\nn_list = 2,3\n"
INTERNAL_CFG = "[grid]\nn = 21\n[noise]\ndeltas = 0,1e-3\n"
PHASELIFT_CFG = "[noise]\ndeltas = 0,1e-3\n"
# where each command's BLAS work runs, reached through the bindings it calls
RECORDED = ((calderon, "build_calderon_problem"), (calderon, "gauss_newton_baseline"),
            (quadratic, "solve_psd_trace_min"), (cli, "build_internal_problem"))
ONE_THREAD_COMMANDS = {
    "calderon forward": (CALDERON_CFG, ("calderon", "forward"),
                         {"build_calderon_problem"}),
    "calderon certify": (CALDERON_CFG, ("calderon", "certify"),
                         {"build_calderon_problem"}),
    "calderon baseline": (CALDERON_CFG, ("calderon", "baseline"),
                          {"build_calderon_problem", "gauss_newton_baseline"}),
    "phaselift": (PHASELIFT_CFG, ("phaselift",), {"solve_psd_trace_min"}),
    "internal recover": (INTERNAL_CFG, ("internal", "recover"), {"build_internal_problem"}),
    "certify": (INTERNAL_CFG, ("certify",), {"build_internal_problem"}),
}


class Stop(Exception):
    """Raised by a recording wrapper to end the command early."""


def _record(monkeypatch, module, name, seen, stop=False):
    """Wrap ``module.name`` to note the thread counts at each call."""
    fn = getattr(module, name)

    def recording(*args, **kwargs):
        seen.setdefault(name, []).append(tuple(_thread_counts()))
        if stop:
            raise Stop(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)


def _main(tmp_path, config, *argv):
    cfg = tmp_path / "rule.cfg"
    cfg.write_text(config)
    return main(["--config", str(cfg), "--out", str(tmp_path / "out"), *argv])


@pytest.mark.parametrize("command", sorted(ONE_THREAD_COMMANDS))
def test_commands_run_on_one_blas_thread(tmp_path, monkeypatch, two_blas_threads,
                                         command):
    config, argv, expected = ONE_THREAD_COMMANDS[command]
    seen = {}
    for module, name in RECORDED:
        _record(monkeypatch, module, name, seen)
    assert _main(tmp_path, config, *argv) == 0
    assert expected <= set(seen)
    assert {counts for calls in seen.values() for counts in calls} \
        == {(1,) * len(two_blas_threads)}
    assert _thread_counts() == two_blas_threads


def test_calderon_recover_keeps_the_thread_count(tmp_path, monkeypatch, two_blas_threads):
    # its dense operator products run faster on two threads
    seen = {}
    _record(monkeypatch, calderon, "solve_equality_nnm", seen, stop=True)
    with pytest.raises(Stop):
        _main(tmp_path, CALDERON_CFG, "calderon", "recover")
    assert seen == {"solve_equality_nnm": [tuple(two_blas_threads)]}
    assert _thread_counts() == two_blas_threads


def test_thread_count_is_restored_after_an_exception(tmp_path, monkeypatch,
                                                     two_blas_threads):
    seen = {}
    _record(monkeypatch, quadratic, "solve_psd_trace_min", seen, stop=True)
    with pytest.raises(Stop):
        _main(tmp_path, PHASELIFT_CFG, "phaselift")
    assert seen == {"solve_psd_trace_min": [(1,) * len(two_blas_threads)]}
    assert _thread_counts() == two_blas_threads


def test_thread_count_is_restored_after_a_config_error(tmp_path, capsys, two_blas_threads):
    assert _main(tmp_path, "[grid]\nnx = 2\nny = 2\n", "calderon", "forward") == 2
    assert "config error" in capsys.readouterr().err
    assert _thread_counts() == two_blas_threads
