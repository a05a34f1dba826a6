import json

import numpy as np
import pytest

from liftrec import lowrank
from liftrec.cli import (
    EXIT_MAX_ITER,
    INTERNAL_SCHEMA,
    emit_table,
    main,
    parse_config,
    read_table,
)
from liftrec.errors import ConfigError
from liftrec.internal import find_condition_interval

PHASELIFT_SCHEMA = [("n", int), ("m", int), ("delta", float), ("err", float),
                    ("rank_ratio", float), ("iters", int), ("status", str)]

GOOD_CONFIG = """
# internal recovery experiment
[experiment]
kind = internal
task = recover

[grid]
n = 21

[potential]
type = step
q0 = 0.5

[noise]
delta = 0
c = 1.0

[solver]
max_iter = 20000
tol_gap = 1e-8
"""


def test_parse_config_sections_and_comments():
    config = parse_config(GOOD_CONFIG)
    assert config.get("grid", "n", cast=int) == 21
    assert config.get("potential", "q0", cast=float) == 0.5
    assert config.get_list("noise", "deltas", default=(1.0,)) == [1.0]


@pytest.mark.parametrize("bad", [
    "[grid]\nn = 21\nunknown_key = 3\n",
    "[made_up_section]\nx = 1\n",
    "n = 21\n",
    "[grid]\nthis is not a pair\n",
    "[noise]\nseeds = 0,1\n",
    "[sweep]\nalphas = 0.1,0.2\n",
    "[solver]\nmomentum = true\n",
    "[solver]\nrho = 1\n",
])
def test_parse_config_rejects_bad_input(bad):
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_emit_table_round_trip(tmp_path):
    rows = [
        {"q0": 0.5, "lhs": 1.0 / 3.0, "pass": True, "w_norm": 0.25,
         "err_L2": 1.25e-13, "delta": 0.0, "lambda": 0.0, "iters": 75,
         "status": "converged"},
        {"q0": -0.3, "lhs": 0.9, "pass": False, "w_norm": float("nan"),
         "err_L2": 2.0, "delta": 1e-3, "lambda": 1e-3, "iters": 10_000,
         "status": "max_iter"},
    ]
    path = tmp_path / "table.csv"
    emit_table(rows, INTERNAL_SCHEMA, path)
    back = read_table(path, INTERNAL_SCHEMA)
    for row, got in zip(rows, back):
        for key, value in row.items():
            if isinstance(value, float) and np.isnan(value):
                assert np.isnan(got[key])
            else:
                assert got[key] == value


def test_emit_table_empty_and_schema_mismatch(tmp_path):
    path = tmp_path / "empty.csv"
    emit_table([], INTERNAL_SCHEMA, path)
    assert path.read_text().strip() == ",".join(n for n, _ in INTERNAL_SCHEMA)
    with pytest.raises(ValueError):
        emit_table([{"q0": 1.0}], INTERNAL_SCHEMA, tmp_path / "bad.csv")


def test_cli_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[grid]\nn = 21\nbogus = 1\n")
    code = main(["--config", str(cfg), "--out", str(tmp_path), "internal", "recover"])
    assert code == 2


def test_cli_missing_config_exits_2(tmp_path):
    code = main(["--config", str(tmp_path / "nope.cfg"), "internal", "recover"])
    assert code == 2


def test_cli_internal_recover_smoke(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(GOOD_CONFIG)
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "--seed", "3",
                 "internal", "recover"])
    assert code == 0
    rows = read_table(out / "recover.csv", INTERNAL_SCHEMA)
    assert len(rows) == 1
    assert rows[0]["err_L2"] <= 1e-6
    assert rows[0]["pass"] is True
    assert rows[0]["status"] == "converged"
    summary = json.loads((out / "summary.json").read_text())
    assert "versions" in summary and "timestamp" in summary


def test_cli_reruns_are_byte_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(GOOD_CONFIG)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["--config", str(cfg), "--out", str(out1), "--seed", "5",
                 "internal", "recover"]) == 0
    assert main(["--config", str(cfg), "--out", str(out2), "--seed", "5",
                 "internal", "recover"]) == 0
    assert (out1 / "recover.csv").read_bytes() == (out2 / "recover.csv").read_bytes()


def test_cli_internal_sweep_reports_max_iter_rows(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[grid]\nn = 21\n[sweep]\nq0_values = 0.3\n[noise]\ndeltas = 0,1e-2\n"
                   "[solver]\nmax_iter = 5\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--jobs", "2",
                 "internal", "sweep"]) == EXIT_MAX_ITER
    rows = read_table(out / "sweep.csv", INTERNAL_SCHEMA)
    assert [(r["iters"], r["status"]) for r in rows] == [(5, "max_iter")] * 2


def test_cli_phaselift_reports_max_iter_rows(tmp_path, caplog):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[noise]\ndeltas = 0,1e-3\n[solver]\nmax_iter = 5\n")
    out = tmp_path / "out"
    with caplog.at_level("WARNING", logger="liftrec"):
        assert main(["--config", str(cfg), "--out", str(out), "phaselift"]) \
            == EXIT_MAX_ITER
    rows = read_table(out / "phaselift.csv", PHASELIFT_SCHEMA)
    assert [(r["iters"], r["status"]) for r in rows] == [(5, "max_iter")] * 2
    assert "phaselift.csv: 2 of 2 rows stopped at max_iter" in caplog.text


def test_cli_internal_certify_emits_json(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[grid]\nn = 21\n[potential]\ntype = step\nq0 = 0.3\n")
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "internal", "certify"])
    assert code == 0
    report = json.loads((out / "certificate.json").read_text())
    assert report["ndsc_pass"] is True
    assert "sigma_min" in report and "w_norm" in report
    assert (out / "alpha_study.csv").exists()


@pytest.mark.parametrize("task", ["recover", "sweep"])
@pytest.mark.parametrize("potential", ["type = constant\nvalue = 2", "type = bogus"])
def test_cli_internal_rows_need_a_step_potential(tmp_path, task, potential):
    # the rows are keyed by the jump size q0, which only a step has
    cfg = tmp_path / "p.cfg"
    cfg.write_text(f"[grid]\nn = 21\n[potential]\n{potential}\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "internal", task]) == 2
    assert not list(out.glob("*.csv"))


def test_cli_certify_interval_follows_the_configured_step(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[grid]\nn = 101\n[potential]\njump_lo = 0.2\njump_hi = 0.8\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "certify"]) == 0
    interval = json.loads((out / "interval.json").read_text())
    expected = find_condition_interval(n=101, lo=0.2, hi=0.8)
    assert (interval["q0_lower"], interval["q0_upper"]) == expected
    assert expected != find_condition_interval(n=101)


def test_cli_certify_interval_follows_the_configured_boundary_data(tmp_path):
    # at n = 101, q0 = 0.5 meets the condition for f_a = f_b = 1 (lhs 0.592)
    # and fails it for f_a = 1, f_b = 3 (lhs 1.415)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[grid]\nn = 101\n[boundary]\nf_a = 1\nf_b = 3\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "certify"]) == 0
    interval = json.loads((out / "interval.json").read_text())
    assert (interval["q0_lower"], interval["q0_upper"]) \
        == find_condition_interval(n=101, f_a=1.0, f_b=3.0)
    assert not interval["q0_lower"] < 0.5 < interval["q0_upper"]
    lower, upper = find_condition_interval(n=101)
    assert lower < 0.5 < upper


def test_cli_internal_sweep_parallel_deterministic(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "[grid]\nn = 21\n[sweep]\nq0_values = -0.2,0.2\n[noise]\ndeltas = 0,1e-2,1e-3\n"
    )
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["--config", str(cfg), "--out", str(out1), "--jobs", "1",
                 "internal", "sweep"]) == 0
    assert main(["--config", str(cfg), "--out", str(out2), "--jobs", "2",
                 "internal", "sweep"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_cli_internal_recover_matches_one_q0_sweep(tmp_path):
    # recover rows and sweep rows run the same arithmetic under the same BLAS cap
    common = "[grid]\nn = 41\n[noise]\ndeltas = 0,1e-2\n"
    (tmp_path / "r.cfg").write_text(common + "[potential]\nq0 = 0.3\n")
    (tmp_path / "s.cfg").write_text(common + "[sweep]\nq0_values = 0.3\n")
    for name, task in (("r", "recover"), ("s", "sweep")):
        assert main(["--config", str(tmp_path / f"{name}.cfg"), "--out",
                     str(tmp_path / name), "--seed", "4", "internal", task]) == 0
    assert (tmp_path / "r" / "recover.csv").read_bytes() \
        == (tmp_path / "s" / "sweep.csv").read_bytes()


@pytest.mark.parametrize("config, task", [
    ("[grid]\nn = 41\n[sweep]\nq0_values = -0.3,0.3,0.5\n"
     "[noise]\ndeltas = 0,1e-2,1e-3\n", ("internal", "sweep")),
    ("[grid]\nnx = 9\nny = 9\n[boundary]\nn_modes = 4\nm_basis = 4\n"
     "[noise]\ndelta = 1e-3\nc = 1\n", ("calderon", "recover")),
], ids=["internal-sweep", "calderon-recover"])
def test_cli_solver_proxes_take_the_rank_one_step(tmp_path, monkeypatch, config, task):
    # svt_prox keeps only the thin SVD besides the certified rank-one step,
    # because the lifted iterates of these pipelines are certified rank one
    certified = []
    rank_one_svt = lowrank._rank_one_svt

    def spy(a, tau, n):
        x = rank_one_svt(a, tau, n)
        certified.append(x is not None)
        return x

    monkeypatch.setattr(lowrank, "_rank_one_svt", spy)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), *task]) == 0
    assert certified and all(certified)


def test_cli_phaselift_smoke(tmp_path):
    out = tmp_path / "out"
    code = main(["--out", str(out), "--seed", "7", "phaselift"])
    assert code == 0
    rows = read_table(out / "phaselift.csv", PHASELIFT_SCHEMA)
    assert rows[0]["err"] <= 1e-3
    assert rows[0]["status"] == "converged"


@pytest.mark.parametrize("flag", ["--n", "--m", "--noise"])
def test_cli_phaselift_takes_its_sizes_from_the_config(tmp_path, capsys, flag):
    # [phaselift] n, m and [noise] delta are the only way to set them
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "phaselift", flag, "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "phaselift.csv").exists()


def test_cli_calderon_certify_smoke(tmp_path):
    cfg = tmp_path / "cal.cfg"
    cfg.write_text("[grid]\nnx = 9\nny = 9\n[sweep]\nn_list = 1,2\n")
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "calderon", "certify"])
    assert code == 0
    text = (out / "certify.csv").read_text()
    assert text.startswith("N,sigma_min,max_w_norm")


def test_cli_calderon_forward_smoke(tmp_path):
    cfg = tmp_path / "cal.cfg"
    cfg.write_text("[grid]\nnx = 9\nny = 9\n[boundary]\nn_modes = 2\n")
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "calderon", "forward"])
    assert code == 0
    assert (out / "forward.csv").exists()
