import dataclasses
import json

import numpy as np
import pytest

from liftrec import calderon as cal
from liftrec import certify, cli, lowrank, quadratic, solvers
from liftrec.cli import (
    EXIT_MAX_ITER,
    INTERNAL_SCHEMA,
    PHASELIFT_SCHEMA,
    emit_table,
    main,
    parse_config,
    read_table,
)
from liftrec.errors import ConfigError
from liftrec.internal import find_condition_interval

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


def test_solver_options_take_the_library_defaults(monkeypatch):
    # an empty [solver] gives SolverOptions(), whatever its defaults are
    assert cli.KNOWN_KEYS["solver"] == {"max_iter", "tol_feas", "tol_gap", "tol_fp"}
    assert cli._solver_options(cli.ExperimentConfig()) == solvers.SolverOptions()

    @dataclasses.dataclass
    class Options(solvers.SolverOptions):
        max_iter: int = 7
        tol_gap: float = 1e-3

    monkeypatch.setattr(solvers, "SolverOptions", Options)
    assert cli._solver_options(cli.ExperimentConfig()) == Options()
    config = parse_config("[solver]\nmax_iter = 9\n")
    assert cli._solver_options(config) == Options(max_iter=9)


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


def test_cli_main_reuses_its_parser(tmp_path, monkeypatch):
    # the parser is built once per process, not once per call of main
    def build_parser():
        raise AssertionError("main rebuilt its parser")

    monkeypatch.setattr(cli, "build_parser", build_parser)
    cfg = tmp_path / "cal.cfg"
    cfg.write_text("[grid]\nnx = 9\nny = 9\n[boundary]\nn_modes = 2\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                 "calderon", "forward"]) == 0


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
    cfg.write_text("[phaselift]\nn = 20\nm = 120\n[noise]\ndeltas = 0,1e-3\n"
                   "[solver]\nmax_iter = 5\n")
    out = tmp_path / "out"
    with caplog.at_level("WARNING", logger="liftrec"):
        assert main(["--config", str(cfg), "--out", str(out), "phaselift"]) \
            == EXIT_MAX_ITER
    rows = read_table(out / "phaselift.csv", PHASELIFT_SCHEMA)
    assert [(r["iters"], r["status"]) for r in rows] == [(5, "max_iter")] * 2
    assert "phaselift.csv: 2 of 2 rows stopped at max_iter" in caplog.text


def test_cli_phaselift_checks_its_last_iteration(tmp_path):
    # at n = 5, m = 20 the exact solve's fifth iterate meets every
    # tolerance; the check at the last iteration reports it converged
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[noise]\ndeltas = 0\n[solver]\nmax_iter = 5\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "phaselift"]) == 0
    rows = read_table(out / "phaselift.csv", PHASELIFT_SCHEMA)
    assert [(r["iters"], r["status"]) for r in rows] == [(5, "converged")]


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


def test_cli_internal_sweep_reads_the_single_noise_level(tmp_path):
    # [noise] delta, like [noise] deltas, sets the sweep's noise levels
    common = "[grid]\nn = 21\n[noise]\ndelta = 1e-2\n"
    (tmp_path / "r.cfg").write_text(common + "[potential]\nq0 = 0.5\n")
    (tmp_path / "s.cfg").write_text(common + "[sweep]\nq0_values = 0.5\n")
    for name, task in (("r", "recover"), ("s", "sweep")):
        assert main(["--config", str(tmp_path / f"{name}.cfg"), "--out",
                     str(tmp_path / name), "--seed", "4", "internal", task]) == 0
    sweep = (tmp_path / "s" / "sweep.csv").read_bytes()
    assert sweep == (tmp_path / "r" / "recover.csv").read_bytes()
    assert read_table(tmp_path / "s" / "sweep.csv", INTERNAL_SCHEMA)[0]["delta"] == 1e-2


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
    # the default instance, and n = 1, whose 1 x 1 lift has one eigenvalue
    cfg = tmp_path / "one.cfg"
    cfg.write_text("[phaselift]\nn = 1\nm = 3\n[noise]\ndeltas = 0,1e-3\n")
    for name, config in (("default", []), ("one", ["--config", str(cfg)])):
        out = tmp_path / name
        assert main([*config, "--out", str(out), "--seed", "7", "phaselift"]) == 0
        rows = read_table(out / "phaselift.csv", PHASELIFT_SCHEMA)
        assert rows[0]["err"] <= 1e-3
        assert all(row["status"] == "converged" for row in rows)
    assert [row["rank_ratio"] for row in rows] == [0.0, 0.0]


def test_cli_phaselift_solves_its_rows_in_one_call(tmp_path, monkeypatch):
    calls = []
    recover_rows = quadratic.recover_rows

    def recording_rows(instance, deltas, seed, c, opts):
        calls.append((instance.n, tuple(deltas), seed, c))
        return recover_rows(instance, deltas, seed, c, opts)

    monkeypatch.setattr(quadratic, "recover_rows", recording_rows)
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[noise]\ndeltas = 0,1e-2,1e-3\nc = 2\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "3",
                 "phaselift"]) == 0
    assert calls == [(5, (0.0, 1e-2, 1e-3), 3, 2.0)]


@pytest.mark.parametrize("flag", [("--seed", "-1"), ("--jobs", "0"), ("--jobs", "-1")],
                         ids=["seed", "jobs_0", "jobs_negative"])
@pytest.mark.parametrize("command", [("phaselift",), ("calderon", "baseline"),
                                     ("internal", "recover")],
                         ids=["phaselift", "calderon", "internal"])
def test_cli_rejects_a_negative_seed_and_fewer_than_one_job(tmp_path, capsys, flag,
                                                             command):
    # each command draws noise or a start from --seed; --jobs K runs K threads
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[grid]\nn = 21\nnx = 9\nny = 9\n[noise]\ndelta = 1e-3\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "--out", str(out), *flag, *command])
    assert exc.value.code == 2
    assert f"argument {flag[0]}" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_cli_phaselift_solves_noisy_rows_at_c_times_delta(tmp_path):
    rows = {}
    for c in (1, 50):
        cfg = tmp_path / f"c{c}.cfg"
        cfg.write_text(f"[noise]\ndeltas = 0,1e-2\nc = {c}\n")
        out = tmp_path / f"out{c}"
        assert main(["--config", str(cfg), "--out", str(out), "--seed", "7",
                     "phaselift"]) == 0
        rows[c] = read_table(out / "phaselift.csv", PHASELIFT_SCHEMA)
    assert [r["lambda"] for r in rows[1]] == [0.0, 1e-2]
    assert [r["lambda"] for r in rows[50]] == [0.0, 50 * 1e-2]
    assert rows[1][0] == rows[50][0]
    assert rows[1][1]["err"] != rows[50][1]["err"]


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


def test_cli_calderon_certify_builds_the_largest_n_once(tmp_path, monkeypatch):
    # with fewer configured data than the largest N, the one problem built
    # and assembled carries the study's data; its table is that of a run
    # configured with them
    builds, assemblies = [], []
    build, assemble = cal.build_calderon_problem, cal.assemble_calderon_system
    monkeypatch.setattr(cal, "build_calderon_problem",
                        lambda *a, **k: builds.append(k["n_modes"]) or build(*a, **k))
    monkeypatch.setattr(cal, "assemble_calderon_system",
                        lambda p: assemblies.append(p.n_data) or assemble(p))
    tables = []
    for n_modes in (2, 4):
        cfg = tmp_path / f"cal{n_modes}.cfg"
        cfg.write_text(f"[grid]\nnx = 9\nny = 9\n[boundary]\nn_modes = {n_modes}\n"
                       "[sweep]\nn_list = 2,3,4\n")
        out = tmp_path / f"out{n_modes}"
        assert main(["--config", str(cfg), "--out", str(out), "calderon", "certify"]) == 0
        tables.append((out / "certify.csv").read_bytes())
    assert builds == assemblies == [4, 4]
    assert tables[0] == tables[1]


@pytest.mark.parametrize("config, task", [
    ("[grid]\nnx = 9\nny = 9\n[sweep]\nn_list = 2,3\n", ("calderon", "certify")),
    ("[grid]\nn = 21\n[potential]\ntype = step\nq0 = 0.3\n", ("internal", "certify")),
], ids=["calderon", "internal"])
def test_cli_precertificates_build_no_dense_tangent_map(tmp_path, monkeypatch, config,
                                                        task):
    # the tangent system is solved from its row runs; only an ill-conditioned
    # or failed Gram solve scatters the codomain-wide M_T for the thin SVD
    def dense_tangent_map(runs, rows):
        raise AssertionError("the dense tangent map was built")

    solves = []
    least_norm = certify._tangent_least_norm

    def spy(runs, rhs, rows):
        solves.append(rhs.size)
        return least_norm(runs, rhs, rows)

    monkeypatch.setattr(certify, "_dense_tangent_map", dense_tangent_map)
    monkeypatch.setattr(certify, "_tangent_least_norm", spy)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), *task]) == 0
    assert solves


def test_cli_calderon_recover_rows_equal_their_one_delta_runs(tmp_path):
    # every [noise] deltas level is a row, on one assembly and drawn from
    # --seed, so each row is the table of a run configured with that delta
    base = "[grid]\nnx = 9\nny = 9\n[boundary]\nn_modes = 4\nm_basis = 4\n[noise]\nc = 1\n"
    tables = {}
    for name, noise in (("all", "deltas = 1e-3,3e-4"), ("a", "delta = 1e-3"),
                        ("b", "delta = 3e-4")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(base + noise + "\n")
        out = tmp_path / name
        assert main(["--config", str(cfg), "--out", str(out), "--seed", "11",
                     "calderon", "recover"]) == 0
        tables[name] = (out / "recover.csv").read_text().splitlines()
    header, *rows = tables["all"]
    assert len(rows) == 2
    assert tables["a"] == [header, rows[0]]
    assert tables["b"] == [header, rows[1]]


@pytest.mark.parametrize("text, command", [
    ("[grid]\nnx = 2\nny = 2\n", ("calderon", "forward")),
    ("[grid]\nn = 2\n", ("internal", "recover")),
    ("[grid]\nnx = 9\nny = 9\n[boundary]\nm_basis = 5\n", ("calderon", "forward")),
    ("[grid]\nnx = 9\nny = 9\n[boundary]\nn_modes = 0\n", ("calderon", "forward")),
    ("[grid]\nnx = 9\nny = 9\n[sweep]\nn_list = 0,2\n", ("calderon", "certify")),
    ("[noise]\ndelta = 1e-3\nc = 0\n", ("internal", "recover")),
    ("[noise]\ndelta = 1e-3\nc = inf\n", ("internal", "recover")),
    ("[grid]\nnx = 9\nny = 9\n[noise]\ndelta = 1e-3\nc = 0\n", ("calderon", "recover")),
    ("[noise]\ndelta = -1e-3\n", ("internal", "recover")),
    ("[noise]\ndelta = -1e-3\n", ("phaselift",)),
    ("[noise]\ndelta = nan\n", ("internal", "recover")),
    ("[noise]\ndeltas = 0,nan\n", ("phaselift",)),
    ("[phaselift]\nm = 0\n", ("phaselift",)),
    ("[phaselift]\nn = 0\nm = 5\n", ("phaselift",)),
    # a 9 x 9 grid has 32 boundary nodes, room for 32 modes and no more
    ("[grid]\nnx = 9\nny = 9\n[boundary]\nn_modes = 33\n", ("calderon", "forward")),
    ("[grid]\nnx = 9\nny = 9\n[sweep]\nn_list = 2,33\n", ("calderon", "certify")),
    ("[grid]\nnx = 9\nny = 9\n[sweep]\nn_list = 2.7,4\n", ("calderon", "certify")),
    ("[boundary]\nf_a = -1\n", ("internal", "recover")),
    ("[boundary]\nf_b = nan\n", ("internal", "recover")),
    ("[potential]\nq0 = nan\n", ("internal", "recover")),
    ("[potential]\nbase = 0\n", ("internal", "recover")),
    ("[potential]\njump_lo = nan\n", ("internal", "recover")),
    ("[sweep]\nq0_values = -2\n", ("internal", "sweep")),
    ("[potential]\ntype = constant\nvalue = 0\n", ("internal", "certify")),
    ("[grid]\nnx = 9\nny = 9\n[potential]\ncoeffs = 1,2,3\n", ("calderon", "forward")),
    ("[grid]\nnx = 9\nny = 9\n[potential]\ncoeffs = nan,1,1,1\n", ("calderon", "forward")),
    # coefficients on which the scale functional is not positive
    ("[grid]\nnx = 9\nny = 9\n[potential]\ncoeffs = -1,-1,-1,-1\ng_functional = integral\n",
     ("calderon", "forward")),
    ("[grid]\nnx = 9\nny = 9\n[potential]\ncoeffs = -1,-1,-1,-1\ng_functional = subdomain\n",
     ("calderon", "forward")),
    ("[solver]\nmax_iter = 0\n", ("phaselift",)),
    ("[solver]\ntol_gap = nan\n", ("phaselift",)),
    ("[solver]\ntol_fp = -1\n", ("internal", "recover")),
    ("[grid]\nnx = 9\nny = 9\n[solver]\ntol_feas = 0\n", ("calderon", "recover")),
    # the 1-D second difference reads four nodes at each end
    ("[grid]\nn = 3\n", ("internal", "certify")),
    ("[grid]\nn = 3\n", ("certify",)),
    # a weight c * delta whose reciprocal overflows
    ("[noise]\ndeltas = 0,1e-3\nc = 1e-320\n", ("phaselift",)),
    ("[noise]\ndeltas = 0,1e-3\nc = 1e-320\n", ("internal", "recover")),
    ("[grid]\nnx = 9\nny = 9\n[noise]\ndeltas = 0,1e-3\nc = 1e-320\n",
     ("calderon", "recover")),
], ids=["nx", "n", "m_basis", "n_modes", "n_list", "c_internal", "c_inf", "c_calderon",
        "delta_internal", "delta_phaselift", "delta_nan", "deltas_nan", "phaselift_m",
        "phaselift_n", "n_modes_above_boundary", "n_list_above_boundary", "n_list_fraction",
        "f_a", "f_b_nan",
        "q0_nan", "base", "jump_lo_nan", "q0_values", "constant_value", "coeffs",
        "coeffs_nan", "integral", "subdomain", "max_iter", "tol_gap_nan", "tol_fp",
        "tol_feas_calderon", "n_3_internal_certify", "n_3_certify", "c_subnormal_phaselift",
        "c_subnormal_internal", "c_subnormal_calderon"])
def test_cli_out_of_range_values_exit_2(tmp_path, capsys, text, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), *command]) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_cli_calderon_grid_must_be_square(tmp_path):
    cfg = tmp_path / "cal.cfg"
    cfg.write_text("[grid]\nnx = 9\nny = 5\n[boundary]\nn_modes = 2\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                 "calderon", "forward"]) == 2


def test_cli_calderon_recover_exits_3_on_any_unconverged_status(tmp_path, monkeypatch):
    recover = cal.recover_calderon

    def infeasible(*args, **kwargs):
        q_hat, blocks, report = recover(*args, **kwargs)
        report.status = "infeasible_suspected"
        return q_hat, blocks, report

    monkeypatch.setattr(cal, "recover_calderon", infeasible)
    cfg = tmp_path / "cal.cfg"
    cfg.write_text("[grid]\nnx = 9\nny = 9\n[boundary]\nn_modes = 2\n[solver]\n"
                   "max_iter = 50\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "calderon", "recover"]) \
        == EXIT_MAX_ITER
    assert "infeasible_suspected" in (out / "recover.csv").read_text()


def test_cli_calderon_forward_smoke(tmp_path):
    cfg = tmp_path / "cal.cfg"
    cfg.write_text("[grid]\nnx = 9\nny = 9\n[boundary]\nn_modes = 2\n")
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "calderon", "forward"])
    assert code == 0
    assert (out / "forward.csv").exists()
