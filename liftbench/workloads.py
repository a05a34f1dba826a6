"""The benchmark workloads: CLI invocations, seeds and correctness gates.

A workload pass is a list of ``liftrec`` CLI invocations; each invocation is
one operation of the benchmark.  The gate of an invocation reads only the
CSV bytes it wrote and applies the acceptance gate's tolerances for that
pipeline.  Seeds reach the CLI only through ``--seed``.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass

import numpy as np

MAX_ITER = 50_000          # the CLI's default [solver] max_iter
CONVERGED = "converged"

CALDERON = "[grid]\nnx = 17\nny = 17\n[boundary]\nn_modes = 4\nm_basis = 4\n"
# criterion 11's exact solve tolerances (the noisy solve reads only tol_fp)
CALDERON_EXACT = CALDERON + "[solver]\ntol_gap = 1e-8\ntol_feas = 1e-9\n"
CALDERON_DELTAS = ("3e-3", "1e-3", "3e-4")
CRITERION_11_NOISE_SEED = 11

SWEEP_N = 121
SWEEP_Q0 = (-0.3, 0.3, 0.5)
SWEEP_DELTAS = (0.0, 1e-2, 1e-3)
SWEEP_JOBS = 2

PHASELIFT_INSTANCES = 32


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple          # CLI arguments; the runner adds --out


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict                      # file name -> config text
    plan: object                       # (seed, config dir) -> [Invocation]
    check: object                      # outputs -> failed labels
    quality: object                    # outputs -> (err_max, w_norm_max)
    expected_spans: tuple              # spans the traced run must record
    jobs1: bool = False                # traced runs add a --jobs 1 pass


def read_rows(data):
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def loglog_slope(deltas, errors):
    x = np.log(np.asarray(deltas, float))
    y = np.log(np.asarray(errors, float))
    x = x - x.mean()
    return float((x @ (y - y.mean())) / (x @ x))


def _solve_row_ok(row):
    status = row.get("status", CONVERGED)
    return status == CONVERGED and int(row["iters"]) < MAX_ITER


def _cfg(cfg_dir, name):
    return str(cfg_dir / name)


# ---------------------------------------------------------------------------
# boundary-recover: criterion 11's solve sequence through `calderon recover`.
# Run by hand only: one pass takes ~30 s, too long for a median of passes
# within a run, so BENCHMARK.json does not list it.


def _recover_plan(seed, cfg_dir):
    noise_seed = str(CRITERION_11_NOISE_SEED + seed)
    plan = [Invocation("exact", ("--config", _cfg(cfg_dir, "exact.cfg"),
                                 "--seed", noise_seed, "calderon", "recover"))]
    for delta in CALDERON_DELTAS:
        plan.append(Invocation(f"delta={delta}", (
            "--config", _cfg(cfg_dir, f"noisy_{delta}.cfg"),
            "--seed", noise_seed, "calderon", "recover")))
    return plan


def _recover_check(outputs):
    failed = set()
    noisy = []
    for label, files in outputs.items():
        rows = read_rows(files.get("recover.csv", b""))
        if len(rows) != 1 or not _solve_row_ok(rows[0]):
            failed.add(label)
            continue
        row = rows[0]
        if float(row["delta"]) == 0:
            if not float(row["rel_err_W"]) <= 1e-2:
                failed.add(label)
        else:
            noisy.append((label, float(row["delta"]), float(row["rel_err_W"])))
    if len(noisy) == len(CALDERON_DELTAS):
        slope = loglog_slope([d for _, d, _ in noisy], [e for _, _, e in noisy])
        if not 0.7 <= slope <= 1.3:
            failed.update(label for label, _, _ in noisy)
    return failed


def _recover_quality(outputs):
    errs = [float(r["rel_err_W"]) for files in outputs.values()
            for r in read_rows(files.get("recover.csv", b""))]
    return max(errs, default=0.0), 0.0


# ---------------------------------------------------------------------------
# boundary-certify: forward solves, certificate table and Gauss-Newton baseline


def _certify_plan(seed, cfg_dir):
    base = ("--config", _cfg(cfg_dir, "calderon.cfg"), "--seed", str(seed), "calderon")
    return [Invocation(task, base + (task,)) for task in ("forward", "certify", "baseline")]


def _certify_check(outputs):
    failed = set()
    expected = {"forward": "forward.csv", "certify": "certify.csv",
                "baseline": "baseline.csv"}
    for label, name in expected.items():
        if not read_rows(outputs.get(label, {}).get(name, b"")):
            failed.add(label)
    for row in read_rows(outputs.get("certify", {}).get("certify.csv", b"")):
        resid = float(row["max_tangent_residual"])
        if not (math.isnan(resid) or resid <= 1e-8):
            failed.add("certify")
    return failed


def _certify_quality(outputs):
    norms = [float(r["max_w_norm"])
             for r in read_rows(outputs.get("certify", {}).get("certify.csv", b""))]
    return 0.0, max((w for w in norms if not math.isnan(w)), default=0.0)


# ---------------------------------------------------------------------------
# internal-sweep: `internal sweep` through the CLI thread pool


def _sweep_plan(seed, cfg_dir, jobs=SWEEP_JOBS):
    # the sweep seeds its rows with seed + k, k < 9: stride 9 keeps seeds disjoint
    return [Invocation("sweep", ("--config", _cfg(cfg_dir, "sweep.cfg"),
                                 "--seed", str(len(SWEEP_Q0) * len(SWEEP_DELTAS) * seed),
                                 "--jobs", str(jobs), "internal", "sweep"))]


@functools.cache
def _sweep_q_norms():
    """L2 norms of the true step potentials, the scale of the exact-mode gate."""
    from liftrec.hilbert import assemble_inner_product, build_grid_1d
    from liftrec.pde1d import step_potential

    grid = build_grid_1d(SWEEP_N, 0.0, 1.0)
    l2 = assemble_inner_product(grid, "l2")
    return {q0: l2.norm(step_potential(grid, q0=q0).values) for q0 in SWEEP_Q0}


def _sweep_check(outputs):
    q_norms = _sweep_q_norms()
    rows = read_rows(outputs.get("sweep", {}).get("sweep.csv", b""))
    if len(rows) != len(SWEEP_Q0) * len(SWEEP_DELTAS):
        return {"sweep"}
    noisy = {}
    for row in rows:
        if not _solve_row_ok(row):
            return {"sweep"}
        q0, delta, err = float(row["q0"]), float(row["delta"]), float(row["err_L2"])
        if delta == 0:
            # criterion 2: relative error at most 1e-3
            if not err <= 1e-3 * q_norms[q0]:
                return {"sweep"}
        else:
            noisy.setdefault(q0, []).append((delta, err))
    for pairs in noisy.values():
        if not 0.8 <= loglog_slope(*zip(*pairs)) <= 1.2:
            return {"sweep"}
    return set()


def _sweep_quality(outputs):
    rows = read_rows(outputs.get("sweep", {}).get("sweep.csv", b""))
    return (max((float(r["err_L2"]) for r in rows), default=0.0),
            max((float(r["w_norm"]) for r in rows), default=0.0))


# ---------------------------------------------------------------------------
# phaselift: PSD trace minimization over many instance seeds


def _phaselift_plan(seed, cfg_dir):
    first = PHASELIFT_INSTANCES * seed
    return [Invocation(f"instance={s}", ("--config", _cfg(cfg_dir, "phaselift.cfg"),
                                         "--seed", str(s), "phaselift"))
            for s in range(first, first + PHASELIFT_INSTANCES)]


def _phaselift_check(outputs):
    failed = set()
    for label, files in outputs.items():
        rows = read_rows(files.get("phaselift.csv", b""))
        if len(rows) != 2 or not all(_solve_row_ok(r) for r in rows):
            failed.add(label)
        # criterion 10: noiseless error at most 1e-3
        elif not all(float(r["err"]) <= 1e-3 for r in rows if float(r["delta"]) == 0):
            failed.add(label)
    return failed


def _phaselift_quality(outputs):
    errs = [float(r["err"]) for files in outputs.values()
            for r in read_rows(files.get("phaselift.csv", b""))]
    return max(errs, default=0.0), 0.0


# ---------------------------------------------------------------------------

_SOLVE_SPANS = ("cli.main", "solvers.AffineOperator.apply_vec",
                "solvers.AffineOperator.adjoint_vec",
                "solvers.AffineOperator.opnorm_estimate")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="boundary-recover",
        configs={"exact.cfg": CALDERON_EXACT,
                 **{f"noisy_{d}.cfg": CALDERON + f"[noise]\ndelta = {d}\nc = 1\n"
                    for d in CALDERON_DELTAS}},
        plan=_recover_plan, check=_recover_check, quality=_recover_quality,
        expected_spans=_SOLVE_SPANS + (
            "calderon.build_calderon_problem", "calderon.solve_schrodinger_2d",
            "calderon.assemble_calderon_system", "solvers.solve_equality_nnm",
            "solvers.solve_regularized_constrained", "lowrank.svt_prox",
            "lowrank.nuclear_norm"),
    ),
    Workload(
        name="boundary-certify",
        configs={"calderon.cfg": CALDERON + "[sweep]\nn_list = 2,3,4\n"},
        plan=_certify_plan, check=_certify_check, quality=_certify_quality,
        expected_spans=(
            "cli.main", "calderon.build_calderon_problem",
            "calderon.solve_schrodinger_2d", "calderon.assemble_calderon_system",
            "calderon.precertificate_study", "certify.precertificate",
            "calderon.gauss_newton_baseline",
            "solvers.AffineOperator.adjoint_apply", "lowrank.operator_norm"),
    ),
    Workload(
        name="internal-sweep",
        configs={"sweep.cfg": f"[grid]\nn = {SWEEP_N}\n[sweep]\nq0_values = "
                              + ",".join(map(str, SWEEP_Q0))
                              + "\n[noise]\ndeltas = "
                              + ",".join(f"{d:g}" for d in SWEEP_DELTAS) + "\n"},
        plan=_sweep_plan, check=_sweep_check, quality=_sweep_quality,
        expected_spans=_SOLVE_SPANS + (
            "internal.build_internal_problem", "internal.assemble_internal_operator",
            "certify.precertificate", "solvers.solve_equality_nnm",
            "solvers.solve_regularized_nnm", "lowrank.svt_prox",
            "lowrank.nuclear_norm", "lowrank.operator_norm"),
        jobs1=True,
    ),
    Workload(
        name="phaselift",
        configs={"phaselift.cfg": "[phaselift]\nn = 20\nm = 120\n"
                                  "[noise]\ndeltas = 0,1e-3\n"},
        plan=_phaselift_plan, check=_phaselift_check, quality=_phaselift_quality,
        expected_spans=_SOLVE_SPANS + (
            "quadratic.recover_phaselift", "solvers.solve_psd_trace_min",
            "solvers.solve_equality_nnm", "solvers.solve_regularized_nnm",
            "solvers.psd_trace_prox"),
    ),
)}
