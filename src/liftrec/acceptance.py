"""Acceptance gate: one callable per criterion, each pinned to its tolerance.

Every criterion returns a :class:`CriterionResult`; :func:`run_all` executes
them all, the bound criterion last so that it audits every noisy solve the
recovery criteria leave for it, and prints one pass/fail line per criterion
in index order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import calderon as cal
from . import certify, lowrank, quadratic, solvers
from ._blas import blas_threads, map_rows
from .hilbert import build_grid_1d, build_grid_2d
from .internal import (
    apriori_constant,
    assemble_internal_operator,
    build_internal_problem,
    certificate_norm,
    find_condition_interval,
    loglog_slope,
    make_measurements,
    noisy_row,
    prepare_rows,
    sufficient_condition,
)
from .pde1d import Potential1D, direct_division_oracle, step_potential


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    runtime: float = 0.0          # set by run_all

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} criterion {self.index}: {self.name} ({self.runtime:.1f}s)"


_TIGHT = solvers.SolverOptions(tol_gap=1e-9, tol_feas=1e-10)


def criterion_1():
    """Jump-size interval of the sufficient condition at n = 401."""
    t0 = time.time()
    lower, upper = find_condition_interval(n=401)
    runtime = time.time() - t0
    ok = (-0.75 <= lower <= -0.65) and (0.75 <= upper <= 0.85) and runtime <= 10.0
    return CriterionResult(1, "sufficient-condition interval located by bisection", ok,
                           {"lower": lower, "upper": upper, "solve_time": runtime})


def criterion_2():
    """Exact internal recovery for three jump sizes at n = 41."""
    grid = build_grid_1d(41, 0.0, 1.0)
    rows = []
    ok = True
    for q0 in (-0.3, 0.3, 0.5):
        t0 = time.time()
        # on one BLAS thread, as the CLI sweep's rows: the pre-certificate's
        # small factorizations run slower on two
        with blas_threads(1):
            state = prepare_rows(
                build_internal_problem(grid, step_potential(grid, q0=q0)), opts=_TIGHT)
        problem, cert, report = state.problem, state.cert, state.report
        oracle = direct_division_oracle(grid, problem.u_true)
        rel_err = problem.l2.norm(state.q_hat.values - oracle.values) \
            / problem.l2.norm(oracle.values)
        f_true = problem.model.matrix
        f_rel = float(np.linalg.norm(state.lift - f_true) / np.linalg.norm(f_true))
        elapsed = time.time() - t0
        ndsc_pass = cert is not None and cert.ndsc_pass
        row_ok = (
            ndsc_pass and rel_err <= 1e-3
            and report.extras["rank_ratio"] <= 1e-4
            and f_rel <= 1e-4 and elapsed <= 120.0
            and report.status == solvers.STATUS_CONVERGED
        )
        ok = ok and row_ok
        rows.append({
            "q0": q0, "ndsc_pass": ndsc_pass,
            "w_norm": np.nan if cert is None else cert.max_w_norm,
            "rel_err_vs_oracle": rel_err, "rank_ratio": report.extras["rank_ratio"],
            "f_rel_err": f_rel, "time": elapsed, "ok": row_ok,
        })
    return CriterionResult(2, "exact internal recovery with certificates", ok,
                           {"rows": rows})


def criterion_3(bound_reports):
    """Linear robustness rate over ``internal sweep``'s rows, five seeds each."""
    deltas = (1e-2, 3e-3, 1e-3, 3e-4)
    grid = build_grid_1d(41, 0.0, 1.0)
    with blas_threads(1):
        state = prepare_rows(build_internal_problem(grid, step_potential(grid, q0=0.5)))
    problem = state.problem
    f_ref = [problem.model.matrix]

    def one(task):
        delta, seed = task
        q_hat, f_white, report = noisy_row(state, delta, seed, delta)   # c = 1
        # the state noise's bound on the measurement perturbation
        delta_meas = delta * np.sqrt(1.0 + problem.q_true.integral ** 2)
        bounds = certify.robustness_bounds(
            state.op, [f_white], f_ref, [problem.model], state.cert.h_blocks,
            state.cert.p, delta / delta_meas, delta_meas,
        )
        return problem.l2.norm(q_hat.values - problem.q_true.values), report, bounds

    tasks = [(d, s) for d in deltas for s in range(5)]
    errs, reports, bounds = zip(*map_rows(one, tasks, 1))
    medians = [float(m) for m in np.median(np.reshape(errs, (len(deltas), 5)), axis=1)]
    slope = loglog_slope(deltas, medians)
    ok = 0.8 <= slope <= 1.2 and all(
        r.status == solvers.STATUS_CONVERGED for r in reports)
    bound_reports.extend(bounds)
    return CriterionResult(3, "linear robustness rate (internal)", ok,
                           {"slope": slope, "medians": dict(zip(deltas, medians)),
                            "noisy_iters": sum(r.iterations for r in reports)})


def criterion_4():
    """Certificate dominance and equality of the condition forms."""
    grid = build_grid_1d(41, 0.0, 1.0)
    rng = np.random.default_rng(42)
    ok = True
    worst_gap = -np.inf
    worst_form = 0.0
    for _ in range(50):
        amp1, amp2 = rng.uniform(0.0, 0.4, size=2)
        ph1, ph2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        q_vals = 1.0 + amp1 * np.sin(2 * np.pi * grid.nodes + ph1) \
            + amp2 * np.cos(4 * np.pi * grid.nodes + ph2)
        problem = build_internal_problem(grid, Potential1D(grid, q_vals))
        q_n = problem.q_normalized
        alpha = rng.uniform(q_n.min() - 0.5, q_n.max() + 0.5)
        exact, bound = certificate_norm(problem, float(alpha))
        worst_gap = max(worst_gap, exact - bound)
        ok = ok and exact <= bound + 1e-9
        lhs_n, lhs_u, _ = sufficient_condition(problem)
        form_gap = abs(lhs_n - lhs_u) / max(1.0, abs(lhs_n))
        worst_form = max(worst_form, form_gap)
        ok = ok and form_gap <= 1e-10
    return CriterionResult(4, "certificate norm dominated by analytic bound", ok,
                           {"worst_exact_minus_bound": worst_gap,
                            "worst_form_gap": worst_form})


def criterion_5():
    """A-priori tangent estimate and empirical constant domination."""
    grid = build_grid_1d(41, 0.0, 1.0)
    problem = build_internal_problem(grid, step_potential(grid, q0=0.5))
    op = assemble_internal_operator(problem)
    c_phi = apriori_constant(problem)
    rng = np.random.default_rng(5)
    u_n, q_n = problem.u_normalized, problem.q_normalized
    ok = True
    worst = -np.inf
    for _ in range(500):
        a = rng.standard_normal(grid.n)
        b = rng.standard_normal(grid.n)
        f_vals = np.outer(u_n, a) + np.outer(b, q_n)
        fw = problem.h2.whitener @ f_vals @ np.diag(np.sqrt(grid.quad_weights)).T
        f_norm = float(np.linalg.norm(fw))
        phi_norm = float(np.linalg.norm(op.apply([fw])))
        worst = max(worst, f_norm - c_phi * phi_norm)
        ok = ok and f_norm <= c_phi * phi_norm + 1e-9
    with blas_threads(1):
        sigma_min = certify.precertificate(op, [problem.model]).sigma_min
    ok = ok and (1.0 / sigma_min) <= c_phi
    return CriterionResult(5, "a-priori estimate on the tangent space", ok,
                           {"c_phi": c_phi, "inv_sigma_min": 1.0 / sigma_min,
                            "worst_slack": worst})


def criterion_6():
    """Subdifferential lemma suite and projector identities."""
    rng = np.random.default_rng(6)
    ok = True
    disagreements = 0
    for trial in range(200):
        n1 = rng.integers(3, 7)
        n2 = rng.integers(3, 7)
        u = rng.standard_normal(n1)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(n2)
        v /= np.linalg.norm(v)
        model = lowrank.RankOneModel(sigma=float(rng.uniform(0.5, 2.0)), u=u, v=v)
        kind = trial % 5
        if kind == 0:
            h = np.outer(u, v)
        elif kind == 1:
            w = lowrank.project_tangent_complement(rng.standard_normal((n1, n2)), model)
            wn = lowrank.operator_norm(w)
            scale = rng.choice([0.3, 0.9, 1.0 - 1e-9, 1.0 + 1e-9, 1.5])
            h = np.outer(u, v) + (scale / wn) * w if wn > 0 else np.outer(u, v)
        elif kind == 2:
            h = rng.standard_normal((n1, n2))
        elif kind == 3:
            h = np.outer(u, v) + 1e-3 * rng.standard_normal((n1, n2))
        else:
            h = 0.5 * np.outer(u, v)
        answers = [lowrank.subdiff_check(h, model, form=f)[0]
                   for f in ("i", "ii", "iii", "iv")]
        if len(set(answers)) != 1:
            disagreements += 1
            ok = False
    proj_defect = 0.0
    for _ in range(100):
        n1, n2 = 6, 5
        u = rng.standard_normal(n1)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(n2)
        v /= np.linalg.norm(v)
        model = lowrank.RankOneModel(sigma=1.0, u=u, v=v)
        m = rng.standard_normal((n1, n2))
        pt = lowrank.project_tangent(m, model)
        ptp = lowrank.project_tangent_complement(m, model)
        proj_defect = max(
            proj_defect,
            float(np.linalg.norm(lowrank.project_tangent(pt, model) - pt)),
            abs(float(np.sum(pt * ptp))),
            max(0.0, lowrank.operator_norm(ptp) - lowrank.operator_norm(m)),
        )
    ok = ok and proj_defect <= 1e-10
    return CriterionResult(6, "subdifferential equivalences and projectors", ok,
                           {"disagreements": disagreements,
                            "projector_defect": proj_defect})


def criterion_7():
    """Duality gap and per-block optimality link on converged solves."""
    checks = []
    ok = True

    # internal equality solve
    grid = build_grid_1d(41, 0.0, 1.0)
    problem = build_internal_problem(grid, step_potential(grid, q0=0.5))
    op = assemble_internal_operator(problem)
    z = make_measurements(problem)
    blocks, report = solvers.solve_equality_nnm(op, z, opts=_TIGHT)
    checks.append(("internal", op, z, blocks, report))

    # single-block identity operator
    rng = np.random.default_rng(7)
    ident = solvers.DenseOperator(np.eye(4), [(2, 2)])
    target = np.outer(rng.standard_normal(2), rng.standard_normal(2))
    blocks_i, report_i = solvers.solve_equality_nnm(ident, target.ravel(), opts=_TIGHT)
    checks.append(("identity", ident, target.ravel(), blocks_i, report_i))

    results = []
    for name, op_k, z_k, blocks_k, rep_k in checks:
        audit = solvers.duality_gap(blocks_k, rep_k.dual, op_k, z_k)
        link = max(abs(d) for d in audit.per_block)
        row_ok = (
            rep_k.status == solvers.STATUS_CONVERGED
            and abs(audit.gap) <= 1e-6 * (1.0 + rep_k.objective)
            and link <= 1e-6
            and not audit.flagged
        )
        ok = ok and row_ok
        results.append({"case": name, "gap": audit.gap, "link_defect": link,
                        "ok": row_ok})
    return CriterionResult(7, "strong duality audit on equality solves", ok,
                           {"cases": results})


def criterion_8(reports):
    """Bregman and prediction bounds on every noisy solve of the suite."""
    ok = len(reports) > 0 and all(r["all_ok"] for r in reports)
    worst_breg = max((r["bregman"] - r["bregman_bound"] for r in reports),
                     default=np.nan)
    worst_pred = max((r["prediction_error"] - r["prediction_bound"] for r in reports),
                     default=np.nan)
    return CriterionResult(8, "robustness bounds on noisy solves", ok,
                           {"n_reports": len(reports),
                            "worst_bregman_slack": worst_breg,
                            "worst_prediction_slack": worst_pred})


def criterion_9():
    """Prox correctness: KKT membership and the descent oracle."""
    rng = np.random.default_rng(9)
    ok = True
    worst_kkt = 0.0
    for _ in range(100):
        n1 = rng.integers(2, 9)
        n2 = rng.integers(2, 9)
        m = rng.standard_normal((n1, n2))
        tau = float(rng.uniform(0.1, 2.0))
        out = lowrank.svt_prox(m, tau)
        h = (m - out) / tau
        defect = max(
            max(0.0, lowrank.operator_norm(h) - 1.0),
            abs(float(np.sum(h * out)) - lowrank.nuclear_norm(out)),
        )
        worst_kkt = max(worst_kkt, defect)
        ok = ok and defect <= 1e-8

    def subgradient_oracle(ms, tau):
        # strongly convex objective (modulus 1): classical 2 / (k + 2) steps,
        # for a stack of matrices in lockstep.  The stacked SVD and products
        # act matrix by matrix; each objective value is a scalar expression
        # on its own matrix, since a batched norm sums in another order and
        # an array square may round differently from a scalar one.  So every
        # matrix follows its own run's iterates and best point bit for bit.
        x = ms.copy()
        best = x.copy()
        best_val = np.full(len(ms), np.inf)
        for k in range(1, 100_001):
            u_s, s, vt = np.linalg.svd(x, full_matrices=False)
            d = x - ms
            sub = d + tau * (u_s * (s > 1e-12)[:, None, :]) @ vt
            val = np.array([0.5 * np.linalg.norm(d_i) ** 2 + tau * s_i.sum()
                            for d_i, s_i in zip(d, s)])
            better = val < best_val
            best_val[better] = val[better]
            best[better] = x[better]
            x = x - (2.0 / (k + 2.0)) * sub
        return best

    ms = np.stack([np.random.default_rng(seed).standard_normal((3, 3))
                   for seed in (1, 2, 5)])
    refs = subgradient_oracle(ms, 0.7)
    oracle_gap = max(float(np.linalg.norm(ref - lowrank.svt_prox(m, 0.7)))
                     for m, ref in zip(ms, refs))
    ok = ok and oracle_gap <= 1e-6
    return CriterionResult(9, "SVT prox optimality", ok,
                           {"worst_kkt_defect": worst_kkt, "oracle_gap": oracle_gap})


def criterion_10():
    """PhaseLift recovery and its conditional robustness rate, on the rows
    of ``phaselift``: the exact row at seed 7, then three noisy sweeps on
    the first instance whose pre-certificate passes, noise bases 100, 200
    and 300."""
    t0 = time.time()
    (exact,) = quadratic.recover_rows(quadratic.make_phase_retrieval(5, 20, 7), (0.0,), 7,
                                      1.0, _TIGHT)
    ok = exact["err"] <= 1e-3 and exact["status"] == solvers.STATUS_CONVERGED

    # locate an instance whose pre-certificate verifies the source condition
    ndsc_seed = None
    cert_w = None
    for seed in range(7, 15):
        probe = quadratic.make_phase_retrieval(5, 20, seed)
        u = probe.x_true / np.linalg.norm(probe.x_true)
        model = lowrank.RankOneModel(sigma=1.0, u=u, v=u)
        cert = certify.precertificate(probe.op, [model], symmetric=True)
        if cert.ndsc_pass:
            ndsc_seed, cert_w = seed, cert.max_w_norm
            inst_v = probe
            break
    slope = None
    noisy = []
    if ndsc_seed is not None:
        deltas = (1e-1, 1e-2, 1e-3, 1e-4)
        runs = [quadratic.recover_rows(inst_v, deltas, base, 1.0, None)
                for base in (100, 200, 300)]
        noisy = [row for rows in runs for row in rows]
        medians = np.median([[row["err"] for row in rows] for rows in runs], axis=0)
        slope = loglog_slope(deltas, medians)
        ok = ok and 0.8 <= slope <= 1.2 and all(
            row["status"] == solvers.STATUS_CONVERGED for row in noisy)
    ok = ok and (time.time() - t0) <= 60.0
    return CriterionResult(10, "PhaseLift recovery and robustness", ok,
                           {"noiseless_err": exact["err"], "ndsc_seed": ndsc_seed,
                            "ndsc_w_norm": cert_w, "slope": slope,
                            "noisy_iters": sum(row["iters"] for row in noisy)})


def criterion_11(bound_reports):
    """Boundary-measurement pipeline at the configured desk scale."""
    t0 = time.time()
    grid = build_grid_2d(17)
    problem = cal.build_calderon_problem(grid, m=4, n_modes=4)
    system = cal.assemble_calderon_system(problem)
    f_true = [m.matrix for m in problem.models]
    resid = float(np.linalg.norm(system.op_full.apply(f_true) - system.z_full))
    ok = resid <= 1e-9

    cert, full_cert = cal.precertificate_study(problem, system, [2, 3, 4])
    table_ok = all(
        (np.isnan(row["max_tangent_residual"])
         or row["max_tangent_residual"] <= 1e-8)
        for row in cert
    )
    ok = ok and table_ok
    final = cert[-1]
    q_err = None
    slope = None
    noisy = []
    if final["max_w_norm"] < 1.0:
        # `calderon recover`'s rows: the exact solve, then a noisy sweep
        # feeding the bound criterion on the study's N = 4 certificate, the
        # system of problem.models.  The noisy solves read only tol_fp.
        deltas = (3e-3, 1e-3, 3e-4)
        opts = solvers.SolverOptions(tol_gap=1e-8, tol_feas=1e-9)
        (exact, _), *noisy = cal.recover_rows(problem, system, (0.0, *deltas), 11, 1.0,
                                              opts)
        q_err = exact["rel_err_W"]
        ok = ok and q_err <= 1e-2 and exact["status"] == solvers.STATUS_CONVERGED
        for row, blocks in noisy:
            bound_reports.append(certify.robustness_bounds(
                system.op_full, blocks, f_true, problem.models,
                full_cert.h_blocks, full_cert.p, 1.0, row["delta"],
            ))
        slope = loglog_slope(deltas, [row["rel_err_W"] for row, _ in noisy])
        ok = ok and 0.7 <= slope <= 1.3 and all(
            row["status"] == solvers.STATUS_CONVERGED for row, _ in noisy)
    elapsed = time.time() - t0
    ok = ok and elapsed <= 600.0
    return CriterionResult(11, "boundary-measurement pipeline", ok,
                           {"truth_residual": resid, "w_norm_table": cert,
                            "q_rel_err": q_err, "noisy_slope": slope,
                            "noisy_iters": sum(row["iters"] for row, _ in noisy),
                            "time": elapsed})


def criterion_12():
    """Forward-map derivative: convergence, symmetry, spectrum."""
    grid = build_grid_2d(17)
    problem = cal.build_calderon_problem(grid, m=4, n_modes=4)
    q = problem.q_values
    h = 0.5 * np.cos(np.pi * grid.xs) * np.sin(np.pi * grid.ys) + 0.3

    deriv = cal.frechet_derivative(problem, q, h)
    lam_0 = cal.dtn_map(grid, q, problem.bdry)
    errs = []
    for t in (1e-2, 1e-3, 1e-4):
        lam_t = cal.dtn_map(grid, q + t * h, problem.bdry)
        errs.append(float(np.linalg.norm((lam_t - lam_0) / t - deriv)))
    orders = [np.log10(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    ok = all(o >= 0.9 for o in orders)

    pairing = cal.derivative_pairing(problem, q, h)
    sym_defect = float(np.abs(pairing - pairing.T).max())
    ok = ok and sym_defect <= 1e-8

    profile = cal.compactness_diagnostic(problem, q, h, mode_counts=(4, 8, 12))
    tails_ok = all(np.all(np.diff(sv) <= 1e-12) for sv in profile.values())
    ok = ok and tails_ok
    return CriterionResult(12, "forward-map derivative checks", ok,
                           {"orders": orders, "symmetry_defect": sym_defect,
                            "profiles": {k: v.tolist() for k, v in profile.items()}})


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
}


def run_all(printer=print):
    """Run every acceptance criterion, time it, and print one line per result.

    Criteria 3 and 11 append their noisy-solve audits to one list, which the
    bound criterion (8) reads, so it runs after all the others.  Results are
    returned, and their lines printed, in index order: each line as soon as
    every lower index has one.
    """
    bound_reports = []
    runs = {**CRITERIA, 3: lambda: criterion_3(bound_reports),
            11: lambda: criterion_11(bound_reports)}
    del runs[8]                 # re-entered, so that it runs last
    runs[8] = lambda: criterion_8(bound_reports)
    indices = sorted(CRITERIA)
    done = {}
    printed = 0
    for idx, fn in runs.items():
        t0 = time.time()
        done[idx] = fn()
        done[idx].runtime = time.time() - t0
        while printed < len(indices) and indices[printed] in done:
            if printer is not None:
                printer(done[indices[printed]].line())
            printed += 1
    return [done[idx] for idx in indices]
