import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftrec import certify, cli
from liftrec.errors import EigenvalueHit
from liftrec.hilbert import build_grid_1d
from liftrec.internal import (
    alpha_study,
    apriori_constant,
    assemble_internal_operator,
    build_internal_problem,
    certificate_norm,
    closed_form_precertificate,
    extract_q_from_trace,
    loglog_slope,
    make_measurements,
    measurement_vector,
    noisy_row,
    optimal_alpha,
    prepare_rows,
    recover_internal,
    sufficient_condition,
)
from liftrec.pde1d import constant_potential, direct_division_oracle, step_potential
from liftrec.solvers import DenseOperator, SolverOptions

from oracles import dense_rank_one_maps, gram_dense, linear_system_oracle

TIGHT = SolverOptions(tol_gap=1e-9, tol_feas=1e-10)


@pytest.fixture(scope="module")
def step_instance():
    grid = build_grid_1d(41, 0.0, 1.0)
    problem, meas = build_internal_problem(grid, step_potential(grid, q0=0.5))
    return grid, problem, meas


def test_problem_invariants(step_instance):
    grid, problem, meas = step_instance
    assert problem.u_true.values.min() > 0
    assert problem.q_true.integral > 0
    assert problem.model.sigma > 0
    # measurements of a unit-potential instance reduce to the state itself
    p1, m1 = build_internal_problem(grid, constant_potential(grid, 1.0))
    assert np.allclose(m1.z2_values, p1.q_true.integral * p1.u_true.values)


def test_noiseless_z1_is_the_diagonal(step_instance):
    grid, problem, meas = step_instance
    diag_truth = problem.u_true.values * problem.q_true.values
    assert np.abs(meas.z1_values - diag_truth).max() < 1e-10


def test_truth_is_feasible(step_instance):
    grid, problem, meas = step_instance
    op = assemble_internal_operator(problem)
    z = measurement_vector(problem, meas)
    resid = np.linalg.norm(op.apply([problem.model.matrix]) - z)
    assert resid <= 1e-10 * (1 + np.linalg.norm(z))


def test_eigenvalue_hit_propagates():
    grid = build_grid_1d(31, 0.0, 1.0)
    lam1 = 4.0 / grid.h ** 2 * np.sin(np.pi * grid.h / 2.0) ** 2
    with pytest.raises((EigenvalueHit, ValueError)):
        build_internal_problem(grid, np.full(grid.n, -lam1))


def test_operator_adjoint_consistency(step_instance):
    grid, problem, meas = step_instance
    op = assemble_internal_operator(problem)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal(op.domain_dim)
        p = rng.standard_normal(op.codomain_dim)
        lhs = float(op.apply_vec(x) @ p)
        rhs = float(x @ op.adjoint_vec(p))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(5, 25), seed=st.integers(0, 2 ** 31 - 1))
def test_structured_operator_matches_its_dense_form(n, seed):
    rng = np.random.default_rng(seed)
    grid = build_grid_1d(n, 0.0, 1.0)
    problem, _ = build_internal_problem(grid, rng.uniform(0.2, 3.0, n))
    op = assemble_internal_operator(problem)
    dense = DenseOperator(op.matrix, op.domain_shapes)
    assert dense.matrix.shape == (2 * n, n * n)

    # the arithmetic is reordered, so agreement is to round-off of the norms
    tol = 1e-13 * np.abs(dense.matrix).sum()
    x = rng.standard_normal(op.domain_dim)
    p = rng.standard_normal(op.codomain_dim)
    u, v = rng.standard_normal((2, n))
    assert np.abs(op.apply_vec(x) - dense.apply_vec(x)).max() <= tol * np.abs(x).max()
    assert np.abs(op.adjoint_vec(p) - dense.adjoint_vec(p)).max() <= tol * np.abs(p).max()
    # the rank-one maps are the dense block contracted on one axis
    stack = dense.matrix.reshape(2 * n, n, n)
    left, right = dense_rank_one_maps(op, 0, u, v)
    assert np.abs(left - np.einsum("kab,a->kb", stack, u)).max() <= tol * np.abs(u).max()
    assert np.abs(right - np.einsum("kab,b->ka", stack, v)).max() <= tol * np.abs(v).max()
    assert np.abs(op.gram() - dense.gram()).max() <= tol * np.abs(dense.gram()).max()
    assert op.max_abs_entry() == dense.max_abs_entry()
    assert abs(op.opnorm_estimate - dense.opnorm_estimate) <= 1e-10 * dense.opnorm_estimate
    lhs = float(op.apply_vec(x) @ p)
    rhs = float(x @ op.adjoint_vec(p))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(op.apply_vec(x)) * np.linalg.norm(p)


def test_adjoint_matches_closed_form(step_instance):
    # the adjoint of (diagonal extraction, integration) is a kernel-weighted
    # diagonal term plus a rank-one term in the second argument
    grid, problem, meas = step_instance
    op = assemble_internal_operator(problem)
    rng = np.random.default_rng(1)
    g = rng.standard_normal(grid.n)              # L2 component of the dual
    w_vec = rng.standard_normal(grid.n)          # H2 component of the dual
    sqrtw = np.sqrt(grid.quad_weights)
    p = np.concatenate([sqrtw * g, problem.h2.whiten_vec(w_vec)])
    h_generic = op.adjoint_apply(p)[0]

    import scipy.linalg

    upper_t = problem.h2.whitener.T
    term_diag = scipy.linalg.solve_triangular(upper_t, np.diag(g * sqrtw), lower=True)
    h_closed = term_diag + np.outer(problem.h2.whiten_vec(w_vec), sqrtw)
    scale = np.linalg.norm(h_closed)
    assert np.linalg.norm(h_generic - h_closed) <= 1e-9 * scale


def test_adjoint_matches_kernel_form_unwhitened():
    # small instance where the explicit inverse Gram is well conditioned
    grid = build_grid_1d(15, 0.0, 1.0)
    problem, _ = build_internal_problem(grid, step_potential(grid, q0=0.3))
    op = assemble_internal_operator(problem)
    rng = np.random.default_rng(2)
    g = rng.standard_normal(grid.n)
    w_vec = rng.standard_normal(grid.n)
    sqrtw = np.sqrt(grid.quad_weights)
    p = np.concatenate([sqrtw * g, problem.h2.whiten_vec(w_vec)])
    h_white = op.adjoint_apply(p)[0]

    h_vals = problem.h2.unwhitener @ h_white @ problem.l2.unwhitener.T
    kernel = np.linalg.inv(gram_dense(grid, "h2"))
    h_expected = kernel @ np.diag(g) + np.outer(w_vec, np.ones(grid.n))
    assert np.linalg.norm(h_vals - h_expected) <= 1e-9 * np.linalg.norm(h_expected)


def test_exact_recovery(step_instance):
    grid, problem, meas = step_instance
    q_hat, f_white, report = recover_internal(problem, meas, opts=TIGHT)
    oracle = direct_division_oracle(problem.u_true)
    rel = problem.l2.norm(q_hat.values - oracle.values) / problem.l2.norm(oracle.values)
    assert rel <= 1e-3
    assert report.extras["rank_ratio"] <= 1e-4
    f_true = problem.model.matrix
    assert np.linalg.norm(f_white - f_true) <= 1e-4 * np.linalg.norm(f_true)


def test_exact_recovery_constant_potential():
    grid = build_grid_1d(41, 0.0, 1.0)
    problem, meas = build_internal_problem(grid, constant_potential(grid, 2.0))
    lhs, _, _ = sufficient_condition(problem)
    assert lhs == pytest.approx(0.0, abs=1e-12)      # no variation
    q_hat, _, report = recover_internal(problem, meas, opts=TIGHT)
    assert problem.l2.norm(q_hat.values - 2.0) <= 1e-6


def test_recover_rejects_nonpositive_weight(step_instance):
    grid, problem, meas = step_instance
    noisy = make_measurements(problem, delta=1e-3, seed=1)
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match="lambda must be positive"):
            recover_internal(problem, noisy, c=c)


def test_extract_q_from_trace(step_instance):
    grid, problem, meas = step_instance
    f_vals = np.outer(problem.u_true.values, problem.q_true.values)
    got = extract_q_from_trace(f_vals, problem)
    assert np.abs(got.values - problem.q_true.values).max() < 1e-12
    assert np.abs(extract_q_from_trace(np.zeros_like(f_vals), problem).values).max() == 0
    a = extract_q_from_trace(2.0 * f_vals, problem)
    assert np.allclose(a.values, 2.0 * got.values)


def test_linear_system_oracle(step_instance):
    grid, problem, meas = step_instance
    q_hat, f_hat = linear_system_oracle(problem, meas)
    oracle = direct_division_oracle(problem.u_true)
    # interior: both reduce to the same pointwise division
    assert np.abs(q_hat.values[1:-1] - oracle.values[1:-1]).max() < 1e-10
    assert np.linalg.matrix_rank(f_hat, tol=1e-10) == 1
    op = assemble_internal_operator(problem)
    z = measurement_vector(problem, meas)
    f_white = problem.h2.whitener @ f_hat @ problem.l2.whitener.T
    assert np.linalg.norm(op.apply([f_white]) - z) <= 1e-9 * (1 + np.linalg.norm(z))


def test_closed_form_certificate_interpolates(step_instance):
    grid, problem, meas = step_instance
    for alpha in (0.0, 0.5, 1.0):
        h = closed_form_precertificate(problem, alpha)
        assert np.linalg.norm(h.T @ problem.model.u - problem.model.v) <= 1e-8
        assert np.linalg.norm(h @ problem.model.v - problem.model.u) <= 1e-8


def test_certificate_norm_dominated(step_instance):
    grid, problem, meas = step_instance
    a_star = optimal_alpha(problem)
    exact, bound = certificate_norm(problem, a_star)
    assert exact <= bound + 1e-9
    assert bound < 1.0          # the sufficient condition holds at q0 = 0.5
    # far offsets grow linearly through the sup norm
    _, bound_far = certificate_norm(problem, a_star + 10.0)
    assert bound_far > 5.0 * bound


def test_certificate_norm_constant_potential():
    grid = build_grid_1d(31, 0.0, 1.0)
    problem, _ = build_internal_problem(grid, constant_potential(grid, 1.0))
    a_star = optimal_alpha(problem)
    exact, bound = certificate_norm(problem, a_star)
    assert exact == pytest.approx(0.0, abs=1e-10)
    assert bound == pytest.approx(0.0, abs=1e-12)


def test_alpha_study_reports_optimum(step_instance):
    grid, problem, meas = step_instance
    study = alpha_study(problem, n_points=11)
    assert len(study["rows"]) == 11
    assert study["exact_at_star"] <= study["bound_at_star"] + 1e-9


def test_sufficient_condition_forms_agree(step_instance):
    grid, problem, meas = step_instance
    lhs_n, lhs_u, passed = sufficient_condition(problem)
    assert abs(lhs_n - lhs_u) <= 1e-10 * max(1.0, abs(lhs_n))
    assert passed and lhs_n < 1.0


def test_sufficient_condition_fails_large_jump():
    grid = build_grid_1d(101, 0.0, 1.0)
    problem, _ = build_internal_problem(grid, step_potential(grid, q0=1.5))
    lhs, _, passed = sufficient_condition(problem)
    assert not passed and lhs >= 1.0


def test_apriori_constant_and_tangent_estimate(step_instance):
    grid, problem, meas = step_instance
    c_phi = apriori_constant(problem)
    assert c_phi >= np.sqrt(2.0)
    op = assemble_internal_operator(problem)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.standard_normal(grid.n)
        b = rng.standard_normal(grid.n)
        f_vals = np.outer(problem.u_normalized, a) + np.outer(b, problem.q_normalized)
        fw = problem.h2.whitener @ f_vals @ np.diag(np.sqrt(grid.quad_weights))
        assert np.linalg.norm(fw) <= c_phi * np.linalg.norm(op.apply([fw])) + 1e-9
    sigma_min = certify.precertificate(op, [problem.model]).sigma_min
    assert sigma_min > 0
    assert 1.0 / sigma_min <= c_phi


def test_precertificate_passes_when_condition_holds(step_instance):
    grid, problem, meas = step_instance
    _, _, cond = sufficient_condition(problem)
    assert cond
    op = assemble_internal_operator(problem)
    report = certify.precertificate(op, [problem.model])
    assert report.ndsc_pass
    assert report.tangent_residuals.max() <= 1e-8
    # the least-norm certificate stays close to the closed-form family:
    # report the distance at the best family member, no assertion on size
    study = alpha_study(problem, n_points=21)
    h_best = closed_form_precertificate(problem, study["alpha_best"])
    dist = np.linalg.norm(report.h_blocks[0] - h_best)
    assert np.isfinite(dist)


def test_rank_one_consistency_probe(step_instance):
    # discrete consistency: a rank-one candidate w (x) p that satisfies the
    # integral relation has its state factor pinned, and the diagonal
    # residual then vanishes exactly when p is the true potential; factor
    # rescalings (mu w, p / mu) leave the lifted field itself unchanged
    grid, problem, meas = step_instance
    rng = np.random.default_rng(4)
    u_vals = problem.u_true.values
    q_vals = problem.q_true.values
    int_q = problem.q_true.integral
    for _ in range(20):
        pert = rng.standard_normal(grid.n)
        for eps in (0.0, 3e-2):
            p = q_vals + eps * pert
            int_p = float(grid.quad_weights @ p)
            w_factor = (int_q / int_p) * u_vals      # integral relation
            diag_resid = np.linalg.norm(w_factor * p - u_vals * q_vals)
            f_dist = np.linalg.norm(np.outer(w_factor, p)
                                    - np.outer(u_vals, q_vals))
            if eps == 0.0:
                assert diag_resid <= 1e-10 and f_dist <= 1e-10
            elif diag_resid <= 1e-10:
                assert f_dist <= 1e-8
    # pure factor rescaling: same field, hence still feasible and equal
    mu = rng.uniform(0.5, 2.0)
    f_scaled = np.outer(mu * u_vals, q_vals / mu)
    assert np.linalg.norm(f_scaled - np.outer(u_vals, q_vals)) <= 1e-12


def test_noise_bound_on_measurements(step_instance):
    grid, problem, _ = step_instance
    delta = 1e-3
    meas0 = make_measurements(problem, delta=0.0, seed=0)
    meas = make_measurements(problem, delta=delta, seed=7)
    z0 = measurement_vector(problem, meas0)
    z = measurement_vector(problem, meas)
    bound = delta * np.sqrt(1.0 + problem.q_true.integral ** 2)
    assert np.linalg.norm(z - z0) <= bound * (1.0 + 1e-9)


def test_noisy_recovery_rate_two_seeds(step_instance):
    _, problem, exact = step_instance
    state = prepare_rows(problem, exact)
    deltas = (1e-2, 1e-3)
    med = []
    for delta in deltas:
        errs = []
        for seed in range(2):
            _, q_hat, _, _ = noisy_row(state, delta, seed)
            errs.append(problem.l2.norm(q_hat.values - problem.q_true.values))
        med.append(float(np.median(errs)))
    slope = loglog_slope(deltas, med)
    assert 0.7 <= slope <= 1.3


def test_noisy_row_is_the_internal_sweep_row(tmp_path, step_instance):
    # criterion 3 and `internal sweep` solve one row the same way, to the digit
    _, problem, exact = step_instance
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[grid]\nn = 41\n[sweep]\nq0_values = 0.5\n"
                   "[noise]\ndeltas = 1e-2,1e-3\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "--seed", "3",
                     "internal", "sweep"]) == 0
    rows = cli.read_table(tmp_path / "sweep.csv", cli.INTERNAL_SCHEMA)
    assert [r["delta"] for r in rows] == [1e-2, 1e-3]
    state = prepare_rows(problem, exact)
    for k, row in enumerate(rows):
        _, q_hat, _, _ = noisy_row(state, row["delta"], 3 + k)
        err = problem.l2.norm(q_hat.values - problem.q_true.values)
        assert f"{err:.17g}" == f"{row['err_L2']:.17g}"


def test_noisy_solve_started_from_the_exact_lift(step_instance):
    _, problem, exact = step_instance
    op = assemble_internal_operator(problem)
    _, f_exact, _ = recover_internal(problem, exact, op=op)
    meas = make_measurements(problem, delta=1e-3, seed=3)
    q_cold, _, cold = recover_internal(problem, meas, op=op)
    q_warm, _, warm = recover_internal(problem, meas, op=op, x0=f_exact)
    err_cold = problem.l2.norm(q_cold.values - problem.q_true.values)
    err_warm = problem.l2.norm(q_warm.values - problem.q_true.values)
    assert cold.status == warm.status == "converged"
    assert abs(err_warm - err_cold) <= 1e-6 * err_cold
    assert warm.iterations <= cold.iterations
    with pytest.raises(ValueError):
        recover_internal(problem, exact, op=op, x0=f_exact)


def test_linear_rate_down_to_small_delta(tmp_path):
    # criterion 3 stops at 3e-4; the sweep's rows start from the exact lift,
    # so reaching 1e-6 costs no more iterations than 1e-2 does
    deltas = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[grid]\nn = 41\n[sweep]\nq0_values = -0.3,0.5\n[noise]\n"
                   f"deltas = {','.join(map(str, deltas))}\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "internal",
                     "sweep"]) == 0
    rows = cli.read_table(tmp_path / "sweep.csv", cli.INTERNAL_SCHEMA)
    assert [r["status"] for r in rows] == ["converged"] * 2 * len(deltas)
    for q0 in (-0.3, 0.5):
        mine = [r for r in rows if r["q0"] == q0]
        assert [r["delta"] for r in mine] == list(deltas)
        slope = loglog_slope(deltas, [r["err_L2"] for r in mine])
        assert 0.8 <= slope <= 1.2
        assert mine[-1]["iters"] <= mine[0]["iters"]


def test_exact_certificate_norm_random_pairs():
    grid = build_grid_1d(41, 0.0, 1.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        amp = rng.uniform(0.0, 0.4)
        phase = rng.uniform(0.0, 2 * np.pi)
        q_vals = 1.0 + amp * np.sin(2 * np.pi * grid.nodes + phase)
        problem, _ = build_internal_problem(grid, q_vals)
        alpha = float(rng.uniform(-0.5, 1.5))
        exact, bound = certificate_norm(problem, alpha)
        assert exact <= bound + 1e-9
