import numpy as np
import pytest
import scipy.sparse.linalg

from liftrec._blas import blas_threads
from liftrec.calderon import (
    CalderonOperator,
    _corner_mask,
    _interior_operator,
    assemble_calderon_system,
    build_calderon_problem,
    coeffs_from_function,
    compactness_diagnostic,
    derivative_pairing,
    dtn_map,
    extract_q_calderon,
    frechet_derivative,
    gauss_newton_baseline,
    make_basis_w,
    make_boundary_basis,
    make_calderon_measurements,
    precertificate_study,
    recover_calderon,
    recover_rows,
    solve_schrodinger_2d,
)
from liftrec.certify import precertificate
from liftrec.errors import EigenvalueHit
from liftrec.hilbert import build_grid_2d
from liftrec.solvers import SolverOptions
from oracles import (
    calderon_matrix_dense,
    calderon_system_forward_lifted,
    check_adjoint,
    dense_rank_one_maps,
    gauss_newton_per_column,
    interior_operator_loops,
    laplacian_blocks_kron,
    onesided_flux_loops,
)

TIGHT = SolverOptions(tol_gap=1e-8, tol_feas=1e-9)


@pytest.fixture(scope="module")
def small_problem():
    grid = build_grid_2d(9)
    problem = build_calderon_problem(grid, m=4, n_modes=3)
    system = assemble_calderon_system(problem)
    return grid, problem, system


def test_zero_potential_affine_state_and_flux():
    grid = build_grid_2d(9)
    trace = 1.0 + 2.0 * grid.xs[grid.boundary_index] \
        - 0.5 * grid.ys[grid.boundary_index]
    u = solve_schrodinger_2d(grid, None, trace)
    expected = 1.0 + 2.0 * grid.xs - 0.5 * grid.ys
    assert np.abs(u - expected).max() < 1e-10
    flux = grid.normal_derivative @ u
    normals = grid.boundary_normals
    expected_flux = 2.0 * normals[:, 0] - 0.5 * normals[:, 1]
    assert np.abs(flux - expected_flux).max() < 1e-9


def test_manufactured_solution_exact_on_quadratics():
    # the 5-point stencil differentiates quadratics exactly, so the
    # manufactured pair (1 + x^2 + y^2, q = 4 / u) is reproduced to round-off
    grid = build_grid_2d(17)
    u_exact = 1.0 + grid.xs ** 2 + grid.ys ** 2
    q = 4.0 / u_exact
    u = solve_schrodinger_2d(grid, q, u_exact[grid.boundary_index])
    assert np.abs(u - u_exact).max() < 1e-12


def test_manufactured_solution_convergence():
    # non-polynomial manufactured pair: u = 2 + sin(pi x) sin(pi y) with
    # q = Lap(u) / u, positive state, nonsingular operator
    errs = []
    hs = []
    for nn in (9, 17, 33):
        grid = build_grid_2d(nn)
        s = np.sin(np.pi * grid.xs) * np.sin(np.pi * grid.ys)
        u_exact = 2.0 + s
        q = -2.0 * np.pi ** 2 * s / u_exact
        u = solve_schrodinger_2d(grid, q, u_exact[grid.boundary_index])
        errs.append(np.abs(u - u_exact).max())
        hs.append(grid.h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 1.8


def test_manufactured_flux_accuracy():
    grid = build_grid_2d(33)
    s = np.sin(np.pi * grid.xs) * np.sin(np.pi * grid.ys)
    u_exact = 2.0 + s
    q = -2.0 * np.pi ** 2 * s / u_exact
    u = solve_schrodinger_2d(grid, q, u_exact[grid.boundary_index])
    flux = grid.normal_derivative @ u
    normals = grid.boundary_normals
    bidx = grid.boundary_index
    cs = np.pi * np.cos(np.pi * grid.xs[bidx]) * np.sin(np.pi * grid.ys[bidx])
    sc = np.pi * np.sin(np.pi * grid.xs[bidx]) * np.cos(np.pi * grid.ys[bidx])
    exact_flux = cs * normals[:, 0] + sc * normals[:, 1]
    assert np.abs(flux - exact_flux).max() <= 10.0 * grid.h


@pytest.mark.parametrize("nn", [9, 17, 33])
@pytest.mark.parametrize("with_q", [False, True])
def test_stencils_equal_the_loop_reference(nn, with_q):
    grid = build_grid_2d(nn)
    q = (1.0 + grid.xs * np.sin(3.0 * grid.ys)) if with_q else None
    ref_a, ref_c = interior_operator_loops(grid, q)
    for got, ref in ((_interior_operator(grid, q), ref_a),
                     (grid.laplacian_blocks[1], ref_c)):
        assert got.format == ref.format == "csc"
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)
    ref_fl = onesided_flux_loops(grid)
    assert np.array_equal(grid.normal_derivative, ref_fl)
    corners = {0, (nn - 1) * nn, nn * nn - 1, nn - 1}        # flat index ix * nn + iy
    mask = _corner_mask(grid)
    assert set(grid.boundary_index[mask]) == corners
    # a corner row reads both axes: 5 nodes, all on the boundary
    for row in grid.normal_derivative[mask]:
        assert np.count_nonzero(row) == 5
        assert set(np.flatnonzero(row)) <= set(grid.boundary_index)


def test_laplacian_blocks_equal_the_kron_slices():
    for nn in range(3, 42):
        grid = build_grid_2d(nn)
        for got, ref in zip(grid.laplacian_blocks, laplacian_blocks_kron(grid)):
            assert got.format == ref.format == "csc"
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert np.array_equal(got.data, ref.data)


def test_eigenvalue_hit_2d():
    grid = build_grid_2d(9)
    lam1 = 2 * (4.0 / grid.h ** 2) * np.sin(np.pi * grid.h / 2.0) ** 2
    with pytest.raises(EigenvalueHit):
        solve_schrodinger_2d(grid, np.full(grid.n_nodes, -lam1),
                             np.ones(grid.boundary_index.size))


def test_harmonic_extension_2d():
    # the Laplace solve (no potential) extends constant data as a constant
    grid = build_grid_2d(9)
    ext = solve_schrodinger_2d(grid, None, np.ones(grid.boundary_index.size))
    assert np.abs(ext - 1.0).max() < 1e-12


def test_basis_w_orthonormal_and_continuous():
    grid = build_grid_2d(17)
    basis = make_basis_w(grid, 4)
    gram = basis.T @ (grid.area_weights[:, None] * basis)
    assert np.abs(gram - np.eye(4)).max() <= 1e-10
    coeffs = coeffs_from_function(basis, grid, np.ones(grid.n_nodes))
    # the default scale functional integrates each basis function
    assert np.allclose(build_calderon_problem(grid, m=4, n_modes=1).g_omega, coeffs)
    with pytest.raises(ValueError):
        make_basis_w(grid, 5)


def test_boundary_basis_floor_and_gram():
    grid = build_grid_2d(9)
    bdry = make_boundary_basis(grid, 4)
    assert np.abs(bdry[:, 0]).min() > 0
    gram = bdry.T @ (grid.boundary_weights[:, None] * bdry)
    assert np.linalg.cond(gram) < 1e3


def test_truth_satisfies_all_constraints(small_problem):
    grid, problem, system = small_problem
    f_true = [m.matrix for m in problem.models]
    resid = np.linalg.norm(system.op_full.apply(f_true) - system.z_full)
    assert resid <= 1e-9


def test_phi3_vanishes_on_truth_and_antisymmetry(small_problem):
    grid, problem, system = small_problem
    nd, nb, n, m = problem.n_data, grid.boundary_index.size, grid.n_nodes, 4
    out = system.op_full.apply([m.matrix for m in problem.models])
    z3 = out[nd * (nb - 4) + nd * n:]
    assert z3.size == (nd - 1) * nb * m
    assert np.abs(z3).max() <= 1e-11
    # antisymmetry: swapping the pair roles flips the sign
    rng = np.random.default_rng(0)
    stack = [rng.standard_normal((n, m)) for _ in range(nd)]
    bidx = grid.boundary_index
    uinv = problem.h1.unwhitener
    c_vals = [uinv @ s for s in stack]
    f = problem.bdry
    pair_01 = f[:, 1][:, None] * c_vals[0][bidx] - f[:, 0][:, None] * c_vals[1][bidx]
    pair_10 = f[:, 0][:, None] * c_vals[1][bidx] - f[:, 1][:, None] * c_vals[0][bidx]
    assert np.allclose(pair_01, -pair_10)


def test_boundary_rows_tie_each_datum_to_datum_0(small_problem):
    grid, problem, system = small_problem
    nd, nb, n, m = problem.n_data, grid.boundary_index.size, grid.n_nodes, 4
    assert nd == 3
    # flux rows at the boundary nodes off the four corners
    assert system.op_data.matrix.shape[0] == nd * (nb - 4)
    assert system.op_full.matrix.shape[0] == nd * (nb - 4) + nd * n + (nd - 1) * nb * m
    assert np.abs(system.op_data.matrix).max(axis=1).min() > 0
    # rows of the pair (1, 2), which the family leaves out: f_2 c_1 - f_1 c_2
    # on the boundary, in whitened coordinates and boundary weights
    e_bdry = (np.sqrt(grid.boundary_weights)[:, None]
              * problem.h1.unwhitener[grid.boundary_index])
    f = problem.bdry
    d = n * m
    pair_12 = np.zeros((nb * m, nd * d))
    pair_12[:, d:2 * d] = np.kron(f[:, 2][:, None] * e_bdry, np.eye(m))
    pair_12[:, 2 * d:] = -np.kron(f[:, 1][:, None] * e_bdry, np.eye(m))
    hard = system.op_hard.matrix
    rank = np.linalg.matrix_rank(hard)
    assert np.linalg.matrix_rank(np.vstack([hard, pair_12])) == rank
    # a generic row is not in the span, so the rank test can see one
    probe = np.random.default_rng(3).standard_normal((1, nd * d))
    assert np.linalg.matrix_rank(np.vstack([hard, probe])) == rank + 1


def test_scaling_invariance_is_broken_by_integral_block(small_problem):
    # the factor pair (mu u, q / mu) produces the same lifted stack, so the
    # flux and boundary-pair residuals cannot see mu; only the integral
    # block, built from the known potential integral, pins the scale
    grid, problem, system = small_problem
    mu = 2.0
    wrong_int_q = problem.int_q / mu          # integral of q / mu
    for i in range(problem.n_data):
        c_true = np.outer(mu * problem.u_stack[i], problem.q_coeffs / mu)
        diag = np.sum(c_true * problem.basis, axis=1)
        assert np.abs(diag - problem.u_stack[i] * problem.q_values).max() < 1e-12
        v_i = problem.u_stack[i] - problem.f_tilde_stack[i]
        phi2 = c_true @ problem.g_omega - wrong_int_q * v_i
        z2 = wrong_int_q * problem.f_tilde_stack[i]
        assert np.linalg.norm(phi2 - z2) > 1e-2


def test_operator_adjoint_consistency(small_problem):
    grid, problem, system = small_problem
    assert check_adjoint(system.op_full, n_probes=100) < 1e-9


def test_extraction_is_exact_on_rank_one(small_problem):
    grid, problem, system = small_problem
    for i in range(problem.n_data):
        c_true = np.outer(problem.u_stack[i], problem.q_coeffs)
        got = extract_q_calderon(c_true, problem.bdry[:, i], problem)
        assert np.abs(got - problem.q_coeffs).max() < 1e-10
        zero = extract_q_calderon(np.zeros_like(c_true),
                                  problem.bdry[:, i], problem)
        assert np.abs(zero).max() == 0.0


def test_exact_recovery_small(small_problem):
    grid, problem, system = small_problem
    z_data = make_calderon_measurements(system)
    q_hat, blocks, report = recover_calderon(problem, system, z_data, 0.0, opts=TIGHT)
    rel = np.linalg.norm(q_hat - problem.q_coeffs) / np.linalg.norm(problem.q_coeffs)
    assert rel <= 1e-6
    assert report.feas_residual <= 1e-7


def test_constant_potential_single_datum():
    grid = build_grid_2d(9)
    basis = make_basis_w(grid, 4)
    coeffs = coeffs_from_function(basis, grid, np.full(grid.n_nodes, 0.8))
    problem = build_calderon_problem(grid, m=4, n_modes=1, q_coeffs=coeffs)
    system = assemble_calderon_system(problem)
    z_data = make_calderon_measurements(system)
    q_hat, _, report = recover_calderon(problem, system, z_data, 0.0, opts=TIGHT)
    rel = np.linalg.norm(q_hat - problem.q_coeffs) / np.linalg.norm(problem.q_coeffs)
    assert rel <= 1e-5


def test_noisy_recovery_keeps_hard_constraints(small_problem):
    grid, problem, system = small_problem
    z_data = make_calderon_measurements(system, delta=1e-3, seed=5)
    q_hat, blocks, report = recover_calderon(problem, system, z_data, 1e-3)
    assert report.extras["hard_residual"] <= 1e-8
    err = np.linalg.norm(q_hat - problem.q_coeffs)
    assert err <= 1e-1


def test_recover_rejects_nonpositive_weight(small_problem):
    grid, problem, system = small_problem
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match="lambda must be positive"):
            recover_rows(problem, system, [1e-3], 1, c, None)
    noisy = make_calderon_measurements(system, delta=1e-3, seed=1)
    with pytest.raises(ValueError, match="lambda must be positive"):
        recover_calderon(problem, system, noisy, -1e-3)


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("nd", [1, 2, 4])
@pytest.mark.parametrize("m", [1, 4])
def test_structured_operator_matches_the_dense_assembly(nd, m):
    # N = 1 has no coupling rows
    problem = build_calderon_problem(build_grid_2d(9), m=m, n_modes=nd)
    system = assemble_calderon_system(problem)
    dense, counts = calderon_matrix_dense(problem)
    flux, integral, coupling = np.split(np.arange(dense.shape[0]),
                                        np.cumsum(list(counts.values()))[:-1])
    # op_full stacks each datum's flux and integral rows, then the coupling
    own = np.hstack([flux.reshape(nd, -1), integral.reshape(nd, -1)]).ravel()
    d = problem.grid.n_nodes * m
    rng = np.random.default_rng(10 * nd + m)
    selections = ((system.op_full, np.concatenate([own, coupling])),
                  (system.op_data, flux),
                  (system.op_hard, np.concatenate([integral, coupling])))
    for op, rows in selections:
        a = dense[rows]
        assert (op.codomain_dim, op.domain_dim) == a.shape
        x = rng.standard_normal(a.shape[1])
        p = rng.standard_normal(a.shape[0])
        _assert_close(op.apply_vec(x), a @ x)
        _assert_close(op.adjoint_vec(p), a.T @ p)
        for i in range(nd):
            # the rank-one maps are the dense block contracted on one axis
            stack = a[:, i * d:(i + 1) * d].reshape(-1, d // m, m)
            u, v = rng.standard_normal(d // m), rng.standard_normal(m)
            left, right = dense_rank_one_maps(op, i, u, v)
            _assert_close(left, np.einsum("kab,a->kb", stack, u))
            _assert_close(right, np.einsum("kab,b->ka", stack, v))
        _assert_close(op.gram(), a @ a.T)
        assert op.max_abs_entry() == np.abs(op.matrix).max()
        assert abs(op.max_abs_entry() - np.abs(a).max()) <= 1e-12 * np.abs(a).max()
        assert check_adjoint(op, n_probes=20) < 1e-12


def _central_quarter_weights(grid):
    """The ``subdomain`` scale functional: area weights on the central
    quarter of the square."""
    mask = (np.abs(grid.xs - 0.5) <= 0.25) & (np.abs(grid.ys - 0.5) <= 0.25)
    return grid.area_weights * mask


@pytest.mark.parametrize("nn", [5, 9, 17])
@pytest.mark.parametrize("m", [1, 4, 9])
@pytest.mark.parametrize("subdomain", [False, True])
def test_assembly_matches_the_forward_lifted_reference(nn, m, subdomain):
    grid = build_grid_2d(nn)
    problem = build_calderon_problem(
        grid, m=m, n_modes=4, g_weights=_central_quarter_weights(grid) if subdomain else None)
    system = assemble_calderon_system(problem)
    got = (system.op_full.b, system.op_full.e, system.z_data, system.z_hard)
    for a, ref in zip(got, calderon_system_forward_lifted(problem)):
        assert a.shape == ref.shape
        assert np.abs(a - ref).max() <= 1e-13 * np.abs(ref).max()


def test_assembly_solves_once_against_the_measurement_rows(monkeypatch):
    import liftrec.calderon as cal

    problem = build_calderon_problem(build_grid_2d(9), m=4, n_modes=3)
    solves = []

    class Recording:
        def __init__(self, factor):
            self.factor = factor

        def solve(self, rhs, trans="N"):
            solves.append(rhs.shape)
            return self.factor.solve(rhs, trans=trans)

    factorize = cal._factorize
    monkeypatch.setattr(cal, "_factorize", lambda a: Recording(factorize(a)))
    system = assemble_calderon_system(problem)
    n_int = problem.grid.interior_index.size
    rows = system.op_full.b.shape[0]        # nf flux rows and n integral rows
    assert rows == (~_corner_mask(problem.grid)).sum() + problem.grid.n_nodes
    assert solves == [(n_int, rows)]
    assert rows < problem.grid.n_nodes * problem.basis.shape[1]


def test_structured_operator_holds_a_small_share_of_the_dense_form():
    problem = build_calderon_problem(build_grid_2d(17), m=4, n_modes=4)
    op = assemble_calderon_system(problem).op_full
    held = sum(a.nbytes for a in (op.b, op.e, op.f))
    assert held < 0.1 * op.codomain_dim * op.domain_dim * 8


def test_operators_read_row_views_of_one_block(small_problem):
    _, _, system = small_problem
    full, data, hard = system.op_full.b, system.op_data.b, system.op_hard.b
    assert np.shares_memory(data, full) and np.shares_memory(hard, full)
    assert np.array_equal(full, np.vstack([data, hard]))


def test_pipelines_never_build_the_dense_form(small_problem, monkeypatch):
    grid, problem, system = small_problem

    def dense_form(op):
        raise AssertionError("the dense Calderon matrix was built")

    monkeypatch.setattr(CalderonOperator, "matrix", property(dense_form))
    fresh = assemble_calderon_system(problem)
    precertificate_study(problem, fresh, [2, problem.n_data])
    opts = SolverOptions(max_iter=50)
    recover_calderon(problem, fresh, make_calderon_measurements(fresh), 0.0, opts=opts)
    noisy = make_calderon_measurements(fresh, delta=1e-3, seed=5)
    recover_calderon(problem, fresh, noisy, 1e-3, opts=opts)


def test_assemble_operator_wrapper(small_problem):
    grid, problem, _ = small_problem
    op = assemble_calderon_system(problem).op_full
    assert op.matrix.shape[1] == problem.n_data * grid.n_nodes * 4


def test_frechet_zero_direction(small_problem):
    grid, problem, _ = small_problem
    deriv = frechet_derivative(problem, problem.q_values, np.zeros(grid.n_nodes))
    assert np.abs(deriv).max() == 0.0


def test_frechet_forward_difference(small_problem):
    grid, problem, _ = small_problem
    q = problem.q_values
    h = 0.2 + 0.1 * grid.xs * grid.ys
    deriv = frechet_derivative(problem, q, h)
    lam0 = dtn_map(grid, q, problem.bdry)
    errs = []
    for t in (1e-2, 1e-3, 1e-4):
        lam_t = dtn_map(grid, q + t * h, problem.bdry)
        errs.append(np.linalg.norm((lam_t - lam0) / t - deriv))
    orders = [np.log10(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 0.9


def test_derivative_pairing_symmetric(small_problem):
    grid, problem, _ = small_problem
    h = 0.3 + 0.2 * np.sin(np.pi * grid.xs) * np.sin(np.pi * grid.ys)
    pairing = derivative_pairing(problem, problem.q_values, h)
    assert np.abs(pairing - pairing.T).max() <= 1e-8


def test_compactness_diagnostic_profiles(small_problem):
    grid, problem, _ = small_problem
    h = 0.3 + 0.2 * np.sin(np.pi * grid.xs) * np.sin(np.pi * grid.ys)
    profiles = compactness_diagnostic(problem, problem.q_values, h,
                                      mode_counts=(3, 6, 9))
    for sv in profiles.values():
        assert np.all(sv >= 0)
        assert np.all(np.diff(sv) <= 1e-12)
    # richer data families expose smaller tail singular values
    assert profiles[9][-1] <= profiles[6][-1] <= profiles[3][-1]
    zero = compactness_diagnostic(problem, problem.q_values,
                                  np.zeros(grid.n_nodes), mode_counts=(3,))
    assert np.abs(zero[3]).max() == 0.0


def test_gauss_newton_baseline(small_problem):
    grid, problem, _ = small_problem
    at_truth = gauss_newton_baseline(problem, problem.q_coeffs, iters=3)
    assert at_truth["misfits"][0] <= 1e-10
    rng = np.random.default_rng(2)
    q0 = problem.q_coeffs + 0.05 * rng.standard_normal(4)
    near = gauss_newton_baseline(problem, q0, iters=6)
    assert near["misfits"][-1] <= near["misfits"][0]
    far = gauss_newton_baseline(problem, 10.0 * problem.q_coeffs, iters=4)
    assert len(far["misfits"]) >= 1          # history emitted, no assertion


def test_gauss_newton_factors_once_per_iteration(small_problem, monkeypatch):
    grid, problem, _ = small_problem
    calls = []
    splu = scipy.sparse.linalg.splu

    def counting_splu(a):
        calls.append(a.shape)
        return splu(a)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    q0 = problem.q_coeffs + 0.1 * np.random.default_rng(4).standard_normal(4)
    out = gauss_newton_baseline(problem, q0, iters=3)
    assert len(out["trajectory"]) == 4                  # no early stop
    assert len(calls) == 3 + 1                          # + the final misfit


def test_gauss_newton_records_a_singular_last_step(small_problem, monkeypatch):
    # divergence at the final misfit is recorded like any other, not raised
    import liftrec.calderon as cal

    grid, problem, _ = small_problem
    calls = []
    factorize = cal._factorize

    def second_call_singular(a):
        calls.append(a.shape)
        if len(calls) == 2:
            raise EigenvalueHit("singular")
        return factorize(a)

    monkeypatch.setattr(cal, "_factorize", second_call_singular)
    q0 = problem.q_coeffs + 0.1 * np.random.default_rng(4).standard_normal(4)
    misfits = gauss_newton_baseline(problem, q0, iters=1)["misfits"]
    assert len(misfits) == 2 and np.isfinite(misfits[0]) and misfits[-1] == np.inf


@pytest.mark.parametrize("scale", [0.1, 3.0])
def test_gauss_newton_matches_the_per_column_jacobian(small_problem, scale):
    grid, problem, _ = small_problem
    q0 = problem.q_coeffs + scale * np.random.default_rng(6).standard_normal(4)
    got = gauss_newton_baseline(problem, q0, iters=5)["misfits"]
    assert got == gauss_newton_per_column(problem, q0, iters=5)


def test_precertificate_study_rows():
    grid = build_grid_2d(9)
    basis = make_basis_w(grid, 4)
    profile = 1.0 + 0.3 * np.cos(np.pi * (grid.xs - 0.5)) * np.cos(np.pi * (grid.ys - 0.5))
    coeffs = coeffs_from_function(basis, grid, profile)
    problem = build_calderon_problem(grid, m=4, n_modes=3, q_coeffs=coeffs)
    rows, _ = precertificate_study(problem, assemble_calderon_system(problem), [1, 2, 3])
    assert [r["N"] for r in rows] == [1, 2, 3]
    for row in rows:
        if not row.get("degenerate"):
            assert row["max_tangent_residual"] <= 1e-8
            assert row["sigma_min"] > 0


def test_alternative_scale_functional_keeps_truth_feasible():
    grid = build_grid_2d(9)
    g_weights = _central_quarter_weights(grid)
    problem = build_calderon_problem(grid, m=4, n_modes=2, g_weights=g_weights)
    system = assemble_calderon_system(problem)
    resid = np.linalg.norm(system.op_full.apply([m.matrix for m in problem.models])
                           - system.z_full)
    assert resid <= 1e-9


def test_precertificate_study_keeps_the_scale_functional():
    # the study reads every N off one problem: its rows are those of N-datum
    # builds with the subdomain functional, not with the integral
    grid = build_grid_2d(9)
    g_weights = _central_quarter_weights(grid)
    base = build_calderon_problem(grid, m=4, n_modes=3, g_weights=g_weights)
    rows, _ = precertificate_study(base, assemble_calderon_system(base), [2, 3])
    for row in rows:
        problem = build_calderon_problem(grid, m=4, n_modes=row["N"],
                                         g_weights=g_weights)
        op = assemble_calderon_system(problem).op_full
        # the study's pre-certificates run on one BLAS thread; so does this one
        with blas_threads(1):
            cert = precertificate(op, problem.models)
        assert row["sigma_min"] == cert.sigma_min
        assert row["max_w_norm"] == cert.max_w_norm
        assert row["max_tangent_residual"] == float(cert.tangent_residuals.max())
        assert row["ndsc_pass"] == cert.ndsc_pass
    integral_problem = build_calderon_problem(grid, m=4, n_modes=3)
    integral, _ = precertificate_study(
        integral_problem, assemble_calderon_system(integral_problem), [2, 3])
    assert all(abs(r["max_w_norm"] - s["max_w_norm"]) > 1e-3
               for r, s in zip(rows, integral))


def test_precertificate_study_reuses_its_base(small_problem, monkeypatch):
    import liftrec.calderon as cal

    grid, problem, system = small_problem
    builds, assemblies = [], []

    def counting_build(*args, **kwargs):
        builds.append(kwargs["n_modes"])
        return build_calderon_problem(*args, **kwargs)

    def counting_assembly(built):
        assemblies.append(built.n_data)
        return assemble_calderon_system(built)

    monkeypatch.setattr(cal, "build_calderon_problem", counting_build)
    monkeypatch.setattr(cal, "assemble_calderon_system", counting_assembly)
    (row,), report = precertificate_study(problem, system, [problem.n_data])
    with blas_threads(1):
        cert = precertificate(system.op_full, problem.models)
    assert np.array_equal(report.p, cert.p)
    assert row["max_w_norm"] == cert.max_w_norm
    assert row["sigma_min"] == cert.sigma_min
    # the first N data of the base give the rows of an N-datum build
    rows, _ = precertificate_study(problem, system, [2, problem.n_data])
    assert builds == assemblies == []
    with pytest.raises(ValueError):
        precertificate_study(problem, system, [0, 2])
    with pytest.raises(ValueError, match="boundary data"):
        precertificate_study(problem, system, [2, problem.n_data + 1])
    for row in rows:
        direct = build_calderon_problem(grid, m=4, n_modes=row["N"])
        op = assemble_calderon_system(direct).op_full
        with blas_threads(1):
            cert = precertificate(op, direct.models)
        assert row["sigma_min"] == cert.sigma_min
        assert row["max_w_norm"] == cert.max_w_norm


def test_boundary_restriction_constant_reported(small_problem):
    from liftrec.calderon import boundary_restriction_constant

    grid, problem, system = small_problem
    c_tr = boundary_restriction_constant(system)
    assert np.isfinite(c_tr) and c_tr > 0
    # the boundary factor of the operator is the weighted boundary restriction
    weighted = (np.sqrt(grid.boundary_weights)[:, None]
                * problem.h1.unwhitener[grid.boundary_index])
    assert c_tr == np.linalg.svd(weighted, compute_uv=False)[0]


@pytest.mark.parametrize("nn", [3, 5, 9, 17])
def test_boundary_loop_holds_one_mode_per_node(nn):
    # the command line caps boundary.n_modes at this count, 4(nn - 1)
    grid = build_grid_2d(nn)
    assert make_boundary_basis(grid, grid.boundary_index.size).shape[1] == 4 * (nn - 1)
    with pytest.raises(ValueError, match="numerically singular"):
        make_boundary_basis(grid, 4 * (nn - 1) + 1)
