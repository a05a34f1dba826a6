import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftrec import solvers
from liftrec.calderon import CalderonOperator
from liftrec.errors import NumericFailure
from liftrec.hilbert import build_grid_1d
from liftrec.internal import (
    InternalOperator,
    assemble_internal_operator,
    build_internal_problem,
)
from liftrec.lowrank import nuclear_norm, operator_norm, subdiff_check, svt_prox
from liftrec.pde1d import step_potential
from liftrec.quadratic import make_phase_retrieval
from liftrec.solvers import (
    NUCLEAR,
    PSD_TRACE,
    STATUS_CONVERGED,
    STATUS_INFEASIBLE,
    AffineOperator,
    DenseOperator,
    SolverOptions,
    duality_gap,
    pack_blocks,
    psd_trace_prox,
    solve_equality_nnm,
    solve_psd_trace_min,
    solve_regularized_constrained,
    solve_regularized_nnm,
    unpack_blocks,
)

from oracles import check_adjoint, leading_rank_one

TIGHT = SolverOptions(tol_gap=1e-9, tol_feas=1e-10)


def _identity_op(n=2):
    return DenseOperator(np.eye(n * n), [(n, n)])


def _random_op(rng, m, shapes):
    total = sum(r * c for r, c in shapes)
    return DenseOperator(rng.standard_normal((m, total)), shapes)


def _psd_op(vs):
    """The operator ``X -> (<V_k, X>)_k`` of square symmetric matrices."""
    n = vs[0].shape[0]
    return DenseOperator(np.stack(vs).reshape(len(vs), n * n), [(n, n)])


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(0)
    blocks = [rng.standard_normal((3, 2)), rng.standard_normal((2, 4))]
    vec = pack_blocks(blocks)
    back = unpack_blocks(vec, [(3, 2), (2, 4)])
    for a, b in zip(blocks, back):
        assert np.array_equal(a, b)


def test_operator_validates_shapes_and_adjoint():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        DenseOperator(np.zeros((3, 5)), [(2, 2)])
    op = _random_op(rng, 7, [(3, 3), (2, 2)])
    assert check_adjoint(op) < 1e-10
    svals = np.linalg.svd(op.matrix, compute_uv=False)
    assert op.opnorm_estimate >= svals[0] * (1.0 - 1e-3)


def test_opnorm_is_the_largest_singular_value():
    grid = build_grid_1d(25, 0.0, 1.0)
    problem = build_internal_problem(grid, step_potential(grid, q0=0.5))
    ops = [_random_op(np.random.default_rng(2), 9, [(3, 3), (2, 4)]),
           assemble_internal_operator(problem)]
    for op in ops:
        sigma = np.linalg.svd(op.matrix, compute_uv=False)[0]
        assert abs(op.opnorm_estimate - sigma) <= 1e-12 * sigma


def test_structured_maps_define_every_hook():
    # the interface has no dense body for a structured map to fall back to
    hooks = ("_matvec", "_rmatvec", "rank_one_maps", "gram", "max_abs_entry")
    assert not set(hooks) & set(vars(AffineOperator))
    for cls in (DenseOperator, InternalOperator, CalderonOperator):
        assert issubclass(cls, AffineOperator)
        assert set(hooks) <= set(vars(cls)), cls.__name__


class _CountingOperator(DenseOperator):
    grams = 0

    def gram(self):
        self.grams += 1
        return super().gram()


def test_gram_is_factored_once_per_operator():
    rng = np.random.default_rng(4)
    op = _CountingOperator(rng.standard_normal((5, 9)), [(3, 3)])
    opts = SolverOptions(max_iter=200)
    assert op.opnorm_estimate > 0
    for _ in range(2):
        solve_equality_nnm(op, rng.standard_normal(5), opts=opts)
    solve_regularized_nnm(op, rng.standard_normal(5), 1e-2, opts=opts)
    assert op.grams == 1


@pytest.mark.parametrize("broken", ["nan_entry", "zero"])
@pytest.mark.parametrize("lam", [0.0, 1e-2])
def test_degenerate_operator_raises_numeric_failure(broken, lam):
    # a NaN entry gives NaN eigenvalues, which the rank cutoff would drop
    # silently; a zero operator leaves nothing above the cutoff
    matrix = np.random.default_rng(5).standard_normal((4, 9))
    if broken == "nan_entry":
        matrix[1, 2] = np.nan
    else:
        matrix[:] = 0.0
    op = DenseOperator(matrix, [(3, 3)])
    z = np.array([1.0, 0.5, -0.2, 0.3])
    with pytest.raises(NumericFailure):
        if lam == 0:
            solve_equality_nnm(op, z)
        else:
            solve_regularized_nnm(op, z, lam)


@settings(max_examples=50, deadline=None)
@given(m=st.integers(1, 8), dim=st.integers(1, 12), rank=st.integers(1, 8),
       seed=st.integers(0, 2 ** 31 - 1))
def test_affine_projector_feasible_idempotent_and_null(m, dim, rank, seed):
    # singular values in [0.5, 2]; rank < m gives redundant rows
    rank = min(rank, m, dim)
    rng = np.random.default_rng(seed)
    left, _ = np.linalg.qr(rng.standard_normal((m, rank)))
    right, _ = np.linalg.qr(rng.standard_normal((dim, rank)))
    op = DenseOperator((left * rng.uniform(0.5, 2.0, rank)) @ right.T, [(1, dim)])
    z = op.apply_vec(rng.standard_normal(dim))
    x = 3.0 * rng.standard_normal(dim)

    px, _ = op.project(x, z)
    assert np.linalg.norm(op.apply_vec(px) - z) <= 1e-10 * (1 + np.linalg.norm(z))
    ppx, _ = op.project(px, z)
    assert np.linalg.norm(ppx - px) <= 1e-10 * (1 + np.linalg.norm(px))
    null, _ = op.project(x, 0.0)
    assert np.linalg.norm(op.apply_vec(null)) <= 1e-10 * (1 + np.linalg.norm(x))


def test_equality_identity_operator_returns_unique_point():
    rng = np.random.default_rng(2)
    target = np.outer(rng.standard_normal(2), rng.standard_normal(2))
    blocks, report = solve_equality_nnm(_identity_op(2), target.ravel(), opts=TIGHT)
    assert report.status == STATUS_CONVERGED
    assert np.linalg.norm(blocks[0] - target) <= 1e-8
    assert report.objective == pytest.approx(nuclear_norm(target), abs=1e-8)


def test_equality_detects_infeasible_data():
    # rank-deficient operator measuring only the first entry twice,
    # with contradictory data outside its range
    matrix = np.zeros((2, 4))
    matrix[0, 0] = 1.0
    matrix[1, 0] = 1.0
    op = DenseOperator(matrix, [(2, 2)])
    z = np.array([1.0, 2.0])
    _, report = solve_equality_nnm(op, z, opts=SolverOptions(max_iter=200))
    assert report.status == STATUS_INFEASIBLE


def test_equality_report_invariants_and_weak_duality():
    rng = np.random.default_rng(3)
    op = _random_op(rng, 6, [(4, 3)])
    truth = np.outer(rng.standard_normal(4), rng.standard_normal(3))
    z = op.apply([truth])
    blocks, report = solve_equality_nnm(op, z, opts=TIGHT)
    assert report.status == STATUS_CONVERGED
    assert report.feas_residual <= 1e-8 * (1 + np.linalg.norm(z))
    assert abs(report.duality_gap) <= 1e-6 * (1 + report.objective)
    audit = duality_gap(blocks, report.dual, op, z)
    assert audit.gap >= -1e-9
    assert not audit.flagged


def test_equality_objective_monotone_after_burn_in():
    rng = np.random.default_rng(4)
    op = _random_op(rng, 8, [(5, 5)])
    truth = np.outer(rng.standard_normal(5), rng.standard_normal(5))
    z = op.apply([truth])
    _, report = solve_equality_nnm(op, z, opts=SolverOptions(check_every=1))
    hist = np.asarray(report.extras["objective_history"], float)
    windows = [hist[i:i + 10].mean() for i in range(10, len(hist) - 10, 10)]
    diffs = np.diff(windows)
    assert np.all(diffs <= 1e-6 * (1 + np.abs(windows[0])))


def test_equality_invariant_under_domain_rotation():
    # conjugating the domain by a block-orthogonal map rotates the solution
    rng = np.random.default_rng(5)
    op = _random_op(rng, 7, [(4, 4)])
    truth = np.outer(rng.standard_normal(4), rng.standard_normal(4))
    z = op.apply([truth])
    blocks, _ = solve_equality_nnm(op, z, opts=TIGHT)

    ql, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    qr_, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    rot = np.kron(ql, qr_)              # row-major vec(QL Y QR^T) = kron(QL, QR) vec(Y)
    op_rot = DenseOperator(op.matrix @ rot, [(4, 4)])
    blocks_rot, _ = solve_equality_nnm(op_rot, z, opts=TIGHT)
    back = ql @ blocks_rot[0] @ qr_.T
    assert np.linalg.norm(back - blocks[0]) <= 2e-6 * (1 + np.linalg.norm(blocks[0]))


def test_equality_deterministic_across_runs():
    rng = np.random.default_rng(6)
    op = _random_op(rng, 6, [(4, 3)])
    z = op.apply([np.outer(np.arange(4.0), np.ones(3))])
    b1, r1 = solve_equality_nnm(op, z, opts=TIGHT)
    b2, r2 = solve_equality_nnm(op, z, opts=TIGHT)
    assert r1.iterations == r2.iterations
    assert np.array_equal(b1[0], b2[0])


def test_regularized_zero_beyond_dual_threshold():
    rng = np.random.default_rng(7)
    op = _random_op(rng, 5, [(3, 3)])
    z = rng.standard_normal(5)
    threshold = operator_norm(op.adjoint_apply(z)[0])
    blocks, report = solve_regularized_nnm(op, z, 1.01 * threshold)
    assert np.abs(blocks[0]).max() <= 1e-9
    blocks2, _ = solve_regularized_nnm(op, z, 0.5 * threshold)
    assert np.abs(blocks2[0]).max() > 1e-6


def test_regularized_approaches_equality_solution():
    rng = np.random.default_rng(8)
    op = _random_op(rng, 6, [(4, 3)])
    truth = np.outer(rng.standard_normal(4), rng.standard_normal(3))
    z = op.apply([truth])
    eq_blocks, _ = solve_equality_nnm(op, z, opts=TIGHT)
    # as lambda -> 0 the regularized solution tends to the equality one,
    # here at distance about 2.4 lambda / ||z||: tenfold per decade
    dists = []
    for rel in (1e-2, 1e-3, 1e-4):
        reg_blocks, report = solve_regularized_nnm(op, z, rel * np.linalg.norm(z))
        assert report.status == STATUS_CONVERGED
        dists.append(np.linalg.norm(reg_blocks[0] - eq_blocks[0]))
    assert dists[-1] <= 1e-3
    for far, near in zip(dists, dists[1:]):
        assert far / near == pytest.approx(10.0, rel=0.05)


def test_regularized_satisfies_kkt():
    rng = np.random.default_rng(9)
    op = _random_op(rng, 8, [(4, 4)])
    truth = np.outer(rng.standard_normal(4), rng.standard_normal(4))
    z = op.apply([truth]) + 1e-3 * rng.standard_normal(8)
    lam = 1e-3
    blocks, report = solve_regularized_nnm(
        op, z, lam, opts=SolverOptions(tol_fp=1e-9)
    )
    h = op.adjoint_apply((z - op.apply(blocks)) / lam)[0]
    model = leading_rank_one(blocks[0])
    ok, rep = subdiff_check(h, model, form="i", tol=1e-6)
    assert ok, rep
    assert report.duality_gap <= 1e-6 * (1 + report.objective)


def test_regularized_rejects_bad_lambda():
    op = _identity_op(2)
    with pytest.raises(ValueError):
        solve_regularized_nnm(op, np.zeros(4), 0.0)


def test_psd_prox_clips_at_zero():
    m = np.diag([3.0, -2.0])
    out = psd_trace_prox(m, 1.0)
    assert np.allclose(out, np.diag([2.0, 0.0]))


@settings(max_examples=60, deadline=None)
@given(reg=st.sampled_from([NUCLEAR, PSD_TRACE]),
       sizes=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)),
                      min_size=1, max_size=3),
       tau=st.floats(1e-2, 3.0), seed=st.integers(0, 2 ** 31 - 1))
def test_regularizer_prox_optimality(reg, sizes, tau, seed):
    # X = prox(M) iff H = (M - X) / tau is a subgradient at X: H lies in the
    # dual unit ball and attains the regularizer, <H, X> = reg(X)
    shapes = [(r, r) for r, _ in sizes] if reg is PSD_TRACE else sizes
    rng = np.random.default_rng(seed)
    m = 3.0 * rng.standard_normal(sum(r * c for r, c in shapes))
    x = reg.prox(m, shapes, tau)
    h = (m - x) / tau
    assert reg.dual_norm(unpack_blocks(h, shapes)) <= 1.0 + 1e-10
    assert float(h @ x) == pytest.approx(reg.value(x, shapes), rel=1e-9, abs=1e-9)


def test_psd_trace_unit_constraint():
    # feasible set {X >= 0, tr X = 1} has objective exactly 1
    x, report = solve_psd_trace_min(_psd_op([np.eye(2)]), np.array([1.0]), opts=TIGHT)
    assert report.objective <= 1.0 + 1e-6
    assert np.trace(x) == pytest.approx(1.0, abs=1e-8)
    assert np.linalg.eigvalsh(x).min() >= -1e-9


def test_psd_trace_zero_data():
    vs = [np.eye(3), np.diag([1.0, 0.0, -1.0])]
    x, _ = solve_psd_trace_min(_psd_op(vs), np.zeros(2), opts=TIGHT)
    assert np.abs(x).max() <= 1e-8


def test_psd_trace_recovers_phase_retrieval_lift():
    inst = make_phase_retrieval(5, 20, 7)
    x, report = solve_psd_trace_min(inst.op, inst.z, opts=TIGHT)
    target = np.outer(inst.x_true, inst.x_true)
    assert np.linalg.norm(x - target) <= 1e-3
    evals = np.linalg.eigvalsh(x)
    assert evals[-2] / evals[-1] <= 1e-6


def test_psd_trace_validates_input():
    # non-symmetric measurement matrices are refused where the operator is
    # built: see tests/test_quadratic.py::test_phaselift_validates_input
    op = _psd_op([np.eye(2)])
    with pytest.raises(ValueError, match="lambda must be positive"):
        solve_psd_trace_min(op, np.array([1.0]), lam=-1.0)
    with pytest.raises(ValueError, match="least-norm point"):
        solve_psd_trace_min(op, np.array([1.0]), x0=np.eye(2))
    with pytest.raises(ValueError, match="one square block"):
        solve_psd_trace_min(DenseOperator(np.ones((1, 6)), [(2, 3)]), np.array([1.0]))
    with pytest.raises(ValueError, match="one square block"):
        solve_psd_trace_min(DenseOperator(np.ones((1, 2)), [(1, 1), (1, 1)]),
                            np.array([1.0]))


@pytest.mark.parametrize("reg", [NUCLEAR, PSD_TRACE])
def test_regularized_start_point(reg):
    # a zero start is the cold start, bit for bit; a start at the solution
    # converges at the first check to the same point
    rng = np.random.default_rng(14)
    shapes = [(3, 3)]
    op = _random_op(rng, 6, shapes)
    truth = np.outer(rng.standard_normal(3), rng.standard_normal(3))
    truth = truth @ truth.T if reg is PSD_TRACE else truth
    z = op.apply([truth]) + 1e-2 * rng.standard_normal(6)
    cold, cold_rep = solve_regularized_nnm(op, z, 1e-2, reg=reg)
    zero, zero_rep = solve_regularized_nnm(op, z, 1e-2, reg=reg, x0=[np.zeros((3, 3))])
    assert np.array_equal(cold[0], zero[0])
    assert cold_rep.iterations == zero_rep.iterations
    warm, warm_rep = solve_regularized_nnm(op, z, 1e-2, reg=reg, x0=cold)
    assert warm_rep.iterations == SolverOptions().check_every < cold_rep.iterations
    assert np.linalg.norm(warm[0] - cold[0]) <= 1e-8
    with pytest.raises(ValueError, match="start point"):
        solve_regularized_nnm(op, z, 1e-2, reg=reg, x0=[np.zeros((2, 2))])


@pytest.mark.parametrize("reg", [NUCLEAR, PSD_TRACE])
@pytest.mark.parametrize("lam", [0.0, 1e-2])
def test_nan_datum_raises_numeric_failure(reg, lam):
    # a NaN in z must surface as NumericFailure from either prox, never as
    # a raw LinAlgError from the decomposition inside it
    op = _random_op(np.random.default_rng(13), 4, [(3, 3)])
    z = np.array([1.0, np.nan, 0.5, -0.2])
    with pytest.raises(NumericFailure):
        if lam == 0:
            solve_equality_nnm(op, z, reg=reg)
        else:
            solve_regularized_nnm(op, z, lam, reg=reg)


def _run_solver(name, z_scale=1.0):
    rng = np.random.default_rng(15)
    shapes = [(3, 3)]
    op = _random_op(rng, 6, shapes)
    z = z_scale * op.apply([np.outer(rng.standard_normal(3), rng.standard_normal(3))])
    if name == "solve_equality_nnm":
        return solve_equality_nnm(op, z)
    if name == "solve_regularized_nnm":
        return solve_regularized_nnm(op, z, 1e-2)
    return solve_regularized_constrained(op, z, _random_op(rng, 2, shapes),
                                         np.zeros(2), 1e-2)


SOLVER_NAMES = ["solve_equality_nnm", "solve_regularized_nnm",
                "solve_regularized_constrained"]


@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_non_finite_values_name_the_solver_and_iteration(name, monkeypatch):
    with pytest.raises(NumericFailure, match=rf"^{name}: non-finite data at iteration 0$"):
        _run_solver(name, z_scale=np.nan)

    # a prox failure inside the loop is restated with where it happened
    calls = []

    def failing_prox(m, tau):
        calls.append(tau)
        if len(calls) == 3:
            raise NumericFailure("non-finite entry in the SVT input")
        return svt_prox(m, tau)

    monkeypatch.setattr(solvers, "svt_prox", failing_prox)
    with pytest.raises(NumericFailure, match=rf"^{name}: non-finite entry in the "
                                             rf"SVT input at iteration [23]$"):
        _run_solver(name)

    # a prox that overflows: the next check sees a non-finite objective or
    # residual
    monkeypatch.setattr(solvers, "svt_prox", lambda m, tau: np.full_like(m, np.inf))
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
            NumericFailure,
            match=rf"^{name}: non-finite (objective|residual) at iteration 25$"):
        _run_solver(name)


@pytest.mark.parametrize("prox", [svt_prox, psd_trace_prox])
def test_prox_non_finite_input_raises_numeric_failure(prox):
    # eigh returns NaN eigenvalues silently, and a thresholding comparison
    # would read them as small: the proxes must refuse NaN up front
    bad = np.eye(3)
    bad[0, 1] = bad[1, 0] = np.nan
    with pytest.raises(NumericFailure):
        prox(bad, 0.5)
    with pytest.raises(NumericFailure):
        prox(np.eye(3), np.nan)


def test_duality_gap_audit_cases():
    rng = np.random.default_rng(10)
    op = _random_op(rng, 6, [(4, 3)])
    truth = np.outer(rng.standard_normal(4), rng.standard_normal(3))
    z = op.apply([truth])
    blocks, report = solve_equality_nnm(op, z, opts=TIGHT)

    converged = duality_gap(blocks, report.dual, op, z)
    assert abs(converged.gap) <= 1e-6 * (1 + report.objective)
    assert max(abs(d) for d in converged.per_block) <= 1e-6

    zero_p = duality_gap(blocks, np.zeros_like(z), op, z)
    assert zero_p.gap == pytest.approx(report.objective, rel=1e-10)

    scaled = duality_gap(blocks, 100.0 * report.dual, op, z)
    assert scaled.flagged
    assert NUCLEAR.dual_norm(op.adjoint_apply(100.0 * report.dual)) > 1.0


def test_constrained_regularized_keeps_hard_constraints():
    rng = np.random.default_rng(11)
    shapes = [(3, 3)]
    op_data = _random_op(rng, 7, shapes)
    op_hard = _random_op(rng, 2, shapes)
    truth = np.outer(rng.standard_normal(3), rng.standard_normal(3))
    zd = op_data.apply([truth]) + 1e-3 * rng.standard_normal(7)
    zh = op_hard.apply([truth])
    blocks, report = solve_regularized_constrained(
        op_data, zd, op_hard, zh, 1e-3, opts=SolverOptions(tol_fp=1e-6)
    )
    assert report.extras["hard_residual"] <= 1e-9 * (1 + np.linalg.norm(zh))
    assert report.status == STATUS_CONVERGED
    # Davis-Yin forms no dual certificate; its KKT residual is in extras only
    assert np.isnan(report.duality_gap)
    assert report.extras["kkt_residual"] <= 1e-6 * 1e-3 * (1 + np.linalg.norm(
        pack_blocks(blocks)))


def test_constrained_regularized_underdetermined_still_feasible():
    # with flat directions the iteration is slow; the hard constraints and
    # the stationarity diagnostic must still be trustworthy at the cutoff
    rng = np.random.default_rng(12)
    shapes = [(3, 3)]
    op_data = _random_op(rng, 4, shapes)
    op_hard = _random_op(rng, 2, shapes)
    truth = np.outer(rng.standard_normal(3), rng.standard_normal(3))
    zd = op_data.apply([truth]) + 1e-3 * rng.standard_normal(4)
    zh = op_hard.apply([truth])
    blocks, report = solve_regularized_constrained(
        op_data, zd, op_hard, zh, 1e-3, opts=SolverOptions(max_iter=5000)
    )
    assert report.extras["hard_residual"] <= 1e-9 * (1 + np.linalg.norm(zh))
    assert report.extras["kkt_residual"] <= 1e-2
