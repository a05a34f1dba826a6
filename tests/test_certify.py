import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftrec.calderon import assemble_calderon_system, build_calderon_problem
from liftrec import certify
from liftrec.calderon import CalderonOperator
from liftrec.certify import (
    RANK_RTOL,
    CertificateReport,
    _dense_tangent_map,
    _tangent_least_norm,
    _tangent_map,
    _times_complement,
    ndsc_verify,
    precertificate,
    robustness_bounds,
)
from liftrec.errors import DegenerateCertificate, NumericFailure
from liftrec.hilbert import build_grid_1d, build_grid_2d
from liftrec.internal import assemble_internal_operator, build_internal_problem
from liftrec.lowrank import RankOneModel, operator_norm, project_tangent_complement
from liftrec.pde1d import step_potential
from liftrec.solvers import DenseOperator

from oracles import (
    complement_basis,
    dense_tangent_map,
    gram_least_norm,
    svd_least_norm,
    tangent_basis,
)


def _model(rng, n1=4, n2=3):
    u = rng.standard_normal(n1)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(n2)
    v /= np.linalg.norm(v)
    return RankOneModel(sigma=1.3, u=u, v=v)


def test_complement_basis_orthonormal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        c = complement_basis(u)
        assert c.shape == (6, 5)
        assert np.allclose(c.T @ c, np.eye(5), atol=1e-12)
        assert np.abs(c.T @ u).max() < 1e-12
        a = rng.standard_normal((3, 6))
        assert np.abs(_times_complement(a, u) - a @ c).max() < 1e-12


def test_tangent_basis_orthonormal_and_spans_tangent():
    rng = np.random.default_rng(1)
    model = _model(rng)
    basis = tangent_basis(model)
    assert len(basis) == 4 + 3 - 1
    flat = np.stack([b.ravel() for b in basis])
    assert np.allclose(flat @ flat.T, np.eye(len(basis)), atol=1e-12)
    for b in basis:
        assert np.abs(project_tangent_complement(b, model)).max() < 1e-12


def _assert_tangent_map_matches_oracle(op, models, symmetric=False):
    # oracle: every dense basis element measured through the dense matrix
    want, _ = dense_tangent_map(op, models, symmetric)
    runs, rhs = _tangent_map(op, models, symmetric=symmetric)
    m_t = _dense_tangent_map(runs, op.codomain_dim)
    assert m_t.shape == want.shape
    assert np.abs(m_t - want).max() <= 1e-12 * np.abs(want).max()
    dims = [model.u.size + (0 if symmetric else model.v.size - 1) for model in models]
    assert np.array_equal(np.flatnonzero(rhs), np.cumsum([0, *dims[:-1]]))
    assert np.all(rhs[rhs != 0] == 1.0)


@settings(max_examples=60, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)),
                       min_size=1, max_size=3),
       extra_rows=st.integers(-10, 10), symmetric=st.booleans(),
       seed=st.integers(0, 2 ** 31 - 1))
def test_tangent_map_matches_dense_basis_oracle(shapes, extra_rows, symmetric, seed):
    rng = np.random.default_rng(seed)
    if symmetric:
        shapes = [(r, r) for r, _ in shapes]
    models = [_model(rng, r, c) for r, c in shapes]
    if symmetric:
        models = [RankOneModel(sigma=m.sigma, u=m.u, v=m.u.copy()) for m in models]
    dim = sum(r * c for r, c in shapes)
    op = DenseOperator(rng.standard_normal((max(1, dim + extra_rows), dim)), shapes)
    _assert_tangent_map_matches_oracle(op, models, symmetric=symmetric)


@functools.lru_cache(maxsize=None)
def _internal_case(n):
    grid = build_grid_1d(n, 0.0, 1.0)
    problem, _ = build_internal_problem(grid, step_potential(grid, q0=0.5))
    return problem, assemble_internal_operator(problem)


@functools.lru_cache(maxsize=None)
def _calderon_problem(nd, m):
    return build_calderon_problem(build_grid_2d(9), m=m, n_modes=nd)


@functools.lru_cache(maxsize=None)
def _calderon_system(nd, m):
    return assemble_calderon_system(_calderon_problem(nd, m))


@pytest.mark.parametrize("n", [9, 25])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_internal_tangent_map_matches_dense_basis_oracle(n, seed):
    _, op = _internal_case(n)
    _assert_tangent_map_matches_oracle(op, [_model(np.random.default_rng(seed), n, n)])


@pytest.mark.parametrize("nd", [1, 2, 4])
@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("selection", ["op_full", "op_data", "op_hard"])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_calderon_tangent_map_matches_dense_basis_oracle(nd, m, selection, seed):
    op = getattr(_calderon_system(nd, m), selection)
    rng = np.random.default_rng(seed)
    models = [_model(rng, r, c) for r, c in op.domain_shapes]
    _assert_tangent_map_matches_oracle(op, models)


def test_internal_precertificate_builds_no_dense_tangent_basis():
    # at n = 121 the dense tangent basis alone would take 28 MB
    problem, op = _internal_case(121)
    tracemalloc.start()
    try:
        precertificate(op, [problem.model])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _assert_solve_matches_dense_oracle(op, models, symmetric=False):
    """The run-based tangent solve against the codomain-wide ``M_T`` of the
    dense basis, solved from its dense Gram."""
    m_t, rhs = dense_tangent_map(op, models, symmetric)
    want_min, want_max, want_p = gram_least_norm(m_t, rhs)
    runs, got_rhs = _tangent_map(op, models, symmetric=symmetric)
    assert np.array_equal(got_rhs, rhs)
    sigma_min, sigma_max, p = _tangent_least_norm(runs, rhs, op.codomain_dim)
    assert sigma_max == pytest.approx(want_max, rel=1e-9)
    assert abs(sigma_min - want_min) <= 1e-9 * want_max
    # p moves by about cond * eps: compare it where that is small
    if want_min > 1e-3 * want_max:
        assert np.linalg.norm(p - want_p) <= 1e-9 * np.linalg.norm(want_p)
        report = precertificate(op, models, symmetric=symmetric)
        oracle = ndsc_verify(op.adjoint_apply(want_p), models)
        assert report.sigma_min == pytest.approx(want_min, rel=1e-9)
        assert np.allclose(report.w_norms, oracle.w_norms, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("nd", [1, 2, 4])
@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("selection", ["op_full", "op_data", "op_hard"])
@pytest.mark.parametrize("coupled", [True, False])
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), truth=st.booleans())
def test_calderon_tangent_solve_matches_dense_oracle(nd, m, selection, coupled, seed,
                                                     truth):
    base = getattr(_calderon_system(nd, m), selection)
    op = CalderonOperator(base.b, base.e, base.f, coupled=coupled)
    rng = np.random.default_rng(seed)
    models = (_calderon_problem(nd, m).models if truth
              else [_model(rng, r, c) for r, c in op.domain_shapes])
    _assert_solve_matches_dense_oracle(op, models)


@pytest.mark.parametrize("n", [9, 25])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), truth=st.booleans())
def test_internal_tangent_solve_matches_dense_oracle(n, seed, truth):
    problem, op = _internal_case(n)
    model = problem.model if truth else _model(np.random.default_rng(seed), n, n)
    _assert_solve_matches_dense_oracle(op, [model])


@settings(max_examples=20, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       extra_rows=st.integers(0, 20), seed=st.integers(0, 2 ** 31 - 1))
def test_symmetric_dense_tangent_solve_matches_dense_oracle(sizes, extra_rows, seed):
    # symmetric measurements: every block's slice of a row is a symmetric matrix
    rng = np.random.default_rng(seed)
    models = []
    for r in sizes:
        u = _model(rng, r, r).u
        models.append(RankOneModel(sigma=1.0, u=u, v=u.copy()))
    rows = sum(sizes) + extra_rows
    cols = []
    for r in sizes:
        a = rng.standard_normal((rows, r, r))
        cols.append((a + a.transpose(0, 2, 1)).reshape(rows, -1))
    op = DenseOperator(np.hstack(cols), [(r, r) for r in sizes])
    _assert_solve_matches_dense_oracle(op, models, symmetric=True)


def test_coupled_calderon_tangent_gram_is_an_arrow():
    # blocks past datum 0 share rows only with datum 0, or with no block
    # when uncoupled: each is a leaf, and block 0 alone is the hub
    system = _calderon_system(4, 4)
    models = _calderon_problem(4, 4).models
    full = system.op_full
    for op in (full, CalderonOperator(full.b, full.e, full.f, coupled=False)):
        gram = certify._TangentGram(_tangent_map(op, models)[0])
        assert len(gram.leaves) == 3
        assert gram.hub.size == sum(op.domain_shapes[0]) - 1
    # one run over every row: blocks 1 to 3 all share it, so none is a leaf
    dense = DenseOperator(system.op_full.matrix, system.op_full.domain_shapes)
    assert certify._TangentGram(_tangent_map(dense, models)[0]).leaves == []


def test_non_finite_tangent_system_raises():
    rng = np.random.default_rng(11)
    matrix = rng.standard_normal((30, 20))
    matrix[7, 3] = np.nan
    op = DenseOperator(matrix, [(4, 5)])
    model = _model(rng, 4, 5)
    with pytest.raises(NumericFailure):
        precertificate(op, [model])


def test_identity_operator_certificate_is_the_model():
    rng = np.random.default_rng(2)
    model = _model(rng)
    op = DenseOperator(np.eye(12), [(4, 3)])
    report = precertificate(op, [model])
    assert report.ndsc_pass
    assert report.max_w_norm < 1e-12
    assert np.allclose(report.h_blocks[0], np.outer(model.u, model.v), atol=1e-10)
    assert report.sigma_min == pytest.approx(1.0, abs=1e-10)


def test_degenerate_when_tangent_in_kernel():
    # operator that only sees the complement direction annihilates T
    rng = np.random.default_rng(3)
    model = _model(rng)
    probe = project_tangent_complement(rng.standard_normal((4, 3)), model)
    op = DenseOperator(probe.ravel()[None, :], [(4, 3)])
    with pytest.raises(DegenerateCertificate) as err:
        precertificate(op, [model])
    assert err.value.sigma_min <= 1e-10


def test_wide_tangent_map_is_degenerate():
    # k = 6 tangent directions seen through 3 rows: the thin SVD has only 3
    # singular values, none of which measures the 3-dimensional kernel
    rng = np.random.default_rng(4)
    model = _model(rng)
    op = DenseOperator(rng.standard_normal((3, 12)), [(4, 3)])
    with pytest.raises(DegenerateCertificate) as err:
        precertificate(op, [model])
    assert err.value.sigma_min == 0.0


def _map_with_singular_values(rng, rows, svals):
    k = svals.size
    q_left, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    q_right, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return (q_left * svals) @ q_right.T


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(["gram", "svd", "deficient"]), k=st.integers(2, 40),
       extra_rows=st.integers(0, 30), log_cond=st.floats(0.0, 1.0),
       log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 31 - 1))
def test_tangent_solve_matches_svd_oracle(case, k, extra_rows, log_cond, log_scale,
                                          seed):
    # condition number in [1, 1e3] takes the Gram branch, [1e4, 1e8] the SVD
    # branch; a zero singular value must be caught as degenerate
    rng = np.random.default_rng(seed)
    exponent = 4.0 + 4.0 * log_cond if case == "svd" else 3.0 * log_cond
    t = np.concatenate([[0.0], np.sort(rng.uniform(size=k - 2)), [1.0]])
    svals = 10.0 ** (log_scale - exponent * t)
    if case == "deficient":
        svals[-rng.integers(1, k):] = 0.0
    m_t = _map_with_singular_values(rng, k + extra_rows, svals)
    rhs = rng.standard_normal(k)
    if case == "deficient":
        # the tangent map of a (n1 x n2) model has k = n1 + n2 - 1 columns;
        # an operator M B^T on the tangent basis B restricts to M
        n1 = (k + 2) // 2
        model = _model(rng, n1, k + 1 - n1)
        basis = np.stack([b.ravel() for b in tangent_basis(model)], axis=1)
        op = DenseOperator(m_t @ basis.T, [(n1, k + 1 - n1)])
        with pytest.raises(DegenerateCertificate) as err:
            precertificate(op, [model])
        assert err.value.sigma_min <= RANK_RTOL * svals[0]
        return
    got = _tangent_least_norm([[(0, m_t)]], rhs, m_t.shape[0])
    want = svd_least_norm(m_t, rhs)
    if case == "svd":
        assert got[:2] == want[:2]
        assert np.array_equal(got[2], want[2])
    else:
        assert got[0] == pytest.approx(want[0], rel=1e-9)
        assert got[1] == pytest.approx(want[1], rel=1e-9)
        assert np.linalg.norm(got[2] - want[2]) <= 1e-9 * np.linalg.norm(want[2])


def test_ndsc_verify_pass_and_fail():
    rng = np.random.default_rng(5)
    model = _model(rng)
    uv = np.outer(model.u, model.v)
    assert ndsc_verify([uv], [model]).ndsc_pass
    w = project_tangent_complement(rng.standard_normal((4, 3)), model)
    w *= 1.2 / operator_norm(w)
    assert not ndsc_verify([uv + w], [model]).ndsc_pass
    # tangent violation also fails
    assert not ndsc_verify([1.5 * uv], [model]).ndsc_pass


def test_ndsc_margin_stability():
    # passing with margin m tolerates any off-tangent perturbation below
    # m / 2 at margin m / 2
    rng = np.random.default_rng(6)
    model = _model(rng)
    uv = np.outer(model.u, model.v)
    w = project_tangent_complement(rng.standard_normal((4, 3)), model)
    w *= 0.5 / operator_norm(w)
    h = uv + w
    margin = 1.0 - operator_norm(w) - 1e-12
    assert ndsc_verify([h], [model], margin=margin).ndsc_pass
    pert = project_tangent_complement(rng.standard_normal((4, 3)), model)
    pert *= 0.49 * margin / operator_norm(pert)
    assert ndsc_verify([h + pert], [model], margin=margin / 2).ndsc_pass


def test_precertificate_multi_block():
    rng = np.random.default_rng(7)
    models = [_model(rng), _model(rng)]
    op = DenseOperator(np.eye(24), [(4, 3), (4, 3)])
    report = precertificate(op, models)
    assert report.ndsc_pass
    assert report.tangent_residuals.shape == (2,)
    assert report.extras["system_residual"] < 1e-10
    assert isinstance(report, CertificateReport)


def test_robustness_bounds_trivial_case():
    rng = np.random.default_rng(8)
    model = _model(rng)
    op = DenseOperator(np.eye(12), [(4, 3)])
    f_ref = [model.matrix]
    h = [np.outer(model.u, model.v)]
    p = op.matrix @ h[0].ravel()
    report = robustness_bounds(op, f_ref, f_ref, [model], h, p, c=1.0, delta=0.0)
    assert report["bregman"] == pytest.approx(0.0, abs=1e-12)
    assert report["prediction_error"] == pytest.approx(0.0, abs=1e-12)
    assert report["all_ok"]


def test_robustness_bounds_flag_violations():
    rng = np.random.default_rng(9)
    model = _model(rng)
    op = DenseOperator(np.eye(12), [(4, 3)])
    f_ref = [model.matrix]
    f_far = [model.matrix + rng.standard_normal((4, 3))]
    h = [np.outer(model.u, model.v)]
    p = op.matrix @ h[0].ravel()
    # delta = 0 with a genuinely different solution cannot satisfy the bounds
    report = robustness_bounds(op, f_far, f_ref, [model], h, p, c=1.0, delta=1e-12)
    assert not report["all_ok"]
