"""Independent reference computations that the tests check the pipelines against."""

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from liftrec.calderon import _corner_mask, dtn_map, frechet_derivative
from liftrec.certify import _GRAM_RCOND
from liftrec.errors import DegenerateInput, EigenvalueHit
from liftrec.hilbert import Grid2D, build_grid_1d, first_difference_1d, second_difference_1d
from liftrec.lowrank import RankOneModel
from liftrec.pde1d import Potential1D


def linear_system_oracle(problem, measurements):
    """Independent recovery through the lifted linear system.

    With noiseless data the state block already carries the diagonal of the
    true field, so the potential follows by pointwise division by the
    (positive) state and the field is its rank-one completion.  Interior
    nodes coincide with the direct-division recovery built on the same
    stencil.  Returns the potential and the field's value matrix.
    """
    if measurements.delta != 0:
        raise ValueError("the linear-system oracle requires noiseless measurements")
    u_vals = problem.u_true.values
    if np.abs(u_vals).min() < 1e-10:
        raise DegenerateInput("state too close to zero for pointwise division")
    q_vals = measurements.z1_values / u_vals
    q_hat = Potential1D(problem.grid, q_vals)
    return q_hat, np.outer(u_vals, q_vals)


def leading_rank_one(m):
    """Extract the top singular triple as a RankOneModel.

    The sign convention makes the first entry of ``u`` exceeding
    ``1e-10 * max|u|`` positive, so repeated extractions are reproducible.
    """
    m = np.asarray(m, float)
    if not np.any(m):
        raise DegenerateInput("cannot extract a rank-one model from the zero matrix")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    sigma = float(s[0])
    if sigma <= 0:
        raise DegenerateInput("leading singular value is zero")
    uvec = u[:, 0].copy()
    vvec = vt[0, :].copy()
    pivot = np.flatnonzero(np.abs(uvec) > 1e-10 * np.abs(uvec).max())
    if pivot.size and uvec[pivot[0]] < 0:
        uvec = -uvec
        vvec = -vvec
    # renormalize to kill SVD round-off before the model validates unit norms
    uvec = uvec / np.linalg.norm(uvec)
    vvec = vvec / np.linalg.norm(vvec)
    return RankOneModel(sigma=sigma, u=uvec, v=vvec)


def complement_basis(u):
    """Deterministic orthonormal basis of the complement of a unit vector:
    the columns of the Householder reflector mapping e_1 to (minus) ``u``,
    past the first, as an explicit ``n x (n - 1)`` matrix."""
    u = np.asarray(u, float)
    v = u.copy()
    v[0] += 1.0 if u[0] >= 0 else -1.0
    q = np.eye(u.size) - (2.0 / (v @ v)) * np.outer(v, v)
    return q[:, 1:]


def tangent_basis(model, symmetric=False):
    """Orthonormal basis of the tangent space at a rank-one model, as dense
    matrices.

    The shared direction ``u v^T`` is counted once, so the dimension is
    ``rows + cols - 1``.  With ``symmetric`` (square models with ``u = v``)
    the basis spans the symmetric part of the tangent space only, dimension
    ``rows``.  Its measurements through the dense operator matrix are the
    reference for the tangent map that ``certify`` builds from rank-one maps.
    """
    u, v = model.u, model.v
    uperp = complement_basis(u)
    if symmetric:
        basis = [np.outer(u, u)]
        basis.extend(
            (np.outer(u, uperp[:, k]) + np.outer(uperp[:, k], u)) / np.sqrt(2.0)
            for k in range(uperp.shape[1])
        )
        return basis
    vperp = complement_basis(v)
    basis = [np.outer(u, v)]
    basis.extend(np.outer(u, vperp[:, k]) for k in range(vperp.shape[1]))
    basis.extend(np.outer(uperp[:, j], v) for j in range(uperp.shape[1]))
    return basis


def dense_rank_one_maps(op, i, u, v):
    """Block ``i``'s rank-one maps scattered from their row runs onto the
    whole codomain: ``(left, right)`` with ``left @ b == Phi_i(u b^T)`` and
    ``right @ a == Phi_i(a v^T)``."""
    left = np.zeros((op.codomain_dim, v.size))
    right = np.zeros((op.codomain_dim, u.size))
    for start, run_left, run_right in op.rank_one_maps(i, u, v):
        left[start:start + len(run_left)] += run_left
        right[start:start + len(run_right)] += run_right
    return left, right


def dense_tangent_map(op, models, symmetric=False):
    """The codomain-wide tangent map ``M_T``: every dense basis element of
    :func:`tangent_basis` measured through the dense operator matrix, block
    by block, and the right-hand side selecting each block's rank-one
    direction."""
    matrix = op.matrix
    offsets = np.cumsum([0, *(r * c for r, c in op.domain_shapes)])
    cols = [matrix[:, lo:hi] @ np.stack([b.ravel() for b in tangent_basis(model, symmetric)],
                                        axis=1)
            for model, lo, hi in zip(models, offsets, offsets[1:])]
    rhs = np.concatenate([np.eye(1, c.shape[1]).ravel() for c in cols])
    return np.hstack(cols), rhs


def gram_least_norm(m_t, rhs):
    """Least-norm ``p`` of ``M_T^T p = rhs`` from the dense Gram.

    ``sigma = sqrt(eigvalsh(M_T^T M_T))`` and ``p = M_T G^{-1} rhs`` by
    Cholesky when the map is tall and ``lambda_min > _GRAM_RCOND *
    lambda_max``; otherwise :func:`svd_least_norm`.  Returns
    ``(sigma_min, sigma_max, p)``.
    """
    rows, k = m_t.shape
    if rows >= k:
        gram = m_t.T @ m_t
        evals = np.linalg.eigvalsh(gram)
        if evals[0] > _GRAM_RCOND * evals[-1]:
            p = m_t @ scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), rhs)
            return float(np.sqrt(evals[0])), float(np.sqrt(evals[-1])), p
    return svd_least_norm(m_t, rhs)


def svd_least_norm(m_t, rhs):
    """Least-norm ``p`` of ``M_T^T p = rhs`` from the thin SVD of ``M_T``.

    Returns ``(sigma_min, sigma_max, p)``; ``sigma_min`` is 0 when ``M_T``
    has fewer rows than columns, since such a map cannot be injective.
    """
    rows, k = m_t.shape
    u, s, vt = np.linalg.svd(m_t, full_matrices=False)
    p = u @ ((vt @ rhs) / s)
    return (float(s[-1]) if rows >= k else 0.0), float(s[0]), p


def svd_svt(m, tau):
    """Singular value thresholding from the thin SVD: soft-shrink every
    singular value by ``tau`` and rebuild."""
    u, s, vt = np.linalg.svd(np.asarray(m, float), full_matrices=False)
    shrunk = np.maximum(s - tau, 0.0)
    return (u * shrunk) @ vt


def interior_operator_loops(grid, q_vals=None):
    """5-point ``-Lap + q`` on the interior nodes and its boundary coupling,
    built node by node: the loop reference for ``Grid2D.laplacian_blocks``.

    Returns CSC ``(A, C)`` with ``A u_int + C u_bdry = 0`` for discrete
    solutions of the homogeneous equation.
    """
    pos_int = -np.ones(grid.n_nodes, dtype=int)
    pos_int[grid.interior_index] = np.arange(grid.interior_index.size)
    pos_bdry = -np.ones(grid.n_nodes, dtype=int)
    pos_bdry[grid.boundary_index] = np.arange(grid.boundary_index.size)
    h2 = grid.h ** 2
    rows, cols, vals = [], [], []
    crows, ccols, cvals = [], [], []
    for j, flat in enumerate(grid.interior_index):
        diag = 4.0 / h2
        if q_vals is not None:
            diag += q_vals[flat]
        rows.append(j)
        cols.append(j)
        vals.append(diag)
        ix, iy = divmod(int(flat), grid.n)
        neighbors = [(ix + dx) * grid.n + iy + dy
                     for dx, dy in ((-1, 0), (1, 0), (0, -1), (0, 1))
                     if 0 <= ix + dx < grid.n and 0 <= iy + dy < grid.n]
        for nb in neighbors:
            if pos_int[nb] >= 0:
                rows.append(j)
                cols.append(pos_int[nb])
                vals.append(-1.0 / h2)
            else:
                crows.append(j)
                ccols.append(pos_bdry[nb])
                cvals.append(-1.0 / h2)
    n_int = grid.interior_index.size
    a = scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(n_int, n_int))
    c = scipy.sparse.csc_matrix(
        (cvals, (crows, ccols)), shape=(n_int, grid.boundary_index.size)
    )
    return a, c


def onesided_flux_loops(grid):
    """Second-order one-sided normal derivative at each boundary node, row by
    row: the loop reference for ``Grid2D.normal_derivative``."""
    h = grid.h
    fl = np.zeros((grid.boundary_index.size, grid.n_nodes))

    def add_axis(row, i, n, step, base, sign):
        # i: index along the axis of length n; step: flat stride of the axis
        if i == 0:
            stencil = [(0, -3.0), (1, 4.0), (2, -1.0)]
        elif i == n - 1:
            stencil = [(0, 3.0), (-1, -4.0), (-2, 1.0)]
        else:
            row[base + step] += sign * 0.5 / h
            row[base - step] -= sign * 0.5 / h
            return
        for off, coef in stencil:
            row[base + off * step] += sign * coef / (2.0 * h)

    for k, flat in enumerate(grid.boundary_index):
        ix, iy = divmod(int(flat), grid.n)
        nx_, ny_ = grid.boundary_normals[k]
        if nx_ != 0.0:
            add_axis(fl[k], ix, grid.n, grid.n, int(flat), nx_)
        if ny_ != 0.0:
            add_axis(fl[k], iy, grid.n, 1, int(flat), ny_)
    return fl


def gauss_newton_per_column(problem, q_init_coeffs, iters=8, damping=1e-8):
    """Regularized Gauss-Newton misfits with the Jacobian taken one column at
    a time from ``frechet_derivative``, each column with its own forward
    solves and factorization."""
    grid, bdry, basis = problem.grid, problem.bdry, problem.basis
    m = basis.shape[1]
    sqrt_wb = np.sqrt(grid.boundary_weights)
    observed = problem.flux_u * sqrt_wb[None, :]
    coeffs = np.asarray(q_init_coeffs, float).copy()
    misfits = []
    for _ in range(iters):
        q_vals = basis @ coeffs
        try:
            fluxes = dtn_map(grid, q_vals, bdry) * sqrt_wb[None, :]
        except EigenvalueHit:
            misfits.append(np.inf)
            break
        resid = (fluxes - observed).ravel()
        misfits.append(float(np.linalg.norm(resid)))
        if misfits[-1] < 1e-12:
            break
        jac = np.stack([
            (frechet_derivative(problem, q_vals, basis[:, k])
             * sqrt_wb[None, :]).ravel()
            for k in range(m)
        ], axis=1)
        gram = jac.T @ jac
        mu = damping * max(np.trace(gram) / m, 1e-30)
        try:
            step = np.linalg.solve(gram + mu * np.eye(m), -jac.T @ resid)
        except np.linalg.LinAlgError:
            break
        coeffs = coeffs + step
    else:
        fluxes = dtn_map(grid, basis @ coeffs, bdry) * sqrt_wb[None, :]
        misfits.append(float(np.linalg.norm((fluxes - observed).ravel())))
    return misfits


def calderon_matrix_dense(problem):
    """Dense whitened ``(rows, N * n * m)`` matrix of the three Calderon
    families (flux, integral, coupling, in that row order), assembled block
    by block with the explicit inverse of the interior 5-point operator.

    Returns the matrix and the row count of each family.
    """
    grid = problem.grid
    n = grid.n_nodes
    wmat = problem.basis
    m = wmat.shape[1]
    nd = problem.n_data
    bidx = grid.boundary_index
    nb = bidx.size
    uinv = problem.h1.unwhitener
    sqrt_wb = np.sqrt(grid.boundary_weights)
    uw = problem.h1.whitener

    dg = np.einsum("xi,xk->xik", uinv, wmat).reshape(n, n * m)
    a_0, _ = grid.laplacian_blocks
    a0_inv = np.linalg.inv(a_0.toarray())
    mv = np.zeros((n, n))
    mv[np.ix_(grid.interior_index, grid.interior_index)] = -a0_inv
    fl = grid.normal_derivative

    flux = ~_corner_mask(grid)
    nf = int(flux.sum())
    phi1_block = (sqrt_wb[flux, None] * fl[flux]) @ (mv @ dg)
    ig = np.einsum("xi,k->xik", uinv, problem.g_omega).reshape(n, n * m)
    phi2_block = uw @ (ig - problem.int_q * (mv @ dg))

    d = n * m
    counts = {"flux": nd * nf, "integral": nd * n, "coupling": (nd - 1) * nb * m}
    a_full = np.zeros((sum(counts.values()), nd * d))
    for i in range(nd):
        a_full[i * nf:(i + 1) * nf, i * d:(i + 1) * d] = phi1_block
        r0 = nd * nf + i * n
        a_full[r0:r0 + n, i * d:(i + 1) * d] = phi2_block

    e_bdry = uinv[bidx, :]
    blk_j = -np.kron(sqrt_wb[:, None] * e_bdry, np.eye(m))
    r0 = nd * nf + nd * n
    for j in range(1, nd):
        fj = problem.bdry[:, j]
        a_full[r0:r0 + nb * m, :d] = np.kron((sqrt_wb * fj)[:, None] * e_bdry, np.eye(m))
        a_full[r0:r0 + nb * m, j * d:(j + 1) * d] = blk_j
        r0 += nb * m
    return a_full, counts


def calderon_system_forward_lifted(problem):
    """The Calderon factors ``(b, e, z_data, z_hard)`` by the forward route:
    solve the lifted equation for every one of the ``n m`` columns of the
    diagonal restriction, then apply the flux and integral rows to the
    states, as :func:`~liftrec.calderon.assemble_calderon_system` did before
    it solved against the rows instead."""
    grid = problem.grid
    n = grid.n_nodes
    m = problem.basis.shape[1]
    nd = problem.n_data
    iidx = grid.interior_index
    uinv = problem.h1.unwhitener
    sqrt_wb = np.sqrt(grid.boundary_weights)
    uw = problem.h1.whitener

    dg = np.einsum("xi,xk->xik", uinv, problem.basis).reshape(n, n * m)
    a_0, _ = grid.laplacian_blocks
    lifted = np.zeros((n, n * m))
    lifted[iidx] = -scipy.sparse.linalg.splu(a_0).solve(dg[iidx])

    flux = ~_corner_mask(grid)
    ig = np.einsum("xi,k->xik", uinv, problem.g_omega).reshape(n, n * m)
    b = np.vstack([(sqrt_wb[flux, None] * grid.normal_derivative[flux]) @ lifted,
                   uw @ (ig - problem.int_q * lifted)])
    e = sqrt_wb[:, None] * uinv[grid.boundary_index, :]
    z_data = (sqrt_wb * (problem.flux_u - problem.flux_f_tilde))[:, flux].ravel()
    z_hard = np.concatenate(
        [uw @ (problem.int_q * problem.f_tilde_stack[i]) for i in range(nd)]
        + [np.zeros((nd - 1) * grid.boundary_index.size * m)]
    )
    return b, e, z_data, z_hard


def laplacian_blocks_kron(grid):
    """``(A, C)`` of the 5-point ``-Lap`` as the interior rows of
    ``kron(T, I) + kron(I, T)``, sliced at the interior and at the boundary
    columns (CSC): the slicing reference for ``Grid2D.laplacian_blocks``."""
    h2 = grid.h ** 2
    t = scipy.sparse.diags([-1.0 / h2, 2.0 / h2, -1.0 / h2], [-1, 0, 1],
                           shape=(grid.n, grid.n))
    eye = scipy.sparse.identity(grid.n)
    lap = scipy.sparse.kron(t, eye) + scipy.sparse.kron(eye, t)
    rows = lap.tocsr()[grid.interior_index]
    return (rows[:, grid.interior_index].tocsc(),
            rows[:, grid.boundary_index].tocsc())


def phase_retrieval_per_measurement(n, m, seed):
    """Seeded Gaussian phase-retrieval draw, one sensing vector at a time.

    Returns the ``(m, n, n)`` stack of outer products ``v_k v_k^T``, the data
    ``(v_k . x)^2`` and the unit-norm ground truth ``x``.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    while np.linalg.norm(x) == 0:
        x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    vs = []
    z = np.empty(m)
    for k in range(m):
        v = rng.standard_normal(n)
        vs.append(np.outer(v, v))
        z[k] = (v @ x) ** 2
    return np.asarray(vs), z, x


def check_adjoint(op, n_probes=10):
    """Largest relative defect of ``<Phi x, p> = <x, Phi^* p>`` over seeded
    random probes."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(n_probes):
        x = rng.standard_normal(op.domain_dim)
        p = rng.standard_normal(op.codomain_dim)
        lhs = float(op.apply_vec(x) @ p)
        rhs = float(x @ op.adjoint_vec(p))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
    return worst


def gram_dense(grid, kind):
    """The Gram matrix that ``assemble_inner_product(grid, kind)`` whitens,
    from dense difference matrices: the quadrature weights ``W``, plus
    ``D^T W D`` for each first difference ``D`` (``h1``, ``h2``), plus the
    second-difference term (``h2``, 1-D grids only)."""
    if isinstance(grid, Grid2D):
        w = np.diag(grid.area_weights)
        d1 = first_difference_1d(build_grid_1d(grid.n, 0.0, 1.0))
        diffs = [np.kron(d1, np.eye(grid.n)), np.kron(np.eye(grid.n), d1)]
    else:
        w = np.diag(grid.quad_weights)
        diffs = [first_difference_1d(grid)]
    gram = w.copy()
    if kind in ("h1", "h2"):
        for d in diffs:
            gram = gram + d.T @ w @ d
    if kind == "h2":
        d2 = second_difference_1d(grid)
        gram = gram + d2.T @ w @ d2
    return gram
