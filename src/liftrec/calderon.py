"""Discretized boundary-measurement pipeline on a 2-D grid.

The unknown potential lives in a fixed continuous basis; each Dirichlet
datum contributes a lifted coefficient stack coupling grid values of the
state with basis coordinates of the potential.  Three constraint families
make the lifted problem linear: flux consistency of the sourced Poisson
state, proportionality to the state through the known potential integral,
and equality of the potential component along the boundary, each datum
against datum 0 (the constant datum).

Flux conventions: measurements use second-order one-sided normal
differences, ``grid.normal_derivative``; the adjoint-consistent
"variational" flux of a state that vanishes on the boundary (exact
discrete Green identity, first-order pointwise) backs the symmetry check
of the forward-map derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import certify
from ._blas import blas_threads
from .errors import DegenerateCertificate, EigenvalueHit
from .hilbert import Grid2D, assemble_inner_product
from .lowrank import RankOneModel
from .solvers import (
    AffineOperator,
    solve_equality_nnm,
    solve_regularized_constrained,
)

# ---------------------------------------------------------------------------
# finite-difference machinery (the stencils live on the grid)


def _interior_operator(grid, q_vals):
    """Sparse 5-point ``-Lap + q`` on interior nodes, Dirichlet eliminated."""
    a_0, _ = grid.laplacian_blocks
    if q_vals is None:
        return a_0
    return (a_0 + scipy.sparse.diags(q_vals[grid.interior_index])).tocsc()


def _factorize(a):
    try:
        return scipy.sparse.linalg.splu(a)
    except RuntimeError as exc:
        raise EigenvalueHit(
            "interior system is singular: 0 is a discrete Dirichlet eigenvalue"
        ) from exc


def solve_schrodinger_2d(grid, q_vals, f_bdry, factor=None):
    """Solve ``-Lap u + q u = 0`` with Dirichlet data on the boundary loop.

    ``factor`` is the ``splu`` of :func:`_interior_operator` at ``q_vals``.
    """
    if factor is None:
        factor = _factorize(_interior_operator(grid, q_vals))
    _, coupling = grid.laplacian_blocks
    u_int = factor.solve(-(coupling @ np.asarray(f_bdry, float)))
    if not np.all(np.isfinite(u_int)) or np.abs(u_int).max() > 1e12 * max(
        1.0, np.abs(f_bdry).max()
    ):
        raise EigenvalueHit("solution blow-up: discrete operator is singular")
    u = np.zeros(grid.n_nodes)
    u[grid.interior_index] = u_int
    u[grid.boundary_index] = f_bdry
    return u


def _forward_states(grid, q_vals, f_bdry):
    """Factor ``-Lap + q`` once; return it and the state of each column of
    ``f_bdry`` (one row per datum)."""
    factor = _factorize(_interior_operator(grid, q_vals))
    return factor, np.stack([solve_schrodinger_2d(grid, q_vals, f, factor)
                             for f in f_bdry.T])


def _corner_mask(grid):
    """Boundary positions whose outward normal has two nonzero components."""
    return np.all(grid.boundary_normals != 0.0, axis=1)


# ---------------------------------------------------------------------------
# bases


def make_basis_w(grid, m):
    """Tensor-product hat bumps sampled on the grid, orthonormalized against
    the area weights: the ``(n_nodes, m)`` basis of the potential."""
    k = math.isqrt(m)
    if k * k != m:
        raise ValueError(f"basis size must be a perfect square, got {m}")
    centers = [(i + 1.0) / (k + 1.0) for i in range(k)]
    radius = 1.0 / (k + 1.0)

    def hat(t):
        return np.maximum(0.0, 1.0 - np.abs(t))

    cols = []
    for cx in centers:
        for cy in centers:
            cols.append(hat((grid.xs - cx) / radius) * hat((grid.ys - cy) / radius))
    mat = np.stack(cols, axis=1)

    w = grid.area_weights
    for _ in range(2):                       # repeated modified Gram-Schmidt
        for j in range(m):
            for i in range(j):
                mat[:, j] -= (w * mat[:, i]) @ mat[:, j] * mat[:, i]
            nrm = np.sqrt((w * mat[:, j]) @ mat[:, j])
            if nrm < 1e-12:
                raise ValueError("bump basis is numerically dependent on this grid")
            mat[:, j] /= nrm
    return mat


def coeffs_from_function(basis, grid, fn_vals):
    """Weighted-l2 projection coefficients of nodal values onto the basis."""
    return basis.T @ (grid.area_weights * np.asarray(fn_vals, float))


def make_boundary_basis(grid, n_modes):
    """Trigonometric Dirichlet data in boundary arc length, constant first:
    the ``(n_bdry, n_modes)`` data family."""
    if n_modes < 1:
        raise ValueError("need at least one boundary mode")
    s = grid.boundary_arclength
    perim = grid.h * grid.boundary_index.size
    cols = [np.ones_like(s)]
    j = 1
    while len(cols) < n_modes:
        cols.append(np.cos(2.0 * np.pi * j * s / perim))
        if len(cols) < n_modes:
            cols.append(np.sin(2.0 * np.pi * j * s / perim))
        j += 1
    mat = np.stack(cols, axis=1)
    gram = mat.T @ (grid.boundary_weights[:, None] * mat)
    if np.linalg.cond(gram) > 1e8:
        raise ValueError("boundary basis Gram is numerically singular")
    return mat


# ---------------------------------------------------------------------------
# problem container


@dataclass
class CalderonProblem:
    grid: Grid2D
    basis: np.ndarray             # n_nodes x m, orthonormal in weighted l2
    bdry: np.ndarray              # n_bdry x N boundary data
    q_coeffs: np.ndarray
    q_values: np.ndarray
    int_q: float
    u_stack: np.ndarray           # N x n_nodes forward states
    f_tilde_stack: np.ndarray     # N x n_nodes harmonic extensions
    flux_u: np.ndarray            # N x n_bdry one-sided fluxes of the states
    flux_f_tilde: np.ndarray
    h1: object
    models: list                  # whitened lifts of u_i (x) q, one per datum
    g_omega: np.ndarray       # scale functional applied to the basis

    @property
    def n_data(self):
        return self.bdry.shape[1]


def build_calderon_problem(grid, m=4, n_modes=4, q_coeffs=None, g_weights=None):
    """Forward-solve a boundary-measurement instance.

    With no coefficients supplied, the truth is the basis projection of a
    smooth positive bump profile.  ``g_weights`` selects the linear
    functional pinning the factor scale (nodal quadrature vector; default
    integration over the domain; alternatives are plumbed through but
    carry no certificate theory).  Its value on the potential must be
    positive and the discrete operator nonsingular.
    """
    basis = make_basis_w(grid, m)
    bdry = make_boundary_basis(grid, n_modes)
    if q_coeffs is None:
        profile = 1.0 + 0.4 * np.cos(np.pi * (grid.xs - 0.5)) * np.cos(
            np.pi * (grid.ys - 0.5)
        )
        q_coeffs = coeffs_from_function(basis, grid, profile)
    q_coeffs = np.asarray(q_coeffs, float)
    q_values = basis @ q_coeffs
    if g_weights is None:
        g_weights = grid.area_weights
    g_weights = np.asarray(g_weights, float)
    int_q = float(g_weights @ q_values)
    if int_q <= 0:
        raise ValueError("the scale functional must be positive on the potential")

    _, u_stack = _forward_states(grid, q_values, bdry)
    _, f_tilde_stack = _forward_states(grid, None, bdry)
    fl = grid.normal_derivative
    flux_u = u_stack @ fl.T
    flux_f_tilde = f_tilde_stack @ fl.T

    h1 = assemble_inner_product(grid, "h1")

    q_w_norm = float(np.linalg.norm(q_coeffs))
    models = []
    for i in range(bdry.shape[1]):
        uw = h1.whiten_vec(u_stack[i])
        nrm = float(np.linalg.norm(uw))
        models.append(RankOneModel(
            sigma=nrm * q_w_norm, u=uw / nrm, v=q_coeffs / q_w_norm,
        ))

    return CalderonProblem(
        grid=grid, basis=basis, bdry=bdry, q_coeffs=q_coeffs,
        q_values=q_values, int_q=int_q, u_stack=u_stack,
        f_tilde_stack=f_tilde_stack, flux_u=flux_u, flux_f_tilde=flux_f_tilde,
        h1=h1, models=models, g_omega=basis.T @ g_weights,
    )


# ---------------------------------------------------------------------------
# lifted measurement operator


class CalderonOperator(AffineOperator):
    """The lifted Calderon map ``[I_N kron B; C]``, applied from its
    per-datum row block and the boundary coupling.

    Every datum ``i`` has an ``n x m`` whitened block ``X_i``.  Its own rows
    are ``b @ x_i`` on the raveled ``x_i``, the same matrix for every datum,
    stacked datum by datum.  With ``coupled`` the coupling rows follow; those
    of the pair ``(0, j)`` are

        vec_r(f_j[:, None] * (e @ X_0) - e @ X_j),

    with ``e`` the boundary rows of the unwhitening scaled by the square
    root of the boundary weights and ``f_j`` datum ``j`` on the boundary.
    The basis size ``m`` is ``b``'s column count over ``n``.  Operators over
    row views of one ``b`` share its memory.  The dense form is built only
    on request, by :attr:`matrix`.
    """

    def __init__(self, b, e, f, coupled=True):
        self.b, self.e, self.f, self.coupled = b, e, f, coupled
        self.n = e.shape[1]
        self.m = b.shape[1] // self.n
        n_data = f.shape[1]
        self._own_rows = n_data * b.shape[0]
        coupling = (n_data - 1) * e.shape[0] * self.m if coupled else 0
        super().__init__([(self.n, self.m)] * n_data, self._own_rows + coupling)

    def _matvec(self, vec):
        x = vec.reshape(self.n_blocks, self.n * self.m)
        own = (x @ self.b.T).ravel()
        if not self.coupled:
            return own
        ex = self.e @ x.reshape(-1, self.n, self.m)
        return np.concatenate([own, (self.f[:, 1:].T[:, :, None] * ex[0] - ex[1:]).ravel()])

    def _rmatvec(self, p):
        out = p[:self._own_rows].reshape(self.n_blocks, -1) @ self.b
        if self.coupled and self.n_blocks > 1:
            pc = p[self._own_rows:].reshape(-1, self.e.shape[0], self.m)
            y = np.empty((self.n_blocks, self.e.shape[0], self.m))
            y[0] = np.einsum("bj,jbk->bk", self.f[:, 1:], pc)
            y[1:] = -pc
            out += (self.e.T @ y).reshape(out.shape)
        return out.ravel()

    def _runs(self, i):
        """``(first row, row count, factor, scale)`` of each run of codomain
        rows that block ``i`` reaches.  The run is ``b @ x_i`` for the
        block's own rows (``scale`` None), and ``vec_r(scale * (e @ X_i))``
        for the coupling rows."""
        r = self.b.shape[0]
        yield i * r, r, self.b, None
        if not self.coupled:
            return
        nbm = self.e.shape[0] * self.m
        if i == 0:
            for j in range(1, self.n_blocks):
                yield self._own_rows + (j - 1) * nbm, nbm, self.e, self.f[:, j:j + 1]
        else:
            yield self._own_rows + (i - 1) * nbm, nbm, self.e, -1.0

    def _dense_runs(self, i):
        """``(first row, rows)`` of each run of block ``i`` as a dense matrix:
        ``b`` itself, or ``scale * e`` acting on every basis column alike."""
        return [(start, factor if scale is None
                 else np.kron(scale * factor, np.eye(self.m)))
                for start, _, factor, scale in self._runs(i)]

    def rank_one_maps(self, i, u, v):
        """One ``(start, left, right)`` per run of :meth:`_runs`: ``b`` as an
        ``(rows, n, m)`` stack contracted with ``u`` or ``v``; on ``e`` runs,
        ``X_i = u c^T`` gives ``scale * (e @ u) c^T`` and ``X_i = a v^T``
        gives ``scale * (e @ a) v^T``."""
        out = []
        for start, count, factor, scale in self._runs(i):
            if scale is None:
                stack = factor.reshape(count, self.n, self.m)
                out.append((start, u @ stack, stack @ v))
            else:
                out.append((start, np.kron(scale * (factor @ u)[:, None], np.eye(self.m)),
                            np.kron(scale * factor, v[:, None])))
        return out

    def gram(self):
        """``sum_i S_i S_i^T`` scattered, ``S_i`` the rows block ``i``
        reaches; the blocks past datum 0 share one ``S_i``."""
        out = np.zeros((self.codomain_dim, self.codomain_dim))
        for i in range(min(self.n_blocks, 2)):
            s_i = np.vstack([rows for _, rows in self._dense_runs(i)])
            g_i = s_i @ s_i.T
            for k in (range(1, self.n_blocks) if i else (0,)):
                idx = np.concatenate([np.arange(start, start + count)
                                      for start, count, _, _ in self._runs(k)])
                out[np.ix_(idx, idx)] += g_i
        return out

    def max_abs_entry(self):
        # blocks past datum 0 repeat block 1's entries
        runs = [run for i in range(min(self.n_blocks, 2)) for run in self._runs(i)]
        return float(max(np.abs(factor if scale is None else scale * factor).max()
                         for _, _, factor, scale in runs))

    @property
    def matrix(self):
        """Dense ``codomain x domain`` form, built on each access."""
        d = self.n * self.m
        out = np.zeros((self.codomain_dim, self.domain_dim))
        for i in range(self.n_blocks):
            for start, rows in self._dense_runs(i):
                out[start:start + rows.shape[0], i * d:(i + 1) * d] = rows
        return out


@dataclass
class CalderonSystem:
    """Assembled operators and clean measurement vectors; ``z_data`` and
    ``z_hard`` lie in the codomains of ``op_data`` and ``op_hard``."""

    op_full: CalderonOperator
    op_data: CalderonOperator
    op_hard: CalderonOperator
    z_data: np.ndarray
    z_hard: np.ndarray

    @property
    def z_full(self):
        return self.full_data(self.z_data)

    def full_data(self, z_data):
        """Right-hand side of ``op_full`` for the flux data ``z_data``: each
        datum's flux and integral rows, then the coupling rows."""
        nd = self.op_full.n_blocks
        own = nd * self.op_hard.b.shape[0]
        rows = np.hstack([np.reshape(z_data, (nd, -1)), self.z_hard[:own].reshape(nd, -1)])
        return np.concatenate([rows.ravel(), self.z_hard[own:]])


def assemble_calderon_system(problem):
    """Whitened factors of the three constraint families.

    Per block: flux of the sourced Poisson state of the diagonal off the four
    corners, the integrated stack against the known potential integral, and
    the boundary equality rows of each block against datum 0.  Row scalings
    realize the codomain norms (boundary-weighted l2, the first-order Sobolev
    structure, and the boundary-weighted stack norm).  The flux rows and
    then the integral rows of one block form ``b``; the three operators
    read row views of it.

    The lifted state of the diagonal restriction ``D[x, (i, k)] = uinv[x, i]
    w_k(x)`` solves ``-A v = D`` on the interior nodes (``A`` the 5-point
    block) and vanishes on the boundary, so the measurement rows reach it
    through their interior columns alone.  With ``F`` the weighted flux rows
    and ``U`` the whitener at those columns,

        b = [-F; int_q U] A^{-1} D + [0; I kron g^T],

    ``I kron g^T`` being the whitener times the unwhitened stack integral.
    One sparse solve by the adjoint, against the ``nf + n`` rows, replaces
    one solve per lifted column (``n m`` of them); one dense product with
    ``D`` then forms ``b``.
    """
    grid = problem.grid
    n = grid.n_nodes
    m = problem.basis.shape[1]
    nd = problem.n_data
    iidx = grid.interior_index
    uinv = problem.h1.unwhitener
    sqrt_wb = np.sqrt(grid.boundary_weights)
    uw = problem.h1.whitener

    # the one-sided corner stencil reads only boundary nodes: zero flux rows
    flux = ~_corner_mask(grid)
    nf = int(flux.sum())
    rows = np.vstack([-(sqrt_wb[flux, None] * grid.normal_derivative[flux][:, iidx]),
                      problem.int_q * uw[:, iidx]])
    a_0, _ = grid.laplacian_blocks
    adjoint = _factorize(a_0).solve(rows.T, trans="T").T
    d_int = np.einsum("xi,xk->xik", uinv[iidx], problem.basis[iidx])
    b = np.empty((nf + n, n * m))
    np.matmul(adjoint, d_int.reshape(iidx.size, n * m), out=b)
    b[nf:].reshape(n, n, m)[np.arange(n), np.arange(n)] += problem.g_omega
    # datum 0 is the constant 1, so the pairs (0, j) span every pair (i, j):
    # row (i, j) = f_i * row(0, j) - f_j * row(0, i), node by node
    e = sqrt_wb[:, None] * uinv[grid.boundary_index, :]

    f = problem.bdry
    z_data = (sqrt_wb * (problem.flux_u - problem.flux_f_tilde))[:, flux].ravel()
    z_hard = np.concatenate(
        [uw @ (problem.int_q * problem.f_tilde_stack[i]) for i in range(nd)]
        + [np.zeros((nd - 1) * grid.boundary_index.size * m)]
    )
    return CalderonSystem(
        op_full=CalderonOperator(b, e, f),
        op_data=CalderonOperator(b[:nf], e, f, coupled=False),
        op_hard=CalderonOperator(b[nf:], e, f),
        z_data=z_data, z_hard=z_hard,
    )


def extract_q_calderon(c_vals, f_bdry_vals, problem):
    """Potential coordinates from the boundary rows of one stack."""
    wb = problem.grid.boundary_weights
    bidx = problem.grid.boundary_index
    den = float(wb @ (f_bdry_vals ** 2))
    if den <= 0:
        raise ValueError("boundary datum has zero norm")
    num = (wb * f_bdry_vals) @ c_vals[bidx, :]
    return num / den


def recover_calderon(problem, system, z_data, lam, opts=None):
    """Convex recovery of the potential coordinates from the flux data
    ``z_data``.

    ``lam == 0``: equality-constrained solve on all three families.
    Otherwise: data fidelity on the flux block only, with the remaining
    families kept as hard constraints inside the splitting, at weight
    ``lam``.  The potential estimate averages the per-block boundary
    extractions.
    """
    if lam == 0:
        blocks, report = solve_equality_nnm(
            system.op_full, system.full_data(z_data), opts=opts)
    else:
        blocks, report = solve_regularized_constrained(
            system.op_data, z_data, system.op_hard, system.z_hard, lam, opts=opts)

    uinv = problem.h1.unwhitener
    q_hat = np.mean([extract_q_calderon(uinv @ blk, problem.bdry[:, i], problem)
                     for i, blk in enumerate(blocks)], axis=0)
    return q_hat, blocks, report


def recover_rows(problem, system, deltas, seed, c, opts):
    """One ``(row, blocks)`` per noise level in ``deltas``, all on the one
    assembly ``system``; every level draws its noise from ``seed``, so a row
    equals the single-level run's.  ``row`` holds the columns of ``calderon
    recover``'s table, ``blocks`` the whitened recovered stack.  Noise and
    weights are :mod:`~liftrec.certify`'s, every weight checked first."""
    lams = [certify.noise_weight(c, delta) for delta in deltas]
    out = []
    for delta, lam in zip(deltas, lams):
        z_data = certify.add_noise(system.z_data, delta, seed) if delta else system.z_data
        q_hat, blocks, report = recover_calderon(problem, system, z_data, lam, opts=opts)
        out.append(({
            "delta": delta, "lambda": lam,
            "rel_err_W": float(np.linalg.norm(q_hat - problem.q_coeffs)
                               / np.linalg.norm(problem.q_coeffs)),
            "iters": report.iterations, "feas_residual": report.feas_residual,
            "status": report.status,
        }, blocks))
    return out


# ---------------------------------------------------------------------------
# forward-map derivative and baseline


def boundary_restriction_constant(system):
    """Discrete norm of the boundary restriction on lifted stacks.

    Largest amplification from the whitened stack norm to the
    boundary-weighted stack norm: the spectral norm of the boundary factor
    ``e`` of the assembled operator.  Reported as a diagnostic (the
    continuum trace theorem offers no quantitative constant to assert
    against).
    """
    return float(np.linalg.svd(system.op_full.e, compute_uv=False)[0])


def _fluxes(grid, states):
    """One-sided fluxes of the states, one row per state."""
    return np.stack([grid.normal_derivative @ u for u in states])


def dtn_map(grid, q_vals, bdry):
    """One-sided flux matrix of the boundary-data-to-flux map, one row per
    datum."""
    _, states = _forward_states(grid, q_vals, bdry)
    return _fluxes(grid, states)


def _linearized_states(grid, factor, states, h_vals):
    """The linearized states ``(-Lap + q) v = -h u``, ``v = 0`` on the
    boundary, one per state; ``factor`` is the ``splu`` at ``q``."""
    h_vals = np.asarray(h_vals, float)
    out = []
    for u in states:
        v = np.zeros(grid.n_nodes)
        v[grid.interior_index] = factor.solve(-(h_vals * u)[grid.interior_index])
        out.append(v)
    return out


def _derivative_fluxes(grid, factor, states, h_vals):
    """One-sided fluxes of :func:`_linearized_states`, one row per state."""
    return _fluxes(grid, _linearized_states(grid, factor, states, h_vals))


def frechet_derivative(problem, q_vals, h_vals):
    """Derivative of the data-to-flux map at ``q`` in direction ``h``.

    For each boundary datum: solve the state, re-solve with source
    ``-h * u`` and zero boundary values, take the flux.  Assembled as an
    (N x boundary) matrix of one-sided fluxes on the problem's boundary basis.
    """
    grid = problem.grid
    return _derivative_fluxes(grid, *_forward_states(grid, q_vals, problem.bdry), h_vals)


def derivative_pairing(problem, q_vals, h_vals):
    """Boundary pairings of the derivative against the data family.

    Uses the variational flux ``h^2 C^T v_int`` of the linearized states,
    ``C`` the boundary coupling of the 5-point operator, for which the
    discrete Green identity makes the pairing matrix exactly symmetric (two
    independent solve routes).
    """
    grid = problem.grid
    states = _linearized_states(
        grid, *_forward_states(grid, q_vals, problem.bdry), h_vals)
    _, coupling = grid.laplacian_blocks
    flux = grid.h ** 2 * (coupling.T @ np.stack(states)[:, grid.interior_index].T)
    return flux.T @ problem.bdry


def compactness_diagnostic(problem, q_vals, h_vals, mode_counts=(4, 8, 12)):
    """Singular value profiles of the derivative over growing data families.

    Inputs are normalized in the boundary norm and outputs weighted by the
    arc-length quadrature, so the profile tracks the spectrum of the
    underlying map.  Diagnostic only: the discrete matrix has finite rank.
    """
    out = {}
    for count in mode_counts:
        bdry = make_boundary_basis(problem.grid, count)
        mat = _derivative_fluxes(problem.grid,
                                 *_forward_states(problem.grid, q_vals, bdry), h_vals)
        wb = problem.grid.boundary_weights
        in_norms = np.sqrt(np.einsum("bk,b,bk->k", bdry, wb, bdry))
        weighted = (mat / in_norms[:, None]) * np.sqrt(wb)[None, :]
        out[count] = np.linalg.svd(weighted, compute_uv=False)
    return out


def gauss_newton_baseline(problem, q_init_coeffs, iters=8):
    """Regularized Gauss-Newton on the potential coordinates.

    Locally convergent iterative reconstruction from the flux data; records
    the per-iteration misfit so initialization sensitivity can be compared
    against the convex pipeline.  The Levenberg damping is ``1e-8`` times
    the mean diagonal of the Gauss-Newton matrix.  Divergence is reported
    in the history, not raised.
    """
    grid, bdry, basis = problem.grid, problem.bdry, problem.basis
    m = basis.shape[1]
    sqrt_wb = np.sqrt(grid.boundary_weights)
    observed = problem.flux_u * sqrt_wb[None, :]

    coeffs = np.asarray(q_init_coeffs, float).copy()
    misfits = []
    trajectory = [coeffs.copy()]
    # iters steps, so iters + 1 misfits: the last one is of the final step
    for k in range(iters + 1):
        try:
            factor, states = _forward_states(grid, basis @ coeffs, bdry)
        except EigenvalueHit:
            misfits.append(np.inf)
            break
        resid = (_fluxes(grid, states) * sqrt_wb[None, :] - observed).ravel()
        misfits.append(float(np.linalg.norm(resid)))
        if k == iters or misfits[-1] < 1e-12:
            break
        # one factor and N states per iteration serve the misfit and every
        # Jacobian column
        jac = np.stack([
            (_derivative_fluxes(grid, factor, states, basis[:, k])
             * sqrt_wb[None, :]).ravel()
            for k in range(m)
        ], axis=1)
        gram = jac.T @ jac
        mu = 1e-8 * max(np.trace(gram) / m, 1e-30)
        try:
            step = np.linalg.solve(gram + mu * np.eye(m), -jac.T @ resid)
        except np.linalg.LinAlgError:
            break
        coeffs = coeffs + step
        trajectory.append(coeffs.copy())
    return {"misfits": misfits, "trajectory": trajectory, "coeffs": coeffs}


def precertificate_study(problem, system, n_list):
    """Least-norm certificate diagnostics across data-family sizes.

    ``system``, the assembly of ``problem`` (a :class:`CalderonProblem`
    with at least ``max(n_list)`` boundary data), serves every N: the
    boundary basis is prefix-nested and each datum is solved on its own, so
    the first N data and models are those of an N-datum build, and the
    factors ``b`` and ``e`` never read the data.
    One row per N: the smallest tangent singular value, the worst tangent
    residual and off-tangent norm.  No pass threshold is asserted; the
    table is the deliverable.  The pre-certificates run on one BLAS thread:
    their factorizations are small, and on two threads they run slower.

    Returns ``(rows, report)``: ``report`` is the
    :class:`~liftrec.certify.CertificateReport` of the row ``N =
    max(n_list)``, None when that system is degenerate.
    """
    if min(n_list) < 1:
        raise ValueError("need at least one boundary mode")
    n_max = max(n_list)
    if n_max > problem.n_data:
        raise ValueError(f"the study needs {n_max} boundary data, the problem has "
                         f"{problem.n_data}")
    op = system.op_full
    rows, last = [], None
    with blas_threads(1):
        for n_modes in n_list:
            op_n = CalderonOperator(op.b, op.e, op.f[:, :n_modes])
            try:
                report = certify.precertificate(op_n, problem.models[:n_modes])
            except DegenerateCertificate as exc:
                rows.append({
                    "N": n_modes, "sigma_min": exc.sigma_min, "max_w_norm": np.nan,
                    "max_tangent_residual": np.nan, "ndsc_pass": False,
                    "degenerate": True,
                })
                continue
            rows.append({
                "N": n_modes,
                "sigma_min": report.sigma_min,
                "max_w_norm": report.max_w_norm,
                "max_tangent_residual": float(report.tangent_residuals.max()),
                "ndsc_pass": report.ndsc_pass,
            })
            if n_modes == n_max:
                last = report
    return rows, last
