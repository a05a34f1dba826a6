"""Convex solvers for the lifted problems.

Three problem classes are covered, all posed on block lists of whitened
matrices so that every inner product is Euclidean:

* equality-constrained nuclear-norm minimization
    min sum_i ||F_i||_*  s.t.  Phi F = z
  solved by Douglas-Rachford splitting, alternating blockwise singular
  value thresholding with exact projection onto the affine constraint;

* regularized nuclear-norm least squares
    min 0.5 ||Phi F - z||^2 + lambda sum_i ||F_i||_*
  solved by accelerated proximal gradient (momentum plus restart), with an
  optional second operator enforced as a hard constraint through
  three-operator (Davis-Yin) splitting;

* PSD trace minimization, the same splittings with the prox replaced by
  eigenvalue soft-thresholding clipped at zero.

Every equality solve reports a dual vector recovered from the affine
projection multipliers, so duality gaps can be audited externally.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericFailure
from .lowrank import nuclear_norm, operator_norm, svt_prox

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_INFEASIBLE = "infeasible_suspected"

# eigenvalues of ``Phi Phi^*`` at or below this share of the largest are zero
RANK_RTOL = 1e-12

# entries per slice of the symmetry test in require_symmetric
_SYMMETRY_CHUNK = 4096


@dataclass
class SolverOptions:
    """Tuning knobs shared by the solvers.

    ``rho = 0`` selects the automatic penalty ``||z|| / ||Phi||``.  Feasibility
    is measured relative to ``1 + ||z||`` and the duality gap relative to
    ``1 + objective``.  A report's ``extras["objective_history"]`` holds the
    objective at each convergence check, every ``check_every`` iterations.
    """

    max_iter: int = 50_000
    tol_feas: float = 1e-8
    tol_gap: float = 1e-6
    tol_fp: float = 1e-8
    rho: float = 0.0
    check_every: int = 25


@dataclass
class SolveReport:
    """Outcome of a solve: iterations, objective, residuals and dual data."""

    iterations: int
    objective: float
    feas_residual: float
    duality_gap: float
    status: str
    dual: np.ndarray | None = None
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# affine operator in whitened coordinates


def pack_blocks(blocks):
    return np.concatenate([np.asarray(b, float).ravel() for b in blocks])


def unpack_blocks(vec, shapes):
    out = []
    pos = 0
    for r, c in shapes:
        out.append(vec[pos:pos + r * c].reshape(r, c))
        pos += r * c
    return out


class AffineOperator:
    """Block-structured linear map from whitened matrices to measurements.

    The base class holds the map as a dense matrix.  A structured subclass
    overrides only the private hooks ``_matvec``/``_rmatvec`` and the public
    hooks ``apply_block``, ``gram`` and ``max_abs_entry``; the public applies
    and the spectral data (one cached eigendecomposition of ``gram()``) stay
    on this class and delegate to them.

    Parameters
    ----------
    matrix : ndarray, shape (m, D)
        Acts on the concatenation of the row-major raveled blocks.
    domain_shapes : list of (rows, cols)
        One shape per block; D must equal the total entry count.
    """

    def __init__(self, matrix, domain_shapes):
        matrix = np.ascontiguousarray(matrix, dtype=float)
        self._init_shapes(domain_shapes, matrix.shape[0])
        if matrix.shape[1] != self.domain_dim:
            raise ValueError(
                f"matrix has {matrix.shape[1]} columns, blocks need {self.domain_dim}"
            )
        self.matrix = matrix

    def _init_shapes(self, domain_shapes, codomain_dim):
        self.domain_shapes = [tuple(s) for s in domain_shapes]
        self._offsets = [0, *itertools.accumulate(r * c for r, c in self.domain_shapes)]
        self.domain_dim = self._offsets[-1]
        self.codomain_dim = int(codomain_dim)
        self._eig = None

    @property
    def n_blocks(self):
        return len(self.domain_shapes)

    def _matvec(self, vec):
        return self.matrix @ vec

    def _rmatvec(self, p):
        return self.matrix.T @ p

    def apply_block(self, i, cols):
        """Measurements of a batch of elements of block ``i``.

        ``cols`` has one raveled block element per column; the result has one
        measurement vector per column.
        """
        return self.matrix[:, self._offsets[i]:self._offsets[i + 1]] @ cols

    def gram(self):
        """The codomain Gram matrix ``Phi Phi^*``."""
        return self.matrix @ self.matrix.T

    def max_abs_entry(self):
        """Largest absolute entry of the matrix form."""
        return float(max(self.matrix.max(), -self.matrix.min()))

    def apply(self, blocks):
        return self._matvec(pack_blocks(blocks))

    def apply_vec(self, vec):
        return self._matvec(vec)

    def adjoint_apply(self, p):
        return unpack_blocks(self._rmatvec(p), self.domain_shapes)

    def adjoint_vec(self, p):
        return self._rmatvec(p)

    def _range(self):
        """Eigenpairs of ``Phi Phi^*`` above the rank cutoff, computed once.

        Non-finite eigenvalues raise: the cutoff would drop them silently.
        Pool threads sharing an operator may both compute it on first use;
        both get the same pairs, so no lock is taken.
        """
        if self._eig is None:
            try:
                evals, evecs = np.linalg.eigh(self.gram())
            except np.linalg.LinAlgError as exc:
                raise NumericFailure("measurement Gram eigendecomposition failed") from exc
            if not np.all(np.isfinite(evals)):
                raise NumericFailure("measurement Gram has non-finite eigenvalues")
            keep = evals > RANK_RTOL * max(evals[-1], 0.0)
            if not np.any(keep):
                raise NumericFailure("measurement operator is numerically zero")
            self._eig = evals[keep], np.ascontiguousarray(evecs[:, keep])
        return self._eig

    @property
    def opnorm_estimate(self):
        """Largest singular value, from the cached Gram eigendecomposition."""
        return float(np.sqrt(self._range()[0][-1]))

    def check_adjoint(self, rng=None, n_probes=10):
        """Max relative defect of the adjoint identity over random probes."""
        rng = np.random.default_rng(0) if rng is None else rng
        worst = 0.0
        for _ in range(n_probes):
            x = rng.standard_normal(self.domain_dim)
            p = rng.standard_normal(self.codomain_dim)
            lhs = float(self._matvec(x) @ p)
            rhs = float(x @ self._rmatvec(p))
            scale = max(abs(lhs), abs(rhs), 1e-30)
            worst = max(worst, abs(lhs - rhs) / scale)
        return worst


class _AffineProjector:
    """Cached projector onto {x : A x = z} with multiplier extraction.

    Reads the operator's rank-truncated eigendecomposition of ``A A^T``, so
    redundant rows are handled (in the Calderon system: the boundary-equality
    rows along the scale-functional direction, which the integral rows
    already imply); for an inconsistent ``z`` the projection lands on the
    least-squares affine set and the constant residual exposes the
    infeasibility.
    """

    def __init__(self, op, z):
        self.op = op
        self.z = np.asarray(z, float)
        evals, self._evecs = op._range()
        self._inv_evals = 1.0 / evals
        self.range_residual = float(np.linalg.norm(self.z - self._apply_range(self.z)))

    def _pinv_gram(self, r):
        return self._evecs @ (self._inv_evals * (self._evecs.T @ r))

    def _apply_range(self, r):
        return self._evecs @ (self._evecs.T @ r)

    def project(self, x):
        """Return (projected x, multiplier mu) with projection = x - A^T mu."""
        mu = self._pinv_gram(self.op.apply_vec(x) - self.z)
        return x - self.op.adjoint_vec(mu), mu

    def least_norm_point(self):
        return self.op.adjoint_vec(self._pinv_gram(self.z))

    def project_null(self, v):
        """Orthogonal projection of v onto the null space of A."""
        return v - self.op.adjoint_vec(self._pinv_gram(self.op.apply_vec(v)))


# ---------------------------------------------------------------------------
# regularizers


def psd_trace_prox(m, tau):
    """Prox of ``tau * trace + PSD indicator``: clipped eigenvalue shrinkage."""
    if not math.isfinite(tau):
        raise NumericFailure(f"non-finite prox threshold {tau}")
    sym = 0.5 * (m + m.T)
    # eigh returns NaN eigenvalues for a NaN entry without raising
    if not np.isfinite(sym).all():
        raise NumericFailure("non-finite entry in the PSD prox input")
    try:
        evals, evecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure("eigendecomposition did not converge") from exc
    shrunk = np.maximum(evals - tau, 0.0)
    return (evecs * shrunk) @ evecs.T


class _NuclearNorm:
    """``sum_i ||F_i||_*``: blockwise SVT, dual norm the largest operator norm."""

    def prox(self, vec, shapes, tau):
        return pack_blocks([svt_prox(b, tau) for b in unpack_blocks(vec, shapes)])

    def value(self, vec, shapes):
        return sum(nuclear_norm(b) for b in unpack_blocks(vec, shapes))

    def dual_norm(self, blocks):
        return max(operator_norm(b) for b in blocks)


class _PSDTrace:
    """``sum_i trace(F_i)`` on the PSD cone, where it equals the nuclear norm.

    The dual unit ball is ``lambda_max(sym H_i) <= 1`` for every block.
    """

    def prox(self, vec, shapes, tau):
        return pack_blocks([psd_trace_prox(b, tau) for b in unpack_blocks(vec, shapes)])

    def value(self, vec, shapes):
        return sum(float(np.trace(b)) for b in unpack_blocks(vec, shapes))

    def dual_norm(self, blocks):
        return max(float(np.linalg.eigvalsh(0.5 * (b + b.T))[-1]) for b in blocks)


# The regularizers of the solvers.  Their methods read ``svt_prox``,
# ``psd_trace_prox``, ``nuclear_norm`` and ``operator_norm`` as module
# globals at call time, so rebinding those names reaches every solve.
NUCLEAR = _NuclearNorm()
PSD_TRACE = _PSDTrace()


# ---------------------------------------------------------------------------
# equality-constrained solver (Douglas-Rachford)


def solve_equality_nnm(op, z, opts=None, reg=NUCLEAR):
    """Minimize the regularizer ``reg`` subject to ``Phi F = z``.

    Douglas-Rachford iteration: exact affine projection (cached factorization
    of ``Phi Phi^*``), the prox of ``reg`` with threshold ``rho`` (blockwise
    SVT for the default nuclear norm), reflected update.
    The multiplier of the projection supplies a dual vector; convergence is
    declared when the feasibility residual and the duality gap both clear
    their tolerances and the dual vector is feasible.

    Returns
    -------
    blocks : list of ndarray
    report : SolveReport
        ``report.dual`` holds the dual vector p with ``Phi^* p`` the
        certificate backing the gap.
    """
    opts = opts or SolverOptions()
    z = np.asarray(z, float)
    shapes = op.domain_shapes

    znorm = float(np.linalg.norm(z))
    rho = opts.rho if opts.rho > 0 else max(znorm, 1e-12) / op.opnorm_estimate

    projector = _AffineProjector(op, z)
    feas_floor = projector.range_residual
    infeasible = feas_floor > opts.tol_feas * (1.0 + znorm)

    y = projector.least_norm_point()
    history = []
    status = STATUS_MAX_ITER
    x = y
    p = np.zeros_like(z)
    gap = np.inf
    feas = np.inf
    it = 0

    for it in range(1, opts.max_iter + 1):
        x, mu = projector.project(y)
        w = reg.prox(2.0 * x - y, shapes, rho)
        y = y + w - x

        if it % opts.check_every == 0 or it == 1:
            p = -mu / rho
            obj = reg.value(x, shapes)
            history.append(obj)
            feas = float(np.linalg.norm(op.apply_vec(x) - z))
            gap = obj - float(p @ z)
            dual_viol = max(0.0, reg.dual_norm(op.adjoint_apply(p)) - 1.0)
            if infeasible:
                status = STATUS_INFEASIBLE
                break
            if (
                feas <= opts.tol_feas * (1.0 + znorm)
                and abs(gap) <= opts.tol_gap * (1.0 + abs(obj))
                and dual_viol <= 1e-6
            ):
                status = STATUS_CONVERGED
                break

    obj = reg.value(x, shapes)
    feas = float(np.linalg.norm(op.apply_vec(x) - z))
    gap = obj - float(p @ z)
    report = SolveReport(
        iterations=it, objective=obj, feas_residual=feas, duality_gap=gap,
        status=status, dual=p,
        extras={"objective_history": history, "rho": rho,
                "range_residual": feas_floor},
    )
    return unpack_blocks(x, shapes), report


# ---------------------------------------------------------------------------
# regularized solver (accelerated proximal gradient with restart)


def solve_regularized_nnm(op, z_noisy, lam, opts=None, reg=NUCLEAR):
    """Minimize ``0.5 ||Phi F - z||^2 + lambda * reg(F)``.

    Forward-backward with momentum and gradient-based restart; the step is
    ``1 / ||Phi||^2``.  Terminates when the fixed-point residual of the
    prox-gradient map falls below ``tol_fp * lambda``.  The reported gap is
    the Fenchel gap at the dual candidate ``(z - Phi F) / lambda``, scaled
    into the dual unit ball of ``reg``.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    opts = opts or SolverOptions()
    z = np.asarray(z_noisy, float)
    shapes = op.domain_shapes

    lip = (op.opnorm_estimate * (1.0 + 1e-3)) ** 2
    step = 1.0 / lip

    x = np.zeros(op.domain_dim)
    yv = x.copy()
    theta = 1.0
    history = []
    status = STATUS_MAX_ITER
    fp_resid = np.inf
    it = 0

    for it in range(1, opts.max_iter + 1):
        grad = op.adjoint_vec(op.apply_vec(yv) - z)
        x_new = reg.prox(yv - step * grad, shapes, lam * step)

        # gradient-based restart keeps the momentum sequence monotone
        if float((yv - x_new) @ (x_new - x)) > 0:
            theta = 1.0
            yv = x.copy()
            grad = op.adjoint_vec(op.apply_vec(yv) - z)
            x_new = reg.prox(yv - step * grad, shapes, lam * step)
        theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta ** 2))
        yv = x_new + ((theta - 1.0) / theta_new) * (x_new - x)
        theta = theta_new
        x = x_new

        if it % opts.check_every == 0:
            resid = op.apply_vec(x) - z
            history.append(0.5 * float(np.linalg.norm(resid) ** 2)
                           + lam * reg.value(x, shapes))
            g = op.adjoint_vec(resid)
            x_test = reg.prox(x - step * g, shapes, lam * step)
            fp_resid = float(np.linalg.norm(x - x_test)) / step
            if fp_resid <= opts.tol_fp * lam:
                status = STATUS_CONVERGED
                break

    misfit_vec = op.apply_vec(x) - z
    obj = 0.5 * float(np.linalg.norm(misfit_vec) ** 2) + lam * reg.value(x, shapes)
    p = -misfit_vec / lam
    pt = (1.0 / max(1.0, reg.dual_norm(op.adjoint_apply(p)))) * p
    gap = obj - (lam * float(pt @ z) - 0.5 * lam ** 2 * float(pt @ pt))
    report = SolveReport(
        iterations=it, objective=obj, feas_residual=float(np.linalg.norm(misfit_vec)),
        duality_gap=gap, status=status, dual=p,
        extras={"objective_history": history, "step": step, "fp_residual": fp_resid},
    )
    return unpack_blocks(x, shapes), report


# ---------------------------------------------------------------------------
# regularized solver with hard equality constraints (Davis-Yin)


def solve_regularized_constrained(op_data, z_data, op_hard, z_hard, lam, opts=None):
    """Minimize ``0.5||Phi_d F - z_d||^2 + lambda sum ||F_i||_*`` s.t. ``Phi_h F = z_h``.

    Three-operator splitting: the smooth data term enters through its
    gradient, the hard constraints through an exact cached projection, and
    the nuclear norm through blockwise SVT.  The returned iterate satisfies
    the hard constraints to projection accuracy.  No dual certificate is
    formed, so ``report.duality_gap`` is nan; the stationarity residual that
    decides convergence is ``report.extras["kkt_residual"]``.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    opts = opts or SolverOptions()
    if op_data.domain_shapes != op_hard.domain_shapes:
        raise ValueError("data and constraint operators must share the domain")
    shapes = op_data.domain_shapes
    zd = np.asarray(z_data, float)
    zh = np.asarray(z_hard, float)

    # step below the 2 / L cocoercivity limit of the smooth term
    lip = (op_data.opnorm_estimate * (1.0 + 1e-3)) ** 2
    gamma = 1.8 / lip
    projector = _AffineProjector(op_hard, zh)

    y = projector.least_norm_point()
    status = STATUS_MAX_ITER
    x_g = y
    kkt = np.inf
    it = 0
    for it in range(1, opts.max_iter + 1):
        x_g, _ = projector.project(y)
        grad = op_data.adjoint_vec(op_data.apply_vec(x_g) - zd)
        prox_in = 2.0 * x_g - y - gamma * grad
        x_f = NUCLEAR.prox(prox_in, shapes, lam * gamma)
        shift = x_f - x_g
        if it % opts.check_every == 0:
            # stationarity: the prox supplies an exact nuclear-norm
            # subgradient at x_f; project the full gradient onto the
            # constraint null space and account for the iterate mismatch
            sub = (prox_in - x_f) / gamma
            kkt = float(np.linalg.norm(projector.project_null(grad + sub))) \
                + float(np.linalg.norm(shift)) / gamma
            if kkt <= opts.tol_fp * lam * (1.0 + np.linalg.norm(x_g)):
                y = y + shift
                status = STATUS_CONVERGED
                break
        y = y + shift

    hard_resid = float(np.linalg.norm(op_hard.apply_vec(x_g) - zh))
    misfit = float(np.linalg.norm(op_data.apply_vec(x_g) - zd))
    obj = 0.5 * misfit ** 2 + lam * NUCLEAR.value(x_g, shapes)
    report = SolveReport(
        iterations=it, objective=obj, feas_residual=misfit,
        duality_gap=np.nan, status=status,
        dual=(zd - op_data.apply_vec(x_g)) / lam,
        extras={"hard_residual": hard_resid, "step": gamma, "kkt_residual": kkt},
    )
    return unpack_blocks(x_g, shapes), report


# ---------------------------------------------------------------------------
# PSD trace minimization


def require_symmetric(vs, n, message):
    """Stack ``n x n`` matrices and check that each one is symmetric.

    A matrix ``V`` passes when ``np.allclose(V, V.T)`` holds at the absolute
    tolerance ``1e-12 * max(1, max|V|)``; otherwise ``ValueError(message)``
    is raised.  Returns the ``(m, n, n)`` float stack.

    The test runs on slices of about ``_SYMMETRY_CHUNK`` entries: testing a
    PhaseLift stack (120 matrices of 20 x 20) whole raised the peak memory
    of a run by 1.3 MB.
    """
    stack = np.reshape(np.asarray(vs, float), (-1, n, n))
    for part in np.array_split(stack, max(1, stack.size // _SYMMETRY_CHUNK)):
        atol = 1e-12 * np.fmax(1.0, np.abs(part).max(axis=(1, 2)))
        if not np.all(np.isclose(part, part.transpose(0, 2, 1), atol=atol[:, None, None])):
            raise ValueError(message)
    return stack


def _psd_operator(vs):
    vs = [np.asarray(v, float) for v in vs]
    n = vs[0].shape[0]
    if any(v.shape != (n, n) for v in vs):
        raise ValueError("all constraint matrices must share a common square size")
    stack = require_symmetric(vs, n, "constraint matrices must be symmetric")
    return AffineOperator(stack.reshape(len(vs), n * n), [(n, n)])


def solve_psd_trace_min(vs, z, lam=0.0, opts=None):
    """Trace minimization over the PSD cone under linear measurements.

    ``lam == 0`` solves ``min trace(X) s.t. X >= 0, <V_k, X> = z_k``;
    ``lam > 0`` solves ``min 0.5 sum(<V_k,X> - z_k)^2 + lam * trace(X)``
    over the PSD cone.  Trace equals the nuclear norm on the cone.
    """
    op = _psd_operator(vs)
    z = np.asarray(z, float)
    if lam == 0:
        blocks, report = solve_equality_nnm(op, z, opts=opts, reg=PSD_TRACE)
    else:
        blocks, report = solve_regularized_nnm(op, z, lam, opts=opts, reg=PSD_TRACE)
    x = 0.5 * (blocks[0] + blocks[0].T)
    return x, report


# ---------------------------------------------------------------------------
# duality audit


@dataclass
class GapReport:
    gap: float
    per_block: list
    flagged: bool


def duality_gap(blocks, p, op, z, tol=1e-6):
    """Audit a primal/dual pair for the equality-constrained problem.

    Computes ``sum_i ||F_i||_* - <p, z>`` together with the per-block
    optimality defects ``<F_i, H_i> - ||F_i||_*`` for ``H = Phi^* p``.  The
    report is flagged when the dual vector violates ``max_i ||H_i|| <= 1`` or
    the primal point is infeasible beyond tolerance.
    """
    z = np.asarray(z, float)
    p = np.asarray(p, float)
    h_blocks = op.adjoint_apply(p)
    per_block = []
    obj = 0.0
    for f, h in zip(blocks, h_blocks):
        nn = nuclear_norm(f)
        obj += nn
        per_block.append(float(np.sum(f * h)) - nn)
    gap = obj - float(p @ z)
    dual_feasible = NUCLEAR.dual_norm(h_blocks) <= 1.0 + tol
    primal_feasible = (
        float(np.linalg.norm(op.apply(blocks) - z)) <= tol * (1.0 + np.linalg.norm(z))
    )
    return GapReport(
        gap=gap, per_block=per_block, flagged=not (dual_feasible and primal_feasible),
    )
