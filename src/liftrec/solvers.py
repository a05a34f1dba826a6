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
# the equality solve accepts a dual vector with ``dual_norm(Phi^* p) <= 1 + TOL_DUAL``
TOL_DUAL = 1e-6


@dataclass
class SolverOptions:
    """Tuning knobs shared by the solvers.

    Feasibility is measured relative to ``1 + ||z||`` and the duality gap
    relative to ``1 + objective``.  A report's ``extras["objective_history"]``
    holds the objective at each convergence check, every ``check_every``
    iterations.
    """

    max_iter: int = 50_000
    tol_feas: float = 1e-8
    tol_gap: float = 1e-6
    tol_fp: float = 1e-8
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

    The interface every measurement map implements: a subclass supplies the
    private hooks ``_matvec``/``_rmatvec`` on the concatenation of the
    row-major raveled blocks and the public hooks

    * ``rank_one_maps(i, u, v) -> [(start, left, right), ...]``: the maps
      of block ``i`` on rank-one elements, one entry per run of codomain
      rows the block reaches, the rows ``start`` to ``start + len(left)``:
      there ``left @ b == Phi_i(u b^T)`` (``run x cols``) and
      ``right @ a == Phi_i(a v^T)`` (``run x rows``), and both are zero on
      every row outside the runs;
    * ``gram()``: the codomain Gram ``Phi Phi^*``;
    * ``max_abs_entry()``: the largest absolute entry of the matrix form.

    The public applies, the spectral data (one cached eigendecomposition of
    ``gram()``) and the exact projection onto ``{x : Phi x = z}`` live here
    and delegate to them.

    Parameters
    ----------
    domain_shapes : list of (rows, cols)
        One shape per block.
    codomain_dim : int
        Number of measurements.
    """

    def __init__(self, domain_shapes, codomain_dim):
        self.domain_shapes = [tuple(s) for s in domain_shapes]
        self._offsets = [0, *itertools.accumulate(r * c for r, c in self.domain_shapes)]
        self.domain_dim = self._offsets[-1]
        self.codomain_dim = int(codomain_dim)
        self._eig = None

    @property
    def n_blocks(self):
        return len(self.domain_shapes)

    def apply(self, blocks):
        return self._matvec(pack_blocks(blocks))

    def apply_vec(self, vec):
        return self._matvec(vec)

    def adjoint_apply(self, p):
        return unpack_blocks(self._rmatvec(p), self.domain_shapes)

    def adjoint_vec(self, p):
        return self._rmatvec(p)

    def _range(self):
        """Eigenpairs of ``Phi Phi^*`` above the rank cutoff and the inverse
        eigenvalues, computed once.

        Non-finite eigenvalues raise: the cutoff would drop them silently.
        Pool threads sharing an operator may both compute it on first use;
        both get the same values, so no lock is taken.
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
            evals = evals[keep]
            self._eig = evals, np.ascontiguousarray(evecs[:, keep]), 1.0 / evals
        return self._eig

    @property
    def opnorm_estimate(self):
        """Largest singular value, from the cached Gram eigendecomposition."""
        return float(np.sqrt(self._range()[0][-1]))

    def pinv_gram(self, r):
        """``(Phi Phi^*)^+ r``, pseudo-inverse on the kept range."""
        _, evecs, inv_evals = self._range()
        return evecs @ (inv_evals * (evecs.T @ r))

    def range_residual(self, z):
        """Distance from ``z`` to the kept range: nonzero for inconsistent data."""
        _, evecs, _ = self._range()
        return float(np.linalg.norm(z - evecs @ (evecs.T @ z)))

    def project(self, x, z):
        """Projection ``x - Phi^* mu`` of ``x`` onto ``{Phi x = z}``, and ``mu``.

        The rank cutoff handles redundant rows (in the Calderon system: the
        boundary-equality rows along the scale-functional direction, which
        the integral rows already imply); an inconsistent ``z`` lands on the
        least-squares affine set.  ``z = 0`` projects onto the null space.
        """
        mu = self.pinv_gram(self.apply_vec(x) - z)
        return x - self.adjoint_vec(mu), mu


class DenseOperator(AffineOperator):
    """The map held as a dense ``(m, D)`` matrix on the concatenation of the
    row-major raveled blocks; D must equal the blocks' total entry count."""

    def __init__(self, matrix, domain_shapes):
        matrix = np.ascontiguousarray(matrix, dtype=float)
        super().__init__(domain_shapes, matrix.shape[0])
        if matrix.shape[1] != self.domain_dim:
            raise ValueError(
                f"matrix has {matrix.shape[1]} columns, blocks need {self.domain_dim}"
            )
        self.matrix = matrix

    def _matvec(self, vec):
        return self.matrix @ vec

    def _rmatvec(self, p):
        return self.matrix.T @ p

    def rank_one_maps(self, i, u, v):
        """One run over every row: block ``i``'s columns as a ``(rows, r, c)``
        stack, contracted with ``u`` on the row axis and with ``v`` on the
        column axis."""
        a = self.matrix[:, self._offsets[i]:self._offsets[i + 1]].reshape(
            -1, *self.domain_shapes[i])
        return [(0, u @ a, a @ v)]

    def gram(self):
        """The codomain Gram matrix ``Phi Phi^*``."""
        return self.matrix @ self.matrix.T

    def max_abs_entry(self):
        """Largest absolute entry of the matrix form."""
        return float(max(self.matrix.max(), -self.matrix.min()))


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


def _require_finite(**values):
    """Raise ``NumericFailure`` naming the first non-finite value or array."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise NumericFailure(f"non-finite {name}")


def _at_iteration(solver, it, exc):
    """The failure ``exc`` restated with the solver and iteration it hit."""
    return NumericFailure(f"{solver}: {exc} at iteration {it}")


# ---------------------------------------------------------------------------
# equality-constrained solver (Douglas-Rachford)


def solve_equality_nnm(op, z, opts=None, reg=NUCLEAR):
    """Minimize the regularizer ``reg`` subject to ``Phi F = z``.

    Douglas-Rachford iteration: exact affine projection (``op.project``, from
    the operator's cached factorization of ``Phi Phi^*``), the prox of ``reg``
    with threshold ``rho = ||z|| / ||Phi||`` (blockwise SVT for the default
    nuclear norm), reflected update.
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
    it = 0
    try:
        _require_finite(data=z)

        znorm = float(np.linalg.norm(z))
        rho = max(znorm, 1e-12) / op.opnorm_estimate

        feas_floor = op.range_residual(z)
        infeasible = feas_floor > opts.tol_feas * (1.0 + znorm)

        y = op.adjoint_vec(op.pinv_gram(z))
        history = []
        status = STATUS_MAX_ITER
        x = y
        p = np.zeros_like(z)
        gap = np.inf
        feas = np.inf

        for it in range(1, opts.max_iter + 1):
            x, mu = op.project(y, z)
            w = reg.prox(2.0 * x - y, shapes, rho)
            y = y + w - x

            if it % opts.check_every == 0 or it == 1:
                p = -mu / rho
                feas = float(np.linalg.norm(op.apply_vec(x) - z))
                _require_finite(residual=feas)
                obj = reg.value(x, shapes)
                _require_finite(objective=obj)
                history.append(obj)
                gap = obj - float(p @ z)
                dual_viol = max(0.0, reg.dual_norm(op.adjoint_apply(p)) - 1.0)
                if infeasible:
                    status = STATUS_INFEASIBLE
                    break
                if (
                    feas <= opts.tol_feas * (1.0 + znorm)
                    and abs(gap) <= opts.tol_gap * (1.0 + abs(obj))
                    and dual_viol <= TOL_DUAL
                ):
                    status = STATUS_CONVERGED
                    break
    except NumericFailure as exc:
        raise _at_iteration("solve_equality_nnm", it, exc) from exc

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


def solve_regularized_nnm(op, z_noisy, lam, opts=None, reg=NUCLEAR, x0=None):
    """Minimize ``0.5 ||Phi F - z||^2 + lambda * reg(F)``.

    Forward-backward with momentum and gradient-based restart; the step is
    ``1 / ||Phi||^2``.  The iteration starts from the blocks ``x0``, or from
    zero when ``x0`` is None; a nearby solution (the same problem at a
    neighbouring ``z`` or ``lambda``) saves iterations.  Terminates when the
    fixed-point residual of the prox-gradient map falls below
    ``tol_fp * lambda``.  The reported gap is the Fenchel gap at the dual
    candidate ``(z - Phi F) / lambda``, scaled into the dual unit ball of
    ``reg``.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    opts = opts or SolverOptions()
    z = np.asarray(z_noisy, float)
    shapes = op.domain_shapes
    x = np.zeros(op.domain_dim) if x0 is None else pack_blocks(x0)
    if x.size != op.domain_dim:
        raise ValueError(f"start point has {x.size} entries, blocks need {op.domain_dim}")
    it = 0
    try:
        _require_finite(data=z, start=x)

        lip = (op.opnorm_estimate * (1.0 + 1e-3)) ** 2
        step = 1.0 / lip

        yv = x.copy()
        theta = 1.0
        history = []
        status = STATUS_MAX_ITER
        fp_resid = np.inf

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
                obj = 0.5 * float(np.linalg.norm(resid) ** 2) + lam * reg.value(x, shapes)
                _require_finite(objective=obj)
                history.append(obj)
                g = op.adjoint_vec(resid)
                x_test = reg.prox(x - step * g, shapes, lam * step)
                fp_resid = float(np.linalg.norm(x - x_test)) / step
                _require_finite(residual=fp_resid)
                if fp_resid <= opts.tol_fp * lam:
                    status = STATUS_CONVERGED
                    break
    except NumericFailure as exc:
        raise _at_iteration("solve_regularized_nnm", it, exc) from exc

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
    it = 0
    try:
        _require_finite(data=zd, constraint_data=zh)

        # step below the 2 / L cocoercivity limit of the smooth term
        lip = (op_data.opnorm_estimate * (1.0 + 1e-3)) ** 2
        gamma = 1.8 / lip

        y = op_hard.adjoint_vec(op_hard.pinv_gram(zh))
        status = STATUS_MAX_ITER
        x_g = y
        kkt = np.inf
        for it in range(1, opts.max_iter + 1):
            x_g, _ = op_hard.project(y, zh)
            grad = op_data.adjoint_vec(op_data.apply_vec(x_g) - zd)
            prox_in = 2.0 * x_g - y - gamma * grad
            x_f = NUCLEAR.prox(prox_in, shapes, lam * gamma)
            shift = x_f - x_g
            if it % opts.check_every == 0:
                # stationarity: the prox supplies an exact nuclear-norm
                # subgradient at x_f; project the full gradient onto the
                # constraint null space and account for the iterate mismatch
                sub = (prox_in - x_f) / gamma
                null_part, _ = op_hard.project(grad + sub, 0.0)
                kkt = float(np.linalg.norm(null_part)) \
                    + float(np.linalg.norm(shift)) / gamma
                _require_finite(residual=kkt)
                if kkt <= opts.tol_fp * lam * (1.0 + np.linalg.norm(x_g)):
                    status = STATUS_CONVERGED
                    break
            y = y + shift
    except NumericFailure as exc:
        raise _at_iteration("solve_regularized_constrained", it, exc) from exc

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


def solve_psd_trace_min(op, z, lam=0.0, opts=None, x0=None):
    """Trace minimization over the PSD cone under linear measurements.

    ``op`` maps one symmetric ``n x n`` block to the measurements
    ``<V_k, X>``.  ``lam == 0`` solves ``min trace(X) s.t. X >= 0,
    <V_k, X> = z_k``; ``lam > 0`` solves ``min 0.5 sum(<V_k,X> - z_k)^2 +
    lam * trace(X)`` over the PSD cone, starting from the matrix ``x0`` when
    one is given.  Trace equals the nuclear norm on the cone.
    """
    if op.n_blocks != 1 or op.domain_shapes[0][0] != op.domain_shapes[0][1]:
        raise ValueError("the PSD solve needs one square block")
    z = np.asarray(z, float)
    if lam == 0:
        if x0 is not None:
            raise ValueError("the exact solve starts from the least-norm point, not x0")
        blocks, report = solve_equality_nnm(op, z, opts=opts, reg=PSD_TRACE)
    else:
        blocks, report = solve_regularized_nnm(
            op, z, lam, opts=opts, reg=PSD_TRACE, x0=None if x0 is None else [x0]
        )
    x = 0.5 * (blocks[0] + blocks[0].T)
    return x, report


# ---------------------------------------------------------------------------
# duality audit


@dataclass
class GapReport:
    gap: float
    per_block: list
    flagged: bool


def duality_gap(blocks, p, op, z):
    """Audit a primal/dual pair for the equality-constrained problem.

    Computes ``sum_i ||F_i||_* - <p, z>`` together with the per-block
    optimality defects ``<F_i, H_i> - ||F_i||_*`` for ``H = Phi^* p``.  The
    report is flagged when the dual vector violates ``max_i ||H_i|| <= 1`` or
    the primal point is infeasible, each beyond a tolerance of ``1e-6``.
    """
    tol = 1e-6
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
