"""Recovery of a 1-D potential from internal state measurements.

Pipeline: lift the unknown to the bivariate field F(x, y) = u(x) q(y),
measure it through the affine map

    F  ->  (diagonal of F in L2,  integral of F over y in H2),

and recover F as the minimum-nuclear-norm solution of the measurement
equations.  The first measurement block is represented directly in L2 on
the full grid: composing the state map F -> v_F with the Laplacian isometry
of the zero-boundary H2 structure turns it into plain diagonal extraction,
and the noiseless data vector is then the pointwise product u * q.

The module also houses everything certificate-related for this geometry:
the closed-form pre-certificate family indexed by a scalar offset alpha,
its exact and analytic off-tangent norms, the scalar sufficient condition
for non-degeneracy, and the a-priori stability constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import certify
from .errors import DegenerateInput
from .hilbert import (
    Grid1D,
    assemble_inner_product,
    build_grid_1d,
    first_difference_1d,
    second_difference_1d,
)
from .lowrank import RankOneModel, operator_norm, project_tangent_complement
from .pde1d import (
    Potential1D,
    StateField1D,
    inject_h2_noise,
    solve_schrodinger_1d,
    step_potential,
)
from .solvers import (
    AffineOperator,
    SolveReport,
    solve_equality_nnm,
    solve_regularized_nnm,
)


@dataclass
class InternalProblem:
    """Ground-truth data of one internal-measurement instance."""

    grid: Grid1D
    q_true: Potential1D
    u_true: StateField1D          # carries the boundary data f_a, f_b
    h2: object
    l2: object
    u_normalized: np.ndarray = field(repr=False)
    q_normalized: np.ndarray = field(repr=False)
    model: RankOneModel = field(repr=False)   # the whitened lift of u (x) q


@dataclass
class InternalMeasurements:
    """Measurement data, exact or polluted through a noisy state."""

    z1_values: np.ndarray          # L2 block on the full grid
    z2_values: np.ndarray          # H2 block
    delta: float
    delta_meas: float              # induced bound on the measurement perturbation


def build_internal_problem(grid, q, f_a=1.0, f_b=1.0):
    """Forward-solve an instance and assemble its noiseless measurements.

    The potential and the boundary data must be positive, which keeps the
    state positive on the closed interval.  Noisy measurements come from
    :func:`make_measurements`.
    """
    if not isinstance(q, Potential1D):
        q = Potential1D(grid, np.asarray(q, float))
    if q.inf <= 0:
        raise ValueError(f"potential must be positive, inf q = {q.inf}")
    if f_a <= 0 or f_b <= 0:
        raise ValueError("boundary data must be positive")

    u = solve_schrodinger_1d(grid, q, f_a, f_b)
    if u.values.min() <= 0:
        raise ValueError("state is not positive; check the potential")
    h2 = assemble_inner_product(grid, "h2")
    l2 = assemble_inner_product(grid, "l2")

    u_norm = h2.norm(u.values)
    q_norm = l2.norm(q.values)
    u_n = u.values / u_norm
    q_n = q.values / q_norm
    uw = h2.whiten_vec(u_n)
    vw = l2.whiten_vec(q_n)
    model = RankOneModel(
        sigma=u_norm * q_norm, u=uw / np.linalg.norm(uw), v=vw / np.linalg.norm(vw)
    )

    problem = InternalProblem(
        grid=grid, q_true=q, u_true=u, h2=h2, l2=l2,
        u_normalized=u_n, q_normalized=q_n, model=model,
    )
    return problem, make_measurements(problem)


def make_measurements(problem, delta=0.0, seed=0):
    """Assemble (noisy) measurements from a forward-solved instance.

    The noiseless first block is the diagonal of the true lifted field,
    the pointwise product ``u * q``; state noise enters it through the
    full-grid second-difference stencil and enters the second block
    directly.
    """
    u = problem.u_true
    u_delta = inject_h2_noise(u, delta, seed, problem.h2)
    noise = u_delta.values - u.values
    d2 = second_difference_1d(problem.grid)
    z1 = u.values * problem.q_true.values + d2 @ noise
    int_q = problem.q_true.integral
    z2 = int_q * u_delta.values
    delta_meas = delta * np.sqrt(1.0 + int_q ** 2)
    return InternalMeasurements(
        z1_values=z1, z2_values=z2, delta=float(delta),
        delta_meas=float(delta_meas),
    )


class InternalOperator(AffineOperator):
    """The internal measurement map, applied from its factors in O(n^2).

    On a whitened field ``Fw`` (n x n) the map is

        block 1:  sqrt(w_k) * diag(F)_k = sum_i Uinv[k, i] * Fw[i, k]
        block 2:  Fw @ sqrt(w)

    with ``Uinv`` the inverse of the H2 whitening factor, and its adjoint
    sends ``(p1, p2)`` to ``Uinv^T * p1 + outer(p2, sqrt(w))``.  The dense
    ``2n x n^2`` form is built only on request, by :attr:`matrix`.
    """

    def __init__(self, uinv, sqrtw):
        self.uinv = np.ascontiguousarray(uinv, dtype=float)
        self.sqrtw = np.asarray(sqrtw, dtype=float)
        self.n = self.sqrtw.size
        super().__init__([(self.n, self.n)], 2 * self.n)

    def _matvec(self, vec):
        fw = vec.reshape(self.n, self.n)
        return np.concatenate([np.einsum("ki,ik->k", self.uinv, fw), fw @ self.sqrtw])

    def _rmatvec(self, p):
        p1, p2 = p[:self.n], p[self.n:]
        return (self.uinv.T * p1 + np.outer(p2, self.sqrtw)).ravel()

    def rank_one_maps(self, i, u, v):
        # Fw = u b^T: block 1 is (Uinv @ u) * b, block 2 is u (b . sqrt(w));
        # Fw = a v^T: block 1 is v * (Uinv @ a), block 2 is a (v . sqrt(w))
        left = np.vstack([np.diag(self.uinv @ u), np.outer(u, self.sqrtw)])
        right = np.vstack([v[:, None] * self.uinv, (v @ self.sqrtw) * np.eye(self.n)])
        return [(0, left, right)]

    def gram(self):
        g12 = self.uinv * self.sqrtw[:, None]
        return np.block([
            [np.diag(np.einsum("ki,ki->k", self.uinv, self.uinv)), g12],
            [g12.T, np.sum(self.sqrtw ** 2) * np.eye(self.n)],
        ])

    def max_abs_entry(self):
        return max(float(np.abs(self.uinv).max()), float(self.sqrtw.max()))

    @property
    def matrix(self):
        """Dense ``2n x n^2`` form on the row-major vec, built on each access."""
        n = self.n
        # entry (i, j) of the whitened matrix sits at i * n + j
        a1 = np.zeros((n, n * n))
        for k in range(n):
            a1[k, np.arange(n) * n + k] = self.uinv[k, :]

        a2 = np.zeros((n, n * n))
        for i in range(n):
            a2[i, i * n:(i + 1) * n] = self.sqrtw

        return np.vstack([a1, a2])


def assemble_internal_operator(problem):
    """Whitened form of the internal measurement map.

    Block 1 extracts the diagonal, measured with the L2 quadrature weights
    on the full grid (the Laplacian-isometry representation of the state
    block); block 2 integrates over the second variable, measured in H2.
    The adjoint is the transpose in whitened coordinates.
    """
    return InternalOperator(problem.h2.unwhitener, np.sqrt(problem.grid.quad_weights))


def measurement_vector(problem, measurements):
    """Whitened codomain vector consumed by the solvers."""
    z1 = np.sqrt(problem.grid.quad_weights) * measurements.z1_values
    z2 = problem.h2.whiten_vec(measurements.z2_values)
    return np.concatenate([z1, z2])


def extract_q_from_trace(f_values, problem):
    """Potential from the boundary rows of a recovered field.

    The boundary rows of the true field are the boundary data times the
    potential, so the weighted average ``(f_a F[0, :] + f_b F[-1, :]) /
    (f_a^2 + f_b^2)`` reproduces it exactly and is linear in the field.
    """
    f_a, f_b = problem.u_true.f_a, problem.u_true.f_b
    denom = f_a ** 2 + f_b ** 2
    if denom == 0:
        raise ValueError("boundary data vanishes; trace extraction undefined")
    vals = (f_a * f_values[0, :] + f_b * f_values[-1, :]) / denom
    return Potential1D(problem.grid, vals)


def recover_internal(problem, measurements, c=1.0, opts=None, op=None, x0=None):
    """Solve the convex relaxation and extract the potential.

    Noiseless measurements (``delta == 0``) run the equality-constrained
    solve; noisy ones run the regularized solve with weight
    ``lambda = c * delta``.  ``op`` is the problem's assembled operator,
    built here when the caller holds none.  A noisy solve starts from the
    whitened field ``x0`` when one is given, such as the exact lift of the
    same problem.  Returns the potential estimate, the whitened recovered
    field, and the solve report (with the rank diagnostic
    ``sigma2 / sigma1`` in ``extras``).
    """
    if op is None:
        op = assemble_internal_operator(problem)
    z = measurement_vector(problem, measurements)
    if measurements.delta == 0:
        if x0 is not None:
            raise ValueError("the exact solve starts from the least-norm point, not x0")
        blocks, report = solve_equality_nnm(op, z, opts=opts)
    else:
        blocks, report = solve_regularized_nnm(
            op, z, c * measurements.delta, opts=opts,
            x0=None if x0 is None else [x0],
        )

    f_white = blocks[0]
    svals = np.linalg.svd(f_white, compute_uv=False)
    report.extras["rank_ratio"] = float(svals[1] / svals[0]) if svals[0] > 0 else 0.0
    # unwhiten: F = L_x^{-1} Fw L_y^{-T}
    tmp = scipy.linalg.solve_triangular(problem.h2.whitener, f_white, lower=False)
    f_vals = scipy.linalg.solve_triangular(problem.l2.whitener, tmp.T, lower=False).T
    q_hat = extract_q_from_trace(f_vals, problem)
    return q_hat, f_white, report


@dataclass
class RowState:
    """What every internal row of one jump size shares.

    The problem, its operator, the scalar condition (``lhs``, ``passed``),
    the least-norm pre-certificate (``None`` when degenerate) and the exact
    (delta = 0) solve: its potential ``q_hat``, whitened ``lift`` and
    ``report``.  Every noisy row starts from ``lift``, since the noisy lift
    lies within O(delta) of it.
    """

    problem: InternalProblem
    op: InternalOperator
    lhs: float
    passed: bool
    cert: certify.CertificateReport | None
    q_hat: Potential1D
    lift: np.ndarray
    report: SolveReport


def prepare_rows(problem, exact, opts=None):
    """Condition, operator, pre-certificate and exact solve of ``problem``
    from its noiseless measurements ``exact``, in that order."""
    lhs, _, passed = sufficient_condition(problem)
    op = assemble_internal_operator(problem)
    try:
        cert = certify.precertificate(op, [problem.model])
    except certify.DegenerateCertificate:
        cert = None
    q_hat, lift, report = recover_internal(problem, exact, opts=opts, op=op)
    return RowState(problem, op, lhs, passed, cert, q_hat, lift, report)


def noisy_row(state, delta, seed, c=1.0, opts=None):
    """Measurements at ``delta`` > 0 and ``seed``, and their solve from the
    exact lift of ``state``: the measurements, then :func:`recover_internal`'s
    potential, whitened field and report."""
    meas = make_measurements(state.problem, delta=delta, seed=seed)
    return (meas, *recover_internal(state.problem, meas, c=c, opts=opts,
                                    op=state.op, x0=state.lift))


# ---------------------------------------------------------------------------
# closed-form certificate family


def closed_form_precertificate(problem, alpha):
    """Whitened certificate candidate with offset ``alpha``.

    Member of the one-parameter family interpolating the tangent conditions
    of the normalized model: a rank-one term aligned with the state, a
    kernel-weighted diagonal term carrying ``(q - alpha) / u``, and a
    rank-one correction restoring the adjoint interpolation.  All kernel
    applications run as triangular solves in whitened coordinates, so the
    interpolation identities hold to round-off for every ``alpha``.
    """
    u_n = problem.u_normalized
    q_n = problem.q_normalized
    if u_n.min() <= 0:
        raise DegenerateInput("certificate family needs a positive state")
    w = problem.grid.quad_weights
    sqrtw = np.sqrt(w)
    intq = float(w @ q_n)
    if intq == 0:
        raise DegenerateInput("normalized potential integrates to zero")

    a_vec = problem.model.u            # whitened normalized state
    g = (q_n - alpha) / u_n
    upper_t = problem.h2.whitener.T
    term2 = scipy.linalg.solve_triangular(upper_t, np.diag(g * sqrtw), lower=True)
    mvec = scipy.linalg.solve_triangular(upper_t, w * g * q_n, lower=True)
    h = np.outer(a_vec, sqrtw) / intq + term2 - np.outer(mvec, sqrtw) / intq
    return h


def certificate_norm(problem, alpha):
    """Exact and analytic off-tangent norms of the family member ``alpha``.

    The exact value is the operator norm of the tangent-complement part of
    the whitened certificate; the analytic majorant is
    ``|Omega| / (int q)^2 * max|q - alpha| / inf u`` in normalized
    quantities.  The exact value never exceeds the majorant (a theorem of
    the construction); a violation raises, as it indicates a bug.
    """
    h = closed_form_precertificate(problem, alpha)
    exact = operator_norm(project_tangent_complement(h, problem.model))
    u_n = problem.u_normalized
    q_n = problem.q_normalized
    w = problem.grid.quad_weights
    intq = float(w @ q_n)
    omega = problem.grid.length
    bound = (omega / intq ** 2) * float(np.abs(q_n - alpha).max()) / float(u_n.min())
    if exact > bound + 1e-9:
        raise AssertionError(
            f"certificate norm {exact} exceeds its analytic bound {bound}"
        )
    return exact, bound


def optimal_alpha(problem):
    """Midpoint offset minimizing ``max|q - alpha|`` (normalized units)."""
    q_n = problem.q_normalized
    return 0.5 * (float(q_n.min()) + float(q_n.max()))


def alpha_study(problem, n_points=41):
    """Exact/bound table over an offset grid plus the midpoint optimum.

    The grid runs from ``0.5`` below the normalized potential's minimum to
    ``0.5`` above its maximum.
    """
    q_n = problem.q_normalized
    alphas = np.linspace(q_n.min() - 0.5, q_n.max() + 0.5, n_points)
    rows = []
    for alpha in alphas:
        exact, bound = certificate_norm(problem, float(alpha))
        rows.append({"alpha": float(alpha), "exact": exact, "bound": bound})
    a_star = optimal_alpha(problem)
    exact, bound = certificate_norm(problem, a_star)
    best = min(rows, key=lambda r: r["exact"])
    return {
        "rows": rows,
        "alpha_star": a_star,
        "exact_at_star": exact,
        "bound_at_star": bound,
        "alpha_best": best["alpha"],
        "exact_best": best["exact"],
    }


def summed_h2_norm(grid, values):
    """Summed-seminorm variant of the second-order Sobolev norm.

    ``|u| + |u'| + |u''|`` in L2, an equivalent norm dominating the
    quadratic-form one; it is the convention of the reference computation
    behind the jump-size interval, so the scalar condition below uses it.
    """
    w = grid.quad_weights
    d1 = first_difference_1d(grid)
    d2 = second_difference_1d(grid)
    values = np.asarray(values, float)
    return float(
        np.sqrt(w @ values ** 2)
        + np.sqrt(w @ (d1 @ values) ** 2)
        + np.sqrt(w @ (d2 @ values) ** 2)
    )


def sufficient_condition(problem):
    """Scalar sufficient condition for non-degeneracy, both normalizations.

    Returns ``(lhs_normalized, lhs_unnormalized, passed)``.  The two forms
    are algebraically identical and must agree to round-off; the condition
    passes when the common value is below one.  The state norm uses the
    summed-seminorm convention, which dominates the quadratic-form norm, so
    passing here is stricter than what the certificate bound needs.
    """
    grid = problem.grid
    u_vals = problem.u_true.values
    q = problem.q_true
    u_h2 = summed_h2_norm(grid, u_vals)
    q_l2 = problem.l2.norm(q.values)
    lhs_norm = _condition_lhs(grid, u_vals, q.values, u_h2, q_l2)
    lhs_unnorm = (grid.length / (2.0 * float(u_vals.min()))) \
        * (q.sup - q.inf) / q.integral ** 2 * q_l2 * u_h2
    return lhs_norm, lhs_unnorm, bool(lhs_norm < 1.0)


def _condition_lhs(grid, u_vals, q_vals, u_h2, q_l2):
    """Condition value on the normalized pair ``u / u_h2``, ``q / q_l2``."""
    u_n = u_vals / u_h2
    q_n = q_vals / q_l2
    intq_n = float(grid.quad_weights @ q_n)
    return (grid.length / (2.0 * float(u_n.min()))) \
        * (float(q_n.max()) - float(q_n.min())) / intq_n ** 2


def apriori_constant(problem):
    """Stability constant of the measurement map on the tangent space.

    Evaluates ``sqrt(2) * max(|u|_H2 / inf u, (|q|_L2 + |q|_inf |u|_H2 /
    inf u) / int q)`` with discrete norms; every tangent field F then
    satisfies ``|F| <= C * |Phi F|``.
    """
    u_vals = problem.u_true.values
    q = problem.q_true
    u_h2 = problem.h2.norm(u_vals)
    q_l2 = problem.l2.norm(q.values)
    inf_u = float(u_vals.min())
    q_inf_norm = float(np.abs(q.values).max())
    return float(np.sqrt(2.0) * max(
        u_h2 / inf_u,
        (q_l2 + q_inf_norm * u_h2 / inf_u) / q.integral,
    ))


# ---------------------------------------------------------------------------
# parameter studies


def condition_lhs_for_q0(q0, grid, base=1.0, lo=0.4, hi=0.6, f_a=1.0, f_b=1.0):
    """Sufficient-condition value for the step family at a given jump size,
    with boundary data ``f_a``, ``f_b``.

    Uses the summed-seminorm state norm of :func:`sufficient_condition`.
    """
    q = step_potential(grid, base=base, q0=q0, lo=lo, hi=hi)
    if q.inf <= 0:
        return np.inf
    u = solve_schrodinger_1d(grid, q, f_a, f_b)
    q_l2 = float(np.sqrt(grid.quad_weights @ q.values ** 2))
    return _condition_lhs(grid, u.values, q.values, summed_h2_norm(grid, u.values), q_l2)


def find_condition_interval(n=401, base=1.0, lo=0.4, hi=0.6, f_a=1.0, f_b=1.0):
    """Bisection for the jump-size interval on which the condition holds.

    Locates the crossings of the condition value through 1 on both sides of
    zero for the step family, each to a bracket of ``1e-3``; returns
    ``(q0_lower, q0_upper)``.
    """
    grid = build_grid_1d(n, 0.0, 1.0)

    def lhs(q0):
        return condition_lhs_for_q0(q0, grid, base=base, lo=lo, hi=hi, f_a=f_a, f_b=f_b)

    def crossing(a, b):
        # condition holds at a, fails at b
        for _ in range(200):
            mid = 0.5 * (a + b)
            if lhs(mid) < 1.0:
                a = mid
            else:
                b = mid
            if abs(b - a) < 1e-3:
                break
        return 0.5 * (a + b)

    # scan outward for brackets; the step keeps base + q0 positive
    lo_bad = None
    q0 = 0.0
    while q0 > -base + 1e-6:
        q0 -= 0.05
        q0 = max(q0, -base + 1e-6)
        if lhs(q0) >= 1.0:
            lo_bad = q0
            break
    hi_bad = None
    q0 = 0.0
    while q0 < 6.0:
        q0 += 0.05
        if lhs(q0) >= 1.0:
            hi_bad = q0
            break
    lower = crossing(lo_bad + 0.05, lo_bad) if lo_bad is not None else -base
    upper = crossing(hi_bad - 0.05, hi_bad) if hi_bad is not None else np.inf
    return lower, upper


def loglog_slope(deltas, errors):
    """Least-squares slope of log error against log delta."""
    x = np.log(np.asarray(deltas, float))
    y = np.log(np.asarray(errors, float))
    x = x - x.mean()
    return float((x @ (y - y.mean())) / (x @ x))
