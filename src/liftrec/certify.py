"""Dual-certificate machinery shared by all instantiations.

A candidate certificate for a block list of rank-one models is an element
``H = Phi^* p`` of the adjoint range.  Exact recovery is certified when H
interpolates the tangent space of every block (``P_T(H_i) = u_i v_i^T``)
and the off-tangent operator norms stay strictly below one.  The
pre-certificate is the least-norm solution of the tangent interpolation
system; it is a cheap candidate, not a guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DegenerateCertificate
from .lowrank import (
    DEFAULT_MARGIN,
    DEFAULT_TOL,
    bregman_divergence,
    nuclear_norm,  # noqa: F401  liftbench traces this binding by name
    operator_norm,
    project_tangent,
    project_tangent_complement,
)

RANK_RTOL = 1e-12
# smallest lambda_min / lambda_max of the tangent Gram (condition number of
# the tangent map below 1e3) that is solved by Cholesky instead of the SVD
_GRAM_RCOND = 1e-6


@dataclass
class CertificateReport:
    """Diagnostics of a candidate certificate against a block model list."""

    h_blocks: list
    tangent_residuals: np.ndarray
    w_norms: np.ndarray
    ndsc_pass: bool
    p: np.ndarray | None = None
    sigma_min: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def max_w_norm(self):
        return float(self.w_norms.max()) if self.w_norms.size else 0.0


def complement_basis(u):
    """Deterministic orthonormal basis of the complement of a unit vector.

    Columns of the Householder reflector mapping e_1 to (minus) ``u``.
    """
    u = np.asarray(u, float)
    n = u.size
    s = 1.0 if u[0] >= 0 else -1.0
    v = u.copy()
    v[0] += s
    q = np.eye(n) - (2.0 / (v @ v)) * np.outer(v, v)
    return q[:, 1:]


def _tangent_map(op, models, symmetric=False):
    """Matrix of Phi restricted to the tangent product space.

    The orthonormal tangent basis of a block is ``u v^T``, ``u Vperp_k^T``
    and ``Uperp_j v^T`` (``Uperp``, ``Vperp`` from :func:`complement_basis`);
    the shared direction ``u v^T`` is counted once, so a block has
    ``rows + cols - 1`` columns.  With ``symmetric`` (square models with
    ``u = v``, as in quadratic lifts with symmetric measurements) the basis
    is ``u u^T`` and ``(u Uperp_k^T + Uperp_k u^T) / sqrt(2)``, ``rows``
    columns.  Each column is read off the block's rank-one maps, so no basis
    element is formed.  Also returns the right-hand side selecting the
    rank-one direction of each block.
    """
    if len(models) != op.n_blocks:
        raise ValueError(f"{len(models)} models for {op.n_blocks} blocks")
    ends = np.cumsum([model.u.size + (0 if symmetric else model.v.size - 1)
                      for model in models])
    m_t = np.empty((op.codomain_dim, int(ends[-1])))
    rhs = np.zeros(m_t.shape[1])
    for i, (model, end) in enumerate(zip(models, ends)):
        u, v = model.u, model.v
        uperp = complement_basis(u)
        if symmetric:
            if u.size != v.size or np.linalg.norm(u - v) > 1e-10:
                raise ValueError("symmetric tangent map needs a model with u = v")
            left, right = op.rank_one_maps(i, u, u)
            cols = [(left @ u)[:, None], (left + right) @ uperp / np.sqrt(2.0)]
        else:
            left, right = op.rank_one_maps(i, u, v)
            cols = [(left @ v)[:, None], left @ complement_basis(v), right @ uperp]
        start = end - sum(c.shape[1] for c in cols)
        m_t[:, start:end] = np.hstack(cols)
        rhs[start] = 1.0
    return m_t, rhs


def _tangent_least_norm(m_t, rhs):
    """Extreme singular values of ``M_T`` and the least-norm ``p`` of ``M_T^T p = rhs``.

    A well-conditioned tall map is solved from its ``k x k`` Gram
    ``G = M_T^T M_T``: ``sigma = sqrt(eigvalsh(G))`` and
    ``p = M_T G^{-1} rhs`` by Cholesky.  Below the cutoff the Gram's
    rounding floor, about ``k * eps * lambda_max``, would blur the small
    singular values, so the thin SVD of ``M_T`` gives them and every rank
    decision near ``RANK_RTOL`` stays the SVD's.
    A map with fewer rows than columns cannot be injective on the tangent
    space, so its ``sigma_min`` is 0.

    Returns ``(sigma_min, sigma_max, p)``.
    """
    rows, k = m_t.shape
    if rows >= k:
        gram = m_t.T @ m_t
        evals = np.linalg.eigvalsh(gram)
        if evals[0] > _GRAM_RCOND * evals[-1]:
            p = m_t @ scipy.linalg.cho_solve(
                scipy.linalg.cho_factor(gram, overwrite_a=True), rhs)
            return float(np.sqrt(evals[0])), float(np.sqrt(evals[-1])), p
    u_svd, svals, vt_svd = np.linalg.svd(m_t, full_matrices=False)
    p = u_svd @ ((vt_svd @ rhs) / svals)
    sigma_min = float(svals[-1]) if rows >= k else 0.0
    return sigma_min, (float(svals[0]) if svals.size else 0.0), p


def tangent_injectivity(op, models):
    """Smallest singular value of Phi restricted to the tangent space.

    A positive value certifies discrete injectivity; its reciprocal is the
    empirical stability constant.
    """
    m_t, rhs = _tangent_map(op, models)
    return _tangent_least_norm(m_t, rhs)[0]


def ndsc_verify(h_blocks, models, margin=DEFAULT_MARGIN):
    """Evaluate tangent residual and off-tangent norm for each block.

    Passing requires every tangent residual below ``DEFAULT_TOL`` and every
    off-tangent operator norm at most ``1 - margin``.
    """
    resid = []
    wn = []
    for h, model in zip(h_blocks, models):
        pt = project_tangent(h, model)
        resid.append(float(np.linalg.norm(pt - np.outer(model.u, model.v))))
        wn.append(operator_norm(project_tangent_complement(h, model)))
    resid = np.asarray(resid)
    wn = np.asarray(wn)
    passed = bool(np.all(resid <= DEFAULT_TOL) and np.all(wn <= 1.0 - margin))
    return CertificateReport(
        h_blocks=list(h_blocks), tangent_residuals=resid, w_norms=wn, ndsc_pass=passed,
    )


def precertificate(op, models, symmetric=False):
    """Least-norm dual vector interpolating the tangent conditions.

    Assembles the measurement map restricted to the tangent space, solves
    ``(P_T Phi^*) p = (u_i v_i^T)_i`` for the minimum-norm ``p`` (from the
    tangent Gram, or the SVD pseudoinverse when the map is ill-conditioned),
    and reports the resulting certificate diagnostics.

    Raises
    ------
    DegenerateCertificate
        When the restricted map is (numerically) rank deficient, carrying
        the offending smallest singular value.
    """
    m_t, rhs = _tangent_map(op, models, symmetric=symmetric)
    sigma_min, sigma_max, p = _tangent_least_norm(m_t, rhs)
    # scale against the full operator so a tangent space inside the kernel
    # registers as degenerate rather than as a tiny full-rank system
    scale = max(sigma_max, op.max_abs_entry())
    if scale == 0.0 or sigma_min <= RANK_RTOL * scale:
        raise DegenerateCertificate(
            f"tangent system is rank deficient (sigma_min = {sigma_min:.3e}); "
            "the least-norm pre-certificate is not defined",
            sigma_min=sigma_min,
        )
    h_blocks = op.adjoint_apply(p)
    report = ndsc_verify(h_blocks, models)
    report.p = p
    report.sigma_min = sigma_min
    report.extras["system_residual"] = float(np.linalg.norm(m_t.T @ p - rhs))
    return report


def robustness_bounds(op, f_delta, f_ref, models, h_blocks, p, c, delta):
    """Measured-versus-theoretical robustness quantities for a noisy solve.

    Evaluates the Bregman divergence between the noisy solution and the
    reference, the prediction error, and the off-tangent error mass, and
    compares each against its certified bound:

    * ``D_H <= (1 + c ||p||)^2 delta / (2 c)``
    * ``||Phi F_delta - Phi F_ref|| <= 2 (1 + c ||p||) delta``
    * ``sum_i ||P_perp(F_delta - F_ref)_i||_F <= D_H / (1 - max_i ||W_i||)``

    The bounds require H to be a valid subgradient at the reference and the
    regularization weight to equal ``c * delta``.  Each comparison allows
    ``1e-9`` of absolute round-off.
    """
    slack = 1e-9
    p_norm = float(np.linalg.norm(p))
    d_h = 0.0
    tperp_sum = 0.0
    w_max = 0.0
    for fd, fr, h, model in zip(f_delta, f_ref, h_blocks, models):
        d_h += bregman_divergence(fd, fr, h)
        tperp_sum += float(np.linalg.norm(project_tangent_complement(fd - fr, model)))
        w_max = max(w_max, operator_norm(project_tangent_complement(h, model)))
    pred = float(np.linalg.norm(op.apply(f_delta) - op.apply(f_ref)))

    bound_dh = (1.0 + c * p_norm) ** 2 * delta / (2.0 * c)
    bound_pred = 2.0 * (1.0 + c * p_norm) * delta
    bound_tperp = d_h / (1.0 - w_max) if w_max < 1.0 else np.inf
    report = {
        "bregman": d_h,
        "bregman_bound": bound_dh,
        "bregman_ok": d_h <= bound_dh + slack,
        "prediction_error": pred,
        "prediction_bound": bound_pred,
        "prediction_ok": pred <= bound_pred + slack,
        "tperp_error": tperp_sum,
        "tperp_bound": bound_tperp,
        "tperp_ok": tperp_sum <= bound_tperp + slack,
        "p_norm": p_norm,
        "w_max": w_max,
    }
    report["all_ok"] = bool(
        report["bregman_ok"] and report["prediction_ok"] and report["tperp_ok"]
    )
    return report

