"""Dual-certificate machinery shared by all instantiations.

A candidate certificate for a block list of rank-one models is an element
``H = Phi^* p`` of the adjoint range.  Exact recovery is certified when H
interpolates the tangent space of every block (``P_T(H_i) = u_i v_i^T``)
and the off-tangent operator norms stay strictly below one.  The
pre-certificate is the least-norm solution of the tangent interpolation
system; it is a cheap candidate, not a guarantee.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import DegenerateCertificate, NumericFailure
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


def _times_complement(a, x):
    """``a @ Xperp``, ``Xperp`` a deterministic orthonormal basis of the
    complement of the unit vector ``x``, without forming it.

    ``Xperp`` is the Householder reflector ``I - beta w w^T`` mapping e_1 to
    (minus) ``x``, first column dropped, so the product is
    ``(a - beta (a w) w^T)[:, 1:]``.
    """
    w = x.copy()
    w[0] += 1.0 if x[0] >= 0 else -1.0
    return a[:, 1:] - np.outer((2.0 / (w @ w)) * (a @ w), w[1:])


def _tangent_map(op, models, symmetric=False):
    """Phi restricted to the tangent product space, as row runs per block.

    The orthonormal tangent basis of a block is ``u v^T``, ``u Vperp_k^T``
    and ``Uperp_j v^T`` (``Uperp``, ``Vperp`` from :func:`_times_complement`);
    the shared direction ``u v^T`` is counted once, so a block has
    ``rows + cols - 1`` columns.  With ``symmetric`` (square models with
    ``u = v``, as in quadratic lifts with symmetric measurements) the basis
    is ``u u^T`` and ``(u Uperp_k^T + Uperp_k u^T) / sqrt(2)``, ``rows``
    columns.  Each column is read off the block's rank-one maps, run by run,
    so neither a basis element nor the codomain-wide map is formed.

    Returns ``(runs, rhs)``: ``runs[i]`` lists ``(start, cols)``, the
    tangent columns of block ``i`` on the codomain rows ``start`` to
    ``start + len(cols)`` (zero elsewhere), and ``rhs`` selects the rank-one
    direction of each block.

    Raises
    ------
    NumericFailure
        When a tangent column has a non-finite entry.
    """
    if len(models) != op.n_blocks:
        raise ValueError(f"{len(models)} models for {op.n_blocks} blocks")
    runs, rhs = [], []
    for i, model in enumerate(models):
        u, v = model.u, model.v
        if symmetric and (u.size != v.size or np.linalg.norm(u - v) > 1e-10):
            raise ValueError("symmetric tangent map needs a model with u = v")
        block = []
        for start, left, right in op.rank_one_maps(i, u, u if symmetric else v):
            if symmetric:
                cols = [(left @ u)[:, None],
                        _times_complement(left + right, u) / np.sqrt(2.0)]
            else:
                cols = [(left @ v)[:, None], _times_complement(left, v),
                        _times_complement(right, u)]
            cols = np.hstack(cols)
            if not np.isfinite(cols).all():
                raise NumericFailure(f"non-finite tangent column in block {i}")
            block.append((start, cols))
        runs.append(block)
        rhs.append(np.eye(1, block[0][1].shape[1]).ravel())
    return runs, np.concatenate(rhs)


def _spans(runs):
    """The slice of ``M_T``'s columns that each block's runs fill."""
    dims = [block[0][1].shape[1] for block in runs]
    return [slice(end - dim, end) for dim, end in zip(dims, itertools.accumulate(dims))]


def _dense_tangent_map(runs, rows):
    """The ``rows x k`` matrix ``M_T`` scattered from its runs."""
    spans = _spans(runs)
    m_t = np.zeros((rows, spans[-1].stop))
    for block, span in zip(runs, spans):
        for start, cols in block:
            m_t[start:start + len(cols), span] += cols
    return m_t


def _apply_runs(runs, y, rows):
    """``M_T y``, run by run."""
    out = np.zeros(rows)
    for block, span in zip(runs, _spans(runs)):
        for start, cols in block:
            out[start:start + len(cols)] += cols @ y[span]
    return out


def _adjoint_runs(runs, p):
    """``M_T^T p``, run by run."""
    return np.concatenate([sum(cols.T @ p[start:start + len(cols)] for start, cols in block)
                           for block in runs])


class _TangentGram:
    """The tangent Gram ``K = M_T^T M_T`` from the runs, and its inverse.

    Only the blocks ``K_ij`` of block pairs whose runs share rows are formed.
    The blocks past the first that share rows with no other such block (all
    of them, for the coupled Calderon map) are leaves: ``K`` is an arrow on
    them, so each leaf ``K_ll`` is factored on its own and the rest, the hub,
    through its Schur complement ``S = K_HH - sum_l K_Hl K_ll^{-1} K_lH``.
    A map whose blocks all share rows has no leaves, and ``S = K``.

    Raises ``LinAlgError`` when ``K`` has a non-finite entry or a factor is
    not positive definite.
    """

    def __init__(self, runs):
        self.spans = _spans(runs)
        self.blocks = {}
        for i, j in itertools.combinations_with_replacement(range(len(runs)), 2):
            terms = [c1[lo - s1:hi - s1].T @ c2[lo - s2:hi - s2]
                     for s1, c1 in runs[i] for s2, c2 in runs[j]
                     for lo, hi in [(max(s1, s2), min(s1 + len(c1), s2 + len(c2)))]
                     if lo < hi]
            if terms:
                self.blocks[i, j] = functools.reduce(np.add, terms)
        if not all(np.isfinite(k_ij).all() for k_ij in self.blocks.values()):
            raise np.linalg.LinAlgError("non-finite tangent Gram")
        linked = {k for i, j in self.blocks if 0 < i < j for k in (i, j)}
        hub = [0, *sorted(linked)]
        self.hub = np.r_[tuple(self.spans[i] for i in hub)]
        schur = np.block([[self._block(i, j) for j in hub] for i in hub])
        self.leaves = []
        for leaf in range(1, len(runs)):
            if leaf in linked:
                continue
            factor = scipy.linalg.cho_factor(self._block(leaf, leaf))
            k_lh = np.hstack([self._block(leaf, j) for j in hub])
            w = scipy.linalg.cho_solve(factor, k_lh)
            schur -= k_lh.T @ w
            self.leaves.append((self.spans[leaf], factor, w))
        self.schur = scipy.linalg.cho_factor(schur, overwrite_a=True)

    def dense(self):
        n = len(self.spans)
        return np.block([[self._block(i, j) for j in range(n)] for i in range(n)])

    def _dim(self, i):
        return self.spans[i].stop - self.spans[i].start

    def _block(self, i, j):
        if (i, j) in self.blocks:
            return self.blocks[i, j]
        if (j, i) in self.blocks:
            return self.blocks[j, i].T
        return np.zeros((self._dim(i), self._dim(j)))

    def matvec(self, x):
        out = np.zeros_like(x)
        for (i, j), k_ij in self.blocks.items():
            out[self.spans[i]] += k_ij @ x[self.spans[j]]
            if i != j:
                out[self.spans[j]] += k_ij.T @ x[self.spans[i]]
        return out

    def solve(self, b):
        """``K^{-1} b``: eliminate the leaves, solve the hub, back-substitute."""
        r_hub = b[self.hub]
        for span, _, w in self.leaves:
            r_hub -= w.T @ b[span]
        x_hub = scipy.linalg.cho_solve(self.schur, r_hub)
        out = np.empty_like(b)
        out[self.hub] = x_hub
        for span, factor, w in self.leaves:
            out[span] = scipy.linalg.cho_solve(factor, b[span]) - w @ x_hub
        return out


def _largest_eigenvalue(matvec, k):
    """Largest eigenvalue of a symmetric ``k x k`` map by Lanczos (ARPACK),
    from a fixed start vector and to machine precision."""
    op = scipy.sparse.linalg.LinearOperator((k, k), matvec=matvec, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(k)
    return float(scipy.sparse.linalg.eigsh(op, k=1, which="LA", v0=v0, tol=0,
                                           return_eigenvectors=False)[0])


def _tangent_least_norm(runs, rhs, rows):
    """Extreme singular values of ``M_T`` and the least-norm ``p`` of ``M_T^T p = rhs``.

    ``M_T`` is held as the row runs of :func:`_tangent_map` on a codomain of
    ``rows`` rows.  A well-conditioned tall map is solved from its ``k x k``
    Gram ``K`` (:class:`_TangentGram`), with ``p = M_T K^{-1} rhs``.  When
    ``K`` has leaves, ``sigma_max^2`` and ``1 / sigma_min^2`` are the largest
    eigenvalues of ``K`` and ``K^{-1}`` by Lanczos: a few dozen products,
    where a dense eigensolve would cost far more than the block
    factorization.  Without leaves the factor is dense anyway, and one
    ``eigvalsh`` of ``K`` costs a small multiple of it, where Lanczos can
    need hundreds of products (the bottom of the internal model's spectrum
    is clustered within 0.5 %).
    Below the ``_GRAM_RCOND`` cutoff the Gram would blur the small singular
    values, so the thin SVD of the dense ``M_T`` gives them and every rank
    decision near ``RANK_RTOL`` stays the SVD's; a failed factorization or
    Lanczos run takes the SVD too.  A map with fewer rows than columns
    cannot be injective on the tangent space, so its ``sigma_min`` is 0.

    Returns ``(sigma_min, sigma_max, p)``.
    """
    k = rhs.size
    if rows >= k:
        try:
            gram = _TangentGram(runs)
            if gram.leaves:
                lam_max = _largest_eigenvalue(gram.matvec, k)
                lam_min = 1.0 / _largest_eigenvalue(gram.solve, k)
            else:
                evals = np.linalg.eigvalsh(gram.dense())
                lam_min, lam_max = evals[0], evals[-1]
        except (np.linalg.LinAlgError, scipy.sparse.linalg.ArpackError):
            pass
        else:
            if lam_min > _GRAM_RCOND * lam_max:
                p = _apply_runs(runs, gram.solve(rhs), rows)
                return float(np.sqrt(lam_min)), float(np.sqrt(lam_max)), p
    m_t = _dense_tangent_map(runs, rows)
    try:
        u_svd, svals, vt_svd = np.linalg.svd(m_t, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure("tangent map SVD did not converge") from exc
    p = u_svd @ ((vt_svd @ rhs) / svals)
    sigma_min = float(svals[-1]) if rows >= k else 0.0
    return sigma_min, (float(svals[0]) if svals.size else 0.0), p


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
    runs, rhs = _tangent_map(op, models, symmetric=symmetric)
    sigma_min, sigma_max, p = _tangent_least_norm(runs, rhs, op.codomain_dim)
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
    report.extras["system_residual"] = float(np.linalg.norm(_adjoint_runs(runs, p) - rhs))
    return report


def noise_weight(c, delta):
    """``lambda = c * delta``, the weight of a row at noise level ``delta``:
    0 at ``delta == 0``, else positive with a finite reciprocal (the solvers
    divide by it) or ``ValueError``."""
    if delta == 0:
        return 0.0
    lam = c * delta
    if not (0 < lam < math.inf and math.isfinite(1.0 / lam)):
        raise ValueError(f"lambda must be positive with a finite reciprocal, got {c} * {delta}")
    return lam


def add_noise(z, delta, seed):
    """``z`` plus a Gaussian vector of exact norm ``delta`` drawn from ``seed``."""
    e = np.random.default_rng(seed).standard_normal(np.size(z))
    e *= delta / np.linalg.norm(e)
    return z + e


def robustness_bounds(op, f_delta, f_ref, models, cert, c, delta):
    """Measured-versus-theoretical robustness quantities for a noisy solve.

    Evaluates the Bregman divergence between the noisy solution and the
    reference, the prediction error, and the off-tangent error mass, and
    compares each against its certified bound, ``H`` and ``p`` from ``cert``:

    * ``D_H <= (1 + c ||p||)^2 delta / (2 c)``
    * ``||Phi F_delta - Phi F_ref|| <= 2 (1 + c ||p||) delta``
    * ``sum_i ||P_perp(F_delta - F_ref)_i||_F <= D_H / (1 - max_i ||W_i||)``

    The bounds require H to be a valid subgradient at the reference, noise
    of norm ``delta`` (:func:`add_noise`) and the weight ``c * delta``
    (:func:`noise_weight`).  Each comparison allows ``1e-9`` of round-off.
    """
    slack = 1e-9
    p_norm = float(np.linalg.norm(cert.p))
    d_h = 0.0
    tperp_sum = 0.0
    for fd, fr, h, model in zip(f_delta, f_ref, cert.h_blocks, models):
        d_h += bregman_divergence(fd, fr, h)
        tperp_sum += float(np.linalg.norm(project_tangent_complement(fd - fr, model)))
    w_max = cert.max_w_norm
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

