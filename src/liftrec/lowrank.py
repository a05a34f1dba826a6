"""Nuclear-norm toolbox on whitened matrices.

Everything here operates on plain matrices in whitened coordinates, where
the Hilbert-Schmidt inner product is Frobenius and the nuclear / operator
norms are the usual singular value sums and maxima.

With values stored rows-by-x and columns-by-y, the operator attached to a
matrix ``M`` maps x-vectors to y-vectors: "apply M to a" is ``M.T @ a`` and
"apply the adjoint to b" is ``M @ b``.  The tangent space at a rank-one
model ``sigma * outer(u, v)`` is spanned by matrices sharing the row or
column space of the model, with orthogonal projector

    P_T(M) = uu^T M + M vv^T - uu^T M vv^T,
    P_T_perp(M) = (I - uu^T) M (I - vv^T).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure

# Membership tolerances: equality checks at 1e-8 absolute (below solver
# precision, above round-off), strict inequalities by a separate margin.
DEFAULT_TOL = 1e-8
DEFAULT_MARGIN = 1e-3

# svt_prox takes the thin SVD once the Gram eigenvalue error reaches this
# share of tau^2: from sigma_max / tau of about 6e5 at n = 121
_SVT_GRAM_RTOL = 1e-2

# power steps of the rank-one attempt; at sigma_2 / sigma_1 = 0.1 each step
# cuts the residual a hundredfold, so a certifiable input needs about eight
_SVT_POWER_STEPS = 16


@dataclass
class RankOneModel:
    """Ground-truth triple (sigma, u, v) in whitened coordinates.

    ``u`` and ``v`` are unit vectors; ``sigma > 0``.  The model determines
    the tangent space used by all certificate computations.
    """

    sigma: float
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, float)
        self.v = np.asarray(self.v, float)
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        for name, vec in (("u", self.u), ("v", self.v)):
            nrm = np.linalg.norm(vec)
            if abs(nrm - 1.0) > 1e-12:
                raise ValueError(f"{name} must be a unit vector, |{name}| = {nrm!r}")

    @property
    def matrix(self):
        """The rank-one matrix sigma * u v^T."""
        return self.sigma * np.outer(self.u, self.v)


def _svdvals(m):
    try:
        return np.linalg.svd(np.asarray(m, float), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure("SVD did not converge") from exc


def nuclear_norm(m):
    """Sum of singular values."""
    return float(np.sum(_svdvals(m)))


def operator_norm(m):
    """Largest singular value."""
    s = _svdvals(m)
    return float(s[0]) if s.size else 0.0


def svt_prox(m, tau):
    """Singular value thresholding, the prox of ``tau * ||.||_*``.

    Soft-shrinks the singular values of ``m`` by ``tau``; the output X
    satisfies the prox optimality condition ``(m - X) / tau`` in the
    subdifferential of the nuclear norm at X.

    With ``a`` the tall orientation of ``m`` and ``a^T a = V diag(lam) V^T``,
    the output is ``a V_k diag(1 - tau / sqrt(lam_k)) V_k^T`` over the pairs
    with ``lam_k > tau^2``: the exact identity, from the small-side Gram in
    place of a thin SVD.

    Only the singular values above ``tau`` matter, and near a solution of
    a rank-one lift at most one of them is.  :func:`_rank_one_svt` first
    tries to certify that from the Gram's trace and a few power steps, and
    then returns that pair shrunk, or zero.  Any other input takes one
    symmetric eigendecomposition of the Gram.  The eigenvalues carry an
    absolute error of about ``n eps lam_max``; once that reaches a share
    ``_SVT_GRAM_RTOL`` of ``tau^2`` the Gram cannot place the threshold and
    the thin SVD runs instead, as it does when entries beyond about 1e154
    overflow the Gram.
    """
    if not math.isfinite(tau):
        raise NumericFailure(f"non-finite SVT threshold {tau}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    m = np.asarray(m, float)
    if not np.isfinite(m).all():
        raise NumericFailure("non-finite entry in the SVT input")
    wide = m.shape[0] < m.shape[1]
    a = m.T if wide else m
    x = _rank_one_svt(a, tau, max(m.shape))
    if x is not None:
        return x.T if wide else x
    try:
        evals, evecs = np.linalg.eigh(a.T @ a)
    except np.linalg.LinAlgError:
        evals = None
    # negated: a Gram that overflowed (inf or NaN eigenvalues) takes the SVD
    if evals is None or not (
        max(m.shape) * np.finfo(float).eps * evals[-1] < _SVT_GRAM_RTOL * tau * tau
    ):
        try:
            u, s, vt = np.linalg.svd(m, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericFailure("SVD did not converge") from exc
        return (u * np.maximum(s - tau, 0.0)) @ vt
    keep = evals > tau * tau
    v = evecs[:, keep]
    x = ((a @ v) * (1.0 - tau / np.sqrt(evals[keep]))) @ v.T
    return x.T if wide else x


def _rank_one_svt(a, tau, n):
    """SVT of the tall ``a`` when its Gram certifies at most one singular
    value above ``tau``; None otherwise.

    The eigenvalues of the Gram ``C = a^T a`` are nonnegative and sum to
    its trace, the squared column norms of ``a``, so ``trace <= tau^2``
    makes the output zero.  Otherwise power steps ``v <- a^T (a v)`` from
    the Gram column of the largest diagonal entry give Rayleigh quotients
    ``lam = ||a v||^2`` that rise from that entry towards ``lam_1``.  Once
    the eigen-residual ``r`` is at round-off, ``lam > tau^2`` and
    ``trace - lam <= tau^2`` prove ``sigma_2 <= tau < sigma_1``, and the
    output is the leading pair shrunk by ``tau``.  The Gram must resolve
    ``tau`` as in :func:`svt_prox`: ``n eps lam < _SVT_GRAM_RTOL tau^2``.

    A failed attempt stays cheap.  The largest diagonal entry already
    fails the resolution test when every ``lam`` would.  With ``v`` at
    angle ``theta`` from the leading eigenvector, ``lam_1 - lam <=
    r / cos(theta)``, so a trace remainder above ``tau^2 + 2 r`` means the
    certificate fails or the steps are still far off; either ends the
    attempt, as do a residual that falls less than tenfold in a step and
    the step cap.
    """
    diag = np.einsum("ij,ij->j", a, a)
    trace = float(diag.sum())
    if not math.isfinite(trace):
        return None
    tau2 = tau * tau
    if trace <= tau2:
        return np.zeros_like(a)
    j = diag.argmax()
    gram_err = n * np.finfo(float).eps
    if not gram_err * diag[j] < _SVT_GRAM_RTOL * tau2:
        return None
    # the residual floor is about 2.5 eps lam at every size from 2 to 289
    tol = 4.0 * gram_err
    v = a.T @ a[:, j]
    v = v / math.sqrt(v @ v)
    prev = np.inf
    for _ in range(_SVT_POWER_STEPS):
        y = a @ v
        w = a.T @ y
        lam = float(y @ y)
        r = w - lam * v
        resid = math.sqrt(r @ r)
        if trace - lam - tau2 > 2.0 * resid:
            return None
        if resid <= tol * lam:
            break
        if resid > 0.1 * prev:
            return None
        prev = resid
        v = w / math.sqrt(w @ w)
    else:
        return None
    if not (tau2 < lam and trace - lam <= tau2 and gram_err * lam < _SVT_GRAM_RTOL * tau2):
        return None
    return (y * (1.0 - tau / math.sqrt(lam)))[:, None] * v


def project_tangent(m, model):
    """Orthogonal projection onto the tangent space of the model."""
    m = np.asarray(m, float)
    _check_shape(m, model)
    u, v = model.u, model.v
    mu = u @ m                # row vector u^T M
    mv = m @ v                # column vector M v
    umv = u @ mv
    return np.outer(u, mu) + np.outer(mv, v) - umv * np.outer(u, v)


def project_tangent_complement(m, model):
    """Orthogonal projection onto the complement, ``(I - uu^T) M (I - vv^T)``."""
    m = np.asarray(m, float)
    _check_shape(m, model)
    u, v = model.u, model.v
    tmp = m - np.outer(u, u @ m)
    return tmp - np.outer(tmp @ v, v)


def _check_shape(m, model):
    if m.shape != (model.u.size, model.v.size):
        raise ValueError(
            f"matrix shape {m.shape} does not match model ({model.u.size}, {model.v.size})"
        )


def subdiff_check(h, model, form="ii", strict=False, tol=DEFAULT_TOL, margin=DEFAULT_MARGIN):
    """Test membership of H in the nuclear-norm subdifferential at the model.

    Four equivalent formulations are available:

    * ``i``:   ``||H|| <= 1`` and ``<H, uv^T> = 1``;
    * ``ii``:  ``P_T(H) = uv^T`` and ``||P_T_perp(H)|| <= 1``;
    * ``iii``: ``W = H - uv^T`` satisfies ``W^T u = 0``, ``W v = 0``, ``||W|| <= 1``;
    * ``iv``:  ``H^T u = v``, ``H v = u`` and the bilinear form restricted to
      the orthogonal complements is bounded by 1.

    With ``strict`` the norm bounds are tightened to ``1 - margin``.

    Returns
    -------
    ok : bool
    report : dict
        Numerical residuals backing the decision.
    """
    h = np.asarray(h, float)
    _check_shape(h, model)
    u, v = model.u, model.v
    bound = 1.0 - margin if strict else 1.0 + tol

    if form == "i":
        norm_ok = operator_norm(h) <= bound
        pairing = float(u @ h @ v)
        eq_resid = abs(pairing - 1.0)
        ok = norm_ok and eq_resid <= tol
        report = {"form": "i", "op_norm": operator_norm(h), "pairing_residual": eq_resid}
    elif form == "ii":
        tangent_resid = float(np.linalg.norm(project_tangent(h, model) - np.outer(u, v)))
        w_norm = operator_norm(project_tangent_complement(h, model))
        ok = tangent_resid <= tol and w_norm <= bound
        report = {"form": "ii", "tangent_residual": tangent_resid, "w_norm": w_norm}
    elif form == "iii":
        w = h - np.outer(u, v)
        null_resid = max(float(np.linalg.norm(u @ w)), float(np.linalg.norm(w @ v)))
        w_norm = operator_norm(w)
        ok = null_resid <= tol and w_norm <= bound
        report = {"form": "iii", "null_residual": null_resid, "w_norm": w_norm}
    elif form == "iv":
        interp_resid = max(
            float(np.linalg.norm(h.T @ u - v)),
            float(np.linalg.norm(h @ v - u)),
        )
        # sup over unit u_perp, v_perp of |<H u_perp, v_perp>| is the operator
        # norm of H compressed to the complements
        offdiag = operator_norm(project_tangent_complement(h, model))
        ok = interp_resid <= tol and offdiag <= bound
        report = {"form": "iv", "interp_residual": interp_resid, "offdiag_norm": offdiag}
    else:
        raise ValueError(f"unknown form {form!r}, expected one of i, ii, iii, iv")

    report["strict"] = strict
    report["bound"] = bound
    return ok, report


def bregman_divergence(f, f_ref, h):
    """Bregman divergence of the nuclear norm between ``f`` and ``f_ref``.

    ``D_H = ||f||_* - ||f_ref||_* - <H, f - f_ref>``; nonnegative whenever H
    is a valid subgradient at ``f_ref``.  Warns when the membership check
    fails at the reference point.
    """
    f = np.asarray(f, float)
    f_ref = np.asarray(f_ref, float)
    h = np.asarray(h, float)
    scale = max(nuclear_norm(f_ref), 1.0)
    membership = (
        operator_norm(h) <= 1.0 + 1e-6
        and abs(float(np.sum(h * f_ref)) - nuclear_norm(f_ref)) <= 1e-6 * scale
    )
    if not membership:
        warnings.warn("H does not look like a subgradient at f_ref", stacklevel=2)
    return nuclear_norm(f) - nuclear_norm(f_ref) - float(np.sum(h * (f - f_ref)))
