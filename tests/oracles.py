"""Independent reference computations that the tests check the pipelines against."""

import numpy as np

from liftrec.errors import DegenerateInput
from liftrec.hilbert import BivariateField
from liftrec.lowrank import RankOneModel
from liftrec.pde1d import Potential1D


def linear_system_oracle(problem, measurements):
    """Independent recovery through the lifted linear system.

    With noiseless data the state block already carries the diagonal of the
    true field, so the potential follows by pointwise division by the
    (positive) state and the field is its rank-one completion.  Interior
    nodes coincide with the direct-division recovery built on the same
    stencil.
    """
    if measurements.delta != 0:
        raise ValueError("the linear-system oracle requires noiseless measurements")
    u_vals = problem.u_true.values
    if np.abs(u_vals).min() < 1e-10:
        raise DegenerateInput("state too close to zero for pointwise division")
    q_vals = measurements.z1_values / u_vals
    q_hat = Potential1D(problem.grid, q_vals)
    f_hat = BivariateField(problem.h2, problem.l2, np.outer(u_vals, q_vals))
    return q_hat, f_hat


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
