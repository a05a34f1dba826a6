"""Finite-dimensional quadratic inverse problems and phase retrieval.

The simplest instantiation of the lifting idea: measurements are quadratic
forms ``<V_k x, x>``, linear in the lift ``X = x x^T``, and the rank-one
constraint is relaxed to trace minimization over the PSD cone.  Serves as a
regression baseline for the solver stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certify import add_noise, noise_weight
from .solvers import DenseOperator, solve_psd_trace_min


def require_symmetric(vs, n):
    """Stack ``n x n`` matrices and check that each one is symmetric.

    A matrix ``V`` passes when ``np.allclose(V, V.T)`` holds (default
    relative tolerance, absolute tolerance ``1e-12 * max(1, max|V|)``);
    otherwise ``ValueError`` is raised.  Returns the ``(m, n, n)`` float
    stack, a view of ``vs`` when that already is one.

    An exactly symmetric stack passes, so the stack is first compared with
    its transpose exactly; only a stack that fails (near-symmetric entries,
    a NaN) takes the tolerance test.
    """
    stack = np.reshape(np.asarray(vs, float), (-1, n, n))
    if np.array_equal(stack, stack.transpose(0, 2, 1)):
        return stack
    atol = 1e-12 * np.fmax(1.0, np.abs(stack).max(axis=(1, 2)))
    if not np.all(np.isclose(stack, stack.transpose(0, 2, 1), atol=atol[:, None, None])):
        raise ValueError("measurement matrices must be symmetric")
    return stack


@dataclass
class QuadraticInstance:
    """Symmetric measurement matrices, data, and optional ground truth.

    ``measurements`` is the ``(m, n, n)`` float stack of the ``V_k``; any
    sequence of ``n x n`` matrices is accepted and stacked.  ``op`` is the
    measurement operator ``X -> (<V_k, X>)_k`` on one ``n x n`` block, built
    once from the validated stack; every solve on the instance shares it and
    its cached Gram factorization.
    """

    n: int
    measurements: np.ndarray
    z: np.ndarray
    x_true: np.ndarray | None = None
    op: DenseOperator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.z = np.asarray(self.z, float)
        stack = np.asarray(self.measurements, float)
        if stack.shape[1:] != (self.n, self.n):
            raise ValueError("measurement matrices must be n x n")
        self.measurements = require_symmetric(stack, self.n)
        self.op = DenseOperator(stack.reshape(len(stack), self.n ** 2),
                                [(self.n, self.n)])
        if self.x_true is not None:
            self.x_true = np.asarray(self.x_true, float)
            pred = (stack @ self.x_true) @ self.x_true
            if not np.allclose(pred, self.z, atol=1e-12 * max(1.0, np.abs(self.z).max())):
                raise ValueError("data is inconsistent with the stated ground truth")


def make_phase_retrieval(n, m, seed):
    """Seeded Gaussian phase-retrieval instance with unit-norm ground truth.

    The m sensing vectors are drawn as one ``(m, n)`` block, the same
    generator stream as m draws of n.
    """
    if n < 1:
        raise ValueError("need at least one unknown")
    if m < 1:
        raise ValueError("need at least one measurement")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    while np.linalg.norm(x) == 0:     # excluded in all but measure-zero draws
        x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    v = rng.standard_normal((m, n))
    # one pairing per vector: a batched v @ x sums in another order and
    # moves the last bits of the data
    z = np.array([(v_k @ x) ** 2 for v_k in v])
    return QuadraticInstance(n=n, measurements=v[:, :, None] * v[:, None, :],
                             z=z, x_true=x)


def recover_phaselift(instance, lam=0.0, z=None, opts=None, x0=None):
    """PSD trace-minimization recovery with rank-one extraction.

    Solves the lifted problem through the PSD solver, then extracts
    ``sqrt(sigma_1)`` times the leading eigenvector.  The sign of the
    estimate is fixed deterministically (quadratic data cannot tell the two
    signs apart).  A regularized solve (``lam > 0``) starts from the lifted
    matrix ``x0`` when one is given, such as the lift of the same instance
    at a neighbouring noise level.

    Returns
    -------
    x_hat : ndarray
    x_mat : ndarray
        The recovered lifted matrix.
    report : SolveReport
    """
    data = instance.z if z is None else np.asarray(z, float)
    x_mat, report = solve_psd_trace_min(instance.op, data, lam=lam, opts=opts, x0=x0)
    evals, evecs = np.linalg.eigh(x_mat)
    top = float(max(evals[-1], 0.0))
    x_hat = np.sqrt(top) * evecs[:, -1]
    pivot = np.flatnonzero(np.abs(x_hat) > 1e-10 * max(np.abs(x_hat).max(), 1e-30))
    if pivot.size and x_hat[pivot[0]] < 0:
        x_hat = -x_hat
    # a 1 x 1 lift has one eigenvalue and is rank one
    rank_ratio = float(evals[-2] / evals[-1]) if evals.size > 1 and evals[-1] > 0 else 0.0
    report.extras["rank_ratio"] = rank_ratio
    return x_hat, x_mat, report


def recover_rows(instance, deltas, seed, c, opts):
    """One row of ``phaselift``'s table per noise level in ``deltas``.  Level
    ``i`` draws its noise from ``seed + 1 + i``; noise and weights are
    :mod:`~liftrec.certify`'s, every weight checked first.  A noisy level
    starts from the lift of the level before it, O(delta) away, which saves
    APG iterations."""
    lams = [noise_weight(c, delta) for delta in deltas]
    rows, x_prev = [], None
    for i, (delta, lam) in enumerate(zip(deltas, lams)):
        if delta == 0:
            x_hat, x_prev, report = recover_phaselift(instance, opts=opts)
        else:
            x_hat, x_prev, report = recover_phaselift(
                instance, lam=lam, z=add_noise(instance.z, delta, seed + 1 + i),
                opts=opts, x0=x_prev)
        rows.append({
            "n": instance.n, "m": instance.z.size, "delta": delta, "lambda": lam,
            "err": sign_aligned_error(x_hat, instance.x_true),
            "rank_ratio": report.extras["rank_ratio"],
            "iters": report.iterations, "status": report.status,
        })
    return rows


def sign_aligned_error(x_hat, x_true):
    """Recovery error modulo the global sign."""
    return min(
        float(np.linalg.norm(x_hat - x_true)),
        float(np.linalg.norm(x_hat + x_true)),
    )
