"""Finite-dimensional quadratic inverse problems and phase retrieval.

The simplest instantiation of the lifting idea: measurements are quadratic
forms ``<V_k x, x>``, linear in the lift ``X = x x^T``, and the rank-one
constraint is relaxed to trace minimization over the PSD cone.  Serves as a
regression baseline for the solver stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solvers import require_symmetric, solve_psd_trace_min


@dataclass
class QuadraticInstance:
    """Symmetric measurement matrices, data, and optional ground truth."""

    n: int
    measurements: list
    z: np.ndarray
    x_true: np.ndarray | None = None

    def __post_init__(self):
        self.z = np.asarray(self.z, float)
        if any(v.shape != (self.n, self.n) for v in self.measurements):
            raise ValueError("measurement matrices must be n x n")
        require_symmetric(self.measurements, self.n, "measurement matrices must be symmetric")
        if self.x_true is not None:
            self.x_true = np.asarray(self.x_true, float)
            pred = np.array([self.x_true @ v @ self.x_true for v in self.measurements])
            if not np.allclose(pred, self.z, atol=1e-12 * max(1.0, np.abs(self.z).max())):
                raise ValueError("data is inconsistent with the stated ground truth")


def make_phase_retrieval(n, m, seed):
    """Seeded Gaussian phase-retrieval instance with unit-norm ground truth."""
    if m < 1:
        raise ValueError("need at least one measurement")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    while np.linalg.norm(x) == 0:     # excluded in all but measure-zero draws
        x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    vs = []
    z = np.empty(m)
    for k in range(m):
        v = rng.standard_normal(n)
        vs.append(np.outer(v, v))
        z[k] = (v @ x) ** 2
    return QuadraticInstance(n=n, measurements=vs, z=z, x_true=x)


def add_noise(instance, delta, seed):
    """Perturb the data by a Gaussian vector of exact norm ``delta``."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(instance.z.size)
    e *= delta / np.linalg.norm(e)
    return instance.z + e


def recover_phaselift(instance, lam=0.0, z=None, opts=None):
    """PSD trace-minimization recovery with rank-one extraction.

    Solves the lifted problem through the PSD solver, then extracts
    ``sqrt(sigma_1)`` times the leading eigenvector.  The sign of the
    estimate is fixed deterministically (quadratic data cannot tell the two
    signs apart).

    Returns
    -------
    x_hat : ndarray
    x_mat : ndarray
        The recovered lifted matrix.
    report : SolveReport
    """
    data = instance.z if z is None else np.asarray(z, float)
    x_mat, report = solve_psd_trace_min(
        instance.measurements, data, lam=lam, opts=opts
    )
    evals, evecs = np.linalg.eigh(x_mat)
    top = float(max(evals[-1], 0.0))
    x_hat = np.sqrt(top) * evecs[:, -1]
    pivot = np.flatnonzero(np.abs(x_hat) > 1e-10 * max(np.abs(x_hat).max(), 1e-30))
    if pivot.size and x_hat[pivot[0]] < 0:
        x_hat = -x_hat
    rank_ratio = float(evals[-2] / evals[-1]) if evals[-1] > 0 else 0.0
    report.extras["rank_ratio"] = rank_ratio
    return x_hat, x_mat, report


def sign_aligned_error(x_hat, x_true):
    """Recovery error modulo the global sign."""
    return min(
        float(np.linalg.norm(x_hat - x_true)),
        float(np.linalg.norm(x_hat + x_true)),
    )
