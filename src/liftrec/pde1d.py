"""1-D elliptic solvers and utilities for the internal-measurement problem.

Dirichlet rows are eliminated rather than penalized, so the interior block
of every tridiagonal system stays symmetric.  The discrete Laplacian is the
standard 3-point stencil; full-grid derivative estimates fall back to
second-order one-sided stencils at the endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DegenerateInput, EigenvalueHit, NumericFailure
from .hilbert import Grid1D, second_difference_1d


@dataclass
class Potential1D:
    """Node values of a potential with cached inf, sup and trapezoid integral."""

    grid: Grid1D
    values: np.ndarray
    inf: float = field(init=False)
    sup: float = field(init=False)
    integral: float = field(init=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, float)
        if self.values.shape != (self.grid.n,):
            raise ValueError(
                f"potential has {self.values.size} values for a grid of {self.grid.n} nodes"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("potential values must be finite")
        self.inf = float(self.values.min())
        self.sup = float(self.values.max())
        self.integral = float(self.grid.quad_weights @ self.values)


def step_potential(grid, base=1.0, q0=0.0, lo=0.4, hi=0.6):
    """Potential ``base + q0`` on the open interval (lo, hi), ``base`` outside."""
    vals = np.full(grid.n, base, float)
    inside = (grid.nodes > lo) & (grid.nodes < hi)
    vals[inside] += q0
    return Potential1D(grid, vals)


def constant_potential(grid, value):
    return Potential1D(grid, np.full(grid.n, float(value)))


def _interior_tridiag(grid, q_vals):
    """Banded form of (-Lap + q) on interior nodes, Dirichlet eliminated."""
    n, h = grid.n, grid.h
    m = n - 2
    diag = 2.0 / h ** 2 + q_vals[1:-1]
    off = np.full(m - 1, -1.0 / h ** 2)
    ab = np.zeros((3, m))
    ab[0, 1:] = off
    ab[1, :] = diag
    ab[2, :-1] = off
    return ab


def _solve_tridiag(ab, rhs):
    try:
        sol = scipy.linalg.solve_banded((1, 1), ab, rhs)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise EigenvalueHit(
            "interior system is singular: 0 is a discrete Dirichlet eigenvalue"
        ) from exc
    if not np.all(np.isfinite(sol)):
        raise EigenvalueHit(
            "interior system is singular: 0 is a discrete Dirichlet eigenvalue"
        )
    return sol


def solve_schrodinger_1d(grid, q, f_a, f_b):
    """Solve ``-u'' + q u = 0`` with Dirichlet data on the interval.

    ``q`` is a :class:`Potential1D`.  The tridiagonal interior system is
    solved directly; the relative residual of the interior equations is
    verified to be at round-off.  Returns the node values, whose end values
    are ``f_a`` and ``f_b``.
    """
    n, h = grid.n, grid.h
    ab = _interior_tridiag(grid, q.values)
    rhs = np.zeros(n - 2)
    rhs[0] += f_a / h ** 2
    rhs[-1] += f_b / h ** 2
    interior = _solve_tridiag(ab, rhs)
    u = np.empty(n)
    u[0], u[-1] = f_a, f_b
    u[1:-1] = interior

    if np.abs(u).max() > 1e12 * max(1.0, abs(f_a), abs(f_b)):
        raise EigenvalueHit(
            "solution blow-up: 0 is (numerically) a discrete Dirichlet eigenvalue"
        )
    resid = (-(u[:-2] - 2.0 * u[1:-1] + u[2:]) / h ** 2) + q.values[1:-1] * u[1:-1]
    scale = max(np.abs(u).max() / h ** 2, 1e-30)
    if np.abs(resid).max() > 1e-12 * scale:
        raise NumericFailure("Schrodinger solve residual exceeds round-off tolerance")
    return u


def direct_division_oracle(grid, u):
    """Recover the potential pointwise as ``q = u'' / u`` from the node
    values ``u`` of a state on ``grid``.

    Interior nodes use the same 3-point stencil as the forward solve, so the
    round trip through :func:`solve_schrodinger_1d` is exact there; boundary
    nodes use second-order one-sided stencils and carry an O(h^2) error.
    """
    if np.abs(u).min() < 1e-10:
        raise DegenerateInput("state passes too close to zero for pointwise division")
    return Potential1D(grid, (second_difference_1d(grid) @ u) / u)


def inject_h2_noise(u, delta, seed, h2):
    """The state ``u`` plus Gaussian noise vanishing at the boundary with
    exact Gram norm ``delta``.

    The perturbation is rescaled so its norm in the supplied second-order
    Sobolev structure equals ``delta``; seeded, hence reproducible.
    """
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if delta == 0:
        return u.copy()
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(u.size)
    e[0] = e[-1] = 0.0
    nrm = h2.norm(e)
    if nrm == 0:
        raise NumericFailure("degenerate noise draw")
    e *= delta / nrm
    return u + e
