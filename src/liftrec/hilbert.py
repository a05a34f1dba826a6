"""Discrete grids, their difference stencils and Hilbert structures.

A discrete Hilbert structure is an SPD Gram matrix ``G`` together with a
whitening factor ``L`` satisfying ``L^T L = G``.  Whitening turns every
weighted inner product into the Euclidean one, so all singular value
computations downstream (nuclear norms, tangent projections, certificates)
run on whitened matrices with plain Euclidean geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import NumericFailure

INNER_PRODUCT_KINDS = ("l2", "h1", "h2")


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on an interval with composite trapezoid weights."""

    n: int
    a: float
    b: float
    h: float
    nodes: np.ndarray
    quad_weights: np.ndarray

    @property
    def length(self):
        return self.b - self.a


def build_grid_1d(n, a=0.0, b=1.0):
    """Build a uniform 1-D grid.

    Parameters
    ----------
    n : int
        Node count, at least 3.
    a, b : float
        Interval endpoints with ``b > a``.

    Returns
    -------
    Grid1D
    """
    if n < 3:
        raise ValueError(f"need at least 3 nodes, got n={n}")
    if not b > a:
        raise ValueError(f"need b > a, got a={a}, b={b}")
    h = (b - a) / (n - 1)
    nodes = np.linspace(a, b, n)
    weights = np.full(n, h)
    weights[0] = weights[-1] = 0.5 * h
    return Grid1D(n=n, a=float(a), b=float(b), h=h, nodes=nodes, quad_weights=weights)


@dataclass(frozen=True)
class Grid2D:
    """Uniform ``n x n`` grid on the unit square [0, 1]^2 with trapezoid
    area/arc-length weights.

    Nodes are flattened in row-major order, ``flat = ix * n + iy``.  The
    boundary index runs counterclockwise starting at the (0, 0) corner, so
    that ``boundary_arclength`` parameterizes the boundary loop.  The
    difference stencils are built on first use and kept with the grid.
    """

    n: int
    h: float
    xs: np.ndarray           # flattened x coordinate per node
    ys: np.ndarray           # flattened y coordinate per node
    area_weights: np.ndarray
    interior_index: np.ndarray
    boundary_index: np.ndarray
    boundary_normals: np.ndarray
    boundary_weights: np.ndarray
    boundary_arclength: np.ndarray

    @property
    def n_nodes(self):
        return self.n * self.n

    @cached_property
    def laplacian_blocks(self):
        """Interior block ``A`` and boundary coupling ``C`` of the 5-point ``-Lap``.

        The interior rows of ``kron(T, I) + kron(I, T)``, ``T`` the 1-D
        ``(-1, 2, -1) / h^2`` stencil, at the interior and at the boundary
        columns (CSC), so that ``A u_int + C u_bdry = 0`` for discrete
        harmonic ``u``.  Each interior row reads the node itself and its
        four neighbours, at flat offsets ``0, -n, -1, 1, n``, all on the grid.
        """
        n_int = self.interior_index.size
        inside = np.zeros(self.n_nodes, dtype=bool)
        inside[self.interior_index] = True
        # column of each node in its block: interior or boundary position
        col = np.empty(self.n_nodes, dtype=int)
        col[self.interior_index] = np.arange(n_int)
        col[self.boundary_index] = np.arange(self.boundary_index.size)
        nbr = (self.interior_index[:, None] + [0, -self.n, -1, 1, self.n]).ravel()
        row = np.repeat(np.arange(n_int), 5)
        val = np.tile(np.array([4.0, -1.0, -1.0, -1.0, -1.0]) / self.h ** 2, n_int)
        to_int = inside[nbr]
        return tuple(
            scipy.sparse.csc_matrix((val[sel], (row[sel], col[nbr[sel]])),
                                    shape=(n_int, size))
            for sel, size in ((to_int, n_int), (~to_int, self.boundary_index.size)))

    @cached_property
    def normal_derivative(self):
        """Dense (boundary x nodes) outward normal derivative, second order.

        The boundary rows of ``n_x D_x + n_y D_y`` with the one-sided
        :func:`first_difference_1d` stencil at the edges; a corner, whose
        normal is diagonal, reads both axes.
        """
        ex, ey = (d[self.boundary_index].toarray() for d in _axis_differences_2d(self))
        normals = self.boundary_normals
        return (normals[:, :1] * ex + normals[:, 1:] * ey) / self.h


def build_grid_2d(n):
    """Build a uniform grid of ``n x n`` nodes on the unit square [0, 1]^2."""
    if n < 3:
        raise ValueError(f"need at least 3 nodes per axis, got n={n}")
    h = 1.0 / (n - 1)
    x1 = np.linspace(0.0, 1.0, n)
    xs = np.repeat(x1, n)
    ys = np.tile(x1, n)

    w1 = np.full(n, h)
    w1[0] = w1[-1] = 0.5 * h
    area = np.kron(w1, w1)

    def flat(ix, iy):
        return ix * n + iy

    interior = np.array(
        [flat(ix, iy) for ix in range(1, n - 1) for iy in range(1, n - 1)],
        dtype=int,
    )

    # boundary loop, counterclockwise from (0, 0)
    loop = []
    normals = []
    for ix in range(n - 1):                       # bottom edge, y = 0
        loop.append(flat(ix, 0))
        normals.append((0.0, -1.0))
    for iy in range(n - 1):                       # right edge, x = 1
        loop.append(flat(n - 1, iy))
        normals.append((1.0, 0.0))
    for ix in range(n - 1, 0, -1):                # top edge, y = 1
        loop.append(flat(ix, n - 1))
        normals.append((0.0, 1.0))
    for iy in range(n - 1, 0, -1):                # left edge, x = 0
        loop.append(flat(0, iy))
        normals.append((-1.0, 0.0))
    boundary = np.array(loop, dtype=int)
    normals = np.array(normals, dtype=float)
    # corners get the diagonal outward direction
    corner_normals = {
        flat(0, 0): (-1.0, -1.0),
        flat(n - 1, 0): (1.0, -1.0),
        flat(n - 1, n - 1): (1.0, 1.0),
        flat(0, n - 1): (-1.0, 1.0),
    }
    for k, node in enumerate(boundary):
        if node in corner_normals:
            v = np.array(corner_normals[node])
            normals[k] = v / np.linalg.norm(v)

    n_bdry = boundary.size
    bweights = np.full(n_bdry, h)                 # closed uniform loop
    arclength = h * np.arange(n_bdry)

    return Grid2D(
        n=n, h=h, xs=xs, ys=ys,
        area_weights=area, interior_index=interior, boundary_index=boundary,
        boundary_normals=normals, boundary_weights=bweights,
        boundary_arclength=arclength,
    )


# ---------------------------------------------------------------------------
# difference matrices (second-order: central inside, one-sided at endpoints)


def first_difference_1d(grid):
    """Full-grid first-derivative matrix, exact on quadratics."""
    n, h = grid.n, grid.h
    d = np.zeros((n, n))
    for j in range(1, n - 1):
        d[j, j - 1] = -0.5 / h
        d[j, j + 1] = 0.5 / h
    d[0, 0:3] = np.array([-1.5, 2.0, -0.5]) / h
    d[-1, -3:] = np.array([0.5, -2.0, 1.5]) / h
    return d


def second_difference_1d(grid):
    """Full-grid second-derivative matrix, exact on quadratics.  Its
    one-sided end stencils read four nodes, so the grid needs at least 4."""
    n, h = grid.n, grid.h
    if n < 4:
        raise ValueError(f"the second difference needs at least 4 nodes, got n={n}")
    d = np.zeros((n, n))
    for j in range(1, n - 1):
        d[j, j - 1] = 1.0 / h ** 2
        d[j, j] = -2.0 / h ** 2
        d[j, j + 1] = 1.0 / h ** 2
    d[0, 0:4] = np.array([2.0, -5.0, 4.0, -1.0]) / h ** 2
    d[-1, -4:] = np.array([-1.0, 4.0, -5.0, 2.0]) / h ** 2
    return d


def _axis_differences_2d(grid):
    """Sparse (CSR) first-derivative matrices along x and y on the flattened
    2-D grid, at unit spacing: divide by ``grid.h`` for the derivatives."""
    d1 = first_difference_1d(build_grid_1d(grid.n, 0.0, grid.n - 1.0))
    eye = scipy.sparse.identity(grid.n)
    return (scipy.sparse.kron(d1, eye, format="csr"),
            scipy.sparse.kron(eye, d1, format="csr"))


# ---------------------------------------------------------------------------
# inner products


@dataclass
class InnerProduct:
    """Discrete Hilbert structure, held as the whitener of its Gram matrix.

    Attributes
    ----------
    whitener : ndarray
        Upper triangular L with ``L.T @ L == G`` (Cholesky factor of the
        SPD Gram matrix G).
    unwhitener : ndarray
        ``L^{-1}``, computed on first use and cached.
    """

    whitener: np.ndarray

    @cached_property
    def unwhitener(self):
        return scipy.linalg.solve_triangular(
            self.whitener, np.eye(self.whitener.shape[0]), lower=False)

    def norm(self, u):
        return float(np.linalg.norm(self.whitener @ u))

    def whiten_vec(self, u):
        return self.whitener @ u


def _cholesky_or_raise(gram, kind):
    try:
        return scipy.linalg.cholesky(gram, lower=False)
    except scipy.linalg.LinAlgError as exc:
        eigs = np.linalg.eigvalsh(gram)
        raise NumericFailure(
            f"Gram matrix for kind={kind!r} is not SPD after assembly: "
            f"eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}]"
        ) from exc


def assemble_inner_product(grid, kind):
    """Assemble a Gram matrix on a grid and keep its whitening factor.

    Parameters
    ----------
    grid : Grid1D or Grid2D
    kind : str
        ``l2``: quadrature weights only.
        ``h1``: l2 plus first-derivative energy.
        ``h2``: h1 plus second-derivative energy (1-D grids only).

    Returns
    -------
    InnerProduct
    """
    if kind not in INNER_PRODUCT_KINDS:
        raise ValueError(f"unknown inner product kind {kind!r}")

    if isinstance(grid, Grid1D):
        gram = wmat = np.diag(grid.quad_weights)
        if kind in ("h1", "h2"):
            d1 = first_difference_1d(grid)
            gram = gram + d1.T @ wmat @ d1
        if kind == "h2":
            d2 = second_difference_1d(grid)
            gram = gram + d2.T @ wmat @ d2
        return InnerProduct(_cholesky_or_raise(gram, kind))

    if isinstance(grid, Grid2D):
        if kind == "h2":
            raise ValueError(f"kind {kind!r} is not supported on 2-D grids")
        gram = wmat = scipy.sparse.diags(grid.area_weights)
        if kind == "h1":
            # banded stencils: only the Gram is made dense, for the Cholesky
            dx, dy = (d / grid.h for d in _axis_differences_2d(grid))
            gram = gram + dx.T @ wmat @ dx + dy.T @ wmat @ dy
        return InnerProduct(_cholesky_or_raise(gram.toarray(), kind))

    raise TypeError(f"unsupported grid type {type(grid)!r}")
