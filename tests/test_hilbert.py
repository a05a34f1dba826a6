import numpy as np
import pytest

from liftrec.hilbert import (
    assemble_inner_product,
    build_grid_1d,
    build_grid_2d,
)

from oracles import gram_dense


def test_grid_1d_three_nodes():
    g = build_grid_1d(3, 0.0, 1.0)
    assert np.allclose(g.nodes, [0.0, 0.5, 1.0])
    assert g.h == 0.5
    assert np.allclose(g.quad_weights, [0.25, 0.5, 0.25])


def test_grid_1d_weights_telescope():
    g = build_grid_1d(101, 0.0, 1.0)
    assert abs(g.quad_weights.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("n,a,b", [(2, 0.0, 1.0), (3, 1.0, 1.0), (3, 2.0, 1.0)])
def test_grid_1d_rejects_bad_arguments(n, a, b):
    with pytest.raises(ValueError):
        build_grid_1d(n, a, b)


def test_grid_2d_invariants():
    g = build_grid_2d(9)
    all_nodes = np.sort(np.concatenate([g.interior_index, g.boundary_index]))
    assert np.array_equal(all_nodes, np.arange(g.n_nodes))
    assert abs(g.boundary_weights.sum() - 4.0) < 1e-12          # perimeter
    assert abs(g.area_weights.sum() - 1.0) < 1e-12              # area
    norms = np.linalg.norm(g.boundary_normals, axis=1)
    assert np.allclose(norms, 1.0)


def test_l2_gram_is_diagonal_weights():
    g = build_grid_1d(3, 0.0, 1.0)
    ip = assemble_inner_product(g, "l2")
    assert np.allclose(ip.whitener.T @ ip.whitener, np.diag([0.25, 0.5, 0.25]))


def test_h2_norm_of_constant():
    # derivative stencils annihilate constants; the 1/h^2 coefficients in
    # the Gram leave round-off of order eps * |G|, far below truncation
    g = build_grid_1d(51, 0.0, 1.0)
    ip = assemble_inner_product(g, "h2")
    c = 3.7
    assert abs(ip.norm(np.full(g.n, c)) - abs(c)) < 1e-7


def test_h2_norm_of_sine_matches_analytic():
    # int sin^2 = 1/2, int (pi cos)^2 = pi^2/2, int (pi^2 sin)^2 = pi^4/2
    g = build_grid_1d(401, 0.0, 1.0)
    ip = assemble_inner_product(g, "h2")
    target = np.sqrt((1.0 + np.pi ** 2 + np.pi ** 4) / 2.0)
    value = ip.norm(np.sin(np.pi * g.nodes))
    assert abs(value - target) / target < 0.01


@pytest.mark.parametrize("kind", ["l2", "h1", "h2"])
def test_whitening_isometry(kind):
    g = build_grid_1d(31, 0.0, 2.0)
    ip = assemble_inner_product(g, kind)
    gram = gram_dense(g, kind)
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal(g.n)
        b = rng.standard_normal(g.n)
        lhs = float(a @ gram @ b)
        rhs = float(ip.whiten_vec(a) @ ip.whiten_vec(b))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_gram_spd_and_whitener_reconstruction():
    g = build_grid_1d(41, 0.0, 1.0)
    for kind in ("l2", "h1", "h2"):
        ip = assemble_inner_product(g, kind)
        gram = gram_dense(g, kind)
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() > 0
        defect = np.linalg.norm(ip.whitener.T @ ip.whitener - gram)
        assert defect <= 1e-10 * np.linalg.norm(gram)
    with pytest.raises(ValueError):
        assemble_inner_product(build_grid_2d(5), "h2")
    with pytest.raises(ValueError):
        assemble_inner_product(g, "sobolev")


@pytest.mark.parametrize("nn", [9, 17, 20])
def test_h1_gram_2d_matches_the_dense_stencil_products(nn):
    # the sparse assembly sums the same products, in another order, and the
    # whitener reproduces its Gram to round-off
    grid = build_grid_2d(nn)
    want = gram_dense(grid, "h1")
    whitener = assemble_inner_product(grid, "h1").whitener
    got = whitener.T @ whitener
    assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()
