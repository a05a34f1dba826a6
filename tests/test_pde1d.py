import numpy as np
import pytest

from liftrec.errors import DegenerateInput, EigenvalueHit
from liftrec.hilbert import assemble_inner_product, build_grid_1d
from liftrec.pde1d import (
    Potential1D,
    constant_potential,
    direct_division_oracle,
    inject_h2_noise,
    solve_schrodinger_1d,
    step_potential,
)


def test_zero_potential_gives_affine_solution():
    g = build_grid_1d(41, 0.0, 1.0)
    u = solve_schrodinger_1d(g, constant_potential(g, 0.0), 0.0, 1.0)
    assert np.abs(u - g.nodes).max() < 1e-12


def test_constant_potential_matches_cosh():
    # -u'' + u = 0 with unit boundary data: u = cosh(x - 1/2) / cosh(1/2)
    g = build_grid_1d(81, 0.0, 1.0)
    u = solve_schrodinger_1d(g, constant_potential(g, 1.0), 1.0, 1.0)
    exact = np.cosh(g.nodes - 0.5) / np.cosh(0.5)
    assert np.abs(u - exact).max() <= 2 * g.h ** 2


def test_schrodinger_convergence_order():
    errs = []
    hs = []
    for n in (41, 81, 161):
        g = build_grid_1d(n, 0.0, 1.0)
        u = solve_schrodinger_1d(g, constant_potential(g, 1.0), 1.0, 1.0)
        exact = np.cosh(g.nodes - 0.5) / np.cosh(0.5)
        errs.append(np.abs(u - exact).max())
        hs.append(g.h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_positivity_with_step_potential():
    g = build_grid_1d(41, 0.0, 1.0)
    u = solve_schrodinger_1d(g, step_potential(g, base=1.0, q0=0.5), 1.0, 1.0)
    assert u.min() > 0.0


def test_linearity_in_boundary_scaling():
    g = build_grid_1d(31, 0.0, 1.0)
    q = step_potential(g, q0=0.3)
    u1 = solve_schrodinger_1d(g, q, 1.0, 2.0)
    u3 = solve_schrodinger_1d(g, q, 3.0, 6.0)
    assert np.abs(u3 - 3.0 * u1).max() < 1e-12
    # the end values are the boundary data
    assert (u3[0], u3[-1]) == (3.0, 6.0)


def test_eigenvalue_hit_is_detected():
    # q equal to minus the smallest discrete Dirichlet eigenvalue of the
    # second-difference operator makes the interior system singular
    g = build_grid_1d(41, 0.0, 1.0)
    lam1 = 4.0 / g.h ** 2 * np.sin(np.pi * g.h / 2.0) ** 2
    with pytest.raises(EigenvalueHit):
        solve_schrodinger_1d(g, constant_potential(g, -lam1), 1.0, 1.0)


def test_direct_division_round_trip_interior():
    g = build_grid_1d(41, 0.0, 1.0)
    q = step_potential(g, q0=0.4)
    u = solve_schrodinger_1d(g, q, 1.0, 1.0)
    got = direct_division_oracle(g, u)
    # interior nodes invert the same stencil exactly
    assert np.abs(got.values[1:-1] - q.values[1:-1]).max() < 1e-10


def test_direct_division_on_analytic_state():
    g = build_grid_1d(161, 0.0, 1.0)
    exact = np.cosh(g.nodes - 0.5) / np.cosh(0.5)
    got = direct_division_oracle(g, exact)
    assert np.abs(got.values - 1.0).max() <= 5 * g.h ** 2


def test_direct_division_rejects_zero_crossing():
    g = build_grid_1d(21, 0.0, 1.0)
    with pytest.raises(DegenerateInput):
        direct_division_oracle(g, g.nodes - 0.5)


def test_noise_injection():
    g = build_grid_1d(41, 0.0, 1.0)
    h2 = assemble_inner_product(g, "h2")
    u = solve_schrodinger_1d(g, constant_potential(g, 1.0), 1.0, 1.0)
    same = inject_h2_noise(u, 0.0, 3, h2)
    assert np.array_equal(same, u)
    noisy = inject_h2_noise(u, 1e-3, 3, h2)
    e = noisy - u
    assert e[0] == 0.0 and e[-1] == 0.0
    assert h2.norm(e) == pytest.approx(1e-3, rel=1e-12)
    again = inject_h2_noise(u, 1e-3, 3, h2)
    assert np.array_equal(noisy, again)


def test_potential_caches():
    g = build_grid_1d(11, 0.0, 2.0)
    q = Potential1D(g, 1.0 + g.nodes)
    assert q.inf == pytest.approx(1.0)
    assert q.sup == pytest.approx(3.0)
    assert q.integral == pytest.approx(4.0, rel=1e-12)   # int of 1+x over (0,2)
    with pytest.raises(ValueError):
        Potential1D(g, np.ones(5))


def test_potential_caches_are_not_constructor_arguments():
    # the caches are computed from the values; a passed value would be dropped
    g = build_grid_1d(5, 0.0, 1.0)
    with pytest.raises(TypeError):
        Potential1D(g, np.ones(5), 7.0, -3.0, 99.0)
    with pytest.raises(TypeError):
        Potential1D(g, np.ones(5), integral=99.0)
