import numpy as np
import pytest

from liftrec import certify, quadratic
from liftrec.lowrank import RankOneModel
from liftrec.quadratic import (
    QuadraticInstance,
    add_noise,
    make_phase_retrieval,
    recover_phaselift,
    recover_rows,
    require_symmetric,
    sign_aligned_error,
)
from liftrec.solvers import SolverOptions

from oracles import phase_retrieval_per_measurement

TIGHT = SolverOptions(tol_gap=1e-9, tol_feas=1e-10)


def test_instance_generation():
    inst = make_phase_retrieval(5, 20, 7)
    assert np.all(inst.z >= 0.0)          # squared pairings
    assert np.linalg.norm(inst.x_true) == pytest.approx(1.0)
    again = make_phase_retrieval(5, 20, 7)
    assert np.array_equal(inst.z, again.z)
    assert np.array_equal(inst.x_true, again.x_true)
    with pytest.raises(ValueError):
        make_phase_retrieval(5, 0, 7)
    # an empty draw always has norm 0, so the unit-norm redraw would not end
    with pytest.raises(ValueError, match="at least one unknown"):
        make_phase_retrieval(0, 5, 7)


@pytest.mark.parametrize("n, m", [(1, 1), (5, 20), (20, 120), (7, 1)])
@pytest.mark.parametrize("seed", [0, 3, 7, 31])
def test_instance_matches_the_per_measurement_draw(n, m, seed):
    stack, z, x = phase_retrieval_per_measurement(n, m, seed)
    inst = make_phase_retrieval(n, m, seed)
    assert inst.measurements.shape == (m, n, n)
    assert np.array_equal(inst.measurements, stack)
    assert np.array_equal(inst.z, z)
    assert np.array_equal(inst.x_true, x)
    assert np.array_equal(inst.op.matrix, stack.reshape(m, n * n))


def _symmetric_stack():
    a = np.random.default_rng(0).standard_normal((6, 4, 4))
    return a + a.transpose(0, 2, 1)


def test_require_symmetric_passes_an_exactly_symmetric_stack():
    stack = _symmetric_stack()
    out = require_symmetric(stack, 4)
    assert out.shape == (6, 4, 4)
    assert np.shares_memory(out, stack)


def test_require_symmetric_passes_a_near_symmetric_stack(monkeypatch):
    import liftrec.quadratic as quad

    stack = _symmetric_stack()
    stack[2, 0, 1] += 1e-13
    assert not np.array_equal(stack, stack.transpose(0, 2, 1))
    # the stack reaches the tolerance test: each of its slices runs isclose
    calls = []
    isclose = np.isclose
    monkeypatch.setattr(quad.np, "isclose",
                        lambda *a, **k: calls.append(1) or isclose(*a, **k))
    assert np.array_equal(require_symmetric(stack, 4), stack)
    assert calls


@pytest.mark.parametrize("offset", [1e-6, np.nan])
def test_require_symmetric_rejects_an_asymmetric_entry(offset):
    # a zero pair: allclose's relative tolerance leaves only the absolute one
    stack = _symmetric_stack()
    stack[3, 1, 2] = stack[3, 2, 1] = 0.0
    stack[3, 1, 2] += offset
    with pytest.raises(ValueError, match="symmetric"):
        require_symmetric(stack, 4)


def test_list_and_array_measurements_give_the_same_stack():
    stack = _symmetric_stack()
    x = np.array([1.0, 0.0, 0.0, 0.0])
    z = stack[:, 0, 0]
    from_list = QuadraticInstance(n=4, measurements=list(stack), z=z, x_true=x)
    from_array = QuadraticInstance(n=4, measurements=stack, z=z, x_true=x)
    assert isinstance(from_list.measurements, np.ndarray)
    assert np.array_equal(from_list.measurements, from_array.measurements)
    assert np.array_equal(from_list.op.matrix, from_array.op.matrix)


@pytest.mark.parametrize("shape", [(3, 3), (2, 3), (4,)])
def test_instance_rejects_a_wrong_matrix_shape(shape):
    with pytest.raises(ValueError, match="n x n"):
        QuadraticInstance(n=2, measurements=[np.zeros(shape)], z=np.zeros(1))


def test_instance_validates_consistency():
    with pytest.raises(ValueError):
        QuadraticInstance(
            n=2, measurements=[np.eye(2)], z=np.array([5.0]),
            x_true=np.array([1.0, 0.0]),
        )


def test_noiseless_recovery():
    inst = make_phase_retrieval(5, 20, 7)
    x_hat, x_mat, report = recover_phaselift(inst, opts=TIGHT)
    assert sign_aligned_error(x_hat, inst.x_true) <= 1e-3
    assert report.extras["rank_ratio"] <= 1e-6


def test_single_measurement_is_underdetermined():
    inst = make_phase_retrieval(5, 1, 3)
    x_hat, x_mat, report = recover_phaselift(inst, opts=TIGHT)
    # minimum-trace completion of one rank-one constraint is rank one, so
    # check the matrix is NOT close to the true lift instead
    assert np.linalg.norm(x_mat - np.outer(inst.x_true, inst.x_true)) > 1e-2


def test_homogeneity_of_the_lift():
    inst = make_phase_retrieval(5, 20, 7)
    x_hat, _, _ = recover_phaselift(inst, opts=TIGHT)
    scaled = QuadraticInstance(
        n=5, measurements=inst.measurements, z=4.0 * inst.z,
        x_true=2.0 * inst.x_true,
    )
    x_hat4, _, _ = recover_phaselift(scaled, opts=TIGHT)
    assert sign_aligned_error(x_hat4, 2.0 * x_hat) <= 1e-6


def test_ndsc_implies_exact_recovery():
    # whenever the least-norm candidate verifies the source condition the
    # solver must land on the true lift
    hits = 0
    for seed in range(20, 30):
        inst = make_phase_retrieval(5, 20, seed)
        u = inst.x_true / np.linalg.norm(inst.x_true)
        model = RankOneModel(sigma=1.0, u=u, v=u)
        cert = certify.precertificate(inst.op, [model], symmetric=True)
        if not cert.ndsc_pass:
            continue
        hits += 1
        _, x_mat, _ = recover_phaselift(inst, opts=TIGHT)
        assert np.linalg.norm(x_mat - np.outer(inst.x_true, inst.x_true)) <= 1e-4
    assert hits >= 3          # the condition holds on a decent fraction


def test_noise_injection_norm():
    inst = make_phase_retrieval(5, 20, 7)
    z_noisy = add_noise(inst, 1e-2, 5)
    assert np.linalg.norm(z_noisy - inst.z) == pytest.approx(1e-2, rel=1e-12)


def test_phaselift_validates_input():
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticInstance(n=2, measurements=[np.array([[0.0, 1.0], [0.0, 0.0]])],
                          z=np.array([1.0]))
    inst = make_phase_retrieval(5, 20, 7)
    with pytest.raises(ValueError, match="lambda must be positive"):
        recover_phaselift(inst, lam=-1.0)


@pytest.mark.parametrize("seed", range(7, 12))
@pytest.mark.parametrize("delta", [1e-2, 1e-3])
def test_warm_noisy_lift_matches_cold(seed, delta):
    # the noisy lift stays within O(delta) of the exact one, so a start there
    # reaches the same minimizer in no more iterations
    inst = make_phase_retrieval(5, 20, seed)
    _, x_exact, _ = recover_phaselift(inst)
    z_noisy = add_noise(inst, delta, seed + 1)
    _, x_cold, cold = recover_phaselift(inst, lam=delta, z=z_noisy)
    _, x_warm, warm = recover_phaselift(inst, lam=delta, z=z_noisy, x0=x_exact)
    assert cold.status == warm.status == "converged"
    assert np.linalg.norm(x_warm - x_cold) <= 1e-7 * delta
    assert warm.iterations <= cold.iterations


@pytest.mark.parametrize("seed", range(7, 12))
@pytest.mark.parametrize("delta_prev, delta", [(1e-2, 1e-3), (1e-3, 1e-2)])
def test_warm_lift_from_other_noisy_row_matches_cold(seed, delta_prev, delta):
    # a noisy row may follow another noisy row, at another delta and with
    # another noise draw, when deltas lists several noise levels
    inst = make_phase_retrieval(5, 20, seed)
    z_prev = add_noise(inst, delta_prev, seed + 1)
    _, x_prev, _ = recover_phaselift(inst, lam=delta_prev, z=z_prev)
    z_noisy = add_noise(inst, delta, seed + 2)
    _, x_cold, cold = recover_phaselift(inst, lam=delta, z=z_noisy)
    _, x_warm, warm = recover_phaselift(inst, lam=delta, z=z_noisy, x0=x_prev)
    assert cold.status == warm.status == "converged"
    assert np.linalg.norm(x_warm - x_cold) <= 1e-7 * delta
    assert warm.iterations <= cold.iterations


def test_solves_on_one_instance_share_the_gram_factorization(monkeypatch):
    inst = make_phase_retrieval(5, 20, 7)
    calls = []
    gram = inst.op.gram
    monkeypatch.setattr(inst.op, "gram", lambda: calls.append(1) or gram())
    _, x_exact, _ = recover_phaselift(inst)
    recover_phaselift(inst, lam=1e-3, z=add_noise(inst, 1e-3, 8), x0=x_exact)
    assert len(calls) == 1


def test_rows_start_each_noisy_level_from_the_last_lift():
    # level i draws its noise from seed + 1 + i and solves at c * delta
    inst = make_phase_retrieval(5, 20, 7)
    rows = recover_rows(inst, (0.0, 1e-2, 1e-3), 4, 2.0, None)
    _, x_prev, _ = recover_phaselift(inst)
    for i, delta in ((1, 1e-2), (2, 1e-3)):
        x_hat, x_prev, report = recover_phaselift(
            inst, lam=2.0 * delta, z=add_noise(inst, delta, 5 + i), x0=x_prev)
        assert rows[i]["err"] == sign_aligned_error(x_hat, inst.x_true)
        assert (rows[i]["lambda"], rows[i]["iters"]) == (2.0 * delta, report.iterations)


def test_rows_reject_a_noisy_level_at_c_zero_before_any_solve(monkeypatch):
    # at lambda = 0 the noisy row would run the exact solve on noisy data
    solves = []
    monkeypatch.setattr(quadratic, "recover_phaselift", lambda *a, **k: solves.append(a))
    with pytest.raises(ValueError, match="must be positive"):
        recover_rows(make_phase_retrieval(5, 20, 7), (0.0, 1e-3), 7, 0.0, None)
    assert solves == []
