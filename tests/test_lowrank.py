import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftrec import lowrank
from liftrec.errors import DegenerateInput, NumericFailure
from liftrec.lowrank import (
    RankOneModel,
    bregman_divergence,
    nuclear_norm,
    operator_norm,
    project_tangent,
    project_tangent_complement,
    subdiff_check,
    svt_prox,
)

from oracles import leading_rank_one, svd_svt


def _random_model(rng, n1=5, n2=4, sigma=None):
    u = rng.standard_normal(n1)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(n2)
    v /= np.linalg.norm(v)
    return RankOneModel(sigma=sigma or float(rng.uniform(0.5, 3.0)), u=u, v=v)


def test_norms_of_diagonal_matrix():
    m = np.diag([3.0, 1.0])
    assert nuclear_norm(m) == pytest.approx(4.0)
    assert operator_norm(m) == pytest.approx(3.0)


def test_norms_of_rank_one():
    rng = np.random.default_rng(0)
    model = _random_model(rng, sigma=2.5)
    m = model.matrix
    assert nuclear_norm(m) == pytest.approx(2.5, rel=1e-12)
    assert operator_norm(m) == pytest.approx(2.5, rel=1e-12)


def test_norm_ordering_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = rng.standard_normal((4, 4))
        fro = np.linalg.norm(m)
        assert nuclear_norm(m) >= fro - 1e-12
        assert fro >= operator_norm(m) - 1e-12


def test_dual_formula_for_nuclear_norm():
    # sup over the operator-norm ball of <G, H> equals the nuclear norm,
    # attained at the polar factor of the SVD
    rng = np.random.default_rng(2)
    g = rng.standard_normal((5, 4))
    target = nuclear_norm(g)
    u, _, vt = np.linalg.svd(g, full_matrices=False)
    polar = u @ vt
    assert float(np.sum(g * polar)) == pytest.approx(target, abs=1e-8)
    for _ in range(500):
        h = rng.standard_normal((5, 4))
        h /= max(operator_norm(h), 1e-30)
        assert float(np.sum(g * h)) <= target + 1e-10


def test_svt_prox_diagonal_cases():
    m = np.diag([3.0, 1.0])
    assert np.allclose(svt_prox(m, 1.5), np.diag([1.5, 0.0]))
    assert np.allclose(svt_prox(m, 3.0), 0.0)
    assert np.allclose(svt_prox(m, 5.0), 0.0)
    with pytest.raises(ValueError):
        svt_prox(m, 0.0)


def test_svt_prox_optimality_condition():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = rng.standard_normal((6, 4))
        tau = float(rng.uniform(0.2, 1.5))
        out = svt_prox(m, tau)
        h = (m - out) / tau
        assert operator_norm(h) <= 1.0 + 1e-10
        assert float(np.sum(h * out)) == pytest.approx(nuclear_norm(out), abs=1e-9)


def test_svt_prox_nonexpansive():
    rng = np.random.default_rng(4)
    for _ in range(25):
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        tau = float(rng.uniform(0.1, 2.0))
        lhs = np.linalg.norm(svt_prox(a, tau) - svt_prox(b, tau))
        assert lhs <= np.linalg.norm(a - b) + 1e-12


@st.composite
def _svt_cases(draw):
    """A matrix of chosen shape, rank and singular values, and a threshold
    below its smallest nonzero singular value, between two of them, or above
    the largest."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rank = draw(st.integers(0, min(rows, cols)))
    sigma = np.sort(10.0 ** np.array(draw(st.lists(
        st.floats(-6, 6), min_size=rank, max_size=rank))))[::-1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.linalg.qr(rng.standard_normal((rows, rank)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, rank)))[0]
    m = (u * sigma) @ v.T
    where = draw(st.sampled_from(["below", "between", "above"]))
    if rank == 0:
        tau = 10.0 ** draw(st.floats(-6, 6))
    elif where == "below":
        tau = sigma[-1] * 10.0 ** -draw(st.floats(1e-6, 12))
    elif where == "between" and rank > 1:
        i = draw(st.integers(0, rank - 2))
        tau = sigma[i + 1] + draw(st.floats(0.01, 0.99)) * (sigma[i] - sigma[i + 1])
    else:
        tau = sigma[0] * (1.0 + draw(st.floats(1e-6, 10)))
    return m, tau


@settings(max_examples=300, deadline=None)
@given(case=_svt_cases())
def test_svt_prox_matches_svd_oracle(case):
    # the certified rank-one step within round-off of the thin-SVD SVT;
    # every input it does not certify takes that SVD, bit-identical
    m, tau = case
    got, want = svt_prox(m, tau), svd_svt(m, tau)
    assert got.shape == want.shape
    tall = m.T if m.shape[0] < m.shape[1] else m
    if lowrank._rank_one_svt(tall, tau, max(m.shape)) is None:
        assert np.array_equal(got, want)
    else:
        bound = 1e-12 * np.linalg.norm(m) * max(1.0, np.linalg.norm(m, 2) / tau)
        assert np.linalg.norm(got - want) <= bound


def _with_singular_values(rng, shape, sigma):
    u = np.linalg.qr(rng.standard_normal((shape[0], len(sigma))))[0]
    v = np.linalg.qr(rng.standard_normal((shape[1], len(sigma))))[0]
    return (u * np.asarray(sigma, float)) @ v.T


@pytest.fixture
def decompositions(monkeypatch):
    """Count the eigh and svd calls svt_prox makes."""
    calls = []
    for name in ("eigh", "svd"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _n=name, _f=fn, **k: calls.append(_n) or _f(*a, **k))
    return calls


@pytest.mark.parametrize("shape", [(40, 40), (30, 12), (12, 30), (289, 4)])
def test_svt_prox_certified_rank_one_skips_the_decompositions(shape, decompositions):
    # sigma_2 / sigma_1 = 1e-3 with a tail mass of 0.0201 tau^2: certified
    rng = np.random.default_rng(21)
    m = _with_singular_values(rng, shape, [100.0, 0.1, 0.1, 0.01])
    want = svd_svt(m, 1.0)
    decompositions.clear()
    got = svt_prox(m, 1.0)
    assert decompositions == []
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(m) * 100.0


@pytest.mark.parametrize("sigma, tau", [
    ([10.0, 0.9, 0.9], 1.0),              # sigma_2 < tau, tail mass 1.62 tau^2
    ([2.0, 2.0 - 1e-9, 0.5], 1.0),        # sigma_1 ~ sigma_2 > tau
    ([1.1, 0.95], 1.0),                   # certifiable, but the steps stall
])
def test_svt_prox_uncertified_inputs_take_the_svd(sigma, tau, decompositions):
    m = _with_singular_values(np.random.default_rng(22), (9, 7), sigma)
    want = svd_svt(m, tau)
    decompositions.clear()
    got = svt_prox(m, tau)
    assert decompositions == ["svd"]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("sigma", [[0.9, 0.3], [0.9, 0.6, 0.5]])
def test_svt_prox_below_the_threshold_is_zero(sigma, decompositions):
    # trace <= tau^2 gives zero at once; sigma_1 <= tau with a larger trace
    # takes the thin SVD, whose output is zero too
    m = _with_singular_values(np.random.default_rng(23), (8, 5), sigma)
    assert np.array_equal(svd_svt(m, 1.0), np.zeros((8, 5)))
    decompositions.clear()
    assert np.array_equal(svt_prox(m, 1.0), np.zeros((8, 5)))
    assert decompositions == ([] if sum(s * s for s in sigma) <= 1.0 else ["svd"])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_svt_prox_rejects_non_finite_input(bad):
    m = _with_singular_values(np.random.default_rng(24), (6, 6), [5.0, 1e-3])
    m[2, 3] = bad
    with pytest.raises(NumericFailure):
        svt_prox(m, 1.0)


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
def test_svt_prox_takes_the_svd_when_the_gram_overflows():
    rng = np.random.default_rng(18)
    for shape in [(6, 4), (40, 40)]:
        m = 1e200 * rng.standard_normal(shape)
        assert np.array_equal(svt_prox(m, 1e199), svd_svt(m, 1e199))


def test_projection_identities():
    rng = np.random.default_rng(6)
    model = _random_model(rng)
    uv = np.outer(model.u, model.v)
    assert np.allclose(project_tangent(uv, model), uv, atol=1e-12)
    # both projectors annihilate an orthogonal rank-one direction
    uperp = rng.standard_normal(model.u.size)
    uperp -= (uperp @ model.u) * model.u
    vperp = rng.standard_normal(model.v.size)
    vperp -= (vperp @ model.v) * model.v
    cross = np.outer(uperp, vperp)
    assert np.abs(project_tangent(cross, model)).max() < 1e-12


def test_projector_idempotence_orthogonality_nonexpansive():
    rng = np.random.default_rng(7)
    for _ in range(50):
        model = _random_model(rng)
        m = rng.standard_normal((model.u.size, model.v.size))
        pt = project_tangent(m, model)
        ptp = project_tangent_complement(m, model)
        assert np.linalg.norm(project_tangent(pt, model) - pt) <= 1e-10
        assert abs(float(np.sum(pt * ptp))) <= 1e-10
        assert np.allclose(pt + ptp, m, atol=1e-12)
        assert operator_norm(ptp) <= operator_norm(m) + 1e-12


@pytest.mark.parametrize("form", ["i", "ii", "iii", "iv"])
def test_subdiff_check_trivial_member(form):
    rng = np.random.default_rng(8)
    model = _random_model(rng)
    ok, _ = subdiff_check(np.outer(model.u, model.v), model, form=form)
    assert ok


@pytest.mark.parametrize("form", ["i", "ii", "iii", "iv"])
def test_subdiff_check_constructed_violation(form):
    rng = np.random.default_rng(9)
    model = _random_model(rng)
    w = project_tangent_complement(rng.standard_normal((5, 4)), model)
    w *= 1.5 / operator_norm(w)
    ok, report = subdiff_check(np.outer(model.u, model.v) + w, model, form=form)
    assert not ok


def test_subdiff_forms_agree_including_boundary():
    rng = np.random.default_rng(10)
    for trial in range(200):
        model = _random_model(rng)
        uv = np.outer(model.u, model.v)
        choice = trial % 4
        if choice == 0:
            w = project_tangent_complement(
                rng.standard_normal((5, 4)), model
            )
            scale = rng.choice([0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0])
            h = uv + (scale / operator_norm(w)) * w
        elif choice == 1:
            h = rng.standard_normal((5, 4))
        elif choice == 2:
            h = uv + 1e-4 * rng.standard_normal((5, 4))
        else:
            h = rng.uniform(0.2, 1.0) * uv
        answers = [subdiff_check(h, model, form=f)[0] for f in "i ii iii iv".split()]
        assert len(set(answers)) == 1, f"forms disagree on trial {trial}"


def test_strict_flag_uses_margin():
    rng = np.random.default_rng(11)
    model = _random_model(rng)
    w = project_tangent_complement(rng.standard_normal((5, 4)), model)
    w *= 0.9995 / operator_norm(w)
    h = np.outer(model.u, model.v) + w
    ok_loose, _ = subdiff_check(h, model, form="ii", strict=False)
    ok_strict, _ = subdiff_check(h, model, form="ii", strict=True, margin=1e-3)
    assert ok_loose and not ok_strict


def test_bregman_divergence_cases():
    rng = np.random.default_rng(13)
    model = _random_model(rng, sigma=1.7)
    f_ref = model.matrix
    h = np.outer(model.u, model.v)
    assert bregman_divergence(f_ref, f_ref, h) == pytest.approx(0.0, abs=1e-12)
    # homogeneity along the ray
    assert bregman_divergence(2 * f_ref, f_ref, h) == pytest.approx(0.0, abs=1e-12)
    for _ in range(30):
        f = rng.standard_normal(f_ref.shape)
        assert bregman_divergence(f, f_ref, h) >= -1e-10


def test_bregman_divergence_warns_on_bad_subgradient():
    rng = np.random.default_rng(14)
    model = _random_model(rng)
    f_ref = model.matrix
    bad = 3.0 * np.outer(model.u, model.v)
    with pytest.warns(UserWarning):
        bregman_divergence(f_ref + 0.1, f_ref, bad)


def test_leading_rank_one():
    rng = np.random.default_rng(15)
    model = _random_model(rng, sigma=2.0)
    got = leading_rank_one(model.matrix)
    assert got.sigma == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(np.outer(got.u, got.v), np.outer(model.u, model.v), atol=1e-12)
    diag = leading_rank_one(np.diag([3.0, 1.0]))
    assert diag.sigma == pytest.approx(3.0)
    assert np.allclose(diag.u, [1.0, 0.0])
    assert np.allclose(diag.v, [1.0, 0.0])
    with pytest.raises(DegenerateInput):
        leading_rank_one(np.zeros((3, 3)))


def test_leading_rank_one_stability():
    # clear spectral gap: an order 1e-8 perturbation moves the model by
    # no more than 1e-6
    rng = np.random.default_rng(16)
    model = _random_model(rng, n1=6, n2=6, sigma=3.0)
    m = model.matrix
    pert = m + 1e-8 * rng.standard_normal(m.shape)
    base = leading_rank_one(m)
    moved = leading_rank_one(pert)
    assert abs(base.sigma - moved.sigma) <= 1e-6
    assert np.linalg.norm(np.outer(base.u, base.v) - np.outer(moved.u, moved.v)) <= 1e-6


def test_rank_one_model_validation():
    with pytest.raises(ValueError):
        RankOneModel(sigma=-1.0, u=np.array([1.0, 0.0]), v=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        RankOneModel(sigma=1.0, u=np.array([2.0, 0.0]), v=np.array([1.0, 0.0]))
