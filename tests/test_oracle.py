import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencount import (
    ContourError,
    NormKind,
    OperatorModel,
    blaschke_divergence_probe,
    count_curve,
    eigen_count_outside,
    eigenvalues,
    jensen_check,
    lacunary_coefficients,
    low_rank_count_outside,
    materialize,
    moment_from_curve,
    moment_sum,
    prepare,
    regression_corpus,
    shift_example,
    sweep_radii,
    winding_count,
    winding_from_samples,
)
from eigencount.oracle import _norm_bound
from eigencount.verify import _corpus_base, _corpus_perturbation


def test_count_outside_known_diagonal():
    m = np.diag([3.0, 2.0, 2.0, 0.5]).astype(complex)
    assert eigen_count_outside(m, 2.5) == 1
    assert eigen_count_outside(m, 1.0) == 3
    assert eigen_count_outside(m, 2.0) == 1   # strictly above
    assert eigen_count_outside(m, 0.0) == 4
    with pytest.raises(ValueError):
        eigen_count_outside(m, -1.0)


def test_count_curve_breakpoints_and_evaluate():
    m = np.diag([3.0, 2.0, 2.0, 0.5]).astype(complex)
    curve = count_curve(m)
    assert np.allclose(curve.radii, [0.5, 2.0, 3.0])
    assert list(curve.counts) == [3, 1, 0]
    assert curve.dim == 4
    for s in (0.0, 0.4, 0.5, 1.9, 2.0, 2.5, 3.0, 10.0):
        assert curve.evaluate(s) == eigen_count_outside(m, s)


def test_moment_sum_hand_value():
    m = np.diag([3.0, 1.5, 0.2]).astype(complex)
    # base 1: (3-1)^2 + (0.5)^2 = 4.25
    assert moment_sum(m, 1.0, 2.0) == pytest.approx(4.25, rel=1e-12)
    with pytest.raises(ValueError):
        moment_sum(m, 1.0, 0.0)


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
def test_moment_exponent_must_be_finite(q):
    m = np.diag([3.0, 1.5, 0.2]).astype(complex)
    with pytest.raises(ValueError, match="finite"):
        moment_sum(m, 1.0, q)
    with pytest.raises(ValueError, match="finite"):
        moment_from_curve(count_curve(m), 1.0, q)


@pytest.mark.parametrize("call", [
    lambda m: eigen_count_outside(m, math.nan),
    lambda m: count_curve(m).evaluate(math.nan),
    lambda m: moment_sum(m, math.nan, 2.0),
    lambda m: moment_sum(m, math.inf, 2.0),
    lambda m: moment_from_curve(count_curve(m), math.nan, 2.0),
    lambda m: moment_from_curve(count_curve(m), -math.inf, 2.0),
], ids=["count", "curve", "moment-nan", "moment-inf", "from-curve-nan", "from-curve-inf"])
def test_a_nan_radius_or_a_non_finite_base_is_rejected(call):
    # evaluate(nan) used to count 0 and moment_sum(m, nan, q) to sum 0.0
    with pytest.raises(ValueError, match="radius must be non-negative|base must be finite"):
        call(np.diag([3.0, 2.0, 0.5]).astype(complex))


def test_oracles_accept_a_spectrum_in_place_of_the_matrix():
    m = np.diag([3.0, 2.0, 2.0, 0.5]).astype(complex)
    m[0, 3] = 1.0
    spec = eigenvalues(m)
    for s in (0.0, 0.5, 1.0, 2.5):
        assert eigen_count_outside(spec, s) == eigen_count_outside(m, s)
    curve, direct = count_curve(spec), count_curve(m)
    assert np.array_equal(curve.radii, direct.radii)
    assert np.array_equal(curve.counts, direct.counts) and curve.dim == direct.dim
    assert moment_sum(spec, 1.0, 2.0) == moment_sum(m, 1.0, 2.0)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([0.7, 1.0, 2.0, 3.5]))
def test_moment_from_curve_equals_direct_sum(seed, q):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 10))
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    base = rng.uniform(0.0, 1.5)
    direct = moment_sum(m, base, q)
    via_curve = moment_from_curve(count_curve(m), base, q)
    assert via_curve == pytest.approx(direct, rel=1e-9, abs=1e-12)


def _circle(fn, center, radius, n=720):
    theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    return [fn(center + radius * np.exp(1j * t)) for t in theta]


def test_winding_hand_checked_rational():
    fn = lambda lam: (lam - 2.0) / lam  # zero at 2, pole at 0
    assert winding_from_samples(_circle(fn, 0.0, 3.0)) == 0
    assert winding_from_samples(_circle(fn, 0.0, 1.5)) == -1
    assert winding_from_samples(_circle(fn, 2.0, 0.75)) == 1
    assert winding_count(fn, 0.0, 3.0) == 0
    assert winding_count(fn, 0.0, 1.5) == -1
    assert winding_count(fn, 2.0, 0.75) == 1


def test_winding_polynomial_degree():
    roots = np.array([1.0, -1.0, 1j, -1j])
    fn = lambda lam: np.prod(lam[:, None] - roots, axis=-1)
    assert winding_count(fn, 0.0, 2.0) == 4
    assert winding_count(fn, 0.0, 0.5) == 0
    assert winding_count(fn, 1.0, 0.3) == 1


def _recording(fn):
    """fn, plus the list of point arrays it was called with."""
    calls = []

    def recorded(lam):
        calls.append(np.array(lam))
        return fn(lam)

    return recorded, calls


def test_winding_evaluates_the_start_grid_and_each_round_in_one_call():
    fn, calls = _recording(lambda lam: (lam - 2.0) / lam)
    assert winding_count(fn, 0.0, 3.0) == 0
    assert [c.shape for c in calls] == [(64,)]
    # 20 turns over 64 points step by 1.96 rad: one round halves every arc
    fn, calls = _recording(lambda lam: lam ** 20)
    assert winding_count(fn, 0.0, 1.0) == 20
    assert [c.shape for c in calls] == [(64,), (64,)]
    # a zero just inside the circle needs several rounds near angle 0
    # a zero just inside the circle: three rounds bisect the two arcs at angle 0
    fn, calls = _recording(lambda lam: lam - 0.9999)
    assert winding_count(fn, 0.0, 1.0) == 1
    assert [c.shape for c in calls] == [(64,), (2,), (2,), (2,)]
    points = np.concatenate(calls)
    assert len(np.unique(points)) == len(points)  # no point evaluated twice


def test_winding_rejects_a_scalar_valued_fn():
    roots = np.array([0.5, -0.25j])
    with pytest.raises(ValueError, match=r"shape \(\)"):
        winding_count(lambda lam: np.prod(lam - 0.5), 0.0, 1.0)
    assert winding_count(lambda lam: np.prod(lam[:, None] - roots, axis=-1),
                         0.0, 1.0) == 2


def test_winding_rejects_contour_through_zero():
    fn = lambda lam: lam - 3.0
    with pytest.raises(ContourError):
        winding_count(fn, 0.0, 3.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_a_non_finite_contour_sample_raises_a_contour_error(bad):
    # a NaN sample used to warn and then die converting NaN to an integer
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContourError, match="sample 1 is .*, not finite"):
            winding_from_samples([1, bad, 1j, -1, -1j])

        def fn(lam):
            return np.where(np.abs(lam - 1j) < 1e-9, bad, lam)

        with pytest.raises(ContourError, match=r"at angle 1\.570796 is not finite"):
            winding_count(fn, 0.0, 1.0)


def test_winding_from_samples_rejects_underresolved():
    fn = lambda lam: lam ** 5
    with pytest.raises(ContourError):
        # eight samples of five turns: phase steps wrap past pi/2
        winding_from_samples(_circle(fn, 0.0, 1.0, n=8))
    assert winding_from_samples(_circle(fn, 0.0, 1.0, n=64)) == 5


def test_jensen_anchor_single_zero():
    verdict = jensen_check(lambda w: 1.0 - 2.0 * w, [0.5])
    assert verdict.ok
    # sup on |w| = 1 approaches 3; the margin peaks near the rim
    assert verdict.log_sup == pytest.approx(np.log(3.0), abs=1e-3)


def test_jensen_anchor_no_zeros():
    verdict = jensen_check(lambda w: np.ones_like(w), [])
    assert verdict.ok
    assert abs(verdict.log_sup) < 1e-12


def test_jensen_detects_fabricated_zero():
    # claiming a second zero the function does not have must fail
    verdict = jensen_check(lambda w: 1.0 - 2.0 * w, [0.5, 0.5])
    assert not verdict.ok


def test_jensen_rejects_a_scalar_valued_h():
    zeros = np.array([0.5, -0.25j])
    # np.prod without an axis folds the whole boundary array into one number
    with pytest.raises(ValueError, match=r"shape \(\)"):
        jensen_check(lambda w: np.prod(1.0 - w / 2.0), zeros)
    verdict = jensen_check(lambda w: np.prod(1.0 - w[:, None] / zeros, axis=-1), zeros)
    assert verdict.ok


def test_shift_example_analytic_form():
    b = np.array([0.5, 0.0, 0.25], dtype=complex)
    model, d = shift_example(b, 10)
    assert model.dim == 10
    l0, k = materialize(model)
    # companion structure: char poly is lam^10 - 0.5 lam^9 - 0.25 lam^7
    lam = 1.7 - 0.3j
    expected = 1.0 - 0.5 / lam - 0.25 / lam ** 3
    assert d(lam) == pytest.approx(expected, rel=1e-12)
    eigs = np.linalg.eigvals(l0 + k)
    nonzero = [x for x in eigs if abs(x) > 0.3]
    assert len(nonzero) == 3  # roots of 1 = 0.5/lam + 0.25/lam^3
    for x in nonzero:
        assert abs(d(x)) < 1e-8


def test_shift_example_rejects_bad_input():
    with pytest.raises(ValueError):
        shift_example(np.array([1.0 + 0j]), 0)
    with pytest.raises(ValueError):
        shift_example(np.array([], dtype=complex), 8)


def test_lacunary_support_is_powers_of_two():
    b = lacunary_coefficients(32)
    support = set(np.nonzero(b)[0] + 1)  # 1-based positions
    assert support == {1, 2, 4, 8, 16, 32}
    assert np.allclose(b[np.nonzero(b)], 1.0)


def test_probe_single_coefficient_excess_is_constant_one():
    result = blaschke_divergence_probe(
        lambda dim: np.array([2.0 + 0j]), (8, 16, 32))
    for row in result.rows:
        # lone eigenvalue at 2 gives (2 - 1)^1 = 1 at every dimension
        assert row.excess_sum == pytest.approx(1.0, abs=1e-9)
    assert result.growth == pytest.approx(1.0, abs=1e-9)


def test_probe_lacunary_family_grows():
    result = blaschke_divergence_probe(
        lacunary_coefficients, (8, 16, 32, 64, 128, 256))
    sums = [row.excess_sum for row in result.rows]
    assert all(a < b + 1e-12 for a, b in zip(sums, sums[1:]))
    assert sums[0] == pytest.approx(0.8768, abs=2e-3)
    assert sums[-1] == pytest.approx(1.158, abs=2e-2)
    assert result.growth > 1.25


@pytest.mark.parametrize("center, radius", [
    (float("nan"), 1.0), (complex(0.0, float("nan")), 1.0), (complex(float("inf"), 0.0), 1.0),
    (0.0, float("nan")), (0.0, float("inf")),
])
def test_winding_count_rejects_a_non_finite_contour(center, radius):
    # a nan contour used to end in "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match="center and radius must be finite"):
        winding_count(lambda z: z - 0.5, center, radius)


@pytest.mark.parametrize("seed", (0, 3))
def test_low_rank_count_equals_the_eigensolve_on_the_corpus(seed):
    # of the 360 cases (36 models, ten sweep radii each) 348 certify at seed 0
    # and 352 at seed 3 with numpy 2.4 on OpenBLAS; a case at a threshold of
    # the certificate may move with the LAPACK build, so the count has a floor
    certified = 0
    for entry in regression_corpus(seed):
        prep = entry.prepared
        for s in sweep_radii(prep.norm_l0, prep.norm_k):
            count = low_rank_count_outside(prep.l0, prep.k, prep.norm_l0,
                                           prep.alpha.rank, entry.model.norm, s)
            if count is not None:
                certified += 1
                assert count == eigen_count_outside(prep.spectrum, s), (entry.name, s)
    assert certified >= 340


@pytest.mark.parametrize("kind", list(NormKind))
def test_low_rank_count_refuses_an_eigenvalue_on_the_circle(kind):
    s, dim = 1.5, 16
    k = np.zeros((dim, dim), dtype=complex)
    k[0, 0] = s
    l0 = np.zeros_like(k)
    assert low_rank_count_outside(l0, k, 0.0, 1, kind, s) is None
    # just off the circle the same model is counted
    assert low_rank_count_outside(l0, k, 0.0, 1, kind, 0.9 * s) == 1
    assert low_rank_count_outside(l0, k, 0.0, 1, kind, 1.1 * s) == 0


def test_low_rank_count_needs_the_circle_outside_the_base():
    l0 = 0.5 * np.eye(12, dtype=complex)
    k = np.zeros_like(l0)
    for s in (0.5, 0.25, math.nan, math.inf):
        assert low_rank_count_outside(l0, k, 0.5, 0, NormKind.L2, s) is None


def _count_linalg_calls(monkeypatch, name):
    calls = []
    original = getattr(np.linalg, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.mark.parametrize("kind", list(NormKind))
def test_low_rank_count_gives_up_when_the_circle_needs_too_many_samples(monkeypatch, kind):
    # an eigenvalue 0.1% outside the circle asks for more than 4096 samples
    # after the first 64; the kernel stops there instead of sampling 4096
    s, dim = 1.5, 16
    k = np.zeros((dim, dim), dtype=complex)
    k[0, 0] = 1.001 * s
    inv_calls = _count_linalg_calls(monkeypatch, "inv")
    assert low_rank_count_outside(np.zeros_like(k), k, 0.0, 1, kind, s) is None
    assert len(inv_calls) == 1


def _dense_l2_model():
    # dim 128, ||L0||_2 = 0.8 and a rank-2 K: two eigenvalues outside |lambda| = 1.6
    dim, rng = 128, np.random.default_rng(8)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    l0 = 0.8 * g / np.linalg.norm(g, 2)
    u, _ = np.linalg.qr(rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2)))
    return l0, (u * np.array([2.5, -3.0j])) @ u.conj().T


def test_low_rank_count_keeps_to_its_budget(monkeypatch):
    # the dense l2 model fits half an eigensolve; a budget its sketch would
    # exceed returns None before any factorization
    l0, k = _dense_l2_model()
    assert low_rank_count_outside(l0, k, 0.8, 2, NormKind.L2, 1.6, budget=0.5) == 2
    qr_calls = _count_linalg_calls(monkeypatch, "qr")
    assert low_rank_count_outside(l0, k, 0.8, 2, NormKind.L2, 1.6, budget=0.01) is None
    assert qr_calls == []


def test_low_rank_count_takes_no_svd_on_l2(monkeypatch):
    # every norm of the kernel is bounded without an SVD, in l2 too
    l0, k = _dense_l2_model()
    svd_calls = _count_linalg_calls(monkeypatch, "svd")
    assert low_rank_count_outside(l0, k, 0.8, 2, NormKind.L2, 1.6) == 2
    assert svd_calls == []


@pytest.mark.parametrize("shape", [(6, 6), (40, 8), (8, 40), (64, 5, 5), (3, 30, 7)])
def test_norm_bound_bounds_the_l2_norm(shape):
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        exact = np.linalg.norm(m, 2, axis=(-2, -1))
        assert np.all(_norm_bound(m, NormKind.L2) >= exact)
        for kind, order in ((NormKind.L1, 1), (NormKind.LINF, np.inf)):
            expected = np.linalg.norm(m, order, axis=(-2, -1))
            assert np.array_equal(_norm_bound(m, kind), expected)


def test_low_rank_count_equals_the_eigensolve_on_l2_low_rank_models():
    # no corpus model pairs l2 with a dense low-rank K; 237 of these 360
    # cases certify on the budget of Prepared.count_outside with numpy 2.4 on
    # OpenBLAS, and a threshold case may move with the LAPACK build
    rng = np.random.default_rng(0)
    certified = 0
    for dim in (48, 64, 80, 96, 112, 128):
        for base_kind in (1, 2, 3):  # diagonal, dense and zero bases
            for rank in (1, 4):
                base, _ = _corpus_base(rng, base_kind, dim, NormKind.L2)
                pert, _, _ = _corpus_perturbation(rng, 2, dim, rank, NormKind.L2)
                prep = prepare(OperatorModel(dim=dim, norm=NormKind.L2, base=base,
                                             perturbation=pert))
                for s in sweep_radii(prep.norm_l0, prep.norm_k):
                    count = low_rank_count_outside(prep.l0, prep.k, prep.norm_l0,
                                                   prep.alpha.rank, NormKind.L2, s,
                                                   budget=0.5)
                    if count is not None:
                        certified += 1
                        assert count == eigen_count_outside(prep.spectrum, s), (dim, s)
    assert certified >= 237
