import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencount import (
    AdmissibilityError,
    ContourError,
    Dense,
    NormKind,
    OperatorModel,
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
from eigencount.numerics import _sketch, _sketch_ladder
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


def test_a_moment_past_the_largest_float_raises():
    m = np.diag([1e200, 3.0, 0.5]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AdmissibilityError,
                           match=r"moment sum at q = 2.0, base = 1.0 overflows a float"):
            moment_sum(m, 1.0, 2.0)
        assert moment_sum(m, 1.0, 1.5) == (np.float64(1e200) - 1.0) ** 1.5 + 2.0 ** 1.5


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


@pytest.mark.parametrize("center, radius", [
    (float("nan"), 1.0), (complex(0.0, float("nan")), 1.0), (complex(float("inf"), 0.0), 1.0),
    (0.0, float("nan")), (0.0, float("inf")),
])
def test_winding_count_rejects_a_non_finite_contour(center, radius):
    # a nan contour used to end in "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match="center and radius must be finite"):
        winding_count(lambda z: z - 0.5, center, radius)


def _sketch_of(k):
    # the sketch at any width up to dim, below Prepared's crossover too
    return _sketch_ladder(k, k.shape[0])


@pytest.mark.parametrize("seed", (0, 3))
def test_low_rank_count_equals_the_eigensolve_on_the_corpus(seed):
    # of the 360 cases (36 models, ten sweep radii each) 347 certify at seed 0
    # and 352 at seed 3 with numpy 2.4 on OpenBLAS; a case at a threshold of
    # the certificate may move with the LAPACK build, so the count has a floor
    certified = 0
    for entry in regression_corpus(seed):
        prep = entry.prepared
        sketch = _sketch_of(prep.k)
        for s in sweep_radii(prep.norm_l0, prep.norm_k):
            count = low_rank_count_outside(prep.l0, sketch, prep.norm_l0,
                                           entry.model.norm, s)
            if count is not None:
                certified += 1
                assert count == eigen_count_outside(prep.spectrum, s), (entry.name, s)
    assert certified >= 340


@pytest.mark.parametrize("kind", list(NormKind))
def test_low_rank_count_refuses_an_eigenvalue_on_the_circle(kind):
    s, dim = 1.5, 16
    k = np.zeros((dim, dim), dtype=complex)
    k[0, 0] = s
    l0, sketch = np.zeros_like(k), _sketch_of(k)
    assert low_rank_count_outside(l0, sketch, 0.0, kind, s) is None
    # just off the circle the same model is counted
    assert low_rank_count_outside(l0, sketch, 0.0, kind, 0.9 * s) == 1
    assert low_rank_count_outside(l0, sketch, 0.0, kind, 1.1 * s) == 0


def test_low_rank_count_needs_the_circle_outside_the_base():
    l0 = 0.5 * np.eye(12, dtype=complex)
    sketch = _sketch(np.zeros_like(l0), 8, 0)  # K = 0 is captured at no width
    for s in (0.5, 0.25, math.nan, math.inf):
        assert low_rank_count_outside(l0, sketch, 0.5, NormKind.L2, s) is None


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
    sketch = _sketch_of(k)
    inv_calls = _count_linalg_calls(monkeypatch, "inv")
    assert low_rank_count_outside(np.zeros_like(k), sketch, 0.0, kind, s) is None
    assert len(inv_calls) == 1


def _unit_entry(dim, value):
    k = np.zeros((dim, dim), dtype=complex)
    k[0, 0] = value
    return k


def _give_up_case(name):
    # (l0, k, sketch width, norm, s, the eigensolve's count outside s)
    if name == "radius past the normal range":
        return (np.zeros((16, 16), dtype=complex), _unit_entry(16, 1.0),
                8, NormKind.L2, 2.0 ** 1010, 0)
    if name == "circle inside the rounded base norm":
        rng = np.random.default_rng(1)
        g = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        l0 = g / np.linalg.norm(g, 2)
        s = np.linalg.norm(l0, 2) * (1.0 + 1e-14)
        return l0, _unit_entry(128, 3.0), 8, NormKind.L2, s, 1
    if name == "rounding term overflows":
        # a nilpotent base of norm 1 - 1e-12 makes rho^2 about 1e24 against ||B|| = 16e298
        l0 = np.zeros((16, 16), dtype=complex)
        l0[-1, -2] = 1.0 - 1e-12
        k = np.zeros((16, 16), dtype=complex)
        k[0, :] = 1e298
        return l0, k, 8, NormKind.L1, 1.0, 1
    if name == "sample on an eigenvalue":
        return (np.zeros((16, 16), dtype=complex), _unit_entry(16, 1.5 * (1.0 + 1e-14)),
                8, NormKind.LINF, 1.5, 1)
    if name == "circle just outside the base norm":
        # the shift of norm 1 and s = 1 + 1e-11: rho^2 rounding swamps every sample
        l0 = np.eye(16, k=-1, dtype=complex)
        k = np.zeros((16, 16), dtype=complex)
        k[0, -1] = 0.5
        return l0, k, 8, NormKind.L1, 1.0 + 1e-11, 0
    if name == "remainder too large":
        # a width-8 sketch of a rank-2 K that also holds noise of norm 0.3
        rng = np.random.default_rng(4)
        u, _ = np.linalg.qr(rng.standard_normal((160, 2)) + 1j * rng.standard_normal((160, 2)))
        g = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
        k = (u * [2.0, 3.0]) @ u.conj().T + 0.3 * g / np.linalg.norm(g, 2)
        return np.zeros_like(k), k, 8, NormKind.L2, 1.0, 2
    # the twelve factors 1 - 1.08 of det F at the sample lam = s leave
    # |det F| = 0.08^12, below the contour's minimum modulus
    k = np.zeros((32, 32), dtype=complex)
    k[range(12), range(12)] = 1.08 * 1.5
    return np.zeros_like(k), k, 16, NormKind.L2, 1.5, 12


@pytest.mark.parametrize("name", [
    "radius past the normal range", "circle inside the rounded base norm",
    "rounding term overflows", "sample on an eigenvalue",
    "circle just outside the base norm", "remainder too large",
    "determinant below the contour modulus"])
def test_low_rank_count_gives_up_and_the_eigensolve_counts(name):
    l0, k, width, kind, s, expected = _give_up_case(name)
    prep = prepare(OperatorModel(l0.shape[0], kind, Dense(l0), Dense(k)))
    assert low_rank_count_outside(l0, _sketch(k, width, 0), prep.norm_l0, kind, s) is None
    assert prep.count_outside(s) == eigen_count_outside(prep.spectrum, s) == expected


def _dense_l2_model():
    # dim 128, ||L0||_2 = 0.8 and a rank-2 K: two eigenvalues outside |lambda| = 1.6
    dim, rng = 128, np.random.default_rng(8)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    l0 = 0.8 * g / np.linalg.norm(g, 2)
    u, _ = np.linalg.qr(rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2)))
    return l0, (u * np.array([2.5, -3.0j])) @ u.conj().T


def test_low_rank_count_keeps_to_its_budget(monkeypatch):
    # the dense l2 model fits half an eigensolve; a budget its first series
    # term and samples would exceed returns None before any sample
    l0, k = _dense_l2_model()
    sketch = _sketch_of(k)
    assert low_rank_count_outside(l0, sketch, 0.8, NormKind.L2, 1.6, budget=0.5) == 2
    inv_calls = _count_linalg_calls(monkeypatch, "inv")
    assert low_rank_count_outside(l0, sketch, 0.8, NormKind.L2, 1.6, budget=0.01) is None
    assert inv_calls == []


def test_low_rank_count_takes_no_svd_on_l2(monkeypatch):
    # every norm of the kernel is bounded without an SVD, in l2 too
    l0, k = _dense_l2_model()
    sketch = _sketch_of(k)
    svd_calls = _count_linalg_calls(monkeypatch, "svd")
    assert low_rank_count_outside(l0, sketch, 0.8, NormKind.L2, 1.6) == 2
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
    # no corpus model pairs l2 with a dense low-rank K; 251 of these 360
    # cases certify on the budget of Prepared.count_outside with numpy 2.4 on
    # OpenBLAS (237 while the kernel paid for its own sketch), and a threshold
    # case may move with the LAPACK build; below dim 96 Prepared itself takes
    # no sketch, so there the kernel is exercised on its own
    rng = np.random.default_rng(0)
    certified = 0
    for dim in (48, 64, 80, 96, 112, 128):
        for base_kind in (1, 2, 3):  # diagonal, dense and zero bases
            for rank in (1, 4):
                base, _ = _corpus_base(rng, base_kind, dim, NormKind.L2)
                pert, _, _ = _corpus_perturbation(rng, 2, dim, rank, NormKind.L2)
                prep = prepare(OperatorModel(dim=dim, norm=NormKind.L2, base=base,
                                             perturbation=pert))
                sketch = _sketch_of(prep.k)
                for s in sweep_radii(prep.norm_l0, prep.norm_k):
                    count = low_rank_count_outside(prep.l0, sketch, prep.norm_l0,
                                                   NormKind.L2, s, budget=0.5)
                    if count is not None:
                        certified += 1
                        assert count == eigen_count_outside(prep.spectrum, s), (dim, s)
    assert certified >= 237
