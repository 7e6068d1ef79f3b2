import dataclasses
import math

import numpy as np
import pytest

from eigencount import (
    AdmissibilityError,
    Dense,
    GammaP,
    MatrixError,
    NormKind,
    OperatorModel,
    Prepared,
    SingularResolventError,
    Spectrum,
    det_bound_rhs,
    det_regularized,
    det_regularized_log,
    eigenvalues,
    gamma_p_upper,
    induced_norm,
    koenig_check,
    koenig_constant,
    materialize,
    perturbation_determinant,
    prepare,
    rank_n_factors,
    resolvent,
    scalar_factor_log,
    shift_example,
    Zero,
)
from eigencount import determinants
from eigencount.determinants import _circle_log_max
from eigencount.verify import _winding_cases

P_GRID = (0.5, 1.0, 1.5, 2.0, 3.0)


def _spectrum(values):
    vals = np.asarray(values, dtype=complex)
    return Spectrum(vals, np.ones(len(vals), dtype=int))


def test_det_anchors():
    assert det_regularized(_spectrum([]), 3) == 1.0
    assert det_regularized(_spectrum([1.0]), 2) == 0.0
    # (1 - 1/2)^2 * exp(1/2 + 1/2) = e/4, by hand
    value = det_regularized(_spectrum([0.5, 0.5]), 2)
    assert value == pytest.approx(0.25 * np.e, rel=1e-12)


def test_det_log_matches_plain_product_for_order_one():
    rng = np.random.default_rng(5)
    eigs = 0.3 * (rng.standard_normal(8) + 1j * rng.standard_normal(8)) + 2.0
    value, log_abs = det_regularized_log(_spectrum(eigs), 1)
    plain = np.prod(1.0 - eigs)
    assert value == pytest.approx(plain, rel=1e-10)
    assert log_abs == pytest.approx(np.log(abs(plain)), rel=1e-10)


def test_scalar_factor_log_orders():
    lam = 0.3 + 0.4j
    assert scalar_factor_log(lam, 1) == pytest.approx(np.log(abs(1 - lam)))
    expected = np.log(abs((1 - lam) * np.exp(lam)))
    assert scalar_factor_log(lam, 2) == pytest.approx(expected, rel=1e-12)


def _gamma_oracle(p: float, n: int) -> float:
    """Brute-force sup over lam != 0 of log|scalar factor| / |lam|^p."""
    best = 0.0
    for r in np.geomspace(1e-4, 30.0, 900):
        lam = r * np.exp(1j * np.linspace(0.0, 2 * np.pi, 721))
        top = float(np.max([scalar_factor_log(x, n) for x in lam]))
        best = max(best, top / r ** p)
    return best


@pytest.mark.parametrize("p", P_GRID)
def test_gamma_dominates_and_is_sharp(p):
    gamma = gamma_p_upper(p)
    oracle = _gamma_oracle(p, int(np.ceil(p)))
    assert gamma.value >= oracle - 1e-9          # never undercuts the sup
    assert gamma.value <= oracle * 1.02 + 1e-9   # and stays within 2 percent
    # the constant keeps its p and the finite radius where its ratio peaks
    assert [f.name for f in dataclasses.fields(gamma)] == ["p", "value", "r_star"]
    assert gamma.p == p and 0.0 <= gamma.r_star < math.inf


def test_gamma_p1_is_exactly_one():
    assert gamma_p_upper(1.0).value == 1.0


def test_gamma_regression_pins():
    # frozen against the brute-force oracle above
    assert gamma_p_upper(0.5).value == pytest.approx(0.80474, abs=5e-4)
    assert gamma_p_upper(2.0).value == pytest.approx(0.50000, abs=5e-4)
    assert gamma_p_upper(3.0).value == pytest.approx(0.57894, abs=5e-4)


# float.hex of (value, r_star): for p <= 1 the closed form of log(1 + r) / r^p,
# above it circle maxima over theta = 0, pi and the critical angles
GAMMA_HEX = {
    0.1: ("0x1.d6e3485f2e72fp+1", "0x1.57fddaa5e3268p+14"),
    0.25: ("0x1.7a861f523728ap+0", "0x1.8b7b65ece8423p+5"),
    0.5: ("0x1.9c073035e98e1p-1", "0x1.f5f57830fd1bep+1"),
    0.75: ("0x1.63d0f96143602p-1", "0x1.aa68653072e00p-1"),
    1.0: ("0x1.0000000000000p+0", "0x0.0p+0"),
    1.25: ("0x1.df2f557d5dd76p-1", "0x1.731781d10212dp+1"),
    1.5: ("0x1.78d4824e099a9p-1", "0x1.33ca35f081fbbp+1"),
    2.0: ("0x1.0000000001199p-1", "0x1.0281aabd0e17bp-26"),
    2.5: ("0x1.7ae1d58aeefbcp-1", "0x1.b4bdd6f7be3a7p+0"),
    3.0: ("0x1.286b7db040b4ap-1", "0x1.9364ff3b5e40ap+0"),
    4.0: ("0x1.3d003c55f8a0ap-1", "0x1.675e68a329c69p+0"),
    5.0: ("0x1.497572ee4b57cp-1", "0x1.4f916d0ed221cp+0"),
    7.5: ("0x1.7bedb5179dac8p-1", "0x1.325112c23b692p+0"),
    10.0: ("0x1.629bcfa3206b8p-1", "0x1.24f6625d63a8bp+0"),
    20.0: ("0x1.6f4c14441cf0fp-1", "0x1.11d7bfea3f397p+0"),
    40.0: ("0x1.75ab5d157f801p-1", "0x1.08c4ed7ad4efcp+0"),
}


@pytest.mark.parametrize("p", sorted(GAMMA_HEX))
def test_gamma_is_bit_stable(p):
    gamma = gamma_p_upper(p)
    assert (gamma.value.hex(), gamma.r_star.hex()) == GAMMA_HEX[p]


def test_gamma_two_is_just_above_one_half():
    # the circle maximum is r^2 / 2 exactly for 0 < r < 2; with log|1 - lam|
    # from log1p, only the 1e-12 inflation lifts Gamma_2 above 1/2
    assert 0.5 < gamma_p_upper(2.0).value <= 0.5 * (1.0 + 2e-12)


def _ratio_order_one(p: float, r: float) -> float:
    return math.log1p(r) / r ** p


@pytest.mark.parametrize("p", [0.01, 0.05, 0.07188, 0.0723])
def test_gamma_bounds_a_ratio_peaking_past_radius_1e6(p):
    # log(1 + r) / r^p peaks near r = e^(1/p), past the 1e6 where a radius
    # grid used to end: at p = 0.05 such a grid gave 6.924 where the ratio
    # at e^20 is 7.358
    gamma = gamma_p_upper(p)
    assert gamma.r_star > 1e6
    for r in (gamma.r_star, math.exp(1.0 / p), 1e6):
        assert gamma.value >= _ratio_order_one(p, r)
    if p == 0.05:
        assert f"{gamma.value:.13f}" == "7.3575888241871"


def test_gamma_peak_just_below_radius_1e6():
    # p = 0.0724 peaks inside the last cell of the radius grid the order-one
    # constant once came from
    grid = np.logspace(-8.0, 6.0, 1500)
    gamma = gamma_p_upper(0.0724)
    assert grid[-2] < gamma.r_star < grid[-1] * (1 - 1e-3)
    assert gamma.value >= _ratio_order_one(0.0724, grid[-1])


def _mp_gamma_order_one(p: float):
    # 40-digit max_r log(1 + r) / r^p: bisect e^x / ((1 + e^x) log(1 + e^x)) = p
    import mpmath

    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        lo, hi = mpmath.mpf(-60), mpmath.mpf(800)
        for _ in range(200):
            mid = (lo + hi) / 2
            t = mpmath.exp(mid)
            if t / ((1 + t) * mpmath.log1p(t)) > p:
                lo = mid
            else:
                hi = mid
        r = mpmath.exp(lo)
        return mpmath.log1p(r) / r ** p


@pytest.mark.parametrize("p", [0.0015, 0.01, 0.05, 0.0724, 0.1, 0.25, 0.5, 0.75,
                               0.9, 0.99, 0.999999])
def test_order_one_gamma_matches_a_40_digit_reference(p):
    import mpmath

    ref = _mp_gamma_order_one(p)
    value = mpmath.mpf(gamma_p_upper(p).value)
    assert ref <= value <= ref * (1 + mpmath.mpf("1e-13")), (p, float(value / ref - 1))


def test_gamma_p1_peaks_at_radius_zero():
    gamma = gamma_p_upper(1.0)
    assert (gamma.value, gamma.r_star) == (1.0, 0.0)


@pytest.mark.parametrize("p", [1e-3, 0.0014088])
def test_gamma_rejects_a_peak_radius_past_the_largest_float(p):
    with pytest.raises(AdmissibilityError) as info:
        gamma_p_upper(p)
    assert str(info.value).startswith("p must be at least about 0.0014089")
    assert str(info.value).endswith(f"got {p}")


def test_grid_argmax_stays_interior_above_order_one():
    # the grid path keeps no check on a peak at its last radius 1e6: for
    # every p > 1 the grid ratio peaks well inside (at index 926 of 0-1499 at most)
    top = 0
    for p in np.linspace(1.0, 40.4, 4006)[1:].tolist():
        n = math.ceil(p)
        grid, envelope = determinants._grid_envelope(n)
        tail = [determinants._tail_envelope(n, r) for r in grid.tolist()]
        ratios = np.minimum(envelope, tail) / grid ** p
        top = max(top, int(np.argmax(ratios)))
    assert top < len(grid) - 1


@pytest.mark.parametrize("n", (2, 3, 5))
def test_circle_maximum_of_each_radius_alone_equals_the_batch(n):
    # 300 radii cross the boundary between two blocks
    radii = np.logspace(-8.0, 6.0, 1500)[::5]
    alone = np.array([_circle_log_max(n, radii[i:i + 1])[0] for i in range(len(radii))])
    assert np.array_equal(_circle_log_max(n, radii), alone)


def _mp_circle_log_max(n: int, r: float):
    # 40-digit maximum of the factor log over |lam| = r, taken over theta = 0,
    # pi and the critical angles, found as the eigenvalues of the Jacobi matrix
    import mpmath

    with mpmath.workdps(40):
        r = mpmath.mpf(r)
        jacobi = mpmath.zeros(n - 1, n - 1)
        for k in range(n - 2):
            jacobi[k, k + 1] = jacobi[k + 1, k] = mpmath.mpf(1) / 2
        jacobi[n - 2, n - 2] = r / 2
        cosines = mpmath.eigsy(jacobi, eigvals_only=True)
        angles = [mpmath.mpf(0), mpmath.pi] + [mpmath.acos(c) for c in cosines if abs(c) <= 1]

        def factor_log(theta):
            lam = r * mpmath.expj(theta)
            return mpmath.log(abs(1 - lam)) + sum(
                r ** j * mpmath.cos(j * theta) / j for j in range(1, n))

        return max(factor_log(theta) for theta in angles)


@pytest.mark.parametrize("n", (2, 3, 5, 8))
def test_circle_maximum_matches_a_40_digit_reference(n):
    # n / (n-1) (1 - 4e-5) puts a critical angle inside the first grid cell
    for r in (0.3, 0.9, n / (n - 1) * (1 - 4e-5), 1.7, 3.0, 25.0):
        ref = _mp_circle_log_max(n, r)
        value = float(_circle_log_max(n, np.array([r]))[0])
        assert abs(value - float(ref)) <= 1e-14 * max(1.0, abs(float(ref))), (r, value, ref)


def test_order_two_circle_maximum_is_half_the_squared_radius():
    # at cos theta = r / 2, |1 - lam| = 1 and the factor log is r^2 / 2 exactly;
    # log|1 - lam| is computed to about one ulp of 1, which ulps of r^2 / 2
    # cover only from r = 1 on. The radii near 2 put the critical angle
    # next to theta = 0.
    radii = np.concatenate([np.linspace(0.0, 2.0, 4002)[1:-1],
                            2.0 - np.geomspace(1e-10, 1.5e-4, 40)])
    values = _circle_log_max(2, radii)
    for r, value in zip(radii.tolist(), values.tolist()):
        half = r * r / 2
        slack = 4 * math.ulp(half) + (0.0 if r >= 1.0 else 2 * math.ulp(1.0))
        assert value >= half - slack, (r, value - half)


def test_gamma_rejects_bad_exponent():
    # 1e-8 ** p, the ratio's divisor at the smallest grid radius, underflows from p ~ 40.5
    for p in (0.0, -1.0, math.nan, math.inf, 40.5, 1e6):
        with pytest.raises(AdmissibilityError):
            gamma_p_upper(p)


def test_gamma_envelope_is_computed_once_per_order(monkeypatch):
    orders = []
    circle_log_max = determinants._circle_log_max

    def counting(n, radii):
        if len(radii) > 1:  # the radius grid, not a golden-section point
            orders.append(n)
        return circle_log_max(n, radii)

    monkeypatch.setattr(determinants, "_circle_log_max", counting)
    gamma_p_upper.cache_clear()
    determinants._grid_envelope.cache_clear()
    gamma_p_upper(1.5)
    gamma_p_upper(2.0)  # the same order n = 2 as p = 1.5
    assert orders == [2]
    gamma_p_upper(3.0)
    assert orders == [2, 3]


def test_gamma_p_user_supplied_validation():
    g = GammaP(1.0, 2.0)
    assert g.c_p == pytest.approx(2.0 * 2.0 * np.sqrt(2.0 * np.e))
    with pytest.raises(AdmissibilityError):
        GammaP(1.0, 0.0)


@pytest.mark.parametrize("p", [math.nan, math.inf, 0.0, -1.0])
def test_gamma_p_rejects_a_p_that_is_not_positive(p):
    # NaN <= 0 is false, so a NaN p used to construct, with a NaN c_p;
    # an infinite p constructed with an infinite c_p
    with pytest.raises(AdmissibilityError, match="p must be positive"):
        GammaP(p, 1.0)


@pytest.mark.parametrize("p", P_GRID)
def test_scalar_envelope_dominance_random(p):
    rng = np.random.default_rng(11)
    gamma = gamma_p_upper(p)
    n = int(np.ceil(p))
    lam = 50.0 * rng.uniform(0, 1, 400) ** 2 * np.exp(
        2j * np.pi * rng.uniform(0, 1, 400))
    for x in lam:
        assert scalar_factor_log(x, n) <= gamma.value * abs(x) ** p + 1e-9


def test_perturbation_determinant_matches_analytic_shift_form():
    model, analytic = shift_example(np.array([2.0 + 0j]), 40)
    l0, k = materialize(model)
    full = l0 + k
    f = rank_n_factors(k, 1, model.norm)
    for lam in (3.0 + 0j, 2.0 + 1.0j, -4.0 + 0j, 1.5j):
        sample = perturbation_determinant(full, f, lam, 1.0)
        assert sample.value == pytest.approx(analytic(lam), abs=1e-10)


def test_perturbation_determinant_vanishes_at_eigenvalue():
    model, _ = shift_example(np.array([2.0 + 0j]), 40)
    l0, k = materialize(model)
    sample = perturbation_determinant(l0 + k, rank_n_factors(k, 1, model.norm),
                                      2.0 + 0j, 1.0)
    assert abs(sample.value) < 1e-10


def test_det_bound_rhs_dominates_on_circle(corpus, materialized):
    entry, l0, k = next(
        (e, a, b) for e, a, b in materialized
        if e.model.norm is NormKind.L2 and e.model.dim <= 16)
    prep = Prepared(entry.model, l0, k)
    n_rank = int(np.linalg.matrix_rank(k))
    factors = rank_n_factors(k, n_rank, NormKind.L2)
    t = induced_norm(l0, NormKind.L2) + induced_norm(k, NormKind.L2) + 0.5
    for theta in np.linspace(0.0, 2 * np.pi, 32, endpoint=False):
        lam = t * np.exp(1j * theta)
        sample = perturbation_determinant(l0 + k, factors, lam, 1.0)
        rhs = det_bound_rhs(prep, factors, lam, 1.0, n_rank)
        assert sample.log_abs <= rhs + 1e-9


def test_det_bound_rhs_rejects_oversized_gap(materialized):
    entry, l0, k = next(
        (e, a, b) for e, a, b in materialized if e.model.norm is NormKind.L2)
    prep = Prepared(entry.model, l0, k)
    f = rank_n_factors(k, 0, NormKind.L2)  # rank 0: the gap is all of K
    t = induced_norm(l0, NormKind.L2) + induced_norm(k, NormKind.L2) + 0.5
    with pytest.raises(AdmissibilityError):
        # claim rank dim: allowed gap is alpha_{dim+1} = 0 < ||K||
        det_bound_rhs(prep, f, t + 0j, 1.0, k.shape[0])


@pytest.mark.parametrize("exponent", [-40, 0, 40])
def test_det_bound_rhs_gap_check_is_scale_free(exponent):
    # K has singular values 1 and 0.7; F is rank 1 with ||K - F|| = 2.02, far
    # above alpha_2 = 0.7. An absolute floor of 1e-9 on the slack let this F
    # through once K was scaled below about 1e-9.
    rng = np.random.default_rng(12)
    u, _ = np.linalg.qr(rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2)))
    scale = 2.0 ** exponent
    k = scale * (u * [1.0, 0.7]) @ v.conj().T
    prep = prepare(OperatorModel(12, NormKind.L2, Zero(), Dense(k)))
    lam = 2.0 * scale + 0j
    bad = (-1.02 * scale * u[:, :1], v[:, :1].conj())
    assert induced_norm(k - bad[0] @ bad[1].T, NormKind.L2) == pytest.approx(2.02 * scale)
    with pytest.raises(AdmissibilityError):
        det_bound_rhs(prep, bad, lam, 1.0, 1)
    assert det_bound_rhs(prep, rank_n_factors(k, 1, NormKind.L2), lam, 1.0, 1) > 0.0


def _dense_route_log_abs(l, factors, lam, p):
    """The dim x dim reference: regularized det of 1 - F (lam - (L - F))^{-1}."""
    f = factors[0] @ factors[1].T
    spec = eigenvalues(f @ resolvent(l - f, lam))
    return det_regularized_log(spec, int(np.ceil(p)))[1]


def _assert_routes_agree(l, factors, lam, p):
    log_abs = perturbation_determinant(l, factors, lam, p).log_abs
    reference = _dense_route_log_abs(l, factors, lam, p)
    assert abs(log_abs - reference) <= 1e-12 * max(1.0, abs(reference)), lam


def test_rxr_determinant_matches_dense_route_on_shift_example():
    rng = np.random.default_rng(0)
    model, _ = shift_example(rng.uniform(-1.0, 1.0, 20), 200)
    l0, k = materialize(model)
    factors = (model.perturbation.left[:, None], model.perturbation.right[:, None])
    for radius, angle in zip(rng.uniform(1.2, 4.0, 8),
                             rng.uniform(0.0, 2 * np.pi, 8)):
        _assert_routes_agree(l0 + k, factors, radius * np.exp(1j * angle), 1.0)


def test_rxr_determinant_matches_dense_route_on_winding_cases():
    cases = list(_winding_cases(np.random.default_rng(0), 20))
    assert len(cases) >= 10
    for _, full, factors, center, radius, _, p in cases:
        for theta in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
            _assert_routes_agree(full, factors, center + radius * np.exp(1j * theta), p)


def test_rxr_determinant_matches_dense_route_on_corpus_circles(corpus):
    entries = [e for e in corpus
               if e.model.norm is NormKind.L2 and e.model.dim <= 24][:4]
    assert len(entries) == 4
    for which, entry in enumerate(entries):
        prep = prepare(entry.model)
        p = (1.0, 2.0)[which % 2]
        for n_rank in {prep.alpha.rank, max(0, prep.alpha.rank - 2)}:
            factors = rank_n_factors(prep.k, n_rank, NormKind.L2)
            for t in (prep.norm_l0 + prep.norm_k + 0.25,
                      prep.norm_l0 + 2.0 * prep.norm_k + 1.0):
                for theta in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
                    _assert_routes_agree(prep.l0 + prep.k, factors,
                                         t * np.exp(1j * theta), p)


def test_rank_zero_determinant_is_exactly_one():
    model, _ = shift_example(np.array([2.0 + 0j]), 10)
    l0, k = materialize(model)
    empty = np.zeros((10, 0), dtype=complex)
    # 0 is an eigenvalue of L, yet with F = 0 the determinant is 1 everywhere
    for lam in (3.0 + 0j, 0.0 + 0j):
        sample = perturbation_determinant(l0 + k, (empty, empty), lam, 2.0)
        assert sample.value == 1.0 and sample.log_abs == 0.0


@pytest.mark.parametrize("p", [math.nan, math.inf])
@pytest.mark.parametrize("call, error", [
    (lambda prep, f, p: koenig_constant(p), ValueError),
    (lambda prep, f, p: koenig_check(np.diag([1.0, 0.5]), p), ValueError),
    (lambda prep, f, p: perturbation_determinant(prep.l0 + prep.k, f, 3.0 + 0j, p),
     AdmissibilityError),
    (lambda prep, f, p: det_bound_rhs(prep, f, 3.0 + 0j, p, 1), AdmissibilityError),
], ids=["koenig_constant", "koenig_check", "perturbation_determinant", "det_bound_rhs"])
def test_a_non_finite_p_raises_the_typed_error(call, error, p):
    # NaN <= 0 and inf <= 0 are false: koenig_check returned (nan, nan) and
    # (1.0, inf), and perturbation_determinant died in math.ceil
    model, _ = shift_example(np.array([2.0 + 0j]), 10)
    l0, k = materialize(model)
    with pytest.raises(error, match=f"must be positive and finite, got {p}"):
        call(Prepared(model, l0, k), rank_n_factors(k, 1, model.norm), p)


@pytest.mark.parametrize("call", [
    lambda p: koenig_constant(p),
    lambda p: koenig_check(np.eye(2) * 0.1, p),
    lambda p: GammaP(p, 1.0).c_p,
], ids=["koenig_constant", "koenig_check", "GammaP.c_p"])
@pytest.mark.parametrize("p", [838.0, 900.0])
def test_a_koenig_constant_past_the_largest_float_raises_the_typed_error(call, p):
    # (2e)^(p/2) is a float power, which raised an untyped OverflowError from
    # p of about 838.4 on; just below that, the factor 2 made it inf
    with pytest.raises(AdmissibilityError, match=rf"at p = {p} overflows a float"):
        call(p)


def test_perturbation_determinant_rejects_mismatched_factors():
    model, _ = shift_example(np.array([2.0 + 0j]), 10)
    l0, k = materialize(model)
    ones = np.ones((10, 2), dtype=complex)
    for factors in ((ones, ones[:, :1]),           # ranks differ
                    (ones[:9], ones[:9]),          # dimension differs from L
                    (ones[:, 0], ones[:, 0]),      # not dim x r arrays
                    k):                            # a dense approximant
        with pytest.raises(AdmissibilityError):
            perturbation_determinant(l0 + k, factors, 3.0 + 0j, 1.0)
    with pytest.raises(MatrixError):
        perturbation_determinant(l0 + k, (ones * np.nan, ones), 3.0 + 0j, 1.0)


# --- batched evaluation -------------------------------------------------


def _per_point_log_abs(l, factors, lam, p):
    """The per-point kernel the batched one replaced: one solve and one
    clustered r x r eigensolve at lam."""
    left, right = (np.asarray(x, dtype=complex) for x in factors)
    if left.shape[1] == 0:
        return 0.0
    a = lam * np.eye(l.shape[0], dtype=complex) - (l - left @ right.T)
    spec = eigenvalues(right.T @ np.linalg.solve(a, left))
    return det_regularized_log(spec, int(np.ceil(p)))[1]


def _assert_batch_matches_points(l, factors, lams, p):
    batch = perturbation_determinant(l, factors, lams, p)
    assert batch.log_abs.shape == batch.value.shape == lams.shape
    for lam, log_abs in zip(lams, batch.log_abs):
        reference = _per_point_log_abs(l, factors, lam, p)
        assert abs(log_abs - reference) <= 1e-12 * abs(reference) + 1e-300, lam
        assert perturbation_determinant(l, factors, lam, p).log_abs == log_abs


def _circle(center, radius, count=64):
    return center + radius * np.exp(1j * np.linspace(0.0, 2 * np.pi, count,
                                                     endpoint=False))


def test_batched_determinant_matches_per_point_on_winding_circles():
    cases = list(_winding_cases(np.random.default_rng(0), 20))
    assert len(cases) >= 10
    for _, full, factors, center, radius, _, p in cases:
        _assert_batch_matches_points(full, factors, _circle(center, radius), p)


def _corpus_circles(corpus):
    # the det suite's growth-bound circles: rank(K) and rank(K) - 2, two radii
    entries = [e for e in corpus
               if e.model.norm is NormKind.L2 and e.model.dim <= 24][:4]
    assert len(entries) == 4
    for which, entry in enumerate(entries):
        prep = prepare(entry.model)
        p = (1.0, 2.0)[which % 2]
        for n_rank in sorted({prep.alpha.rank, max(0, prep.alpha.rank - 2), 0}):
            for t in (prep.norm_l0 + prep.norm_k + 0.25,
                      prep.norm_l0 + 2.0 * prep.norm_k + 1.0):
                yield prep, n_rank, _circle(0.0, t), p


def test_batched_determinant_matches_per_point_on_corpus_circles(corpus):
    ranks = set()
    for prep, n_rank, lams, p in _corpus_circles(corpus):
        factors = rank_n_factors(prep.k, n_rank, NormKind.L2)
        _assert_batch_matches_points(prep.l0 + prep.k, factors, lams, p)
        ranks.add(n_rank)
    assert 0 in ranks and len(ranks) > 1


def test_batched_det_bound_rhs_equals_the_per_point_values(corpus):
    for prep, n_rank, lams, p in _corpus_circles(corpus):
        f = rank_n_factors(prep.k, n_rank, NormKind.L2)
        batch = det_bound_rhs(prep, f, lams, p, n_rank)
        beta = prep.alpha.value_at(n_rank + 1)
        total = prep.alpha.head_power_sum(p, n_rank, offset=beta)
        for lam, value in zip(lams, batch):
            assert value == det_bound_rhs(prep, f, lam, p, n_rank)
            # the formula as it was evaluated one lam at a time
            res_norm = induced_norm(resolvent(prep.l0, lam), NormKind.L2)
            assert value == (gamma_p_upper(p).c_p * res_norm ** p * total
                             / (1.0 - beta * res_norm) ** p)


def test_det_bound_rhs_runs_two_svds_on_a_circle(corpus, svd_calls):
    # ||K - F|| and one stacked SVD of the 64 resolvents; ||K|| is alpha_1
    prep, n_rank, lams, p = next(_corpus_circles(corpus))
    f = rank_n_factors(prep.k, n_rank, NormKind.L2)
    alpha = prep.alpha
    svd_calls.clear()
    det_bound_rhs(prep, f, lams, p, n_rank)
    assert len(lams) == 64 and len(svd_calls) == 2


def test_scalar_lam_gives_scalar_fields():
    model, analytic = shift_example(np.array([2.0 + 0j]), 12)
    l0, k = materialize(model)
    factors = rank_n_factors(k, 1, model.norm)
    sample = perturbation_determinant(l0 + k, factors, 3.0, 1.0)
    assert type(sample.lam) is complex and type(sample.value) is complex
    assert type(sample.log_abs) is float
    batch = perturbation_determinant(l0 + k, factors, np.array([3.0, 2.0 + 1j]), 1.0)
    assert batch.value[0] == sample.value
    assert batch.value[1] == pytest.approx(analytic(2.0 + 1j), abs=1e-10)
    with pytest.raises(ValueError, match="1-D"):
        perturbation_determinant(l0 + k, factors, np.ones((2, 2)), 1.0)


def test_batched_determinant_names_the_first_eigenvalue_in_the_array():
    # L - F = diag(1, 2, 3, 4) exactly, so 2 and 3 make singular solves
    l = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    l[0, 1] = 1.0
    left = np.zeros((4, 1), dtype=complex)
    right = np.zeros((4, 1), dtype=complex)
    left[0, 0] = right[1, 0] = 1.0
    for lams, first in (([5.0 + 1j, 2.0, 7j, 3.0], 2.0), ([3.0, 6.0, 2.0], 3.0)):
        with pytest.raises(SingularResolventError) as info:
            perturbation_determinant(l, (left, right), np.array(lams), 1.0)
        assert info.value.lam == first


def test_cold_gamma_evaluates_each_golden_point_once(monkeypatch):
    # above order one: two starting points and one new point per each of the
    # 80 golden steps; the closing comparison reuses their values. Order one
    # evaluates no circle maximum at all, not even the radius grid.
    sizes = []
    circle_log_max = determinants._circle_log_max

    def counting(n, r):
        sizes.append(len(r))
        return circle_log_max(n, r)

    monkeypatch.setattr(determinants, "_circle_log_max", counting)
    determinants._grid_envelope.cache_clear()
    for p in P_GRID:
        gamma_p_upper.cache_clear()
        sizes.clear()
        gamma_p_upper(p)
        if p > 1.0:
            assert sizes.count(1) == 82
        else:
            assert sizes == []
    gamma_p_upper.cache_clear()
