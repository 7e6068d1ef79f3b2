import dataclasses
import itertools
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencount import (
    AdmissibilityError,
    BoundReport,
    Certainty,
    Dense,
    Diagonal,
    NormKind,
    OperatorModel,
    Shift,
    SingularResolventError,
    Zero,
    approx_numbers,
    count_bound_disk,
    count_bound_disk_simple,
    count_bound_region,
    eigen_count_outside,
    gamma_p_upper,
    induced_norm,
    koenig_count_bound,
    lambert_w,
    moment_bound,
    moment_sum,
    parse_spec,
    phi_p,
    prepare,
    pseudospectral_epsilon,
    shift_example,
    singular_value_rank,
    sweep_radii,
    t_star,
)
from eigencount import bounds, materialize
from eigencount.numerics import _sketch_ladder


def _bisect_w(x: float) -> float:
    lo, hi = 0.0, max(1.0, np.log(max(x, 1.0)) + 1.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * np.exp(mid) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_lambert_w_anchor_and_residual():
    assert lambert_w(1.0) == pytest.approx(0.5671432904097838, abs=1e-13)
    assert lambert_w(0.0) == 0.0
    for x in np.geomspace(1e-10, 1e5, 200):
        w = lambert_w(x)
        assert abs(w * np.exp(w) - x) <= 1e-13 * max(1.0, x)


@settings(deadline=None, max_examples=50)
@given(st.floats(min_value=1e-6, max_value=100.0))
def test_lambert_w_matches_bisection(x):
    assert lambert_w(x) == pytest.approx(_bisect_w(x), abs=1e-9)


def test_lambert_w_rejects_negative():
    with pytest.raises(ValueError):
        lambert_w(-0.5)


def test_lambert_w_rejects_infinity():
    # the Halley step on inf is inf / inf, which would return nan
    with pytest.raises(ValueError, match="inf"):
        lambert_w(math.inf)


def _envelope(p: float, x: float) -> float:
    # (p+1)^{p+1} / p^p / (1-x)^{p+1}, count_bound_disk_simple's profile, from its log
    return math.exp(bounds._log_envelope(p, x))


def _phi_oracle(p: float, x: float) -> float:
    # 1 / max over t in (x, 1) of (t - x)^p log(1/t), on a dense grid
    t = np.linspace(x, 1.0, 200001)[1:-1]
    return 1.0 / float(np.max((t - x) ** p * np.log(1.0 / t)))


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
def test_phi_closed_form_vs_maximization(p):
    assert phi_p(p, 0.0) == pytest.approx(p * np.e, rel=1e-12)
    for x in (0.1, 0.3, 0.5, 0.7, 0.9):
        value = phi_p(p, x)
        assert value == pytest.approx(_phi_oracle(p, x), rel=1e-5)
        assert value <= _envelope(p, x) * (1 + 1e-9)


def test_phi_monotone_in_x():
    xs = np.linspace(0.0, 0.95, 40)
    vals = [phi_p(1.5, x) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_phi_rejects_out_of_range():
    with pytest.raises(AdmissibilityError):
        phi_p(1.0, 1.0)
    with pytest.raises(AdmissibilityError):
        phi_p(1.0, -0.1)
    with pytest.raises(AdmissibilityError):
        phi_p(0.0, 0.5)


def _simple_bound_at(p: float, base, s: float) -> BoundReport:
    # count_bound_disk_simple at N = 1 on dim 2, whose envelope is read at
    # x = ||base|| / s; alpha_1 = 1e-30 keeps the bound itself a float
    model = OperatorModel(2, NormKind.L2, base, Diagonal(np.array([0.0, 1e-30])))
    return count_bound_disk_simple(prepare(model), p, s, n_rank=1)


@pytest.mark.parametrize("p", [0.5, 2.0, 12.0, 20.0])
def test_profiles_refuse_a_denominator_without_digits(p):
    # at x = 1 - 2^-52, 1/p - W cancels to rounding noise (once it came out
    # negative at p = 12), and the envelope passes the largest float at p = 20
    s = 1.0000000000000002
    x = 1.0 / s
    with pytest.raises(AdmissibilityError,
                       match=r"1/p - W = .* at p = " + re.escape(f"{p}, x = {x}")):
        phi_p(p, x)
    if p == 20.0:
        with pytest.raises(AdmissibilityError, match=re.escape(
                f"phi_value = e^760.937047 at p = 20.0, s = {s!r} passes the largest float")):
            _simple_bound_at(p, Shift(), s)
    else:
        assert 0.0 < _envelope(p, x) < math.inf
        assert 0.0 < _simple_bound_at(p, Shift(), s).phi_value < math.inf


def test_envelope_refuses_a_value_that_overflows():
    # (1 - x)^20 = 2^-1020 is still a normal float, the quotient is not
    with pytest.raises(AdmissibilityError, match=re.escape(
            "phi_value = e^710.980429 at p = 19.0, s = 1.0 passes the largest float")):
        _simple_bound_at(19.0, Diagonal(np.array([1.0 - 2.0 ** -51, 0.0])), 1.0)


@pytest.mark.parametrize("p", [0.0015, 0.1, 1.0, 3.0, 12.0, 40.0])
def test_phi_near_one_is_accurate_or_refused(p):
    import mpmath

    served = 0
    for k in range(2, 54):
        x = 1.0 - 1.3 * 2.0 ** -k
        try:
            value = phi_p(p, x)
        except AdmissibilityError:
            continue
        served += 1
        with mpmath.workdps(40):
            big_p, big_x = mpmath.mpf(p), mpmath.mpf(x)
            w = mpmath.lambertw(mpmath.exp(1 / big_p) / big_p * big_x).real
            reference = (w / big_x) ** big_p / (1 / big_p - w) ** (big_p + 1)
        assert abs(value - reference) <= 1e-9 * reference
        assert value <= _envelope(p, x)
    assert served >= 10


@pytest.mark.parametrize("p", [0.001, 0.00141])
def test_p_too_small_for_the_lambert_argument_is_inadmissible(p):
    # e^{1/p} / p overflows a float: math.exp raises at p = 0.001, and at
    # p = 0.00141 the quotient is inf, on which W was nan
    for args in ((p, 0.5), (p, 0.0)):
        with pytest.raises(AdmissibilityError, match=r"0\.0014221.*got " + str(p)):
            phi_p(*args)
    for args in ((p, 0.5, 1.5), (p, 0.0, 1.5)):
        with pytest.raises(AdmissibilityError, match=r"0\.0014221.*got " + str(p)):
            t_star(*args)
    model, _ = shift_example(np.array([2.0 + 0j]), 12)
    with pytest.raises(AdmissibilityError, match=r"0\.0014221"):
        count_bound_disk(model, p, 1.5)
    # just above the limit both stay finite
    assert math.isfinite(phi_p(0.0014221, 0.5))
    assert 0.5 < t_star(0.0014221, 0.5, 1.5) < 1.5


def test_t_star_is_the_interior_maximum():
    for p, a, s in ((1.0, 1.0, 2.0), (0.5, 0.3, 1.1), (2.0, 0.0, 5.0)):
        t = t_star(p, a, s)
        assert a < t < s
        grid = np.linspace(a, s, 4001)[1:-1]
        profile = (grid - a) ** p * np.log(s / grid)
        peak = float(np.max(profile))
        assert (t - a) ** p * np.log(s / t) >= peak - 1e-10 * max(1.0, peak)


def _sound_on(entry, l0, k, p, s):
    full = l0 + k
    oracle = eigen_count_outside(full, s)
    for fn in (count_bound_disk, count_bound_disk_simple):
        report = fn(entry.model, p, s)
        assert report.admissible
        assert oracle <= report.bound + 1e-9 * max(1.0, report.bound)
    t = count_bound_disk(entry.model, p, s).t_star
    region = count_bound_region(entry.model, p, s, t)
    assert oracle <= region.bound + 1e-9 * max(1.0, region.bound)


def test_bounds_sound_on_a_few_corpus_models(materialized):
    for entry, l0, k in materialized[:6]:
        norm_l0 = induced_norm(l0, entry.model.norm)
        norm_k = induced_norm(k, entry.model.norm)
        for i, p in enumerate((0.5, 1.0, 2.0)):
            s = norm_l0 + (0.3 + 0.3 * i) * (norm_k + 1.0)
            _sound_on(entry, l0, k, p, s)


def test_phi_bound_never_worse_than_envelope_bound(materialized):
    entry, l0, k = materialized[0]
    norm_l0 = induced_norm(l0, entry.model.norm)
    norm_k = induced_norm(k, entry.model.norm)
    for s in (norm_l0 + 0.4 * norm_k + 0.2, norm_l0 + norm_k + 1.0):
        a = count_bound_disk(entry.model, 1.0, s).bound
        b = count_bound_disk_simple(entry.model, 1.0, s).bound
        assert a <= b * (1 + 1e-12) + 1e-12


def test_region_with_optimal_circle_matches_disk_bound(materialized):
    entry, l0, k = materialized[1]
    norm_l0 = induced_norm(l0, entry.model.norm)
    norm_k = induced_norm(k, entry.model.norm)
    s = norm_l0 + 0.5 * (norm_k + 1.0)
    dim = entry.model.dim
    disk = count_bound_disk(entry.model, 1.0, s, n_rank=dim)
    region = count_bound_region(entry.model, 1.0, s, t_star(1.0, norm_l0, s),
                                n_rank=dim)
    assert region.bound == pytest.approx(disk.bound, rel=1e-9)


def test_inadmissible_radius_is_reported():
    model, _ = shift_example(np.array([2.0 + 0j]), 12)
    with pytest.raises(AdmissibilityError) as info:
        count_bound_disk(model, 1.0, 0.8)  # inside the unperturbed norm
    assert "s" in str(info.value) or "radius" in str(info.value)


def test_point_target_region_bound():
    # a point's bound is the bound at its modulus, which counts the circle too
    model, _ = shift_example(np.array([2.0 + 0j]), 12)
    s = abs(2.0 + 0j)
    report = count_bound_region(model, 1.0, s, count_bound_disk(model, 1.0, s).t_star)
    assert report.admissible
    assert report.target == complex(s)
    assert report.bound >= 1.0 - 1e-9  # lam = 2 is an eigenvalue


@pytest.mark.parametrize("t", [0.0, -0.5, 1.6, 2.0, math.inf, -math.inf, math.nan])
def test_region_rejects_a_circle_outside_zero_to_s(t):
    model, _ = shift_example(np.array([2.0 + 0j]), 12)
    with pytest.raises(AdmissibilityError, match=f"t = {t}" if t > 0 else "positive"):
        count_bound_region(model, 1.0, 1.6, t)


@pytest.mark.parametrize("t", [1e-310, 5e-324])
def test_region_rejects_a_circle_too_small_for_log_one_over_r(t):
    # 1 / r overflows at t = 1e-310 and r underflows at 5e-324, but log(1/r) is
    # finite in logs; such a circle lies inside ||L0|| = 1, so every N is refused
    model, _ = shift_example(np.array([2.0 + 0j]), 12)
    with pytest.raises(AdmissibilityError, match=re.escape(
            f"no admissible N in [0, 12] for s = 1.6; at N = rank K = 1: circle "
            f"radius t = {t} must exceed ||L0|| + alpha_2 = 1;")):
        count_bound_region(model, 1.0, 1.6, t)


def test_region_rejects_a_gap_whose_power_underflows():
    # (eps - alpha_{N+1})^p = 1e-400 is below the smallest float, so the bound
    # passes the largest one: every N is refused
    model, _ = shift_example(np.array([2.0 + 0j]), 12)
    prep = prepare(model)
    with pytest.raises(AdmissibilityError, match=re.escape(
            "at N = rank K = 1: bound = e^954.929939 at p = 20.0, s = 1.6 passes "
            "the largest float")):
        count_bound_region(prep, 20.0, 1.6, 1.5, epsilon=prep.alpha.value_at(2) + 1e-20)


def test_only_a_profile_that_lost_its_digits_is_moot_at_an_empty_alpha_sum():
    # N = 0 is admissible (||L0|| + alpha_1 = 1.5 < s = 2), but the circle t = 1.3
    # lies inside 1.5: the region keeps refusing N = 0 and reports a larger N
    model = OperatorModel(2, NormKind.L2, Diagonal(np.array([1.0, 0.5])),
                          Diagonal(np.array([0.5, 0.1])))
    assert count_bound_disk(model, 2.0, 2.0, n_rank=0).bound == 0.0
    report = count_bound_region(model, 2.0, 2.0, 1.3)
    assert report.n_rank > 0 and report.bound > 0.0
    with pytest.raises(AdmissibilityError, match=r"circle radius t = 1.3 must exceed"):
        count_bound_region(model, 2.0, 2.0, 1.3, n_rank=0)
    # s^p = 1e400 passes the largest float, which the log route never forms:
    # N = 0 is empty, and N = 1 reads 1.5^20 / 1e400 as 0.0; the count is 0
    model = OperatorModel(2, NormKind.L2, Zero(), Diagonal(np.array([1.0, 0.5])))
    report = count_bound_region(model, 20.0, 1e20, 5e19)
    assert (report.n_rank, report.bound, report.phi_value) == (0, 0.0, 0.0)
    report = count_bound_region(model, 20.0, 1e20, 5e19, n_rank=1)
    assert (report.n_rank, report.bound) == (1, 0.0)
    assert report.alpha_sum == pytest.approx(1.5 ** 20, rel=1e-14)


def test_a_rank_with_a_bound_past_the_floats_is_refused():
    # alpha_1^20 = 1e400 passes the largest float: head_power_sum and every
    # rank that reports it as alpha_sum are refused
    model = OperatorModel(2, NormKind.L2, Zero(), Diagonal(np.array([1e20, 0.5])))
    with pytest.raises(AdmissibilityError, match=re.escape(
            "alpha_sum = e^921.034037 at p = 20.0, n = 1 passes the largest float")):
        prepare(model).alpha.head_power_sum(20.0, 1)
    message = "alpha_sum = e^921.034037 at p = 20.0, s = 1000000000000000.0 passes the largest float"
    with pytest.raises(AdmissibilityError, match=r"no admissible N .*" + re.escape(message)):
        count_bound_disk(model, 20.0, 1e15)
    with pytest.raises(AdmissibilityError, match=re.escape(message)):
        count_bound_disk(model, 20.0, 1e15, n_rank=1)


def test_an_s_power_past_the_largest_float_gives_bound_zero_only_without_a_count():
    # 1 / s^p reads 0, so every bound is 0.0: right where ||L0|| + ||K|| < s
    model = OperatorModel(2, NormKind.L2, Zero(), Diagonal(np.array([1.0, 0.5])))
    for report in (count_bound_disk(model, 20.0, 1e20, n_rank=2),
                   count_bound_disk_simple(model, 20.0, 1e20, n_rank=2),
                   koenig_count_bound(model, 20.0, 1e20)):
        assert report.bound == 0.0 and 0.0 < report.alpha_sum < math.inf
    with pytest.raises(AdmissibilityError, match=re.escape(
            "bound = e^955.590128 at p = 40.0, s = 1e-10 passes the largest float")):
        koenig_count_bound(model, 40.0, 1e-10)
    # here s^p is past the largest float, but the eigenvalue 3.5e15 lies outside:
    # the scale-free bound counts it
    model = OperatorModel(2, NormKind.L2, Diagonal(np.array([2e15, 0.0])),
                          Diagonal(np.array([1.5e15, 0.0])))
    assert eigen_count_outside(sum(materialize(model)), 2.7e15) == 1
    for bound in (count_bound_disk, count_bound_disk_simple):
        report = bound(model, 20.0, 2.7e15)
        assert report.n_rank == 1 and 2.8e16 < report.bound < 2.9e16


def test_compact_case_recovery():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    from eigencount import OperatorModel, Dense
    model = OperatorModel(10, NormKind.L2, Zero(), Dense(m))
    norm_k = induced_norm(m, NormKind.L2)
    alpha = approx_numbers(m, NormKind.L2)
    for p in (0.5, 1.0, 2.0):
        s = 0.4 * norm_k
        report = count_bound_disk(model, p, s, n_rank=10)
        gamma = gamma_p_upper(p)
        expected = (p * np.e * gamma.c_p / s ** p) * alpha.head_power_sum(p, 10)
        assert report.bound == pytest.approx(expected, rel=1e-9)


def test_koenig_count_bound_dominates_oracle():
    rng = np.random.default_rng(13)
    for _ in range(20):
        dim = int(rng.integers(3, 12))
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        norm_k = float(np.linalg.norm(m, 2))
        prep = prepare(OperatorModel(dim, NormKind.L2, Zero(), Dense(m)))
        for s in (0.3 * norm_k, 0.7 * norm_k):
            bound = koenig_count_bound(prep, 1.0, s).bound
            assert eigen_count_outside(m, s) <= bound + 1e-9


def test_koenig_count_bound_reports_the_classical_form(corpus):
    entry = next(e for e in corpus if isinstance(e.model.base, Zero))
    prep = prepare(entry.model)
    report = koenig_count_bound(prep, 1.5, 2.0)
    sv = np.linalg.svd(prep.k, compute_uv=False)
    assert (report.kind, report.n_rank, report.alpha_mode) == (
        "koenig_classical", entry.model.dim, Certainty.EXACT)
    assert report.t_star is report.eps is report.gamma_p is None
    assert report.phi_value == 1.0 and report.target == 2.0
    # the log route keeps alpha_sum within 4 (n + |log|) u of the exact sum, and
    # rounds the bound outward: at or above its linear form, within 1e-13
    with mpmath.workdps(50):
        reference = mpmath.fsum(mpmath.mpf(float(v)) ** mpmath.mpf(1.5) for v in sv)
        error = abs(mpmath.mpf(report.alpha_sum) / reference - 1)
        allowed = 4 * (len(sv) + abs(mpmath.log(reference))) * 2.0 ** -53
    assert error <= allowed
    linear = report.c_p / 2.0 ** 1.5 * report.alpha_sum
    assert linear <= report.bound <= linear * (1.0 + 1e-13)
    assert report.c_p == 2.0 * (2.0 * np.e) ** 0.75
    assert koenig_count_bound(entry.model, 1.5, 2.0) == report


def test_koenig_count_bound_takes_one_svd_per_prepared(corpus, svd_calls):
    # the one SVD of K is shared by alpha and the classical bound
    entry = next(e for e in corpus if isinstance(e.model.base, Zero))
    prep = prepare(entry.model)
    for s in sweep_radii(prep.norm_l0, prep.norm_k):
        for p in (0.5, 1.0, 2.0):
            koenig_count_bound(prep, p, s)
    assert len(svd_calls) == 1


def test_koenig_count_bound_needs_a_zero_base(corpus):
    entry = next(e for e in corpus if not isinstance(e.model.base, Zero))
    prep = prepare(entry.model)
    with pytest.raises(AdmissibilityError, match=r"\|\|L0\|\|"):
        koenig_count_bound(prep, 1.0, prep.norm_l0 + prep.norm_k + 1.0)
    zero = prepare(OperatorModel(4, NormKind.L2, Zero(), Dense(np.eye(4))))
    for p, s in ((1.0, 0.0), (1.0, -1.0), (0.0, 2.0)):
        with pytest.raises(AdmissibilityError):
            koenig_count_bound(zero, p, s)


def test_prepared_keeps_the_spectrum_and_the_raw_singular_values(svd_calls,
                                                                 eigvals_calls):
    # K = diag(1, 1e-20, 0, 0): alpha zeroes the entry past the rank, the
    # kept singular values do not; both come from the one SVD of K
    k = np.diag([1.0, 1e-20, 0.0, 0.0]).astype(complex)
    prep = prepare(OperatorModel(4, NormKind.L2, Zero(), Dense(k)))
    assert prep.alpha.value_at(2) == 0.0
    svd_calls.clear()
    assert prep.singular_values[1] == 1e-20
    assert prep.singular_values is prep.singular_values
    assert prep.spectrum is prep.spectrum and prep.spectrum.dim == 4
    assert (svd_calls, eigvals_calls) == ([], [1])


def _rank_r_matrix(dim, rank):
    rng = np.random.default_rng([7, dim, rank])
    u, _ = np.linalg.qr(rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank)))
    w, _ = np.linalg.qr(rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank)))
    return (u * rng.uniform(1.0, 3.0, rank)) @ w.conj().T


@pytest.mark.parametrize("dim, rank", [(64, 1), (64, 4), (64, 16), (128, 1), (128, 4),
                                       (128, 16), (256, 1), (256, 4), (256, 16), (384, 28)])
def test_the_sketch_stands_in_for_the_svd_of_a_low_rank_k(svd_shapes, dim, rank):
    # sketched at any width up to dim, K has the SVD's rank and every stand-in
    # lies within eta of the SVD's value. Prepared takes the sketch where its
    # ladder (widths up to dim / 12) reaches rank + 4 and eta is at most
    # dim eps sigma_1, the scale of the SVD's own backward error, which is why
    # alpha stays flagged exact; rank 28 at dim 384 reaches width 32, but its
    # eta is about 1.3 times that scale, so it takes the SVD
    eps = float(np.finfo(float).eps)
    ladder = max(8, 1 << (rank + 3).bit_length())  # the first width of 8, 16, ... >= rank + 4
    reference = None
    for exponent in (-520, 0, 520):
        k = _rank_r_matrix(dim, rank) * 2.0 ** exponent
        sv = np.linalg.svd(k, compute_uv=False)
        sketch = _sketch_ladder(k, dim)
        assert singular_value_rank(sketch.sv) == singular_value_rank(sv) == rank
        assert sketch.width == rank + 4
        eta = math.ldexp(sketch.eta, sketch.exponent)
        assert np.all(np.abs(sketch.singular_values() - sv) <= eta)
        assert eta < 1e-10 * sv[0]
        # the power-of-two scalings are exact: the same sketch, another exponent
        if reference is None:
            reference = sketch
        assert np.array_equal(sketch.sv, reference.sv) and sketch.eta == reference.eta
        assert sketch.exponent - reference.exponent == exponent + 520
        taken = ladder <= dim // 12 and sketch.eta <= dim * eps * sketch.sv[0]
        for kind in NormKind:
            svd_shapes.clear()
            prep = prepare(OperatorModel(dim, kind, Zero(), Dense(k)))
            assert prep.alpha.rank == rank
            assert (prep.sketch is not None) == taken
            assert svd_shapes.count((dim, dim)) == (not taken)
            if not taken:
                assert np.array_equal(prep.singular_values, sv)
                continue
            assert eta <= dim * eps * sv[0]
            assert np.array_equal(prep.singular_values, sketch.singular_values())
            if kind is NormKind.L2:
                assert prep.alpha.all_exact
                assert np.array_equal(prep.alpha.values[:rank], np.ldexp(sketch.sv[:rank],
                                                                         sketch.exponent))
    if (dim, rank) == (384, 28):
        assert ladder == dim // 12 and not taken


def test_a_full_rank_k_takes_the_svd(svd_calls):
    rng = np.random.default_rng(9)
    k = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    prep = prepare(OperatorModel(256, NormKind.L2, Zero(), Dense(k)))
    assert prep.sketch is None
    assert np.array_equal(prep.singular_values, np.linalg.svd(k, compute_uv=False))
    assert prep.alpha.rank == 256
    # the SVDs of B at widths 8 and 16 (up to 256 // 12), the one dense SVD of
    # K, and this test's own
    assert len(svd_calls) == 2 + 1 + 1


def test_prepare_computes_each_quantity_on_first_use(corpus, svd_calls,
                                                     eigvals_calls):
    # m07 (zero base) and m01 (diagonal base) are l2: ||L0|| takes no SVD on
    # either base, and one SVD of K serves alpha, ||K|| and the singular values
    for index, zero_base in ((7, True), (1, False)):
        svd_calls.clear()
        prep = prepare(corpus[index].model)
        assert prep.model.norm is NormKind.L2
        assert (svd_calls, eigvals_calls) == ([], [])
        assert (prep.norm_l0 == 0.0) == zero_base
        assert svd_calls == []
        assert prep.norm_k == prep.alpha.value_at(1) > 0.0
        assert len(prep.singular_values) == prep.model.dim
        assert len(svd_calls) == 1 and eigvals_calls == []


def test_moment_bound_dominates_oracle(materialized):
    entry, l0, k = materialized[2]
    norm_l0 = induced_norm(l0, entry.model.norm)
    bound = moment_bound(entry.model, 1.0, 2.5)
    lhs = moment_sum(l0 + k, norm_l0, 2.5)
    assert lhs <= bound + 1e-9 * max(1.0, bound)


def test_moment_bound_rejects_small_exponent(materialized):
    entry, _, _ = materialized[2]
    with pytest.raises(AdmissibilityError):
        moment_bound(entry.model, 1.0, 1.5)  # needs q > p + 1 when L0 != 0


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
def test_moment_bound_rejects_a_non_finite_exponent(materialized, q):
    entry, _, _ = materialized[2]
    with pytest.raises(AdmissibilityError):
        moment_bound(entry.model, 1.0, q)


def test_pseudospectral_epsilon_at_least_certified_gap():
    model, _ = shift_example(np.array([2.0 + 0j]), 16)
    t = 1.4
    eps = pseudospectral_epsilon(prepare(model), t)
    assert eps >= (t - 1.0) - 1e-9  # 1 / sup||R|| >= t - ||L0||


def test_a_circle_through_the_base_spectrum_fails_alike_in_every_norm(corpus):
    # the first of the 64 samples on |lam| = 1.2 is the eigenvalue 1.2 of L0
    for kind in NormKind:
        model = OperatorModel(2, kind, Diagonal(np.array([1.2, 0.1])), Zero())
        with pytest.raises(SingularResolventError):
            pseudospectral_epsilon(prepare(model), 1.2)
    # on l2 as in l1 and linf, the gap is one over the largest norm of the
    # base kind's checked solve
    prep = prepare(next(e.model for e in corpus if e.model.norm is NormKind.L2))
    t = prep.norm_l0 + 0.5
    circle = np.array([t * complex(math.cos(theta), math.sin(theta))
                       for theta in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)])
    dim = prep.model.dim
    resolvents = prep.model.base.solve(dim, circle, np.eye(dim, dtype=complex))
    assert pseudospectral_epsilon(prep, t) == 1.0 / max(induced_norm(resolvents, NormKind.L2))


def test_empirical_region_bound_tightens_and_is_flagged():
    model, _ = shift_example(np.array([2.0 + 0j]), 16)
    s = 1.6
    t = count_bound_disk(model, 1.0, s).t_star
    certified = count_bound_region(model, 1.0, s, t)
    eps = pseudospectral_epsilon(prepare(model), t)
    empirical = count_bound_region(model, 1.0, s, t, epsilon=eps)
    assert certified.certified
    assert not empirical.certified
    assert empirical.bound <= certified.bound * (1 + 1e-9)


def test_bound_report_serialization_round_trip(materialized):
    entry, l0, k = materialized[0]
    norm_l0 = induced_norm(l0, entry.model.norm)
    norm_k = induced_norm(k, entry.model.norm)
    s = norm_l0 + 0.5 * (norm_k + 1.0)
    report = count_bound_disk(entry.model, 1.0, s).with_oracle(3)
    doc = report.to_dict()
    assert doc["kind"] == "disk_phi"
    assert doc["oracle_count"] == 3
    assert doc["target"] == [s, 0.0]
    assert set(doc) >= {"p", "n_rank", "t_star", "eps", "gamma_p", "c_p",
                        "phi_value", "alpha_sum", "alpha_mode", "bound",
                        "admissible", "certified"}


def test_bound_report_dict_follows_the_field_order(spec_path):
    report = count_bound_disk(parse_spec(spec_path.read_bytes()), 1.0, 1.5)
    doc = report.to_dict()
    assert list(doc) == [f.name for f in dataclasses.fields(BoundReport)]
    assert doc["target"] == [1.5, 0.0] and doc["alpha_mode"] == report.alpha_mode.value


def test_prepared_records_compare_by_identity(corpus):
    # two records of m01 hold equal arrays; == must not ask them for a truth value
    first, second = prepare(corpus[1].model), prepare(corpus[1].model)
    assert first == first
    assert first != second
    assert len({first, second}) == 2


def test_prepared_model_gives_the_same_reports(materialized):
    for entry, _, k in materialized:
        prep = prepare(entry.model)
        assert prep.norm_k == induced_norm(k, entry.model.norm)
        s = prep.norm_l0 + 0.5 * (prep.norm_k + 1.0)
        assert (count_bound_disk(prep, 1.0, s).to_dict()
                == count_bound_disk(entry.model, 1.0, s).to_dict())


def test_explicit_circle_skips_inadmissible_ranks(corpus):
    # on m02 the optimal circle of the winning rank lies inside
    # ||L0|| + alpha_3, so ranks N <= 2 cannot use it
    model = corpus[2].model
    prep = prepare(model)
    s = prep.norm_l0 + 0.5 * (prep.norm_k + 1.0)
    t = count_bound_disk(prep, 1.0, s).t_star
    assert t <= prep.norm_l0 + prep.alpha.value_at(3)
    l0, k = materialize(model)
    oracle = eigen_count_outside(l0 + k, s)
    certified = count_bound_region(model, 1.0, s, t)
    assert certified.certified and certified.t_star == t
    assert oracle <= certified.bound
    assert t > prep.norm_l0 + prep.alpha.value_at(certified.n_rank + 1)

    gap = count_bound_region(model, 1.0, s, t, epsilon=t - prep.norm_l0)
    assert not gap.certified
    assert gap.bound == certified.bound

    with pytest.raises(AdmissibilityError, match="alpha_3"):
        count_bound_region(model, 1.0, s, t, n_rank=2)


def test_auto_rank_stops_at_the_rank_of_k(monkeypatch):
    calls = []
    phi = bounds._log_phi_p

    def counting_phi(p, x):
        calls.append(x)
        return phi(p, x)

    monkeypatch.setattr(bounds, "_log_phi_p", counting_phi)
    model, _ = shift_example(np.array([2.0 + 0j]), 64)
    report = count_bound_disk(model, 1.0, 1.5)
    assert report.n_rank <= 1
    assert len(calls) <= 2


def _first_minimum_over_fixed_ranks(bound, prep, p, s):
    best = None
    for n in range(prep.model.dim + 1):
        try:
            report = bound(prep, p, s, n_rank=n)
        except AdmissibilityError:
            continue
        if best is None or report.bound < best.bound:
            best = report
    return best


def test_auto_rank_is_the_first_minimum_over_every_fixed_rank(corpus):
    # the corpus has no dense low-rank K on l2, so add one: its raw SVD
    # tail is rounding noise that the sweep must not wander into
    rng = np.random.default_rng(11)
    g, u, v = rng.standard_normal((3, 24, 24)) + 1j * rng.standard_normal((3, 24, 24))
    l0 = 0.5 * g / np.linalg.norm(g, 2)
    k = u[:, :2] @ v[:, :2].conj().T / 24.0
    models = [entry.model for entry in corpus]
    models.append(OperatorModel(24, NormKind.L2, Dense(l0), Dense(k)))
    for model in models:
        prep = prepare(model)
        for s in sweep_radii(prep.norm_l0, prep.norm_k):
            for p in (0.5, 2.0):
                for bound in (count_bound_disk, count_bound_disk_simple):
                    expected = _first_minimum_over_fixed_ranks(bound, prep, p, s)
                    assert bound(prep, p, s).to_dict() == expected.to_dict()


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("fn, args, fragment", [
    (bounds._log_envelope, (_NAN, 0.5), "p must be positive and finite, got nan"),
    (bounds._log_envelope, (_INF, 0.5), "p must be positive and finite, got inf"),
    (bounds._log_envelope, (1.0, _NAN), "got x = nan"),
    (phi_p, (_NAN, 0.5), "p must be positive and finite, got nan"),
    (phi_p, (_INF, 0.5), "p must be positive and finite, got inf"),
    (phi_p, (1.0, _NAN), "got x = nan"),
    (t_star, (_NAN, 0.5, 1.0), "p must be positive and finite, got nan"),
    (t_star, (_INF, 0.5, 1.0), "p must be positive and finite, got inf"),
    (t_star, (1.0, 0.5, _INF), "target radius s must be finite, got inf"),
])
def test_scalar_profiles_reject_non_finite_inputs(fn, args, fragment):
    # these returned nan, or raised a bare ValueError or ZeroDivisionError
    with pytest.raises(AdmissibilityError) as info:
        fn(*args)
    assert str(info.value).endswith(fragment)


def test_the_last_float_powers_on_the_bound_path_are_typed():
    # ||K||^2 = 1e400 raised an untyped OverflowError, as did (p + 1)^(p + 1) at p = 200
    model = OperatorModel(2, NormKind.L2, Zero(), Diagonal(np.array([1e200, 0.5])))
    with pytest.raises(AdmissibilityError, match=re.escape(
            "the moment bound = e^1384.882536 at p = 1.0, q = 3.0 passes the largest float")):
        moment_bound(model, 1.0, 3.0)
    value = _envelope(200.0, 0.5)
    assert value == pytest.approx(1.7516104890429898e63, rel=1e-13)
    assert math.log(value) == pytest.approx(145.62339650281592, rel=1e-13)


_BIG, _SMALL = 2.0 ** 1000, 2.0 ** -1000


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 20.0, 40.0])
def test_every_bound_at_extreme_scales_is_a_value_or_refused(p):
    # s and the alphas at 2^+-1000: each call returns a bound at or above the
    # count (the eigenvalues are the diagonal sums) or raises AdmissibilityError
    served = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for base, k, s in itertools.product(
                [(0.0, 0.0), (_SMALL, 0.0), (0.5 * _BIG, 0.0)],
                [(_BIG, _SMALL), (_SMALL, 0.5 * _SMALL), (_BIG, 0.5 * _BIG)],
                [1.5 * _SMALL, 3.0 * _SMALL, 1.5 * _BIG, 3.0 * _BIG]):
            model = OperatorModel(2, NormKind.L2,
                                  Zero() if base == (0.0, 0.0) else Diagonal(np.array(base)),
                                  Diagonal(np.array(k)))
            prep = prepare(model)
            eigs = [b + a for b, a in zip(base, k)]
            count = sum(abs(lam) > s for lam in eigs)
            calls = [lambda: count_bound_disk(prep, p, s),
                     lambda: count_bound_disk_simple(prep, p, s),
                     lambda: count_bound_region(prep, p, s, 0.5 * (base[0] + s)),
                     lambda: koenig_count_bound(prep, p, s)]
            for call in calls:
                try:
                    report = call()
                except AdmissibilityError:
                    continue
                served += 1
                assert report.bound >= count
                assert all(math.isfinite(v) for v in (report.bound, report.phi_value,
                                                      report.alpha_sum))
            q = p + 1.5
            try:
                bound = moment_bound(prep, p, q)
            except AdmissibilityError:
                continue
            served += 1
            with mpmath.workdps(50):
                moment = mpmath.fsum((abs(mpmath.mpf(lam)) - mpmath.mpf(base[0])) ** q
                                     for lam in eigs if abs(lam) > base[0])
            assert mpmath.mpf(bound) >= moment
        for x in (0.0, 2.0 ** -1074, _SMALL, 0.5, 1.0 - 2.0 ** -20, 1.0 - 2.0 ** -52):
            assert math.isfinite(bounds._log_envelope(p, x))  # on all of [0, 1)
            served += 1
            try:
                value = phi_p(p, x)
            except AdmissibilityError:
                continue
            served += 1
            assert 0.0 < value < math.inf
    assert served >= 60


def test_l1_and_linf_bounds_are_exact_under_power_of_two_scaling(corpus):
    # every disk and region row keeps its bound and rank bit for bit when the
    # model and the radii scale by 2^k; the classical row reads LAPACK's singular
    # values, which scale exactly only at |k| = 3 here
    def rows(prep, p, s, exponent):
        disk = count_bound_disk(prep, p, s)
        a = prep.norm_l0 + prep.alpha.value_at(disk.n_rank + 1)
        reports = [disk, count_bound_disk_simple(prep, p, s)] + [
            count_bound_region(prep, p, s, t)
            for t in (0.5 * (a + disk.t_star), 0.5 * (disk.t_star + s))]
        if isinstance(prep.model.base, Zero) and abs(exponent) < 500:
            reports.append(koenig_count_bound(prep, p, s))
        return [(r.kind, r.bound, r.n_rank) for r in reports]

    checked = 0
    for entry in corpus:
        if entry.model.norm is NormKind.L2:
            continue
        base = prepare(entry.model)
        l0, k = materialize(entry.model)
        radii = sweep_radii(base.norm_l0, base.norm_k)
        for exponent in (-1000, -500, -3, 3, 500):
            scale = 2.0 ** exponent
            zero = isinstance(entry.model.base, Zero)
            prep = prepare(OperatorModel(entry.model.dim, entry.model.norm,
                                         Zero() if zero else Dense(l0 * scale),
                                         Dense(k * scale)))
            for p, s in itertools.product((0.5, 1.0, 2.0), radii):
                assert rows(prep, p, s * scale, exponent) == rows(base, p, s, exponent)
                checked += 1
    assert checked == 24 * 5 * 3 * 10
