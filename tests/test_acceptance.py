"""Acceptance gate: one test per headline guarantee, run with -v for the
per-criterion pass/fail listing. Each test prints a one-line verdict so the
teed output reads as a checklist.
"""

import time

import numpy as np
import pytest

from eigencount import (
    Dense,
    NormKind,
    OperatorModel,
    Zero,
    approx_numbers,
    count_bound_disk,
    count_bound_disk_simple,
    det_bound_rhs,
    eigen_count_outside,
    gamma_p_upper,
    induced_norm,
    koenig_count_bound,
    lambert_w,
    materialize,
    moment_from_curve,
    moment_sum,
    count_curve,
    perturbation_determinant,
    phi_p,
    prepare,
    rank_n_factors,
    run_suites,
    scalar_factor_log,
    shift_example,
    soundness_sweep,
    winding_count,
)

P_SWEEP = (0.5, 1.0, 2.0)


def _report(n, text):
    print(f"criterion {n}: PASS - {text}")


def test_c1_soundness_sweep_all_bounds_dominate_oracle(corpus):
    start = time.monotonic()
    log = soundness_sweep(corpus, p_values=P_SWEEP)
    elapsed = time.monotonic() - start
    result = log.result("soundness")
    assert result.failure_count == 0, result.failures[:1]
    assert len(corpus) >= 30
    assert elapsed < 120.0
    _report(1, f"{result.checks} oracle-vs-bound checks over "
               f"{len(corpus)} models in {elapsed:.1f}s, zero violations")


def test_c2_compact_case_recovery_and_classical_bound(corpus):
    # closed form: with no unperturbed part the profile collapses to p*e
    checked = 0
    for entry in corpus:
        from eigencount.operators import Zero
        if not isinstance(entry.model.base, Zero):
            continue
        l0, k = materialize(entry.model)
        alpha = approx_numbers(k, entry.model.norm)
        norm_k = induced_norm(k, entry.model.norm)
        dim = entry.model.dim
        for p in P_SWEEP:
            s = 0.45 * (norm_k + 1.0)
            report = count_bound_disk(entry.model, p, s, n_rank=dim)
            expected = (p * np.e * gamma_p_upper(p).c_p / s ** p
                        ) * alpha.head_power_sum(p, dim)
            assert report.bound == pytest.approx(expected, rel=1e-9)
            checked += 1
    assert checked >= 9

    rng = np.random.default_rng(2024)
    trials = 0
    for _ in range(100):
        dim = int(rng.integers(2, 21))
        m = (rng.standard_normal((dim, dim))
             + 1j * rng.standard_normal((dim, dim))) / np.sqrt(dim)
        p = P_SWEEP[trials % 3]
        top = float(np.linalg.norm(m, 2))
        prep = prepare(OperatorModel(dim, NormKind.L2, Zero(), Dense(m)))
        for s in (0.35 * top, 0.8 * top):
            bound = koenig_count_bound(prep, p, s).bound
            assert eigen_count_outside(m, s) <= bound + 1e-9
        trials += 1
    _report(2, f"{checked} closed-form recoveries at 1e-9 and "
               f"{trials} classical-bound dominations")


def test_c3_koenig_inequality_300_trials():
    (result,) = run_suites(["koenig"], seed=0)
    assert result.checks >= 300
    assert result.failure_count == 0, result.failures[:1]
    _report(3, f"{result.checks} seeded trials, eigenvalue power sums "
               "within the singular-value bound")


def test_c4_determinant_identity_and_winding():
    dim = 50
    model, analytic = shift_example(np.array([2.0 + 0j]), dim)
    l0, k = materialize(model)
    full = l0 + k
    f = rank_n_factors(k, 1, model.norm)

    rng = np.random.default_rng(4)
    for _ in range(50):
        lam = rng.uniform(1.2, 4.0) * np.exp(2j * np.pi * rng.uniform())
        sample = perturbation_determinant(full, f, lam, 1.0)
        assert abs(sample.value - analytic(lam)) <= 1e-8

    def det_route(lam):
        return perturbation_determinant(full, f, lam, 1.0).value

    # the determinant has its zero at 2 and a pole at 0 (the spectrum of
    # L - F), so the argument-principle count needs a pole-free circle;
    # the zero count there must equal the oracle eigenvalue count inside
    winding = winding_count(det_route, 2.0, 0.75)
    inside = eigen_count_outside(full, 1.25) - eigen_count_outside(full, 2.75)
    assert winding == 1
    assert winding == inside

    # on |lam| = 3 the circle encloses zero and pole alike: the winding is
    # their signed difference, and adding back the enclosed pole recovers 1
    on_big_circle = winding_count(det_route, 0.0, 3.0)
    assert on_big_circle == 0
    assert on_big_circle + 1 == eigen_count_outside(full, 1.0)
    _report(4, "determinant identity at 50 points within 1e-8; "
               "argument-principle count matches the oracle")


def test_c5_determinant_growth_bound_on_circles(corpus):
    points = 0
    models = 0
    for entry in corpus:
        if entry.model.norm is not NormKind.L2:
            continue
        prep = prepare(entry.model)
        l0, k = prep.l0, prep.k
        full = l0 + k
        n_rank = int(np.linalg.matrix_rank(k))
        factors = rank_n_factors(k, n_rank, NormKind.L2)
        norm_l0 = induced_norm(l0, NormKind.L2)
        norm_k = induced_norm(k, NormKind.L2)
        p = 1.0 if models % 2 == 0 else 2.0
        for t in (norm_l0 + norm_k + 0.25, norm_l0 + 2.0 * norm_k + 1.0):
            for theta in np.linspace(0.0, 2 * np.pi, 64, endpoint=False):
                lam = t * np.exp(1j * theta)
                sample = perturbation_determinant(full, factors, lam, p)
                rhs = det_bound_rhs(prep, factors, lam, p, n_rank)
                assert sample.log_abs - rhs <= 1e-9
                points += 1
        models += 1
    assert models >= 10
    _report(5, f"log-determinant within the certified exponent at {points} "
               f"grid points on {2 * models} circles")


def test_c6_special_functions_against_oracles():
    for x in np.geomspace(1e-12, 1e6, 1000):
        w = lambert_w(float(x))
        assert abs(w * np.exp(w) - x) <= 1e-13 * max(1.0, x)

    checked = 0
    for p in (0.5, 1.0, 2.0, 3.0):
        for x in (0.1, 0.25, 0.4, 0.55, 0.7, 0.85):
            t = np.linspace(x, 1.0, 400001)[1:-1]
            oracle = 1.0 / float(np.max((t - x) ** p * np.log(1.0 / t)))
            value = phi_p(p, x)
            assert value == pytest.approx(oracle, rel=1e-6)
            envelope = (p + 1.0) ** (p + 1.0) / p ** p / (1.0 - x) ** (p + 1.0)
            assert value <= envelope * (1 + 1e-9)
            checked += 1
    _report(6, f"Lambert residuals at 1000 points and {checked} profile "
               "values against direct maximization")


def test_c7_moment_identity_on_every_corpus_model(corpus):
    checked = 0
    for entry in corpus:
        l0, k = materialize(entry.model)
        full = l0 + k
        base = induced_norm(l0, entry.model.norm)
        curve = count_curve(full)
        for q in (1.5, 2.0, 3.0):
            direct = moment_sum(full, base, q)
            integrated = moment_from_curve(curve, base, q)
            assert integrated == pytest.approx(direct, rel=1e-9, abs=1e-12)
            checked += 1
    _report(7, f"{checked} counting-curve integrals equal the direct "
               "moment sums at 1e-9")


def test_c8_asymptotic_exponent_near_the_rim():
    dim = 24
    model, _ = shift_example(np.array([2.0 + 0j]), dim)
    gaps = np.geomspace(0.01, 0.1, 15)
    for p in P_SWEEP:
        bounds = [count_bound_disk_simple(model, p, 1.0 + g, n_rank=dim).bound
                  for g in gaps]
        slope = np.polyfit(np.log(gaps), np.log(bounds), 1)[0]
        assert slope == pytest.approx(-(p + 1.0), abs=0.05)
    _report(8, "log-log slope of the envelope bound is -(p+1) within 0.05 "
               "for p in {0.5, 1, 2}")


def test_c9_scalar_envelope_dominance():
    rng = np.random.default_rng(9)
    lam = 50.0 * rng.uniform(0.0, 1.0, 1000) ** 2 * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, 1000))
    violations = 0
    for p in (0.5, 1.0, 1.5, 2.0, 3.0):
        gamma = gamma_p_upper(p)
        n = int(np.ceil(p))
        for x in lam:
            if scalar_factor_log(complex(x), n) > gamma.value * abs(x) ** p + 1e-9:
                violations += 1
    assert violations == 0
    _report(9, "scalar factor stays below the certified envelope at 1000 "
               "points for five exponents")
