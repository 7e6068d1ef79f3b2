import numpy as np
import pytest

from eigencount import (
    AdmissibilityError,
    GammaP,
    GammaProvenance,
    NormKind,
    Spectrum,
    approx_numbers,
    det_bound_rhs,
    det_regularized,
    det_regularized_log,
    gamma_p_upper,
    induced_norm,
    materialize,
    perturbation_determinant,
    rank_n_approximant,
    scalar_factor_log,
    shift_example,
)

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
    assert gamma.provenance is GammaProvenance.ENVELOPE_CERTIFIED


def test_gamma_p1_is_exactly_one():
    assert gamma_p_upper(1.0).value == 1.0


def test_gamma_regression_pins():
    # frozen against the brute-force oracle above
    assert gamma_p_upper(0.5).value == pytest.approx(0.80474, abs=5e-4)
    assert gamma_p_upper(2.0).value == pytest.approx(0.50000, abs=5e-4)
    assert gamma_p_upper(3.0).value == pytest.approx(0.57894, abs=5e-4)


def test_gamma_rejects_bad_exponent():
    with pytest.raises(AdmissibilityError):
        gamma_p_upper(0.0)
    with pytest.raises(AdmissibilityError):
        gamma_p_upper(-1.0)


def test_gamma_p_user_supplied_validation():
    g = GammaP(1.0, 2.0, GammaProvenance.ENVELOPE_CERTIFIED)
    assert g.c_p == pytest.approx(2.0 * 2.0 * np.sqrt(2.0 * np.e))
    with pytest.raises(AdmissibilityError):
        GammaP(1.0, 0.0, GammaProvenance.ENVELOPE_CERTIFIED)


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
    f = rank_n_approximant(k, 1, model.norm)
    for lam in (3.0 + 0j, 2.0 + 1.0j, -4.0 + 0j, 1.5j):
        sample = perturbation_determinant(full, f, lam, 1.0)
        assert sample.value == pytest.approx(analytic(lam), abs=1e-10)


def test_perturbation_determinant_vanishes_at_eigenvalue():
    model, _ = shift_example(np.array([2.0 + 0j]), 40)
    l0, k = materialize(model)
    sample = perturbation_determinant(l0 + k, rank_n_approximant(k, 1, model.norm),
                                      2.0 + 0j, 1.0)
    assert abs(sample.value) < 1e-10


def test_det_bound_rhs_dominates_on_circle(corpus, materialized):
    entry, l0, k = next(
        (e, a, b) for e, a, b in materialized
        if e.model.norm is NormKind.L2 and e.model.dim <= 16)
    alpha = approx_numbers(k, NormKind.L2)
    n_rank = int(np.linalg.matrix_rank(k))
    f = rank_n_approximant(k, n_rank, NormKind.L2)
    t = induced_norm(l0, NormKind.L2) + induced_norm(k, NormKind.L2) + 0.5
    for theta in np.linspace(0.0, 2 * np.pi, 32, endpoint=False):
        lam = t * np.exp(1j * theta)
        sample = perturbation_determinant(l0 + k, f, lam, 1.0)
        rhs = det_bound_rhs(l0, k, f, lam, 1.0, 0.0, n_rank,
                            NormKind.L2, alpha)
        assert sample.log_abs <= rhs + 1e-9


def test_det_bound_rhs_rejects_oversized_gap(materialized):
    entry, l0, k = next(
        (e, a, b) for e, a, b in materialized if e.model.norm is NormKind.L2)
    alpha = approx_numbers(k, NormKind.L2)
    f = np.zeros_like(k)  # rank 0, so the gap is the whole perturbation
    t = induced_norm(l0, NormKind.L2) + induced_norm(k, NormKind.L2) + 0.5
    with pytest.raises(AdmissibilityError):
        # claim rank dim with eta 0: allowed gap is alpha_{dim+1} = 0 < ||K||
        det_bound_rhs(l0, k, f, t + 0j, 1.0, 0.0, k.shape[0],
                      NormKind.L2, alpha)
