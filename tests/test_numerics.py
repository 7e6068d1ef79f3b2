import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencount import (
    DEFAULT,
    NormKind,
    SingularResolventError,
    Spectrum,
    as_matrix,
    cluster_radius,
    eigen_count_outside,
    eigenvalues,
    induced_norm,
    numerical_rank,
    resolvent,
    resolvent_norms,
    singular_values,
)
from eigencount import numerics
from eigencount.errors import MatrixError


def test_norm_kind_parse():
    assert NormKind.parse("l1") is NormKind.L1
    assert NormKind.parse("l2") is NormKind.L2
    assert NormKind.parse("linf") is NormKind.LINF
    with pytest.raises(ValueError):
        NormKind.parse("l3")
    with pytest.raises(ValueError):
        NormKind.parse("L2")  # tags are exact, lowercase


def test_as_matrix_rejects_non_square():
    with pytest.raises(MatrixError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(MatrixError):
        as_matrix([[1.0, np.nan], [0.0, 1.0]])


def test_eigenvalues_exact_diagonal_clusters():
    m = np.diag([2.0, 2.0, 3.0, 0.0])
    spec = eigenvalues(m)
    pairs = sorted(((complex(v).real, complex(v).imag), int(c))
                   for v, c in zip(spec.values, spec.multiplicities))
    assert pairs == [((0.0, 0.0), 1), ((2.0, 0.0), 2), ((3.0, 0.0), 1)]
    assert spec.dim == 4
    assert eigen_count_outside(spec, 1.0) == 3
    for radius in (-1.0, math.nan, math.inf):
        with pytest.raises(MatrixError):
            Spectrum(spec.values, spec.multiplicities, radius)


def test_spectra_compare_by_identity():
    # the generated __eq__ compared the value arrays as a tuple and raised
    # "truth value of an array ... is ambiguous"
    first, second = eigenvalues(np.diag([1.0, 2.0, 3.0])), eigenvalues(np.diag([1.0, 2.0, 3.0]))
    assert first == first
    assert first != second
    assert first in [first] and second not in [first]


def test_eigenvalues_flat_preserves_total_multiplicity():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    spec = eigenvalues(m)
    assert spec.flat().shape == (7,)
    # same multiset as the raw solver, up to ordering
    raw = np.sort_complex(np.linalg.eigvals(m))
    assert np.allclose(np.sort_complex(spec.flat()), raw, atol=1e-8)


def test_singular_values_known():
    m = np.array([[3.0, 0.0], [0.0, 4.0]], dtype=complex)
    assert np.allclose(singular_values(m), [4.0, 3.0])


def test_numerical_rank_outer_product():
    u = np.arange(1, 6, dtype=float)
    assert numerical_rank(np.outer(u, u)) == 1
    assert numerical_rank(np.zeros((4, 4))) == 0
    assert numerical_rank(np.eye(4)) == 4


def test_induced_norms_hand_values():
    m = np.array([[1.0, -2.0], [3.0, 4.0]], dtype=complex)
    assert induced_norm(m, NormKind.L1) == 6.0   # worst column
    assert induced_norm(m, NormKind.LINF) == 7.0  # worst row
    # L2 induced norm is the top singular value
    top = float(np.sqrt(np.max(np.linalg.eigvalsh(m.conj().T @ m)).real))
    assert abs(induced_norm(m, NormKind.L2) - top) < 1e-12


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_induced_norm_is_submultiplicative_on_vectors(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    for kind, order in ((NormKind.L1, 1), (NormKind.L2, 2), (NormKind.LINF, np.inf)):
        lhs = np.linalg.norm(m @ v, ord=order)
        rhs = induced_norm(m, kind) * np.linalg.norm(v, ord=order)
        assert lhs <= rhs * (1 + 1e-12)


def test_resolvent_convention_and_singularity():
    m = np.diag([1.0, 2.0]).astype(complex)
    r = resolvent(m, 3.0)
    assert np.allclose(r, np.diag([0.5, 1.0]))
    with pytest.raises(SingularResolventError) as info:
        resolvent(m, 2.0)
    assert "2" in str(info.value)


def test_resolvent_residual_check_near_spectrum():
    m = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(SingularResolventError):
        resolvent(m, 2.0 + 1e-16)


@pytest.mark.parametrize("exponent", [-1000, -3, 520, 1000])
def test_resolvent_is_exact_under_power_of_two_scaling(exponent):
    # the residual check multiplied ||lam - m||_F by ||X||_F, 0 * inf or inf
    # at these scales, and so accepted any solve
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    expected = resolvent(m, 4 + 1j) * 2.0 ** -exponent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = resolvent(m * 2.0 ** exponent, (4 + 1j) * 2.0 ** exponent)
    assert np.array_equal(scaled, expected)


def test_a_resolvent_that_overflows_names_lambda():
    # 1 / (lam - 2^-1000 * 2) overflows; the inf and NaN it left used to pass
    m = np.diag([1.0, 2.0]).astype(complex) * 2.0 ** -1000
    lam = np.nextafter(2.0, 3.0) * 2.0 ** -1000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularResolventError) as info:
            resolvent(m, lam)
        assert info.value.lam == lam
        with pytest.raises(SingularResolventError, match="lambda = "):
            resolvent_norms(m, [lam], NormKind.L2)


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (7, 1), (1, 4), (4, 5, 3)])
def test_induced_norm_accepts_rectangular_matrices(shape):
    rng = np.random.default_rng(17)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for kind, order in ((NormKind.L1, 1), (NormKind.L2, 2), (NormKind.LINF, np.inf)):
        expected = np.linalg.norm(m, order, axis=(-2, -1))
        assert np.allclose(induced_norm(m, kind), expected, rtol=1e-13, atol=0.0)
    with pytest.raises(MatrixError):
        induced_norm(np.zeros((0, 3)), NormKind.L1)


def test_cluster_radius_is_exact_under_power_of_two_scaling():
    # ||m||_F of entries near 1e156 overflowed to inf, which merged every
    # eigenvalue into one cluster
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    radius = cluster_radius(m)
    assert radius == DEFAULT.cluster_rtol * float(np.linalg.norm(m))
    for exponent in (-1000, 520, 1000):
        scaled = m * 2.0 ** exponent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cluster_radius(scaled) == math.ldexp(radius, exponent)
            spec = eigenvalues(scaled)
        assert len(spec.values) == 6
        assert spec.radius == cluster_radius(scaled)
    assert cluster_radius(np.zeros((3, 3))) == 0.0
    assert cluster_radius(np.full((2, 2), 1e-310)) > 0.0  # subnormal entries


def _gaussian(dim):
    rng = np.random.default_rng(dim)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


_L2_FAMILIES = {
    **{f"gaussian-{dim}": (lambda dim=dim: _gaussian(dim)) for dim in (1, 2, 8, 64, 600)},
    "shift": lambda: np.eye(16, k=-1, dtype=complex),
    "rank-one": lambda: np.outer(_gaussian(16)[0], _gaussian(16)[1]),
    "unitary": lambda: 3.0 * np.linalg.qr(_gaussian(16))[0],
    "zero": lambda: np.zeros((16, 16), dtype=complex),
    "diagonal-1e12": lambda: np.diag(np.logspace(-12.0, 0.0, 16) * np.exp(1j * np.arange(16))),
}


@pytest.mark.parametrize("exponent", [-1070, -1000, -500, 0, 500, 1000])
@pytest.mark.parametrize("family", sorted(_L2_FAMILIES))
def test_proven_l2_norm_bounds_the_top_singular_value(family, exponent):
    # sigma_1 <= tau <= sigma_1 (1 + 2^-20), up to the one float step by which
    # tau is rounded up: that step is 2^-1074 on the subnormal grid at 2^-1070
    m = _L2_FAMILIES[family]() * math.ldexp(1.0, exponent)
    sigma = float(np.linalg.svd(m, compute_uv=False)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tau = numerics._proven_l2_norm(m)
    if family == "zero":
        assert tau == 0.0
    assert sigma <= tau <= math.nextafter(sigma * (1.0 + 2.0 ** -20), math.inf)


@pytest.mark.parametrize("family", ["gaussian-64", "rank-one", "unitary", "diagonal-1e12"])
def test_proven_l2_norm_survives_a_low_estimate(monkeypatch, family, cholesky_calls):
    # an estimate of lambda_max(L0^H L0) that is a quarter too low fails every
    # factorization on its way to the last rung, sqrt(||L0||_1 ||L0||_inf), and
    # one of 0 goes straight there
    m = _L2_FAMILIES[family]()
    sigma = float(np.linalg.svd(m, compute_uv=False)[0])
    estimate = numerics._lanczos_top
    monkeypatch.setattr(numerics, "_lanczos_top", lambda gram: (estimate(gram)[0] / 4, 0.0))
    assert numerics._proven_l2_norm(m) >= sigma
    assert len(cholesky_calls) == numerics._CHOLESKY_RUNGS
    cholesky_calls.clear()
    monkeypatch.setattr(numerics, "_lanczos_top", lambda gram: (0.0, 0.0))
    last = numerics._proven_l2_norm(m)
    assert cholesky_calls == []
    assert sigma <= float(np.sqrt(np.max(np.sum(np.abs(m), axis=0))
                                  * np.max(np.sum(np.abs(m), axis=1)))) <= last
