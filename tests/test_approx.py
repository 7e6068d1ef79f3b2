import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencount import (
    AdmissibilityError,
    ApproxSequence,
    Certainty,
    NormKind,
    approx_numbers,
    det_bound_rhs,
    induced_norm,
    koenig_check,
    koenig_constant,
    numerical_rank,
    prepare,
    rank_n_approximant,
    rank_n_factors,
    regression_corpus,
    singular_values,
)

KINDS = (NormKind.L1, NormKind.L2, NormKind.LINF)


def _random_matrix(seed, dim=6):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


# a weighted cyclic permutation: its column sums and its row sums tie in pairs
_TIED_SUMS = np.roll(np.eye(5), 1, axis=0) * np.array([3.0, 3.0j, -1.0, 1.0j, 0.5])


def test_l2_sequence_is_exact_singular_values():
    m = _random_matrix(0)
    seq = approx_numbers(m, NormKind.L2)
    assert seq.all_exact
    assert np.allclose(seq.values, singular_values(m), atol=1e-12)


def test_l1_sequence_flags_interior_entries_as_upper_bounds():
    m = _random_matrix(2)
    seq = approx_numbers(m, NormKind.L1)
    assert seq.certainty[0] is Certainty.EXACT
    assert all(c is Certainty.UPPER_BOUND for c in seq.certainty[1:-1])
    assert not seq.all_exact


def test_sequence_is_nonincreasing_and_rank_padded():
    u = np.array([3.0, 1.0, 0.0, 0.0])
    m = np.outer(u, u).astype(complex)  # rank 1
    for kind in KINDS:
        seq = approx_numbers(m, kind)
        vals = seq.values
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))
        assert np.all(vals[1:] == 0.0)
        assert vals[0] == pytest.approx(induced_norm(m, kind))


def test_entries_beyond_the_rank_are_zero_in_every_norm():
    # on l2 the raw singular values of a rank-2 matrix end in a rounding tail
    rng = np.random.default_rng(4)
    u, v = rng.standard_normal((2, 12, 2)) + 1j * rng.standard_normal((2, 12, 2))
    m = u @ v.conj().T
    seqs = [approx_numbers(m, kind) for kind in KINDS]
    for seq in seqs:
        assert np.all(seq.values[2:] == 0.0)
        assert np.all(seq.values[:2] > 0.0)
    assert [seq.rank for seq in seqs] == [2, 2, 2]


def test_value_at_is_one_based_and_zero_beyond():
    seq = ApproxSequence(np.array([2.0, 1.0, 0.0]),
                         (Certainty.EXACT,) * 3, NormKind.L2)
    assert seq.value_at(1) == 2.0
    assert seq.value_at(3) == 0.0
    assert seq.value_at(7) == 0.0
    with pytest.raises(ValueError):
        seq.value_at(0)


@pytest.mark.parametrize("scale", [2.0 ** -1000, 1.0, 2.0 ** 1000])
def test_monotonicity_slack_scales_with_alpha_one(scale):
    # a rise of 1e-9 alpha_1 is no rounding at any scale; the slack was
    # 1e-12 max(1, alpha_1), which let it pass below alpha_1 = 1e-3
    exact = (Certainty.EXACT,) * 3
    with pytest.raises(ValueError, match="non-increasing"):
        ApproxSequence(np.array([1.0, 1.0 + 1e-9, 0.0]) * scale, exact, NormKind.L2)
    seq = ApproxSequence(np.array([1.0, 1.0 + 1e-13, 0.0]) * scale, exact, NormKind.L2)
    assert seq.rank == 2
    with pytest.raises(ValueError, match="non-increasing"):
        ApproxSequence(np.array([1e-20, 1e-14, 0.0]), exact, NormKind.L2)


def test_head_power_sum_matches_direct_loop():
    seq = ApproxSequence(np.array([2.0, 1.5, 0.5]),
                         (Certainty.EXACT,) * 3, NormKind.L2)
    direct = sum((0.3 + a) ** 1.7 for a in [2.0, 1.5])
    assert seq.head_power_sum(1.7, 2, offset=0.3) == pytest.approx(direct, rel=1e-14)
    assert seq.head_power_sum(1.0, 0) == 0.0


def test_alpha_read_as_floats_matches_the_numpy_arithmetic(corpus):
    import mpmath

    for entry in corpus:
        alpha = prepare(entry.model).alpha
        values = alpha.values
        assert alpha.rank == np.count_nonzero(values)

        def old_value_at(j):
            return float(values[j - 1]) if j <= len(values) else 0.0

        for j in range(1, len(values) + 3):
            got = alpha.value_at(j)
            assert type(got) is float and got == old_value_at(j)
        # the sum comes from its log, so it is held to a 50-digit sum: within
        # 4 (n + |log sum|) u of it, u = 2^-53
        for p, n in itertools.product((0.5, 1.0, 2.0), range(len(values) + 2)):
            for offset in (0.0, old_value_at(n + 1)):
                got = alpha.head_power_sum(p, n, offset)
                with mpmath.workdps(50):
                    total = mpmath.fsum((mpmath.mpf(offset) + mpmath.mpf(old_value_at(j)))
                                        ** mpmath.mpf(p) for j in range(1, n + 1))
                    if total == 0:
                        assert got == 0.0
                        continue
                    allowed = 4 * (n + abs(mpmath.log(total))) * 2.0 ** -53
                    assert abs(mpmath.mpf(got) / total - 1) <= allowed


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_sequence_certifies_a_rank_n_approximant(seed):
    """alpha_j is a certificate: some rank-(j-1) F achieves ||K - F|| <= alpha_j."""
    for m, kind in itertools.product((_random_matrix(seed, dim=5), _TIED_SUMS), KINDS):
        seq = approx_numbers(m, kind)
        for n in range(6):
            f = rank_n_approximant(m, n, kind)
            assert np.linalg.matrix_rank(f) <= n
            gap = induced_norm(m - f, kind)
            assert gap <= seq.value_at(n + 1) * (1 + 1e-9) + 1e-12


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_upper_bound_certificates_bracket_the_true_distance(seed):
    """l1/linf certificates sit between the norm-equivalence floor and
    every randomly chosen column/row-drop approximant."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(3, 7))
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    sv = singular_values(m)
    for kind in (NormKind.L1, NormKind.LINF):
        seq = approx_numbers(m, kind)
        for n in range(1, dim):
            cert = seq.value_at(n)
            # no rank-(n-1) approximant beats sigma_n / sqrt(dim)
            assert cert >= sv[n - 1] / np.sqrt(dim) - 1e-9
            for _ in range(5):
                keep = rng.choice(dim, size=n - 1, replace=False)
                f = np.zeros_like(m)
                if kind is NormKind.L1:
                    f[:, keep] = m[:, keep]
                else:
                    f[keep, :] = m[keep, :]
                assert cert <= induced_norm(m - f, kind) + 1e-12


def test_rank_n_approximant_edges():
    m = _random_matrix(1, dim=4)
    assert not rank_n_approximant(m, 0, NormKind.L2).any()
    assert np.array_equal(rank_n_approximant(m, 4, NormKind.L1), m)
    assert np.array_equal(rank_n_approximant(m, 9, NormKind.LINF), m)


def _placed_approximant(m, n, kind):
    """Reference: the approximant written entry by entry, not as a product."""
    if n == 0:
        return np.zeros_like(m)
    if n >= m.shape[0]:
        return m.copy()
    if kind is NormKind.L2 or n >= numerical_rank(m):
        u, sv, vh = np.linalg.svd(m)
        return (u[:, :n] * sv[:n]) @ vh[:n]
    sums = np.sum(np.abs(m), axis=0 if kind is NormKind.L1 else 1)
    keep = np.argsort(-sums, kind="stable")[:n]
    f = np.zeros_like(m)
    if kind is NormKind.L1:
        f[:, keep] = m[:, keep]
    else:
        f[keep, :] = m[keep, :]
    return f


def test_rank_n_factors_multiply_out_to_the_approximant(materialized):
    for entry, l0, k in materialized[:6]:
        dim = entry.model.dim
        for m in (k, l0 + k):
            for kind in KINDS:
                for n in range(dim + 1):
                    left, right = rank_n_factors(m, n, kind)
                    assert left.shape == right.shape == (dim, n)
                    product = left @ right.T
                    f = rank_n_approximant(m, n, kind)
                    assert product.tobytes() == f.tobytes()
                    # equal values; a product may carry -0.0 where zeros were written
                    assert np.array_equal(f, _placed_approximant(m, n, kind))


@pytest.mark.parametrize("seed", (0, 3))
def test_rank_n_factors_pass_the_pair_check_up_to_rank_k(seed):
    # each corpus model in its norm, at every N in [0, rank K]; keeping the N
    # heaviest columns (rows) at N >= rank K left ||K - F|| above alpha_{N+1} = 0
    # in 24 of these 108 pairs
    pairs = 0
    for entry in regression_corpus(seed):
        prep = entry.prepared
        lam = prep.norm_l0 + prep.norm_k + 1.0
        for n in range(prep.alpha.rank + 1):
            f = rank_n_factors(prep.k, n, entry.model.norm)
            assert det_bound_rhs(prep, f, lam, 1.0, n) >= 0.0
            pairs += 1
    assert pairs == 108


def test_koenig_constant_values():
    # 2 * (2e)^(p/2) by definition
    assert koenig_constant(2.0) == pytest.approx(4.0 * np.e, rel=1e-14)
    assert koenig_constant(1.0) == pytest.approx(2.0 * np.sqrt(2.0 * np.e), rel=1e-14)
    with pytest.raises(ValueError):
        koenig_constant(0.0)


def test_koenig_check_past_the_largest_float_raises():
    # lhs = (1e200)^2 overflowed: a RuntimeWarning and (inf, inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AdmissibilityError,
                           match=r"Koenig p-sums at p = 2.0 overflow a float"):
            koenig_check(np.diag([1e200, 0.5]), 2.0)
        # near the top of the floats both sides stay finite
        lhs, rhs = koenig_check(np.diag([1e150, 0.5]), 2.0)
    assert lhs == np.float64(1e150) ** 2.0 and lhs <= rhs < math.inf


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_koenig_inequality_random(seed, p):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    m = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / np.sqrt(dim)
    lhs, rhs = koenig_check(m, p)
    assert lhs <= rhs + 1e-9 * max(1.0, rhs)
