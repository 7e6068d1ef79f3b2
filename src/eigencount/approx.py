"""Approximation numbers in the three norms, plus the eigenvalue-sum check.

The n-th approximation number of an operator is its distance to the
operators of rank below n. On l2 these are the singular values and exact.
On l1 and linf the exact values are combinatorial, so certified upper
bounds are produced instead: zeroing all but the j-1 heaviest columns
(rows) leaves a rank-(j-1) approximant whose error norm is the j-th
largest absolute column (row) sum. Entries beyond the numerical rank are
zero in every mode, because the matrix itself is then an admissible
approximant.

All downstream count bounds are monotone in each alpha_j, so feeding them
upper bounds keeps them valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .numerics import (NormKind, as_matrix, eigenvalues, singular_value_rank,
                       singular_values)

__all__ = [
    "Certainty",
    "ApproxSequence",
    "approx_numbers",
    "rank_n_factors",
    "rank_n_approximant",
    "koenig_check",
    "KOENIG_FACTOR",
]


def _power_or_inf(base: float, p: float) -> float:
    # the float power base^p, or inf where it overflows
    try:
        return base ** p
    except OverflowError:
        return math.inf


class Certainty(Enum):
    EXACT = "exact"
    UPPER_BOUND = "upper_bound"


@dataclass(frozen=True)
class ApproxSequence:
    """Non-increasing alpha_1 >= alpha_2 >= ... with per-entry certainty.

    values has one entry per dimension; alpha_j for j beyond the length is
    zero (the whole space has finite rank).
    """

    values: np.ndarray
    certainty: tuple[Certainty, ...]
    norm: NormKind

    def __post_init__(self):
        if len(self.values) != len(self.certainty):
            raise ValueError("values and certainty must align")
        # the slack scales with alpha_1, so the check is the same at every scale
        slack = 1e-12 * float(self.values[0]) if len(self.values) else 0.0
        if np.any(self.values < 0.0) or np.any(np.diff(self.values) > slack):
            raise ValueError("approximation numbers must be non-negative and non-increasing")

    @cached_property
    def _floats(self) -> list[float]:
        # values as Python floats, which the rank sweeps read faster than numpy scalars
        return np.asarray(self.values, dtype=float).tolist()

    def value_at(self, j: int) -> float:
        """alpha_j, 1-based; zero beyond the stored length."""
        if j < 1:
            raise ValueError("approximation numbers are indexed from 1")
        floats = self._floats
        return floats[j - 1] if j <= len(floats) else 0.0

    @property
    def rank(self) -> int:
        """Number of nonzero entries; alpha_j = 0 for every j > rank."""
        return len(self._floats) - self._floats.count(0.0)

    @cached_property
    def all_exact(self) -> bool:
        return all(c is Certainty.EXACT for c in self.certainty)

    def head_power_sum(self, p: float, n: int, offset: float = 0.0) -> float:
        """sum_{j<=n} (offset + alpha_j)^p, alpha_j = 0 past the end; inf on overflow."""
        floats = self._floats
        total = 0.0
        for j in range(n):
            total += _power_or_inf(offset + (floats[j] if j < len(floats) else 0.0), p)
        return total


def _ranked_sums(m: np.ndarray, kind: NormKind) -> tuple[np.ndarray, np.ndarray]:
    # abs column (l1) or row (linf) sums and their ranking; the certificate needs one rule
    sums = np.sum(np.abs(m), axis=0 if kind is NormKind.L1 else 1)
    return sums, np.argsort(-sums, kind="stable")


def approx_numbers(m, kind: NormKind, sv: np.ndarray | None = None) -> ApproxSequence:
    """Approximation-number sequence of m in the given norm.

    l2: singular values, exact. l1/linf: sorted absolute column/row sums
    (ties broken towards the lower index), an upper-bound certificate;
    the first entry equals the induced norm and is exact. In every norm
    the entries beyond the numerical rank (numerical_rank's rule, applied
    to the singular values of m) are exactly zero. sv, the singular
    values of m if already computed, spares the one SVD taken here; it is
    not modified. sv may also be the stand-ins of a sketch that captured m
    (LowRankSketch.singular_values, as Prepared passes them), which give the
    same rank and, on l2, values within the sketch's eta of the SVD's.
    """
    m = as_matrix(m)
    if sv is None:
        sv = singular_values(m)
    rank = singular_value_rank(sv)
    if kind is NormKind.L2:
        values = sv.copy()
        certainty = (Certainty.EXACT,) * len(sv)
    else:
        sums, order = _ranked_sums(m, kind)
        values = sums[order].astype(float)
        certainty = tuple(
            Certainty.EXACT if (j == 0 or j >= rank) else Certainty.UPPER_BOUND
            for j in range(len(values))
        )
    values[rank:] = 0.0
    return ApproxSequence(values, certainty, kind)


def rank_n_factors(m, n: int, kind: NormKind) -> tuple[np.ndarray, np.ndarray]:
    """Factor pair (left, right) of the rank-n approximant, F = left @ right.T.

    Both factors are dim x r with r = min(n, dim); at n >= dim they are m and
    the identity. l2, and every norm from n = numerical_rank(m) on, where
    alpha_{n+1} = 0: the truncated SVD, left = U_n diag(sigma_1..sigma_n) and
    right = (V_n^*)^T. l1/linf below the rank: keep the n heaviest columns
    (rows), so the error norm is the (n+1)-th certificate value exactly; they
    pair with the matching columns of the identity.
    """
    m = as_matrix(m)
    if n < 0:
        raise ValueError("rank must be non-negative")
    dim = m.shape[0]
    if n == 0:
        return np.zeros((dim, 0), dtype=complex), np.zeros((dim, 0), dtype=complex)
    if n >= dim:
        return m.copy(), np.eye(dim, dtype=complex)
    u, sv, vh = np.linalg.svd(m)
    if kind is NormKind.L2 or n >= singular_value_rank(sv):
        return u[:, :n] * sv[:n], vh[:n].T
    keep = _ranked_sums(m, kind)[1][:n]
    unit = np.eye(dim, dtype=complex)[:, keep]
    if kind is NormKind.L1:
        return m[:, keep], unit
    return unit, m[keep, :].T


def rank_n_approximant(m, n: int, kind: NormKind) -> np.ndarray:
    """Best-available approximant of rank at most n: the product of rank_n_factors."""
    left, right = rank_n_factors(m, n, kind)
    return left @ right.T


KOENIG_FACTOR = 2.0  # times (2e)^{p/2}; see koenig_check


def koenig_constant(p: float) -> float:
    """2 (2e)^{p/2}: the constant tying eigenvalue p-sums to alpha p-sums."""
    if not (0.0 < p < math.inf):
        raise ValueError(f"exponent must be positive and finite, got {p}")
    return KOENIG_FACTOR * (2.0 * math.e) ** (p / 2.0)


def koenig_check(k_matrix, p: float) -> tuple[float, float]:
    """(lhs, rhs) of the eigenvalue/approximation-number power inequality.

    lhs = sum over non-zero eigenvalues of |lambda|^p, rhs =
    2 (2e)^{p/2} sum_j sigma_j^p. The inequality lhs <= rhs holds for
    every p > 0. An eigenvalue counts as non-zero when its cluster lies
    farther than the spectrum's clustering radius from 0.
    """
    if not (0.0 < p < math.inf):
        raise ValueError(f"p must be positive and finite, got {p}")
    m = as_matrix(k_matrix)
    spec = eigenvalues(m)
    lhs = 0.0
    for lam, mult in zip(spec.values, spec.multiplicities):
        if abs(lam) > spec.radius:
            lhs += int(mult) * abs(lam) ** p
    sv = singular_values(m)
    rhs = koenig_constant(p) * float(np.sum(sv ** p))
    return lhs, rhs
