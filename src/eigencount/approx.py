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

import numpy as np

from .config import DEFAULT
from .numerics import (NormKind, as_matrix, eigenvalues, singular_value_rank,
                       singular_values)

__all__ = [
    "Certainty",
    "ApproxSequence",
    "approx_numbers",
    "rank_n_approximant",
    "koenig_check",
    "KOENIG_FACTOR",
]


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
        slack = 1e-12 * max(1.0, float(self.values[0])) if len(self.values) else 0.0
        if np.any(self.values < 0.0) or np.any(np.diff(self.values) > slack):
            raise ValueError("approximation numbers must be non-negative and non-increasing")

    def value_at(self, j: int) -> float:
        """alpha_j, 1-based; zero beyond the stored length."""
        if j < 1:
            raise ValueError("approximation numbers are indexed from 1")
        if j > len(self.values):
            return 0.0
        return float(self.values[j - 1])

    @property
    def rank(self) -> int:
        """Number of nonzero entries; alpha_j = 0 for every j > rank."""
        return int(np.count_nonzero(self.values))

    @property
    def all_exact(self) -> bool:
        return all(c is Certainty.EXACT for c in self.certainty)

    def head_power_sum(self, p: float, n: int, offset: float = 0.0) -> float:
        """sum_{j<=n} (offset + alpha_j)^p, reading alpha_j = 0 past the end."""
        total = 0.0
        for j in range(1, n + 1):
            total += (offset + self.value_at(j)) ** p
        return total


def approx_numbers(m, kind: NormKind) -> ApproxSequence:
    """Approximation-number sequence of m in the given norm.

    l2: singular values, exact. l1/linf: sorted absolute column/row sums
    (ties broken towards the lower index), an upper-bound certificate;
    the first entry equals the induced norm and is exact. In every norm
    the entries beyond the numerical rank (numerical_rank's rule, applied
    to the one SVD taken here) are exactly zero.
    """
    m = as_matrix(m)
    sv = singular_values(m)
    rank = singular_value_rank(sv)
    if kind is NormKind.L2:
        values = sv
        certainty = (Certainty.EXACT,) * len(sv)
    else:
        axis = 0 if kind is NormKind.L1 else 1
        sums = np.sum(np.abs(m), axis=axis)
        order = np.argsort(-sums, kind="stable")
        values = sums[order].astype(float)
        certainty = tuple(
            Certainty.EXACT if (j == 0 or j >= rank) else Certainty.UPPER_BOUND
            for j in range(len(values))
        )
    values[rank:] = 0.0
    return ApproxSequence(values, certainty, kind)


def rank_n_approximant(m, n: int, kind: NormKind) -> np.ndarray:
    """Best-available approximant of rank at most n.

    l2: truncated singular value decomposition (attains alpha_{n+1}).
    l1/linf: keep the n heaviest columns/rows, zero the rest; the error
    norm then equals the (n+1)-th certificate value exactly.
    """
    m = as_matrix(m)
    if n < 0:
        raise ValueError("rank must be non-negative")
    if n == 0:
        return np.zeros_like(m)
    if n >= m.shape[0]:
        return m.copy()
    if kind is NormKind.L2:
        u, sv, vh = np.linalg.svd(m)
        return (u[:, :n] * sv[:n]) @ vh[:n]
    axis = 0 if kind is NormKind.L1 else 1
    sums = np.sum(np.abs(m), axis=axis)
    keep = np.argsort(-sums, kind="stable")[:n]
    f = np.zeros_like(m)
    if kind is NormKind.L1:
        f[:, keep] = m[:, keep]
    else:
        f[keep, :] = m[keep, :]
    return f


KOENIG_FACTOR = 2.0  # times (2e)^{p/2}; see koenig_check


def koenig_constant(p: float) -> float:
    """2 (2e)^{p/2}: the constant tying eigenvalue p-sums to alpha p-sums."""
    if p <= 0:
        raise ValueError(f"exponent must be positive, got {p}")
    return KOENIG_FACTOR * (2.0 * math.e) ** (p / 2.0)


def koenig_check(k_matrix, p: float) -> tuple[float, float]:
    """(lhs, rhs) of the eigenvalue/approximation-number power inequality.

    lhs = sum over non-zero eigenvalues of |lambda|^p, rhs =
    2 (2e)^{p/2} sum_j sigma_j^p. The inequality lhs <= rhs holds for
    every p > 0.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    m = as_matrix(k_matrix)
    spec = eigenvalues(m)
    cutoff = DEFAULT.cluster_rtol * float(np.linalg.norm(m))
    lhs = 0.0
    for lam, mult in zip(spec.values, spec.multiplicities):
        if abs(lam) > cutoff:
            lhs += int(mult) * abs(lam) ** p
    sv = singular_values(m)
    rhs = koenig_constant(p) * float(np.sum(sv ** p))
    return lhs, rhs
