"""Approximation numbers in the three norms, plus the eigenvalue-sum check.

The n-th approximation number of an operator is its distance to the
operators of rank below n. On l2 these are the singular values and exact.
On l1 and linf the exact values are combinatorial, so certified upper
bounds are produced instead: zeroing all but the j-1 heaviest columns
(rows) leaves a rank-(j-1) approximant whose error norm is the j-th
largest absolute column (row) sum. Entries beyond the numerical rank read
zero and exact in every mode, though the true value there can reach
rank_rtol * alpha_1: on diag(1, 1e-11, 0, 0), alpha_2 reads 0, not 1e-11.

All downstream count bounds are monotone in each alpha_j, so feeding them
upper bounds keeps them valid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import _exports
from .errors import AdmissibilityError
from .numerics import (NormKind, as_matrix, eigenvalues, singular_value_rank,
                       singular_values)

__all__ = _exports(__name__)


_LOG_MAX = math.log(sys.float_info.max)
# c = 8 unit roundoffs (see _from_logs): no bound of the seed-0 and seed-3
# corpora then reads below its linear-scale form
_MARGIN = 8.0 * 2.0 ** -53


def _log_ratio(num: float, den: float) -> float:
    # log(num / den) for num >= 0 and den > 0, -inf at num = 0; from frexp's
    # fractions and exponents where the quotient is no normal float, so it cannot
    # overflow or underflow and does not change when both scale by a power of two
    if num == 0.0:
        return -math.inf
    ratio = num / den
    if sys.float_info.min <= ratio < math.inf:
        return math.log(ratio)
    (fn, en), (fd, ed) = math.frexp(num), math.frexp(den)
    return math.log(fn / fd) + (en - ed) * math.log(2.0)


def _log_power_sum(values: list[float], p: float, n: int,
                   offset: float = 0.0) -> tuple[float, float]:
    # (top, log R), top = offset + v_1 and R = sum_{j<=n} ((offset + v_j) / top)^p
    # with v_j = 0 past the end: a log-sum-exp shifted by its largest term (Blanchard,
    # Higham & Higham, IMA J. Numer. Anal. 41, 2021), known as the values do not
    # increase, so R lies in [1, n] and no power overflows. An empty sum is (0.0, -inf)
    top = offset + (values[0] if values else 0.0)
    if n == 0 or top == 0.0:
        return 0.0, -math.inf
    rest = 0.0
    for j in range(1, n):
        rest += ((offset + (values[j] if j < len(values) else 0.0)) / top) ** p
    return top, math.log1p(rest)


def _from_logs(name: str, terms: tuple[float, ...], count: int | None = None,
               **at: float) -> float:
    # exp(sum(terms)), the one place a reported number can leave the floats. An
    # empty sum (a term -inf) is 0.0. A bound passes count, the number of powers
    # it sums, and its log moves outward by _MARGIN (count + 4 + sum |term|) to
    # cover the log route's own rounding. Past the largest float it raises
    log_value = sum(terms)
    if log_value == -math.inf:
        return 0.0
    if count is not None:
        log_value += _MARGIN * (count + 4 + sum(map(abs, terms)))
    if not log_value <= _LOG_MAX:
        where = ", ".join(f"{key} = {value!r}" for key, value in at.items())
        raise AdmissibilityError(
            f"{name} = e^{log_value:.6f} at {where} passes the largest float")
    return math.exp(log_value)


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
        """sum_{j<=n} (offset + alpha_j)^p, alpha_j = 0 past the end, from its
        log; AdmissibilityError past the largest float."""
        top, log_r = _log_power_sum(self._floats, p, n, offset)
        return _from_logs("alpha_sum", (p * _log_ratio(top, 1.0), log_r), p=p, n=n)


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


def koenig_constant(p: float) -> float:
    """2 (2e)^{p/2}: the constant tying eigenvalue p-sums to alpha p-sums.

    AdmissibilityError past the largest float, from p of about 838 on.
    """
    if not (0.0 < p < math.inf):
        raise ValueError(f"exponent must be positive and finite, got {p}")
    try:
        value = 2.0 * (2.0 * math.e) ** (p / 2.0)
    except OverflowError:  # the float power raises where a product gives inf
        value = math.inf
    if value == math.inf:
        raise AdmissibilityError(f"the Koenig constant 2 (2e)^(p/2) at p = {p!r} "
                                 f"overflows a float")
    return value


def koenig_check(k_matrix, p: float) -> tuple[float, float]:
    """(lhs, rhs) of the eigenvalue/approximation-number power inequality.

    lhs = sum over non-zero eigenvalues of |lambda|^p, rhs = 2 (2e)^{p/2}
    sum_j sigma_j^p; lhs <= rhs holds for every p > 0. An eigenvalue counts
    as non-zero when its cluster lies farther than the spectrum's clustering
    radius from 0. AdmissibilityError when a side overflows a float.
    """
    if not (0.0 < p < math.inf):
        raise ValueError(f"p must be positive and finite, got {p}")
    m = as_matrix(k_matrix)
    spec = eigenvalues(m)
    lhs = 0.0
    with np.errstate(over="ignore"):  # an overflow leaves inf, refused below
        for lam, mult in zip(spec.values, spec.multiplicities):
            if abs(lam) > spec.radius:
                lhs += int(mult) * abs(lam) ** p
        rhs = koenig_constant(p) * float(np.sum(singular_values(m) ** p))
    if math.inf in (lhs, rhs):
        raise AdmissibilityError(f"Koenig p-sums at p = {p!r} overflow a float")
    return lhs, rhs
