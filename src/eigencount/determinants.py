"""Regularized determinants, the perturbation determinant, and its growth bound.

The n-regularized determinant of 1 - F multiplies, over the eigenvalues
lambda_k of F, the factors (1 - lambda_k) exp(sum_{j=1}^{n-1} lambda_k^j / j).
Each scalar factor obeys |factor| <= exp(Gamma_p |lambda_k|^p) for a
constant Gamma_p depending only on p (with n = ceil(p)); gamma_p_upper
computes a certified such constant. Combining it with the eigenvalue/
approximation-number inequality bounds the determinant of a finite-rank
perturbation evaluated through a resolvent, which is what det_bound_rhs
returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .approx import ApproxSequence, koenig_constant
from .config import DEFAULT
from .errors import AdmissibilityError
from .numerics import NormKind, Spectrum, as_matrix, eigenvalues, induced_norm, resolvent

__all__ = [
    "GammaProvenance",
    "GammaP",
    "DetSample",
    "det_regularized",
    "det_regularized_log",
    "gamma_p_upper",
    "scalar_factor_log",
    "perturbation_determinant",
    "det_bound_rhs",
]


class GammaProvenance(Enum):
    ENVELOPE_CERTIFIED = "envelope_certified"


@dataclass(frozen=True)
class GammaP:
    """A constant valid in |(1-lam) exp(sum_{j<ceil(p)} lam^j/j)| <= exp(value * |lam|^p)."""

    p: float
    value: float
    provenance: GammaProvenance
    r_star: float = float("nan")  # radius where the envelope ratio peaks

    def __post_init__(self):
        if self.p <= 0:
            raise AdmissibilityError(f"p must be positive, got {self.p}")
        if not (self.value >= 1e-3):
            raise AdmissibilityError(
                f"gamma constant {self.value} is implausibly small (< 1e-3)")

    @property
    def c_p(self) -> float:
        """2 (2e)^{p/2} * Gamma_p, the constant in all determinant bounds."""
        return koenig_constant(self.p) * self.value


# --- regularized determinant ---------------------------------------------


def _factor_log(lam: complex, n: int) -> complex:
    # principal-branch log(1 - lam) + sum_{j<n} lam^j / j
    term = np.log(1.0 - lam)
    power = lam
    for j in range(1, n):
        term += power / j
        power *= lam
    return term


def det_regularized_log(eigs: Spectrum, n: int):
    """(value, log|value|) of the n-regularized determinant of 1 - F.

    Accumulates principal-branch logs of the factors so tiny and huge
    determinants keep a usable magnitude; log|value| is -inf exactly when
    some eigenvalue is 1 within tolerance.
    """
    if n < 1:
        raise ValueError("regularization order must be at least 1")
    log_total = 0.0 + 0.0j
    for lam, mult in zip(eigs.values, eigs.multiplicities):
        lam = complex(lam)
        if abs(1.0 - lam) <= DEFAULT.det_one_tol * max(1.0, abs(lam)):
            return 0.0 + 0.0j, float("-inf")
        log_total += int(mult) * _factor_log(lam, n)
    value = complex(np.exp(log_total))
    return value, float(log_total.real)


def det_regularized(eigs: Spectrum, n: int) -> complex:
    """Product over eigenvalues of (1 - lam) exp(sum_{j=1}^{n-1} lam^j / j)."""
    value, _ = det_regularized_log(eigs, n)
    return value


def scalar_factor_log(lam: complex, n: int) -> float:
    """log of one regularized factor, |(1-lam) exp(sum_{j<n} lam^j/j)|."""
    lam = complex(lam)
    if lam == 1.0:
        return float("-inf")
    return float(_factor_log(lam, n).real)


# --- certified scalar envelope -------------------------------------------


def _circle_log_max(n: int, r: float) -> float:
    # Largest log|(1-lam) exp(sum_{j<n} lam^j/j)| over |lam| = r. The
    # derivative in the angle vanishes exactly where
    # sin(n t) = r sin((n-1) t), so candidates are a dense grid plus
    # bisected sign changes of that equation.
    if r == 0.0:
        return 0.0
    if n == 1:
        return math.log1p(r)

    def g_many(theta: np.ndarray) -> np.ndarray:
        lam = r * np.exp(1j * theta)
        val = np.log(np.abs(1.0 - lam))
        for j in range(1, n):
            val += (r ** j / j) * np.cos(j * theta)
        return val

    def psi(theta: float) -> float:
        return math.sin(n * theta) - r * math.sin((n - 1) * theta)

    grid = np.linspace(0.0, math.pi, 128 * n + 1)
    best = float(np.max(g_many(grid)))
    vals = np.sin(n * grid) - r * np.sin((n - 1) * grid)
    flips = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
    roots = []
    for i in flips:
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo = float(vals[i])
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            fmid = psi(mid)
            if flo * fmid <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        roots.append(0.5 * (lo + hi))
    if roots:
        best = max(best, float(np.max(g_many(np.asarray(roots)))))
    return best


def _tail_envelope(n: int, r: float) -> float:
    # For r < 1 the factor log is the tail -sum_{j>=n} lam^j/j of the
    # log(1-lam) series, bounded by r^n / (n (1-r)).
    if r >= 1.0:
        return math.inf
    return r ** n / (n * (1.0 - r))


def _envelope(n: int, r: float) -> float:
    return min(_circle_log_max(n, r), _tail_envelope(n, r))


@lru_cache(maxsize=64)
def gamma_p_upper(p: float) -> GammaP:
    """Certified constant for the scalar factor inequality at exponent p.

    Maximizes envelope(r) / r^p over a log grid with golden-section
    refinement. The r -> 0 and r -> infinity limits of the ratio vanish
    for every p except p = 1, where the limit 1 at r -> 0 is the supremum
    and is included analytically (so gamma_p_upper(1).value == 1.0).
    The numerically found supremum is inflated by 1e-12 relative so float
    noise can never put the returned constant below a ratio value.
    """
    if p <= 0:
        raise AdmissibilityError(f"p must be positive, got {p}")
    n = math.ceil(p)

    def ratio(r: float) -> float:
        return _envelope(n, r) / r ** p

    grid = np.logspace(-8.0, 6.0, 1500)
    ratios = [ratio(float(r)) for r in grid]
    k = int(np.argmax(ratios))
    best_r, best = float(grid[k]), ratios[k]

    # golden-section refinement in log r around the best grid point
    lo = math.log(grid[max(0, k - 1)])
    hi = math.log(grid[min(len(grid) - 1, k + 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = ratio(math.exp(c)), ratio(math.exp(d))
    for _ in range(80):
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = ratio(math.exp(d))
        else:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = ratio(math.exp(c))
    for r in (math.exp(c), math.exp(d)):
        if ratio(r) > best:
            best, best_r = ratio(r), r

    best *= 1.0 + 1e-12
    if p == 1.0 and best <= 1.0:
        best, best_r = 1.0, 0.0
    return GammaP(p=p, value=float(best), provenance=GammaProvenance.ENVELOPE_CERTIFIED,
                  r_star=float(best_r))


# --- perturbation determinant and its bound ------------------------------


@dataclass(frozen=True)
class DetSample:
    """One evaluation of the perturbation determinant."""

    lam: complex
    value: complex
    log_abs: float


def perturbation_determinant(l, f, lam: complex, p: float) -> DetSample:
    """ceil(p)-regularized determinant of 1 - F (lam - (L - F))^{-1}.

    L is the full operator and F a finite-rank stand-in for the
    perturbation; lam must stay away from the spectrum of L - F (a
    SingularResolventError otherwise tells the caller to move the point
    or shrink the region).
    """
    if p <= 0:
        raise AdmissibilityError(f"p must be positive, got {p}")
    l = as_matrix(l)
    f = as_matrix(f)
    if l.shape != f.shape:
        raise AdmissibilityError("operator and approximant dimensions differ")
    r = resolvent(l - f, lam)
    spec = eigenvalues(f @ r)
    value, log_abs = det_regularized_log(spec, math.ceil(p))
    return DetSample(lam=complex(lam), value=value, log_abs=log_abs)


def det_bound_rhs(l0, k, f, lam: complex, p: float, eta: float, n_rank: int,
                  kind: NormKind, alpha: ApproxSequence) -> float:
    """Certified exponent bounding log|perturbation determinant| at lam.

    Returns C_p ||(lam - L0)^{-1}||^p sum_{j<=N} (alpha_{N+1} + eta + alpha_j)^p
    / (1 - (alpha_{N+1} + eta) ||(lam - L0)^{-1}||)^p, valid whenever
    ||K - F|| <= alpha_{N+1} + eta and the denominator base is positive;
    both conditions are checked.
    """
    if p <= 0:
        raise AdmissibilityError(f"p must be positive, got {p}")
    if eta < 0:
        raise AdmissibilityError(f"eta must be non-negative, got {eta}")
    if n_rank < 0:
        raise AdmissibilityError(f"N must be non-negative, got {n_rank}")
    l0 = as_matrix(l0)
    k = as_matrix(k)
    f = as_matrix(f)

    beta = alpha.value_at(n_rank + 1) + eta
    gap = induced_norm(k - f, kind)
    scale = max(1.0, induced_norm(k, kind))
    if gap > beta + DEFAULT.pair_gap_rtol * scale:
        raise AdmissibilityError(
            f"||K - F|| = {gap:.6e} exceeds alpha_{n_rank + 1} + eta = {beta:.6e}; "
            "the approximant is not admissible for this N and eta")

    res_norm = induced_norm(resolvent(l0, lam), kind)
    if beta * res_norm >= 1.0:
        raise AdmissibilityError(
            f"(alpha_{n_rank + 1} + eta) * ||(lam - L0)^{{-1}}|| = "
            f"{beta * res_norm:.6e} must be below 1 at lam = {lam}")

    total = alpha.head_power_sum(p, n_rank, offset=beta)
    return gamma_p_upper(p).c_p * res_norm ** p * total / (1.0 - beta * res_norm) ** p
