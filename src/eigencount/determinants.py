"""Regularized determinants, the perturbation determinant, and its growth bound.

The n-regularized determinant of 1 - F multiplies, over the eigenvalues
lambda_k of F, the factors (1 - lambda_k) exp(sum_{j=1}^{n-1} lambda_k^j / j).
Each scalar factor obeys |factor| <= exp(Gamma_p |lambda_k|^p) for a
constant Gamma_p depending only on p (with n = ceil(p)); gamma_p_upper
computes a certified such constant. Combining it with the eigenvalue/
approximation-number inequality bounds the determinant of a finite-rank
perturbation evaluated through a resolvent, which is what det_bound_rhs
returns.

For p <= 1 the circle maximum is log(1 + r). In x = log r, L(x) =
log log(1 + e^x) - p x is concave with L' = g - p, where g(x) = e^x /
((1 + e^x) log(1 + e^x)) falls strictly from 1 to 0 (above 1 - 2^-53 at
x = -40); gamma_p_upper bisects g = p to rounding and rounds up L's tangent.

For p > 1 gamma_p_upper maximizes the factor log over each circle |lam| = r.
Its angle derivative is r^n sin(theta) (U_{n-1}(c) - r U_{n-2}(c)) / |1 - lam|^2,
c = cos theta, U the Chebyshev polynomials of the second kind. By
c U_k = (U_{k+1} + U_{k-1}) / 2 its zeros c are the eigenvalues of the
(n-1) x (n-1) Jacobi matrix with 1/2 off the diagonal and diagonal
(0, ..., 0, r/2), besides theta = 0 and pi; the maximum is taken over
these n + 1 angles alone. log|1 - lam| is read as log1p(r (r - 2 cos theta)) / 2,
so near r = 0, where |1 - lam| = 1 at the critical angle, it keeps its
relative accuracy instead of an error of one ulp of 1. Gamma_2 comes out as
0.5000000000005, the exact 1/2 (the circle maximum is r^2 / 2 for 0 < r < 2)
times the 1e-12 inflation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _exports
from .approx import koenig_constant
from .config import DEFAULT
from .errors import AdmissibilityError, EigenvalueError, MatrixError
from .numerics import Spectrum, as_matrix, induced_norm, resolvent_norms, shifted_solve

__all__ = _exports(__name__)


@dataclass(frozen=True)
class GammaP:
    """A constant valid in |(1-lam) exp(sum_{j<ceil(p)} lam^j/j)| <= exp(value * |lam|^p)."""

    p: float
    value: float
    r_star: float = float("nan")  # radius where the envelope ratio peaks

    def __post_init__(self):
        if not (0.0 < self.p < math.inf):
            raise AdmissibilityError(f"p must be positive and finite, got {self.p}")
        if not (self.value >= 1e-3):
            raise AdmissibilityError(
                f"gamma constant {self.value} is implausibly small (< 1e-3)")

    @property
    def c_p(self) -> float:
        """2 (2e)^{p/2} * Gamma_p, the constant in all determinant bounds."""
        return koenig_constant(self.p) * self.value


# --- regularized determinant ---------------------------------------------


def _factor_log(lam, n: int):
    # principal-branch log(1 - lam) + sum_{j<n} lam^j / j, elementwise on arrays
    term = np.log(1.0 - lam)
    power = lam
    for j in range(1, n):
        term = term + power / j
        power = power * lam
    return term


def _regularized_log_rows(eigs: np.ndarray, n: int, weights=1):
    # (value, log|value|) of the n-regularized determinant of 1 - F for each
    # row of eigenvalues of F, each counted weights times; a row with an
    # eigenvalue at 1 within tolerance gives exactly (0, -inf)
    hit = np.any(np.abs(1.0 - eigs) <= DEFAULT.det_one_tol * np.maximum(1.0, np.abs(eigs)),
                 axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_total = np.sum(weights * _factor_log(eigs, n), axis=-1)
        value = np.exp(log_total)
    return np.where(hit, 0.0, value), np.where(hit, -np.inf, log_total.real)


def det_regularized_log(eigs: Spectrum, n: int):
    """(value, log|value|) of the n-regularized determinant of 1 - F.

    Accumulates principal-branch logs of the factors so tiny and huge
    determinants keep a usable magnitude; log|value| is -inf exactly when
    some eigenvalue is 1 within tolerance.
    """
    if n < 1:
        raise ValueError("regularization order must be at least 1")
    value, log_abs = _regularized_log_rows(
        np.asarray(eigs.values, dtype=complex), n, eigs.multiplicities)
    return complex(value), float(log_abs)


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


_RADII_PER_BLOCK = 256  # radii evaluated together; bounds the 256 x (n-1)^2 Jacobi stacks


def _factor_log_abs(r, theta, coefs) -> np.ndarray:
    # log|(1-lam) exp(sum_{j<n} lam^j/j)| at lam = r e^{i theta}, with
    # coefs[j-1] = r^j / j; r, theta and the coefs broadcast together.
    # |1 - lam|^2 = 1 + r (r - 2 cos theta), so log1p keeps small r exact
    val = 0.5 * np.log1p(r * (r - 2.0 * np.cos(theta)))
    for j, coef in enumerate(coefs, start=1):
        val += coef * np.cos(j * theta)
    return val


def _circle_log_max(n: int, radii: np.ndarray) -> np.ndarray:
    # Largest log|(1-lam) exp(sum_{j<n} lam^j/j)| over |lam| = r for every
    # r >= 0 in radii and n >= 2, over theta = 0, pi and the critical angles
    # of the module docstring (a cosine outside [-1, 1] clips to 0 or pi).
    # r^j / j stays a Python scalar operation, as numpy's rounds differently.
    out = np.empty(len(radii))
    k = np.arange(n - 2)
    for start in range(0, len(radii), _RADII_PER_BLOCK):
        r = radii[start:start + _RADII_PER_BLOCK]
        jacobi = np.zeros((len(r), n - 1, n - 1))
        jacobi[:, k + 1, k] = jacobi[:, k, k + 1] = 0.5  # eigvalsh reads the lower triangle
        jacobi[:, -1, -1] = 0.5 * r
        theta = np.zeros((len(r), n + 1))
        theta[:, 1:-1] = np.arccos(np.clip(np.linalg.eigvalsh(jacobi), -1.0, 1.0))
        theta[:, -1] = math.pi
        coefs = [np.array([x ** j / j for x in r.tolist()])[:, None] for j in range(1, n)]
        out[start:start + len(r)] = np.max(_factor_log_abs(r[:, None], theta, coefs), axis=1)
    return out


@lru_cache(maxsize=None)  # one entry per order
def _grid_envelope(n: int) -> tuple[np.ndarray, np.ndarray]:
    # gamma_p_upper's radius grid and _circle_log_max on it; exponents
    # of one order n = ceil(p) share both
    grid = np.logspace(-8.0, 6.0, 1500)
    return grid, _circle_log_max(n, grid)


def _tail_envelope(n: int, r: float) -> float:
    # for r < 1 the factor log is the tail -sum_{j>=n} lam^j/j of log(1-lam)
    return r ** n / (n * (1.0 - r)) if r < 1.0 else math.inf


def _order_one_gamma(p: float) -> GammaP:
    # Gamma_p for 0 < p <= 1, from the closed form of the module docstring
    def slope(x):  # log(1 + e^x), g(x) and g's rounding bound (exp, log1p: one ulp)
        softplus = x + math.log1p(math.exp(-x)) if x > 0.0 else math.log1p(math.exp(x))
        g = 1.0 / ((1.0 + math.exp(-x)) * softplus)
        return softplus, g, g * 2.0 ** -49

    if p == 1.0:
        return GammaP(p, 1.0, r_star=0.0)
    lo, hi = -40.0, 709.78  # e^709.78 stays below the largest float
    _, g, eps = slope(hi)
    if g + eps >= p:
        raise AdmissibilityError(f"p must be at least about 0.0014089, below which the "
                                 f"peak radius of log(1 + r) / r^p overflows a float; got {p}")
    while True:
        y = 0.5 * (lo + hi)
        softplus, g, eps = slope(y)
        if abs(g - p) <= eps or y in (lo, hi):
            break
        lo, hi = (y, hi) if g > p else (lo, y)
    # L(root) <= L(y) + tangent; 2^-50 covers each term's rounding, then exp's
    a, b = math.log(softplus), p * y
    tangent = (abs(g - p) + eps) * max(y - lo, hi - y)
    log_gamma = a - b + tangent + 2.0 ** -50 * (1.0 + abs(a) + abs(b) + tangent)
    return GammaP(p, math.exp(log_gamma) * (1.0 + 2.0 ** -50), r_star=math.exp(y))


@lru_cache(maxsize=64)
def gamma_p_upper(p: float) -> GammaP:
    """Certified constant for the scalar factor inequality at exponent p.

    p <= 1 takes a closed form (module docstring), within 1e-13 relative;
    p = 1 gives 1.0, the r -> 0 limit, and a p below about 0.0014089, whose
    peak radius overflows a float, is rejected. p > 1 maximizes
    envelope(r) / r^p over a log grid with golden-section refinement,
    inflated by 1e-12 relative to stay above float noise.
    """
    # every grid ratio divides by r ** p, down to the grid's smallest radius 1e-8
    if not (0.0 < p < math.inf and 1e-8 ** p > 0.0):
        raise AdmissibilityError(
            f"p must be positive and below about 40.5, where 1e-8 ** p underflows; got {p}")
    if p <= 1.0:
        return _order_one_gamma(p)
    n = math.ceil(p)

    def ratio(r: float) -> float:
        circle = float(_circle_log_max(n, np.array([r]))[0])
        return min(circle, _tail_envelope(n, r)) / r ** p

    grid, envelope = _grid_envelope(n)
    ratios = [min(c, _tail_envelope(n, r)) / r ** p
              for r, c in zip(grid.tolist(), envelope.tolist())]
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
    for r, value in ((math.exp(c), fc), (math.exp(d), fd)):
        if value > best:
            best, best_r = value, r
    best *= 1.0 + 1e-12
    return GammaP(p=p, value=float(best), r_star=float(best_r))


# --- perturbation determinant and its bound ------------------------------


@dataclass(frozen=True)
class DetSample:
    """Evaluations of the perturbation determinant: scalars for one lam,
    equal-length arrays for a 1-D array of lam."""

    lam: complex | np.ndarray
    value: complex | np.ndarray
    log_abs: float | np.ndarray


def _points(lam) -> np.ndarray:
    lams = np.asarray(lam, dtype=complex)
    if lams.ndim > 1:
        raise ValueError(f"lam must be a scalar or a 1-D array, got shape {lams.shape}")
    return lams


def _factor_pair(f, dim: int) -> tuple[np.ndarray, np.ndarray]:
    # the approximant F = left @ right.T as its validated dim x r factors
    try:
        left, right = (np.asarray(factor, dtype=complex) for factor in f)
    except (TypeError, ValueError) as exc:
        raise AdmissibilityError(
            "the approximant must be a (left, right) pair of dim x r factors") from exc
    if left.ndim != 2 or left.shape != right.shape or left.shape[0] != dim:
        raise AdmissibilityError(
            f"factors of shapes {left.shape} and {right.shape} do not make a "
            f"rank-r approximant of a dim-{dim} operator")
    if not (np.all(np.isfinite(left)) and np.all(np.isfinite(right))):
        raise MatrixError("approximant factors must be finite")
    return left, right


def perturbation_determinant(l, f, lam, p: float) -> DetSample:
    """ceil(p)-regularized determinant of 1 - F (lam - (L - F))^{-1}.

    L is the full operator and F = left @ right.T a finite-rank stand-in
    for the perturbation, passed as the factor pair f = (left, right) of
    dim x r arrays. The nonzero eigenvalues of F R are those of the r x r
    matrix right.T R left (Weinstein-Aronszajn), so only the r columns
    R left are solved for; with r = 0 the determinant is exactly 1. lam is
    a point or a 1-D array of points, evaluated together: one stacked
    solve and one stacked r x r eigensolve. Every lam must stay away from
    the spectrum of L - F (a SingularResolventError naming the first
    offending lam otherwise tells the caller to move the point or shrink
    the region).
    """
    if not (0.0 < p < math.inf):
        raise AdmissibilityError(f"p must be positive and finite, got {p}")
    l = as_matrix(l)
    left, right = _factor_pair(f, l.shape[0])
    lams = _points(lam)
    points = lams.reshape(-1)
    if left.shape[1] == 0:
        value, log_abs = np.ones(len(points), dtype=complex), np.zeros(len(points))
    else:
        small = right.T @ shifted_solve(l - left @ right.T, points, left)
        if not np.all(np.isfinite(small)):
            raise MatrixError("matrix entries must be finite")
        try:
            eigs = np.linalg.eigvals(small)
        except np.linalg.LinAlgError as exc:
            raise EigenvalueError(f"eigenvalue iteration failed to converge: {exc}",
                                  matrix=small) from exc
        value, log_abs = _regularized_log_rows(eigs, math.ceil(p))
    if lams.ndim == 0:
        return DetSample(lam=complex(lams), value=complex(value[0]),
                         log_abs=float(log_abs[0]))
    return DetSample(lam=points, value=value, log_abs=log_abs)


def det_bound_rhs(prep, f, lam, p: float, n_rank: int):
    """Certified exponent bounding log|perturbation determinant| at lam.

    L0, K, the norm and K's alpha sequence come from the Prepared record
    prep, with ||K|| read as alpha_1, exact in every norm. Returns C_p
    ||(lam - L0)^{-1}||^p sum_{j<=N} (alpha_{N+1} + alpha_j)^p / (1 -
    alpha_{N+1} ||(lam - L0)^{-1}||)^p, valid whenever ||K - F|| <=
    alpha_{N+1} and the denominator base is positive; both are checked,
    the second at every lam. F = left @ right.T is the factor pair f of
    perturbation_determinant; a 1-D array lam gives one exponent per point.
    """
    if not (0.0 < p < math.inf):
        raise AdmissibilityError(f"p must be positive and finite, got {p}")
    if n_rank < 0:
        raise AdmissibilityError(f"N must be non-negative, got {n_rank}")
    left, right = _factor_pair(f, prep.k.shape[0])
    lams = _points(lam)
    points = lams.reshape(-1)

    beta = prep.alpha.value_at(n_rank + 1)
    gap = induced_norm(prep.k - left @ right.T, prep.model.norm)
    if gap > beta + DEFAULT.pair_gap_rtol * prep.norm_k:
        raise AdmissibilityError(
            f"||K - F|| = {gap:.6e} exceeds alpha_{n_rank + 1} = {beta:.6e}; "
            "the approximant is not admissible for this N")

    res_norm = resolvent_norms(prep.l0, points, prep.model.norm)
    bad = np.flatnonzero(beta * res_norm >= 1.0)
    if len(bad):
        j = int(bad[0])
        raise AdmissibilityError(
            f"alpha_{n_rank + 1} * ||(lam - L0)^{{-1}}|| = "
            f"{beta * res_norm[j]:.6e} must be below 1 at lam = {complex(points[j])}")

    total = prep.alpha.head_power_sum(p, n_rank, offset=beta)
    rhs = gamma_p_upper(p).c_p * res_norm ** p * total / (1.0 - beta * res_norm) ** p
    return float(rhs[0]) if lams.ndim == 0 else rhs
