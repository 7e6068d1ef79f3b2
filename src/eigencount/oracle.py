"""Brute-force ground truth: eigenvalue counts, windings, and the shift example.

Everything the bounds promise can be checked directly in finite
dimensions: count eigenvalues outside a disk, integrate counts against
powers, follow the phase of a determinant around a contour, and test the
zero-counting inequality for functions on the unit disk. This module is
deliberately independent of the bound formulas so tests get two routes
to every number.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT
from .errors import AdmissibilityError, ContourError, NormalizationError
from .numerics import (LowRankSketch, NormKind, Spectrum, _norm_bound, as_matrix,
                       eigenvalues)
from .operators import OperatorModel, RankOne, Shift

__all__ = [
    "CountCurve",
    "eigen_count_outside",
    "low_rank_count_outside",
    "count_curve",
    "moment_sum",
    "moment_from_curve",
    "winding_from_samples",
    "winding_count",
    "JensenVerdict",
    "jensen_check",
    "shift_example",
    "lacunary_coefficients",
]


# --- counting --------------------------------------------------------------


def _spectrum(m) -> Spectrum:
    # the oracles take a matrix, or the Spectrum of one already eigensolved
    return m if isinstance(m, Spectrum) else eigenvalues(as_matrix(m))


def eigen_count_outside(m, s: float) -> int:
    """Number of eigenvalues with |lambda| > s, counted with multiplicity.

    m is a matrix or its Spectrum, so that one eigensolve serves many radii.
    """
    if not (s >= 0):
        raise ValueError(f"radius must be non-negative, got {s}")
    spec = _spectrum(m)
    return int(np.sum(spec.multiplicities[np.abs(spec.values) > s]))


_MAX_TERMS = 256            # Neumann terms before the series counts as too slow
_TAIL = 2.0 ** -40          # tail bound below which the series is cut
_MIN_SAMPLES = 64
_MAX_SAMPLES = 1 << 12
_U = float(np.finfo(float).eps)


def low_rank_count_outside(l0, sketch: LowRankSketch, norm_l0: float, kind: NormKind,
                           s: float, budget: float = math.inf) -> int | None:
    """Certified number of eigenvalues of l0 + K outside |lambda| = s, or None.

    sketch is low_rank_sketch's K = 2^e (Q B + E), with Q of width r and
    ||E|| <= eta. For s > ||l0||, det(lam - l0 - Q B) = det(lam - l0) det F(lam),
    where F(lam) = I - B (lam - l0)^{-1} Q = I - sum_k C_k lam^{-k-1} and
    C_k = B l0^k Q; the count is minus the winding number of det F on the
    circle. All of it runs on the problem scaled by the power of two nearest s,
    which is exact, and B and eta are rescaled to it by a power of two.

    norm_l0 is ||l0|| in kind's norm, inflated for rounding; other norms are
    exact on l1 and linf, and sqrt(||.||_1 ||.||_inf) on l2, with no SVD.
    With rho = 1/(s - ||l0||), tau the series tail plus a rounding term,
    D = sum (k+1)||C_k|| s^{-k-2} (a bound on ||F'|| on the circle) and the
    sample spacing h = 2 pi s / M, the count is returned only if every sample has
    delta_j = ||F(lam_j)^{-1}|| (D h + tau) < sin(pi / (2 r)), so that the
    phase of det F moves by less than pi/2 between samples (Ying & Katz,
    Numer. Math. 1988), and
    rho ||E|| (1 + rho ||Q|| ||B|| max_j ||F(lam_j)^{-1}|| / (1 - delta_j)) < 1,
    so that no eigenvalue crosses the circle as E is switched on. M starts
    at 64 and grows, at least doubling, to what the worst sample asks for.
    budget caps the modelled work as a multiple of the dense eigensolve's:
    before each series term and each round of samples, the answer is None if
    the step would pass it, or if the series needs more than 256 terms or the
    circle more than 4096 samples. The sketch is not charged: Prepared shares
    it with alpha. In every such case, as whenever the certificate fails, the
    answer is None, never a guess.
    """
    if not (s > norm_l0 and math.isfinite(s)):
        return None
    fraction, exponent = math.frexp(s)
    exponent -= fraction < math.sqrt(0.5)
    shift = sketch.exponent - exponent  # K scaled = 2^shift (Q B + E)
    if abs(exponent) > 1000 or shift > 1000:  # a power of two would leave the normal range
        return None
    scale = math.ldexp(1.0, -exponent)
    s = s * scale
    with np.errstate(all="ignore"):
        try:
            return _sketched_winding(l0 * scale, sketch.q, sketch.b * math.ldexp(1.0, shift),
                                     math.ldexp(sketch.eta, shift), norm_l0 * scale,
                                     kind, s, budget)
        except np.linalg.LinAlgError:
            return None  # a factorization failed


def _sketched_winding(l0, q, b, norm_e, norm_l0, kind, s, budget):
    # low_rank_count_outside on the scaled problem, s near 1
    # costs in ns, measured in-process on a 2-CPU x86-64 VM (numpy 2.4, OpenBLAS;
    # BENCH_16.json): the eigensolve replaced, a series term, a circle sample
    dim, width = q.shape
    allowance = budget * (2.5 * dim + 1e3) * dim * dim
    term_cost = 0.25 * dim * dim * width + 8e4
    sample_cost = 250.0 * width * width  # the same in every norm
    spent = term_cost  # the first term
    if not spent + _MIN_SAMPLES * sample_cost <= allowance:  # a NaN budget too
        return None
    tiny = dim * float(np.finfo(float).smallest_subnormal)  # underflow in scaling
    # a dim-term dot product errs by about dim u per entry, and an entrywise
    # bound costs at most another factor dim in an induced norm
    gamma = 4.0 * _U * dim * dim
    norm_l0 = norm_l0 * (1.0 + gamma) + tiny
    if not norm_l0 < s:
        return None
    rho = 1.0 / (s - norm_l0)

    norm_q, norm_b = _norm_bound(q, kind), _norm_bound(b, kind)
    # B and eta lose at most a smallest subnormal per entry to underflow when rescaled
    norm_e = norm_e + tiny * (1.0 + norm_q)

    # coeffs[m] = C_{m-1} s^{-m}, with p = (l0 / s)^k Q kept near unit size
    coeffs = [np.zeros((width, width), dtype=complex)]
    p = q
    while True:
        coeffs.append(b @ p / s)
        p = l0 @ p / s
        tail = norm_b * _norm_bound(p, kind) * rho
        if tail <= _TAIL:
            break
        spent += term_cost
        if (len(coeffs) > _MAX_TERMS or not math.isfinite(tail)
                or not spent + _MIN_SAMPLES * sample_cost <= allowance):
            return None
    coeffs = np.asarray(coeffs)
    weights = _norm_bound(coeffs[1:], kind)
    total = float(np.sum(weights))
    deriv = float(np.sum(np.arange(1, len(weights) + 1) * weights)) / s
    # the computed C_k, their FFT and the LU of each sample carry rounding
    tau = tail + gamma * norm_b * norm_q * s * rho * rho
    if not math.isfinite(tau + total + norm_e):
        return None
    limit = math.sin(math.pi / (2 * width))
    identity = np.eye(width)

    samples = _MIN_SAMPLES
    while True:
        spent += samples * sample_cost
        folded = np.zeros((samples, width, width), dtype=complex)
        for start in range(0, len(coeffs), samples):
            chunk = coeffs[start:start + samples]
            folded[:len(chunk)] += chunk
        f = identity - np.fft.fft(folded, axis=0)
        inv = np.linalg.inv(f)
        # ||F^{-1}|| <= ||X|| / (1 - ||I - F X||) for the computed inverse X;
        # the computed residual errs by at most width^2 u ||F|| ||X||, and
        # ||F|| <= 1 + total, with the same factor width^2 as gamma
        inv_norms = _norm_bound(inv, kind)
        slack = 1.0 - (_norm_bound(identity - f @ inv, kind)
                       + 4.0 * _U * width * width * (1.0 + total) * inv_norms)
        if not np.all(slack > 0.5):
            return None
        inv_norms = inv_norms / slack
        sample_tau = tau + 4.0 * _U * (width + math.log2(samples)) * (1.0 + total)
        step = deriv * 2.0 * math.pi * s / samples
        delta = inv_norms * (step + sample_tau)
        if float(np.max(delta)) < limit:
            break
        worst = float(np.max(inv_norms))
        if worst * sample_tau >= limit:
            return None  # finer sampling cannot certify this circle
        # the spacing the worst sample so far asks for, at least twice as fine;
        # a finer grid keeps these samples, so it can only ask for more
        wanted = 2.0 * math.pi * s * deriv * worst / (limit - worst * sample_tau)
        samples = max(2 * samples, 1 << math.ceil(math.log2(wanted)))
        if samples > _MAX_SAMPLES or not spent + samples * sample_cost <= allowance:
            return None

    if not (rho * norm_e * (1.0 + rho * norm_q * norm_b
                            * float(np.max(inv_norms / (1.0 - delta)))) < 1.0):
        return None
    try:
        return -winding_from_samples(np.linalg.det(f))
    except ContourError:
        return None


@dataclass(frozen=True)
class CountCurve:
    """Piecewise-constant s -> #{|lambda| > s} as breakpoints.

    radii is strictly increasing; counts[i] is the count for s in
    [radii[i], radii[i+1]). Below the first radius the count is the full
    multiplicity of nonzero-size clusters above it, i.e. evaluate(s)
    works for every s >= 0.
    """

    radii: np.ndarray
    counts: np.ndarray
    dim: int

    def evaluate(self, s: float) -> int:
        if not (s >= 0):
            raise ValueError(f"radius must be non-negative, got {s}")
        idx = int(np.searchsorted(self.radii, s, side="right")) - 1
        if idx < 0:
            return int(self.dim)
        return int(self.counts[idx])


def count_curve(m) -> CountCurve:
    """Breakpoint representation of s -> eigen_count_outside(m, s).

    m is a matrix or its Spectrum.
    """
    spec = _spectrum(m)
    mags = np.abs(spec.values)
    order = np.argsort(mags, kind="stable")
    radii: list[float] = []
    counts: list[int] = []
    remaining = spec.dim
    for idx in order:
        r = float(mags[idx])
        remaining -= int(spec.multiplicities[idx])
        if radii and abs(r - radii[-1]) == 0.0:
            counts[-1] = remaining
        else:
            radii.append(r)
            counts.append(remaining)
    return CountCurve(np.asarray(radii), np.asarray(counts, dtype=int), spec.dim)


def _check_moment(base: float, q: float) -> None:
    if not math.isfinite(base):
        raise ValueError(f"moment base must be finite, got {base}")
    if not (0.0 < q < math.inf):
        raise ValueError(f"moment exponent must be positive and finite, got {q}")


def moment_sum(m, base: float, q: float) -> float:
    """sum over |lambda| > base of (|lambda| - base)^q, with multiplicity.

    m is a matrix or its Spectrum. AdmissibilityError when it overflows a float.
    """
    _check_moment(base, q)
    spec = _spectrum(m)
    total = 0.0
    with np.errstate(over="ignore"):  # an overflow leaves inf, refused below
        for lam, mult in zip(spec.values, spec.multiplicities):
            excess = abs(lam) - base
            if excess > 0.0:
                total += int(mult) * excess ** q
    if total == math.inf:
        raise AdmissibilityError(f"moment sum at q = {q!r}, base = {base!r} overflows a float")
    return total


def moment_from_curve(curve: CountCurve, base: float, q: float) -> float:
    """q * integral_base^inf count(s) (s - base)^{q-1} ds, in closed form.

    The curve is piecewise constant, so each piece contributes
    count * ((hi - base)^q - (lo - base)^q); the identity with moment_sum
    is exact up to rounding.
    """
    _check_moment(base, q)
    total = 0.0
    for i in range(len(curve.radii)):
        lo = max(float(curve.radii[i]), base)
        hi = float(curve.radii[i + 1]) if i + 1 < len(curve.radii) else None
        if hi is not None and hi <= base:
            continue
        count = int(curve.counts[i])
        if count == 0 or hi is None:
            continue
        total += count * ((hi - base) ** q - (lo - base) ** q)
    # below the first breakpoint the count is curve.dim, but those s are
    # inside the smallest eigenvalue circle; the integral from base runs
    # through them only when base < radii[0]
    if len(curve.radii) and base < float(curve.radii[0]):
        total += curve.dim * ((float(curve.radii[0]) - base) ** q - 0.0)
    return total


# --- winding numbers --------------------------------------------------------


def winding_from_samples(values: Sequence[complex]) -> int:
    """Signed winding of a closed sample path around 0.

    The samples must already be fine enough that consecutive phase steps
    stay below pi/2; otherwise the count would be a guess and a
    ContourError is raised instead (use winding_count to refine
    adaptively), as it is for a non-finite sample. The first sample is
    also the last; passing an explicitly closed list (first == last) is
    accepted too.
    """
    vals = np.asarray(list(values), dtype=complex)
    if len(vals) >= 2 and vals[0] == vals[-1]:
        vals = vals[:-1]
    if len(vals) < 4:
        raise ContourError("need at least 4 distinct contour samples")
    bad = np.flatnonzero(~np.isfinite(vals))
    if len(bad):
        j = int(bad[0])
        raise ContourError(f"contour sample {j} is {complex(vals[j])}, not finite")
    if np.min(np.abs(vals)) <= DEFAULT.contour_min_modulus:
        raise ContourError(
            f"contour passes within {DEFAULT.contour_min_modulus} of a zero; "
            "move the contour")
    closed = np.append(vals, vals[0])
    steps = np.angle(closed[1:] / closed[:-1])
    if np.max(np.abs(steps)) >= math.pi / 2.0:
        raise ContourError(
            "phase step of pi/2 or more between adjacent samples; the "
            "sampling is too coarse to trust")
    total = float(np.sum(steps))
    winding = round(total / (2.0 * math.pi))
    if abs(total - 2.0 * math.pi * winding) > math.pi / 2.0:
        raise ContourError("phase continuation did not close up; refine the contour")
    return int(winding)


def _values_at(fn: Callable[[np.ndarray], np.ndarray], points: np.ndarray) -> np.ndarray:
    values = np.asarray(fn(points))
    if values.shape != points.shape:
        raise ValueError(
            f"function returned shape {values.shape} for points of shape {points.shape}; "
            "it must evaluate elementwise on an array of points")
    return values


def winding_count(fn: Callable[[np.ndarray], np.ndarray], center: complex,
                  radius: float) -> int:
    """Winding of fn around 0 along the circle |lam - center| = radius.

    fn is evaluated elementwise on an array of points and must return an
    array of the same shape (a ValueError otherwise): once on a uniform
    grid of 64 points, then once per round on the midpoints of every arc
    whose phase step reaches pi/2, until all steps are fine or the budget
    of 65536 points runs out (then a ContourError reports the failure
    rather than guessing, as it does for a value that is not finite or
    near zero).
    """
    if not (cmath.isfinite(center) and math.isfinite(radius)):
        raise ValueError(
            f"center and radius must be finite, got center = {center}, radius = {radius}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")

    def sample(thetas: np.ndarray) -> np.ndarray:
        values = _values_at(
            fn, center + radius * (np.cos(thetas) + 1j * np.sin(thetas))).astype(complex)
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            j = int(bad[0])
            raise ContourError(
                f"contour value {complex(values[j])} at angle {thetas[j]:.6f} is not finite")
        small = np.flatnonzero(np.abs(values) <= DEFAULT.contour_min_modulus)
        if len(small):
            j = int(small[0])
            raise ContourError(
                f"contour value {complex(values[j])} at angle {thetas[j]:.6f} is within "
                f"{DEFAULT.contour_min_modulus} of zero; move the contour")
        return values

    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    values = sample(thetas)
    while True:
        ends = np.append(thetas[1:], thetas[0] + 2.0 * math.pi)
        coarse = np.abs(np.angle(np.roll(values, -1) / values)) >= math.pi / 2.0
        if not np.any(coarse):
            break
        if len(thetas) + int(np.count_nonzero(coarse)) > 65536:
            raise ContourError(
                "refinement budget of 65536 contour points exceeded; "
                "the contour likely passes near a zero")
        mids = 0.5 * (thetas[coarse] + ends[coarse])
        mids = np.where(mids < 2.0 * math.pi, mids, mids - 2.0 * math.pi)
        thetas = np.concatenate((thetas, mids))
        values = np.concatenate((values, sample(mids)))
        order = np.argsort(thetas, kind="stable")
        thetas, values = thetas[order], values[order]

    return winding_from_samples(values)


# --- unit-disk zero counting ------------------------------------------------


@dataclass(frozen=True)
class JensenVerdict:
    ok: bool
    log_sup: float
    worst_r: float
    worst_margin: float


def jensen_check(h: Callable[[np.ndarray], np.ndarray],
                 zeros: Sequence[complex]) -> JensenVerdict:
    """Check n(h; r) log(1/r) <= log sup_D |h| for r = 0.05, 0.10, ..., 0.95.

    h must be holomorphic and bounded on the unit disk with |h(0)| = 1
    (a NormalizationError otherwise); zeros is its zero multiset listed
    with multiplicity. h is evaluated elementwise on an array of points
    and must return an array of the same shape (a ValueError otherwise).
    The sup is taken on a 4096-point boundary grid, which is where a
    bounded holomorphic function attains it.
    """
    h0 = abs(complex(_values_at(h, np.zeros(1, dtype=complex))[0]))
    if abs(h0 - 1.0) > DEFAULT.normalization_tol:
        raise NormalizationError(
            f"|h(0)| = {h0:.12g} but the zero-counting inequality needs "
            "|h(0)| = 1; rescale h first")
    zmags = sorted(abs(complex(z)) for z in zeros)
    if zmags and zmags[-1] >= 1.0:
        raise AdmissibilityError(
            f"zero of modulus {zmags[-1]:.12g} is not inside the open unit disk")

    boundary = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False))
    sup = float(np.max(np.abs(_values_at(h, boundary))))
    log_sup = math.log(sup) if sup > 0 else float("-inf")

    worst_margin = float("inf")
    worst_r = float("nan")
    ok = True
    for r in np.linspace(0.05, 0.95, 19):
        r = float(r)
        n_r = sum(1 for zm in zmags if zm <= r)
        margin = log_sup - n_r * math.log(1.0 / r)
        if margin < worst_margin:
            worst_margin, worst_r = margin, r
        if margin < -1e-9:
            ok = False
    return JensenVerdict(ok=ok, log_sup=log_sup, worst_r=worst_r,
                         worst_margin=worst_margin)


# --- the shift + rank-one family --------------------------------------------


def shift_example(b: Sequence[complex], dim: int):
    """Truncated shift plus the rank-one perturbation built from b, on l1.

    Returns (model, analytic_d) where analytic_d(lam) =
    1 - sum_{k<=dim} b_k lam^{-k} is the closed form the perturbation
    determinant must match outside the unit disk.
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    b = np.asarray(b, dtype=complex).ravel()
    if b.size == 0:
        raise ValueError("need at least one coefficient")
    if not np.all(np.isfinite(b)):
        raise ValueError("coefficients must be finite")
    right = np.zeros(dim, dtype=complex)
    used = b[:dim]
    right[: len(used)] = used
    left = np.zeros(dim, dtype=complex)
    left[0] = 1.0
    model = OperatorModel(dim=dim, norm=NormKind.L1, base=Shift(),
                          perturbation=RankOne(left, right))

    coeffs = right.copy()

    def analytic_d(lam: complex) -> complex:
        lam = complex(lam)
        if lam == 0:
            raise ZeroDivisionError("the closed form needs lam != 0")
        total = 0.0 + 0.0j
        inv = 1.0 / lam
        power = inv
        for c in coeffs:
            total += c * power
            power *= inv
        return 1.0 - total

    return model, analytic_d


def lacunary_coefficients(dim: int) -> np.ndarray:
    """Coefficients 1 at the powers of two, zero elsewhere.

    A heuristic stand-in for a bounded family whose zero set thickens
    towards the unit circle; example-shift's excess sums only show
    finite-dim growth, they prove nothing about divergence.
    """
    b = np.zeros(dim, dtype=complex)
    k = 1
    while k <= dim:
        b[k - 1] = 1.0
        k *= 2
    return b
