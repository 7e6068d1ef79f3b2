"""Brute-force ground truth: eigenvalue counts, windings, and the shift example.

Everything the bounds promise can be checked directly in finite
dimensions: count eigenvalues outside a disk, integrate counts against
powers, follow the phase of a determinant around a contour, and test the
zero-counting inequality for functions on the unit disk. This module is
deliberately independent of the bound formulas so tests get two routes
to every number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT
from .errors import AdmissibilityError, ContourError, NormalizationError
from .numerics import NormKind, as_matrix, eigenvalues
from .operators import OperatorModel, RankOne, Shift, materialize

__all__ = [
    "CountCurve",
    "eigen_count_outside",
    "count_curve",
    "moment_sum",
    "moment_from_curve",
    "winding_from_samples",
    "winding_count",
    "JensenVerdict",
    "jensen_check",
    "shift_example",
    "lacunary_coefficients",
    "ProbeRow",
    "ProbeResult",
    "blaschke_divergence_probe",
]


# --- counting --------------------------------------------------------------


def eigen_count_outside(m, s: float) -> int:
    """Number of eigenvalues with |lambda| > s, counted with multiplicity."""
    if s < 0:
        raise ValueError(f"radius must be non-negative, got {s}")
    spec = eigenvalues(as_matrix(m))
    return spec.count_where(lambda lam: abs(lam) > s)


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
        if s < 0:
            raise ValueError(f"radius must be non-negative, got {s}")
        idx = int(np.searchsorted(self.radii, s, side="right")) - 1
        if idx < 0:
            return int(self.dim)
        return int(self.counts[idx])


def count_curve(m) -> CountCurve:
    """Breakpoint representation of s -> eigen_count_outside(m, s)."""
    m = as_matrix(m)
    spec = eigenvalues(m)
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


def moment_sum(m, base: float, q: float) -> float:
    """sum over |lambda| > base of (|lambda| - base)^q, with multiplicity."""
    if q <= 0:
        raise ValueError(f"moment exponent must be positive, got {q}")
    spec = eigenvalues(as_matrix(m))
    total = 0.0
    for lam, mult in zip(spec.values, spec.multiplicities):
        excess = abs(lam) - base
        if excess > 0.0:
            total += int(mult) * excess ** q
    return total


def moment_from_curve(curve: CountCurve, base: float, q: float) -> float:
    """q * integral_base^inf count(s) (s - base)^{q-1} ds, in closed form.

    The curve is piecewise constant, so each piece contributes
    count * ((hi - base)^q - (lo - base)^q); the identity with moment_sum
    is exact up to rounding.
    """
    if q <= 0:
        raise ValueError(f"moment exponent must be positive, got {q}")
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
    adaptively). The first sample is also the last; passing an explicitly
    closed list (first == last) is accepted too.
    """
    vals = np.asarray(list(values), dtype=complex)
    if len(vals) >= 2 and vals[0] == vals[-1]:
        vals = vals[:-1]
    if len(vals) < 4:
        raise ContourError("need at least 4 distinct contour samples")
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


def winding_count(fn: Callable[[complex], complex], center: complex,
                  radius: float) -> int:
    """Winding of fn around 0 along the circle |lam - center| = radius.

    Starts from a uniform grid of 64 points and bisects every arc whose
    phase step reaches pi/2 until all steps are fine or the budget of
    65536 points runs out (then a ContourError reports the failure rather
    than guessing).
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")

    def sample(theta: float) -> tuple[float, complex]:
        v = complex(fn(center + radius * complex(math.cos(theta), math.sin(theta))))
        if abs(v) <= DEFAULT.contour_min_modulus:
            raise ContourError(
                f"contour value {v} at angle {theta:.6f} is within "
                f"{DEFAULT.contour_min_modulus} of zero; move the contour")
        return theta, v

    points = [sample(t) for t in
              np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)]
    while True:
        inserts = []
        for i in range(len(points)):
            t0, v0 = points[i]
            if i + 1 < len(points):
                t1, v1 = points[i + 1]
            else:
                t1, v1 = points[0][0] + 2.0 * math.pi, points[0][1]
            if abs(np.angle(v1 / v0)) >= math.pi / 2.0:
                tm = 0.5 * (t0 + t1)
                inserts.append(tm if tm < 2.0 * math.pi else tm - 2.0 * math.pi)
        if not inserts:
            break
        if len(points) + len(inserts) > 65536:
            raise ContourError(
                "refinement budget of 65536 contour points exceeded; "
                "the contour likely passes near a zero")
        points.extend(sample(t) for t in inserts)
        points.sort(key=lambda pair: pair[0])

    return winding_from_samples([v for _, v in points])


# --- unit-disk zero counting ------------------------------------------------


@dataclass(frozen=True)
class JensenVerdict:
    ok: bool
    log_sup: float
    worst_r: float
    worst_margin: float


def jensen_check(h: Callable[[complex], complex],
                 zeros: Sequence[complex]) -> JensenVerdict:
    """Check n(h; r) log(1/r) <= log sup_D |h| for r = 0.05, 0.10, ..., 0.95.

    h must be holomorphic and bounded on the unit disk with |h(0)| = 1
    (a NormalizationError otherwise); zeros is its zero multiset listed
    with multiplicity. The sup is taken on a 4096-point boundary grid,
    which is where a bounded holomorphic function attains it.
    """
    h0 = abs(complex(h(0.0)))
    if abs(h0 - 1.0) > DEFAULT.normalization_tol:
        raise NormalizationError(
            f"|h(0)| = {h0:.12g} but the zero-counting inequality needs "
            "|h(0)| = 1; rescale h first")
    zmags = sorted(abs(complex(z)) for z in zeros)
    if zmags and zmags[-1] >= 1.0:
        raise AdmissibilityError(
            f"zero of modulus {zmags[-1]:.12g} is not inside the open unit disk")

    sup = 0.0
    for theta in np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False):
        sup = max(sup, abs(complex(h(complex(math.cos(theta), math.sin(theta))))))
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
    towards the unit circle; the probe below only checks finite-dim
    growth, it proves nothing about divergence.
    """
    b = np.zeros(dim, dtype=complex)
    k = 1
    while k <= dim:
        b[k - 1] = 1.0
        k *= 2
    return b


@dataclass(frozen=True)
class ProbeRow:
    dim: int
    excess_sum: float


@dataclass(frozen=True)
class ProbeResult:
    rows: tuple[ProbeRow, ...]
    growth: float  # excess at largest dim over excess at smallest


def blaschke_divergence_probe(b_family: Callable[[int], Sequence[complex]],
                              dims: Sequence[int]) -> ProbeResult:
    """Excess sum S(dim) = sum_{|lambda| > 1} (|lambda| - 1) per truncation.

    A growing S across dims is consistent with (never proof of) a family
    whose eigenvalue moduli violate the Blaschke-type summability at the
    unit circle.
    """
    rows = []
    for dim in dims:
        model, _ = shift_example(np.asarray(b_family(dim), dtype=complex), dim)
        l0, k = materialize(model)
        rows.append(ProbeRow(dim=dim, excess_sum=moment_sum(l0 + k, 1.0, 1.0)))
    if not rows:
        raise ValueError("need at least one dimension to probe")
    first, last = rows[0].excess_sum, rows[-1].excess_sum
    if first == 0.0:
        growth = math.inf if last > 0.0 else 1.0
    else:
        growth = last / first
    return ProbeResult(rows=tuple(rows), growth=growth)
