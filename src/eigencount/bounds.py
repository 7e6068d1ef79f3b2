"""Certified upper bounds on the number of eigenvalues outside disks.

For L = L0 + K on (C^dim, norm), the count of eigenvalues of modulus
above s (with multiplicity) is bounded through the growth of a
perturbation determinant: pick a rank-N approximant of K, bound the
determinant on an intermediate circle |lam| = t, and convert the bound
into a zero count by mapping the exterior region onto the unit disk.
Optimizing t in closed form produces the profile function phi_p built
from the Lambert W function; an elementary envelope of phi_p gives the
simpler (and weaker) power-law bound; sending N to the dimension and L0
to zero recovers the classical compact-operator count.

Every public bound here is an upper bound for the oracle count whenever
its admissibility preconditions hold; the tests enforce exactly that.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .approx import (ApproxSequence, Certainty, _power_or_inf, approx_numbers,
                     koenig_constant)
from .determinants import gamma_p_upper
from .errors import AdmissibilityError
from .numerics import (LowRankSketch, Spectrum, eigenvalues, induced_norm,
                       low_rank_sketch, resolvent_norms, singular_values)
from .operators import OperatorModel, Zero, materialize
from .oracle import eigen_count_outside, low_rank_count_outside

__all__ = [
    "BoundReport",
    "Prepared",
    "prepare",
    "lambert_w",
    "phi_p",
    "phi_p_envelope",
    "t_star",
    "count_bound_disk",
    "count_bound_disk_simple",
    "count_bound_region",
    "koenig_count_bound",
    "moment_bound",
    "pseudospectral_epsilon",
]


# --- scalar functions -----------------------------------------------------


def lambert_w(x: float) -> float:
    """Principal Lambert W on [0, inf): the w >= 0 with w e^w = x.

    Halley iteration, at most 64 steps; the initial guess is x itself
    below e and log x - log log x from e upward. Residual |w e^w - x|
    lands well below 1e-13 max(1, x) on the whole domain.
    """
    if not (0.0 <= x < math.inf):
        raise ValueError(f"lambert_w is defined on [0, inf), got {x}")
    if x == 0.0:
        return 0.0
    w = x if x < math.e else math.log(x) - math.log(math.log(x))
    for _ in range(64):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


def _lambert_scale(p: float) -> float:
    # e^{1/p} / p, the scale of the Lambert W argument of phi_p and t_star
    if not (0.0 < p < math.inf):
        raise AdmissibilityError(f"p must be positive and finite, got {p}")
    try:
        scale = math.exp(1.0 / p) / p
    except OverflowError:
        scale = math.inf
    if scale == math.inf:
        raise AdmissibilityError(
            f"p must be at least about 0.0014221, below which e^(1/p) / p "
            f"overflows a float; got {p}")
    return scale


def phi_p(p: float, x: float) -> float:
    """Profile factor of the optimized disk bound.

    phi_p(x) = W((1/p) e^{1/p} x)^p / ((1/p - W((1/p) e^{1/p} x))^{p+1} x^p)
    for 0 < x < 1, continued by phi_p(0) = p e. Diverges as x -> 1, where
    1/p - W cancels: below (p + 1) 2^-21 / p it raises AdmissibilityError.
    Defined for p >= ~0.0014221, where e^{1/p} / p is a finite float.
    """
    scale = _lambert_scale(p)
    if not (0.0 <= x < 1.0):
        raise AdmissibilityError(
            f"phi_p needs 0 <= x < 1 (strictly inside the disk), got x = {x}")
    if x == 0.0:
        return p * math.e
    w = lambert_w(scale * x)
    # W is off by a few ulp of 1/p, so from (p + 1) 2^-21 / p up the (p+1)-th
    # power of 1/p - W keeps its relative error within about 2^-30
    gap = _trusted("1/p - W", 1.0 / p - w, p, x, floor=(p + 1.0) * 2.0 ** -21 / p)
    return (w / x) ** p / _trusted("(1/p - W)^(p+1)", gap ** (p + 1.0), p, x)


def phi_p_envelope(p: float, x: float) -> float:
    """Elementary envelope (p+1)^{p+1} / p^p / (1-x)^{p+1} dominating phi_p;
    AdmissibilityError once (1-x)^{p+1} is no normal float or the value overflows."""
    if not (0.0 < p < math.inf):
        raise AdmissibilityError(f"p must be positive and finite, got {p}")
    if not (0.0 <= x < 1.0):
        raise AdmissibilityError(
            f"the envelope needs 0 <= x < 1, got x = {x}")
    value = (p + 1.0) ** (p + 1.0) / p ** p / _trusted(
        "(1 - x)^(p+1)", (1.0 - x) ** (p + 1.0), p, x)
    return _trusted("the envelope", value, p, x)


class _Untrusted(AdmissibilityError):
    """A profile value that lost its digits; moot where the alpha sum is empty."""


def _trusted(name: str, value: float, p: float, x: float,
             floor: float = sys.float_info.min) -> float:
    # a profile's denominator (or value) at its argument x (r = t / s for the
    # region profile), if it is a finite float >= floor: below the smallest
    # normal float it has lost digits, and a difference can cancel to noise
    if not (floor <= value < math.inf):
        raise _Untrusted(
            f"{name} = {value!r} at p = {p}, x = {x} is not a float the profile "
            f"can trust (need {floor:.6g} <= it < inf)")
    return value


def _finite_bound(value: float, p: float, s: float) -> float:
    if not (value < math.inf):
        raise AdmissibilityError(f"the bound {value!r} at p = {p}, s = {s} is not finite")
    return value


def t_star(p: float, a: float, s: float) -> float:
    """Radius maximizing log(s/t) (t - a)^p on (a, s).

    a is the base norm plus the (N+1)-th approximation number; the
    optimizer is a / (p W((a / (p s)) e^{1/p})), with the a -> 0 limit
    s e^{-1/p}. Defined for the p that phi_p takes.
    """
    _lambert_scale(p)
    if not math.isfinite(s):
        raise AdmissibilityError(f"target radius s must be finite, got {s}")
    if not (0.0 <= a < s):
        raise AdmissibilityError(
            f"need 0 <= a < s for an intermediate radius, got a = {a}, s = {s}")
    if a == 0.0:
        return s * math.exp(-1.0 / p)
    return a / (p * lambert_w(a / (p * s) * math.exp(1.0 / p)))


# --- the report ------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """One computed bound with everything needed to audit it.

    bound always equals (c_p / target^p) * phi_value * alpha_sum, where
    phi_value is whichever profile factor the kind uses and alpha_sum is
    sum_{j<=N} (alpha_{N+1} + alpha_j)^p. The classical koenig_classical
    bound goes through no circle, so its t_star, eps and gamma_p are None.
    A rank with an empty alpha sum (N = 0, or K = 0) whose profile value lost
    its digits has phi_value and bound 0.0: admissible, it leaves ||L|| <=
    ||L0|| + alpha_1 < target.
    """

    kind: str
    p: float
    target: complex
    n_rank: int
    t_star: float | None
    eps: float | None
    gamma_p: float | None
    c_p: float
    phi_value: float
    alpha_sum: float
    alpha_mode: Certainty
    bound: float
    admissible: bool = True
    certified: bool = True
    oracle_count: int | None = None

    def with_oracle(self, count: int) -> "BoundReport":
        return replace(self, oracle_count=count)

    def to_dict(self) -> dict:
        """The fields in declaration order; a complex number as [re, im],
        an enum as its value."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value.value if isinstance(value, Enum) else value


# --- shared plumbing -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Prepared:
    """A materialized model whose analysis is computed on first use, then kept:
    ||L0||, a sketch and the singular values and alpha sequence of K, and the
    spectrum of L.

    Every bound accepts a Prepared in place of an OperatorModel, so one
    analysis serves several bounds and the oracle without repeating work,
    and a caller pays only for the quantities it reads. == is identity.
    One sketch K = Q B + E (low_rank_sketch, at widths up to dim / 12) serves
    both the rank and singular values behind alpha and the oracle count, so a
    dense K of low numerical rank takes no dim x dim SVD; K takes one only when
    no such width captures it or the sketch's eta passes the SVD's own error
    scale. count_outside(s), the oracle count of `bound`,
    needs no spectrum when the certified winding number of the sketch's small
    determinant costs less than half an eigensolve; the spectrum serves only as
    the fallback.
    """

    model: OperatorModel
    l0: np.ndarray
    k: np.ndarray

    @cached_property
    def norm_l0(self) -> float:
        """||L0||; a zero base has norm 0 without an SVD."""
        if isinstance(self.model.base, Zero):
            return 0.0
        return induced_norm(self.l0, self.model.norm)

    @cached_property
    def sketch(self) -> LowRankSketch | None:
        """K = 2^e (Q B + E) from low_rank_sketch, or None when it gives none."""
        return low_rank_sketch(self.k)

    @cached_property
    def singular_values(self) -> np.ndarray:
        """All singular values of K: the sketch's stand-ins, each within its eta,
        or else the dense SVD's; alpha zeroes the tail past the rank in its own copy."""
        if self.sketch is not None:
            return self.sketch.singular_values()
        return singular_values(self.k)

    @cached_property
    def alpha(self) -> ApproxSequence:
        """Approximation numbers of K, read from singular_values."""
        return approx_numbers(self.k, self.model.norm, self.singular_values)

    @property
    def norm_k(self) -> float:
        """||K||, which is alpha_1 exactly in every norm."""
        return self.alpha.value_at(1)

    @cached_property
    def spectrum(self) -> Spectrum:
        """Clustered spectrum of L = L0 + K."""
        return eigenvalues(self.l0 + self.k)

    def count_outside(self, s: float) -> int:
        """Number of eigenvalues of L outside |lambda| = s, with multiplicity.

        This is low_rank_count_outside's certified count from the sketch, on a
        budget of half the eigensolve it would replace; where there is no sketch
        (below dim 96, or when low_rank_sketch gives none) or the kernel
        gives none, it is eigen_count_outside of the spectrum, so a fallback
        costs at most about 1.5 modelled eigensolves. Measured over dims 24-600
        (BENCH_16.json), the kernel certifies few counts below dim 96 and most
        from dim 128.
        """
        count = None
        if self.sketch is not None:
            count = low_rank_count_outside(self.l0, self.sketch, self.norm_l0,
                                           self.model.norm, s, budget=0.5)
        if count is None:
            count = eigen_count_outside(self.spectrum, s)
        return count


def prepare(model: OperatorModel) -> Prepared:
    """Materialize model; every analysis waits for its first use."""
    return Prepared(model, *materialize(model))


def _as_prepared(model: OperatorModel | Prepared) -> Prepared:
    return model if isinstance(model, Prepared) else prepare(model)


def _check_exterior(prep: Prepared, p: float, s: float) -> float:
    # returns s^p; inf (every bound then reads 0.0) only where ||L0|| + ||K|| < s
    if not (0.0 < p < math.inf):
        raise AdmissibilityError(f"p must be positive and finite, got {p}")
    if not math.isfinite(s):
        raise AdmissibilityError(f"target radius s must be finite, got {s}")
    if s <= prep.norm_l0:
        raise AdmissibilityError(
            f"need s > ||L0|| = {prep.norm_l0:.12g}, got s = {s}; no exterior "
            "disk clears the base spectrum otherwise")
    s_power = _power_or_inf(s, p)
    if s_power < sys.float_info.min or (s_power == math.inf and prep.norm_l0 + prep.norm_k >= s):
        raise AdmissibilityError(f"s^p = {s_power!r} at p = {p}, s = {s} is no normal float")
    return s_power


def _candidate_ranks(n_rank: int | None, dim: int, rank: int):
    if n_rank is None:
        return range(0, rank + 1)
    if n_rank < 0 or n_rank > dim:
        raise AdmissibilityError(
            f"N must lie in [0, dim] = [0, {dim}], got {n_rank}")
    return [n_rank]


def _rank_sweep(kind: str, prep: Prepared, p: float, s: float,
                n_rank: int | None, profile,
                t: float | None = None, epsilon: float | None = None) -> BoundReport:
    """Bound minimizing (C_p / s^p) profile(N, alpha_{N+1}) times
    sum_{j<=N} (alpha_{N+1} + alpha_j)^p over the rank N, for the target |lam| > s.

    With n_rank None every N in [0, rank K] is tried (a larger N only
    repeats the bound at N = rank K, having alpha_{N+1} = 0 and the same
    alpha sum) and an N that is inadmissible (alpha_{N+1} >= s - ||L0||,
    the profile raises AdmissibilityError, or the bound is not finite) is
    skipped; a fixed n_rank raises instead. The report's circle is t, or
    t_star at the winning N when t is None, and its gap epsilon (or
    t - ||L0||); an explicit epsilon marks the report non-certified. A p
    outside the range of phi_p and t_star, or an s^p _check_exterior
    refuses, is rejected before the sweep, as no N can mend it.
    """
    s_power = _check_exterior(prep, p, s)
    _lambert_scale(p)
    norm_l0 = prep.norm_l0
    gamma = gamma_p_upper(p)

    best = None
    reason = None
    rank = prep.alpha.rank
    for n in _candidate_ranks(n_rank, prep.model.dim, rank):
        a_next = prep.alpha.value_at(n + 1)
        try:
            if a_next >= s - norm_l0:
                raise AdmissibilityError(
                    f"alpha_{n + 1} = {a_next:.12g} must stay below "
                    f"s - ||L0|| = {s - norm_l0:.12g} for N = {n}")
            try:
                phi = profile(n, a_next)
            except _Untrusted:
                if n > 0 and prep.norm_k > 0.0:
                    raise
                phi = 0.0  # the alpha sum is empty
            total = prep.alpha.head_power_sum(p, n, offset=a_next)
            value = _finite_bound(gamma.c_p / s_power * phi * total, p, s)
        except AdmissibilityError as exc:
            if n_rank is not None:
                raise
            reason = exc
            continue
        if best is None or value < best[0]:
            best = (value, n, a_next, phi, total)
    if best is None:
        raise AdmissibilityError(
            f"no admissible N in [0, {prep.model.dim}] for s = {s}; "
            f"at N = rank K = {rank}: {reason}; every larger N has the same "
            f"alpha_{{N+1}} = 0")

    value, n, a_next, phi, total = best
    if t is None:
        t = t_star(p, norm_l0 + a_next, s)
    return BoundReport(
        kind=kind, p=p, target=complex(s), n_rank=n, t_star=t,
        eps=t - norm_l0 if epsilon is None else epsilon, gamma_p=gamma.value,
        c_p=gamma.c_p, phi_value=phi, alpha_sum=total, bound=value,
        certified=epsilon is None,
        alpha_mode=Certainty.EXACT if prep.alpha.all_exact else Certainty.UPPER_BOUND)


# --- the bounds ------------------------------------------------------------


def count_bound_disk(model: OperatorModel | Prepared, p: float, s: float,
                     n_rank: int | None = None) -> BoundReport:
    """Optimized-profile bound on the eigenvalue count outside |lam| = s.

    bound = (C_p / s^p) phi_p((||L0|| + alpha_{N+1}) / s)
    sum_{j<=N} (alpha_{N+1} + alpha_j)^p. With N omitted, every
    admissible N in [0, rank K] is tried and the smallest bound wins
    (N = rank K is always admissible once s > ||L0||).
    """
    prep = _as_prepared(model)
    return _rank_sweep(
        "disk_phi", prep, p, s, n_rank,
        lambda n, a_next: phi_p(p, (prep.norm_l0 + a_next) / s))


def count_bound_disk_simple(model: OperatorModel | Prepared, p: float, s: float,
                            n_rank: int | None = None) -> BoundReport:
    """Power-law bound C_p (p+1)^{p+1}/p^p s / (s - ||L0|| - alpha_{N+1})^{p+1}
    times the alpha power sum; always at least count_bound_disk."""
    prep = _as_prepared(model)
    return _rank_sweep(
        "disk_simple", prep, p, s, n_rank,
        lambda n, a_next: phi_p_envelope(p, (prep.norm_l0 + a_next) / s))


def count_bound_region(model: OperatorModel | Prepared, p: float, s: float,
                       t: float, n_rank: int | None = None,
                       epsilon: float | None = None) -> BoundReport:
    """Bound on the eigenvalue count outside |lam| = s through the circle |lam| = t.

    bound = C_p / ((eps - alpha_{N+1})^p log(1/r)) sum_{j<=N}
    (alpha_{N+1} + alpha_j)^p with r = t / s and, in certified mode,
    eps = t - ||L0||; it needs 0 < t < s, and an N with t <= ||L0|| +
    alpha_{N+1} is inadmissible, even an N = 0 whose alpha sum is empty. At
    t = t_star(p, ||L0|| + alpha_{N+1}, s) it equals count_bound_disk at that
    N up to rounding. Passing an explicit epsilon marks the report non-certified.
    """
    if not (t > 0.0):
        raise AdmissibilityError(f"circle radius t must be positive, got {t}")
    if not (t < s):
        raise AdmissibilityError(
            f"need t < s so the target stays strictly outside, got t = {t}, s = {s}")
    r = t / s  # 1 / r overflows, or r underflows, for t below about 5.6e-309 s
    log_inv_r = _trusted("log(1/r)", math.log(1.0 / r) if r > 0.0 else math.inf, p, r)
    prep = _as_prepared(model)
    s_power = _check_exterior(prep, p, s)
    eps = t - prep.norm_l0 if epsilon is None else epsilon

    def profile(n: int, a_next: float) -> float:
        a = prep.norm_l0 + a_next
        if t <= a:
            raise AdmissibilityError(
                f"circle radius t = {t} must exceed ||L0|| + alpha_{n + 1} "
                f"= {a:.12g}")
        if eps <= a_next:
            raise AdmissibilityError(
                f"pseudospectral gap eps = {eps:.12g} must exceed "
                f"alpha_{n + 1} = {a_next:.12g}")
        # s^p cancels the sweep's 1 / s^p, which an infinite s^p cannot
        return _trusted("s^p", s_power, p, r) / (
            _trusted("(eps - alpha)^p", _power_or_inf(eps - a_next, p), p, r) * log_inv_r)

    return _rank_sweep("region", prep, p, s, n_rank, profile, t=t, epsilon=epsilon)


def koenig_count_bound(model: OperatorModel | Prepared, p: float,
                       s: float) -> BoundReport:
    """Classical compact bound 2 (2e)^{p/2} / s^p sum_j sigma_j^p.

    Valid for L = K (zero base operator); the eigenvalue multiset of a
    matrix does not depend on the ambient norm, so the singular values of
    K serve whatever norm the model carries. With a sketch they are
    Prepared.singular_values' stand-ins, and every sigma_j past the sketch's
    width counts as its eta. The report has N = dim and phi_value 1;
    alpha_sum is the singular-value power sum.
    """
    prep = _as_prepared(model)
    s_power = _check_exterior(prep, p, s)
    if prep.norm_l0 != 0.0:
        raise AdmissibilityError(
            f"the classical bound needs L0 = 0, got ||L0|| = {prep.norm_l0:.12g}")
    c_p = koenig_constant(p)
    total = float(np.sum(prep.singular_values ** p))
    return BoundReport(
        kind="koenig_classical", p=p, target=complex(s), n_rank=prep.model.dim,
        t_star=None, eps=None, gamma_p=None, c_p=c_p, phi_value=1.0,
        alpha_sum=total, alpha_mode=Certainty.EXACT,
        bound=_finite_bound(c_p / s_power * total, p, s))


def moment_bound(model: OperatorModel | Prepared, p: float, q: float) -> float:
    """Upper bound for sum over |lambda| > ||L0|| of (|lambda| - ||L0||)^q.

    Integrates the power-law count bound: with a = (p+1)^{p+1}/p^p,
    q C_p a [ ||L0||/(q-p-1) + ||K||/(q-p) ] ||K||^{q-p-1} sum_j alpha_j^p.
    Needs q > p + 1 when L0 is nonzero; q > p suffices for L0 = 0, where
    the bound is q C_p a ||K||^{q-p}/(q-p) sum_j alpha_j^p.
    """
    if not (0.0 < p < math.inf):
        raise AdmissibilityError(f"p must be positive and finite, got {p}")
    if not math.isfinite(q):
        raise AdmissibilityError(f"moment exponent q must be finite, got {q}")
    prep = _as_prepared(model)
    norm_l0, norm_k = prep.norm_l0, prep.norm_k
    gamma = gamma_p_upper(p)
    envelope = (p + 1.0) ** (p + 1.0) / p ** p
    alpha_sum = prep.alpha.head_power_sum(p, prep.model.dim)

    if norm_l0 == 0.0 and q <= p:
        raise AdmissibilityError(
            f"moment exponent q = {q} must exceed p = {p} when L0 = 0")
    if norm_l0 != 0.0 and q <= p + 1.0:
        raise AdmissibilityError(
            f"moment exponent q = {q} must exceed p + 1 = {p + 1.0} when L0 != 0")
    if norm_k == 0.0:
        return 0.0
    if norm_l0 == 0.0:
        return q * gamma.c_p * envelope * norm_k ** (q - p) / (q - p) * alpha_sum
    bracket = norm_l0 / (q - p - 1.0) + norm_k / (q - p)
    return q * gamma.c_p * envelope * bracket * norm_k ** (q - p - 1.0) * alpha_sum


def pseudospectral_epsilon(prep: Prepared, t: float) -> float:
    """Sampled pseudospectral gap 1 / max ||(lam - L0)^{-1}|| on |lam| = t.

    The resolvent norm of the exterior region peaks on the boundary
    circle, so sampling it there at 64 equally spaced points estimates
    the certified gap from above; results derived from this value are
    therefore NOT certified and are flagged as such by the callers. A
    circle through the base spectrum raises SingularResolventError.
    """
    circle = np.array([t * complex(math.cos(theta), math.sin(theta))
                       for theta in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)])
    return 1.0 / float(np.max(resolvent_norms(prep.l0, circle, prep.model.norm)))
