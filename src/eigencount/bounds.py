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

from .approx import (ApproxSequence, Certainty, _from_logs, _log_power_sum,
                     _log_ratio, approx_numbers, koenig_constant)
from .determinants import gamma_p_upper
from .errors import AdmissibilityError
from .numerics import (LowRankSketch, Spectrum, eigenvalues, low_rank_sketch,
                       resolvent_norms, singular_values)
from .operators import OperatorModel, materialize
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


def _log_phi_p(p: float, x: float) -> float:
    # log phi_p(x) = p log(W / x) - (p + 1) log(1/p - W), W = W((1/p) e^{1/p} x),
    # with log(W / x) = 1/p - log p - W since W e^W is the argument; at x = 0 it
    # is log(p e). 1/p - W cancels as x -> 1, and W is off by a few ulp of 1/p,
    # so from (p + 1) 2^-21 / p up its (p+1)-th power keeps its relative error
    # within about 2^-30; below that floor the profile raises
    scale = _lambert_scale(p)
    if not (0.0 <= x < 1.0):
        raise AdmissibilityError(
            f"phi_p needs 0 <= x < 1 (strictly inside the disk), got x = {x}")
    w = lambert_w(scale * x)
    gap = 1.0 / p - w
    floor = (p + 1.0) * 2.0 ** -21 / p
    if not gap >= floor:
        raise AdmissibilityError(
            f"1/p - W = {gap!r} at p = {p}, x = {x} has cancelled below "
            f"(p + 1) 2^-21 / p = {floor:.6g}")
    return 1.0 - p * (math.log(p) + w) - (p + 1.0) * math.log(gap)


def phi_p(p: float, x: float) -> float:
    """Profile factor of the optimized disk bound.

    phi_p(x) = W((1/p) e^{1/p} x)^p / ((1/p - W((1/p) e^{1/p} x))^{p+1} x^p)
    for 0 < x < 1, continued by phi_p(0) = p e (exactly). Diverges as x -> 1,
    where 1/p - W cancels: below (p + 1) 2^-21 / p it raises
    AdmissibilityError, as it does past the largest float. Defined for
    p >= ~0.0014221, where e^{1/p} / p is a finite float.
    """
    log_phi = _log_phi_p(p, x)
    return p * math.e if x == 0.0 else _from_logs("phi_p", (log_phi,), p=p, x=x)


def _log_envelope(p: float, x: float) -> float:
    # log of (p+1)^{p+1} / p^p / (1-x)^{p+1}, finite for every 0 <= x < 1
    if not (0.0 < p < math.inf):
        raise AdmissibilityError(f"p must be positive and finite, got {p}")
    if not (0.0 <= x < 1.0):
        raise AdmissibilityError(
            f"the envelope needs 0 <= x < 1, got x = {x}")
    return (p + 1.0) * (math.log1p(p) - math.log1p(-x)) - p * math.log(p)


def phi_p_envelope(p: float, x: float) -> float:
    """Elementary envelope (p+1)^{p+1} / p^p / (1-x)^{p+1} dominating phi_p;
    AdmissibilityError past the largest float."""
    return _from_logs("phi_p_envelope", (_log_envelope(p, x),), p=p, x=x)


def t_star(p: float, a: float, s: float) -> float:
    """Radius maximizing log(s/t) (t - a)^p on (a, s).

    a is the base norm plus the (N+1)-th approximation number; the
    optimizer is a / (p W(z)), z = (a / (p s)) e^{1/p}, which equals
    s e^{W(z) - 1/p} as W(z) e^{W(z)} = z; so the a -> 0 limit is s e^{-1/p}.
    Defined for the p that phi_p takes.
    """
    scale = _lambert_scale(p)
    if not math.isfinite(s):
        raise AdmissibilityError(f"target radius s must be finite, got {s}")
    if not (0.0 <= a < s):
        raise AdmissibilityError(
            f"need 0 <= a < s for an intermediate radius, got a = {a}, s = {s}")
    z = a / (p * s) * math.exp(1.0 / p)
    if z < sys.float_info.min:  # a = 0, or a / (p s) lost its digits to underflow
        return s * math.exp(lambert_w(scale * (a / s)) - 1.0 / p)
    return a / (p * lambert_w(z))


# --- the report ------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """One computed bound with everything needed to audit it.

    bound equals (c_p / target^p) * phi_value * alpha_sum to rounding wherever
    target^p and alpha_sum are normal floats, where phi_value is whichever
    profile factor the kind uses and alpha_sum is sum_{j<=N} (alpha_{N+1} +
    alpha_j)^p; bound is rounded outward. The classical koenig_classical
    bound goes through no circle, so its t_star, eps and gamma_p are None. A
    rank with an empty alpha sum (N = 0, or K = 0) has bound and phi_value
    0.0: admissible, it leaves ||L|| <= ||L0|| + alpha_1 < target.
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

    ||L0|| is the base kind's norm (see operators), which takes no SVD, so
    neither `bound` nor `oracle` takes an SVD of L0.

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
        """||L0|| as the base kind's norm(dim, kind) gives it (see operators)."""
        return self.model.base.norm(self.model.dim, self.model.norm)

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


def _check_exterior(prep: Prepared, p: float, s: float) -> None:
    if not (0.0 < p < math.inf):
        raise AdmissibilityError(f"p must be positive and finite, got {p}")
    if not math.isfinite(s):
        raise AdmissibilityError(f"target radius s must be finite, got {s}")
    if s <= prep.norm_l0:
        raise AdmissibilityError(
            f"need s > ||L0|| = {prep.norm_l0:.12g}, got s = {s}; no exterior "
            "disk clears the base spectrum otherwise")


def _candidate_ranks(n_rank: int | None, dim: int, rank: int):
    if n_rank is None:
        return range(0, rank + 1)
    if n_rank < 0 or n_rank > dim:
        raise AdmissibilityError(
            f"N must lie in [0, dim] = [0, {dim}], got {n_rank}")
    return [n_rank]


def _rank_sweep(kind: str, prep: Prepared, p: float, s: float,
                n_rank: int | None, log_profile,
                t: float | None = None, epsilon: float | None = None) -> BoundReport:
    """Bound minimizing (C_p / s^p) profile(alpha_{N+1}) times
    sum_{j<=N} (alpha_{N+1} + alpha_j)^p over the rank N, for the target |lam| > s.

    It is the exp of the scale-free log C_p + log_profile(alpha_{N+1}) +
    p log((alpha_{N+1} + alpha_1) / s) + log R (_log_power_sum); an empty
    sum takes no profile and reads 0.0. With n_rank None every N in
    [0, rank K] is tried (a larger N repeats N = rank K) and an inadmissible
    N is skipped: alpha_{N+1} >= s - ||L0||, t <= ||L0|| + alpha_{N+1}, eps
    <= alpha_{N+1}, or a profile or reported number that raises; a fixed
    n_rank raises instead. The report's circle is t, or t_star at the winning
    N, and its gap epsilon (or t - ||L0||); an explicit epsilon marks the
    report non-certified. A p or s that no N can mend is refused first.
    """
    _check_exterior(prep, p, s)
    _lambert_scale(p)
    norm_l0 = prep.norm_l0
    gamma = gamma_p_upper(p)
    log_c = math.log(gamma.c_p)
    eps = t - norm_l0 if epsilon is None and t is not None else epsilon

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
            if t is not None and t <= norm_l0 + a_next:
                raise AdmissibilityError(
                    f"circle radius t = {t} must exceed ||L0|| + alpha_{n + 1} "
                    f"= {norm_l0 + a_next:.12g}")
            if eps is not None and eps <= a_next:
                raise AdmissibilityError(
                    f"pseudospectral gap eps = {eps:.12g} must exceed "
                    f"alpha_{n + 1} = {a_next:.12g}")
            top, log_r = _log_power_sum(prep.alpha._floats, p, n, a_next)
            log_phi = log_profile(a_next) if log_r > -math.inf else -math.inf
            value = _from_logs("bound", (log_c, log_phi, p * _log_ratio(top, s), log_r),
                               n, p=p, s=s)
            phi = _from_logs("phi_value", (log_phi,), p=p, s=s)
            total = _from_logs("alpha_sum", (p * _log_ratio(top, 1.0), log_r), p=p, s=s)
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
        lambda a_next: _log_phi_p(p, (prep.norm_l0 + a_next) / s))


def count_bound_disk_simple(model: OperatorModel | Prepared, p: float, s: float,
                            n_rank: int | None = None) -> BoundReport:
    """Power-law bound C_p (p+1)^{p+1}/p^p s / (s - ||L0|| - alpha_{N+1})^{p+1}
    times the alpha power sum; always at least count_bound_disk."""
    prep = _as_prepared(model)
    return _rank_sweep(
        "disk_simple", prep, p, s, n_rank,
        lambda a_next: _log_envelope(p, (prep.norm_l0 + a_next) / s))


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
    prep = _as_prepared(model)
    eps = t - prep.norm_l0 if epsilon is None else epsilon
    log_log_inv_r = math.log(_log_ratio(s, t))  # log(1/r) > 0, as s / t rounds above 1

    def log_profile(a_next: float) -> float:
        # log of s^p / ((eps - alpha_{N+1})^p log(1/r)); the sweep checked eps > alpha_{N+1}
        return p * _log_ratio(s, eps - a_next) - log_log_inv_r

    return _rank_sweep("region", prep, p, s, n_rank, log_profile, t=t, epsilon=epsilon)


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
    _check_exterior(prep, p, s)
    if prep.norm_l0 != 0.0:
        raise AdmissibilityError(
            f"the classical bound needs L0 = 0, got ||L0|| = {prep.norm_l0:.12g}")
    c_p = koenig_constant(p)
    sv = prep.singular_values.tolist()
    top, log_r = _log_power_sum(sv, p, len(sv))
    return BoundReport(
        kind="koenig_classical", p=p, target=complex(s), n_rank=prep.model.dim,
        t_star=None, eps=None, gamma_p=None, c_p=c_p, phi_value=1.0,
        alpha_sum=_from_logs("alpha_sum", (p * _log_ratio(top, 1.0), log_r), p=p, s=s),
        alpha_mode=Certainty.EXACT,
        bound=_from_logs("bound", (math.log(c_p), p * _log_ratio(top, s), log_r),
                         len(sv), p=p, s=s))


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
    norm_l0, dim = prep.norm_l0, prep.model.dim
    gamma = gamma_p_upper(p)
    if norm_l0 == 0.0 and q <= p:
        raise AdmissibilityError(
            f"moment exponent q = {q} must exceed p = {p} when L0 = 0")
    if norm_l0 != 0.0 and q <= p + 1.0:
        raise AdmissibilityError(
            f"moment exponent q = {q} must exceed p + 1 = {p + 1.0} when L0 != 0")
    # sum_j alpha_j^p = ||K||^p R, so the moment is q C_p a R times the
    # bracket times ||K||^{q-1}; log ||K|| is -inf for K = 0, and so is log R
    norm_k, log_r = _log_power_sum(prep.alpha._floats, p, dim)
    log_k = _log_ratio(norm_k, 1.0)
    if norm_l0 == 0.0:
        log_rest = q * log_k - math.log(q - p)
    else:  # past the largest float the bracket's log is inf, and refused
        log_rest = (q - 1.0) * log_k + _log_ratio(
            norm_l0 / (q - p - 1.0) + norm_k / (q - p), 1.0)
    value = _from_logs(
        "the moment bound",
        (math.log(q), math.log(gamma.c_p), _log_envelope(p, 0.0), log_rest, log_r),
        dim, p=p, q=q)
    # unlike a count, a moment below the smallest float is not 0: round it up
    return value if value > 0.0 or log_r == -math.inf else math.ulp(0.0)


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
