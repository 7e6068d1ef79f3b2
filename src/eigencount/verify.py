"""Seeded self-verification suites pairing every formula with a second route.

Each suite checks a library quantity against an independent computation:
Halley against bisection, closed forms against dense-grid maximization,
certified bounds against brute-force eigensolves. Suites report how many
checks ran and keep a serializable counterexample for each failure, so
the command line and the test suite share one engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .approx import koenig_check, rank_n_factors
from .bounds import (
    Prepared,
    count_bound_disk,
    count_bound_disk_simple,
    count_bound_region,
    koenig_count_bound,
    lambert_w,
    moment_bound,
    phi_p,
    phi_p_envelope,
    prepare,
    t_star,
)
from .config import DEFAULT, SUITE_NAMES, Tolerances
from .determinants import (
    det_bound_rhs,
    det_regularized,
    gamma_p_upper,
    perturbation_determinant,
    scalar_factor_log,
)
from .numerics import (
    NormKind,
    Spectrum,
    eigenvalues,
    induced_norm,
)
from .operators import Dense, Diagonal, OperatorModel, RankOne, Shift, Zero, materialize
from .oracle import (
    count_curve,
    eigen_count_outside,
    jensen_check,
    moment_from_curve,
    moment_sum,
    shift_example,
    winding_count,
)

__all__ = [
    "SuiteResult",
    "CorpusEntry",
    "regression_corpus",
    "sweep_radii",
    "soundness_sweep",
    "suite_lambert",
    "suite_phi",
    "suite_koenig",
    "suite_det",
    "suite_bounds",
    "suite_jensen",
    "SUITE_NAMES",
    "run_suites",
]

_FAILURE_KEEP = 10
_SWEEP_P = (0.5, 1.0, 2.0)  # the soundness sweep's exponents


def _json_safe(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (complex, np.complexfloating)):
        value = complex(value)
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one property suite."""

    name: str
    checks: int
    failure_count: int
    failures: tuple[dict, ...]  # first few counterexamples, JSON-safe

    @property
    def ok(self) -> bool:
        return self.failure_count == 0


class _Log:
    """Check counter that keeps the first few counterexamples."""

    def __init__(self):
        self.checks = 0
        self.failure_count = 0
        self.kept: list[dict] = []

    def check(self, ok: bool, **info) -> bool:
        self.checks += 1
        if not ok:
            self.failure_count += 1
            if len(self.kept) < _FAILURE_KEEP:
                self.kept.append({k: _json_safe(v) for k, v in info.items()})
        return bool(ok)

    def result(self, name: str) -> SuiteResult:
        return SuiteResult(name=name, checks=self.checks,
                           failure_count=self.failure_count,
                           failures=tuple(self.kept))


# --- regression corpus ------------------------------------------------------


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    model: OperatorModel

    @cached_property
    def prepared(self) -> Prepared:
        """The model's one shared analysis, made on first use."""
        return prepare(self.model)


def _complex_array(rng, shape, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _scaled_to_norm(m: np.ndarray, kind: NormKind, target: float) -> np.ndarray:
    current = induced_norm(m, kind)
    return m if current == 0.0 else m * (target / current)


def _corpus_base(rng, idx: int, dim: int, norm: NormKind):
    if idx == 0:
        return Shift(), "shift"
    if idx == 1:
        mags = rng.uniform(0.2, 1.1, dim)
        phases = rng.uniform(0.0, 2.0 * math.pi, dim)
        return Diagonal(mags * np.exp(1j * phases)), "diag"
    if idx == 2:
        g = _complex_array(rng, (dim, dim))
        return Dense(_scaled_to_norm(g, norm, 0.8)), "dense"
    return Zero(), "zero"


def _corpus_perturbation(rng, idx: int, dim: int, rank: int, norm: NormKind):
    target = float(rng.uniform(0.5, 2.5))
    if idx == 0:
        left = _complex_array(rng, dim)
        right = _complex_array(rng, dim)
        outer = np.outer(left, right)
        left = left * (target / induced_norm(outer, norm))
        return RankOne(left, right), "rankone", 1
    if idx == 1:
        values = np.zeros(dim, dtype=complex)
        spots = rng.choice(dim, size=rank, replace=False)
        values[spots] = _complex_array(rng, rank)
        values *= target / float(np.max(np.abs(values)))
        return Diagonal(values), "sparsediag", rank
    m = np.zeros((dim, dim), dtype=complex)
    for _ in range(rank):
        m += np.outer(_complex_array(rng, dim), _complex_array(rng, dim))
    return Dense(_scaled_to_norm(m, norm, target)), "lowrank", rank


def regression_corpus(seed: int = 0) -> tuple[CorpusEntry, ...]:
    """36 deterministic models: dims 8-64, all norms, perturbation ranks 1-4."""
    rng = np.random.default_rng(seed)
    dims = (8, 10, 12, 16, 20, 24, 32, 40, 48, 64)
    norms = (NormKind.L1, NormKind.L2, NormKind.LINF)
    entries = []
    for i in range(36):
        dim = dims[i % len(dims)]
        norm = norms[i % len(norms)]
        base, base_tag = _corpus_base(rng, i % 4, dim, norm)
        pert, pert_tag, rank = _corpus_perturbation(rng, i % 3, dim, 1 + (i % 4), norm)
        model = OperatorModel(dim=dim, norm=norm, base=base, perturbation=pert)
        name = f"m{i:02d}-{base_tag}-{pert_tag}{rank}-{norm.value}-d{dim}"
        entries.append(CorpusEntry(name=name, model=model))
    return tuple(entries)


def sweep_radii(norm_l0: float, norm_k: float) -> list[float]:
    """Ten admissible target radii from just above ||L0|| to past ||L||."""
    step = (norm_k + 1.0) / 10
    return [norm_l0 + i * step for i in range(1, 11)]


# --- small independent oracles ---------------------------------------------


def _bisect_w(x: float) -> float:
    # second route to the Lambert function: w e^w - x is increasing in w
    if x == 0.0:
        return 0.0
    lo, hi = 0.0, max(1.0, math.log(max(x, 1.0)) + 1.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) - x > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _grid_max(f: Callable, lo: float, hi: float) -> float:
    # dense grid, evaluated by f as one array, followed by golden-section
    # refinement of the best cell, evaluated by f one float at a time
    ts = np.linspace(lo, hi, 4001)[1:-1]
    vals = f(ts)
    k = int(np.argmax(vals))
    best = float(vals[k])
    a = float(ts[max(0, k - 1)])
    b = float(ts[min(len(ts) - 1, k + 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(150):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
    return float(max(best, fc, fd))


def _spectrum_of(values) -> Spectrum:
    vals = np.asarray(values, dtype=complex)
    return Spectrum(vals, np.ones(len(vals), dtype=int))


# --- suites -----------------------------------------------------------------


def suite_lambert(seed: int = 0) -> SuiteResult:
    """Defining residual, monotonicity, and a bisection cross-check."""
    log = _Log()
    xs = np.concatenate(([0.0], np.geomspace(1e-12, 1e6, 999)))
    prev_w = -1.0
    for x in xs:
        x = float(x)
        w = lambert_w(x)
        residual = abs(w * math.exp(w) - x)
        log.check(residual <= 1e-13 * max(1.0, x),
                  kind="residual", x=x, w=w, residual=residual)
        log.check(w > prev_w, kind="monotone", x=x, w=w, previous=prev_w)
        prev_w = w
    rng = np.random.default_rng(seed)
    for x in rng.uniform(0.0, 50.0, 40):
        x = float(x)
        reference = _bisect_w(x)
        w = lambert_w(x)
        log.check(abs(w - reference) <= 1e-10 * max(1.0, reference),
                  kind="bisection", x=x, w=w, reference=reference)
    return log.result("lambert")


_PHI_P_GRID = (0.5, 1.0, 2.0, 3.0)
_PHI_X_GRID = tuple(i / 10.0 for i in range(1, 10))


def suite_phi(seed: int = 0) -> SuiteResult:
    """Closed form against grid maximization, envelope dominance, limits."""
    log = _Log()
    for p in _PHI_P_GRID:
        log.check(phi_p(p, 0.0) == p * math.e, kind="zero_limit", p=p)
        previous = 0.0
        for x in _PHI_X_GRID:
            value = phi_p(p, x)
            # the profile is the reciprocal of the largest (t-x)^p log(1/t)
            peak = _grid_max(lambda t: (t - x) ** p * np.log(1.0 / t), x, 1.0)
            reference = 1.0 / peak
            log.check(abs(value - reference) <= 1e-6 * reference,
                      kind="maximization", p=p, x=x, value=value,
                      reference=reference)
            envelope = phi_p_envelope(p, x)
            log.check(value <= envelope + 1e-9,
                      kind="envelope", p=p, x=x, value=value, envelope=envelope)
            log.check(value > previous, kind="monotone", p=p, x=x, value=value)
            previous = value
            # the optimizing radius must reproduce the same peak value
            t_opt = t_star(p, x, 1.0)
            direct = (t_opt - x) ** p * math.log(1.0 / t_opt)
            log.check(abs(direct * value - 1.0) <= 1e-9,
                      kind="t_star_consistency", p=p, x=x, t=t_opt)
    log.check(abs(phi_p(1.0, 1e-9) - math.e) <= 1e-6,
              kind="limit_approach", p=1.0, x=1e-9)
    return log.result("phi")


def suite_koenig(seed: int = 0) -> SuiteResult:
    """Eigenvalue p-sums stay below the approximation-number p-sums, 300 trials."""
    log = _Log()
    rng = np.random.default_rng(seed)
    p_values = (0.5, 1.0, 2.0)
    for trial in range(300):
        dim = int(rng.integers(2, 17))
        scale = float(rng.uniform(0.1, 3.0))
        m = _complex_array(rng, (dim, dim), scale / math.sqrt(dim))
        p = p_values[trial % 3]
        lhs, rhs = koenig_check(m, p)
        log.check(lhs <= rhs + 1e-9 * max(1.0, rhs),
                  kind="koenig", trial=trial, dim=dim, p=p, lhs=lhs, rhs=rhs,
                  matrix=m)
    return log.result("koenig")


def _winding_cases(rng, count: int):
    # models whose perturbation throws a few eigenvalues far from the base
    p_values = (0.5, 1.0, 2.0)
    for i in range(count):
        dim = 12
        base = np.diag(_complex_array(rng, dim, 0.25))
        rank = int(rng.integers(1, 4))
        pairs = [(_complex_array(rng, dim), _complex_array(rng, dim))
                 for _ in range(rank)]
        k = np.zeros((dim, dim), dtype=complex)
        for left, right in pairs:
            k += np.outer(left, right)
        # K is a sum of rank-one terms, so its factors give F = K exactly;
        # the one SVD per case is the norm's
        scale = float(rng.uniform(1.5, 3.0)) / induced_norm(k, NormKind.L2)
        k = k * scale
        f = (np.stack([left for left, _ in pairs], axis=1) * scale,
             np.stack([right for _, right in pairs], axis=1))
        full = base + k
        poles = eigenvalues(base + (k - f[0] @ f[1].T))
        spec = eigenvalues(full)
        order = np.argsort(-np.abs(spec.values), kind="stable")
        picked = 0
        for j in order:
            if picked >= 2:
                break
            center = complex(spec.values[j])
            dist_pole = float(np.min(np.abs(poles.values - center)))
            others = np.abs(spec.values - center)
            others = others[others > 0.0]
            dist_other = float(np.min(others)) if len(others) else math.inf
            radius = 0.45 * min(dist_pole, dist_other)
            if radius < 0.02:
                continue
            inside = [(v, m_) for v, m_ in zip(spec.values, spec.multiplicities)
                      if abs(v - center) < radius]
            expected = int(sum(m_ for _, m_ in inside))
            p = p_values[(i + picked) % 3]
            yield i, full, f, center, radius, expected, p
            picked += 1


def _rank_one_factors(model: OperatorModel) -> tuple[np.ndarray, np.ndarray]:
    pert = model.perturbation
    return pert.left[:, None], pert.right[:, None]


def suite_det(seed: int = 0) -> SuiteResult:
    """Determinant anchors, the scalar envelope, growth bound, and windings."""
    log = _Log()
    rng = np.random.default_rng(seed)

    # regularized-determinant anchors
    log.check(abs(det_regularized(_spectrum_of([]), 3) - 1.0) == 0.0,
              kind="empty_product")
    log.check(det_regularized(_spectrum_of([1.0]), 2) == 0.0,
              kind="unit_eigenvalue")
    anchor = det_regularized(_spectrum_of([0.5, 0.5]), 2)
    log.check(abs(anchor - 0.25 * math.e) <= 1e-12, kind="half_pair",
              value=anchor)

    # order 1 agrees with the plain product when no factor nearly vanishes
    for trial in range(50):
        size = int(rng.integers(1, 13))
        radii = 3.0 * np.sqrt(rng.uniform(0.0, 1.0, size))
        angles = rng.uniform(0.0, 2.0 * math.pi, size)
        eigs = radii * np.exp(1j * angles)
        eigs[np.abs(eigs - 1.0) < 0.1] += 0.25
        plain = complex(np.prod(1.0 - eigs))
        value = det_regularized(_spectrum_of(eigs), 1)
        log.check(abs(value - plain) <= 1e-10 * max(abs(plain), abs(value)),
                  kind="order_one", trial=trial, value=value, plain=plain)

    # scalar envelope dominance over the sampling disk
    radii = 50.0 * np.sqrt(rng.uniform(0.0, 1.0, 1000))
    angles = rng.uniform(0.0, 2.0 * math.pi, 1000)
    lams = radii * np.exp(1j * angles)
    for p in (0.5, 1.0, 1.5, 2.0, 3.0):
        gamma = gamma_p_upper(p)
        n = math.ceil(p)
        for lam in lams:
            lam = complex(lam)
            lhs = scalar_factor_log(lam, n)
            rhs = gamma.value * abs(lam) ** p
            log.check(lhs <= rhs + 1e-9, kind="gamma_dominance", p=p, lam=lam,
                      lhs=lhs, rhs=rhs, gamma=gamma.value)

    # shift example: determinant equals the truncated coefficient series
    model, analytic = shift_example([2.0], 50)
    l0, k = materialize(model)
    f = _rank_one_factors(model)
    anchors = np.array([3.0 + 0.0j, 2.0 + 1.0j, -4.0 + 0.0j])
    samples = perturbation_determinant(l0 + k, f, anchors, 1.0)
    for lam, value in zip(anchors, samples.value):
        lam, value = complex(lam), complex(value)
        log.check(abs(value - analytic(lam)) <= 1e-8,
                  kind="shift_anchor", lam=lam, value=value,
                  analytic=analytic(lam))
    coeffs = rng.uniform(-1.0, 1.0, 20)
    model, analytic = shift_example(coeffs, 200)
    l0, k = materialize(model)
    f = _rank_one_factors(model)
    sample_radii = rng.uniform(1.2, 4.0, 50)
    sample_angles = rng.uniform(0.0, 2.0 * math.pi, 50)
    lams = sample_radii * np.exp(1j * sample_angles)
    samples = perturbation_determinant(l0 + k, f, lams, 1.0)
    for lam, value in zip(lams, samples.value):
        lam, value = complex(lam), complex(value)
        expected = analytic(lam)
        log.check(abs(value - expected) <= 1e-8 * max(1.0, abs(expected)),
                  kind="shift_random", lam=lam, value=value,
                  analytic=expected)

    # growth bound on circles, exact alpha mode
    entries = [e for e in regression_corpus(seed)
               if e.model.norm is NormKind.L2 and e.model.dim <= 24][:4]
    for which, entry in enumerate(entries):
        prep = entry.prepared
        l0, k = prep.l0, prep.k
        rank = prep.alpha.rank
        p = (1.0, 2.0)[which % 2]
        for n_rank in {rank, max(0, rank - 2)}:
            factors = rank_n_factors(k, n_rank, NormKind.L2)
            for t in (prep.norm_l0 + prep.norm_k + 0.25,
                      prep.norm_l0 + 2.0 * prep.norm_k + 1.0):
                lams = np.array([
                    t * complex(math.cos(theta), math.sin(theta))
                    for theta in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)])
                rhs = det_bound_rhs(prep, factors, lams, p, n_rank)
                samples = perturbation_determinant(l0 + k, factors, lams, p)
                for lam, log_abs, bound in zip(lams, samples.log_abs, rhs):
                    log.check(log_abs <= bound + 1e-9,
                              kind="det_bound", model=entry.name, p=p,
                              n_rank=n_rank, lam=complex(lam), log_abs=log_abs,
                              rhs=bound)

    # winding along pole-free circles counts enclosed eigenvalues
    circles = 0
    for i, full, f, center, radius, expected, p in _winding_cases(rng, 20):
        winding = winding_count(
            lambda lam: perturbation_determinant(full, f, lam, p).value,
            center, radius)
        log.check(winding == expected, kind="winding", case=i, center=center,
                  radius=radius, p=p, winding=winding, expected=expected)
        circles += 1
    log.check(circles >= 10, kind="winding_coverage", circles=circles)
    return log.result("det")


def _sweep_one(entry: CorpusEntry, p_values: Sequence[float], log: _Log) -> None:
    prep = entry.prepared
    for s in sweep_radii(prep.norm_l0, prep.norm_k):
        oracle = eigen_count_outside(prep.spectrum, s)
        for p in p_values:
            phi_report = count_bound_disk(prep, p, s)
            simple_report = count_bound_disk_simple(prep, p, s)
            # the region bound at t_star repeats disk_phi, so exercise the
            # general formula on circles on either side of the optimum
            a = prep.norm_l0 + prep.alpha.value_at(phi_report.n_rank + 1)
            t_opt = phi_report.t_star
            reports = [phi_report, simple_report] + [
                count_bound_region(prep, p, s, t)
                for t in (0.5 * (a + t_opt), 0.5 * (t_opt + s))]
            if prep.norm_l0 == 0.0:
                reports.append(koenig_count_bound(prep, p, s))
            for report in reports:
                log.check(oracle <= report.bound,
                          kind="soundness", model=entry.name,
                          bound_kind=report.kind, p=p, s=s, t=report.t_star,
                          oracle=oracle, bound=report.bound)
            log.check(
                phi_report.bound
                <= simple_report.bound * (1.0 + 1e-12) + 1e-12,
                kind="dominance", model=entry.name, p=p, s=s,
                phi_bound=phi_report.bound, simple_bound=simple_report.bound)


def soundness_sweep(entries: Sequence[CorpusEntry] | None = None,
                    p_values: Sequence[float] = _SWEEP_P,
                    seed: int = 0) -> _Log:
    """Oracle count vs every applicable bound across the corpus sweep grid."""
    if entries is None:
        entries = regression_corpus(seed)
    log = _Log()
    for entry in entries:
        _sweep_one(entry, p_values, log)
    return log


def suite_bounds(seed: int = 0) -> SuiteResult:
    """Soundness sweep, bound identities, optimizer checks, moment identity."""
    entries = regression_corpus(seed)
    log = soundness_sweep(entries)
    rng = np.random.default_rng(seed)

    # the region bound through the optimal circle reproduces the disk bound
    for entry in entries:
        prep = entry.prepared
        s = prep.norm_l0 + 0.5 * (prep.norm_k + 1.0)
        dim = entry.model.dim
        t = t_star(1.0, prep.norm_l0, s)
        disk = count_bound_disk(prep, 1.0, s, n_rank=dim)
        region = count_bound_region(prep, 1.0, s, t, n_rank=dim)
        log.check(abs(disk.bound - region.bound) <= 1e-9 * max(disk.bound, 1e-300),
                  kind="region_disk_identity", model=entry.name,
                  disk=disk.bound, region=region.bound)

    # optimizer stationarity and grid domination
    p_pool = (0.5, 1.0, 2.0, 3.0)
    for trial in range(100):
        p = p_pool[trial % 4]
        a = float(rng.uniform(0.0, 3.0))
        s = a + float(rng.uniform(0.1, 4.0))
        t = t_star(p, a, s)
        log.check(a < t < s, kind="t_star_interior", p=p, a=a, s=s, t=t)
        derivative = (-((t - a) ** p) / t
                      + p * math.log(s / t) * (t - a) ** (p - 1.0))
        log.check(abs(derivative) <= 1e-8, kind="t_star_stationarity",
                  p=p, a=a, s=s, t=t, derivative=derivative)
        if trial % 5 == 0:
            peak = math.log(s / t) * (t - a) ** p
            for grid_t in np.linspace(a, s, 102)[1:-1]:
                grid_t = float(grid_t)
                value = math.log(s / grid_t) * (grid_t - a) ** p
                log.check(peak >= value - 1e-12 * max(1.0, abs(peak)),
                          kind="t_star_domination", p=p, a=a, s=s,
                          t=grid_t, peak=peak, value=value)

    # counting measure integrates to the moment sum, piece by piece
    for entry in entries:
        prep = entry.prepared
        curve = count_curve(prep.spectrum)
        for q in (1.5, 2.0, 3.0):
            lhs = moment_from_curve(curve, prep.norm_l0, q)
            rhs = moment_sum(prep.spectrum, prep.norm_l0, q)
            log.check(abs(lhs - rhs) <= 1e-9 * max(lhs, rhs, 1e-12),
                      kind="moment_identity", model=entry.name, q=q,
                      integral=lhs, direct=rhs)

    # moment bound soundness on admissible exponents
    for entry in entries:
        prep = entry.prepared
        pairs = [(1.0, 2.5), (0.5, 2.0)]
        if prep.norm_l0 == 0.0:
            pairs.append((1.0, 1.5))
        for p, q in pairs:
            bound = moment_bound(prep, p, q)
            direct = moment_sum(prep.spectrum, prep.norm_l0, q)
            log.check(direct <= bound + 1e-9 * max(1.0, bound),
                      kind="moment_soundness", model=entry.name, p=p, q=q,
                      direct=direct, bound=bound)

    # ||L0|| = 0: the full-rank disk bound collapses to the classical form
    for entry in entries:
        prep = entry.prepared
        if prep.norm_l0 != 0.0:
            continue
        dim = entry.model.dim
        s = 0.5 * (prep.norm_k + 1.0)
        for p in (0.5, 1.0, 2.0):
            report = count_bound_disk(prep, p, s, n_rank=dim)
            expected = (p * math.e * gamma_p_upper(p).c_p / s ** p
                        * prep.alpha.head_power_sum(p, dim))
            log.check(abs(report.bound - expected) <= 1e-9 * max(expected, 1e-300),
                      kind="compact_recovery", model=entry.name, p=p, s=s,
                      bound=report.bound, expected=expected)
    return log.result("bounds")


def suite_jensen(seed: int = 0) -> SuiteResult:
    """Zero counts of disk functions against the boundary supremum."""
    log = _Log()
    verdict = jensen_check(lambda w: 1.0 - 2.0 * w, [0.5])
    log.check(verdict.ok, kind="linear", log_sup=verdict.log_sup)
    log.check(abs(verdict.log_sup - math.log(3.0)) <= 1e-6,
              kind="linear_sup", log_sup=verdict.log_sup)
    verdict = jensen_check(lambda w: 1.0 + 0.0 * w, [])
    log.check(verdict.ok and abs(verdict.log_sup) <= 1e-12,
              kind="constant", log_sup=verdict.log_sup)
    verdict = jensen_check(
        lambda w: (1.0 - 2.0 * w) * (1.0 - (10.0 / 9.0) * w), [0.5, 0.9])
    log.check(verdict.ok, kind="quadratic", log_sup=verdict.log_sup)

    rng = np.random.default_rng(seed)
    for trial in range(30):
        count = int(rng.integers(1, 6))
        mags = rng.uniform(0.15, 0.9, count)
        phases = rng.uniform(0.0, 2.0 * math.pi, count)
        zeros = mags * np.exp(1j * phases)

        def h(w, z=zeros):
            return np.prod(1.0 - w[:, None] / z, axis=-1)

        verdict = jensen_check(h, zeros)
        log.check(verdict.ok, kind="random_product", trial=trial, zeros=zeros,
                  log_sup=verdict.log_sup, worst_r=verdict.worst_r,
                  worst_margin=verdict.worst_margin)
    return log.result("jensen")


_SUITES = {name: globals()[f"suite_{name}"] for name in SUITE_NAMES}


def run_suites(names: Sequence[str], seed: int = 0,
               tol: Tolerances = DEFAULT) -> list[SuiteResult]:
    """Run the named suites in canonical order; 'all' expands to every suite.

    BLAS runs at the process's thread count. The CLI's verify starts on
    one OpenBLAS thread, since the suites' matrices have dim 8-200, where a
    second thread only spins; a library caller that wants the same sets
    OPENBLAS_NUM_THREADS=1 before numpy is first imported.
    tol is accepted for callers that pass it (bench/traced.py) and must be
    DEFAULT, the only tolerances the suites use; any other value raises
    ValueError instead of being ignored.
    """
    if tol != DEFAULT:
        raise ValueError(f"run_suites uses DEFAULT tolerances only, got {tol!r}")
    expanded: list[str] = []
    for name in names:
        if name == "all":
            expanded.extend(SUITE_NAMES)
        elif name in _SUITES:
            expanded.append(name)
        else:
            raise ValueError(
                f"unknown suite {name!r}; choose from: all, {', '.join(SUITE_NAMES)}")
    return [_SUITES[name](seed=seed) for name in expanded]
