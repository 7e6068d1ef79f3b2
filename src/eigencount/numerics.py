"""Dense complex linear algebra: spectra, singular values, induced norms, resolvents.

A square complex numpy array is read as the matrix of an operator on
(C^n, ||.||) for one of the three classical vector norms. Eigen- and
singular-value work is delegated to LAPACK via numpy.linalg; this module
adds the multiset view of a spectrum (clustered multiplicities), exact
induced norms, and residual-checked shifted solves and resolvents.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import DEFAULT
from .errors import EigenvalueError, MatrixError, SingularResolventError

__all__ = [
    "NormKind",
    "Spectrum",
    "as_matrix",
    "eigenvalues",
    "singular_values",
    "numerical_rank",
    "singular_value_rank",
    "induced_norm",
    "resolvent",
    "shifted_solve",
]


class NormKind(Enum):
    """The vector norm the ambient space carries."""

    L1 = "l1"
    L2 = "l2"
    LINF = "linf"

    @classmethod
    def parse(cls, tag: str) -> "NormKind":
        for kind in cls:
            if kind.value == tag:
                return kind
        raise ValueError(f"unknown norm tag {tag!r}; expected one of l1, l2, linf")


def as_matrix(entries) -> np.ndarray:
    """Validate and return a square, finite, complex matrix."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise MatrixError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise MatrixError("matrix must have positive dimension")
    if not np.all(np.isfinite(m)):
        raise MatrixError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset of a square matrix.

    ``values[i]`` is the representative of cluster i and carries
    ``multiplicities[i]`` eigenvalues; multiplicities sum to the dimension.
    """

    values: np.ndarray
    multiplicities: np.ndarray

    def __post_init__(self):
        if len(self.values) != len(self.multiplicities):
            raise MatrixError("values and multiplicities must align")
        if len(self.values) and int(np.min(self.multiplicities)) < 1:
            raise MatrixError("multiplicities must be positive")

    @property
    def dim(self) -> int:
        return int(np.sum(self.multiplicities))

    def flat(self) -> np.ndarray:
        """All eigenvalues, each repeated by its multiplicity."""
        return np.repeat(self.values, self.multiplicities)

    def count_where(self, mask) -> int:
        """Total multiplicity of clusters whose representative passes mask."""
        keep = np.fromiter((bool(mask(v)) for v in self.values), dtype=bool,
                           count=len(self.values))
        return int(np.sum(self.multiplicities[keep]))


def _cluster(raw: np.ndarray, radius: float) -> Spectrum:
    # Greedy single-linkage in lexicographic order; deterministic, and exact
    # for the well-separated spectra this package targets.
    order = np.lexsort((raw.imag, raw.real))
    reps: list[complex] = []
    sums: list[complex] = []
    counts: list[int] = []
    for lam in raw[order]:
        if reps:
            dists = np.abs(np.asarray(reps) - lam)
            j = int(np.argmin(dists))
            if dists[j] <= radius:
                sums[j] += lam
                counts[j] += 1
                reps[j] = sums[j] / counts[j]
                continue
        reps.append(lam)
        sums.append(lam)
        counts.append(1)
    return Spectrum(np.asarray(reps, dtype=complex), np.asarray(counts, dtype=int))


def eigenvalues(m) -> Spectrum:
    """Clustered spectrum of m.

    The raw eigenvalues come from the dense LAPACK solver; values closer
    than ``DEFAULT.cluster_rtol * ||m||_F`` are merged and reported once with
    their combined multiplicity.
    """
    m = as_matrix(m)
    try:
        raw = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise EigenvalueError(f"eigenvalue iteration failed to converge: {exc}",
                              matrix=m) from exc
    radius = DEFAULT.cluster_rtol * float(np.linalg.norm(m))
    return _cluster(raw, radius)


def singular_values(m) -> np.ndarray:
    """Singular values of m, non-increasing."""
    m = as_matrix(m)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigenvalueError(f"singular value iteration failed to converge: {exc}",
                              matrix=m) from exc


def numerical_rank(m) -> int:
    """Number of singular values above ``DEFAULT.rank_rtol * sigma_1``."""
    return singular_value_rank(singular_values(m))


def singular_value_rank(sv: np.ndarray) -> int:
    """numerical_rank read off already computed non-increasing singular values."""
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > DEFAULT.rank_rtol * sv[0]))


def induced_norm(m, kind: NormKind) -> float:
    """Operator norm of m induced by the given vector norm.

    l1 is the largest absolute column sum, linf the largest absolute row
    sum, and l2 the largest singular value (no power iteration).
    """
    m = as_matrix(m)
    if kind is NormKind.L1:
        return float(np.max(np.sum(np.abs(m), axis=0)))
    if kind is NormKind.LINF:
        return float(np.max(np.sum(np.abs(m), axis=1)))
    return float(singular_values(m)[0])


def resolvent(m, lam: complex) -> np.ndarray:
    """Inverse of (lam - m), with a condition-scaled residual check.

    Raises SingularResolventError naming lam when lam is an eigenvalue or
    close enough to one that the solve cannot be trusted.
    """
    m = as_matrix(m)
    return shifted_solve(m, lam, np.eye(m.shape[0], dtype=complex))


def shifted_solve(m, lam: complex, rhs: np.ndarray) -> np.ndarray:
    """X with (lam - m) X = rhs, for a dim x r right-hand side.

    The residual ||(lam - m) X - rhs||_F must stay below resolvent_rtol
    times the larger of ||rhs||_F and the condition proxy
    ||lam - m||_F ||X||_F; otherwise, or when the solve fails,
    SingularResolventError names lam.
    """
    m = as_matrix(m)
    a = lam * np.eye(m.shape[0], dtype=complex) - m
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularResolventError(
            f"lambda = {lam} is an eigenvalue; resolvent does not exist", lam=lam
        ) from exc
    residual = float(np.linalg.norm(a @ x - rhs))
    scale = float(np.linalg.norm(a)) * float(np.linalg.norm(x))
    allowed = DEFAULT.resolvent_rtol * max(float(np.linalg.norm(rhs)), scale)
    if residual > allowed:
        raise SingularResolventError(
            f"lambda = {lam} is within tolerance of the spectrum "
            f"(residual {residual:.3e} vs allowed {allowed:.3e})",
            lam=lam,
        )
    return x
