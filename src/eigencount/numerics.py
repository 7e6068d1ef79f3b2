"""Dense complex linear algebra: spectra, singular values, induced norms, resolvents.

A square complex numpy array is read as the matrix of an operator on
(C^n, ||.||) for one of the three classical vector norms. Eigen- and
singular-value work is delegated to LAPACK via numpy.linalg; this module
adds the multiset view of a spectrum (clustered multiplicities), exact
induced norms, and residual-checked solves, resolvents and resolvent norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import DEFAULT
from .errors import EigenvalueError, MatrixError, SingularResolventError

__all__ = [
    "NormKind",
    "Spectrum",
    "as_matrix",
    "cluster_radius",
    "eigenvalues",
    "singular_values",
    "numerical_rank",
    "singular_value_rank",
    "induced_norm",
    "resolvent",
    "resolvent_norms",
    "shifted_solve",
    "point_blocks",
]

_STACK_BYTES = 1 << 20  # one block of stacked dim x dim complex matrices stays under 1 MB


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


def _scaled_by_peak(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # each matrix of a complex stack, flattened, times 2^-exponent for the
    # power of two of its largest real or imaginary part (at least 2^-1020, so
    # that the scale stays finite). The scaling is exact, and sums of squares of
    # the result neither overflow (entries past about 1e154) nor underflow.
    flat = np.ascontiguousarray(stack).reshape(len(stack), -1)
    peak = np.max(np.abs(flat.view(np.float64)), axis=1)
    exponent = np.maximum(np.frexp(peak)[1], -1020)
    return flat * np.ldexp(1.0, -exponent)[:, None], exponent


def _frobenius(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # ||.||_F of each matrix of a complex stack as fraction * 2^exponent, the
    # fraction in [0.5, 1) unless it is 0 or the matrix is not finite. One dot
    # product per matrix, taken again after _scaled_by_peak where the sum of
    # squares overflowed or is small enough to have lost terms to underflow.
    flat = np.ascontiguousarray(stack).reshape(len(stack), -1)
    parts = flat.view(np.float64)
    squares = np.einsum("ij,ij->i", parts, parts)
    exponent = np.zeros(len(flat), dtype=int)
    redo = np.flatnonzero(~((squares >= 2.0 ** -960) & (squares < math.inf)))
    if len(redo):
        scaled, exponent[redo] = _scaled_by_peak(flat[redo])
        parts = scaled.view(np.float64)
        squares[redo] = np.einsum("ij,ij->i", parts, parts)
    fraction, shift = np.frexp(np.sqrt(squares))
    return fraction, exponent + shift


def cluster_radius(m) -> float:
    """``DEFAULT.cluster_rtol * ||m||_F``, finite for every finite m.

    The Frobenius norm is taken of m scaled by the power of two of its
    largest real or imaginary part, which is exact, so that it neither
    overflows nor underflows.
    """
    flat, exponent = _scaled_by_peak(as_matrix(m)[None])
    scaled = float(np.linalg.norm(flat[0]))
    return math.ldexp(DEFAULT.cluster_rtol * scaled, int(exponent[0]))


def eigenvalues(m) -> Spectrum:
    """Clustered spectrum of m.

    The raw eigenvalues come from the dense LAPACK solver; values closer
    than cluster_radius(m) are merged and reported once with their
    combined multiplicity.
    """
    m = as_matrix(m)
    try:
        raw = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise EigenvalueError(f"eigenvalue iteration failed to converge: {exc}",
                              matrix=m) from exc
    return _cluster(raw, cluster_radius(m))


def _as_matrices(m) -> np.ndarray:
    # a finite complex matrix of any non-empty shape, or a (k, rows, cols) stack
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or 0 in m.shape[-2:]:
        raise MatrixError(f"expected a matrix or a stack of matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise MatrixError("matrix entries must be finite")
    return m


def singular_values(m) -> np.ndarray:
    """Singular values of m, non-increasing; one row per matrix of a stack.

    m may be rectangular, as numpy's SVD takes it: min(rows, cols) values."""
    m = _as_matrices(m)
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


def induced_norm(m, kind: NormKind):
    """Operator norm of m induced by the given vector norm.

    l1 is the largest absolute column sum, linf the largest absolute row
    sum, and l2 the largest singular value (no power iteration). m may be
    rectangular, a map between spaces carrying the same kind of norm. A
    (k, rows, cols) stack gives the k norms as an array.
    """
    m = _as_matrices(m)
    if kind is NormKind.L1:
        norms = np.max(np.sum(np.abs(m), axis=-2), axis=-1)
    elif kind is NormKind.LINF:
        norms = np.max(np.sum(np.abs(m), axis=-1), axis=-1)
    else:
        norms = singular_values(m)[..., 0]
    return float(norms) if m.ndim == 2 else norms


def point_blocks(count: int, dim: int):
    """Slices of range(count) whose dim x dim complex stacks fit _STACK_BYTES."""
    step = max(1, _STACK_BYTES // (16 * dim * dim))
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def resolvent(m, lam) -> np.ndarray:
    """Inverse of (lam - m), residual-checked as in shifted_solve.

    A 1-D array of lam gives the (k, dim, dim) stack of inverses; callers
    bound its size with point_blocks.
    """
    m = as_matrix(m)
    return shifted_solve(m, lam, np.eye(m.shape[0], dtype=complex))


def resolvent_norms(m, lams, kind: NormKind) -> np.ndarray:
    """||(lam - m)^{-1}|| in the norm induced by kind, at each lam of a 1-D array.

    The resolvents are residual-checked, one point_blocks stack at a time: in
    every norm, SingularResolventError names the first lam on the spectrum."""
    m = as_matrix(m)
    lams = np.asarray(lams, dtype=complex)
    norms = np.empty(len(lams))
    for block in point_blocks(len(lams), m.shape[0]):
        norms[block] = induced_norm(resolvent(m, lams[block]), kind)
    return norms


def shifted_solve(m, lam, rhs: np.ndarray) -> np.ndarray:
    """X with (lam - m) X = rhs, for a dim x r right-hand side.

    lam is a scalar, or a 1-D array for which the (k, dim, r) stack of
    solutions is returned; the shifted matrices are built and solved
    point_blocks at a time. The residual ||(lam - m) X - rhs||_F must stay
    below resolvent_rtol times the larger of ||rhs||_F and the condition
    proxy ||lam - m||_F ||X||_F at every lam, and X must be finite; otherwise,
    or when the solve fails, SingularResolventError names the first such lam.
    The check runs on power-of-two scaled norms, so it holds at every scale.
    """
    m = as_matrix(m)
    lams = np.asarray(lam, dtype=complex)
    if lams.ndim > 1:
        raise ValueError(f"lam must be a scalar or a 1-D array, got shape {lams.shape}")
    rhs_norm = _frobenius(np.asarray(rhs, dtype=complex)[None])
    blocks = list(point_blocks(lams.size, m.shape[0]))
    if len(blocks) == 1:  # one block is returned as solved, without a copy
        x = _solve_block(m, lams.reshape(-1), rhs, rhs_norm)
        return x.reshape(lams.shape + np.shape(rhs))
    x = np.empty((len(lams),) + np.shape(rhs), dtype=complex)
    for block in blocks:
        x[block] = _solve_block(m, lams[block], rhs, rhs_norm)
    return x


def _solve_block(m: np.ndarray, lams: np.ndarray, rhs: np.ndarray,
                 rhs_norm: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    a = lams[:, None, None] * np.eye(m.shape[0], dtype=complex) - m
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        if len(lams) > 1:
            # some matrix of the block is singular; point by point names the first
            return np.concatenate([_solve_block(m, lams[j:j + 1], rhs, rhs_norm)
                                   for j in range(len(lams))])
        lam = complex(lams[0])
        raise SingularResolventError(
            f"lambda = {lam} is an eigenvalue; resolvent does not exist", lam=lam
        ) from exc
    residual, exponent = _frobenius(a @ x - rhs)
    norm_a, exponent_a = _frobenius(a)
    norm_x, exponent_x = _frobenius(x)
    # the allowance in units of 2^exponent: as the fractions lie below 1, a
    # shift clipped to 900 binades decides the same comparison, and no product
    # of norms can overflow
    allowed = DEFAULT.resolvent_rtol * np.maximum(
        np.ldexp(rhs_norm[0], np.clip(rhs_norm[1] - exponent, -900, 900)),
        np.ldexp(norm_a * norm_x, np.clip(exponent_a + exponent_x - exponent, -900, 900)))
    # a NaN residual or a non-finite X fails too
    bad = np.flatnonzero(~(residual <= allowed) | ~np.isfinite(norm_x))
    if len(bad):
        j = int(bad[0])
        lam = complex(lams[j])
        raise SingularResolventError(
            f"lambda = {lam} is within tolerance of the spectrum "
            f"(residual {residual[j]:.3e} vs allowed {allowed[j]:.3e}, "
            f"in units of 2^{exponent[j]})",
            lam=lam,
        )
    return x
