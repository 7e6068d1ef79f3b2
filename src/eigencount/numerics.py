"""Dense complex linear algebra: spectra, singular values, induced norms, resolvents.

A square complex numpy array is read as the matrix of an operator on
(C^n, ||.||) for one of the three classical vector norms. Eigen- and
singular-value work is delegated to LAPACK via numpy.linalg; this module
adds the multiset view of a spectrum (clustered multiplicities), exact
induced norms, residual-checked solves, resolvents and resolvent norms, and
certified low-rank sketches that stand in for the SVD of a low-rank matrix.
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
    "LowRankSketch",
    "low_rank_sketch",
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


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalue multiset of a square matrix; == is identity.

    ``values[i]`` is the representative of cluster i and carries
    ``multiplicities[i]`` eigenvalues; multiplicities sum to the dimension.
    ``radius`` is the distance within which eigenvalues were merged:
    ``cluster_radius(m)`` for the spectrum ``eigenvalues(m)``, 0 for one
    listed by hand. A count of the eigenvalues at a point, or of the
    nonzero ones, reads the clusters to this radius.
    """

    values: np.ndarray
    multiplicities: np.ndarray
    radius: float = 0.0

    def __post_init__(self):
        if len(self.values) != len(self.multiplicities):
            raise MatrixError("values and multiplicities must align")
        if len(self.values) and int(np.min(self.multiplicities)) < 1:
            raise MatrixError("multiplicities must be positive")
        if not (0.0 <= self.radius < math.inf):
            raise MatrixError(f"clustering radius must be finite and non-negative, "
                              f"got {self.radius}")

    @property
    def dim(self) -> int:
        return int(np.sum(self.multiplicities))

    def flat(self) -> np.ndarray:
        """All eigenvalues, each repeated by its multiplicity."""
        return np.repeat(self.values, self.multiplicities)


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
    return Spectrum(np.asarray(reps, dtype=complex), np.asarray(counts, dtype=int), radius)


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
    combined multiplicity; the Spectrum keeps that radius.
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
    norms = singular_values(m)[..., 0] if kind is NormKind.L2 else _norm_bound(m, kind)
    return float(norms) if m.ndim == 2 else norms


def _norm_bound(m: np.ndarray, kind: NormKind):
    # ||m|| induced by kind on l1 and linf, and on l2 the bound sqrt(||m||_1 ||m||_inf)
    # (Higham 2002, sec. 6.3), which takes no SVD; a stack gives one bound per matrix
    a = np.abs(m)
    if kind is NormKind.L1:
        return np.max(np.sum(a, axis=-2), axis=-1)
    if kind is NormKind.LINF:
        return np.max(np.sum(a, axis=-1), axis=-1)
    return (np.sqrt(np.max(np.sum(a, axis=-2), axis=-1))
            * np.sqrt(np.max(np.sum(a, axis=-1), axis=-1)))


_LANCZOS_SEED = 20140602  # the fixed start vector of the Lanczos estimate
_LANCZOS_STEPS = 64       # at most this many Lanczos steps
_LANCZOS_RTOL = 2.0 ** -40  # stop once the top Ritz value's error estimate is this small
_LANCZOS_CHECK = 4        # steps between two such estimates
_CHOLESKY_RUNGS = 4       # factorizations tried before the last rung
_RUNG_GROWTH = 1.0 + 2.0 ** -20  # a failed factorization multiplies tau^2 by this
_UNDERFLOW = 2.0 ** -1022  # the smallest normal float: what one underflow can lose


def _up(x: float) -> float:
    # the next float above x: at or above the exact result of the one rounded
    # operation that gave x
    return math.nextafter(x, math.inf)


def _lanczos_top(gram: np.ndarray) -> tuple[float, float]:
    # an estimate of lambda_max of the Hermitian gram: its top Ritz value theta
    # and an estimate of lambda_max - theta, min(r, r^2 / gap), for the residual
    # norm r of the top Ritz pair and its gap to the next Ritz value (Parlett,
    # The Symmetric Eigenvalue Problem, 1998, ch. 11). Lanczos from a
    # fixed-seed start, each three-term step followed by one classical
    # Gram-Schmidt pass against the whole basis (full reorthogonalization),
    # stops after _LANCZOS_STEPS steps, on an invariant subspace, or once the
    # estimate, taken every _LANCZOS_CHECK steps, is at most _LANCZOS_RTOL theta.
    # _proven_l2_norm certifies what it uses
    dim = gram.shape[0]
    steps = min(dim, _LANCZOS_STEPS)
    rng = np.random.default_rng(_LANCZOS_SEED)
    basis = np.empty((steps, dim), dtype=complex)
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    basis[0] = start / np.linalg.norm(start)
    diagonal, offdiagonal = [], []
    for j in range(steps):
        w = gram @ basis[j]
        diagonal.append(float(np.vdot(basis[j], w).real))
        w -= diagonal[-1] * basis[j]
        if j:
            w -= offdiagonal[-1] * basis[j - 1]
        w -= basis[:j + 1].T @ (basis[:j + 1] @ w.conj()).conj()
        beta = float(np.linalg.norm(w))
        if j % _LANCZOS_CHECK == _LANCZOS_CHECK - 1 or j + 1 == steps or beta == 0.0:
            values, vectors = np.linalg.eigh(
                np.diag(diagonal) + np.diag(offdiagonal, 1) + np.diag(offdiagonal, -1))
            theta, residual = float(values[-1]), beta * abs(float(vectors[-1, -1]))
            gap = theta - float(values[-2]) if j else 0.0
            error = min(residual, residual * residual / gap) if gap > 0.0 else residual
            if j + 1 == steps or error <= _LANCZOS_RTOL * theta:
                break
        offdiagonal.append(beta)
        basis[j + 1] = w / beta
    return theta, error


def _proven_l2_norm(m: np.ndarray) -> float:
    """A proven upper bound tau >= ||m||_2 for a square finite complex m.

    m is scaled by the power of two of its largest real or imaginary part
    (_scaled_by_peak) to A, so that nothing below overflows. G = A^H A is
    formed once, and _lanczos_top estimates lambda_max(G) as theta plus an
    error estimate e. The first rung is t = (theta + e)(1 + 2c), for the c
    below; each time the Cholesky factorization of M = fl(t I - G^) fails, t
    grows by _RUNG_GROWTH, for at most _CHOLESKY_RUNGS factorizations. Once
    one completes, lambda_max(G) <= t (1 + c) + 4 n (n + 1)(2 + t) 2^-1022
    (u = 2^-53, g = sqrt(2) gamma_{2n+2}):

    - Gram rounding (Higham 2002, secs. 3.5-3.6): Re G^ is a real product of
      inner length 2n and Im G^ = B^ - B^T with B = (Re A)^T Im A of inner
      length n, so |G^ - G| <= g |A|^H |A| entrywise, and
      || |A|^H |A| ||_2 <= ||A||_F^2 <= sum_i G^_ii / (1 - g).
    - Forming M: only the diagonal rounds, M = t I - G^ + D with
      |D_ii| <= u t, as 0 <= G^_ii < t once the factorization completes (a
      pivot M_ii <= 0 stops it).
    - Cholesky backward error (Higham 2002, Thm 10.3, whose bound holds in
      any summation order, so for a blocked LAPACK factorization too; Rump,
      BIT 46, 2006): the computed R has R^H R = M + dM with |dM| <= g |R^H| |R|
      in complex arithmetic, and || |R^H| |R| ||_2 <= sum_i ||r_i||^2 <=
      sum_i M_ii / (1 - g) over the columns r_i of R. As R^H R is positive
      semidefinite, G <= t I + D + dM + (G - G^), and sum_i (G^_ii + M_ii)
      <= n t (1 + u) gives c = u + n g (1 + u) / (1 - g); c is evaluated with
      a 2^-20 relative margin for its own rounding.
    - Underflow: gradual (or flushed) underflow adds at most 2^-1022 per
      multiplication or division to each entry of G^ and R^H R, the absolute
      term above (Rump 2006 carries one of the same kind).

    tau is the square root of that bound, plus 2n 2^-1022 for what the
    scaling of m lost to underflow (at most 2^-1022 per part of an entry),
    with every operation rounded up by one float, and then scaled back by
    the power of two, rounded up: inf past the largest float. The last rung,
    taken when no factorization completes (or theta + e is not positive), is
    sqrt(||A||_1 ||A||_inf) (Higham 2002, sec. 6.3), which _norm_bound
    computes with relative error below gamma_{n+4}, rounded up the same way.
    A zero matrix gives exactly 0.
    """
    dim = m.shape[0]
    flat, exponent = _scaled_by_peak(m[None])
    a, exponent = flat.reshape(m.shape), int(exponent[0])
    if not a.any():
        return 0.0
    # G = A^H A from real BLAS products: Re G = [Re A; Im A]^T [Re A; Im A] (a
    # symmetric rank-k update), Im G = B - B^T for B = (Re A)^T Im A
    parts = np.concatenate((a.real, a.imag))
    gram = np.empty_like(a)
    gram.real = parts.T @ parts
    cross = parts[:dim].T @ parts[dim:]
    gram.imag = cross - cross.T
    theta, error = _lanczos_top(gram)
    g = math.sqrt(2.0) * _gamma(2 * dim + 2)
    c = (_UNIT + dim * g * (1.0 + _UNIT) / (1.0 - g)) * (1.0 + 2.0 ** -20)
    t = (theta + error) * (1.0 + 2.0 * c)
    shifted = np.negative(gram, out=gram)
    diagonal = shifted.diagonal().copy()
    for _ in range(_CHOLESKY_RUNGS if t > 0.0 else 0):
        np.fill_diagonal(shifted, diagonal + t)
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            t *= _RUNG_GROWTH
            continue
        under = 4.0 * dim * (dim + 1) * (2.0 + t) * _UNDERFLOW
        bound = _up(_up(t * _up(1.0 + c)) + under)
        return _scaled_up(_up(_up(math.sqrt(bound)) + 2 * dim * _UNDERFLOW), exponent)
    last = _up(float(_norm_bound(a, NormKind.L2)) * _up(1.0 + _gamma(dim + 4)))
    return _scaled_up(_up(last + 2 * dim * _UNDERFLOW), exponent)


def _scaled_up(x: float, exponent: int) -> float:
    # x 2^exponent rounded up: a subnormal result, which ldexp rounds to
    # nearest, moves up one float where it fell below; inf past the largest float
    try:
        value = math.ldexp(x, exponent)
    except OverflowError:
        return math.inf
    return _up(value) if math.ldexp(value, -exponent) < x else value


_SKETCH_SEED = 20140601  # the fixed Gaussian test matrix of the sketch
_SKETCH_MIN_WIDTH = 8
_SKETCH_TAIL = 4         # singular values of B at or below the rank threshold
# low_rank_sketch tries widths up to dim / 12: measured over dims 64-1024
# (BENCH_20.json sketch_crossover), every width tried then costs at most half the
# dense SVD it would replace, in total, when none captures the matrix
_SKETCH_DIM_PER_WIDTH = 12
_UNIT = 2.0 ** -53       # unit roundoff of binary64


def _gamma(n: int) -> float:
    # gamma_n = n u / (1 - n u), the rounding factor of n floating-point steps
    return n * _UNIT / (1.0 - n * _UNIT)


@dataclass(frozen=True, eq=False)
class LowRankSketch:
    """K = 2^exponent (Q B + E) for a square K; == is identity.

    q (dim x w) has orthonormal columns up to rounding and b = Q* K 2^-exponent
    (w x dim); sv holds the singular values of b, non-increasing. eta is a
    certified bound on ||E|| in the l1, l2 and linf norms at once, plus
    ||Q*Q - I|| sigma_1(B) as computed, so that sv[j] lies within eta of
    sigma_{j+1}(K 2^-exponent): E moves each singular value by at most ||E||_2,
    and |sigma_j(Q B) - sigma_j(B)| <= ||Q*Q - I|| sigma_j(B).
    """

    q: np.ndarray
    b: np.ndarray
    sv: np.ndarray
    eta: float
    exponent: int

    @property
    def width(self) -> int:
        return self.q.shape[1]

    def singular_values(self) -> np.ndarray:
        """Stand-ins for the dim singular values of K, non-increasing: max(sigma_j(B), eta)
        up to the width, and eta past it, where sigma_j(K) <= ||E|| (Q B has rank w)."""
        dim = self.q.shape[0]
        return np.ldexp(np.maximum(np.pad(self.sv, (0, dim - self.width)), self.eta),
                        self.exponent)


def low_rank_sketch(m) -> LowRankSketch | None:
    """A sketch m = Q B + E that stands in for the SVD of m, or None.

    The widths 8, 16, 32, ... up to dim / 12 are tried until one captures m:
    at least 4 singular values of B lie at or below rank_rtol * sigma_1(B), and
    eta lies below that threshold too. Then m has the numerical rank
    singular_value_rank(sv), as its SVD would give it. Each width is cut to
    the rank of its B plus 4 before it is certified, which keeps the count
    kernel's determinant small; so a wider rung cuts to the same sketch, and the
    ladder stops at the first capture. That sketch is returned when eta is also
    at most dim * eps * sigma_1(B), the scale of the SVD's own backward error,
    so that sv stands in for the SVD's values as closely as the SVD's own do;
    otherwise None. Each width costs a few products of m with dim x w matrices,
    SVDs of B and no dim x dim factorization. All of it runs on m scaled by the
    power of two of its largest real or imaginary part, which is exact, so no
    product overflows or loses terms to underflow.
    """
    m = as_matrix(m)
    dim = m.shape[0]
    sketch = _sketch_ladder(m, dim // _SKETCH_DIM_PER_WIDTH)
    if sketch is None or not sketch.eta <= dim * float(np.finfo(float).eps) * sketch.sv[0]:
        return None
    return sketch


def _sketch_ladder(m: np.ndarray, top: int) -> LowRankSketch | None:
    # the first sketch of width 8, 16, ... up to top that captures m, or None
    width = _SKETCH_MIN_WIDTH
    if width > min(top, m.shape[0]):
        return None
    flat, exponent = _scaled_by_peak(m[None])
    scaled, exponent = flat.reshape(m.shape), int(exponent[0])
    while width <= min(top, m.shape[0]):
        sketch = _sketch(scaled, width, exponent)
        if _captures(sketch):
            return sketch
        width *= 2
    return None


def _captures(sketch: LowRankSketch) -> bool:
    threshold = DEFAULT.rank_rtol * sketch.sv[0]
    return bool(np.count_nonzero(sketch.sv <= threshold) >= _SKETCH_TAIL
                and sketch.eta < threshold)


def _sketch(m: np.ndarray, width: int, exponent: int) -> LowRankSketch:
    # the certified sketch of m = K 2^-exponent at `width`, captured or not, cut
    # to the rank of B plus 4 where that is narrower. Omega's first n columns are
    # the same at every width, so Q's first n columns span m Omega[:, :n] and the
    # cut sketch is the one of width n
    dim = m.shape[0]
    omega = np.random.default_rng(_SKETCH_SEED).standard_normal((width, dim)).T
    q, _ = np.linalg.qr(m @ omega)
    b = q.conj().T @ m
    sv = singular_values(b)
    narrow = singular_value_rank(sv) + _SKETCH_TAIL
    if narrow < width:
        q, b, width = q[:, :narrow], b[:narrow], narrow
        sv = singular_values(b)
    # the computed E errs from m - Q B by at most gamma_{w+3} (|m| + |Q| |B|)
    # entrywise: a complex product of length w and one difference (Higham 2002,
    # Thm 3.5 and sec. 3.6); the abs-sums add at most gamma_{dim+w+4} relatively
    # and underflow at most (w + 2) smallest subnormals per entry. max(||.||_1,
    # ||.||_inf) bounds the l2 norm too (Higham 2002, sec. 6.3)
    products = np.abs(q) @ np.abs(b)
    products += np.abs(m)
    norm_e, norm_products = (
        float(max(_norm_bound(a, NormKind.L1), _norm_bound(a, NormKind.LINF)))
        for a in (m - q @ b, products))
    bound = ((norm_e + _gamma(width + 3) * norm_products) * (1.0 + _gamma(dim + width + 4))
             + dim * (width + 2) * float(np.finfo(float).smallest_subnormal))
    # Q's departure from orthonormality, as computed, moves sigma_j(Q B) off sigma_j(B)
    defect = float(_norm_bound(q.conj().T @ q - np.eye(width), NormKind.L2))
    return LowRankSketch(q, b, sv, bound + defect * float(sv[0]), exponent)


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

