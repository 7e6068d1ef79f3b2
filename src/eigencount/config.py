"""The fixed numerical tolerances, in one record, and the verify suites' names.

Each function reads its value from DEFAULT where it is used; none takes
tolerances as an argument except verify.run_suites, whose tol must be
DEFAULT. Every CLI report echoes DEFAULT under ``config.tolerances``.
This module loads no numpy, so the CLI can parse its arguments first.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Every floating-point comparison tolerance in one record.

    Attributes
    ----------
    cluster_rtol : float
        Eigenvalues closer than ``cluster_rtol * ||m||_F`` are merged into
        one cluster whose size is the reported multiplicity.
    rank_rtol : float
        Singular values below ``rank_rtol * sigma_1`` do not count towards
        the numerical rank.
    resolvent_rtol : float
        Acceptable residual ``||(lambda - m) X - B||_F`` of a shifted solve
        (``B = I`` for the resolvent), scaled by the larger of ``||B||_F``
        and the condition proxy ``||lambda - m||_F * ||X||_F``; above it the
        shift is declared numerically singular.
    det_one_tol : float
        ``|1 - eigenvalue|`` below this makes a regularized-determinant
        factor exactly zero.
    contour_min_modulus : float
        Minimum ``|d(lambda)|`` allowed on a winding contour before the
        contour is rejected as passing through a zero.
    normalization_tol : float
        How far ``|h(0)|`` may sit from 1 in the zero-counting check.
    pair_gap_rtol : float
        Slack, relative to ``||K||``, when validating that a supplied rank-N
        approximant F is within its certified distance of the perturbation:
        ``||K - F|| <= alpha_{N+1} + pair_gap_rtol * ||K||``. It scales with
        K, so the check is the same at every scale.
    """

    cluster_rtol: float = 1e-8
    rank_rtol: float = 1e-10
    resolvent_rtol: float = 1e-10
    det_one_tol: float = 1e-14
    contour_min_modulus: float = 1e-12
    normalization_tol: float = 1e-9
    pair_gap_rtol: float = 1e-9


DEFAULT = Tolerances()

# the property suites in their canonical run order (verify._SUITES)
SUITE_NAMES = ("lambert", "phi", "koenig", "det", "bounds", "jensen")
