"""The fixed numerical tolerances, in one record.

Each function reads its value from DEFAULT where it is used; none takes
tolerances as an argument except verify.run_suites, whose tol must be
DEFAULT. Every CLI report echoes DEFAULT under ``config.tolerances``.
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
        Acceptable residual ``||(lambda - m) R - I||_F``, scaled by the
        condition proxy ``||lambda - m||_F * ||R||_F``; above it the shift
        is declared numerically singular.
    det_one_tol : float
        ``|1 - eigenvalue|`` below this makes a regularized-determinant
        factor exactly zero.
    contour_min_modulus : float
        Minimum ``|d(lambda)|`` allowed on a winding contour before the
        contour is rejected as passing through a zero.
    normalization_tol : float
        How far ``|h(0)|`` may sit from 1 in the zero-counting check.
    pair_gap_rtol : float
        Slack when validating that a supplied rank-N approximant is within
        its certified distance of the perturbation.
    """

    cluster_rtol: float = 1e-8
    rank_rtol: float = 1e-10
    resolvent_rtol: float = 1e-10
    det_one_tol: float = 1e-14
    contour_min_modulus: float = 1e-12
    normalization_tol: float = 1e-9
    pair_gap_rtol: float = 1e-9


DEFAULT = Tolerances()
