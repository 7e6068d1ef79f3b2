"""Certified upper bounds on eigenvalue counts of perturbed operators.

The library models L = L0 + K on (C^dim, l1/l2/linf), computes
approximation numbers of the perturbation, bounds a regularized
perturbation determinant on circles, and converts determinant growth
into counts of eigenvalues outside disks. Every bound is checkable
against a brute-force eigenvalue oracle, and the verify module ships
seeded suites doing exactly that.

Each public name loads its submodule on first access (PEP 562), so
``import eigencount`` loads no numpy until a name is used. _SUBMODULE is
the one declaration of the public API: each submodule's __all__ is
_exports(__name__).
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it, in __all__ order
_SUBMODULE = {name: module for module, names in {
    "numerics": (
        "NormKind", "Spectrum", "as_matrix", "cluster_radius", "eigenvalues", "singular_values",
        "induced_norm", "numerical_rank", "singular_value_rank", "resolvent",
        "resolvent_norms", "shifted_solve", "LowRankSketch", "low_rank_sketch"),
    "operators": (
        "OperatorModel", "Shift", "Diagonal", "Dense", "Zero", "RankOne",
        "materialize", "parse_spec", "serialize_spec"),
    "approx": (
        "ApproxSequence", "Certainty", "approx_numbers", "rank_n_approximant",
        "rank_n_factors", "koenig_check", "koenig_constant"),
    "determinants": (
        "GammaP", "DetSample", "det_regularized", "det_regularized_log",
        "scalar_factor_log", "gamma_p_upper", "perturbation_determinant", "det_bound_rhs"),
    "bounds": (
        "BoundReport", "Prepared", "prepare", "lambert_w", "phi_p", "t_star",
        "count_bound_disk", "count_bound_disk_simple", "count_bound_region",
        "koenig_count_bound", "certified_rows", "moment_bound", "pseudospectral_epsilon"),
    "oracle": (
        "CountCurve", "eigen_count_outside", "low_rank_count_outside", "count_curve", "moment_sum",
        "moment_from_curve", "winding_count", "winding_from_samples",
        "JensenVerdict", "jensen_check", "shift_example", "lacunary_coefficients"),
    "verify": (
        "CorpusEntry", "SuiteResult", "regression_corpus", "soundness_sweep",
        "sweep_radii", "run_suites"),
    "config": ("Tolerances", "DEFAULT"),
    "errors": (
        "EigencountError", "MatrixError", "EigenvalueError",
        "SingularResolventError", "SpecFormatError", "AdmissibilityError",
        "ContourError", "NormalizationError"),
}.items() for name in names}

__all__ = ["__version__", *_SUBMODULE]


def _exports(module: str) -> list[str]:
    """The public names the table gives the submodule named module, in table order."""
    short = module.rpartition(".")[2]
    return [name for name, owner in _SUBMODULE.items() if owner == short]


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
