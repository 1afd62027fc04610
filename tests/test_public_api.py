"""The public surface: each module's ``__all__`` and the names ``ssfit``
exports, against a committed list.  A removal edits this list and README's
"Removed" paragraph in the same change."""

import importlib
import pkgutil

import ssfit

MODULE_ALL = {
    "identify": [
        "EigConstraintSpec", "ExtendedProblem", "FIT_OPTIONS", "FitResult",
        "InitializationError", "ProblemSpec", "build_nlp",
        "epsilon_continuation", "extend_with_eig_constraints", "fit",
        "varx_init"],
    "indexsets": [
        "IndexSet", "complement", "diagonal", "direct_sum", "empty_set",
        "full_lower", "project_lower", "vecs"],
    "io": [
        "RunConfig", "SchemaError", "load_config", "load_dataset",
        "load_model", "parse_config", "parse_index_set", "parse_region",
        "save_dataset", "save_json", "save_model", "save_table"],
    "nlp": [
        "FdGradientError", "GradientMismatchError", "NlpProblem",
        "SolveOptions", "SolveReport", "fd_gradient", "fd_jacobian",
        "preflight_gradients", "solve"],
    "oracle": [
        "BarrierQuery", "BarrierResult", "SdpProblem", "barrier_solve",
        "solve", "within_sublevel"],
    "regions": [
        "LmiRegion", "band", "char_fn", "cone", "contains", "disk",
        "eig_membership", "half_plane", "intersect", "left_half_plane",
        "matrix_char_fn", "membership_margin", "require_pd_weight",
        "require_sound_shift"],
    "statespace": [
        "Dataset", "EigenReport", "FilterDivergedError", "InnovationModel",
        "LadmSpec", "ParameterLayout", "assemble_ladm", "eigen_report",
        "filter_innovations", "identification_index", "ladm_blocks",
        "neg_log_likelihood", "simulate"],
    "transform": [
        "ConstraintSystem", "DomainError", "FactorPoint", "GramJacobian",
        "SingularPivotError", "ThetaPoint", "complete_factor", "epsilon_box",
        "gbmz_forward", "gbmz_inverse", "gram_jacobian", "reconstruct_q",
        "sigma_factor_tangents", "transformed_constraints"],
}

PACKAGE_NAMES = [
    "BarrierQuery", "BarrierResult", "ConstraintSystem", "Dataset",
    "DomainError", "EigConstraintSpec", "EigenReport", "ExtendedProblem",
    "FactorPoint", "FdGradientError", "FilterDivergedError", "FitResult",
    "GradientMismatchError", "IndexSet", "InitializationError",
    "InnovationModel", "LadmSpec", "LmiRegion", "NlpProblem",
    "ParameterLayout", "PatternError", "ProblemSpec", "SingularPivotError",
    "SolveOptions", "SolveReport", "ThetaPoint", "assemble_ladm", "band",
    "barrier_solve", "build_nlp", "char_fn", "complement",
    "complete_factor", "completion_is_trivial", "cone", "contains",
    "diagonal", "direct_sum", "disk", "eig_membership", "eigen_report",
    "empty_set", "epsilon_box", "epsilon_continuation",
    "extend_with_eig_constraints", "fd_gradient", "fd_jacobian",
    "filter_innovations", "fit", "full_lower", "gbmz_forward",
    "gbmz_inverse", "half_plane", "identification_index", "intersect",
    "left_half_plane", "likelihood_gradients", "matrix_char_fn",
    "membership_margin", "neg_log_likelihood", "preflight_gradients",
    "project_lower", "reconstruct_q", "simulate", "solve",
    "transformed_constraints", "varx_init", "vecs", "within_sublevel",
]


def test_public_names_are_the_committed_list():
    modules = {info.name: importlib.import_module(f"ssfit.{info.name}")
               for info in pkgutil.iter_modules(ssfit.__path__)}
    declared = {name: sorted(module.__all__)
                for name, module in modules.items()
                if hasattr(module, "__all__")}
    assert declared == MODULE_ALL
    for name, names in MODULE_ALL.items():
        assert all(hasattr(modules[name], n) for n in names), name
    exported = sorted(name for name in set(vars(ssfit)) - set(modules)
                      if not name.startswith("_"))
    assert exported == PACKAGE_NAMES
