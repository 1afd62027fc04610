"""The public surface: each module's ``__all__`` against a committed list,
and the names ``ssfit`` exports, which are those lists'.  A removal edits
this list and README's "Removed" paragraph in the same change."""

import importlib
import os
import pkgutil
import subprocess
import sys

import ssfit

MODULE_ALL = {
    "identify": [
        "EigConstraintSpec", "ExtendedProblem", "FIT_OPTIONS", "FitResult",
        "InitializationError", "ProblemSpec", "build_nlp",
        "epsilon_continuation", "extend_with_eig_constraints", "fit",
        "varx_init"],
    "indexsets": [
        "IndexSet", "PatternError", "complement", "diagonal", "direct_sum",
        "empty_set", "full_lower", "project_lower", "vecs"],
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
        "within_sublevel"],
    "regions": [
        "LmiRegion", "band", "block_diag", "char_fn", "cone", "contains",
        "disk", "eig_membership", "half_plane", "intersect", "left_half_plane",
        "matrix_char_fn", "membership_margin", "require_pd_weight",
        "require_sound_shift"],
    "statespace": [
        "Dataset", "EigenReport", "FilterDivergedError", "InnovationModel",
        "LadmSpec", "ParameterLayout", "assemble_ladm", "eigen_report",
        "filter_innovations", "identification_index", "ladm_blocks",
        "likelihood_gradients", "neg_log_likelihood", "simulate"],
    "transform": [
        "ConstraintSystem", "DomainError", "FactorPoint", "GramJacobian",
        "SingularPivotError", "ThetaPoint", "complete_factor",
        "completion_is_trivial", "epsilon_box", "gbmz_forward",
        "gbmz_inverse", "gram_jacobian", "reconstruct_q",
        "sigma_factor_tangents", "transformed_constraints"],
}

# every name in a module's list is ``ssfit.<name>``, apart from the
# modules ``import ssfit`` does not load
LAZY_MODULES = ("io", "cli")
PACKAGE_NAMES = sorted(name for module, names in MODULE_ALL.items()
                       if module not in LAZY_MODULES for name in names)


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


def test_no_name_is_listed_by_two_modules():
    names = [name for names in MODULE_ALL.values() for name in names]
    assert len(names) == len(set(names))


def test_solve_is_the_nlp_solver():
    assert ssfit.solve is ssfit.nlp.solve
    assert ssfit.oracle.solve is not ssfit.nlp.solve


def test_import_loads_neither_io_nor_cli():
    code = ("import sys, ssfit; "
            "print([m for m in ('ssfit.io', 'ssfit.cli') if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(ssfit.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"
