"""Reference optima for the fit workloads, by scipy SLSQP.

Usage (from the repository root)::

    python3 bench/reference.py            # rewrites bench/reference.json

For each fit workload the script builds the same transformed NLP that
``fit`` solves (``extend_with_eig_constraints`` + ``build_nlp``) and solves it
with ``scipy.optimize.minimize(method="SLSQP")`` using the problem's own
gradient and constraint Jacobians, started from the in-house fit's result.
It stores the reference NLL with its provenance (data seed, start, git sha,
solver status) and whether the eigenvalue constraint binds: it binds when the
unconstrained fit on the same data leaves the region and the constrained
reference NLL is worse than the unconstrained one.  ``nll_gap_rel`` in the
benchmark reads these stored values.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.optimize  # noqa: E402

import ssfit  # noqa: E402
import ssfit.identify  # noqa: E402
from run import git_sha  # noqa: E402
from workloads import FIT_CASES, REFERENCE_PATH  # noqa: E402


def slsqp(problem: ssfit.NlpProblem, x0: np.ndarray):
    bounds = [(lb if np.isfinite(lb) else None, None)
              for lb in problem.lower_bounds]
    constraints = []
    if problem.equality is not None:
        constraints.append({"type": "eq", "fun": problem.equality,
                            "jac": problem.equality_jacobian})
    if problem.inequality is not None:
        # SLSQP wants g(x) >= 0; the problem's inequalities are h(x) <= 0
        constraints.append({"type": "ineq",
                            "fun": lambda x: -problem.inequality(x),
                            "jac": lambda x: -problem.inequality_jacobian(x)})
    return scipy.optimize.minimize(
        problem.objective, x0, jac=problem.gradient, method="SLSQP",
        bounds=bounds, constraints=constraints,
        options={"maxiter": 3000, "ftol": 1e-14})


def reference_for(case) -> dict:
    inputs = case.build()
    data, region = inputs["data"], case.region
    t0 = time.perf_counter()
    fitted = ssfit.fit(inputs["problem"], data, init=inputs["init"],
                       options=inputs["options"])
    spec = replace(inputs["problem"],
                   delta_re=ssfit.identify.resolve_delta(inputs["problem"],
                                                         data))
    ext = ssfit.extend_with_eig_constraints(spec)
    problem = ssfit.build_nlp(ext, data)
    res = slsqp(problem, ext.system.pack(fitted.phi_hat))
    phi = ext.system.unpack(res.x)
    theta, _ = ssfit.gbmz_forward(phi, ext.system)
    model = ext.model_of(theta)
    nll = ssfit.neg_log_likelihood(model, data)
    eq_res = float(np.max(np.abs(problem.equality(res.x))))
    in_viol = float(np.max(problem.inequality(res.x))) \
        if problem.inequality is not None else 0.0
    reference_s = time.perf_counter() - t0

    unconstrained = ssfit.fit(
        ssfit.ProblemSpec(ladm=inputs["spec"]), data, init=inputs["init"])
    unc_inside = bool(ssfit.eig_membership(
        region, unconstrained.model.filter_matrix()))
    binds = (not unc_inside) and \
        nll > unconstrained.nll + 1e-6 * abs(unconstrained.nll)
    return {
        "nll": nll,
        "solver": "scipy.optimize.minimize(method='SLSQP')",
        "solver_status": int(res.status),
        "solver_message": str(res.message),
        "solver_iterations": int(res.nit),
        "solver_success": bool(res.success),
        "eq_residual_inf": eq_res,
        "in_violation_max": in_viol,
        "filter_eigs_inside_region": bool(ssfit.eig_membership(
            region, model.filter_matrix())),
        "start": "result of ssfit.fit on the same problem",
        "fit_nll": fitted.nll,
        "fit_status": fitted.solve_report.status,
        "unconstrained_nll": unconstrained.nll,
        "unconstrained_status": unconstrained.solve_report.status,
        "unconstrained_filter_spectral_radius": float(np.max(np.abs(
            np.linalg.eigvals(unconstrained.model.filter_matrix())))),
        "unconstrained_inside_region": unc_inside,
        "constraint_binds": bool(binds),
        "provenance": {
            "data_seed": case.data_seed, "n": case.n,
            "filter_poles": list(case.filter_poles),
            "start_perturbation": list(case.perturb) if case.perturb
            else "truth",
            "git_sha": git_sha(), "numpy": np.__version__,
            "scipy": scipy.__version__, "wall_s": reference_s,
        },
    }


def main() -> int:
    refs = {}
    for name, case in FIT_CASES.items():
        refs[name] = reference_for(case)
        r = refs[name]
        print(f"{name}: reference nll {r['nll']:.9f} ({r['solver_message']}, "
              f"{r['solver_iterations']} it), fit nll {r['fit_nll']:.9f} "
              f"[{r['fit_status']}], binds {r['constraint_binds']}",
              flush=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
