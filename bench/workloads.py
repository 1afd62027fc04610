"""Workload definitions: input generators, one operation, correctness check.

Every input is generated here from public ``ssfit`` calls and
``scipy.signal.place_poles`` (the same construction as the test helpers),
so the benchmark depends on nothing under ``tests/``.  The package is driven
only through ``ssfit.identify.fit``, ``ssfit.oracle.barrier_solve`` and
``ssfit.cli.main``, always looked up on the module at call time so that the
traced run sees the calls.

Why each workload exists is recorded in ``bench/NOTES.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.signal

import ssfit
import ssfit.cli
import ssfit.identify
import ssfit.io
import ssfit.oracle

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

# relative tolerance for "the fit reached the reference optimum"
NLL_AT_REFERENCE_RTOL = 1e-6


# -- generators (mirroring tests/helpers.py) ------------------------------
def siso_ladm_spec() -> ssfit.LadmSpec:
    return ssfit.LadmSpec(n_s=2, n_d=1, m=1, p=1, plant_form="canonical")


def siso_truth(filter_poles=(0.5, 0.6, 0.7), re=0.04):
    """Canonical SISO truth (plant poles 0.55, 0.7) with placed filter poles."""
    spec = siso_ladm_spec()
    layout = ssfit.ParameterLayout(spec)
    mats = {"A_s": np.array([-0.385, 1.25]), "B_s": np.array([[1.0], [0.5]]),
            "K_s": np.zeros((2, 1)), "K_d": np.zeros((1, 1))}
    model0 = ssfit.assemble_ladm(
        spec, ssfit.ThetaPoint(layout.pack(mats), np.array([[re]])), layout)
    placed = scipy.signal.place_poles(model0.A.T, model0.C.T,
                                      np.asarray(filter_poles))
    K = placed.gain_matrix.T
    mats["K_s"] = K[:2]
    mats["K_d"] = K[2:]
    theta = ssfit.ThetaPoint(layout.pack(mats), np.array([[re]]))
    return spec, layout, theta


def prbs(n: int, seed: int, hold: int = 8) -> np.ndarray:
    rng = np.random.default_rng(seed)
    levels = 2.0 * rng.integers(0, 2, size=(n + hold - 1) // hold) - 1.0
    return np.repeat(levels, hold)[:n].reshape(-1, 1)


def siso_dataset(theta, spec, layout, n: int, seed: int) -> ssfit.Dataset:
    model = ssfit.assemble_ladm(spec, theta, layout)
    u = prbs(n, seed)
    return ssfit.Dataset(u, ssfit.simulate(model, u, seed=seed + 1))


def perturbed(theta, scale: float, seed: int) -> ssfit.ThetaPoint:
    rng = np.random.default_rng(seed)
    beta = theta.beta * (1.0 + scale * rng.uniform(-1.0, 1.0, theta.beta.size))
    Sigma = theta.Sigma * (1.0 + scale * rng.uniform(-1.0, 1.0))
    return ssfit.ThetaPoint(beta, Sigma)


def fingerprint(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


@dataclass
class Outcome:
    """What one operation produced, after its correctness check."""

    ok: bool               # no exception and the output passed its check
    status: str            # solver / CLI status ("converged", "max-iter", ...)
    detail: dict


# -- fit workloads --------------------------------------------------------
@dataclass(frozen=True)
class FitCase:
    """One pinned identification problem (data, start, constraint, options).

    The instance does not depend on the run seed: the data realization
    decides whether the constraint binds and how long the solve runs, and
    each fit workload is defined by one instance with a stored reference.
    """

    name: str
    filter_poles: tuple
    n: int
    data_seed: int
    region: ssfit.LmiRegion
    epsilon_i: float
    perturb: tuple | None           # (scale, seed) of the start, or truth
    options: dict | None            # SolveOptions fields, or fit defaults
    # the seed run of this case converges, so convergence to the reference
    # optimum is part of its correctness check
    expect_converged: bool = True

    def build(self):
        spec, layout, theta = siso_truth(self.filter_poles)
        data = siso_dataset(theta, spec, layout, self.n, self.data_seed)
        init = theta if self.perturb is None \
            else perturbed(theta, *self.perturb)
        pspec = ssfit.ProblemSpec(
            ladm=spec, eig_constraints=(ssfit.EigConstraintSpec(
                self.region, "filter", self.epsilon_i),))
        options = None if self.options is None \
            else ssfit.SolveOptions(**self.options)
        return {"spec": spec, "data": data, "init": init, "problem": pspec,
                "options": options}


FIT_CASES = {
    # case A of test_identify (constraint binds); only max_outer=4 differs
    "fit-active": FitCase(
        name="fit-active", filter_poles=(0.45, 0.55, 0.65), n=300,
        data_seed=7, region=ssfit.disk(0.95, 0.0), epsilon_i=0.05,
        perturb=None,
        options={"max_inner": 250, "max_outer": 4, "init_multipliers": "lsq"},
        expect_converged=False),
    # acceptance criterion 7 (constraint inactive at the optimum)
    "fit-inactive": FitCase(
        name="fit-inactive", filter_poles=(0.5, 0.6, 0.7), n=2000,
        data_seed=11,
        region=ssfit.intersect(ssfit.half_plane(0.3), ssfit.disk(0.998, 0.0)),
        epsilon_i=0.03, perturb=(0.05, 13), options=None),
}


class FitWorkload:
    """Closed loop of identical ``fit`` calls on one pinned problem."""

    op_name = "fit_s"  # what one operation is called in the report

    def __init__(self, case: FitCase):
        self.case = case
        self.name = case.name

    def setup(self, seed: int) -> dict:
        inputs = self.case.build()
        inputs["reference"] = load_reference()[self.name]
        start = ssfit.assemble_ladm(inputs["spec"], inputs["init"],
                                    ssfit.ParameterLayout(inputs["spec"]))
        inputs["start_nll"] = ssfit.neg_log_likelihood(start, inputs["data"])
        return inputs

    def teardown(self, inputs: dict) -> None:
        pass

    def fingerprint(self, inputs: dict) -> str:
        return fingerprint(inputs["data"].u, inputs["data"].y,
                           inputs["init"].beta, inputs["init"].Sigma)

    def operation(self, inputs: dict, k: int):
        return ssfit.identify.fit(inputs["problem"], inputs["data"],
                                  init=inputs["init"],
                                  options=inputs["options"])

    def check(self, inputs: dict, result) -> Outcome:
        ref = inputs["reference"]["nll"]
        gap = (result.nll - ref) / abs(ref)
        region_ok = bool(ssfit.eig_membership(self.case.region,
                                              result.model.filter_matrix()))
        status = result.solve_report.status
        # a fit that stops early must still improve on its start
        ok = math.isfinite(result.nll) and region_ok \
            and result.nll < inputs["start_nll"]
        if self.case.expect_converged:
            ok = ok and status == "converged" \
                and abs(gap) <= NLL_AT_REFERENCE_RTOL
        return Outcome(ok, status, {
            "nll": result.nll, "nll_gap_rel": gap, "region_ok": region_ok,
            "iterations": result.solve_report.iterations,
            "outer_iterations": result.solve_report.outer_iterations})

    def summary(self, outcomes: list[Outcome]) -> dict:
        return {
            "nll_gap_rel": (_median([o.detail["nll_gap_rel"] for o in outcomes
                                     if "nll_gap_rel" in o.detail]), "1"),
            "region_ok_frac": (_frac(o.detail.get("region_ok", False)
                                     for o in outcomes), "1"),
        }


# -- long-record CLI pipeline ---------------------------------------------
UNCONSTRAINED_CONFIG = {
    "constraints": [],
    "io": {"seed": 0},
    "model": {"Bd": "zero", "Cd": "identity", "n_d": 1, "n_s": 2, "n_u": 1,
              "n_y": 1, "plant_form": "canonical", "re_pattern": "full"},
    "objective": {"delta_re": "auto", "epsilon": 1e-06, "rho": 0.0},
    "schema_version": 1,
    "solver": {"max_inner": 400},
}
PIPELINE_REGION = "intersect(half_plane 0.3, disk 0.998 0)"
PIPELINE_SAMPLES = 20000
PIPELINE_DATA_SEED = 21


class PipelineWorkload:
    """``simulate -> fit -> eval -> eig`` through ``ssfit.cli.main``.

    The record is pinned (simulate seed 21, N = 20 000) for the same reason
    as the fit cases: the data decide how many iterations the fit takes.
    """

    name = "long-record"
    op_name = "pipeline_s"  # what one operation is called in the report

    def setup(self, seed: int) -> dict:
        os.makedirs(OUT_DIR, exist_ok=True)
        root = tempfile.mkdtemp(prefix="long-record-", dir=OUT_DIR)
        spec, layout, theta = siso_truth()
        model = ssfit.assemble_ladm(spec, theta, layout)
        model_path = os.path.join(root, "truth_model.json")
        config_path = os.path.join(root, "config_unconstrained.json")
        ssfit.io.save_model(model_path, model, ladm=spec,
                            meta={"note": "synthetic SISO fixture"})
        with open(config_path, "w") as fh:
            json.dump(UNCONSTRAINED_CONFIG, fh, indent=1, sort_keys=True)
        return {"root": root, "model": model_path, "config": config_path,
                "truth": model}

    def teardown(self, inputs: dict) -> None:
        shutil.rmtree(inputs["root"], ignore_errors=True)

    def fingerprint(self, inputs: dict) -> str:
        h = hashlib.sha256()
        for path in (inputs["model"], inputs["config"]):
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def operation(self, inputs: dict, k: int):
        work = os.path.join(inputs["root"], f"op{k}")
        csv = os.path.join(work, "sim.csv")
        os.makedirs(work, exist_ok=True)
        verbs = [
            ("simulate", ["--model", inputs["model"], "--out", csv,
                          "--seed", str(PIPELINE_DATA_SEED),
                          "--gen-samples", str(PIPELINE_SAMPLES)]),
            ("fit", ["--config", inputs["config"], "--data", csv,
                     "--out", os.path.join(work, "run")]),
            ("eval", ["--model", os.path.join(work, "run", "model.json"),
                      "--data", csv, "--out", os.path.join(work, "eval")]),
            ("eig", ["--model", os.path.join(work, "run", "model.json"),
                     "--region", PIPELINE_REGION, "--epsilon", "0.03"]),
        ]
        codes = {}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for verb, args in verbs:
                codes[verb] = ssfit.cli.main([verb] + args)
                if codes[verb] != 0:
                    break
        return {"work": work, "csv": csv, "codes": codes,
                "output": sink.getvalue()}

    def check(self, inputs: dict, result) -> Outcome:
        codes = result["codes"]
        detail = {"exit_codes": codes}
        if any(c != 0 for c in codes.values()) or len(codes) < 4:
            shutil.rmtree(result["work"], ignore_errors=True)
            return Outcome(False, "exit-" + ",".join(
                f"{v}={c}" for v, c in codes.items()), detail)
        work = result["work"]
        with open(os.path.join(work, "run", "fit_report.json")) as fh:
            report = json.load(fh)
        with open(os.path.join(work, "eval", "eval_summary.json")) as fh:
            summary = json.load(fh)
        data = ssfit.io.load_dataset(result["csv"])
        fitted, _, _ = ssfit.io.load_model(os.path.join(work, "run",
                                                        "model.json"))
        nll_fit = ssfit.neg_log_likelihood(fitted, data)
        nll_truth = ssfit.neg_log_likelihood(inputs["truth"], data)
        finite = all(math.isfinite(v) for v in (
            report["nll"], summary["nll"], summary["mean_q"], nll_fit))
        # an ML fit on the record must not lose to the model that made it
        ok = finite and nll_fit <= nll_truth \
            and "direct membership: True" in result["output"]
        detail.update({"nll": report["nll"], "nll_truth": nll_truth,
                       "iterations": report["iterations"],
                       "mean_q": summary["mean_q"]})
        shutil.rmtree(work, ignore_errors=True)
        return Outcome(ok, report["status"], detail)

    def summary(self, outcomes: list[Outcome]) -> dict:
        return {}


# -- oracle batch ---------------------------------------------------------
ORACLE_EPS = 1e-4
ORACLE_MARGIN = 0.05
ORACLE_BATCH = 400
ORACLE_REGIONS = {
    "half_plane": ssfit.half_plane(0.1),
    "disk": ssfit.disk(0.9, 0.0),
    "cone": ssfit.cone(1.0, 0.0),
    "intersect": ssfit.intersect(ssfit.half_plane(0.3), ssfit.disk(0.998, 0.0)),
}
ORACLE_KINDS = tuple(ORACLE_REGIONS)


def _margins(kind: str, eigs) -> np.ndarray:
    """Signed distance of each eigenvalue to the region boundary."""
    z = np.asarray(eigs)
    if kind == "half_plane":
        return z.real - 0.1
    if kind == "disk":
        return 0.9 - np.abs(z)
    if kind == "cone":
        return (z.real - np.abs(z.imag)) / np.sqrt(2.0)
    return np.minimum(z.real - 0.3, 0.998 - np.abs(z))


def spectrum_in_zone(rng, kind: str, inside: bool) -> np.ndarray:
    """A 3x3 matrix with one real eigenvalue and one complex pair placed
    inside the region with margin, or outside with margin (acceptance
    criterion 3, extended to the intersection region)."""
    while True:
        re1 = rng.uniform(-1.5, 1.8)
        re2 = rng.uniform(-1.5, 1.8)
        im2 = rng.uniform(0.05, 1.5)
        d = _margins(kind, [re1, complex(re2, im2)])
        if inside and np.all(d >= ORACLE_MARGIN):
            break
        if not inside and np.all(d >= -0.6) and np.min(d) <= -ORACLE_MARGIN:
            break
    J = np.zeros((3, 3))
    J[0, 0] = re1
    J[1:, 1:] = [[re2, im2], [-im2, re2]]
    V = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    return V @ J @ np.linalg.inv(V)


def oracle_shift(kind: str, n: int = 3) -> np.ndarray:
    if kind == "disk":
        # disk corner shift [[Q, 0], [0, 0]] with Q = eps I
        M = np.zeros((2 * n, 2 * n))
        M[:n, :n] = ORACLE_EPS * np.eye(n)
        return M
    return ORACLE_EPS * np.eye(n * ORACLE_REGIONS[kind].m)


def closed_form_value(kind: str, A: np.ndarray, shift: np.ndarray):
    """tr(P*) from the Lyapunov (half-plane) or Stein (corner-shift disk)
    equation, or None where no closed form applies."""
    n = A.shape[0]
    if kind == "half_plane":
        P = scipy.linalg.solve_continuous_lyapunov(A - 0.1 * np.eye(n), shift)
        return float(np.trace(P))
    if kind == "disk":
        s, x0 = 0.9, 0.0
        At = (A - x0 * np.eye(n)) / s
        P = scipy.linalg.solve_discrete_lyapunov(At, shift[:n, :n] / s)
        return float(np.trace(P))
    return None


class OracleWorkload:
    """Closed loop of single ``barrier_solve`` queries, kinds round-robin,
    inside / outside alternating per round."""

    name = "oracle-batch"
    op_name = "query_ms"  # what one operation is called in the report

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        shifts = {k: oracle_shift(k) for k in ORACLE_KINDS}
        queries = []
        for q in range(ORACLE_BATCH):
            kind = ORACLE_KINDS[q % len(ORACLE_KINDS)]
            inside = (q // len(ORACLE_KINDS)) % 2 == 0
            A = spectrum_in_zone(rng, kind, inside)
            queries.append({"kind": kind, "inside": inside, "A": A,
                            "query": ssfit.BarrierQuery(ORACLE_REGIONS[kind],
                                                        A, shifts[kind]),
                            "closed": closed_form_value(kind, A, shifts[kind])
                            if inside else None})
        return {"queries": queries}

    def teardown(self, inputs: dict) -> None:
        pass

    def fingerprint(self, inputs: dict) -> str:
        return fingerprint(*[q["A"] for q in inputs["queries"]])

    def operation(self, inputs: dict, k: int):
        q = inputs["queries"][k % len(inputs["queries"])]
        return q, ssfit.oracle.barrier_solve(q["query"])

    def check(self, inputs: dict, result) -> Outcome:
        q, res = result
        verdict = res.value <= (1.0 / ORACLE_EPS) * (1.0 + 1e-6)
        agree = verdict == q["inside"]
        detail = {"kind": q["kind"], "agree": agree}
        ok = agree
        if verdict:
            # a feasible certificate must be positive definite (criterion 4)
            ok = ok and float(np.min(np.linalg.eigvalsh(res.p_matrix))) > 0
        if q["closed"] is not None and verdict:
            detail["value_err_rel"] = abs(res.value - q["closed"]) \
                / abs(q["closed"])
        return Outcome(ok, res.report.status, detail)

    def summary(self, outcomes: list[Outcome]) -> dict:
        errs = [o.detail["value_err_rel"] for o in outcomes
                if "value_err_rel" in o.detail]
        return {
            "verdict_agree_frac": (_frac(o.detail["agree"] for o in outcomes),
                                   "1"),
            "value_err_rel_max": (max(errs) if errs else float("nan"), "1"),
        }


def _median(values):
    return float(np.median(values)) if values else float("nan")


def _frac(flags) -> float:
    flags = list(flags)
    return sum(bool(f) for f in flags) / len(flags) if flags else float("nan")


WORKLOADS = {
    "fit-active": FitWorkload(FIT_CASES["fit-active"]),
    "fit-inactive": FitWorkload(FIT_CASES["fit-inactive"]),
    "long-record": PipelineWorkload(),
    "oracle-batch": OracleWorkload(),
}
