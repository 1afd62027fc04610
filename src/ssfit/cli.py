"""Command-line front end: fit, simulate, eval, eig.

Exit codes: 0 success/converged, 1 input, schema or unreadable path, 2
numerical non-convergence (artifacts are still written where that makes
sense), a diverging state recursion (simulate, eval), or an oracle verdict
of ``eig`` that is ``undecided`` or that the direct membership contradicts
(``inside`` the tightened set, spectrum outside the region).  :func:`main`
is the one place that maps exceptions to exit codes.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import io as ssio
from .identify import EigConstraintSpec, fit
from .oracle import barrier_solve
from .regions import eig_membership
from .statespace import (
    Dataset,
    FilterDivergedError,
    eigen_report,
    filter_innovations,
    identification_index,
    neg_log_likelihood,
    simulate,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2


def _fail(message: str, code: int = EXIT_INPUT) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _spectrum(values: np.ndarray) -> list:
    return [{"re": float(z.real), "im": float(z.imag), "mod": float(abs(z))}
            for z in values]


def cmd_fit(args) -> int:
    config = ssio.load_config(args.config)
    data = ssio.load_dataset(args.data)
    result = fit(config.problem, data, init="auto", options=config.solver)
    os.makedirs(args.out, exist_ok=True)
    model_path = os.path.join(args.out, "model.json")
    report_path = os.path.join(args.out, "fit_report.json")
    ssio.save_model(model_path, result.model, ladm=config.problem.ladm,
                    meta={"seed": config.seed})
    report = dict(result.report)
    report["open_loop_eigs"] = _spectrum(report.pop("open_loop_eigs"))
    report["filter_eigs"] = _spectrum(report.pop("filter_eigs"))
    ssio.save_json(report_path, report)
    print(f"wrote {model_path} and {report_path}")
    return EXIT_OK if result.converged else EXIT_NUMERIC


def _generator_input(args) -> np.ndarray:
    n = args.gen_samples
    if n is None or n < 1:
        raise ValueError("--gen-samples must be a positive integer")
    for flag, value in (("--gen-inputs", args.gen_inputs),
                        ("--gen-hold", args.gen_hold)):
        if value < 1:
            raise ValueError(f"{flag} must be a positive integer, got {value}")
    if not np.isfinite(args.gen_amplitude):
        raise ValueError(f"--gen-amplitude must be finite, "
                         f"got {args.gen_amplitude}")
    if args.gen == "zero":
        return np.zeros((n, args.gen_inputs))
    if args.gen == "prbs":
        rng = np.random.default_rng(args.seed)
        hold = args.gen_hold
        cols = []
        for _ in range(args.gen_inputs):
            levels = args.gen_amplitude * (
                2.0 * rng.integers(0, 2, size=(n + hold - 1) // hold) - 1.0)
            cols.append(np.repeat(levels, hold)[:n])
        return np.column_stack(cols)
    if args.gen == "step":
        u = np.zeros((n, args.gen_inputs))
        u[n // 2:] = args.gen_amplitude
        return u
    raise ValueError(f"unknown generator {args.gen!r}")


def cmd_simulate(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    model, _, _ = ssio.load_model(args.model)
    if args.data is not None:
        u = ssio.load_dataset(args.data).u
    else:
        if args.gen_inputs is None:
            args.gen_inputs = model.m
        u = _generator_input(args)
    y = simulate(model, u, seed=args.seed, noise=not args.no_noise)
    ssio.save_dataset(args.out, Dataset(u, y))
    ssio.save_json(args.out + ".meta.json",
                   {"seed": args.seed, "noise": not args.no_noise,
                    "model": os.path.basename(args.model),
                    "samples": int(u.shape[0])})
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model, _, _ = ssio.load_model(args.model)
    data = ssio.load_dataset(args.data)
    windows = tuple(w for w in (1, 10, 100) if w <= data.N)
    innovations = filter_innovations(model, data)
    os.makedirs(args.out, exist_ok=True)
    e, _ = innovations
    q, averages = identification_index(e, model.Re, windows=windows)
    nll = neg_log_likelihood(model, data, innovations)
    y_free = simulate(model, data.u, noise=False)
    csv_path = os.path.join(args.out, "eval.csv")
    header = ["t"] + [f"e{i + 1}" for i in range(model.p)]
    header += ["q"] + [f"q_avg{w}" for w in windows]
    header += [f"yfree{i + 1}" for i in range(model.p)]
    ssio.save_table(csv_path, header, [
        np.arange(data.N) * data.dt, *e.T, q,
        *(averages[w] for w in windows), *y_free.T])
    summary = {
        "nll": nll,
        "mean_q": float(np.mean(q)),
        "expected_mean_q": model.p,
        "n_samples": data.N,
    }
    ssio.save_json(os.path.join(args.out, "eval_summary.json"), summary)
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_eig(args) -> int:
    if not 0.0 < args.epsilon < np.inf:
        return _fail(f"--epsilon must be positive and finite, got {args.epsilon}")
    model, _, _ = ssio.load_model(args.model)
    # an input error prints its error line and nothing else
    region = None if args.region is None else ssio.parse_region(args.region)
    rep = eigen_report(model)
    for name, eigs in (("open-loop", rep.open_loop), ("filter", rep.filter)):
        print(f"{name} eigenvalues:")
        for z in eigs:
            print(f"  {z.real:+.6f} {z.imag:+.6f}j  |.| = {abs(z):.6f}")
    if region is None:
        return EXIT_OK
    constraint = EigConstraintSpec(region, args.target, args.epsilon)
    target = constraint.resolve_target(model.A, model.C, model.K, model.n)
    direct = eig_membership(region, target)
    result = barrier_solve(constraint.query(target))
    verdict = result.verdict(args.epsilon)
    print(f"direct membership: {direct}")
    print(f"barrier value: {result.value}")
    print(f"lower bound: {result.lower_bound}")
    print(f"oracle verdict (epsilon = {args.epsilon}): {verdict}")
    if verdict == "undecided":
        return _fail("oracle verdict undecided: the lower bound does not "
                     "exceed 1/epsilon", EXIT_NUMERIC)
    if verdict == "inside" and not direct:
        return _fail("oracle verdict contradicted: inside the tightened set, "
                     "spectrum outside the region", EXIT_NUMERIC)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssfit",
        description="Constrained maximum-likelihood identification of "
                    "innovation-form state-space models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="identify a model from data")
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="simulate a model")
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--data", help="CSV whose input columns drive the model")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--no-noise", action="store_true")
    p_sim.add_argument("--gen", choices=("prbs", "zero", "step"), default="prbs")
    p_sim.add_argument("--gen-samples", type=int, default=2000)
    p_sim.add_argument("--gen-amplitude", type=float, default=1.0)
    p_sim.add_argument("--gen-hold", type=int, default=8)
    p_sim.add_argument("--gen-inputs", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_eval = sub.add_parser("eval", help="evaluate a model against data")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_eig = sub.add_parser("eig", help="print spectra and check a region")
    p_eig.add_argument("--model", required=True)
    p_eig.add_argument("--region", default=None)
    p_eig.add_argument("--target", choices=("open_loop", "filter"),
                       default="filter")
    p_eig.add_argument("--epsilon", type=float, default=0.03)
    p_eig.set_defaults(func=cmd_eig)
    return parser


def main(argv=None) -> int:
    """Run one verb: a ``ValueError`` (schema and initialization errors
    included) or an ``OSError`` exits 1, a diverging state recursion 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    except FilterDivergedError as exc:
        return _fail(str(exc), EXIT_NUMERIC)


if __name__ == "__main__":
    sys.exit(main())
