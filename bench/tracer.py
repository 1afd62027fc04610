"""Outside-in span tracer for the benchmark's traced runs.

The tracer replaces public ssfit functions at the module attributes their
callers look up at call time (``ssfit.identify.gbmz_forward``,
``ssfit.cli.fit``, ``ssfit.io.load_dataset``, ...) with wrappers that record
one span per call.  Nothing under ``src/`` changes: uninstalling restores
every original attribute.  The callables of each ``NlpProblem`` handed to
``solve`` are wrapped too, by substituting a ``solve`` that rebuilds the
problem with ``dataclasses.replace``.

Spans carry name, start, end, parent span and operation id, are kept in
memory in flat lists, and are written out once at the end of the run.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import time

import numpy as np

LAYERS = ("identify", "nlp", "statespace", "transform", "regions", "oracle",
          "io", "cli")
REGION_KINDS = ("half_plane", "disk", "cone", "intersect")
# NlpProblem callable -> span name suffix
CALLABLE_SPAN = {"objective": "objective", "gradient": "gradient",
                 "equality": "eq", "equality_jacobian": "eq_jac",
                 "inequality": "in", "inequality_jacobian": "in_jac"}


class Tracer:
    """In-memory span recorder with attribute-level wrapping."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.tags: dict[int, object] = {}
        self._stack = [-1]
        self._op_id = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id

    def wrap(self, name: str, fn, tag=None):
        """Return ``fn`` recording one span per call.

        ``tag(args, kwargs, result)`` may attach a value to the span after the
        call returns; a call that raises gets no tag."""
        names, start, end, parent, op = (self.names, self.start, self.end,
                                         self.parent, self.op)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1])
            op.append(self._op_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if tag is not None:
                self.tags[i] = tag(args, kwargs, result)
            return result

        return traced

    def _wrapped_solve(self, prefix: str, solve):
        def solve_with_traced_problem(problem, x0, options=None):
            fields = {f: self.wrap(f"{prefix}.{short}", getattr(problem, f))
                      for f, short in CALLABLE_SPAN.items()
                      if getattr(problem, f) is not None}
            return solve(dataclasses.replace(problem, **fields), x0, options)

        def report_tag(args, kwargs, rep):
            return (prefix, rep.status, rep.iterations, rep.outer_iterations,
                    rep.penalty)

        return self.wrap("nlp.solve", solve_with_traced_problem, report_tag)

    # -- installation --------------------------------------------------
    def _patch(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        import ssfit.cli
        import ssfit.identify
        import ssfit.io
        import ssfit.oracle
        import ssfit.statespace

        def n_samples(args, kwargs, result):
            return args[1].N

        def barrier_tag(args, kwargs, res):
            return (args[0].region.kind, res.report.status)

        def file_bytes(args, kwargs, result):
            return os.path.getsize(args[0])

        bindings = [
            (ssfit.identify, "fit", "identify.fit", None),
            (ssfit.identify, "varx_init", "identify.varx_init", None),
            (ssfit.identify, "neg_log_likelihood", "statespace.nll", n_samples),
            (ssfit.identify, "likelihood_gradients", "statespace.grad",
             n_samples),
            (ssfit.identify, "assemble_ladm", "statespace.assemble", None),
            (ssfit.identify, "gbmz_forward", "transform.gbmz_forward", None),
            (ssfit.identify, "gbmz_inverse", "transform.gbmz_inverse", None),
            (ssfit.identify, "matrix_char_fn", "regions.matrix_char_fn", None),
            (ssfit.identify, "barrier_solve", "oracle.barrier_solve",
             barrier_tag),
            (ssfit.oracle, "barrier_solve", "oracle.barrier_solve",
             barrier_tag),
            (ssfit.oracle, "matrix_char_fn", "regions.matrix_char_fn", None),
            (ssfit.statespace, "filter_innovations", "statespace.filter", None),
            (ssfit.cli, "fit", "identify.fit", None),
            (ssfit.cli, "simulate", "statespace.simulate", None),
            (ssfit.cli, "filter_innovations", "statespace.filter", None),
            (ssfit.cli, "neg_log_likelihood", "statespace.nll", n_samples),
            (ssfit.cli, "barrier_solve", "oracle.barrier_solve", barrier_tag),
            (ssfit.cli, "eig_membership", "regions.eig_membership", None),
            (ssfit.cli, "cmd_simulate", "cli.simulate", None),
            (ssfit.cli, "cmd_fit", "cli.fit", None),
            (ssfit.cli, "cmd_eval", "cli.eval", None),
            (ssfit.cli, "cmd_eig", "cli.eig", None),
            (ssfit.io, "load_dataset", "io.load_dataset", file_bytes),
            (ssfit.io, "save_dataset", "io.save_dataset", file_bytes),
            (ssfit.io, "load_model", "io.load_model", None),
            (ssfit.io, "save_model", "io.save_model", None),
            (ssfit.io, "load_config", "io.load_config", None),
        ]
        for module, attr, name, tag in bindings:
            self._patch(module, attr,
                        self.wrap(name, getattr(module, attr), tag))
        for module, prefix in ((ssfit.identify, "identify"),
                               (ssfit.oracle, "oracle")):
            self._patch(module, "solve",
                        self._wrapped_solve(prefix, module.solve))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- output --------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": np.asarray(self.names, dtype=str), "start": start,
                "dur": dur,
                "self": dur - child, "parent": parent,
                "op": np.asarray(self.op, dtype=np.int64)}

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez_compressed(path, name=a["name"], start=a["start"],
                            end=a["start"] + a["dur"], parent=a["parent"],
                            op=a["op"])


def per_layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Aggregate the spans into per-operation layer metrics.

    Times and counts are totals divided by the number of traced operations;
    ``oracle.barrier_ms.<kind>`` is the mean duration of one call.
    """
    a = tracer.arrays()
    names, dur, self_t, parent = a["name"], a["dur"], a["self"], a["parent"]
    tags = tracer.tags
    n = max(1, n_ops)
    layer = np.array([s.split(".", 1)[0] for s in names], dtype=str)

    def total(name):
        return float(dur[names == name].sum()) / n

    def calls(name):
        return float(np.count_nonzero(names == name)) / n

    m: dict[str, float] = {}
    for lay in LAYERS:
        m[f"{lay}.self_s"] = float(self_t[layer == lay].sum()) / n

    m["identify.eq_jac_s"] = total("identify.eq_jac")
    m["identify.eq_jac_calls"] = calls("identify.eq_jac")
    m["identify.in_jac_s"] = total("identify.in_jac")
    m["identify.varx_init_s"] = total("identify.varx_init")

    # the solves of each operation's main problem: the identification NLP
    # when the operation fits a model, else the oracle NLP
    by_op: dict[int, list[int]] = {}
    for i in np.flatnonzero(names == "nlp.solve"):
        if int(i) in tags:
            by_op.setdefault(int(a["op"][i]), []).append(int(i))
    inner = outer = penalty = restore = 0.0
    n_fit_ops = 0
    main_prefix = {}
    for op_id, idx in by_op.items():
        ident = [i for i in idx if tags[i][0] == "identify"]
        chosen = ident or idx
        main_prefix[op_id] = tags[chosen[0]][0]
        inner += sum(tags[i][2] for i in chosen)
        outer += sum(tags[i][3] for i in chosen)
        penalty += tags[chosen[-1]][4]
        if ident:
            n_fit_ops += 1
            restore += len(ident) - 1
    m["identify.restore_rounds"] = restore / max(1, n_fit_ops)
    m["nlp.inner_iters"] = inner / n
    m["nlp.outer_iters"] = outer / n
    m["nlp.final_penalty"] = penalty / max(1, len(by_op))
    ops = a["op"]
    for kind in ("objective", "gradient", "eq", "eq_jac"):
        count = sum(
            1 for i in np.flatnonzero(np.char.endswith(names, "." + kind))
            if layer[i] in ("identify", "oracle")
            and main_prefix.get(int(ops[i])) == layer[i])
        m[f"nlp.{kind}_calls"] = count / n
    m["nlp.objective_calls_per_iter"] = (
        m["nlp.objective_calls"] / m["nlp.inner_iters"]
        if m["nlp.inner_iters"] else 0.0)

    m["statespace.nll_s"] = total("statespace.nll")
    m["statespace.nll_calls"] = calls("statespace.nll")
    m["statespace.grad_s"] = total("statespace.grad")
    m["statespace.grad_calls"] = calls("statespace.grad")
    lik = np.flatnonzero((names == "statespace.nll")
                         | (names == "statespace.grad"))
    lik_time = float(dur[lik].sum())
    m["statespace.samples_per_s"] = (
        sum(tags.get(int(i), 0) for i in lik) / lik_time if lik_time else 0.0)
    m["statespace.simulate_s"] = total("statespace.simulate")
    m["statespace.filter_s"] = total("statespace.filter")
    m["statespace.assemble_s"] = total("statespace.assemble")
    m["statespace.assemble_calls"] = calls("statespace.assemble")

    m["transform.gbmz_forward_s"] = total("transform.gbmz_forward")
    m["transform.gbmz_forward_calls"] = calls("transform.gbmz_forward")
    m["regions.matrix_char_fn_s"] = total("regions.matrix_char_fn")
    m["regions.matrix_char_fn_calls"] = calls("regions.matrix_char_fn")

    barrier = np.flatnonzero(names == "oracle.barrier_solve")
    for kind in REGION_KINDS:
        sel = [i for i in barrier if tags.get(int(i), ("",))[0] == kind]
        m[f"oracle.barrier_ms.{kind}"] = (
            1e3 * float(dur[sel].mean()) if sel else 0.0)
    under_barrier = np.count_nonzero(
        (names == "nlp.solve") & np.isin(parent, barrier))
    m["oracle.solves_per_query"] = (
        under_barrier / barrier.size if barrier.size else 0.0)
    m["oracle.max_iter_frac"] = (
        sum(tags.get(int(i), ("", ""))[1] == "max-iter" for i in barrier)
        / barrier.size if barrier.size else 0.0)

    for what in ("load_dataset", "save_dataset", "load_model", "save_model"):
        m[f"io.{what}_s"] = total(f"io.{what}")
    csv = np.flatnonzero((names == "io.load_dataset")
                         | (names == "io.save_dataset"))
    m["io.csv_bytes"] = float(sum(tags.get(int(i), 0) for i in csv)) / n
    for verb in ("simulate", "fit", "eval", "eig"):
        m[f"cli.{verb}_s"] = total(f"cli.{verb}")
    return m
