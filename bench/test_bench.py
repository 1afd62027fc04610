"""Self-tests of the benchmark: reproducible inputs and a transparent tracer.

Run with ``python -m pytest bench -q`` from the repository root.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import pytest  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import Tracer, per_layer_metrics  # noqa: E402


def _fingerprint(name: str, seed: int) -> str:
    workload = wl.WORKLOADS[name]
    inputs = workload.setup(seed)
    try:
        return workload.fingerprint(inputs)
    finally:
        workload.teardown(inputs)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_fixed_seed_regenerates_identical_inputs(name):
    assert _fingerprint(name, 5) == _fingerprint(name, 5)


def test_oracle_batch_depends_on_seed():
    assert _fingerprint("oracle-batch", 5) != _fingerprint("oracle-batch", 6)


def _traced(workload, inputs, k):
    tracer = Tracer()
    tracer.begin_op(k)
    tracer.install()
    try:
        result = workload.operation(inputs, k)
    finally:
        tracer.uninstall()
    return result, tracer


def test_tracer_is_transparent_on_fit_active():
    workload = wl.WORKLOADS["fit-active"]
    inputs = workload.setup(0)
    plain = workload.operation(inputs, 0)
    traced, tracer = _traced(workload, inputs, 0)
    for r in (plain, traced):
        assert r.solve_report.status == plain.solve_report.status
        assert r.solve_report.iterations == plain.solve_report.iterations
        assert r.solve_report.outer_iterations \
            == plain.solve_report.outer_iterations
    assert traced.nll == plain.nll
    layer = per_layer_metrics(tracer, 1)
    assert layer["identify.eq_jac_calls"] > 0
    assert layer["oracle.barrier_ms.disk"] > 0
    # uninstalling restored every patched binding
    again = workload.operation(inputs, 0)
    assert again.nll == plain.nll


def test_tracer_is_transparent_on_oracle_queries():
    workload = wl.WORKLOADS["oracle-batch"]
    inputs = workload.setup(0)
    for k in range(len(wl.ORACLE_KINDS)):
        _, plain = workload.operation(inputs, k)
        (_, traced), tracer = _traced(workload, inputs, k)
        assert traced.value == plain.value
        assert traced.report.status == plain.report.status
        assert per_layer_metrics(tracer, 1)["oracle.solves_per_query"] >= 1
