"""The package as the benchmark uses it: `perfbench/run.py --trace 1` wraps
every (obj, attr) that `workloads.instrumentation` lists, so a deletion
that removes one of them breaks the traced run; and every op the run
times is checked by its workload's own `check`, so an output that fails
it is a failed op there. One unit of `battery`, and of `pnt` on the
session's 10^8 table, runs through those checks here. A traced `pnt` op
must also reach every layer its per-layer metrics name."""

from pathlib import Path

import pytest

from tauberlab import tauber

pytest.importorskip("mpmath")  # perfbench/workloads.py imports it

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    return spans, workloads


def test_every_instrumented_name_exists(small_table, perfbench):
    spans, workloads = perfbench
    targets = workloads.instrumentation(spans.Tracer(), small_table)
    assert targets
    for obj, attr, _ in targets:
        assert hasattr(obj, attr), (obj, attr)


@pytest.mark.parametrize("name", ["battery", "pnt"])
def test_one_unit_passes_its_workload_check(name, request, tmp_path, perfbench):
    _, workloads = perfbench
    workload = workloads.WORKLOADS[name](0, tmp_path)
    if workload.table_limit:
        # the session's table in place of prepare(), which sieves into a cache
        workload.table = request.getfixturevalue("big_table")
        assert workload.table.limit == workload.table_limit
    else:
        workload.prepare(workloads.plain_call)
    for op, check in workload.ops(workloads.plain_call):
        passed, err_ratio = check(op())
        assert passed and err_ratio <= 1.0, (name, err_ratio)


def test_a_traced_pnt_op_reaches_every_layer(big_table, perfbench, monkeypatch):
    """pnt_pipeline looks up converse_experiment and source_primes_weighted
    in tauber's globals, where the wrappers sit; a direct reference would
    drop those layers from the traced metrics."""
    spans, workloads = perfbench
    tracer = spans.Tracer()
    for obj, attr, wrapper in workloads.instrumentation(tracer, big_table):
        monkeypatch.setattr(obj, attr, wrapper)
    tauber.pnt_pipeline(big_table)
    names = {name for name, *_ in tracer.spans}
    for layer in ("tauber.converse_experiment", "operators.diagonal_sequence",
                  "operators.assemble_kernel_route", "special.prime_zeta_pair",
                  "arith.count", "arith.primes_in"):
        assert layer in names, layer
