"""The package names the benchmark patches: `perfbench/run.py --trace 1`
wraps every (obj, attr) that `workloads.instrumentation` lists, so a
deletion that removes one of them breaks the traced run."""

from pathlib import Path

import pytest

pytest.importorskip("mpmath")  # perfbench/workloads.py imports it

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_instrumented_name_exists(small_table, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    targets = workloads.instrumentation(spans.Tracer(), small_table)
    assert targets
    for obj, attr, _ in targets:
        assert hasattr(obj, attr), (obj, attr)
