"""The names and counts that perfbench's traced pass relies on.

`perfbench/run.py --trace 1` replaces names on `maskcheck.cli` and
`maskcheck.butterfly` with timing wrappers, and then requires exact call
and row counts from the butterfly sweep.  These tests import its
`tracing` and `workloads` modules read-only, so a change that moves one of
those names or counts fails here, without a benchmark run.
"""

import sys
from pathlib import Path

import pytest

from maskcheck import butterfly

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import tracing
    import workloads
finally:
    sys.path.remove(PERFBENCH)

SEED = 1  # picks the three-twiddle subset; the full sweep does not depend on it


def test_wrapped_names_resolve():
    """Building the wrappers reads every wrapped name off its module."""
    tracing._patches(tracing.Tracer())


@pytest.mark.parametrize("index", [0, 1], ids=["all-twiddles", "three-twiddles"])
def test_sweep_calls_and_rows(monkeypatch, index):
    """Each sweep invocation passes its own checks, and makes one
    `classify_cells_bulk` call of q^2 rows per (twiddle tuple, role, tap)."""
    inv = workloads._butterfly_sweep(SEED)[index]
    _, twiddles, roles, _ = workloads.sweep_variants(SEED)[index]
    rows = []
    bulk = butterfly.classify_cells_bulk

    def counted(q, cells):
        rows.append(len(cells))
        return bulk(q, cells)

    monkeypatch.setattr(butterfly, "classify_cells_bulk", counted)
    outcome = tracing.call_cli(inv)
    assert inv.problems(outcome) == []
    configurations, calls = workloads.sweep_shape(twiddles, roles)
    assert len(rows) == calls
    assert set(rows) == {workloads.SWEEP_Q ** 2}
    assert outcome.stdout.document()["n_configurations"] == configurations
