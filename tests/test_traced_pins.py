"""The names and counts that perfbench's traced pass relies on.

`perfbench/run.py --trace 1` replaces names on `maskcheck.cli` and
`maskcheck.butterfly` with timing wrappers, and then requires exact call
and row counts from the butterfly sweep.  These tests import its
`tracing` and `workloads` modules read-only, so a change that moves one of
those names or counts fails here, without a benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import maskcheck as mc
from maskcheck import butterfly, cli

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


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
@pytest.mark.parametrize("kind", ["value-independent", "constant-marginal", "recombined"])
def test_classify_traced_once(tmp_path, kind, fmt):
    """`classify` of a residue wire (q = 257, alphabet q, so its marginal
    table is counted in blocks) calls the wrapped `cli.classify` exactly
    once, whose count adds the wire's q^2 cells: the traced pass requires
    `wires.cells` to be 6 * 3329^2 over its six wire files."""
    q = 257
    s = np.arange(q)
    table = {"value-independent": np.tile(s * 3 % q, q),
             "constant-marginal": np.repeat(s * 5 % q, q),
             "recombined": ((s[:, None] + s) % q).ravel()}[kind]
    path = tmp_path / "wire.json"
    mc.save_wire(mc.make_wire(q, table, alphabet_size=q), path)
    tracer = tracing.Tracer()
    with tracing.installed(tracing._patches(tracer)), open(tmp_path / "out", "w") as out:
        saved, sys.stdout = sys.stdout, out
        try:
            assert cli.main(["classify", str(path), "--format", fmt]) == 0
        finally:
            sys.stdout = saved
    assert [span.name for span in tracer.spans].count("wires.classify") == 1
    assert tracer.counts["wires.cells"] == q * q
