"""Traced in-process run: spans around the calls into each maskcheck layer.

Spans are recorded from the benchmark's own code.  While a pass runs, the
names that ``maskcheck.cli`` and ``maskcheck.butterfly`` import from other
layers are replaced by wrappers that open a span (name, start, end,
parent, invocation id) around the real call; nothing under ``src/`` is
edited.  Two layers are timed by direct calls instead:

* the census kernel, ``classify_packed``, over all 32 batches of 2^20
  wires at q = 5, because spans opened in pool children are lost;
* ``urem_reparam`` and ``urem_recombine`` over the urem-check workload's
  own seeded pairs, because wrapping 2 M calls would swamp their cost.

Each per-layer metric covers the sequence of the workload it belongs to
(see manifest.json).  ``trace.overhead_s`` is the traced pass of the
census-q5, butterfly-sweep and mldsa-bridge sequences minus the same pass
untraced: they hold nearly all spans (15,552 bulk calls per full sweep),
while the screen-mlkem sequence has 28 spans in about 40 s, whose
run-to-run noise of seconds would bury a cost of microseconds.
"""

from __future__ import annotations

import functools
import io
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

import workloads

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from maskcheck import bitvec, butterfly, census, cli  # noqa: E402

CENSUS_BATCH = 1 << 20


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    invocation: str | None


class Tracer:
    """Keeps spans in memory, plus counters, until the run writes them out."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts = Counter()
        self.invocation: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.invocation)

    def wrap(self, name, fn, count=None):
        """`fn` inside a span; `count(counts, args, kwargs, result)` runs after
        every call, with result None when the call raised."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = None
            try:
                with self.span(name(*args, **kwargs) if callable(name) else name):
                    result = fn(*args, **kwargs)
                return result
            finally:
                if count is not None:
                    count(self.counts, args, kwargs, result)
        return traced

    def total(self, name: str, prefix: str = "") -> float:
        return sum(s.end - s.start for s in self.spans
                   if s.name == name and (s.invocation or "").startswith(prefix))

    def self_time(self, name: str, prefix: str = "") -> float:
        """Span time of `name` minus the time its child spans cover."""
        child = Counter()
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return sum(s.end - s.start - child[i] for i, s in enumerate(self.spans)
                   if s.name == name and (s.invocation or "").startswith(prefix))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": list(Span._fields), "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def _patches(tracer: Tracer):
    """(module, attribute, wrapper) for every traced layer boundary."""
    def wrap(module, attr, name, count=None):
        return module, attr, tracer.wrap(name, getattr(module, attr), count)

    def loaded(counts, args, kwargs, wire):  # counted also when the file is rejected
        counts["wires.input_bytes"] += os.path.getsize(args[0])

    def classified(counts, args, kwargs, verdict):
        counts["wires.cells"] += args[0].n_cells

    def bulk(counts, args, kwargs, codes):
        counts["wires.bulk_calls"] += 1
        counts["wires.bulk_rows"] += len(args[1])

    def swept(counts, args, kwargs, report):
        if report is not None:
            counts["butterfly.configurations"] += report.n_configurations

    def profiled(counts, args, kwargs, profile):
        counts["rngbias.residues"] += args[1]

    def census_name(q, parallelism=1, **kwargs):
        return f"census.run_census.w{parallelism}"

    return [
        wrap(cli, "load_wire", "wires.load_wire", loaded),
        wrap(cli, "classify", "wires.classify", classified),
        wrap(cli, "marginal_table", "wires.marginal_table"),
        wrap(cli, "mutual_information", "wires.mutual_information"),
        wrap(butterfly, "classify_cells_bulk", "wires.classify_cells_bulk", bulk),
        wrap(cli, "conjecture_sweep", "butterfly.conjecture_sweep", swept),
        wrap(cli, "run_census", census_name),
        wrap(cli, "bias_profile", "rngbias.bias_profile", profiled),
        wrap(cli, "verify_bounds", "rngbias.verify_bounds"),
    ]


@contextmanager
def installed(patches):
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, fn in patches:
            setattr(module, attr, fn)
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


class _Stdout(io.TextIOBase):
    def __init__(self, capture: workloads.Capture):
        self.capture = capture

    def write(self, text: str) -> int:
        self.capture.feed(text.encode("utf-8"))
        return len(text)


def call_cli(inv: workloads.Invocation) -> workloads.Outcome:
    capture = workloads.Capture(inv.section)
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = _Stdout(capture), err
    try:
        code = cli.main(inv.argv)
    finally:
        sys.stdout, sys.stderr = saved
    return workloads.Outcome(code, capture, err.getvalue())


def run_sequence(name: str, sequence, tracer: Tracer | None, failures) -> float:
    """Run one workload's invocations in this process; returns the wall time."""
    t0 = time.perf_counter()
    for inv in sequence:
        label = f"{name}/{inv.label}"
        if tracer is None:
            outcome = call_cli(inv)
        else:
            tracer.invocation = label
            with tracer.span("cli.main"):
                outcome = call_cli(inv)
            tracer.counts[f"cli.stdout_bytes.{name}"] += outcome.stdout.size
            tracer.invocation = None
        failures.record(label, inv.problems(outcome))
    return time.perf_counter() - t0


def census_kernel(tracer: Tracer, failures) -> None:
    q = workloads.CENSUS_Q
    expected = workloads.census_expected(q)
    tracer.invocation = "census-q5/classify_packed"
    vi = cm = bad = 0
    for lo in range(0, expected["total_wires"], CENSUS_BATCH):
        batch = np.arange(lo, lo + CENSUS_BATCH, dtype=np.uint32)
        with tracer.span("census.classify_packed"):
            value_independent, constant = census.classify_packed(q, batch)
        vi += int(value_independent.sum())
        cm += int(constant.sum())
        bad += int((value_independent & ~constant).sum())
        tracer.counts["census.batches"] += 1
        tracer.counts["census.wires"] += batch.size
    tracer.counts["census.soundness_violations"] += bad
    tracer.invocation = None
    problems = []
    if (vi, cm, bad) != (expected["count_value_independent"],
                         expected["count_constant_marginal"], 0):
        problems.append(f"classify_packed counts {(vi, cm, bad)} differ from the formula")
    failures.record("census-q5/classify_packed", problems)


def urem_words(seed: int, tracer: Tracer, failures) -> None:
    q, width = workloads.Q_DSA, workloads.UREM_WIDTH
    rng = cli.stream_rng(seed, "urem-check")  # the pairs `urem-check --seed` draws
    xs = rng.integers(0, q, size=workloads.UREM_SAMPLES).tolist()
    s1s = rng.integers(0, q, size=workloads.UREM_SAMPLES).tolist()
    cfg = bitvec.WidthConfig(q, width)
    reparam, recombine = bitvec.urem_reparam, bitvec.urem_recombine
    wrong = 0
    tracer.invocation = "mldsa-bridge/urem"
    with tracer.span("bitvec.urem"):
        for x, s1 in zip(xs, s1s):
            s0 = reparam(cfg, x, s1)
            wrong += s0 != (x - s1) % q or recombine(cfg, s0, s1) != x
    tracer.invocation = None
    tracer.counts["bitvec.urem_pairs"] += len(xs)
    failures.record("mldsa-bridge/urem", [f"{wrong} mismatches"] if wrong else [])


def run_traced(inputs: workloads.Inputs, failures, spans_path: str) -> dict:
    """One traced pass over every workload; returns the per-layer metrics."""
    cheap = [n for n in workloads.WORKLOADS if n != "screen-mlkem"]
    untraced = sum(run_sequence(n, inputs.workloads[n], None, failures) for n in cheap)
    tracer = Tracer()
    traced = 0.0
    with installed(_patches(tracer)):
        run_sequence("screen-mlkem", inputs.workloads["screen-mlkem"], tracer, failures)
        for name in cheap:
            traced += run_sequence(name, inputs.workloads[name], tracer, failures)
    census_kernel(tracer, failures)
    urem_words(inputs.seed, tracer, failures)
    tracer.write(spans_path)
    print(f"spans: {len(tracer.spans)} written to {spans_path}")

    c = tracer.counts
    sweeps = [workloads.sweep_shape(t, r) for _, t, r, _ in workloads.sweep_variants(inputs.seed)]
    expected_counts = {
        "wires.cells": 6 * workloads.Q_KEM ** 2,
        "wires.bulk_rows": sum(n * workloads.SWEEP_STAGES * workloads.TAPS_PER_STAGE
                               for n, _ in sweeps),
        "wires.bulk_calls": sum(calls for _, calls in sweeps),
        "butterfly.configurations": sum(n for n, _ in sweeps),
        "census.wires": 1 << workloads.CENSUS_Q ** 2,
        "rngbias.residues": sum(q for _, q in workloads.BIAS_CASES),
    }
    for key, value in expected_counts.items():
        failures.record(f"count {key}", [] if c[key] == value else [f"{c[key]} != {value}"])
    screen = "screen-mlkem/"
    return {
        "cli.main_s": tracer.total("cli.main", screen),
        "cli.self_s": tracer.self_time("cli.main", screen),
        "cli.stdout_bytes": c["cli.stdout_bytes.screen-mlkem"],
        "wires.load_wire_s": tracer.total("wires.load_wire"),
        "wires.input_bytes": c["wires.input_bytes"],
        "wires.classify_s": tracer.total("wires.classify"),
        "wires.marginal_table_s": tracer.total("wires.marginal_table"),
        "wires.mutual_information_s": tracer.total("wires.mutual_information"),
        "wires.cells": c["wires.cells"],
        "wires.classify_cells_bulk_s": tracer.total("wires.classify_cells_bulk"),
        "wires.bulk_calls": c["wires.bulk_calls"],
        "wires.bulk_rows": c["wires.bulk_rows"],
        "butterfly.conjecture_sweep_s": tracer.total("butterfly.conjecture_sweep"),
        "butterfly.self_s": tracer.self_time("butterfly.conjecture_sweep"),
        "butterfly.configurations": c["butterfly.configurations"],
        "census.run_census_s.w1": tracer.total("census.run_census.w1"),
        "census.run_census_s.w2": tracer.total("census.run_census.w2"),
        "census.classify_packed_s": tracer.total("census.classify_packed"),
        "census.batches": c["census.batches"],
        "census.wires": c["census.wires"],
        "census.soundness_violations": c["census.soundness_violations"],
        "rngbias.bias_profile_s": tracer.total("rngbias.bias_profile"),
        "rngbias.verify_bounds_s": tracer.total("rngbias.verify_bounds"),
        "rngbias.residues": c["rngbias.residues"],
        "bitvec.urem_s": tracer.total("bitvec.urem"),
        "bitvec.urem_pairs": c["bitvec.urem_pairs"],
        "trace.overhead_s": traced - untraced,
    }
