import importlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import maskcheck as mc
from maskcheck import _render, _steps, cli, wires
from maskcheck.cli import main, stream_rng


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse_large(monkeypatch, name):
    """Make np.<name> fail on any request above 2^20 cells, so that a size
    check missing before it shows as a test failure, never an allocation."""
    real = getattr(np, name)

    def guarded(shape, *args, **kwargs):
        if math.prod(shape if isinstance(shape, tuple) else (shape,)) > 1 << 20:
            raise AssertionError(f"np.{name} asked for {shape} cells")
        return real(shape, *args, **kwargs)

    monkeypatch.setattr(np, name, guarded)


def refuse_call(monkeypatch, module, name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    monkeypatch.setattr(module, name, refused)


def residue_table(kind, q):
    """The flat s0-major table of a residue wire (alphabet q, q prime) of
    each verdict: f(s1), a permutation g(s0), and (s0 + s1) % q."""
    s = np.arange(q)
    return {"value-independent": np.tile(s * 3 % q, q),
            "constant-marginal": np.repeat(s * 5 % q, q),
            "recombined": ((s[:, None] + s) % q).ravel()}[kind]


RESIDUE_VERDICTS = {"value-independent": "VALUE_INDEPENDENT",
                    "constant-marginal": "CONSTANT_MARGINAL_ONLY",
                    "recombined": "NON_CONSTANT_MARGINAL"}


class TestClassify:
    def test_witness_file(self, capsys, tmp_path):
        path = tmp_path / "wire.json"
        mc.save_wire(mc.t6_witness(5), path)
        code, out, _ = run(capsys, "classify", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "maskcheck/1"
        assert doc["verdict"] == "CONSTANT_MARGINAL_ONLY"
        assert doc["mutual_information_bits"] == 0.0
        assert doc["mutual_information_is_zero"] is True
        assert len(doc["marginals"]) == 5

    def test_constant_wire(self, capsys, tmp_path):
        path = tmp_path / "wire.json"
        mc.save_wire(mc.wire_from_fn(3, lambda a, b: 1), path)
        code, out, _ = run(capsys, "classify", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["verdict"] == "VALUE_INDEPENDENT"

    def test_peak_memory_near_table_and_marginals(self, tmp_path):
        """A classify run holds the table, the marginal table and buffers of
        a fixed size: on the recombined residue wire (s0 + s1) % q with
        alphabet q, whose marginal table is as large as its table, numpy's
        traced peak stays within 2.6 tables."""
        q = 1031
        s = np.arange(q)
        path = tmp_path / "wire.json"
        mc.save_wire(mc.make_wire(q, ((s[:, None] + s) % q).ravel(), alphabet_size=q), path)
        table_bytes = q * q * np.dtype(np.int64).itemsize
        tracemalloc.start()
        try:
            with open(tmp_path / "out.json", "w") as out, redirect_stdout(out):
                code = main(["classify", str(path), "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads((tmp_path / "out.json").read_text())["verdict"] == "NON_CONSTANT_MARGINAL"
        assert peak <= 2.6 * table_bytes

    def test_same_stdout_under_numpy_baseline_dispatch(self, tmp_path):
        """The mutual information printed does not depend on numpy's SIMD
        dispatch: a random q = 31 Boolean wire prints the same stdout with
        numpy's AVX512 kernels turned off.  On a CPU without AVX512 the
        variable only warns, and both runs take the same kernels."""
        path = tmp_path / "wire.json"
        mc.save_wire(mc.make_wire(31, np.random.default_rng(0).integers(0, 2, 961)), path)
        script = "import sys\nfrom maskcheck import cli\nsys.exit(cli.main())"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
        outs = []
        for disabled in ({}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"}):
            proc = subprocess.run([sys.executable, "-c", script, "classify", str(path),
                                   "--format", "json"], capture_output=True, timeout=60,
                                  env=dict(env, **disabled))
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["verdict"] == "NON_CONSTANT_MARGINAL"

    @pytest.mark.parametrize("kind", ["value-independent", "recombined"])
    def test_peak_memory_without_marginal_table(self, tmp_path, monkeypatch, kind):
        """A residue wire's marginal table (q * alphabet cells) is never
        held whole: at q = 1031, with the step and chunk budgets small
        beside it, a json run peaks at the uint16 table plus a few
        PARSE_CHUNKs, below the table and the marginal table together."""
        q = 1031
        monkeypatch.setattr(_steps, "STEP_CELLS", 1 << 12)
        monkeypatch.setattr(wires, "PARSE_CHUNK", 1 << 17)
        monkeypatch.setattr(_steps, "usable_cpus", lambda: 2)
        path = tmp_path / "wire.json"
        mc.save_wire(mc.make_wire(q, residue_table(kind, q), alphabet_size=q), path)
        table_bytes = q * q * np.dtype(np.uint16).itemsize  # as many as the marginal table
        tracemalloc.start()
        try:
            with open(tmp_path / "out.json", "w") as out, redirect_stdout(out):
                code = main(["classify", str(path), "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads((tmp_path / "out.json").read_text())["verdict"] == RESIDUE_VERDICTS[kind]
        assert peak <= table_bytes + 5 * wires.PARSE_CHUNK < 2 * table_bytes

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_residue_stdout_same_in_blocks_on_threads(self, capsys, monkeypatch, tmp_path,
                                                      threads):
        """Residue wires at q = 41 of each verdict, and a random one, counted
        in blocks of three rows on 1 to 4 threads: stdout in every format
        is the bytes of the whole-table analysis that a step of the default
        size takes."""
        q = 41
        tables = [residue_table(kind, q) for kind in RESIDUE_VERDICTS]
        tables.append(np.random.default_rng(threads).integers(0, q, q * q))
        argvs = []
        for i, table in enumerate(tables):
            mc.save_wire(mc.make_wire(q, table, alphabet_size=q), tmp_path / f"{i}.json")
            argvs += [("classify", str(tmp_path / f"{i}.json"), "--format", fmt)
                      for fmt in ("json", "csv", "human")]
        assert not wires._in_blocks(q, q)
        expected = [run(capsys, *argv) for argv in argvs]
        monkeypatch.setattr(_steps, "STEP_CELLS", 160)
        monkeypatch.setattr(_steps, "usable_cpus", lambda: threads)
        assert wires._in_blocks(q, q) and len(_steps.steps(1, q, q)) == 14
        assert [run(capsys, *argv) for argv in argvs] == expected

    @pytest.mark.parametrize("kind", ["value-independent", "constant-marginal"])
    def test_constant_marginals_rendered_without_counting(self, monkeypatch, kind):
        """After `classify`, a residue wire whose marginal is constant
        renders every row as row 0 without counting a block again."""
        q = 257
        w = mc.make_wire(q, residue_table(kind, q), alphabet_size=q)
        assert wires._in_blocks(q, q) and mc.classify(w).value == RESIDUE_VERDICTS[kind]
        row = mc.marginal_histogram(w, 0).tolist()
        refuse_call(monkeypatch, wires, "_count_block")
        text = "".join(_render._json_rows(_render._marginal_texts(w)))
        assert json.loads(text) == [row] * q

    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    @pytest.mark.parametrize("kind", list(RESIDUE_VERDICTS))
    def test_each_block_counted_once(self, capsys, monkeypatch, tmp_path, kind, fmt):
        """A classify run of a residue wire counts row 0 once and each block
        of secret rows once: in one pass where its marginal is constant, or
        in json; only the human rows of a non-constant marginal, which need
        the verdict first, count the blocks a second time."""
        q = 257
        path = tmp_path / "wire.json"
        mc.save_wire(mc.make_wire(q, residue_table(kind, q), alphabet_size=q), path)
        calls, real = [], wires._count_block

        def counted(q, table, alphabet, base, x0):
            calls.append((x0, len(base)))
            return real(q, table, alphabet, base, x0)

        monkeypatch.setattr(wires, "_count_block", counted)
        assert run(capsys, "classify", str(path), "--format", fmt)[0] == 0
        blocks = [(rows.start, rows.stop - rows.start) for _, rows in _steps.steps(1, q, q)]
        twice = kind == "recombined" and fmt == "human"
        assert len(blocks) > 1
        assert sorted(calls) == sorted([(0, 1)] + blocks * (1 + twice))

    def test_truncated_table_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"q": 2, "alphabet": 2, "order": "s0_major", "table": [1]}')
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2
        assert "1 entries" in err and "expected q^2 = 4" in err

    def test_invalid_json_exits_2_with_position(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2
        assert "line 1" in err

    def test_invalid_utf8_exits_2_naming_byte(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"q": 1, "note": "caf\xe9", "alphabet": 2}')
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and not out
        assert "invalid UTF-8 at byte 21: invalid continuation byte" in err

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and not out
        assert "invalid JSON: nested too deeply" in err

    def test_integer_beyond_digit_limit_exits_2(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"q": ' + "1" * 5000 + "}")
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and not out
        assert "invalid JSON" in err and "digits" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify", str(tmp_path / "absent.json"))
        assert code == 2

    @pytest.mark.parametrize("key", ["q", "alphabet"])
    def test_bool_header_exits_2(self, capsys, tmp_path, key):
        doc = {"q": 2, "alphabet": 2, "order": "s0_major", "table": [0, 1, 1, 0]}
        doc[key] = True
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and not out
        assert f"{key} must be a positive integer, got True" in err

    def test_huge_alphabet_exits_2_before_allocating(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"q": 2, "alphabet": 10**12, "order": "s0_major",
                                    "table": [0, 1, 1, 0]}))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and not out
        assert "above cap" in err

    @pytest.mark.parametrize("table,message", [
        ([0, True, 0, 0], "table entry at index 1 is not an integer: True"),
        ([0, 0, 1.0, 0], "table entry at index 2 is not an integer: 1.0"),
        ([0, 10**30, 0, 0], f"table entry {10**30} at index 1 outside alphabet [0, 2)"),
        ([0, 0, -1, 0], "table entry -1 at index 2 outside alphabet [0, 2)"),
        ([0, 1, 1, 2], "table entry 2 at index 3 outside alphabet [0, 2)"),
    ], ids=["bool", "float", "beyond-int64", "negative", "last-index"])
    def test_bad_entry_named_by_index(self, capsys, tmp_path, table, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"q": 2, "alphabet": 2, "order": "s0_major",
                                    "table": table}))
        with pytest.raises(mc.WireFormatError) as info:
            mc.load_wire(path)
        assert str(info.value) == message
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and not out
        assert message in err


class TestCensus:
    def test_q2_numbers(self, capsys):
        code, out, _ = run(capsys, "census", "--q", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["total_wires"] == 16
        assert doc["count_value_independent"] == 4
        assert doc["count_constant_marginal"] == 6
        assert doc["count_conservative"] == 2
        assert doc["soundness_violations"] == 0

    def test_json_identical_across_worker_counts(self, capsys):
        _, out1, _ = run(capsys, "census", "--q", "3", "--workers", "1",
                         "--format", "json")
        _, out2, _ = run(capsys, "census", "--q", "3", "--workers", "2",
                         "--format", "json")
        assert out1 == out2

    def test_csv_per_verdict(self, capsys):
        code, out, _ = run(capsys, "census", "--q", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "verdict,count",
            "VALUE_INDEPENDENT,4",
            "CONSTANT_MARGINAL_ONLY,2",
            "NON_CONSTANT_MARGINAL,10",
        ]

    def test_bad_q_exits_2(self, capsys):
        code, _, err = run(capsys, "census", "--q", "9")
        assert code == 2

    def test_human_line_reports_workers_used(self, capsys):
        # 512 wires are one batch: the count runs in-process.
        code, out, _ = run(capsys, "census", "--q", "3", "--workers", "64")
        assert code == 0
        assert out.splitlines()[-1].endswith(" s (1 worker(s))")

    def test_zero_workers_exits_2(self, capsys):
        code, out, err = run(capsys, "census", "--q", "2", "--workers", "0")
        assert code == 2 and out == ""
        assert "parallelism must be >= 1" in err

    def test_workers_env_is_ignored(self, capsys, monkeypatch):
        expected = run(capsys, "census", "--q", "2", "--format", "json")
        monkeypatch.setenv("MASKCHECK_WORKERS", "abc")
        assert run(capsys, "census", "--q", "2", "--format", "json") == expected
        assert expected[0] == 0

    def test_interrupt_exits_130(self, capsys, monkeypatch):
        """Ctrl-C during a run: one error line and exit 130, no traceback."""
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_census", interrupted)
        try:
            result = run(capsys, "census", "--q", "2")
        except KeyboardInterrupt:  # uncaught, it would end the test session
            pytest.fail("KeyboardInterrupt escaped main")
        assert result == (130, "", "error: interrupted\n")


class TestBias:
    def test_mlkem_instance(self, capsys):
        code, out, _ = run(capsys, "bias", "--n", "4096", "--q", "3329",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"][0] == 2
        assert doc["counts"][767] == 1
        assert doc["ratio"] == "2/1"
        assert doc["bounds_verified"] is True

    def test_large_q_suppresses_counts(self, capsys):
        code, out, _ = run(capsys, "bias", "--n", "4096", "--q", "8380417",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert "counts" not in doc
        assert doc["ratio"] == "DEGENERATE"

    def test_csv_counts(self, capsys):
        code, out, _ = run(capsys, "bias", "--n", "8", "--q", "4",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[:3] == ["residue,count", "0,2", "1,2"]

    def test_bad_n_exits_2(self, capsys):
        code, _, _ = run(capsys, "bias", "--n", "0", "--q", "5")
        assert code == 2

    @pytest.mark.parametrize("n,q,message", [
        (4096, 10**14, "above the profile cap 16777216"),
        (10**30, 5, "int64 counts"),
    ], ids=["huge-q", "huge-n"])
    def test_oversize_exits_2_before_allocating(self, capsys, monkeypatch,
                                                n, q, message):
        refuse_large(monkeypatch, "full")
        code, out, err = run(capsys, "bias", "--n", str(n), "--q", str(q))
        assert code == 2 and not out
        assert message in err


class TestBounds:
    @pytest.mark.parametrize("q,expected", [(3329, True), (8380417, True),
                                            (8388608, False)])
    def test_admissibility(self, capsys, q, expected):
        code, out, _ = run(capsys, "bounds", "--q", str(q), "--w", "24",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["admissible"] is expected

    def test_reports_range(self, capsys):
        _, out, _ = run(capsys, "bounds", "--q", "5", "--w", "8",
                        "--format", "json")
        doc = json.loads(out)
        assert doc["intermediate_min"] == 1
        assert doc["intermediate_max_exclusive"] == 10

    def test_bad_q_exits_2(self, capsys):
        code, _, _ = run(capsys, "bounds", "--q", "0", "--w", "24")
        assert code == 2

    def test_huge_width_exits_2(self, capsys):
        code, out, err = run(capsys, "bounds", "--q", "3329", "--w", "20000")
        assert code == 2 and not out
        assert "width must be in [1, 4096], got 20000" in err


class TestUremCheck:
    def test_sampled_run(self, capsys):
        code, out, _ = run(capsys, "urem-check", "--q", "3329", "--w", "24",
                           "--seed", "42", "--samples", "500",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["mismatches"] == 0
        assert doc["round_trip_failures"] == 0
        assert doc["mode"] == "sampled"

    def test_exhaustive_small_q(self, capsys):
        code, out, _ = run(capsys, "urem-check", "--q", "17", "--w", "24",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "exhaustive"
        assert doc["pairs_checked"] == 17 * 17

    def test_seed_determinism(self, capsys):
        args = ("urem-check", "--q", "3329", "--w", "24", "--seed", "9",
                "--samples", "200", "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_negative_samples_exits_2(self, capsys):
        code, out, err = run(capsys, "urem-check", "--q", "3329", "--samples", "-5")
        assert code == 2 and not out
        assert "samples must be >= 1, got -5" in err

    @pytest.mark.parametrize("argv", [
        ("--q", "8380417", "--exhaustive"),
        ("--q", "8380417", "--samples", str(10**12)),
    ], ids=["exhaustive-mldsa", "huge-samples"])
    def test_oversize_run_exits_2_before_the_loop(self, capsys, monkeypatch, argv):
        refuse_call(monkeypatch, cli, "urem_reparam")
        refuse_call(monkeypatch, cli, "stream_rng")
        code, out, err = run(capsys, "urem-check", "--w", "24", *argv)
        assert code == 2 and not out
        assert f"pairs to check, above the cap of {cli.UREM_MAX_PAIRS}" in err

    def test_sampled_q_beyond_int64_exits_2_before_drawing(self, capsys, monkeypatch):
        refuse_call(monkeypatch, cli, "urem_reparam")
        refuse_call(monkeypatch, cli, "stream_rng")
        code, out, err = run(capsys, "urem-check", "--q", str(10**20), "--w", "80",
                             "--samples", "10")
        assert code == 2 and not out
        assert err == (f"error: q={10**20} is above 2^63, but sampled residues "
                       "are drawn as int64\n")

    def test_sampled_q_at_two_to_the_63_runs(self, capsys):
        code, out, _ = run(capsys, "urem-check", "--q", str(1 << 63), "--w", "65",
                           "--samples", "5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pairs_checked"] == 5 and doc["mismatches"] == 0

    @staticmethod
    def record_calls(monkeypatch):
        """Wrap both word ops on `cli`; returns, for each call, the op, the
        length of its x (or s0), the dtypes of that and of s1, and whether
        some x (or s0) differs from its s1.  The arrays are not kept: a run
        at the cap passes 2^24 pairs."""
        calls = []
        for name in ("urem_reparam", "urem_recombine"):
            def recorded(cfg, a, s1, name=name, real=getattr(mc, name)):
                calls.append((name, len(a), (a.dtype, s1.dtype), bool(np.any(a != s1))))
                return real(cfg, a, s1)
            monkeypatch.setattr(cli, name, recorded)
        return calls

    @pytest.mark.parametrize("argv", [
        ("--q", "4096", "--exhaustive"),
        ("--q", "8380417", "--samples", "16777216"),
    ], ids=["exhaustive", "sampled"])
    def test_at_the_pair_cap(self, capsys, monkeypatch, argv):
        """2^24 pairs, all of q = 4096 or drawn at q = 8380417: one call of
        each word op per step of STEP_CELLS pairs, whose x and s1 are not
        one array."""
        calls = self.record_calls(monkeypatch)
        code, out, _ = run(capsys, "urem-check", "--w", "24", *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pairs_checked"] == cli.UREM_MAX_PAIRS == 16777216
        assert doc["mismatches"] == doc["round_trip_failures"] == 0
        steps = cli.UREM_MAX_PAIRS // _steps.STEP_CELLS
        assert [name for name, *_ in calls] == ["urem_reparam", "urem_recombine"] * steps
        assert {n for _, n, *_ in calls} == {_steps.STEP_CELLS}
        assert any(differs for name, *_, differs in calls if name == "urem_reparam")

    def test_sampled_peak_memory_is_a_few_steps(self, capsys):
        """Sampled pairs are drawn a step at a time: 2^20 pairs at
        q = 8380417 trace a numpy peak of at most eight int64 arrays of a
        step, where pairs drawn whole would take 16 MiB."""
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "urem-check", "--q", "8380417", "--w", "24",
                               "--samples", str(1 << 20), "--format", "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["pairs_checked"] == 1 << 20
        assert peak <= 8 * 8 * _steps.STEP_CELLS

    def test_sampled_q_above_two_to_the_62_checks_python_ints(self, capsys, monkeypatch):
        """At 2q >= 2^63, x + q would wrap in int64: the pairs are objects."""
        calls = self.record_calls(monkeypatch)
        code, out, _ = run(capsys, "urem-check", "--q", str((1 << 62) + 1), "--w", "64",
                           "--samples", "1000", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pairs_checked"] == 1000 and doc["mode"] == "sampled"
        assert doc["mismatches"] == doc["round_trip_failures"] == 0
        assert [dtypes for _, _, dtypes, _ in calls] == [(np.dtype(object),) * 2] * 2

    def test_inadmissible_exits_2(self, capsys):
        code, _, err = run(capsys, "urem-check", "--q", "8388608", "--w", "24")
        assert code == 2
        message = "width 24 inadmissible for q=8388608 (needs 2q < 2^w)"
        assert err == f"error: {message}\n"
        cfg = mc.WidthConfig(8388608, 24)
        for word_op in (mc.urem_reparam, mc.urem_recombine):
            with pytest.raises(ValueError) as exc:
                word_op(cfg, 1, 0)
            assert str(exc.value) == message

    @pytest.mark.parametrize("mode", [("--samples", "5"), ("--exhaustive",)],
                             ids=["sampled", "exhaustive"])
    def test_negative_seed_exits_2_naming_the_option(self, capsys, monkeypatch, mode):
        refuse_call(monkeypatch, cli, "WidthConfig")
        with pytest.raises(SystemExit) as exc:
            main(["urem-check", "--q", "7", "--w", "8", "--seed", "-1", *mode])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and not captured.out
        assert captured.err.endswith("error: argument --seed: must be >= 0, got -1\n")


class TestWitness:
    def test_emits_wire_and_verdict(self, capsys, tmp_path):
        out_path = tmp_path / "w.json"
        code, out, _ = run(capsys, "witness", "--q", "5",
                           "--wire-out", str(out_path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "CONSTANT_MARGINAL_ONLY"
        assert doc["wire"]["table"][:5] == [1, 1, 1, 1, 1]
        # the emitted file round-trips through classify
        reloaded = mc.load_wire(out_path)
        assert mc.classify(reloaded) is mc.Verdict.CONSTANT_MARGINAL_ONLY

    def test_table_listed_for_json_only(self, capsys, monkeypatch):
        """The wire's q^2-entry table is rendered only when json prints it."""
        def refused(table, sep=","):
            raise AssertionError("the wire table was rendered")

        monkeypatch.setattr(_render, "_table_text", refused)
        golden = Path(__file__).parent / "data" / "golden"
        for fmt, ext in (("human", "txt"), ("csv", "csv")):
            code, out, _ = run(capsys, "witness", "--q", "5", "--format", fmt)
            assert code == 0 and out == (golden / f"witness-q5.{ext}").read_text()

    def test_q1_exits_2(self, capsys):
        code, _, _ = run(capsys, "witness", "--q", "1")
        assert code == 2

    def test_over_cell_cap_exits_2_before_allocating(self, capsys, monkeypatch):
        refuse_large(monkeypatch, "zeros")
        with pytest.raises(ValueError, match="above cap"):
            mc.t6_witness(8193)  # 8193^2 cells, just above 2^26
        code, out, err = run(capsys, "witness", "--q", "8193")
        assert code == 2 and not out
        assert "needs 67125249 table cells, above cap 67108864" in err

    def test_unwritable_wire_out_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "w.json"
        code, out, err = run(capsys, "witness", "--q", "5", "--wire-out", str(path))
        assert code == 2 and not out
        assert err.startswith(f"error: cannot write {path}: ")
        assert "No such file or directory" in err


class TestButterfly:
    def test_sweep_json(self, capsys):
        code, out, _ = run(capsys, "butterfly", "--q", "3", "--stages", "2",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["clean"] is True
        assert doc["n_configurations"] == 4 * 2 * 9  # twiddle vecs * roles * contexts
        assert "not a proof" in doc["note"]

    def test_explicit_twiddles(self, capsys):
        code, out, _ = run(capsys, "butterfly", "--q", "5", "--stages", "1",
                           "--twiddles", "2,3", "--format", "json")
        assert code == 0
        assert json.loads(out)["twiddle_set"] == [2, 3]

    def test_bad_config_exits_2(self, capsys):
        code, _, _ = run(capsys, "butterfly", "--q", "11", "--stages", "1")
        assert code == 2

    @pytest.mark.parametrize("twiddles", ["0", "2,5"])
    def test_zero_twiddle_exits_2(self, capsys, twiddles):
        code, out, err = run(capsys, "butterfly", "--q", "5", "--twiddles", twiddles)
        assert code == 2 and not out
        assert "0 mod 5; twiddles must be nonzero mod q" in err

    @pytest.mark.parametrize("twiddles,roles,configurations", [
        ("1", "a,b", 18), ("1,2", "a,b", 36), ("2,1", "b", 18), ("", "a,b", 36),
    ])
    def test_configurations_counted_once(self, capsys, twiddles, roles, configurations):
        code, out, _ = run(capsys, "butterfly", "--q", "3", "--twiddles", twiddles,
                           "--roles", roles, "--format", "json")
        assert code == 0
        assert json.loads(out)["n_configurations"] == configurations

    @pytest.mark.parametrize("twiddles", ["1,4", "2,2", "1,2,-1"])
    def test_twiddles_repeated_mod_q_exit_2(self, capsys, twiddles):
        first, again = {"1,4": ("1", "4"), "2,2": ("2", "2"), "1,2,-1": ("2", "-1")}[twiddles]
        code, out, err = run(capsys, "butterfly", "--q", "3", "--twiddles", twiddles)
        assert code == 2 and not out
        assert err == (f"error: twiddle {again} repeats twiddle {first} mod 3; "
                       "twiddles must be distinct mod q\n")

    @pytest.mark.parametrize("option,value,message", [
        ("--twiddles", "1,,", "not comma-separated integers: '1,,'"),
        ("--twiddles", "1.5", "not comma-separated integers: '1.5'"),
        *(("--roles", roles, f"invalid choice: {roles!r} "
                             "(choose from 'a,b', 'b,a', 'a', 'b')")
          for roles in ("a,a,b", "b,b", "a,c", "a,,b", "")),
    ])
    def test_refused_option_exits_2_naming_it(self, capsys, monkeypatch,
                                              option, value, message):
        refuse_call(monkeypatch, cli, "conjecture_sweep")
        with pytest.raises(SystemExit) as exc:
            main(["butterfly", "--q", "3", option, value])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and not captured.out
        assert captured.err.endswith(f"error: argument {option}: {message}\n")


class TestTheoryViolationExits3:
    """A contradicted check still writes its output, then one stderr line."""

    def test_census_soundness_violation(self, capsys, monkeypatch):
        real = cli.run_census
        monkeypatch.setattr(cli, "run_census", lambda q, parallelism: real(q)._replace(
            soundness_violations=2))
        code, out, err = run(capsys, "census", "--q", "2")
        assert code == 3 and "  soundness violations:   2\n" in out
        assert err == ("error: census found 2 soundness violations "
                       "(value-independent wires with non-constant marginals)\n")

    def test_bias_bound_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_bounds", lambda profile: False)
        code, out, err = run(capsys, "bias", "--n", "8", "--q", "4", "--format", "csv")
        assert code == 3 and out.startswith("residue,count\n0,2\n")
        assert err == "error: residue counts violate the floor/ceil bounds\n"

    def test_urem_mismatch(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "urem_reparam", lambda cfg, x, s1: 0)
        code, out, err = run(capsys, "urem-check", "--q", "5", "--format", "json")
        assert code == 3 and json.loads(out)["mismatches"] == 20
        assert err == "error: word-level encoding disagrees with ring arithmetic\n"

    def test_butterfly_flagged_tap(self, capsys, monkeypatch):
        real = cli.conjecture_sweep

        def flagged(**kwargs):
            report = real(**kwargs)
            report.non_constant_marginal.append(mc.butterfly.TapFinding(
                "s0.c0", (1,), "a", ((0, 0),), mc.Verdict.NON_CONSTANT_MARGINAL))
            report.value_independent_adversarial.append(mc.butterfly.TapFinding(
                "s0.d_recombined", (1,), "b", ((1, 0),), mc.Verdict.VALUE_INDEPENDENT))
            return report

        monkeypatch.setattr(cli, "conjecture_sweep", flagged)
        code, out, err = run(capsys, "butterfly", "--q", "2", "--format", "json")
        doc = json.loads(out)
        assert code == 3 and doc["clean"] is False
        assert doc["non_constant_marginal"] == [
            {"tap": "s0.c0", "twiddles": [1], "secret_role": "a", "context": [[0, 0]],
             "verdict": "NON_CONSTANT_MARGINAL"}]
        assert doc["value_independent_adversarial"] == [
            {"tap": "s0.d_recombined", "twiddles": [1], "secret_role": "b",
             "context": [[1, 0]], "verdict": "VALUE_INDEPENDENT"}]
        assert err == ("error: sweep flagged 1 sharewise non-constant-marginal taps "
                       "and 1 value-independent recombination probes\n")

    def test_raised_theory_violation_writes_no_output(self, capsys, monkeypatch):
        def contradiction(wire):
            raise mc.TheoryViolation("cross-check failed")

        monkeypatch.setattr(cli, "classify", contradiction)
        code, out, err = run(capsys, "witness", "--q", "3")
        assert code == 3 and not out
        assert err == "theory violation: cross-check failed\n"


    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    def test_residue_marginal_contradiction_writes_no_output(self, capsys, monkeypatch,
                                                             tmp_path, fmt):
        """A value-independent residue wire whose block kernel counts one
        secret's row differently: the analysis runs before any output."""
        q = 257
        path = tmp_path / "wire.json"
        mc.save_wire(mc.make_wire(q, np.tile(np.arange(q) % 5, q), alphabet_size=q), path)
        real = wires._count_block

        def skewed(q, table, alphabet, base, x0):
            counts = real(q, table, alphabet, base, x0)
            if x0 <= q - 1 < x0 + len(counts):
                counts[q - 1 - x0] = np.roll(counts[q - 1 - x0], 1)
            return counts

        monkeypatch.setattr(wires, "_count_block", skewed)
        code, out, err = run(capsys, "classify", str(path), "--format", fmt)
        assert code == 3 and not out
        assert err == (f"theory violation: wire at q={q} is value-independent but its "
                       "marginal histogram varies with the secret\n")


class TestClosedStdout:
    """A reader that stops after one line: no traceback, and the exit code
    and alarm line the run would have had anyway."""

    @pytest.mark.parametrize("patch,code,err", [
        ("", 0, ""),
        ("cli.verify_bounds = lambda profile: False", 3,
         "error: residue counts violate the floor/ceil bounds\n"),
    ], ids=["ok", "alarm"])
    def test_reader_closes_after_one_line(self, patch, code, err):
        # About 500 kB of csv rows, far more than a pipe buffers.
        argv = ["bias", "--n", "4096", "--q", "65536", "--format", "csv"]
        script = f"import sys\nfrom maskcheck import cli\n{patch}\nsys.exit(cli.main())"
        src = Path(cli.__file__).resolve().parent.parent
        proc = subprocess.Popen([sys.executable, "-c", script, *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.stdout.readline() == b"residue,count\n"
        proc.stdout.close()
        assert proc.stderr.read().decode() == err
        proc.stderr.close()
        assert proc.wait(timeout=60) == code


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestFullStdout:
    """A stdout where every write fails (ENOSPC): one error line and exit 2,
    as an unwritable --wire-out path gives, and no traceback."""

    @pytest.mark.parametrize("argv", [
        ["classify", "WIRE"],
        ["classify", "WIRE", "--format", "csv"],
        ["classify", "WIRE", "--format", "human"],
        ["census", "--q", "2"],
        ["bias", "--n", "4096", "--q", "3329"],
        ["bounds", "--q", "3329", "--w", "24"],
        ["urem-check", "--q", "3329", "--samples", "1000"],
        ["witness", "--q", "3"],
        ["butterfly", "--q", "3"],
    ], ids=lambda argv: "-".join(a for a in argv if a[0].isalpha() and a != "WIRE"))
    def test_write_error_exits_2(self, tmp_path, argv):
        path = tmp_path / "wire.json"
        mc.save_wire(mc.make_wire(31, residue_table("recombined", 31), alphabet_size=31), path)
        argv = [str(path) if a == "WIRE" else a for a in argv]
        argv += [] if "--format" in argv else ["--format", "json"]
        script = "import sys\nfrom maskcheck import cli\nsys.exit(cli.main())"
        src = Path(cli.__file__).resolve().parent.parent
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-c", script, *argv], stdout=full,
                                  stderr=subprocess.PIPE, timeout=60,
                                  env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 2
        assert proc.stderr.decode() == \
            "error: cannot write output: [Errno 28] No space left on device\n"


class TestTracedNames:
    """The traced benchmark run replaces these names on `cli`, and one on
    `butterfly`, before it calls `main`: the replacement is what runs."""

    class Called(Exception):
        pass

    @pytest.mark.parametrize("module,name,argv", [
        ("cli", "load_wire", ["classify", "{wire}"]),
        ("cli", "classify", ["classify", "{wire}"]),
        ("cli", "mutual_information", ["classify", "{wire}"]),
        ("cli", "conjecture_sweep", ["butterfly", "--q", "2"]),
        ("cli", "run_census", ["census", "--q", "2"]),
        ("cli", "bias_profile", ["bias", "--n", "8", "--q", "4"]),
        ("cli", "verify_bounds", ["bias", "--n", "8", "--q", "4"]),
        ("cli", "stream_rng", ["urem-check", "--q", "7", "--w", "8", "--samples", "5"]),
        ("butterfly", "classify_cells_bulk", ["butterfly", "--q", "2"]),
    ])
    def test_replacement_set_before_main_is_called(self, monkeypatch, tmp_path,
                                                   module, name, argv):
        path = tmp_path / "wire.json"
        mc.save_wire(mc.t6_witness(3), path)

        def replacement(*args, **kwargs):
            raise self.Called(name)

        monkeypatch.setattr(importlib.import_module(f"maskcheck.{module}"), name,
                            replacement)
        with pytest.raises(self.Called, match=name):
            main([arg.format(wire=path) for arg in argv])


class TestOutputStability:
    def test_byte_identical_json_across_runs(self, capsys):
        for args in (
            ("census", "--q", "3", "--format", "json"),
            ("bias", "--n", "4096", "--q", "3329", "--format", "json"),
            ("bounds", "--q", "3329", "--w", "24", "--format", "json"),
            ("butterfly", "--q", "2", "--stages", "1", "--format", "json"),
            ("witness", "--q", "3", "--format", "json"),
        ):
            _, out1, _ = run(capsys, *args)
            _, out2, _ = run(capsys, *args)
            assert out1 == out2, args


class TestOpenblasThreads:
    """numpy's OpenBLAS pool, which no command calls, starts no thread from
    `main` unless the caller asks for one."""

    VAR = "OPENBLAS_NUM_THREADS"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task") or _steps.usable_cpus() < 2,
                        reason="needs /proc and two usable CPUs")
    def test_main_ends_on_one_thread(self):
        script = ("import os, sys\nfrom maskcheck import cli\ncode = cli.main()\n"
                  "print(len(os.listdir('/proc/self/task')))\nsys.exit(code)")
        env = {k: v for k, v in os.environ.items() if k != self.VAR}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script, "witness", "--q", "3"],
                              capture_output=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == b"1"

    def test_default_before_numpy_loads_keeps_callers_value(self, monkeypatch, capsys):
        monkeypatch.setenv(self.VAR, "2")
        monkeypatch.delitem(sys.modules, "numpy")  # `bounds` imports no numpy
        assert run(capsys, "bounds", "--q", "5", "--w", "8")[0] == 0
        assert os.environ[self.VAR] == "2"
        monkeypatch.delenv(self.VAR)
        assert run(capsys, "bounds", "--q", "5", "--w", "8")[0] == 0
        assert os.environ[self.VAR] == "1"

    def test_loaded_numpy_leaves_environment_alone(self, monkeypatch, capsys):
        monkeypatch.delenv(self.VAR, raising=False)
        environ = dict(os.environ)
        assert run(capsys, "witness", "--q", "3")[0] == 0
        assert dict(os.environ) == environ


class TestStreamRng:
    def test_streams_are_independent(self):
        a = stream_rng(7, "alpha").integers(0, 1 << 30, size=8)
        b = stream_rng(7, "beta").integers(0, 1 << 30, size=8)
        a2 = stream_rng(7, "alpha").integers(0, 1 << 30, size=8)
        assert list(a) == list(a2)
        assert list(a) != list(b)


def dumps_compact(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def row_texts(m):
    """The ",[a,b],[c,d]" texts of a non-empty matrix, a step of rows each,
    as `_marginal_texts` renders a marginal table."""
    return [_render._render_rows(m[rows]) for _, rows in _steps.steps(1, *m.shape)]


def rendered(m):
    return "".join(_render._json_rows(row_texts(m)))


def block_rows(cols):
    """Rows per rendered block of a matrix with `cols` columns."""
    return max(_steps.STEP_CELLS // cols, 1)


BLOCK = block_rows(3)  # three columns, as in the fixed cases below
# Every digit-count boundary of a non-negative int64.
DIGIT_EDGES = sorted({0, 1, 9, 2**62, 2**63 - 1}
                     | {10**k + d for k in range(1, 19) for d in (-1, 0, 1)})


@st.composite
def int_matrices(draw):
    """Non-negative int64, uint8 or uint16 matrices: tiny shapes and row
    counts around the render block of their column count, values from the
    digit edges or anywhere in the dtype's range, laid out contiguous,
    read-only, transposed, strided or as one row broadcast."""
    cols = draw(st.integers(1, 6))
    block = block_rows(cols)
    rows = draw(st.integers(1, 4) | st.sampled_from(
        [block - 1, block, block + 1, 2 * block + 3]))
    dtype = draw(st.sampled_from([np.int64, np.uint8, np.uint16]))
    top = int(np.iinfo(dtype).max)
    edges = [v for v in DIGIT_EDGES if v <= top] + [top]
    values = draw(st.lists(st.sampled_from(edges) | st.integers(0, top),
                           min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["contiguous", "read-only", "transposed", "strided",
                                   "broadcast"]))
    values = np.array(values, dtype=dtype)
    if layout == "broadcast":
        return np.broadcast_to(rng.choice(values, size=(1, cols)), (rows, cols))
    if layout == "transposed":
        return rng.choice(values, size=(cols, rows)).T
    if layout == "strided":
        return rng.choice(values, size=(2 * rows, 3 * cols))[::2, 1::3]
    m = rng.choice(values, size=(rows, cols))
    m.setflags(write=layout == "contiguous")
    return m


def json_values():
    scalars = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text())
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(st.text(), inner, max_size=4), max_leaves=12)


class TestJsonEmitter:
    @pytest.mark.parametrize("m", [
        np.zeros((1, 1), dtype=np.int64),
        np.array([DIGIT_EDGES], dtype=np.int64),
        np.array([DIGIT_EDGES], dtype=np.int64).T,
        np.zeros((BLOCK - 1, 3), dtype=np.int64),
        np.zeros((BLOCK, 3), dtype=np.int64),
        np.zeros((BLOCK + 1, 3), dtype=np.int64),
        np.arange(3 * (2 * BLOCK + 1), dtype=np.int64).reshape(-1, 3) * 997,
        np.arange(3 * (_steps.STEP_CELLS + 1), dtype=np.int64).reshape(3, -1),
        np.array([[7, 1000]], dtype=np.int32),
        np.array([[0, 9, 10, 99], [100, 199, 254, 255]], dtype=np.uint8),
        np.array([[0, 9, 10, 99, 100], [999, 1000, 9999, 10000, 65535]], dtype=np.uint16),
        np.broadcast_to(np.array([[3328, 1]], dtype=np.uint16), (BLOCK + 1, 2)),
    ], ids=["1x1", "one-row", "one-column", "zeros-below-block", "zeros-at-block",
            "zeros-above-block", "two-blocks-and-a-row", "rows-wider-than-a-block",
            "int32", "uint8", "uint16", "uint16-broadcast"])
    def test_matrix_matches_json_dumps(self, m):
        assert rendered(m) == dumps_compact(m.tolist())

    @settings(max_examples=150, deadline=None)
    @given(int_matrices())
    def test_matrix_matches_json_dumps_generated(self, m):
        rows = m.tolist()
        assert rendered(m) == dumps_compact(rows)
        # The human rows of classify: the inside of each row's list repr.
        assert list(_render._list_rows(row_texts(m))) == [repr(row)[1:-1] for row in rows]

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 12), st.sampled_from([2, 3, 256, 257, 65536]),
           st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_wire_matches_json_dumps(self, tmp_path, q, alphabet, budget, seed):
        """witness's json wire and a saved wire file, rendered in steps of
        `budget` entries, equal json.dumps of wire_to_dict: compact, and
        with json.dump's separators and a newline."""
        table = np.random.default_rng(seed).integers(0, alphabet, q * q)
        w = mc.make_wire(q, table, alphabet_size=alphabet)
        original, _steps.STEP_CELLS = _steps.STEP_CELLS, budget
        try:
            text = "".join(wires.wire_json(w))
            mc.save_wire(w, tmp_path / "wire.json")
        finally:
            _steps.STEP_CELLS = original
        assert text == dumps_compact(mc.wire_to_dict(w))
        saved = json.dumps(mc.wire_to_dict(w)) + "\n"
        assert (tmp_path / "wire.json").read_bytes() == saved.encode("utf-8")

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.text(), json_values(), max_size=6), st.text(),
           st.none() | st.tuples(json_values(), st.lists(st.integers(0, 1 << 16)),
                                 st.booleans()))
    def test_document_matches_json_dumps(self, doc, key, streamed):
        """A document whose `key` holds the compact JSON text of a value cut
        into pieces, as an iterator or a callable returning one, is written
        as the document holding that value."""
        plain = dict(doc)
        if streamed is not None:
            value, cuts, deferred = streamed
            text = dumps_compact(value)
            cuts = sorted({0, len(text), *(cut % (len(text) + 1) for cut in cuts)})
            pieces = iter([text[a:b] for a, b in zip(cuts, cuts[1:])])
            doc[key] = (lambda: pieces) if deferred else pieces
            plain[key] = value
        buf = io.StringIO()
        cli._emit(cli.Result(doc, human=list), "json", buf)
        assert buf.getvalue() == dumps_compact(plain) + "\n"
