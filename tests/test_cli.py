import json

import pytest

import maskcheck as mc
from maskcheck.cli import main, stream_rng


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_workers_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("MASKCHECK_WORKERS", "2")
        from maskcheck.cli import build_parser
        args = build_parser().parse_args(["census", "--q", "2"])
        assert args.workers == 2


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

    def test_inadmissible_exits_2(self, capsys):
        code, _, err = run(capsys, "urem-check", "--q", "8388608", "--w", "24")
        assert code == 2
        assert "inadmissible" in err


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

    def test_q1_exits_2(self, capsys):
        code, _, _ = run(capsys, "witness", "--q", "1")
        assert code == 2


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


class TestStreamRng:
    def test_streams_are_independent(self):
        a = stream_rng(7, "alpha").integers(0, 1 << 30, size=8)
        b = stream_rng(7, "beta").integers(0, 1 << 30, size=8)
        a2 = stream_rng(7, "alpha").integers(0, 1 << 30, size=8)
        assert list(a) == list(a2)
        assert list(a) != list(b)
