"""Golden stdout: the CLI's exact bytes for fixed inputs, in every format.

The expected files under data/golden were captured from the CLI before the
dense analysis was folded into one kernel (classify, witness) and before
the subcommands shared one output emitter (the rest); any change to the
verdicts, counts, float formatting or layout of the output shows up here
as a byte difference.  The census wall time is the one masked number.
The residue wires' stdout in every format, and q = 1031 at all, were
captured before classify's marginals were streamed as JSON blocks.  The
three Boolean q = 257 wires were captured while the dense kernel still
gathered the reparametrized table and every table went through
np.fromstring.  The s0 % 11 residue wire was captured while a constant
marginal was still rendered row by row.  The census-q5 files were captured
while the census still enumerated all 2^25 wires.  The counts_omitted line
of the q = 8380417 bias csv was captured again once csv fields holding a
comma were quoted.  The two-stage butterfly and the N < q bias files were
captured while the butterfly signals were still keyed one literal name at
a time and the bias summaries were still computed from divmod(N, q).  The
q = 300 witness, whose 90,000-entry table spans two render blocks, was
captured while its json wire was still one json.dumps of a list.  The
q = 1031 residue and random-bits q = 257 files were captured again when
mutual information came to be summed once, by math.fsum over the (count,
symbol) keys of the marginal table: their last digits moved.
Regenerate them (only for an intended output change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import hashlib
import io
import json
import re
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import maskcheck as mc
from maskcheck import _steps, wires
from maskcheck.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
FORMATS = {"json": "json", "csv": "csv", "human": "txt"}

# Alphabet-3 table at q = 7, drawn once from np.random.default_rng(7) and
# frozen here so the input does not depend on the generator's stream.
RANDOM_Q7_A3 = [
    2, 1, 2, 2, 1, 2, 2, 0, 0, 0, 0, 2, 2, 0, 1, 2, 0, 2, 0, 1, 2, 0, 1, 0, 2,
    0, 2, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 1, 1, 2, 1, 0, 2, 0, 2, 1, 0, 0, 1,
]


def residue_q1031():
    """Output 0 on masks s1 >= 30 and 1 on 15 <= s1 < 30, so every secret
    has counts of one, two and four digits; below 15 the output depends on
    the secret.  The 1031 rows span several JSON render blocks."""
    s0, s1 = np.divmod(np.arange(1031 * 1031), 1031)
    table = np.where(s1 >= 15, s1 < 30, (s0 * s0 + 3 * s1) % 1031)
    return mc.make_wire(1031, table, alphabet_size=1031)


def random_bits_q257():
    """Bits of a SHA-256 stream (seeds 0, 1, ...), independent of numpy's
    generators; its marginal is not constant."""
    stream = b"".join(hashlib.sha256(b"%d" % i).digest() for i in range(259))
    bits = np.unpackbits(np.frombuffer(stream, dtype=np.uint8))
    return mc.make_wire(257, bits[:257 * 257])


WIRES = {
    "and-q2": lambda: mc.wire_from_fn(2, lambda s0, s1: int(s0 == 0 and s1 == 0)),
    "witness-q5": lambda: mc.t6_witness(5),
    "random-q7-a3": lambda: mc.make_wire(7, RANDOM_Q7_A3, alphabet_size=3),
    # An affine permutation of the mask: value-independent.
    "perm-q31": lambda: mc.wire_from_fn(31, lambda s0, s1: (11 * s1 + 4) % 31,
                                        alphabet_size=31),
    # Only the digests of the residue wires' stdout are kept (up to 2 MB).
    "residue-q257": lambda: mc.wire_from_fn(
        257, lambda s0, s1: (s0 * s0 + 3 * s1) % 257, alphabet_size=257),
    "residue-q1031": residue_q1031,
    # A constant marginal (constant marginal only): every secret's row has
    # counts 24 and 23, and the 257 rows span two JSON render blocks.
    "residue-mod11-q257": lambda: mc.wire_from_fn(
        257, lambda s0, s1: s0 % 11, alphabet_size=257),
    # Boolean wires with 257 marginal rows of two entries (one render
    # block): a function of the mask alone (value-independent), the
    # indicator of a set of first shares (constant marginal only) and
    # random bits.
    "mask-q257": lambda: mc.wire_from_fn(257, lambda s0, s1: int(s1 * s1 % 257 < 100)),
    "share-set-q257": lambda: mc.wire_from_fn(257, lambda s0, s1: int(s0 % 3 == 1)),
    "random-bits-q257": random_bits_q257,
}

# Every other subcommand, by golden-file stem: both bias csv layouts (full
# counts up to q = 2^16, key,value above), urem-check in both modes.
COMMANDS = {
    "witness-q5": ["witness", "--q", "5"],
    "witness-q300": ["witness", "--q", "300"],
    "census-q2": ["census", "--q", "2", "--workers", "1"],
    "census-q5": ["census", "--q", "5", "--workers", "1"],  # as perfbench runs it
    "bias-n4096-q3329": ["bias", "--n", "4096", "--q", "3329"],
    "bias-n16777216-q8380417": ["bias", "--n", str(1 << 24), "--q", "8380417"],
    "bounds-q3329-w24": ["bounds", "--q", "3329", "--w", "24"],
    "urem-check-sampled-q3329": ["urem-check", "--q", "3329", "--w", "24",
                                 "--seed", "7", "--samples", "300"],
    "urem-check-exhaustive-q17": ["urem-check", "--q", "17", "--w", "24",
                                  "--exhaustive"],
    "butterfly-q3-s1": ["butterfly", "--q", "3", "--stages", "1"],
    # Stage 1's a operand is stage 0's c output.
    "butterfly-q3-s2": ["butterfly", "--q", "3", "--stages", "2"],
    # N < q: residues 100 and up are never hit, min count 0, ratio DEGENERATE.
    "bias-n100-q1000": ["bias", "--n", "100", "--q", "1000"],
}
WALL_TIME = re.compile(rb"wall time: [0-9.]+ s")

# Only the digest of these is kept: the q = 300 witness json is 180 KB.
LARGE = [("witness-q300", "json")]

CASES = [(f"classify-{name}", fmt) for name in WIRES
         if not name.startswith("residue-") for fmt in FORMATS]
CASES += [(name, fmt) for name in COMMANDS for fmt in FORMATS
          if (name, fmt) not in LARGE]
DIGEST_CASES = [(f"classify-{name}", fmt) for name in WIRES
                if name.startswith("residue-") for fmt in FORMATS] + LARGE


def run_case(name, fmt, tmp):
    """The invocation's stdout, and the golden file it must equal."""
    if name.startswith("classify-"):
        path = tmp / f"{name}.json"
        mc.save_wire(WIRES[name[len("classify-"):]](), path)
        argv = ["classify", str(path), "--format", fmt]
    else:
        argv = COMMANDS[name] + ["--format", fmt]
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    out = WALL_TIME.sub(b"wall time: * s", buf.getvalue().encode())
    return out, GOLDEN / f"{name}.{FORMATS[fmt]}"


def mismatched(cases, tmp):
    """The golden files, or the digests kept of them, that the stdout of
    these cases does not equal."""
    names = []
    for name, fmt in cases:
        out, golden = run_case(name, fmt, tmp)
        if (name, fmt) in DIGEST_CASES:
            out = (hashlib.sha256(out).hexdigest() + "\n").encode()
            golden = Path(f"{golden}.sha256")
        if out != golden.read_bytes():
            names.append(golden.name)
    return names


@pytest.mark.parametrize("name,fmt", CASES)
def test_golden_stdout(name, fmt, tmp_path):
    out, golden = run_case(name, fmt, tmp_path)
    assert out == golden.read_bytes()


def test_golden_residue_wire_digest(tmp_path):
    assert mismatched(DIGEST_CASES, tmp_path) == []


def test_goldens_at_small_steps(tmp_path, monkeypatch):
    """Every case prints its golden bytes with steps of 512 cells, parse
    chunks of 4096 bytes and at most 2 threads.  perm-q31's marginal table
    of 961 cells is analysed densely at the defaults but counted by the
    block pass (`WireFunction._stream`) at 512, and so are the Boolean
    q = 257 wires' tables of 514."""
    assert not wires._in_blocks(31, 31)
    monkeypatch.setattr(_steps, "STEP_CELLS", 512)
    monkeypatch.setattr(wires, "PARSE_CHUNK", 4096)
    monkeypatch.setattr(_steps, "MAX_THREADS", 2)
    assert wires._in_blocks(31, 31) and wires._in_blocks(257, 2)
    assert mismatched(CASES + DIGEST_CASES, tmp_path) == []


@pytest.mark.parametrize("name", [name for name, fmt in CASES + DIGEST_CASES
                                  if fmt == "json"])
def test_json_is_its_own_compact_dump(name, tmp_path):
    """Every json case, the residue wires' included, is json.dumps of its
    own parse with sorted keys and compact separators, plus a newline: the
    bytes `cli._emit` promises, on real output."""
    text = run_case(name, "json", tmp_path)[0].decode()
    assert json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n" == text


def test_csv_rows_as_wide_as_the_header(tmp_path):
    """Every csv golden, and the csv output of every case above, reads
    back through csv.reader as rows as wide as its header: a field with a
    comma in it is quoted."""
    texts = [path.read_text() for path in sorted(GOLDEN.glob("*.csv"))]
    texts += [run_case(name, fmt, tmp_path)[0].decode()
              for name, fmt in CASES + DIGEST_CASES if fmt == "csv"]
    for text in texts:
        rows = list(csv.reader(io.StringIO(text)))
        assert rows and {len(row) for row in rows} == {len(rows[0])}, text[:200]


def _regenerate():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, fmt in CASES:
            out, golden = run_case(name, fmt, Path(tmp))
            golden.write_bytes(out)
        for name, fmt in DIGEST_CASES:
            out, golden = run_case(name, fmt, Path(tmp))
            Path(f"{golden}.sha256").write_text(
                hashlib.sha256(out).hexdigest() + "\n")


if __name__ == "__main__":
    _regenerate()
