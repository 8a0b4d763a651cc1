"""Seeded inputs, invocation sequences and expected answers of each workload.

Every expected answer is derived here from how the input was built, never
by calling maskcheck: the verdicts and marginal histograms of the
screen-mlkem wires follow from their construction, the census counts from
``math.comb``, the butterfly configuration count from
``|T|^stages * roles * q^2`` and the bias profiles from ``divmod``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Q_KEM = 3329
Q_DSA = 8380417
SCHEMA = "maskcheck/1"

WORKLOADS = ("screen-mlkem", "census-q5", "butterfly-sweep", "mldsa-bridge")

# Bytes of one invocation's stdout kept for parsing, outside the byte range
# that is only hashed (the classify marginals, about 22 MB for a residue
# wire).  Anything longer fails the invocation.
KEEP_LIMIT = 1 << 20

CENSUS_Q = 5
SWEEP_Q = 7
SWEEP_STAGES = 3
TAPS_PER_STAGE = 12  # 10 sharewise signals + 2 recombination probes
BIAS_CASES = ((1 << 24, Q_DSA), (4096, Q_KEM))
FULL_COUNTS_MAX_Q = 1 << 16
UREM_WIDTH = 24
UREM_SAMPLES = 1_000_000


class Capture:
    """Consumes one invocation's stdout as it streams.

    Keeps a digest of every byte, a separate digest of the byte range
    [start, end) and, up to KEEP_LIMIT, the bytes outside that range.
    """

    def __init__(self, section: tuple[int, int] | None = None):
        self.digest = hashlib.sha256()
        self.section_digest = hashlib.sha256()
        self.start, self.end = section or (0, 0)
        self.size = 0
        self.kept = bytearray()
        self.overflow = False

    def feed(self, chunk: bytes) -> None:
        view = memoryview(chunk)
        self.digest.update(view)
        pos = self.size
        self.size += len(view)
        a = min(max(self.start - pos, 0), len(view))
        b = min(max(self.end - pos, 0), len(view))
        self.section_digest.update(view[a:b])
        for part in (view[:a], view[b:]):
            if len(self.kept) + len(part) > KEEP_LIMIT:
                self.overflow = True
            else:
                self.kept += part

    def document(self):
        """The kept bytes parsed as JSON, with ``null`` in place of the section."""
        if self.overflow:
            raise ValueError(f"stdout longer than {KEEP_LIMIT} bytes outside the hashed range")
        data = bytes(self.kept)
        if self.end > self.start:
            data = data[:self.start] + b"null" + data[self.start:]
        return json.loads(data)


@dataclass
class Outcome:
    returncode: int
    stdout: Capture
    stderr: str


@dataclass
class Invocation:
    """One CLI call of a workload and what its result must be."""

    label: str
    argv: list[str]
    check: Callable[[Outcome], list[str]]
    exit_code: int = 0
    section: tuple[int, int] | None = None

    def problems(self, outcome: Outcome) -> list[str]:
        if outcome.returncode != self.exit_code:
            tail = outcome.stderr.strip().splitlines()[-1:] or [""]
            return [f"exit {outcome.returncode}, expected {self.exit_code}: {tail[0][:200]}"]
        try:
            return self.check(outcome)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return [f"unparseable output: {exc!r}"[:300]]


@dataclass
class Inputs:
    seed: int
    workloads: dict[str, list[Invocation]]
    files: list[str] = field(default_factory=list)
    input_bytes: int = 0
    generation_s: float = 0.0


def rng_for(seed: int, stream: str) -> np.random.Generator:
    digest = hashlib.sha256(stream.encode("utf-8")).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:8], "big")])


def expect_doc(doc: dict, expected: dict) -> list[str]:
    problems = []
    if set(doc) != set(expected):
        problems.append(f"keys {sorted(doc)} != {sorted(expected)}")
    for key, value in expected.items():
        if key in doc and doc[key] != value:
            problems.append(f"{key}: {str(doc[key])[:80]} != {str(value)[:80]}")
    return problems


def json_check(expected: dict) -> Callable[[Outcome], list[str]]:
    return lambda outcome: expect_doc(outcome.stdout.document(), expected)


# ---------------------------------------------------------------------------
# screen-mlkem: wire files at q = 3329 with known verdicts
# ---------------------------------------------------------------------------

def _header(alphabet: int) -> bytes:
    # Same layout as maskcheck's save_wire (json.dump with default separators).
    return f'{{"q": {Q_KEM}, "alphabet": {alphabet}, "order": "s0_major", "table": ['.encode()


def _digit_body(digits: np.ndarray) -> bytes:
    """Table body for single-digit entries: "d, d, ..., d"."""
    out = np.empty(3 * digits.size - 2, dtype=np.uint8)
    out[0::3] = digits + ord("0")
    out[1::3] = ord(",")
    out[2::3] = ord(" ")
    return out.tobytes()


def _write(path: str, alphabet: int, body: bytes) -> int:
    with open(path, "wb") as fh:
        fh.write(_header(alphabet))
        fh.write(body)
        fh.write(b"]}\n")
        # Written back now, so the flush does not land in a timed invocation.
        os.fsync(fh.fileno())
    return os.path.getsize(path)


def _marginals(rows) -> tuple[str, int]:
    """Digest and length of compact JSON for a list of histogram rows.

    `rows` yields each row already rendered as "a,b,...", in secret order.
    """
    digest = hashlib.sha256(b"[")
    length = 1
    for x, row in enumerate(rows):
        part = ("," if x else "") + "[" + row + "]"
        digest.update(part.encode("ascii"))
        length += len(part)
    digest.update(b"]")
    return digest.hexdigest(), length + 1


def _row(counts) -> str:
    return ",".join(str(int(c)) for c in counts)


def _classify_invocation(label, path, alphabet, verdict, marginals, mi_bits=None):
    q = Q_KEM
    zero = verdict != "NON_CONSTANT_MARGINAL"
    digest, length = marginals
    start = len(f'{{"alphabet":{alphabet},"command":"classify","marginals":')
    expected = {
        "schema": SCHEMA, "command": "classify", "q": q, "alphabet": alphabet,
        "verdict": verdict, "marginals": None, "mutual_information_is_zero": zero,
    }

    def check(outcome: Outcome) -> list[str]:
        doc = outcome.stdout.document()
        bits = doc.pop("mutual_information_bits", None)
        problems = expect_doc(doc, expected)
        if outcome.stdout.section_digest.hexdigest() != digest:
            problems.append("marginal histograms differ from the construction")
        if not isinstance(bits, float):
            problems.append(f"mutual_information_bits {bits!r} is not a float")
        elif zero and bits != 0.0:
            problems.append(f"mutual information {bits} is not exactly 0.0")
        elif not zero and not bits > 0.0:
            problems.append(f"mutual information {bits} is not positive")
        elif mi_bits is not None and not math.isclose(bits, mi_bits, rel_tol=1e-9):
            problems.append(f"mutual information {bits} != {mi_bits}")
        return problems

    return Invocation(label, ["classify", path, "--format", "json"], check,
                      section=(start, start + length))


def _screen_mlkem(seed: int, workdir: str, inputs: Inputs) -> list[Invocation]:
    q = Q_KEM
    rng = rng_for(seed, "screen-mlkem")
    tokens = [str(i) for i in range(q)]
    invocations = []

    def add(label, alphabet, body, verdict, marginals, mi_bits=None):
        path = os.path.join(workdir, f"{label}.json")
        inputs.files.append(path)
        inputs.input_bytes += _write(path, alphabet, body)
        invocations.append(
            _classify_invocation(label, path, alphabet, verdict, marginals, mi_bits))

    # Bits, f(s1): the reparametrized wire ignores the secret.
    f = rng.integers(0, 2, q, dtype=np.uint8)
    ones = int(f.sum())
    add("bit-f-of-s1", 2, _digit_body(np.tile(f, q)), "VALUE_INDEPENDENT",
        _marginals([_row((q - ones, ones))] * q))

    # Bits, [s0 in S] for a proper non-empty S: every secret sees |S| ones
    # over the masks, yet the wire depends on the secret pointwise.
    member = rng.integers(0, 2, q, dtype=np.uint8)
    member[0], member[1] = 1, 0
    size = int(member.sum())
    add("bit-s0-in-set", 2, _digit_body(np.repeat(member, q)), "CONSTANT_MARGINAL_ONLY",
        _marginals([_row((q - size, size))] * q))

    # Random bits; secret x sees the ones on its diagonal s0 + s1 = x.  The
    # diagonals are made unequal, so the marginal is not constant.
    table = rng.integers(0, 2, (q, q), dtype=np.uint8)
    s1 = np.arange(q)
    diagonal = np.zeros(q, dtype=np.int64)
    for s0 in range(q):
        diagonal += np.bincount((s0 + s1[table[s0] == 1]) % q, minlength=q)
    if (diagonal == diagonal[0]).all():
        diagonal[0] += 1 - 2 * int(table[0, 0])
        table[0, 0] ^= 1
    add("bit-random", 2, _digit_body(table.ravel()), "NON_CONSTANT_MARGINAL",
        _marginals(_row((q - d, d)) for d in diagonal))

    # Residues, pi(s1) for a permutation pi: value-independent, and each
    # secret sees every residue exactly once.
    perm = rng.permutation(q)
    row = ", ".join(tokens[v] for v in perm)
    add("res-perm-of-s1", q, ", ".join([row] * q).encode("ascii"), "VALUE_INDEPENDENT",
        _marginals([_row(np.ones(q, dtype=np.int64))] * q))

    # Residues, g(s0) for a non-constant g: every secret sees the
    # histogram of g.
    g = rng.integers(0, q, q)
    if g[0] == g[1]:
        g[1] = (g[0] + 1) % q
    body = ", ".join(", ".join([tokens[v]] * q) for v in g)
    add("res-g-of-s0", q, body.encode("ascii"), "CONSTANT_MARGINAL_ONLY",
        _marginals([_row(np.bincount(g, minlength=q))] * q))

    # Residues, the recombined s0 + s1: the wire is the secret itself, a
    # point histogram at x carrying log2(q) bits.
    doubled = ", ".join(tokens + tokens)
    offsets = np.cumsum([0] + [len(t) + 2 for t in tokens + tokens])
    body = ", ".join(doubled[offsets[s0]:offsets[s0 + q] - 2] for s0 in range(q))
    zeros = ["0"] * q

    def point_rows():
        for x in range(q):
            zeros[x] = str(q)
            yield ",".join(zeros)
            zeros[x] = "0"

    add("res-recombined", q, body.encode("ascii"), "NON_CONSTANT_MARGINAL",
        _marginals(point_rows()), mi_bits=math.log2(q))

    # Random bits whose only bad entry, a 2, is the last one.
    bad = rng.integers(0, 2, q * q, dtype=np.uint8)
    bad[-1] = 2
    path = os.path.join(workdir, "malformed.json")
    inputs.files.append(path)
    inputs.input_bytes += _write(path, 2, _digit_body(bad))
    bad_index = q * q - 1

    def check_malformed(outcome: Outcome) -> list[str]:
        problems = []
        if outcome.stdout.size:
            problems.append(f"{outcome.stdout.size} bytes on stdout for a rejected file")
        if f"at index {bad_index} " not in outcome.stderr:
            problems.append(f"stderr does not name index {bad_index}: {outcome.stderr[:200]!r}")
        if "Traceback" in outcome.stderr:
            problems.append("traceback on stderr")
        return problems

    invocations.append(Invocation("malformed", ["classify", path, "--format", "json"],
                                  check_malformed, exit_code=2))
    return invocations


# ---------------------------------------------------------------------------
# census-q5, butterfly-sweep, mldsa-bridge: argv only
# ---------------------------------------------------------------------------

def census_expected(q: int) -> dict:
    total = 1 << (q * q)
    value_independent = 1 << q  # functions of s1 alone
    constant = sum(math.comb(q, k) ** q for k in range(q + 1))
    return {
        "schema": SCHEMA, "command": "census", "q": q, "total_wires": total,
        "count_value_independent": value_independent,
        "count_constant_marginal": constant,
        "count_conservative": constant - value_independent,
        "count_non_constant": total - constant,
        "soundness_violations": 0,
    }


def _census_q5() -> list[Invocation]:
    check = json_check(census_expected(CENSUS_Q))
    return [
        Invocation(f"workers-{n}", ["census", "--q", str(CENSUS_Q), "--workers", str(n),
                                    "--format", "json"], check)
        for n in (1, 2)
    ]


def sweep_shape(twiddles, roles) -> tuple[int, int]:
    """(n_configurations, classify_cells_bulk calls) of one sweep."""
    q, stages = SWEEP_Q, SWEEP_STAGES
    configurations = len(twiddles) ** stages * len(roles) * q * q
    calls = len(twiddles) ** stages * len(roles) * stages * TAPS_PER_STAGE
    return configurations, calls


def _sweep_invocation(label, twiddles, roles, argv_extra) -> Invocation:
    configurations, _ = sweep_shape(twiddles, roles)
    taps = {f"s{k}.{sig}" for k in range(SWEEP_STAGES)
            for sig in ("a0", "a1", "b0", "b1", "tb0", "tb1", "c0", "c1", "d0", "d1",
                        "c_recombined", "d_recombined")}

    def check(outcome: Outcome) -> list[str]:
        doc = outcome.stdout.document()
        counts = doc.pop("tap_verdict_counts")
        doc.pop("note")
        problems = expect_doc(doc, {
            "schema": SCHEMA, "command": "butterfly", "q": SWEEP_Q,
            "n_stages": SWEEP_STAGES, "twiddle_set": list(twiddles),
            "secret_roles": list(roles), "n_configurations": configurations,
            "non_constant_marginal": [], "value_independent_adversarial": [],
            "clean": True,
        })
        if set(counts) != taps:
            problems.append(f"{len(counts)} taps, expected {len(taps)}")
        wrong = [tap for tap, c in counts.items() if sum(c.values()) != configurations]
        if wrong:
            problems.append(f"taps {wrong[:3]} do not classify every configuration")
        return problems

    argv = ["butterfly", "--q", str(SWEEP_Q), "--stages", str(SWEEP_STAGES)] + argv_extra
    return Invocation(label, argv + ["--format", "json"], check)


def sweep_variants(seed: int) -> list[tuple[str, tuple, tuple, list[str]]]:
    """(label, twiddles, roles, extra argv): the full sweep and a seeded subset."""
    rng = rng_for(seed, "butterfly-sweep")
    role = str(rng.choice(["a", "b"]))
    twiddles = tuple(sorted(int(t) for t in rng.choice(np.arange(1, SWEEP_Q), 3, replace=False)))
    return [
        ("all-twiddles", tuple(range(1, SWEEP_Q)), ("a", "b"), []),
        ("three-twiddles", twiddles, (role,),
         ["--roles", role, "--twiddles", ",".join(map(str, twiddles))]),
    ]


def _butterfly_sweep(seed: int) -> list[Invocation]:
    return [_sweep_invocation(*variant) for variant in sweep_variants(seed)]


def bias_expected(n: int, q: int) -> dict:
    a, b = divmod(n, q)
    high = a + 1 if b else a
    doc = {
        "schema": SCHEMA, "command": "bias", "n": n, "q": q,
        "min_count": a, "max_count": high,
        "ratio": f"{high // math.gcd(high, a)}/{a // math.gcd(high, a)}",
        "divides_exactly": b == 0, "floor_bound": a, "ceil_bound": high,
        "bounds_verified": True,
    }
    if q <= FULL_COUNTS_MAX_Q:
        doc["counts"] = [a + 1] * b + [a] * (q - b)
    else:
        doc["counts_omitted"] = f"q > {FULL_COUNTS_MAX_Q}, summary only"
    return doc


def _mldsa_bridge(seed: int) -> list[Invocation]:
    q, w = Q_DSA, UREM_WIDTH
    invocations = [
        Invocation(f"bias-{n}-mod-{m}", ["bias", "--n", str(n), "--q", str(m), "--format", "json"],
                   json_check(bias_expected(n, m)))
        for n, m in BIAS_CASES
    ]
    invocations.append(Invocation(
        "bounds", ["bounds", "--q", str(q), "--w", str(w), "--format", "json"],
        json_check({
            "schema": SCHEMA, "command": "bounds", "q": q, "width": w,
            "admissible": 2 * q < 1 << w, "two_q": 2 * q, "width_capacity": 1 << w,
            "intermediate_min": 1, "intermediate_max_exclusive": 2 * q,
            "corner_checks_ok": True,
        })))
    invocations.append(Invocation(
        "urem-check", ["urem-check", "--q", str(q), "--w", str(w), "--seed", str(seed),
                       "--samples", str(UREM_SAMPLES), "--format", "json"],
        json_check({
            "schema": SCHEMA, "command": "urem-check", "q": q, "width": w,
            "mode": "sampled", "seed": seed, "pairs_checked": UREM_SAMPLES,
            "mismatches": 0, "round_trip_failures": 0,
        })))
    return invocations


def build(seed: int, workdir: str, names=WORKLOADS) -> Inputs:
    """Generate the inputs of the named workloads (untimed) into workdir."""
    t0 = time.perf_counter()
    inputs = Inputs(seed=seed, workloads={})
    for name in names:
        if name == "screen-mlkem":
            inputs.workloads[name] = _screen_mlkem(seed, workdir, inputs)
        elif name == "census-q5":
            inputs.workloads[name] = _census_q5()
        elif name == "butterfly-sweep":
            inputs.workloads[name] = _butterfly_sweep(seed)
        elif name == "mldsa-bridge":
            inputs.workloads[name] = _mldsa_bridge(seed)
        else:
            raise ValueError(f"unknown workload {name!r}")
    inputs.generation_s = time.perf_counter() - t0
    return inputs
