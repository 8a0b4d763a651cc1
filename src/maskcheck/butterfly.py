"""Masked transform-butterfly stages and empirical composition sweeps.

A butterfly stage maps two ring values (a, b) to (c, d) = (a + t*b, a - t*b)
for a twiddle factor t.  With both operands shared additively, the stage is
computed sharewise: each output share combines only same-index input
shares, so no intermediate ever touches both shares of one secret.

Multi-stage pipelines here follow the dataflow-path wiring of a real
transform: stage k pairs the running sum output of stage k-1 with a fresh,
independently masked operand.  (Consecutive transform stages never feed one
butterfly's own two outputs back into a single butterfly; self-pairing
(c, d) would let twiddle choices cancel the secret outright.)

`extract_wire_function` turns any internal signal of such a pipeline into a
dense wire table over the secret's share pair, ready for verdict
classification, and `conjecture_sweep` grinds through whole configuration
families looking for a sharewise tap with a non-constant marginal - a
would-be counterexample to composition security.  A clean sweep is
evidence, not proof, and the report says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .wires import (
    DEFAULT_CELL_CAP,
    Verdict,
    WireFunction,
    classify_cells_bulk,
    make_wire,
)
from .zq import Modulus, ZqElement

SWEEP_MAX_Q = 7
SWEEP_MAX_STAGES = 3

# Per-stage signal inventory.  Sharewise signals are the honest hardware
# wires; the recombined signals are hypothetical unmasking probes and are
# marked adversarial.
SHAREWISE_SIGNALS = ("a0", "a1", "b0", "b1", "tb0", "tb1",
                     "c0", "c1", "d0", "d1")
ADVERSARIAL_SIGNALS = ("c_recombined", "d_recombined")

EVIDENCE_NOTE = (
    "Exhaustive only over the stated finite configurations; a clean sweep "
    "is empirical evidence for composition security, not a proof."
)


@dataclass(frozen=True)
class MaskedValue:
    """An additively shared ring value: share0 + share1 recombines to it."""

    share0: ZqElement
    share1: ZqElement

    def __post_init__(self):
        if self.share0.q != self.share1.q:
            raise ValueError(
                f"modulus mismatch between shares: {self.share0.q} vs {self.share1.q}"
            )

    @property
    def q(self) -> int:
        return self.share0.q

    def recombine(self) -> ZqElement:
        return self.share0 + self.share1


def mask_value(x: ZqElement, s1: ZqElement) -> MaskedValue:
    """Split x into shares (x - s1, s1)."""
    return MaskedValue(x - s1, s1)


@dataclass(frozen=True)
class ButterflyStage:
    """One butterfly with a fixed twiddle factor."""

    twiddle: ZqElement

    @property
    def q(self) -> int:
        return self.twiddle.q

    @property
    def modulus(self) -> Modulus:
        return self.twiddle.modulus


def butterfly_plain(stage: ButterflyStage, a: ZqElement,
                    b: ZqElement) -> tuple[ZqElement, ZqElement]:
    """(c, d) = (a + t*b, a - t*b) on plain ring values."""
    tb = stage.twiddle * b
    return a + tb, a - tb


def butterfly_masked(stage: ButterflyStage, a: MaskedValue,
                     b: MaskedValue) -> tuple[MaskedValue, MaskedValue]:
    """Sharewise butterfly: output share i combines only input shares i.

    Recombining the outputs matches butterfly_plain on the recombined
    inputs, and no cross-share term is ever formed.
    """
    tb0 = stage.twiddle * b.share0
    tb1 = stage.twiddle * b.share1
    c = MaskedValue(a.share0 + tb0, a.share1 + tb1)
    d = MaskedValue(a.share0 - tb0, a.share1 - tb1)
    return c, d


def tap_inventory(n_stages: int, include_adversarial: bool = True) -> list[str]:
    """All tap names for an n-stage pipeline, as 's<k>.<signal>'."""
    signals = SHAREWISE_SIGNALS + (ADVERSARIAL_SIGNALS if include_adversarial else ())
    return [f"s{k}.{sig}" for k in range(n_stages) for sig in signals]


def is_adversarial_tap(tap: str) -> bool:
    return tap.split(".", 1)[-1] in ADVERSARIAL_SIGNALS


def _signal_grid(q: int, twiddles, a0, a1, b_ops) -> dict:
    """Evaluate every signal of the pipeline on (broadcastable) share arrays.

    `b_ops[k]` holds the share pair of stage k's fresh operand; the a input
    of stage k > 0 is the c output of stage k - 1.
    """
    sig = {}
    acc0, acc1 = a0, a1
    for k, t in enumerate(twiddles):
        b0, b1 = b_ops[k]
        tb0 = (t * b0) % q
        tb1 = (t * b1) % q
        c0 = (acc0 + tb0) % q
        c1 = (acc1 + tb1) % q
        d0 = (acc0 - tb0) % q
        d1 = (acc1 - tb1) % q
        sig[f"s{k}.a0"] = acc0
        sig[f"s{k}.a1"] = acc1
        sig[f"s{k}.b0"] = b0
        sig[f"s{k}.b1"] = b1
        sig[f"s{k}.tb0"] = tb0
        sig[f"s{k}.tb1"] = tb1
        sig[f"s{k}.c0"] = c0
        sig[f"s{k}.c1"] = c1
        sig[f"s{k}.d0"] = d0
        sig[f"s{k}.d1"] = d1
        sig[f"s{k}.c_recombined"] = (c0 + c1) % q
        sig[f"s{k}.d_recombined"] = (d0 + d1) % q
        acc0, acc1 = c0, c1
    return sig


def _context_shares(q: int, pair) -> tuple[int, int]:
    plain, mask = pair
    return (int(plain) - int(mask)) % q, int(mask) % q


def extract_wire_function(pipeline, tap: str, secret_role: str,
                          fixed_context,
                          cell_cap: int = DEFAULT_CELL_CAP) -> WireFunction:
    """Tabulate one internal signal over the secret's share pair.

    The secret enters as stage 0's a operand (role 'a') or b operand
    (role 'b'); `fixed_context` pins every other operand as one
    (plain, mask) pair per stage.  The resulting wire has alphabet Z_q and
    feeds directly into verdict classification.
    """
    if not pipeline:
        raise ValueError("pipeline must contain at least one stage")
    q = pipeline[0].q
    for st in pipeline:
        if st.q != q:
            raise ValueError(f"modulus mismatch in pipeline: {st.q} vs {q}")
    if secret_role not in ("a", "b"):
        raise ValueError(f"secret_role must be 'a' or 'b', got {secret_role!r}")
    context = list(fixed_context)
    if len(context) != len(pipeline):
        raise ValueError(
            f"fixed_context has {len(context)} pairs, expected one per stage "
            f"({len(pipeline)})"
        )
    valid = set(tap_inventory(len(pipeline)))
    if tap not in valid:
        raise ValueError(
            f"unknown tap {tap!r}; valid taps: {', '.join(sorted(valid))}"
        )
    if q * q > cell_cap:
        raise ValueError(f"q={q} needs {q * q} cells, above cap {cell_cap}")

    twiddles = [st.twiddle.value for st in pipeline]
    s0 = np.repeat(np.arange(q, dtype=np.int64), q)
    s1 = np.tile(np.arange(q, dtype=np.int64), q)
    if secret_role == "a":
        a0, a1 = s0, s1
        b_ops = [_context_shares(q, context[k]) for k in range(len(pipeline))]
    else:
        a0, a1 = _context_shares(q, context[0])
        b_ops = [(s0, s1)] + [
            _context_shares(q, context[k]) for k in range(1, len(pipeline))
        ]
    sig = _signal_grid(q, twiddles, a0, a1, b_ops)
    cells = np.broadcast_to(np.asarray(sig[tap], dtype=np.int64), (q * q,))
    return make_wire(q, cells, alphabet_size=q, cell_cap=cell_cap)


def trace_taints(n_stages: int, secret_role: str) -> dict:
    """Which secret shares flow into each signal, tracked structurally.

    Returns tap -> subset of {'secret0', 'secret1'}.  Sharewise signals
    must never carry both; the recombined probes do by construction.
    """
    if secret_role not in ("a", "b"):
        raise ValueError(f"secret_role must be 'a' or 'b', got {secret_role!r}")
    empty = frozenset()
    t0, t1 = frozenset({"secret0"}), frozenset({"secret1"})
    taints = {}
    if secret_role == "a":
        acc0, acc1 = t0, t1
        b_first0, b_first1 = empty, empty
    else:
        acc0, acc1 = empty, empty
        b_first0, b_first1 = t0, t1
    for k in range(n_stages):
        b0 = b_first0 if k == 0 else empty
        b1 = b_first1 if k == 0 else empty
        tb0, tb1 = b0, b1
        c0, c1 = acc0 | tb0, acc1 | tb1
        d0, d1 = acc0 | tb0, acc1 | tb1
        taints[f"s{k}.a0"] = acc0
        taints[f"s{k}.a1"] = acc1
        taints[f"s{k}.b0"] = b0
        taints[f"s{k}.b1"] = b1
        taints[f"s{k}.tb0"] = tb0
        taints[f"s{k}.tb1"] = tb1
        taints[f"s{k}.c0"] = c0
        taints[f"s{k}.c1"] = c1
        taints[f"s{k}.d0"] = d0
        taints[f"s{k}.d1"] = d1
        taints[f"s{k}.c_recombined"] = c0 | c1
        taints[f"s{k}.d_recombined"] = d0 | d1
        acc0, acc1 = c0, c1
    return taints


@dataclass(frozen=True)
class TapFinding:
    """One (configuration, tap) pair singled out by the sweep."""

    tap: str
    twiddles: tuple
    secret_role: str
    context: tuple
    verdict: Verdict

    def to_dict(self) -> dict:
        return {
            "tap": self.tap,
            "twiddles": list(self.twiddles),
            "secret_role": self.secret_role,
            "context": [list(p) for p in self.context],
            "verdict": self.verdict.value,
        }


@dataclass
class SweepReport:
    """Aggregated verdicts of a conjecture sweep.

    `non_constant_marginal` lists sharewise taps whose wire showed a
    non-constant marginal in some configuration (would-be counterexamples);
    `value_independent_adversarial` lists recombination probes that failed
    to register as secret-dependent.  Both stay empty in a clean sweep.
    """

    q: int
    n_stages: int
    twiddle_set: tuple
    secret_roles: tuple
    n_configurations: int
    tap_verdict_counts: dict
    non_constant_marginal: list = field(default_factory=list)
    value_independent_adversarial: list = field(default_factory=list)
    note: str = EVIDENCE_NOTE

    @property
    def clean(self) -> bool:
        return not self.non_constant_marginal and not self.value_independent_adversarial

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "n_stages": self.n_stages,
            "twiddle_set": list(self.twiddle_set),
            "secret_roles": list(self.secret_roles),
            "n_configurations": self.n_configurations,
            "tap_verdict_counts": {
                tap: {v.value: n for v, n in counts.items() if n}
                for tap, counts in self.tap_verdict_counts.items()
            },
            "non_constant_marginal": [f.to_dict() for f in self.non_constant_marginal],
            "value_independent_adversarial": [
                f.to_dict() for f in self.value_independent_adversarial
            ],
            "clean": self.clean,
            "note": self.note,
        }


def conjecture_sweep(q: int, n_stages: int, twiddle_set=None,
                     secret_roles=("a", "b"),
                     include_adversarial: bool = True,
                     max_findings: int = 100) -> SweepReport:
    """Classify every tap of every configuration in a pipeline family.

    Configurations are the product of all twiddle assignments (default: all
    nonzero twiddles, per stage), both secret roles, and all q^2 fixed
    contexts, where one (plain, mask) pair is applied uniformly to every
    non-secret operand.  Within each configuration the wire table itself is
    exhaustive over all q^2 secret share pairs.

    Flags any sharewise tap that comes back NON_CONSTANT_MARGINAL and any
    adversarial (recombination) tap that comes back value-independent.
    """
    if not 2 <= q <= SWEEP_MAX_Q:
        raise ValueError(f"sweep supports 2 <= q <= {SWEEP_MAX_Q}, got {q}")
    if not 1 <= n_stages <= SWEEP_MAX_STAGES:
        raise ValueError(
            f"sweep supports 1 to {SWEEP_MAX_STAGES} stages, got {n_stages}"
        )
    if twiddle_set is None:
        twiddle_set = tuple(range(1, q))
    for t in twiddle_set:
        if int(t) % q == 0:
            # A zero twiddle drops the secret from the recombined probe.
            raise ValueError(f"twiddle {t} is 0 mod {q}; twiddles must be nonzero mod q")
    twiddle_set = tuple(int(t) % q for t in twiddle_set)
    for role in secret_roles:
        if role not in ("a", "b"):
            raise ValueError(f"invalid secret role {role!r}")

    taps = tap_inventory(n_stages, include_adversarial)
    verdict_counts = {tap: {v: 0 for v in Verdict} for tap in taps}
    ncm_findings: list[TapFinding] = []
    adv_vi_findings: list[TapFinding] = []

    n_ctx = q * q
    ctx_plain = np.repeat(np.arange(q, dtype=np.int64), q)[:, None]
    ctx_mask = np.tile(np.arange(q, dtype=np.int64), q)[:, None]
    ctx_share0 = (ctx_plain - ctx_mask) % q
    s0 = np.repeat(np.arange(q, dtype=np.int64), q)[None, :]
    s1 = np.tile(np.arange(q, dtype=np.int64), q)[None, :]

    n_configurations = 0
    for twiddles in product(twiddle_set, repeat=n_stages):
        for role in secret_roles:
            if role == "a":
                a0, a1 = s0, s1
                b_ops = [(ctx_share0, ctx_mask)] * n_stages
            else:
                a0, a1 = ctx_share0, ctx_mask
                b_ops = [(s0, s1)] + [(ctx_share0, ctx_mask)] * (n_stages - 1)
            sig = _signal_grid(q, twiddles, a0, a1, b_ops)
            n_configurations += n_ctx
            for tap in taps:
                cells = np.broadcast_to(
                    np.asarray(sig[tap], dtype=np.int64), (n_ctx, q * q)
                )
                codes = classify_cells_bulk(q, cells)
                counts = np.bincount(codes, minlength=3)
                verdict_counts[tap][Verdict.VALUE_INDEPENDENT] += int(counts[0])
                verdict_counts[tap][Verdict.CONSTANT_MARGINAL_ONLY] += int(counts[1])
                verdict_counts[tap][Verdict.NON_CONSTANT_MARGINAL] += int(counts[2])
                adversarial = is_adversarial_tap(tap)
                if not adversarial and counts[2]:
                    for ctx_idx in np.nonzero(codes == 2)[0]:
                        if len(ncm_findings) >= max_findings:
                            break
                        pair = (int(ctx_plain[ctx_idx, 0]), int(ctx_mask[ctx_idx, 0]))
                        ncm_findings.append(TapFinding(
                            tap=tap, twiddles=twiddles, secret_role=role,
                            context=(pair,) * n_stages,
                            verdict=Verdict.NON_CONSTANT_MARGINAL,
                        ))
                if adversarial and counts[0]:
                    for ctx_idx in np.nonzero(codes == 0)[0]:
                        if len(adv_vi_findings) >= max_findings:
                            break
                        pair = (int(ctx_plain[ctx_idx, 0]), int(ctx_mask[ctx_idx, 0]))
                        adv_vi_findings.append(TapFinding(
                            tap=tap, twiddles=twiddles, secret_role=role,
                            context=(pair,) * n_stages,
                            verdict=Verdict.VALUE_INDEPENDENT,
                        ))

    return SweepReport(
        q=q,
        n_stages=n_stages,
        twiddle_set=twiddle_set,
        secret_roles=tuple(secret_roles),
        n_configurations=n_configurations,
        tap_verdict_counts=verdict_counts,
        non_constant_marginal=ncm_findings,
        value_independent_adversarial=adv_vi_findings,
    )
