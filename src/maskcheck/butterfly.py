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

import operator
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from . import _integer
from .wires import (
    VERDICT_BY_CODE,
    Verdict,
    WireFunction,
    _check_cell_cap,
    classify_cells_bulk,
)
from .zq import Modulus, ZqElement

SWEEP_MAX_Q = 7
SWEEP_MAX_STAGES = 3

# Findings a sweep lists of each kind; the tap verdict counts count them all.
MAX_FINDINGS = 100

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
    inputs, and no cross-share term is ever formed.  This is stage 0 of
    `_signal_grid` over ring elements.
    """
    sig = _signal_grid((operator.add, operator.sub, operator.mul), [stage.twiddle],
                       [(a.share0, a.share1), (b.share0, b.share1)])
    return (MaskedValue(sig["s0.c0"], sig["s0.c1"]),
            MaskedValue(sig["s0.d0"], sig["s0.d1"]))


def tap_inventory(n_stages: int, include_adversarial: bool = True) -> list[str]:
    """All tap names for an n-stage pipeline, as 's<k>.<signal>'."""
    signals = SHAREWISE_SIGNALS + (ADVERSARIAL_SIGNALS if include_adversarial else ())
    return [f"s{k}.{sig}" for k in range(n_stages) for sig in signals]


def is_adversarial_tap(tap: str) -> bool:
    return tap.split(".", 1)[-1] in ADVERSARIAL_SIGNALS


def _residue_ops(q: int):
    """(+, -, x t) on residue arrays mod q."""
    return (lambda x, y: (x + y) % q, lambda x, y: (x - y) % q,
            lambda t, x: (t * x) % q)


# (+, -, x t) on taint sets: a sum or difference carries the shares of both
# operands, and a twiddle product those of its operand.
_TAINT_OPS = (frozenset.union, frozenset.union, lambda t, x: x)


def _signal_grid(ops, twiddles, operands) -> dict:
    """Evaluate every signal of the pipeline over a carrier, keyed by the
    names of `tap_inventory`.

    `ops` is the carrier's (+, -, x t).  `operands` holds share pairs:
    stage 0's a operand, then stage k's fresh b operand at k + 1.  The a
    input of stage k > 0 is the c output of stage k - 1.
    """
    add, sub, scale = ops
    values = []
    acc0, acc1 = operands[0]
    for k, t in enumerate(twiddles):
        b0, b1 = operands[k + 1]
        tb0 = scale(t, b0)
        tb1 = scale(t, b1)
        c0 = add(acc0, tb0)
        c1 = add(acc1, tb1)
        d0 = sub(acc0, tb0)
        d1 = sub(acc1, tb1)
        # In the order of SHAREWISE_SIGNALS, then ADVERSARIAL_SIGNALS.
        values += (acc0, acc1, b0, b1, tb0, tb1, c0, c1, d0, d1,
                   add(c0, c1), add(d0, d1))
        acc0, acc1 = c0, c1
    return dict(zip(tap_inventory(len(twiddles)), values, strict=True))


def _place_secret(secret_role: str, secret, context) -> list:
    """The operands of `_signal_grid`, with the secret's share pair as
    stage 0's a operand (role 'a') or b operand (role 'b').

    `context`, one share pair per stage, fills the other operands in order.
    """
    if secret_role not in ("a", "b"):
        raise ValueError(f"secret_role must be 'a' or 'b', got {secret_role!r}")
    operands = list(context)
    operands.insert(0 if secret_role == "a" else 1, secret)
    return operands


def _share_pairs(q: int) -> tuple[np.ndarray, np.ndarray]:
    """All q^2 share pairs (s0, s1) in s0-major order, as two flat arrays."""
    return (np.repeat(np.arange(q, dtype=np.int64), q),
            np.tile(np.arange(q, dtype=np.int64), q))


def _context_shares(q: int, pair) -> tuple[int, int]:
    plain, mask = (_integer(v, "fixed_context") for v in pair)
    return (plain - mask) % q, mask % q


def extract_wire_function(pipeline, tap: str, secret_role: str,
                          fixed_context) -> WireFunction:
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
    context = [_context_shares(q, pair) for pair in fixed_context]
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
    _check_cell_cap(q, q)

    twiddles = [st.twiddle.value for st in pipeline]
    operands = _place_secret(secret_role, _share_pairs(q), context)
    sig = _signal_grid(_residue_ops(q), twiddles, operands)
    cells = np.broadcast_to(np.asarray(sig[tap], dtype=np.int64), (q * q,))
    return WireFunction(q, q, cells)


def trace_taints(n_stages: int, secret_role: str) -> dict:
    """Which secret shares flow into each signal, tracked structurally.

    Evaluates the same pipeline as `extract_wire_function` over taint
    sets instead of residues.  Returns tap -> subset of {'secret0',
    'secret1'}.  Sharewise signals must never carry both; the recombined
    probes do by construction.
    """
    secret = (frozenset({"secret0"}), frozenset({"secret1"}))
    context = [(frozenset(), frozenset())] * n_stages
    operands = _place_secret(secret_role, secret, context)
    return _signal_grid(_TAINT_OPS, (None,) * n_stages, operands)


class TapFinding(NamedTuple):
    """One (configuration, tap) pair singled out by the sweep."""

    tap: str
    twiddles: tuple
    secret_role: str
    context: tuple
    verdict: Verdict

    def to_dict(self) -> dict:
        return {**self._asdict(), "verdict": self.verdict.value}


class SweepReport(NamedTuple):
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
    non_constant_marginal: list
    value_independent_adversarial: list
    note: str = EVIDENCE_NOTE

    @property
    def clean(self) -> bool:
        return not self.non_constant_marginal and not self.value_independent_adversarial

    def to_dict(self) -> dict:
        return {
            **self._asdict(),
            "tap_verdict_counts": {
                tap: {v.value: n for v, n in counts.items() if n}
                for tap, counts in self.tap_verdict_counts.items()
            },
            "non_constant_marginal": [f.to_dict() for f in self.non_constant_marginal],
            "value_independent_adversarial": [
                f.to_dict() for f in self.value_independent_adversarial
            ],
            "clean": self.clean,
        }


def conjecture_sweep(q: int, n_stages: int, twiddle_set=None,
                     secret_roles=("a", "b"),
                     include_adversarial: bool = True) -> SweepReport:
    """Classify every tap of every configuration in a pipeline family.

    Configurations are the product of all twiddle assignments (default: all
    nonzero twiddles, per stage), both secret roles, and all q^2 fixed
    contexts, where one (plain, mask) pair is applied uniformly to every
    non-secret operand.  Within each configuration the wire table itself is
    exhaustive over all q^2 secret share pairs.

    Flags any sharewise tap that comes back NON_CONSTANT_MARGINAL and any
    adversarial (recombination) tap that comes back value-independent,
    listing the first MAX_FINDINGS of each kind.  Twiddles must be nonzero
    and distinct mod q, and roles distinct.
    """
    if not 2 <= (q := _integer(q, "q")) <= SWEEP_MAX_Q:
        raise ValueError(f"sweep supports 2 <= q <= {SWEEP_MAX_Q}, got {q}")
    if not 1 <= (n_stages := _integer(n_stages, "n_stages")) <= SWEEP_MAX_STAGES:
        raise ValueError(
            f"sweep supports 1 to {SWEEP_MAX_STAGES} stages, got {n_stages}"
        )
    if twiddle_set is None:
        twiddle_set = tuple(range(1, q))
    given = {}  # each residue's twiddle as given
    for t in twiddle_set:
        r = _integer(t, "twiddle") % q
        if r == 0:
            # A zero twiddle drops the secret from the recombined probe.
            raise ValueError(f"twiddle {t} is 0 mod {q}; twiddles must be nonzero mod q")
        if r in given:
            raise ValueError(f"twiddle {t} repeats twiddle {given[r]} mod {q}; "
                             "twiddles must be distinct mod q")
        given[r] = t
    twiddle_set, secret_roles = tuple(given), tuple(secret_roles)
    if not (twiddle_set and secret_roles):  # no configuration: a vacuous clean report
        raise ValueError("sweep needs at least one twiddle and one secret role")
    for i, role in enumerate(secret_roles):
        if role in secret_roles[:i]:
            raise ValueError(f"secret role {role!r} repeats; roles must be distinct")

    taps = tap_inventory(n_stages, include_adversarial)
    verdict_counts = {tap: {v: 0 for v in Verdict} for tap in taps}
    ncm_findings: list[TapFinding] = []
    adv_vi_findings: list[TapFinding] = []

    # Secret share pairs run along axis 1, the q^2 contexts along axis 0; one
    # (plain, mask) context pair is applied to every non-secret operand.
    n_ctx = q * q
    pairs = _share_pairs(q)
    ctx_plain, ctx_mask = (v[:, None] for v in pairs)
    context = [((ctx_plain - ctx_mask) % q, ctx_mask)] * n_stages
    placed = {role: _place_secret(role, tuple(v[None, :] for v in pairs), context)
              for role in secret_roles}
    ops = _residue_ops(q)

    n_configurations = 0
    for twiddles in product(twiddle_set, repeat=n_stages):
        for role in secret_roles:
            sig = _signal_grid(ops, twiddles, placed[role])
            n_configurations += n_ctx
            for tap in taps:
                cells = np.broadcast_to(
                    np.asarray(sig[tap], dtype=np.int64), (n_ctx, q * q)
                )
                codes = classify_cells_bulk(q, cells)
                counts = np.bincount(codes, minlength=3).tolist()
                for verdict, n in zip(VERDICT_BY_CODE, counts):
                    verdict_counts[tap][verdict] += n
                # Would-be counterexamples: a sharewise tap with a non-constant
                # marginal, or a recombination probe read as value-independent.
                if is_adversarial_tap(tap):
                    findings, flagged = adv_vi_findings, Verdict.VALUE_INDEPENDENT
                else:
                    findings, flagged = ncm_findings, Verdict.NON_CONSTANT_MARGINAL
                code = VERDICT_BY_CODE.index(flagged)
                if not counts[code]:
                    continue
                hits = np.nonzero(codes == code)[0][:MAX_FINDINGS - len(findings)]
                for ctx_idx in hits.tolist():
                    pair = (int(pairs[0][ctx_idx]), int(pairs[1][ctx_idx]))
                    findings.append(TapFinding(tap, twiddles, role, (pair,) * n_stages,
                                               flagged))

    return SweepReport(q, n_stages, twiddle_set, secret_roles, n_configurations,
                       verdict_counts, ncm_findings, adv_vi_findings)
