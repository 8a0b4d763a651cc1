"""Bridge between ring arithmetic and fixed-width unsigned hardware words.

In Z_q the reparametrization s0 = x - s1 is a ring identity with nothing to
overflow.  Hardware carries residues in w-bit unsigned registers, where the
subtraction must be computed as URem(x + q - s1, q): the +q keeps the
intermediate non-negative, and the intermediate is guaranteed to lie in
[1, 2q), so any width with 2q < 2^w admits it.  ML-KEM (q = 3329) and
ML-DSA (q = 8380417) both fit at w = 24.

Every word operation here is checked: an intermediate outside [0, 2^w)
raises WordOverflowError instead of silently wrapping, so a violated bound
would be observable.
"""

from __future__ import annotations

from dataclasses import dataclass


class WordOverflowError(ArithmeticError):
    """An intermediate left the w-bit unsigned range instead of wrapping."""


# Widest register accepted: 2^width must still print as a decimal integer.
MAX_WIDTH = 4096


@dataclass(frozen=True)
class WidthConfig:
    """A modulus paired with the register width meant to carry it."""

    q: int
    width: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if not 1 <= self.width <= MAX_WIDTH:
            raise ValueError(f"width must be in [1, {MAX_WIDTH}], got {self.width}")

    @property
    def admissible(self) -> bool:
        """True iff 2q < 2^width, so the x + q - s1 intermediate fits."""
        return 2 * self.q < (1 << self.width)


def width_admissible(cfg: WidthConfig) -> bool:
    return cfg.admissible


def no_overflow_bounds(q: int, x: int, s1: int) -> tuple[bool, bool]:
    """Check 1 <= x + q - s1 < 2q for naturals x, s1 < q.

    Computed in exact integer arithmetic; both components are guaranteed
    true for every valid input, and the tuple form exposes each side of
    the bound separately for the oracle suites.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if not 0 <= x < q:
        raise ValueError(f"x={x} outside [0, {q})")
    if not 0 <= s1 < q:
        raise ValueError(f"s1={s1} outside [0, {q})")
    t = x + q - s1
    return (1 <= t, t < 2 * q)


def _fit(cfg: WidthConfig, value: int, op: str) -> int:
    if value < 0 or value >> cfg.width:
        raise WordOverflowError(
            f"{op} produced {value}, outside the {cfg.width}-bit unsigned range"
        )
    return value


def urem_reparam(cfg: WidthConfig, x: int, s1: int) -> int:
    """First share via w-bit unsigned ops: URem(x + q - s1, q).

    The rearranged order x + q - s1 never goes negative (the literal
    x - s1 + q would underflow in unsigned words whenever s1 > x); the
    no-overflow bound keeps the intermediate under 2q < 2^w.
    """
    if not cfg.admissible:
        raise ValueError(
            f"width {cfg.width} inadmissible for q={cfg.q} (needs 2q < 2^w)"
        )
    if not 0 <= x < cfg.q:
        raise ValueError(f"x={x} outside [0, {cfg.q})")
    if not 0 <= s1 < cfg.q:
        raise ValueError(f"s1={s1} outside [0, {cfg.q})")
    t = _fit(cfg, x + cfg.q, "x + q")
    t = _fit(cfg, t - s1, "x + q - s1")
    return t % cfg.q


def urem_recombine(cfg: WidthConfig, s0: int, s1: int) -> int:
    """URem(s0 + s1, q) in checked w-bit words; undoes urem_reparam."""
    if not cfg.admissible:
        raise ValueError(
            f"width {cfg.width} inadmissible for q={cfg.q} (needs 2q < 2^w)"
        )
    t = _fit(cfg, s0 + s1, "s0 + s1")
    return t % cfg.q


def urem_round_trip(cfg: WidthConfig, x: int, s1: int) -> bool:
    """Check URem(URem(x + q - s1, q) + s1, q) == x."""
    return urem_recombine(cfg, urem_reparam(cfg, x, s1), s1) == x
