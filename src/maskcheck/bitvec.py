"""Bridge between ring arithmetic and fixed-width unsigned hardware words.

In Z_q the reparametrization s0 = x - s1 is a ring identity with nothing to
overflow.  Hardware carries residues in w-bit unsigned registers, where the
subtraction must be computed as URem(x + q - s1, q): the +q keeps the
intermediate non-negative, and the intermediate is guaranteed to lie in
[1, 2q), so any width with 2q < 2^w admits it.  ML-KEM (q = 3329) and
ML-DSA (q = 8380417) both fit at w = 24.

Every word operation here is checked, on an int or once per call on a numpy
int array: an intermediate outside [0, 2^w) raises WordOverflowError
instead of silently wrapping, so a violated bound would be observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import _integer


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
        object.__setattr__(self, "q", _check_modulus(self.q))
        object.__setattr__(self, "width", _integer(self.width, "width"))
        if not 1 <= self.width <= MAX_WIDTH:
            raise ValueError(f"width must be in [1, {MAX_WIDTH}], got {self.width}")

    @cached_property
    def admissible(self) -> bool:
        """True iff 2q < 2^width, so the x + q - s1 intermediate fits."""
        return 2 * self.q < (1 << self.width)

    def require_admissible(self) -> None:
        """Refuse (ValueError) a width that cannot carry the intermediate."""
        if not self.admissible:
            raise ValueError(
                f"width {self.width} inadmissible for q={self.q} (needs 2q < 2^w)"
            )


def _check_modulus(q) -> int:
    if (q := _integer(q, "q")) < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return q


def _word(value, name: str):
    """An int array as it is; any other value, and each entry of an object
    array (the dtype past int64) that is not an int, through `_integer`."""
    if not getattr(value, "ndim", 0):
        return _integer(value, name)
    if value.dtype.kind not in "iuO":
        raise ValueError(f"{name} must be an integer, got an array of dtype {value.dtype}")
    if value.dtype.kind == "O" and set(map(type, value.flat)) - {int}:
        value = value.copy()
        value.flat = [_integer(entry, name) for entry in value.flat]
    return value


def _outside(value, limit: int):
    """The least or greatest entry of an int or int array outside [0, limit), else None."""
    ends = (value,) if isinstance(value, int) else (value.min(initial=0), value.max(initial=0))
    for end in ends:
        if not 0 <= end < limit:
            return end


def _check_residues(q: int, x, s1) -> tuple:
    x, s1 = _word(x, "x"), _word(s1, "s1")
    for name, value in (("x", x), ("s1", s1)):
        if (bad := _outside(value, q)) is not None:
            raise ValueError(f"{name}={bad} outside [0, {q})")
    return x, s1


def no_overflow_bounds(q: int, x: int, s1: int) -> tuple[bool, bool]:
    """Check 1 <= x + q - s1 < 2q for naturals x, s1 < q.

    Computed in exact integer arithmetic; both components are guaranteed
    true for every valid input, and the tuple form exposes each side of
    the bound separately for the oracle suites.
    """
    q = _check_modulus(q)
    x, s1 = _check_residues(q, x, s1)
    t = x + q - s1
    return (1 <= t, t < 2 * q)


def _fit(cfg: WidthConfig, value, op: str):
    if (bad := _outside(value, 1 << cfg.width)) is not None:
        raise WordOverflowError(
            f"{op} produced {bad}, outside the {cfg.width}-bit unsigned range"
        )
    return value


def urem_reparam(cfg: WidthConfig, x, s1):
    """First share via w-bit unsigned ops: URem(x + q - s1, q).

    The rearranged order x + q - s1 never goes negative (the literal
    x - s1 + q would underflow in unsigned words whenever s1 > x); the
    no-overflow bound keeps the intermediate under 2q < 2^w.
    """
    cfg.require_admissible()
    x, s1 = _check_residues(cfg.q, x, s1)
    t = _fit(cfg, x + cfg.q, "x + q")
    t = _fit(cfg, t - s1, "x + q - s1")
    return t % cfg.q


def urem_recombine(cfg: WidthConfig, s0, s1):
    """URem(s0 + s1, q) in checked w-bit words; undoes urem_reparam."""
    cfg.require_admissible()
    t = _fit(cfg, _word(s0, "s0") + _word(s1, "s1"), "s0 + s1")
    return t % cfg.q


def urem_round_trip(cfg: WidthConfig, x: int, s1: int) -> bool:
    """Check URem(URem(x + q - s1, q) + s1, q) == x."""
    return urem_recombine(cfg, urem_reparam(cfg, x, s1), s1) == x
