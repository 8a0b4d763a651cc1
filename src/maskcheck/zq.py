"""Exact arithmetic over Z/qZ for runtime-chosen q, plus share reparametrizations.

The modulus is an ordinary runtime value: nothing here is specialized to a
compile-time q, so the same code path serves q = 1, the NIST lattice moduli
(3329 and 8380417) and arbitrary moduli up to machine-integer scale.  Integer
arguments, numpy ones too, are kept as the Python ints `maskcheck._integer`
returns, which are unbounded, so x - s1 + q can never wrap before reduction.

Two reparametrizations are provided: arithmetic (secret x, mask s1 give the
first share s0 = x - s1 mod q) and Boolean (XOR masking on k-bit words).
Both come with checkable round-trip oracles and an enumerative bijectivity
oracle, kept deliberately independent of the algebra they are checking.
Only that oracle loads numpy, when it runs; the ring arithmetic loads none.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _integer

# Enumerative checks (bijectivity, image counting) refuse to run above this
# modulus unless the caller raises the cap explicitly.
DEFAULT_ENUMERATION_CAP = 1 << 20


@dataclass(frozen=True)
class Modulus:
    """A positive modulus q defining the ring Z/qZ."""

    q: int

    def __post_init__(self):
        object.__setattr__(self, "q", _integer(self.q, "q"))
        if self.q < 1:
            raise ValueError(f"modulus must be >= 1, got {self.q}")

    @property
    def nontrivial(self) -> bool:
        """True iff the ring has more than one element (q >= 2)."""
        return self.q >= 2

    def element(self, value: int) -> "ZqElement":
        return ZqElement(value, self)

    def __repr__(self):
        return f"Modulus({self.q})"


def _as_modulus(q) -> Modulus:
    return q if isinstance(q, Modulus) else Modulus(q)


@dataclass(frozen=True)
class ZqElement:
    """A canonical residue in Z/qZ; all arithmetic reduces back into [0, q)."""

    value: int
    modulus: Modulus

    def __post_init__(self):
        # Canonicalize on construction so 0 <= value < q always holds.
        object.__setattr__(self, "value", _integer(self.value, "value") % self.modulus.q)

    @property
    def q(self) -> int:
        return self.modulus.q

    def _check_same_modulus(self, other: "ZqElement"):
        if not isinstance(other, ZqElement):
            raise TypeError(f"expected ZqElement, got {type(other).__name__}")
        if self.modulus.q != other.modulus.q:
            raise ValueError(
                f"modulus mismatch: {self.modulus.q} vs {other.modulus.q}"
            )

    @classmethod
    def _reduced(cls, value: int, modulus: Modulus) -> "ZqElement":
        """The element of an int the ring's own arithmetic made, reduced
        once and not checked again."""
        element = object.__new__(cls)
        object.__setattr__(element, "value", value % modulus.q)
        object.__setattr__(element, "modulus", modulus)
        return element

    def __add__(self, other: "ZqElement") -> "ZqElement":
        self._check_same_modulus(other)
        return ZqElement._reduced(self.value + other.value, self.modulus)

    def __sub__(self, other: "ZqElement") -> "ZqElement":
        self._check_same_modulus(other)
        return ZqElement._reduced(self.value - other.value, self.modulus)

    def __mul__(self, other: "ZqElement") -> "ZqElement":
        self._check_same_modulus(other)
        return ZqElement._reduced(self.value * other.value, self.modulus)

    def __neg__(self) -> "ZqElement":
        return ZqElement._reduced(-self.value, self.modulus)

    def __int__(self) -> int:
        return self.value

    def __repr__(self):
        return f"ZqElement({self.value} mod {self.modulus.q})"


@dataclass(frozen=True)
class BitWord:
    """A k-bit unsigned word, the share domain of Boolean masking."""

    width: int
    bits: int

    def __post_init__(self):
        object.__setattr__(self, "width", _integer(self.width, "width"))
        object.__setattr__(self, "bits", _integer(self.bits, "bits"))
        if self.width < 0:
            raise ValueError(f"width must be >= 0, got {self.width}")
        if not 0 <= self.bits < (1 << self.width):
            raise ValueError(
                f"bits 0x{self.bits:x} out of range for width {self.width}"
            )

    def __xor__(self, other: "BitWord") -> "BitWord":
        if not isinstance(other, BitWord):
            raise TypeError(f"expected BitWord, got {type(other).__name__}")
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")
        word = object.__new__(BitWord)  # two words of one width make a third: no check
        object.__setattr__(word, "width", self.width)
        object.__setattr__(word, "bits", self.bits ^ other.bits)
        return word

    def __repr__(self):
        return f"BitWord({self.width}, 0x{self.bits:x})"


def arith_reparam(x: ZqElement, s1: ZqElement) -> ZqElement:
    """First share s0 = x - s1 in Z_q, so that s0 + s1 recombines to x."""
    return x - s1


def arith_reparam_round_trip(x: ZqElement, s1: ZqElement) -> bool:
    """Check (x - s1) + s1 == x.

    Always true by ring algebra; exposed as an oracle so test suites can
    confirm it holds on whatever inputs they throw at it rather than
    trusting the identity.
    """
    return (arith_reparam(x, s1) + s1).value == x.value


def arith_reparam_is_bijection(
    q, s1, cap: int = DEFAULT_ENUMERATION_CAP
) -> bool:
    """Check by enumeration that x -> x - s1 permutes Z_q.

    Counts the distinct images of every x in Z_q and compares against q.
    This is intentionally a brute-force image count, not an algebraic
    argument, so it can serve as an independent oracle.
    """
    import numpy as np

    qq = _as_modulus(q).q
    if qq > (cap := _integer(cap, "cap")):
        raise ValueError(f"q={qq} exceeds enumeration cap {cap}")
    s1v = s1.value if isinstance(s1, ZqElement) else _integer(s1, "s1") % qq
    images = np.sort((np.arange(qq, dtype=np.int64) - s1v) % qq)
    return 1 + np.count_nonzero(np.diff(images)) == qq


def bool_reparam(x: BitWord, s1: BitWord) -> BitWord:
    """Boolean-masking reparametrization: bitwise XOR of equal-width words."""
    return x ^ s1


def bool_reparam_round_trip(x: BitWord, s1: BitWord) -> bool:
    """Check that applying the XOR reparametrization twice restores x."""
    return bool_reparam(bool_reparam(x, s1), s1).bits == x.bits
