"""Exact arithmetic for roots of unity, stored as rational angles in turns.

Every braiding eigenvalue, twist, and monodromy scalar in this package is a
single root of unity, so we represent e^(2*pi*i*num/den) by the reduced
fraction num/den taken mod 1.  No floating point ever touches these values;
coprimality and primitivity tests stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True, order=True)
class RationalAngle:
    """A root of unity e^(2*pi*i*num/den), reduced and normalised to [0, 1).

    The canonical range makes structural equality coincide with equality of
    the underlying complex numbers, so angles can be dict keys and set
    members.  Instances are immutable and freely shareable across threads.
    """

    num: int
    den: int = 1

    def __post_init__(self):
        if self.den < 1:
            raise ValueError(f"denominator must be a positive integer, got {self.den}")
        num = self.num % self.den
        g = gcd(num, self.den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", self.den // g)

    # -- group structure (product of roots of unity = addition of angles) --

    def __add__(self, other: RationalAngle) -> RationalAngle:
        return RationalAngle(self.num * other.den + other.num * self.den,
                             self.den * other.den)

    def __neg__(self) -> RationalAngle:
        return RationalAngle(-self.num, self.den)

    def __sub__(self, other: RationalAngle) -> RationalAngle:
        return self + (-other)

    def __mul__(self, n: int) -> RationalAngle:
        """Integer scaling, i.e. the n-th power of the root of unity."""
        if not isinstance(n, int):
            return NotImplemented
        return RationalAngle(self.num * n, self.den)

    __rmul__ = __mul__

    # -- queries --

    @property
    def order(self) -> int:
        """Multiplicative order of the root of unity (1 for the trivial root)."""
        return self.den

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    def is_primitive(self, m: int) -> bool:
        """Whether this is a primitive m-th root of unity."""
        if m < 1:
            raise ValueError(f"order must be a positive integer, got {m}")
        return self.den == m

    @property
    def pair(self) -> tuple[int, int]:
        """(num, den) pair, the serialized form."""
        return (self.num, self.den)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


ZERO_ANGLE = RationalAngle(0, 1)


def angle(num: int, den: int = 1) -> RationalAngle:
    """Shorthand constructor for a reduced angle num/den mod 1."""
    return RationalAngle(num, den)


def primitive_numerators(m: int) -> list[int]:
    """The numerators c in [0, m) of the primitive m-th roots of unity c/m, ascending."""
    if m < 1:
        raise ValueError(f"order must be a positive integer, got {m}")
    return [c for c in range(m) if gcd(c, m) == 1]


def primitive_angles(m: int) -> list[RationalAngle]:
    """All primitive m-th roots of unity, ascending by numerator."""
    return [RationalAngle(c, m) for c in primitive_numerators(m)]
