"""Total Chern and Segre classes with exact truncated-series arithmetic.

A total class is 1 + a_1 + ... + a_bound with a_d homogeneous of degree d in
a fixed graded ring.  Inversion solves (1 + a)(1 + b) = 1 degree by degree,
so Segre classes come from Chern classes with integer arithmetic only.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

from .graded_ring import PolyRing, RingElement

__all__ = ["TotalClass"]


class TotalClass:
    """Unit-leading sum of homogeneous components, truncated above `bound`."""

    __slots__ = ("ring", "bound", "_comps")

    def __init__(
        self,
        ring: PolyRing,
        components: Union[Mapping[int, RingElement], Sequence[RingElement]],
        bound: int,
    ) -> None:
        if bound < 0:
            raise ValueError("bound must be non-negative")
        items = (
            components.items()
            if isinstance(components, Mapping)
            else enumerate(components, start=1)
        )
        comps: dict[int, RingElement] = {}
        for d, e in items:
            if not isinstance(d, int) or not 1 <= d <= bound:
                raise ValueError(f"component degree {d} outside 1..{bound}")
            if not isinstance(e, RingElement) or e.ring is not ring:
                raise ValueError(f"degree-{d} component belongs to a different ring")
            if e.is_zero():
                continue
            if e.degree() != d:
                raise ValueError(f"degree-{d} component is not homogeneous of degree {d}")
            comps[d] = e
        self.ring = ring
        self.bound = bound
        self._comps = comps

    @classmethod
    def one(cls, ring: PolyRing, bound: int) -> "TotalClass":
        return cls(ring, {}, bound)

    def component(self, d: int) -> RingElement:
        if d == 0:
            return self.ring.one()
        if not 1 <= d <= self.bound:
            raise ValueError(f"component degree {d} outside 0..{self.bound}")
        return self._comps.get(d, self.ring.zero())

    def components(self) -> tuple[RingElement, ...]:
        """Components of degrees 1..bound, including zeros."""
        return tuple(self.component(d) for d in range(1, self.bound + 1))

    def as_element(self) -> RingElement:
        total = self.ring.one()
        for e in self._comps.values():
            total = total + e
        return total

    def __mul__(self, other):
        if not isinstance(other, TotalClass):
            return NotImplemented
        if other.ring is not self.ring:
            raise ValueError("total classes belong to different rings")
        if other.bound != self.bound:
            raise ValueError("total classes have different truncation bounds")
        comps: dict[int, RingElement] = {}
        for d in range(1, self.bound + 1):
            acc = self.ring.zero()
            for i in range(d + 1):
                acc = acc + self.component(i) * other.component(d - i)
            comps[d] = acc
        return TotalClass(self.ring, comps, self.bound)

    def invert(self) -> "TotalClass":
        """The total class b with a*b = 1, solved degree by degree.

        b_d = -a_d - sum_{i=1}^{d-1} a_i * b_{d-i}; always integral because
        the leading coefficient being 1 means no division ever happens.
        """
        inv: dict[int, RingElement] = {}
        for d in range(1, self.bound + 1):
            acc = -self.component(d)
            for i in range(1, d):
                acc = acc - self.component(i) * inv[d - i]
            inv[d] = acc
        return TotalClass(self.ring, inv, self.bound)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TotalClass):
            return NotImplemented
        return (
            self.ring is other.ring
            and self.bound == other.bound
            and self._comps == other._comps
        )

    __hash__ = None

    def __str__(self) -> str:
        parts = ["1"] + [f"({self._comps[d]})" for d in sorted(self._comps)]
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TotalClass({self}, bound={self.bound})"

