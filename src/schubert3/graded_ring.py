"""Graded commutative rings over the integers, presented by generators and relations.

Everything here is exact.  Coefficients are arbitrary-precision integers, and a
quotient by a homogeneous ideal is computed one degree at a time: the relation
multiples of each degree are put into a unit-pivot integer echelon form, the
surviving monomials form the canonical basis of that graded piece, and normal
forms are obtained by reducing against the echelon rows.  Monomials inside a
degree are ordered by descending lexicographic order on exponent vectors, so
every normal form is canonical for a fixed generator order.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .linalg import int_echelon, reduce_mod_echelon, rref

__all__ = [
    "GeneratorSpec",
    "GradedBasis",
    "GradedRingPresentation",
    "Monomial",
    "PolyRing",
    "RingElement",
    "TorsionError",
    "in_ideal_span",
    "power",
    "substitute",
]

# Exponent vector aligned with a ring's generator order.
Monomial = tuple


class TorsionError(ValueError):
    """A graded piece is not integrally spanned by monomials with unit pivots."""


class GeneratorSpec(namedtuple("GeneratorSpec", "name degree")):
    __slots__ = ()

    def __new__(cls, name: str, degree: int) -> "GeneratorSpec":
        if not name or not (name[0].isalpha()):
            raise ValueError(f"bad generator name {name!r}")
        if degree < 1:
            raise ValueError(f"generator {name!r}: degree must be a positive integer")
        return tuple.__new__(cls, (name, degree))


class PolyRing:
    """Free graded-commutative polynomial ring over Z with named generators."""

    def __init__(self, generators: Iterable[Union[GeneratorSpec, tuple[str, int]]]) -> None:
        specs = []
        for g in generators:
            specs.append(g if isinstance(g, GeneratorSpec) else GeneratorSpec(*g))
        names = [g.name for g in specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self.generators: tuple[GeneratorSpec, ...] = tuple(specs)
        self.degrees: tuple[int, ...] = tuple(g.degree for g in specs)
        self.index: dict[str, int] = {g.name: i for i, g in enumerate(specs)}
        self._mono_cache: dict[int, tuple[Monomial, ...]] = {}

    def __repr__(self) -> str:
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"{type(self).__name__}({gens})"

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(e * d for e, d in zip(mono, self.degrees))

    def monomials_of_degree(self, d: int) -> tuple[Monomial, ...]:
        """All exponent vectors of weighted degree d, descending lex order."""
        if d < 0:
            return ()
        if d not in self._mono_cache:
            self._mono_cache[d] = tuple(_enumerate_monomials(self.degrees, d))
        return self._mono_cache[d]

    # Quotient subclasses override this; the free ring only strips zeros.
    def _reduce(self, terms: dict[Monomial, int]) -> dict[Monomial, int]:
        return {m: c for m, c in terms.items() if c}

    def element(self, terms: Mapping[Monomial, int]) -> "RingElement":
        return RingElement(self, terms)

    def zero(self) -> "RingElement":
        return RingElement(self, {})

    def one(self) -> "RingElement":
        return RingElement(self, {(0,) * self.ngens: 1})

    def monomial(self, mono: Monomial, coeff: int = 1) -> "RingElement":
        return RingElement(self, {tuple(mono): coeff})

    def gen(self, name: str) -> "RingElement":
        if name not in self.index:
            raise ValueError(f"unknown generator {name!r}")
        i = self.index[name]
        return self.monomial(tuple(1 if j == i else 0 for j in range(self.ngens)))

    def gens(self) -> tuple["RingElement", ...]:
        return tuple(self.gen(g.name) for g in self.generators)


def _enumerate_monomials(degrees: Sequence[int], d: int) -> Iterator[Monomial]:
    if not degrees:
        if d == 0:
            yield ()
        return
    head = degrees[0]
    tail = degrees[1:]
    for e in range(d // head, -1, -1):
        for rest in _enumerate_monomials(tail, d - e * head):
            yield (e,) + rest


class RingElement:
    """Ring element stored in canonical normal form.

    Elements belong to a specific ring object; arithmetic between different
    rings is rejected rather than coerced.  Terms need not be homogeneous.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Mapping[Monomial, int]) -> None:
        clean: dict[Monomial, int] = {}
        for mono, coeff in terms.items():
            if not coeff:
                continue
            mono = tuple(mono)
            if len(mono) != ring.ngens or any(e < 0 or not isinstance(e, int) for e in mono):
                raise ValueError(f"bad exponent vector {mono!r} for {ring!r}")
            if not isinstance(coeff, int):
                raise ValueError(f"non-integer coefficient {coeff!r}")
            clean[mono] = clean.get(mono, 0) + coeff
        self.ring = ring
        self.terms = ring._reduce(clean)

    def _coerce(self, other) -> "RingElement | None":
        if isinstance(other, RingElement):
            if other.ring is not self.ring:
                raise ValueError("elements belong to different rings")
            return other
        if isinstance(other, int):
            return RingElement(self.ring, {(0,) * self.ring.ngens: other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return RingElement(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return RingElement(self.ring, out)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return RingElement(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = RingElement(self.ring, {(0,) * self.ring.ngens: other})
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    __hash__ = None  # normal forms compare by value; elements are not hashable

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Monomial) -> int:
        return self.terms.get(tuple(mono), 0)

    def homogeneous_components(self) -> dict[int, "RingElement"]:
        by_deg: dict[int, dict[Monomial, int]] = {}
        for m, c in self.terms.items():
            by_deg.setdefault(self.ring.monomial_degree(m), {})[m] = c
        return {d: RingElement(self.ring, t) for d, t in sorted(by_deg.items())}

    def is_homogeneous(self) -> bool:
        degs = {self.ring.monomial_degree(m) for m in self.terms}
        return len(degs) <= 1

    def degree(self) -> int | None:
        """Degree of a homogeneous element; None for zero; error when mixed."""
        degs = {self.ring.monomial_degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    def homogeneous_component(self, d: int) -> "RingElement":
        return RingElement(
            self.ring,
            {m: c for m, c in self.terms.items() if self.ring.monomial_degree(m) == d},
        )

    def __str__(self) -> str:
        return format_terms(self.ring, self.terms)

    def __repr__(self) -> str:
        return f"<{format_terms(self.ring, self.terms)}>"


def format_terms(ring: PolyRing, terms: Mapping[Monomial, int]) -> str:
    """Render a term dict with explicit signs, sorted by (degree, lex order)."""
    monos = sorted(
        terms,
        key=lambda m: (ring.monomial_degree(m), tuple(-e for e in m)),
    )
    names = [g.name for g in ring.generators]
    return format_signed_sum((terms[m], monomial_source(names, m)) for m in monos)


def monomial_source(names: Sequence[str], mono: Monomial) -> str:
    """Product of named powers such as "x*y^2"; "1" for the empty product."""
    factors = []
    for name, e in zip(names, mono):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors) or "1"


def power(x: RingElement, n: int, product=mul) -> RingElement:
    """x**n by square-and-multiply: at most 2*log2(n) calls of `product`.

    `product` multiplies two elements; a caller can pass one that checks
    its factors first.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a non-negative integer")
    out = None
    while n:
        if n & 1:
            out = x if out is None else product(out, x)
        n >>= 1
        if n:
            x = product(x, x)
    return x.ring.one() if out is None else out


def format_signed_sum(terms: Iterable[tuple[int, str]]) -> str:
    """Render ordered (coefficient, body) pairs as "a - 2*b + c"; "0" when empty.

    A body of "1" stands for the unit, and unit coefficients are dropped.
    The expression grammar applies an exponent to a negated base, so a bare
    "-t^2" would read back as (-t)^2: a leading negative term whose first
    factor carries an exponent is parenthesized.  Later terms follow a
    binary minus and need no guard.
    """
    parts: list[str] = []
    for c, body in terms:
        mag = abs(c)
        if body == "1":
            piece = str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{mag}*{body}"
        if parts:
            parts.append(("+ " if c > 0 else "- ") + piece)
        elif c > 0:
            parts.append(piece)
        elif "^" in piece.split("*", 1)[0]:
            parts.append(f"-({piece})")
        else:
            parts.append("-" + piece)
    return " ".join(parts) or "0"


class GradedBasis(NamedTuple):
    degree: int
    monomials: tuple[Monomial, ...]

    @property
    def rank(self) -> int:
        return len(self.monomials)


class GradedRingPresentation(PolyRing):
    """Quotient of a free graded ring by a homogeneous ideal, over Z.

    The presentation carries a top degree and a top class monomial whose
    graded piece must be free of rank one; `evaluate_top` reads off the
    integral of the top-degree component against that monomial.  Construction
    fails loudly on non-homogeneous relations, torsion (or any graded piece
    without a unit-pivot monomial basis), a top piece of rank != 1, and
    quotients that do not vanish above the top degree.
    """

    def __init__(
        self,
        generators: Iterable[Union[GeneratorSpec, tuple[str, int]]],
        relations: Sequence[Union["RingElement", Mapping[Monomial, int]]],
        top_degree: int,
        top_class: Union["RingElement", Monomial],
    ) -> None:
        super().__init__(generators)
        if top_degree < 0:
            raise ValueError("top_degree must be non-negative")
        self.top_degree = top_degree

        rels: list[dict[Monomial, int]] = []
        for r in relations:
            terms = dict(r.terms) if isinstance(r, RingElement) else {tuple(m): c for m, c in r.items()}
            terms = {m: c for m, c in terms.items() if c}
            if not terms:
                continue
            for m in terms:
                if len(m) != self.ngens:
                    raise ValueError("relation uses a different generator tuple")
            degs = {self.monomial_degree(m) for m in terms}
            if len(degs) > 1:
                raise ValueError(f"relation {format_terms(self, terms)!r} is not homogeneous")
            if degs.pop() == 0:
                raise ValueError("constant relation would collapse the ring")
            rels.append(terms)
        self.relations: tuple[dict[Monomial, int], ...] = tuple(rels)

        if isinstance(top_class, RingElement):
            if set(top_class.terms.values()) != {1} or len(top_class.terms) != 1:
                raise ValueError("top_class must be a single monomial with coefficient 1")
            top_class = next(iter(top_class.terms))
        self.top_class: Monomial = tuple(top_class)
        if self.monomial_degree(self.top_class) != top_degree:
            raise ValueError("top_class degree differs from top_degree")

        self._mono_index: dict[int, dict[Monomial, int]] = {}
        self._degree_reducers: dict[int, list[tuple[int, list[int]]]] = {}
        self._bases: dict[int, GradedBasis] = {}

        window = max(self.degrees) if self.degrees else 0
        for d in range(top_degree + window + 1):
            self._build_degree(d)
        for d in range(top_degree + 1, top_degree + window + 1):
            if self._bases[d].rank != 0:
                raise ValueError(
                    f"graded piece of degree {d} does not vanish above the top degree"
                )

        top_basis = self._bases[top_degree]
        if top_basis.rank != 1:
            raise ValueError(
                f"top graded piece has rank {top_basis.rank}, expected rank 1"
            )
        self._top_monomial = top_basis.monomials[0]
        nf_top = self._reduce({self.top_class: 1})
        unit = nf_top.get(self._top_monomial, 0)
        if set(nf_top) != {self._top_monomial} or unit not in (1, -1):
            raise ValueError("top_class does not generate the top graded piece")
        self._top_unit = unit

    def _build_degree(self, d: int) -> None:
        monos = self.monomials_of_degree(d)
        index, echelon = _relation_echelon(self, self.relations, d)
        for col, row in echelon:
            if row[col] != 1:
                raise TorsionError(
                    f"degree {d}: pivot {row[col]} at monomial "
                    f"{format_terms(self, {monos[col]: 1})}; graded piece has torsion "
                    "or no unit monomial basis"
                )
        pivot_cols = {col for col, _ in echelon}
        basis = tuple(m for i, m in enumerate(monos) if i not in pivot_cols)
        self._mono_index[d] = index
        self._degree_reducers[d] = echelon
        self._bases[d] = GradedBasis(d, basis)

    def _reduce(self, terms: dict[Monomial, int]) -> dict[Monomial, int]:
        # Unit pivots in increasing columns, each row zero left of its pivot:
        # one pass in pivot order clears every pivot column.
        out: dict[Monomial, int] = {}
        by_deg: dict[int, dict[Monomial, int]] = {}
        for m, c in terms.items():
            by_deg.setdefault(self.monomial_degree(m), {})[m] = c
        for d, comp in by_deg.items():
            if d > self.top_degree:
                continue  # validated to vanish above the top degree
            monos = self.monomials_of_degree(d)
            index = self._mono_index[d]
            vec = [0] * len(monos)
            for m, c in comp.items():
                vec[index[m]] += c
            for col, row in self._degree_reducers[d]:
                c = vec[col]
                if c:
                    for j in range(col, len(monos)):
                        vec[j] -= c * row[j]
            for i, c in enumerate(vec):
                if c:
                    out[monos[i]] = c
        return out

    def graded_basis(self, d: int) -> GradedBasis:
        if not 0 <= d <= self.top_degree:
            raise ValueError(f"degree {d} outside 0..{self.top_degree}")
        return self._bases[d]

    def graded_ranks(self) -> tuple[int, ...]:
        return tuple(self._bases[d].rank for d in range(self.top_degree + 1))

    def evaluate_top(self, e: RingElement) -> int:
        """Integral of the top-degree component against the top class."""
        if e.ring is not self:
            raise ValueError("element belongs to a different ring")
        return self._top_unit * e.terms.get(self._top_monomial, 0)


def substitute(
    e: RingElement,
    target: PolyRing,
    images: Mapping[str, RingElement],
) -> RingElement:
    """Apply the ring map defined by generator images to an element.

    Every generator of e's ring with a nonzero exponent somewhere in e must
    have an image in `images`, and all images must live in `target`.
    """
    out = target.zero()
    for mono, coeff in e.terms.items():
        term = coeff * target.one()
        for spec, exp in zip(e.ring.generators, mono):
            if not exp:
                continue
            if spec.name not in images:
                raise ValueError(f"no image given for generator {spec.name!r}")
            term = term * images[spec.name] ** exp
        out = out + term
    return out


def _relation_echelon(
    ring: PolyRing, relations: Sequence[Mapping[Monomial, int]], d: int
) -> tuple[dict[Monomial, int], list[tuple[int, list[int]]]]:
    """Monomial index of degree d and the integer echelon of the ideal's slice.

    The slice is spanned by every monomial multiple of a homogeneous relation
    that lands in degree d.
    """
    monos = ring.monomials_of_degree(d)
    index = {m: i for i, m in enumerate(monos)}
    rows: list[list[int]] = []
    for rel in relations:
        rel_deg = ring.monomial_degree(next(iter(rel)))
        for mult in ring.monomials_of_degree(d - rel_deg):
            vec = [0] * len(monos)
            for m, c in rel.items():
                vec[index[tuple(a + b for a, b in zip(mult, m))]] += c
            rows.append(vec)
    return index, int_echelon(rows, len(monos))


def in_ideal_span(e: RingElement, relations: Sequence[RingElement]) -> bool:
    """Exact membership of e in the ideal generated by homogeneous relations.

    Works degree by degree over Z in the ambient free ring: the degree-d slice
    of the ideal is spanned by monomial multiples of the relations, and
    membership is integer reduction against its echelon form.
    """
    ring = e.ring
    rels = []
    for r in relations:
        if r.ring is not ring:
            raise ValueError("relations must live in the same ring as the element")
        if not r.is_homogeneous() or r.is_zero():
            raise ValueError("relations must be nonzero homogeneous elements")
        rels.append(r.terms)
    for d, comp in e.homogeneous_components().items():
        index, echelon = _relation_echelon(ring, rels, d)
        vec = [0] * len(index)
        for m, c in comp.terms.items():
            vec[index[m]] = c
        if any(reduce_mod_echelon(vec, echelon)):
            return False
    return True


def solve_integer_combination(
    rows: Sequence[Sequence[int]], vec: Sequence[int]
) -> list[int] | None:
    """Solve x . rows = vec exactly over Q and return x when it is integral.

    Returns None when the system is inconsistent or the solution is not
    integral.  Rows must be linearly independent.
    """
    m = len(rows)
    # columns of the augmented system are the given rows, then vec
    augmented = [[row[i] for row in rows] + [v] for i, v in enumerate(vec)]
    reduced, pivots = rref(augmented, m + 1)
    if pivots and pivots[-1] == m:
        return None
    x = [0] * m
    for row, col in zip(reduced, pivots):
        if row[m] % row[col]:
            return None
        x[col] = row[m] // row[col]
    return x
