"""Coincidences of point pairs on the blown-up double projective space.

A pair of points of projective 3-space degenerates when the two points
collide.  Blowing up the diagonal of the product replaces the collision
locus by an exceptional divisor whose class eps drives all the excess
bookkeeping: classes here are polynomials in t1, t2 (the hyperplane pulled
back from each factor) and eps, canonicalized by t_i^4 = 0 and by folding
eps*t1 into eps*t2, since the two hyperplanes agree on the exceptional
divisor.

The presentation is deliberately partial.  Only the rewrite rules the
calculus needs are built into the ring; integrals are taken by explicit
functionals (eval_total over the whole space, eval_exceptional over the
exceptional divisor), and the pullback phi from the line space is certified
compatible with both line-space relations functional by functional, not
termwise.

Two classical counts come out of this machinery: a degree-n surface has
n(n-1) tangent lines in a general pencil, and a general plane section has
n(n-2)(n-3)(n+3)/2 bitangent lines, 28 for a quartic.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from . import dsl, spaces
from .chern_segre import TotalClass
from .graded_ring import Monomial, PolyRing, RingElement, format_terms, substitute

__all__ = [
    "BitangentDerivation",
    "BlowupRing",
    "InterpretationTable",
    "SegrePushTable",
    "bitangent_derivation",
    "blowup_ring",
    "coincidence_class",
    "eval_exceptional",
    "eval_total",
    "exceptional_split",
    "phi_pullback",
    "segre_push_table",
    "surface_excess_class",
    "tangent_count",
]


class BlowupRing(PolyRing):
    """Polynomials in t1, t2, eps with the coincidence rewriting built in.

    Canonical form folds eps*t1 into eps*t2 and drops any monomial carrying
    a fourth power of t1 or t2.  Every element therefore splits uniquely as
    an eps-free polynomial in t1, t2 plus eps times a polynomial in eps and
    t2 with t2-exponent at most 3.
    """

    def __init__(self) -> None:
        super().__init__([("t1", 1), ("t2", 1), ("eps", 1)])

    def _reduce(self, terms: dict[Monomial, int]) -> dict[Monomial, int]:
        out: dict[Monomial, int] = {}
        for (a, b, k), coeff in terms.items():
            if k >= 1 and a >= 1:
                a, b = 0, a + b
            if a >= 4 or b >= 4:
                continue
            out[(a, b, k)] = out.get((a, b, k), 0) + coeff
        return {m: c for m, c in out.items() if c}


@lru_cache(maxsize=None)
def blowup_ring() -> BlowupRing:
    return BlowupRing()


def _check_blowup(c: RingElement) -> BlowupRing:
    ring = blowup_ring()
    if c.ring is not ring:
        raise ValueError("class does not live on the blown-up double space")
    return ring


def exceptional_split(c: RingElement) -> tuple[RingElement, RingElement]:
    """Split c as (eps-free part) + eps*h, returning the pair (free, h)."""
    ring = _check_blowup(c)
    free: dict[Monomial, int] = {}
    shifted: dict[Monomial, int] = {}
    for (a, b, k), coeff in c.terms.items():
        if k == 0:
            free[(a, b, 0)] = coeff
        else:
            shifted[(a, b, k - 1)] = coeff
    return ring.element(free), ring.element(shifted)


class SegrePushTable:
    """Fiber integrals of powers of eps over the exceptional divisor.

    The exceptional divisor is a plane bundle over the diagonal copy of
    projective 3-space; integrating eps^k along its fibers leaves (-1)^k
    times the (k-2)-nd Segre class of the tangent bundle, the series
    inverse of (1 + t)^4.  Exponents below 2 integrate to zero, and
    exponents beyond 5 land above the top degree.
    """

    def __init__(self) -> None:
        ring = spaces.space("P3").ring
        t = ring.gen("t")
        tangent = TotalClass(ring, [4 * t, 6 * t * t, 4 * t ** 3], bound=3)
        self.ring = ring
        self._segre = tangent.invert()

    def value(self, k: int) -> RingElement:
        if k < 0:
            raise ValueError("exponent must be non-negative")
        if k < 2 or k - 2 > 3:
            return self.ring.zero()
        sign = -1 if k % 2 else 1
        return sign * self._segre.component(k - 2)


@lru_cache(maxsize=None)
def segre_push_table() -> SegrePushTable:
    return SegrePushTable()


def eval_exceptional(c: RingElement) -> int:
    """Integral of a class over the exceptional divisor.

    Sets t1 = t2 = t, integrates each eps power along the fibers through
    the push table (exponents below 2 die), and pairs the remainder against
    the point class of the diagonal.
    """
    _check_blowup(c)
    table = segre_push_table()
    t = table.ring.gen("t")
    total = table.ring.zero()
    for (a, b, k), coeff in c.terms.items():
        if k < 2:
            continue
        total = total + coeff * t ** (a + b) * table.value(k)
    return total.coefficient((3,))


def eval_total(c: RingElement) -> int:
    """Integral of a class over the blown-up double space.

    The eps-free part pairs by its t1^3*t2^3 coefficient; the rest is eps
    times a class supported on the exceptional divisor and integrates
    there.
    """
    _check_blowup(c)
    free, h = exceptional_split(c)
    return free.coefficient((3, 3, 0)) + eval_exceptional(h)


@lru_cache(maxsize=None)
def _phi_images() -> dict[str, RingElement]:
    ring = blowup_ring()
    t1, t2, eps = ring.gens()
    return {"c1": eps - t1 - t2, "c2": t1 * t2 - eps * t2}


@lru_cache(maxsize=None)
def _phi_certificate() -> bool:
    """The relations of G, as spaces presents them, vanish under every integral.

    The relation images do not rewrite to zero termwise; the ring is
    under-presented on purpose.  What the calculus relies on is that they
    are invisible to the evaluation functionals, so each image is paired
    against every monomial of complementary degree through both of them.
    """
    ring = blowup_ring()
    line_ring = spaces.space("G").ring
    free = PolyRing(line_ring.generators)
    for rel in line_ring.relations:
        image = substitute(free.element(rel), ring, _phi_images())
        d = image.degree()
        for m in ring.monomials_of_degree(6 - d):
            if eval_total(image * ring.monomial(m)) != 0:
                raise AssertionError("relation image detected by a total-space integral")
        for m in ring.monomials_of_degree(5 - d):
            if eval_exceptional(image * ring.monomial(m)) != 0:
                raise AssertionError("relation image detected by an exceptional integral")
    return True


def phi_pullback(e: RingElement) -> RingElement:
    """Pull a line-space class back to point-pair language.

    The map sends c1 to eps - t1 - t2 and c2 to t1*t2 - eps*t2; the first
    call certifies its compatibility with both line-space relations.
    """
    if e.ring is not spaces.space("G").ring:
        raise ValueError("phi_pullback takes a class on the line space G")
    _phi_certificate()
    return substitute(e, blowup_ring(), _phi_images())


def coincidence_class() -> RingElement:
    """The class eps of pairs whose two points coincide.

    The defining identity eps = t1 + t2 - phi_pullback(g) is asserted
    before returning: planes through a pair that has collapsed are exactly
    the planes through the point, however the pair approached it.
    """
    ring = blowup_ring()
    t1, t2, eps = ring.gens()
    g = spaces.space("G").symbol_class("g")
    if eps != t1 + t2 - phi_pullback(g):
        raise AssertionError("coincidence identity failed")
    return eps


def surface_excess_class(n: int) -> RingElement:
    """Pairs of points on a degree-n surface, diagonal contribution removed.

    Two copies of the surface meet the pair space in n^2*t1*t2; the part
    supported on coincidences is n*t2*eps, and the difference counts honest
    pairs.
    """
    if n < 1:
        raise ValueError("surface degree must be at least 1")
    ring = blowup_ring()
    t1, t2, eps = ring.gens()
    return n * n * (t1 * t2) - n * (t2 * eps)


def tangent_count(n: int) -> int:
    """Tangent lines to a degree-n surface in a general pencil.

    The pencil is the g_s condition (lines through a point inside a plane);
    tangency is a coincidence of two of the n intersection points, counted
    on the exceptional divisor against the excess class of the surface
    pair.  The result is n(n-1), the class of a plane section.
    """
    g_s = spaces.space("G").symbol_class("g_s")
    return eval_exceptional(surface_excess_class(n) * phi_pullback(g_s))


@lru_cache(maxsize=None)
def _config_ring() -> PolyRing:
    """Free ring of bitangency configurations.

    p1..p4 are point conditions on the four tangency points, g and the
    g_* classes are line conditions; no relations are imposed, every
    simplification in the derivation is an explicit checked rewrite.
    """
    return PolyRing(
        [
            ("p1", 1),
            ("p2", 1),
            ("p3", 1),
            ("p4", 1),
            ("g", 1),
            ("g_e", 2),
            ("g_p", 2),
            ("g_s", 3),
            ("G", 4),
        ]
    )


class _SymbolScope:
    """Expression-evaluation scope whose symbols are a ring's generators."""

    def __init__(self, name: str, ring: PolyRing) -> None:
        self.name = name
        self.ring = ring
        self.symbols = {spec.name: ring.gen(spec.name) for spec in ring.generators}


def _parse(source: str, scope) -> RingElement:
    return dsl.evaluate(dsl.parse(source), scope)


@lru_cache(maxsize=None)
def _config_scope() -> _SymbolScope:
    """The configuration ring as a scope, with the flag-space p read as p1."""
    scope = _SymbolScope("bitangency-configurations", _config_ring())
    scope.symbols["p"] = scope.symbols["p1"]
    return scope


_ENTRY_SOURCES = (
    ("G", "n*(n-1)*(n-2)*(n-3)"),
    ("p1*p3*g_e", "n^2*(n-2)*(n-3)"),
)


class InterpretationTable:
    """Counts of fully constrained bitangency configurations.

    A fixed line meets a degree-n surface in n points, so the G condition
    leaves n(n-1)(n-2)(n-3) ordered choices of two distinct tangency pairs,
    and p1*p3*g_e leaves n^2*(n-2)*(n-3).  Any monomial carrying the cube
    of a point condition vanishes: the points live on a surface.
    """

    def __init__(self) -> None:
        self.ring = PolyRing([("n", 1)])
        self.scope = _SymbolScope("surface-degree", self.ring)
        self.entries = {name: _parse(src, self.scope) for name, src in _ENTRY_SOURCES}

    def interpret(self, e: RingElement) -> RingElement:
        """Replace every condition monomial by its count polynomial in n."""
        if e.ring is not _config_ring():
            raise ValueError("interpretation applies to bitangency configuration classes")
        total = self.ring.zero()
        for mono, coeff in e.terms.items():
            if any(exp >= 3 for exp in mono[:4]):
                continue
            name = format_terms(e.ring, {mono: 1})
            if name not in self.entries:
                raise ValueError(f"no interpretation for monomial {name}")
            total = total + coeff * self.entries[name]
        return total


def _rewrite(e: RingElement, rules: Sequence[tuple[Monomial, RingElement]]) -> RingElement:
    """Substitute pattern monomials until none divides any remaining term."""
    ring = e.ring
    changed = True
    while changed:
        changed = False
        for pattern, image in rules:
            hits = [mono for mono in e.terms if all(m >= p for m, p in zip(mono, pattern))]
            if not hits:
                continue
            changed = True
            out = ring.element({m: c for m, c in e.terms.items() if m not in hits})
            for mono in hits:
                rest = tuple(m - p for m, p in zip(mono, pattern))
                out = out + e.terms[mono] * image * ring.monomial(rest)
            e = out
    return e


def _collapse_pairs(e: RingElement) -> RingElement:
    """Symmetrize the cross terms of the doubled coincidence product.

    One point from each tangency pair is as good as (p1, p3), and a single
    point against the chord condition is as good as p1.  The squared chord
    condition g^2 is kept; formula 9 of G expands it.
    """
    ring = e.ring
    p1, p3, g = ring.gen("p1"), ring.gen("p3"), ring.gen("g")
    out = ring.zero()
    for mono, coeff in e.terms.items():
        e1, e2, e3, e4, eg = mono[:5]
        if any(mono[5:]) or e1 + e2 + e3 + e4 + eg != 2:
            raise ValueError(f"unexpected monomial in coincidence product: {mono}")
        if eg == 0 and e1 + e2 == 1 and e3 + e4 == 1:
            out = out + coeff * p1 * p3
        elif eg == 1:
            out = out + coeff * g * p1
        elif eg == 2:
            out = out + coeff * g * g
        else:
            raise ValueError(f"unexpected monomial in coincidence product: {mono}")
    return out


class BitangentDerivation(NamedTuple):
    """Checked derivation of the bitangent count for a degree-n section."""

    n: int
    count: int
    steps: tuple[str, ...]
    interpretation: tuple[str, ...]

    @property
    def trace(self) -> tuple[str, ...]:
        return self.steps + self.interpretation


_STEP_SOURCES = (
    "(p1 + p2 - g)*(p3 + p4 - g)",
    "4*p1*p3 - 4*g*p1 + g_e + g_p",
    "4*p1*p3*g_e - 4*p1^3*g - 3*G",
)
_MID_SOURCE = "4*p1*p3*g_e - 4*p1*g_s + G"
_DOUBLED_SOURCE = "n^4 - 2*n^3 - 9*n^2 + 18*n"

# (space, lhs, rhs): the line-space rules push the doubled product into the
# plane pencil, formula 9 among them expands the squared chord condition, and
# the flag-space rule trades g_s for point conditions.
_RULES = (
    ("G", "g*g_e", "g_s"),
    ("G", "g_e^2", "G"),
    ("G", "g_p*g_e", "0"),
    ("G", "g^2", "g_p + g_e"),
    ("PS", "p*g_s", "G + p^3*g"),
)


@lru_cache(maxsize=None)
def _proven_rules(space_name: str) -> tuple[tuple[Monomial, RingElement], ...]:
    """The rules of one space as (pattern, image) pairs of the configuration ring.

    Each rule is proven in its own space before it is parsed in the
    configuration ring, where nothing would catch a false one.
    """
    sp, scope = spaces.space(space_name), _config_scope()
    rules = []
    for name, lhs, rhs in _RULES:
        if name == space_name:
            if _parse(lhs, sp) != _parse(rhs, sp):
                raise AssertionError(f"rewrite rule {lhs} -> {rhs} does not hold in {name}")
            (pattern,) = _parse(lhs, scope).terms
            rules.append((pattern, _parse(rhs, scope)))
    return tuple(rules)


def bitangent_derivation(n: int) -> BitangentDerivation:
    """Count the bitangent lines of a general degree-n plane section.

    Mechanizes the classical chain: double the bitangency coincidence as
    (p1 + p2 - g)*(p3 + p4 - g), symmetrize, push into the plane pencil by
    multiplying with g_e, interpret each fully constrained monomial as a
    configuration count, and halve.  The doubled product and the
    interpretation entries are parsed from the sources the trace prints.
    The rewrite rules are source triples too, each proven in the line space
    G or the flag space PS before it is applied.  Every other printed step
    is compared against the class computed from the one before; the closed
    form is n(n-2)(n-3)(n+3)/2.
    """
    if n < 1:
        raise ValueError("surface degree must be at least 1")
    scope = _config_scope()
    expect = [_parse(src, scope) for src in _STEP_SOURCES]

    doubled = _rewrite(_collapse_pairs(expect[0]), _proven_rules("G"))
    if doubled != expect[1]:
        raise AssertionError("symmetrized product drifted from its printed form")
    mid = _rewrite(doubled * scope.symbols["g_e"], _proven_rules("G"))
    if mid != _parse(_MID_SOURCE, scope):
        raise AssertionError("pencil push drifted from the expected intermediate")
    final = _rewrite(mid, _proven_rules("PS"))
    if final != expect[2]:
        raise AssertionError("point-condition form drifted from its printed form")

    table = InterpretationTable()
    doubled_poly = table.interpret(final)
    if doubled_poly != _parse(_DOUBLED_SOURCE, table.scope):
        raise AssertionError("collected count polynomial drifted from its printed form")

    doubled_value = sum(c * n ** k for (k,), c in doubled_poly.terms.items())
    if doubled_value % 2:
        raise AssertionError("doubled count is odd; halving would lose information")
    count = doubled_value // 2

    steps = (
        f"2*eps22 = {_STEP_SOURCES[0]}",
        f"2*eps22 = {_STEP_SOURCES[1]}",
        f"2*eps22*g_e = {_STEP_SOURCES[2]}",
    )
    interpretation = (
        *(f"{name} -> {src}" for name, src in _ENTRY_SOURCES),
        "p1^3*g -> 0",
        f"2*count = {_DOUBLED_SOURCE}",
        f"count = {count}",
    )
    return BitangentDerivation(n=n, count=count, steps=steps, interpretation=interpretation)
