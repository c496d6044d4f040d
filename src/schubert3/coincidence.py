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
n(n-2)(n-3)(n+3)/2 bitangent lines, 28 for a quartic.  The bitangent
derivation is one rewrite engine over the rows of `_RULES`, in four
tables: sym symmetrizes the doubled coincidence product, G and PS push it
into the plane pencil by identities proven in those spaces, and count reads
each fully constrained configuration as its count in n.
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace
from typing import NamedTuple, Sequence

from . import dsl, spaces
from .graded_ring import Monomial, PolyRing, RingElement, series_inverse, substitute

__all__ = [
    "BitangentDerivation",
    "BlowupRing",
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
    times the (k-2)-nd Segre class of the tangent bundle: the degree-(k-2)
    part of `series_inverse((1 + t)^4, 3)` in the ring of P3.  Exponents
    below 2 integrate to zero, and exponents beyond 5 land above the top
    degree.
    """

    def __init__(self) -> None:
        self.ring = spaces.space("P3").ring
        self._segre = series_inverse((1 + self.ring.gen("t")) ** 4, 3)

    def value(self, k: int) -> RingElement:
        if k < 0:
            raise ValueError("exponent must be non-negative")
        if k < 2 or k - 2 > 3:
            return self.ring.zero()
        sign = -1 if k % 2 else 1
        return sign * self._segre.homogeneous_component(k - 2)


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
    for rel in spaces.space("G").ring.relations:
        image = substitute(rel, ring, _phi_images())
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
    g_* classes are line conditions, and n is the surface degree that the
    counts are written in; no relations are imposed, every simplification
    in the derivation is a rewrite by a row of `_RULES`.
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
            ("n", 1),
        ]
    )


def _parse(source: str, scope) -> RingElement:
    return dsl.evaluate(dsl.parse(source), scope)


@lru_cache(maxsize=None)
def _config_scope() -> SimpleNamespace:
    """The configuration ring as a scope, with the flag-space p read as p1."""
    ring = _config_ring()
    symbols = {spec.name: ring.gen(spec.name) for spec in ring.generators}
    symbols["p"] = symbols["p1"]
    return SimpleNamespace(name="bitangency-configurations", ring=ring, symbols=symbols)


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

# (kind, lhs, rhs), one table per kind.  sym: one point from each tangency
# pair is as good as (p1, p3), and a point against the chord condition is as
# good as p1.  G and PS: the line-space rules push the doubled product into
# the plane pencil, formula 9 among them expands the squared chord condition,
# and the flag-space rule trades g_s for point conditions.  count: a line
# meets the surface in n points, so G leaves n(n-1)(n-2)(n-3) ordered choices
# of two tangency pairs and p1*p3*g_e leaves n^2(n-2)(n-3); a cubed point
# condition vanishes, since the points live on a surface.
_RULES = (
    ("sym", "p2", "p1"),
    ("sym", "p4", "p3"),
    ("sym", "g*p3", "g*p1"),
    ("G", "g*g_e", "g_s"),
    ("G", "g_e^2", "G"),
    ("G", "g_p*g_e", "0"),
    ("G", "g^2", "g_p + g_e"),
    ("PS", "p*g_s", "G + p^3*g"),
    ("count", "G", "n*(n-1)*(n-2)*(n-3)"),
    ("count", "p1*p3*g_e", "n^2*(n-2)*(n-3)"),
    ("count", "p1^3*g", "0"),
)


@lru_cache(maxsize=None)
def _rules(kind: str) -> tuple[tuple[Monomial, RingElement], ...]:
    """The rows of one kind as (pattern, image) pairs of the configuration ring.

    A row whose kind names a space is proven in that space before it is
    parsed in the configuration ring, where nothing would catch a false one.
    """
    scope = _config_scope()
    rules = []
    for name, lhs, rhs in _RULES:
        if name != kind:
            continue
        if name in spaces.SPACE_NAMES:
            sp = spaces.space(name)
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
    configuration count in n, and halve.  Each change of class is a rewrite
    by one table of `_RULES`: sym symmetrizes, G and PS push (each row
    proven in its space before use), and count interprets; the count rows
    are printed as the interpretation.  Every printed step is compared
    against the class computed from the one before; the closed form is
    n(n-2)(n-3)(n+3)/2.
    """
    if n < 1:
        raise ValueError("surface degree must be at least 1")
    scope = _config_scope()
    expect = [_parse(src, scope) for src in _STEP_SOURCES]

    doubled = _rewrite(_rewrite(expect[0], _rules("sym")), _rules("G"))
    if doubled != expect[1]:
        raise AssertionError("symmetrized product drifted from its printed form")
    mid = _rewrite(doubled * scope.symbols["g_e"], _rules("G"))
    if mid != _parse(_MID_SOURCE, scope):
        raise AssertionError("pencil push drifted from the expected intermediate")
    final = _rewrite(mid, _rules("PS"))
    if final != expect[2]:
        raise AssertionError("point-condition form drifted from its printed form")
    doubled_poly = _rewrite(final, _rules("count"))
    if doubled_poly != _parse(_DOUBLED_SOURCE, scope):
        raise AssertionError("collected count polynomial drifted from its printed form")

    doubled_value = sum(c * n ** mono[-1] for mono, c in doubled_poly.terms.items())
    if doubled_value % 2:
        raise AssertionError("doubled count is odd; halving would lose information")
    count = doubled_value // 2

    steps = (
        f"2*eps22 = {_STEP_SOURCES[0]}",
        f"2*eps22 = {_STEP_SOURCES[1]}",
        f"2*eps22*g_e = {_STEP_SOURCES[2]}",
    )
    interpretation = (
        *(f"{lhs} -> {rhs}" for kind, lhs, rhs in _RULES if kind == "count"),
        f"2*count = {_DOUBLED_SOURCE}",
        f"count = {count}",
    )
    return BitangentDerivation(n=n, count=count, steps=steps, interpretation=interpretation)
