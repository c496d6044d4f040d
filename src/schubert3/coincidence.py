"""Coincidences of point pairs on the blown-up double projective space.

A pair of points of projective 3-space degenerates when the two points
collide.  Blowing up the diagonal of the product replaces the collision
locus by an exceptional divisor whose class eps drives all the excess
bookkeeping.  Classes are polynomials in eps and in t1, t2 (the hyperplane
pulled back from each factor), reduced in Keel's presentation of the
blow-up, one more `GradedRingPresentation`.  Every integral is
`evaluate_top`; over the exceptional divisor it is the integral of eps
times the class.  The pullback phi from the line space is a ring map: each
relation of G maps to zero.

Two classical counts come out of this machinery, each as a
`CountDerivation`: a degree-n surface has n(n-1) tangent lines in a general
pencil, and a general plane section has n(n-2)(n-3)(n+3)/2 bitangent
lines, 28 for a quartic.  The bitangent derivation is one rewrite engine
over the rows of `_RULES`, in four tables: sym symmetrizes the doubled
coincidence product, G and PS push it into the plane pencil by identities
proven in those spaces, and count reads each fully constrained
configuration as its count in n.  Nothing in that chain depends on n, so
it runs once per process and each n evaluates the polynomial it ends in.

Each count refuses an n outside its domain with a `ValueError`: an int
n >= 1 for tangents, and n >= 2 for bitangents, since a degree-1 section is
a line.  An n whose type is not int, such as 4.0 or True, is refused too.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from . import spaces
from .graded_ring import GradedRingPresentation, Monomial, PolyRing, RingElement, substitute

__all__ = [
    "CountDerivation",
    "bitangent_derivation",
    "blowup_ring",
    "phi_pullback",
    "surface_excess_class",
    "tangent_count",
    "tangent_derivation",
]


@lru_cache(maxsize=None)
def blowup_ring() -> GradedRingPresentation:
    """Keel's presentation of P3 x P3 blown up along its diagonal.

    Blowing X up along Y, with A(X) -> A(Y) onto, gives A(X)[eps] modulo
    eps*ker and P(-eps), P(T) = T^3 + c1(N)*T^2 + c2(N)*T + [Y] for the
    normal bundle N (Keel 1992, appendix).  Here N is the tangent bundle of
    P3, c(N) = (1 + t)^4, and ker is generated by t1 - t2.  The order
    (eps, t1, t2) matters: the integer echelon pivots in column order, and
    with eps last the cubic would pivot at 4*t2^3*eps.
    """
    free = PolyRing([("eps", 1), ("t1", 1), ("t2", 1)])
    eps, t1, t2 = free.gens()
    diagonal = t1**3 + t1**2 * t2 + t1 * t2**2 + t2**3
    cubic = diagonal - eps**3 + 4 * t2 * eps**2 - 6 * t2**2 * eps
    relations = [t1**4, t2**4, eps * (t1 - t2), cubic]
    return GradedRingPresentation(relations, t1**3 * t2**3)


@lru_cache(maxsize=None)
def _phi_images() -> dict[str, RingElement]:
    """Images of c1 and c2 under the pullback from the line space.

    They define a ring map only if every relation of G maps to zero, which
    is checked here, once.
    """
    ring = blowup_ring()
    eps, t1, t2 = ring.gens()
    images = {"c1": eps - t1 - t2, "c2": t1 * t2 - eps * t2}
    for rel in spaces.space("G").ring.relations:
        image = substitute(rel, ring, images)
        if not image.is_zero():
            raise AssertionError(f"the G relation {rel} pulls back to {image}, not 0")
    return images


def phi_pullback(e: RingElement) -> RingElement:
    """Pull a line-space class back to point-pair language.

    The map sends c1 to eps - t1 - t2 and c2 to t1*t2 - eps*t2; the first
    call checks that both line-space relations map to zero.
    """
    if e.ring is not spaces.space("G").ring:
        raise ValueError("phi_pullback takes a class on the line space G")
    return substitute(e, blowup_ring(), _phi_images())


class CountDerivation(NamedTuple):
    """Checked derivation of a count for a degree-n surface.

    `steps` are the lines a count command prints under the count, and
    `interpretation` the further lines it prints under --trace.
    """

    n: int
    count: int
    steps: tuple[str, ...]
    interpretation: tuple[str, ...]

    @property
    def trace(self) -> tuple[str, ...]:
        return self.steps + self.interpretation


def _check_domain(n: int, least: int) -> None:
    # `type(n) is int` also refuses bool, as in `RingElement`
    if type(n) is not int:
        raise ValueError(f"n = {n!r} is not an integer; the domain is integers n >= {least}")
    if n < least:
        raise ValueError(f"n = {n} is outside the domain n >= {least}")


def surface_excess_class(n: int) -> RingElement:
    """Pairs of points on a degree-n surface, n >= 1, diagonal contribution removed.

    Two copies of the surface meet the pair space in n^2*t1*t2; the part
    supported on coincidences is n*t2*eps, and the difference counts honest
    pairs.
    """
    _check_domain(n, 1)
    ring = blowup_ring()
    eps, t1, t2 = ring.gens()
    return n * n * (t1 * t2) - n * (t2 * eps)


def tangent_derivation(n: int) -> CountDerivation:
    """Tangent lines to a degree-n surface, n >= 1, in a general pencil.

    The pencil is the g_s condition (lines through a point inside a plane);
    tangency is a coincidence of two of the n intersection points, counted
    on the exceptional divisor against the excess class of the surface
    pair; the integral over the exceptional divisor is the integral of eps
    times the class.  The result is n(n-1), the class of a plane section.
    The classes are the interpretation; there are no steps.
    """
    excess = surface_excess_class(n)
    ring = blowup_ring()
    pullback = phi_pullback(spaces.space("G").symbol_class("g_s"))
    integrand = excess * pullback
    count = ring.evaluate_top(integrand * ring.gen("eps"))
    interpretation = (
        f"excess = {excess}",
        f"pullback of g_s = {pullback}",
        f"integrand = {integrand}",
        f"exceptional integral = {count}",
    )
    return CountDerivation(n=n, count=count, steps=(), interpretation=interpretation)


def tangent_count(n: int) -> int:
    """n(n-1), the count of `tangent_derivation(n)`."""
    return tangent_derivation(n).count


@lru_cache(maxsize=None)
def _config_scope() -> spaces.Scope:
    """Free ring of bitangency configurations, as a scope.

    p1..p4 are point conditions on the four tangency points (the flag-space
    p reads as p1), then come the named classes of G that are not its
    generators, at their degrees in G, and last n, the surface degree that
    the counts are written in.  No relations are imposed: every
    simplification in the derivation is a rewrite by a row of `_RULES`.
    """
    G = spaces.space("G")
    generators = {spec.name for spec in G.ring.generators}
    ring = PolyRing(
        [(f"p{i}", 1) for i in range(1, 5)]
        + [(name, e.degree()) for name, e in G.symbols.items() if name not in generators]
        + [("n", 1)]
    )
    scope = spaces.Scope("bitangency-configurations", ring)
    scope.symbols["p"] = scope.symbols["p1"]
    return scope


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
            if sp.read(lhs) != sp.read(rhs):
                raise AssertionError(f"rewrite rule {lhs} -> {rhs} does not hold in {name}")
        (pattern,) = scope.read(lhs).terms
        rules.append((pattern, scope.read(rhs)))
    return tuple(rules)


@lru_cache(maxsize=None)
def _doubled_count() -> RingElement:
    """Twice the bitangent count, as a polynomial in the generator n.

    Mechanizes the classical chain: double the bitangency coincidence as
    (p1 + p2 - g)*(p3 + p4 - g), symmetrize, push into the plane pencil by
    multiplying with g_e, and interpret each fully constrained monomial as a
    configuration count in n.  Each change of class is a rewrite by one
    table of `_RULES`: sym symmetrizes, G and PS push (each row proven in
    its space before use), and count interprets.  Every printed step is
    compared against the class computed from the one before.  Nothing here
    depends on n, so the chain runs once per process.
    """
    scope = _config_scope()
    expect = [scope.read(src) for src in _STEP_SOURCES]
    push = _rules("G")

    doubled = _rewrite(_rewrite(expect[0], _rules("sym")), push)
    if doubled != expect[1]:
        raise AssertionError("symmetrized product drifted from its printed form")
    mid = _rewrite(doubled * scope.symbols["g_e"], push)
    if mid != scope.read(_MID_SOURCE):
        raise AssertionError("pencil push drifted from the expected intermediate")
    final = _rewrite(mid, _rules("PS"))
    if final != expect[2]:
        raise AssertionError("point-condition form drifted from its printed form")
    doubled_poly = _rewrite(final, _rules("count"))
    if doubled_poly != scope.read(_DOUBLED_SOURCE):
        raise AssertionError("collected count polynomial drifted from its printed form")
    return doubled_poly


def bitangent_derivation(n: int) -> CountDerivation:
    """Count the bitangent lines of a general degree-n plane section.

    Evaluates the doubled count of `_doubled_count` at n and halves it.  The
    steps are the printed classes of the chain, and the count rows of
    `_RULES` are printed as the interpretation.  The closed form is
    n(n-2)(n-3)(n+3)/2, for n >= 2.
    """
    _check_domain(n, 2)
    doubled_value = sum(c * n ** mono[-1] for mono, c in _doubled_count().terms.items())
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
    return CountDerivation(n=n, count=count, steps=steps, interpretation=interpretation)
