"""The four ambient spaces and their named Schubert classes.

Points of projective 3-space (P3), planes (P3dual), lines (G) and
point-on-line flags (PS) each carry an integer graded ring presented by
generators and relations.  Each space is one row of `_SPACES`: generators
and degrees, then relations, top class, named classes and render labels, all
as sources of the expression language.  The relations of the line space,
named s3 and s4, are the inverse total class components of 1 + c1 + c2 in
degrees 3 and 4; the flag space adds the incidence relation t^2 - t*c1 + c2 = 0
tying the point to its line.

Named classes follow the classical dictionary: on G, g is lines meeting a
fixed line, g_p lines through a point, g_e lines in a plane, g_s lines
through a point inside a plane, and G a fixed line.  Every graded piece also
carries a distinguished basis of such classes (a unimodular change of basis
from the monomial one), so any element can be rendered geometrically.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, NamedTuple, Optional, Sequence

from . import dsl
from .graded_ring import GradedRingPresentation, PolyRing, RingElement
from .graded_ring import format_signed_sum, hermite_form, series_inverse

__all__ = [
    "EvalResult",
    "FORMULAS",
    "Formula",
    "FormulaCheck",
    "SPACE_NAMES",
    "SchubertCombination",
    "SchubertSpace",
    "Scope",
    "evaluate_expression",
    "pushforward_PS_to_G",
    "render_in_classes",
    "space",
    "verify_formula_suite",
]


class SchubertCombination(NamedTuple):
    """Integer combination of named classes of one degree; degree None for 0."""

    space: str
    degree: Optional[int]
    entries: tuple[tuple[int, str], ...]

    def __str__(self) -> str:
        return format_signed_sum(self.entries)


class Scope:
    """A ring and the names that `dsl.evaluate` reads in it, its generators first."""

    def __init__(self, name: str, ring: PolyRing) -> None:
        self.name = name
        self.ring = ring
        self.symbols = {g.name: ring.gen(g.name) for g in ring.generators}

    def read(self, source: str) -> RingElement:
        """The value of an expression-language source in this scope."""
        return dsl.evaluate(dsl.parse(source), self)


class SchubertSpace(Scope):
    """A space together with its ring, named classes and geometric basis.

    `classes` maps each named class to its source, read in order after the
    ring generators, as the render labels are; `symbols` then holds both.
    """

    def __init__(
        self,
        name: str,
        ring: GradedRingPresentation,
        classes: Mapping[str, str],
        render_labels: Sequence[Sequence[str]],
    ) -> None:
        super().__init__(name, ring)
        self.dim = ring.top_degree
        for label, source in classes.items():
            self.symbols[label] = self.read(source)
        if len(render_labels) != self.dim + 1:
            raise ValueError(f"{name}: need a render basis for each degree 0..{self.dim}")
        self.render_basis: dict[int, tuple[tuple[str, RingElement], ...]] = {}
        for d, labels in enumerate(render_labels):
            self.render_basis[d] = tuple((lbl, self.read(lbl)) for lbl in labels)
        # rows of the integer inverse of each degree's render basis matrix
        self._render_inverse: dict[int, list[list[int]]] = {}
        self._validate_render_basis()

    def __repr__(self) -> str:
        return f"SchubertSpace({self.name}, dim={self.dim})"

    def _degree_vector(self, e: RingElement, d: int) -> list[int]:
        return [e.coefficient(m) for m in self.ring.graded_basis(d)]

    def _validate_render_basis(self) -> None:
        for d in range(self.dim + 1):
            entries = self.render_basis[d]
            rank = len(self.ring.graded_basis(d))
            if len(entries) != rank:
                raise ValueError(
                    f"{self.name}: degree-{d} render basis has {len(entries)} entries, rank is {rank}"
                )
            for lbl, e in entries:
                if e.is_zero() or e.degree() != d:
                    raise ValueError(f"{self.name}: render class {lbl!r} is not of degree {d}")
            # The reduced Hermite form of [M | I], M the render classes in the
            # monomial basis, has unit pivots in columns 0..rank-1 exactly when
            # M is unimodular, and is then [I | M^-1]: M^-1 is its right half.
            rows = [
                self._degree_vector(e, d) + [int(i == j) for j in range(rank)]
                for i, (_, e) in enumerate(entries)
            ]
            form = hermite_form(rows, 2 * rank)
            if [(col, row[col]) for col, row in form] != [(i, 1) for i in range(rank)]:
                raise ValueError(
                    f"{self.name}: degree-{d} render basis is not a unimodular basis"
                )
            self._render_inverse[d] = [row[rank:] for _, row in form]

    def symbol_class(self, name: str) -> RingElement:
        """The class a symbol stands for; unknown names list the vocabulary."""
        return dsl.evaluate(dsl.Sym(name), self)

    def evaluate_top(self, e: RingElement) -> int:
        """Geometric integral of the top-degree component."""
        if e.ring is not self.ring:
            raise ValueError(f"element does not live on {self.name}")
        return self.ring.evaluate_top(e)

    def express_in_schubert_basis(self, e: RingElement) -> SchubertCombination:
        """Write a homogeneous element in the named-class basis of its degree."""
        if e.ring is not self.ring:
            raise ValueError(f"element does not live on {self.name}")
        if e.is_zero():
            return SchubertCombination(self.name, None, ())
        if not e.is_homogeneous():
            raise ValueError("element is not homogeneous; express each component")
        d = e.degree()
        entries = self.render_basis[d]
        # x . basis = v is solved by x = v . inverse, exactly and over Z
        vec = self._degree_vector(e, d)
        inverse = self._render_inverse[d]
        coeffs = [sum(v * row[j] for v, row in zip(vec, inverse)) for j in range(len(entries))]
        return SchubertCombination(
            self.name,
            d,
            tuple((c, lbl) for c, (lbl, _) in zip(coeffs, entries) if c),
        )


def render_in_classes(sp: SchubertSpace, e: RingElement) -> str:
    """Render any element as named classes, components in increasing degree."""
    return format_signed_sum(
        entry
        for comp in e.homogeneous_components().values()
        for entry in sp.express_in_schubert_basis(comp).entries
    )


class _Row(NamedTuple):
    """One space in sources: generators, relations, top class, named classes, labels."""

    generators: tuple[tuple[str, int], ...]
    relations: tuple[str, ...]
    top: str
    classes: dict[str, str]
    labels: tuple[tuple[str, ...], ...]


_LINE_CLASSES = {"g": "-c1", "g_p": "c1^2 - c2", "g_e": "c2", "g_s": "-c1*c2", "G": "c2^2"}

_SPACES = {
    # p: points in a plane, p_g: points on a line, P: a fixed point
    "P3": _Row(
        (("t", 1),), ("t^4",), "t^3", {"p": "t", "p_g": "t^2", "P": "t^3"},
        (("1",), ("p",), ("p_g",), ("P",)),
    ),
    # e: planes through a point, e_g: planes through a line, E: a fixed plane
    "P3dual": _Row(
        (("e", 1),), ("e^4",), "e^3", {"e_g": "e^2", "E": "e^3"},
        (("1",), ("e",), ("e_g",), ("E",)),
    ),
    "G": _Row(
        (("c1", 1), ("c2", 2)), ("s3", "s4"), "c2^2", _LINE_CLASSES,
        (("1",), ("g",), ("g_p", "g_e"), ("g_s",), ("G",)),
    ),
    # the top class is p*G, a fixed flag; degree-5 monomials integrate to 0, -1 or -2
    "PS": _Row(
        (("t", 1), ("c1", 1), ("c2", 2)), ("s3", "s4", "t^2 - t*c1 + c2"), "-t*c2^2",
        {"p": "-t", "p_g": "t^2", **_LINE_CLASSES},
        (
            ("1",),
            ("p", "g"),
            ("p^2", "g_p", "g_e"),
            ("p^3", "p*g_e", "g_s"),
            ("G", "p^2*g_e"),
            ("p*G",),
        ),
    ),
}

SPACE_NAMES = tuple(_SPACES)


@lru_cache(maxsize=None)
def _build_space(name: str) -> SchubertSpace:
    """The named space, read from its row, its formulas not yet proven."""
    row = _SPACES.get(name)
    if row is None:
        raise ValueError(f"unknown space {name!r}; available: {', '.join(SPACE_NAMES)}")
    free = Scope(name, PolyRing(row.generators))
    if "c2" in free.symbols:
        # s3 and s4, the degree-3 and degree-4 parts of (1 + c1 + c2)^-1
        s = series_inverse(free.read("1 + c1 + c2"), 4)
        free.symbols.update(s3=s.homogeneous_component(3), s4=s.homogeneous_component(4))
    ring = GradedRingPresentation(map(free.read, row.relations), free.read(row.top))
    return SchubertSpace(name, ring, row.classes, row.labels)


@lru_cache(maxsize=None)
def space(name: str) -> SchubertSpace:
    """The named space, once its labeled formulas are proven in its ring.

    Raises ValueError for an unknown name and AssertionError naming the
    first formula that fails.
    """
    sp = _build_space(name)
    for check in _formula_checks(sp):
        if not check.holds:
            raise AssertionError(
                f"{name}: formula {check.label} failed at construction: "
                f"{check.lhs} != {check.rhs}"
            )
    return sp


def pushforward_PS_to_G(e: RingElement) -> RingElement:
    """Integrate a flag class over the fibers of the point-forgetting map.

    Normal forms on PS have t-exponent at most 1; fiber integration kills the
    t-free part and sends t*m to -m, one degree lower on G.
    """
    ps = space("PS")
    if e.ring is not ps.ring:
        raise ValueError("element does not live on PS")
    out: dict[tuple, int] = {}
    for (et, e1, e2), c in e.terms.items():
        if et == 0:
            continue
        key = (e1, e2)
        out[key] = out.get(key, 0) - c
    return space("G").ring.element(out)


class Formula(NamedTuple):
    label: str
    space: str
    equations: tuple[tuple[str, str], ...]


FORMULAS: tuple[Formula, ...] = (
    Formula("1", "P3", (("p^2", "p_g"),)),
    Formula("2", "P3", (("p^3", "p*p_g"),)),
    Formula("3", "P3", (("p*p_g", "P"),)),
    Formula("4", "P3", (("p^3", "P"),)),
    Formula("5", "P3dual", (("e^2", "e_g"),)),
    Formula("6", "P3dual", (("e^3", "e*e_g"),)),
    Formula("7", "P3dual", (("e*e_g", "E"),)),
    Formula("8", "P3dual", (("e^3", "E"),)),
    Formula("9", "G", (("g^2", "g_p + g_e"),)),
    Formula("10", "G", (("g*g_p", "g_s"),)),
    Formula("11", "G", (("g*g_e", "g_s"),)),
    Formula("12", "G", (("g*g_s", "G"), ("g_p*g_e", "0"))),
    Formula("13", "G", (("g^3", "g*g_p + g*g_e"), ("g^3", "2*g_s"))),
    Formula(
        "14",
        "G",
        (
            ("g^4", "2*g*g_s"),
            ("g^4", "2*g^2*g_e"),
            ("g^4", "2*g^2*g_p"),
            ("g^4", "2*g_p^2"),
            ("g^4", "2*g_e^2"),
            ("g^4", "2*G"),
        ),
    ),
    Formula("I", "PS", (("p*g", "p_g + g_e"), ("p*g", "p^2 + g_e"))),
    Formula("II", "PS", (("p*g_p", "p^3 + g_s"),)),
    Formula(
        "III",
        "PS",
        (
            ("p*g_s", "p^2*g_p"),
            ("p*g_s", "G + p^3*g"),
            ("p*g_s", "G + p^2*g_e"),
        ),
    ),
)


class FormulaCheck(NamedTuple):
    label: str
    space: str
    lhs: str
    rhs: str
    holds: bool


# Parse tree of a formula side, keyed by its source text: each source is
# parsed once per process, and a tree is immutable, so it is shared safely.
_parsed_side = lru_cache(maxsize=None)(dsl.parse)


def _formula_checks(sp: SchubertSpace) -> list[FormulaCheck]:
    """Evaluate both sides of each labeled formula of `sp`'s space in `sp`."""
    checks: list[FormulaCheck] = []
    for f in FORMULAS:
        if f.space != sp.name:
            continue
        for lhs, rhs in f.equations:
            left = dsl.evaluate(_parsed_side(lhs), sp)
            right = dsl.evaluate(_parsed_side(rhs), sp)
            checks.append(FormulaCheck(f.label, f.space, lhs, rhs, left == right))
    return checks


def verify_formula_suite(name: Optional[str] = None) -> list[FormulaCheck]:
    """Recheck every labeled incidence formula inside its ring, or those of one space.

    Each source is parsed once per process, and every call evaluates the
    identities afresh.  A false one is returned as a check that does not
    hold; it never raises.
    """
    names = SPACE_NAMES if name is None else (name,)
    return [c for n in names for c in _formula_checks(_build_space(n))]


class EvalResult(NamedTuple):
    """Evaluated expression with its renderings and optional integral."""

    space: str
    input: str
    element: RingElement
    monomial: str
    schubert: str
    top: Optional[int]


def evaluate_expression(space_name: str, text: str) -> EvalResult:
    sp = space(space_name)
    element = sp.read(text)
    top = None
    if not element.is_zero() and element.is_homogeneous() and element.degree() == sp.dim:
        top = sp.evaluate_top(element)
    return EvalResult(
        space=sp.name,
        input=text,
        element=element,
        monomial=str(element),
        schubert=render_in_classes(sp, element),
        top=top,
    )
