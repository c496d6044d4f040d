"""The four ambient spaces and their named Schubert classes.

Points of projective 3-space (P3), planes (P3dual), lines (G) and
point-on-line flags (PS) each carry an integer graded ring presented by
generators and relations.  The relations of the line space are the inverse
total class components of 1 + c1 + c2 in degrees 3 and 4; the flag space adds
the incidence relation t^2 - t*c1 + c2 = 0 tying the point to its line.

Named classes follow the classical dictionary: on G, g is lines meeting a
fixed line, g_p lines through a point, g_e lines in a plane, g_s lines
through a point inside a plane, and G a fixed line.  Every graded piece also
carries a distinguished basis of such classes (a unimodular change of basis
from the monomial one), so any element can be rendered geometrically.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional, Union

from . import dsl
from .chern_segre import TotalClass
from .graded_ring import (
    GradedRingPresentation,
    PolyRing,
    RingElement,
    format_signed_sum,
    solve_integer_combination,
)

__all__ = [
    "EvalResult",
    "FORMULAS",
    "Formula",
    "FormulaCheck",
    "SPACE_NAMES",
    "SchubertCombination",
    "SchubertSpace",
    "evaluate_expression",
    "pushforward_PS_to_G",
    "render_in_classes",
    "space",
    "verify_formula_suite",
]

SPACE_NAMES = ("P3", "P3dual", "G", "PS")

_EXPECTED_RANKS = {
    "P3": (1, 1, 1, 1),
    "P3dual": (1, 1, 1, 1),
    "G": (1, 1, 2, 1, 1),
    "PS": (1, 2, 3, 3, 2, 1),
}


class SchubertCombination(NamedTuple):
    """Integer combination of named classes of one degree; degree None for 0."""

    space: str
    degree: Optional[int]
    entries: tuple[tuple[int, str], ...]

    def __str__(self) -> str:
        return format_signed_sum(self.entries)


class SchubertSpace:
    """A space together with its ring, named classes and geometric basis.

    `symbols` maps names usable in the expression language to ring elements;
    it always contains the ring generators.  `top_sign` fixes the geometric
    orientation: the integral of a top-degree class is top_sign times the
    coefficient read off against the presentation's top monomial.
    """

    def __init__(
        self,
        name: str,
        ring: GradedRingPresentation,
        symbols: dict[str, RingElement],
        render_labels: list[list[str]],
        top_sign: int = 1,
    ) -> None:
        self.name = name
        self.ring = ring
        self.dim = ring.top_degree
        self.top_sign = top_sign
        self.symbols: dict[str, RingElement] = {
            g.name: ring.gen(g.name) for g in ring.generators
        }
        self.symbols.update(symbols)
        if len(render_labels) != self.dim + 1:
            raise ValueError(f"{name}: need a render basis for each degree 0..{self.dim}")
        self.render_basis: dict[int, tuple[tuple[str, RingElement], ...]] = {}
        for d, labels in enumerate(render_labels):
            self.render_basis[d] = tuple(
                (lbl, dsl.evaluate(dsl.parse(lbl), self)) for lbl in labels
            )
        # rows of the integer inverse of each degree's render basis matrix
        self._render_inverse: dict[int, list[list[int]]] = {}
        self._validate_render_basis()

    def __repr__(self) -> str:
        return f"SchubertSpace({self.name}, dim={self.dim})"

    def _degree_vector(self, e: RingElement, d: int) -> list[int]:
        return [e.coefficient(m) for m in self.ring.graded_basis(d).monomials]

    def _validate_render_basis(self) -> None:
        for d in range(self.dim + 1):
            entries = self.render_basis[d]
            rank = self.ring.graded_basis(d).rank
            if len(entries) != rank:
                raise ValueError(
                    f"{self.name}: degree-{d} render basis has {len(entries)} entries, rank is {rank}"
                )
            for lbl, e in entries:
                if e.is_zero() or e.degree() != d:
                    raise ValueError(f"{self.name}: render class {lbl!r} is not of degree {d}")
            rows = [self._degree_vector(e, d) for _, e in entries]
            inverse = []
            for i in range(rank):
                unit = [1 if j == i else 0 for j in range(rank)]
                x = solve_integer_combination(rows, unit)
                if x is None:
                    raise ValueError(
                        f"{self.name}: degree-{d} render basis is not a unimodular basis"
                    )
                inverse.append(x)
            self._render_inverse[d] = inverse

    def symbol_class(self, name: str) -> RingElement:
        """The class a symbol stands for; unknown names list the vocabulary."""
        return dsl.evaluate(dsl.Sym(name), self)

    def evaluate_top(self, e: RingElement) -> int:
        """Geometric integral of the top-degree component."""
        if e.ring is not self.ring:
            raise ValueError(f"element does not live on {self.name}")
        return self.top_sign * self.ring.evaluate_top(e)

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


def _dual_segre_components(free: PolyRing, degrees: tuple[int, ...]) -> list[RingElement]:
    c1, c2 = free.gen("c1"), free.gen("c2")
    s = TotalClass(free, {1: c1, 2: c2}, max(degrees)).invert()
    return [s.component(d) for d in degrees]


def _build_point_space(dual: bool) -> SchubertSpace:
    gen = "e" if dual else "t"
    free = PolyRing([(gen, 1)])
    ring = GradedRingPresentation([(gen, 1)], [free.gen(gen) ** 4], 3, (3,))
    v = ring.gen(gen)
    if dual:
        # e: planes through a point, e_g: planes through a line, E: fixed plane
        symbols = {"e_g": v**2, "E": v**3}
        labels = [["1"], ["e"], ["e_g"], ["E"]]
        return SchubertSpace("P3dual", ring, symbols, labels)
    # p: points in a plane, p_g: points on a line, P: fixed point
    symbols = {"p": v, "p_g": v**2, "P": v**3}
    labels = [["1"], ["p"], ["p_g"], ["P"]]
    return SchubertSpace("P3", ring, symbols, labels)


def _line_classes(ring: GradedRingPresentation) -> dict[str, RingElement]:
    """The named line conditions of G, also carried by PS, in c1 and c2."""
    c1, c2 = ring.gen("c1"), ring.gen("c2")
    return {"g": -c1, "g_p": c1**2 - c2, "g_e": c2, "g_s": -c1 * c2, "G": c2**2}


def _build_line_space() -> SchubertSpace:
    free = PolyRing([("c1", 1), ("c2", 2)])
    relations = _dual_segre_components(free, (3, 4))
    ring = GradedRingPresentation(free.generators, relations, 4, (0, 2))
    labels = [["1"], ["g"], ["g_p", "g_e"], ["g_s"], ["G"]]
    return SchubertSpace("G", ring, _line_classes(ring), labels)


def _build_flag_space() -> SchubertSpace:
    free = PolyRing([("t", 1), ("c1", 1), ("c2", 2)])
    t, c1, c2 = free.gens()
    relations = _dual_segre_components(free, (3, 4))
    relations.append(t**2 - t * c1 + c2)
    ring = GradedRingPresentation(free.generators, relations, 5, (1, 0, 2))
    t = ring.gen("t")
    symbols = {"p": -t, "p_g": t**2, **_line_classes(ring)}
    labels = [
        ["1"],
        ["p", "g"],
        ["p^2", "g_p", "g_e"],
        ["p^3", "p*g_e", "g_s"],
        ["G", "p^2*g_e"],
        ["p*G"],
    ]
    # the unique degree-5 monomial integrates to -1, hence the orientation flip
    return SchubertSpace("PS", ring, symbols, labels, top_sign=-1)


@lru_cache(maxsize=None)
def space(name: str) -> SchubertSpace:
    if name == "P3":
        sp = _build_point_space(dual=False)
    elif name == "P3dual":
        sp = _build_point_space(dual=True)
    elif name == "G":
        sp = _build_line_space()
    elif name == "PS":
        sp = _build_flag_space()
    else:
        raise ValueError(f"unknown space {name!r}; available: {', '.join(SPACE_NAMES)}")
    if sp.ring.graded_ranks() != _EXPECTED_RANKS[name]:
        raise AssertionError(f"{name}: graded ranks changed unexpectedly")
    for check in verify_formula_suite(sp):
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


def verify_formula_suite(
    target: Union[SchubertSpace, str, None] = None,
) -> list[FormulaCheck]:
    """Recheck every labeled incidence formula inside its ring.

    `target` restricts to one space, by name or as an already built instance;
    passing the instance lets a space check its own formulas during
    construction, before it is registered.
    """
    instance: Optional[SchubertSpace] = None
    name: Optional[str] = None
    if isinstance(target, SchubertSpace):
        instance = target
        name = target.name
    elif target is not None:
        name = space(target).name
    checks: list[FormulaCheck] = []
    for f in FORMULAS:
        if name is not None and f.space != name:
            continue
        sp = instance if instance is not None else space(f.space)
        for lhs, rhs in f.equations:
            left = dsl.evaluate(dsl.parse(lhs), sp)
            right = dsl.evaluate(dsl.parse(rhs), sp)
            checks.append(FormulaCheck(f.label, f.space, lhs, rhs, left == right))
    return checks


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
    element = dsl.evaluate(dsl.parse(text), sp)
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
