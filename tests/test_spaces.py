"""Space construction, named-class rendering, formulas, pushforward."""

import random

import pytest

from schubert3 import dsl
from schubert3.dsl import EvaluationError
from schubert3.graded_ring import substitute
from schubert3.spaces import (
    FORMULAS,
    SPACE_NAMES,
    SchubertSpace,
    evaluate_expression,
    pushforward_PS_to_G,
    render_in_classes,
    space,
    verify_formula_suite,
)


def eva(space_name, text):
    sp = space(space_name)
    return dsl.evaluate(dsl.parse(text), sp)


def random_homogeneous(rng, sp, d):
    terms = {m: rng.randrange(-9, 10) for m in sp.ring.graded_basis(d)}
    return sp.ring.element(terms)


# ---------------------------------------------------------------------------
# registry and vocabulary


def test_space_registry():
    assert SPACE_NAMES == ("P3", "P3dual", "G", "PS")
    assert space("G") is space("G")
    with pytest.raises(ValueError, match="unknown space"):
        space("P2")
    dims = {name: space(name).dim for name in SPACE_NAMES}
    assert dims == {"P3": 3, "P3dual": 3, "G": 4, "PS": 5}


def test_symbol_tables_frozen():
    assert set(space("P3").symbols) == {"t", "p", "p_g", "P"}
    assert set(space("P3dual").symbols) == {"e", "e_g", "E"}
    assert set(space("G").symbols) == {"c1", "c2", "g", "g_p", "g_e", "g_s", "G"}
    assert set(space("PS").symbols) == {
        "t", "c1", "c2", "p", "p_g", "g", "g_p", "g_e", "g_s", "G",
    }
    for name in SPACE_NAMES:
        assert "eps" not in space(name).symbols


def test_named_classes_in_generators():
    G = space("G")
    c1, c2 = G.ring.gens()
    assert G.symbols["g"] == -c1
    assert G.symbols["g_p"] == c1**2 - c2
    assert G.symbols["g_e"] == c2
    assert G.symbols["g_s"] == -c1 * c2
    assert G.symbols["G"] == c2**2
    PS = space("PS")
    t = PS.ring.gen("t")
    assert PS.symbols["p"] == -t
    assert PS.symbols["p_g"] == t**2


# ---------------------------------------------------------------------------
# integrals and duality


def test_point_space_integrals():
    assert evaluate_expression("P3", "p^3").top == 1
    assert evaluate_expression("P3dual", "e^3").top == 1
    assert evaluate_expression("G", "g^4").top == 2
    assert evaluate_expression("G", "g_p^2").top == 1
    assert evaluate_expression("G", "g_e^2").top == 1
    assert space("G").evaluate_top(eva("G", "g_p*g_e")) == 0
    assert evaluate_expression("PS", "p*G").top == 1
    assert evaluate_expression("PS", "p_g*g_s").top == 1


def test_duality_gram_matrices_on_G():
    G = space("G")
    pairs = {
        0: ["1"],
        1: ["g"],
        2: ["g_p", "g_e"],
        3: ["g_s"],
        4: ["G"],
    }
    for d in range(5):
        left = [eva("G", lbl) for lbl in pairs[d]]
        right = [eva("G", lbl) for lbl in pairs[4 - d]]
        gram = [[G.evaluate_top(a * b) for b in right] for a in left]
        expected = [[1 if i == j else 0 for j in range(len(right))] for i in range(len(left))]
        assert gram == expected, f"degree {d}"


def test_flag_space_orientation():
    PS = space("PS")
    t, c1, c2 = PS.ring.gens()
    # the raw monomial basis class of top degree integrates to -1
    assert PS.evaluate_top(t * c2**2) == -1
    assert PS.evaluate_top(PS.symbols["p"] * PS.symbols["G"]) == 1
    values = {PS.evaluate_top(PS.ring.monomial(m)) for m in PS.ring.monomials_of_degree(5)}
    assert values == {0, -1, -2}


# ---------------------------------------------------------------------------
# named-class rendering


def test_express_frozen_bindings():
    G = space("G")
    c1 = G.ring.gen("c1")
    comb = G.express_in_schubert_basis(c1**2)
    assert comb.entries == ((1, "g_p"), (1, "g_e"))
    assert str(comb) == "g_p + g_e"

    PS = space("PS")
    assert str(PS.express_in_schubert_basis(eva("PS", "p*g"))) == "p^2 + g_e"
    assert str(PS.express_in_schubert_basis(eva("PS", "p*g_s"))) == "G + p^2*g_e"
    assert str(G.express_in_schubert_basis(G.ring.zero())) == "0"
    assert str(G.express_in_schubert_basis(3 * G.ring.one())) == "3"


def test_render_basis_round_trip():
    for name in SPACE_NAMES:
        sp = space(name)
        for d in range(sp.dim + 1):
            for lbl, el in sp.render_basis[d]:
                comb = sp.express_in_schubert_basis(el)
                assert comb.entries == ((1, lbl),), f"{name} {lbl}"


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_express_reconstructs_random_elements(name):
    sp = space(name)
    rng = random.Random(f"express-{name}")
    for _ in range(50):
        d = rng.randrange(sp.dim + 1)
        e = random_homogeneous(rng, sp, d)
        comb = sp.express_in_schubert_basis(e)
        rebuilt = sp.ring.zero()
        for c, lbl in comb.entries:
            rebuilt = rebuilt + c * dsl.evaluate(dsl.parse(lbl), sp)
        assert rebuilt == e


def test_express_rejects_mixed_and_foreign():
    G = space("G")
    c1 = G.ring.gen("c1")
    with pytest.raises(ValueError, match="homogeneous"):
        G.express_in_schubert_basis(c1 + 1)
    with pytest.raises(ValueError, match="live"):
        space("P3").express_in_schubert_basis(c1)


def test_render_in_classes_joins_components():
    G = space("G")
    e = eva("G", "g - g_s")
    assert render_in_classes(G, e) == "g - g_s"
    assert render_in_classes(G, eva("G", "1 + g^2")) == "1 + g_p + g_e"
    assert render_in_classes(G, G.ring.zero()) == "0"


def test_render_guards_only_a_leading_negative_power():
    PS = space("PS")
    # a later term follows a binary minus, which the exponent cannot capture
    assert render_in_classes(PS, eva("PS", "g - p^2")) == "g - p^2"
    assert render_in_classes(PS, eva("PS", "-(p^2) - p^3")) == "-(p^2) - p^3"
    # a leading unary minus would read back as (-p)^2 without the parentheses
    assert render_in_classes(PS, eva("PS", "-(p^2)")) == "-(p^2)"
    assert str(eva("P3", "-(t^2)")) == "-(t^2)"
    for text in ("g - p^2", "-(p^2) - p^3", "1 - p*g + p^3"):
        e = eva("PS", text)
        assert eva("PS", render_in_classes(PS, e)) == e


@pytest.mark.parametrize(
    "degree_two, renders",
    [
        (["g_p", "g_p"], None),
        (["g_p", "2*g_e"], None),
        (["g_p + g_e", "g_p - g_e"], None),
        (["g^2", "g_e"], {"g_p": "g^2 - g_e", "g^2 + 3*g_p": "4*g^2 - 3*g_e"}),
    ],
    ids=["dependent", "determinant-2", "determinant-minus-2", "unimodular"],
)
def test_render_basis_must_be_unimodular(degree_two, renders):
    G = space("G")
    labels = [["1"], ["g"], degree_two, ["g_s"], ["G"]]
    if renders is None:
        with pytest.raises(ValueError, match="not a unimodular basis"):
            SchubertSpace("G", G.ring, dict(G.symbols), labels)
        return
    sp = SchubertSpace("G", G.ring, dict(G.symbols), labels)
    for text, rendered in renders.items():
        assert render_in_classes(sp, eva("G", text)) == rendered


@pytest.mark.parametrize(
    "labels, message",
    [
        ([["1"], ["g"], ["g_p", "g_e"], ["g_s"]], "need a render basis for each degree 0..4"),
        ([["1"], ["g"], ["g_p"], ["g_s"], ["G"]], "degree-2 render basis has 1 entries, rank is 2"),
        ([["1"], ["g"], ["g", "g_e"], ["g_s"], ["G"]], "render class 'g' is not of degree 2"),
    ],
    ids=["missing-degree", "too-few-entries", "wrong-degree"],
)
def test_render_basis_shape_refusals(labels, message):
    G = space("G")
    with pytest.raises(ValueError, match=message):
        SchubertSpace("G", G.ring, dict(G.symbols), labels)


# ---------------------------------------------------------------------------
# formula suite


def test_formula_suite_shape_pinned():
    labels = [f.label for f in FORMULAS]
    assert labels == [str(k) for k in range(1, 15)] + ["I", "II", "III"]
    by_space = {f.label: f.space for f in FORMULAS}
    for k in range(1, 5):
        assert by_space[str(k)] == "P3"
    for k in range(5, 9):
        assert by_space[str(k)] == "P3dual"
    for k in range(9, 15):
        assert by_space[str(k)] == "G"
    for lbl in ("I", "II", "III"):
        assert by_space[lbl] == "PS"
    assert len(FORMULAS) == 17
    assert sum(len(f.equations) for f in FORMULAS) == 27
    assert len(FORMULAS[13 - 1].equations) == 2  # two phrasings of the cube
    assert len(FORMULAS[14 - 1].equations) == 6  # the full fourth-power chain


def test_formula_suite_all_hold():
    checks = verify_formula_suite()
    assert len(checks) == 27
    assert all(c.holds for c in checks)


def test_formula_suite_filter_by_space():
    checks = verify_formula_suite("PS")
    assert {c.space for c in checks} == {"PS"}
    assert len(checks) == 6
    assert all(c.holds for c in checks)
    with pytest.raises(ValueError):
        verify_formula_suite("X")


# ---------------------------------------------------------------------------
# pushforward to the line space


def test_pushforward_frozen_values():
    PS, G = space("PS"), space("G")
    one = PS.ring.one()
    assert pushforward_PS_to_G(one).is_zero()
    assert pushforward_PS_to_G(PS.symbols["p"]) == G.ring.one()
    assert pushforward_PS_to_G(PS.symbols["p_g"]) == G.symbols["g"]
    assert pushforward_PS_to_G(PS.symbols["p"] * PS.symbols["G"]) == G.symbols["G"]
    t = PS.ring.gen("t")
    c1 = G.ring.gen("c1")
    assert pushforward_PS_to_G(t**2) == -c1


def test_pushforward_matches_integrals():
    PS, G = space("PS"), space("G")
    rng = random.Random("pushforward")
    for _ in range(100):
        x = random_homogeneous(rng, PS, 5)
        assert PS.evaluate_top(x) == G.evaluate_top(pushforward_PS_to_G(x))


def test_pushforward_projection_formula():
    PS, G = space("PS"), space("G")
    lift = {"c1": PS.ring.gen("c1"), "c2": PS.ring.gen("c2")}
    rng = random.Random("projection")
    for _ in range(50):
        dx = rng.randrange(4)
        x = random_homogeneous(rng, PS, dx)
        y = random_homogeneous(rng, G, rng.randrange(5 - dx - 1 + 1))
        lifted = substitute(y, PS.ring, lift)
        assert pushforward_PS_to_G(x * lifted) == pushforward_PS_to_G(x) * y


def test_pushforward_rejects_foreign_elements():
    with pytest.raises(ValueError):
        pushforward_PS_to_G(space("G").ring.one())


# ---------------------------------------------------------------------------
# expression evaluation results


def test_evaluate_expression_results():
    r = evaluate_expression("G", "g^4")
    assert (r.monomial, r.schubert, r.top) == ("2*c2^2", "2*G", 2)

    r = evaluate_expression("PS", "p*g_s")
    assert r.schubert == "G + p^2*g_e"
    assert r.top is None  # degree 4 on a 5-fold

    r = evaluate_expression("G", "1 + g")
    assert r.schubert == "1 + g"
    assert r.top is None

    r = evaluate_expression("G", "g - g")
    assert (r.monomial, r.schubert, r.top) == ("0", "0", None)

    with pytest.raises(EvaluationError, match="available"):
        evaluate_expression("G", "p^2")
    with pytest.raises(ValueError, match="unknown space"):
        evaluate_expression("GL", "g")
