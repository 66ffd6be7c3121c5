from __future__ import annotations

import pytest

from arclink.checks import seifert_labels
from arclink.graph_core import GraphError, parse_plumbing
from arclink.quotient import builtin_generators, conjugacy_classes, group_closure
from arclink.seifert import Presentation, has_finite_pi1, pi1_presentation, seifert_data
from conftest import chain_graph, star_graph


def test_seifert_data_e8(e8):
    sd = seifert_data(e8)
    assert sd.b == 2 and sd.genus == 0 and sd.arrows == 0
    assert sorted(sd.pairs()) == [(2, 1), (3, 2), (5, 4)]


def test_seifert_data_single_vertex():
    g = parse_plumbing("vertex a euler=-3 genus=2")
    sd = seifert_data(g)
    assert (sd.b, sd.genus, sd.pairs()) == (3, 2, ())


def test_seifert_data_sigma237(sigma237):
    sd = seifert_data(sigma237)
    assert sorted(sd.pairs()) == [(2, 1), (3, 1), (7, 1)]
    assert sd.b == 1


def test_seifert_data_rejects_non_star():
    with pytest.raises(GraphError):
        seifert_data(chain_graph([2, 2]))


def test_seifert_data_counts_arrowed_legs():
    g = parse_plumbing(
        "\n".join(
            [
                "vertex c euler=-2 genus=0",
                "vertex x euler=-2 genus=0",
                "vertex y euler=-3 genus=0",
                "vertex z euler=-2 genus=0",
                "edge c x",
                "edge c y",
                "edge c z",
                "arrow z",
                "arrow c",
            ]
        )
    )
    sd = seifert_data(g)
    # z's chain carries an arrow, so it counts as a boundary leg and its
    # Euler numbers drop out; the arrow on c is a second boundary leg.
    assert sd.arrows == 2
    assert sorted(sd.pairs()) == [(2, 1), (3, 1)]


def test_data_graph_roundtrip(e8):
    sd = seifert_data(e8)
    rebuilt = star_graph(-sd.b, [list(leg.terms) for leg in sd.legs])
    sd2 = seifert_data(rebuilt)
    assert (sd2.b, sd2.genus, sorted(sd2.pairs())) == (sd.b, sd.genus, sorted(sd.pairs()))


# -- presentations -----------------------------------------------------------


def test_presentation_lens_degenerate():
    g = parse_plumbing("vertex a euler=-2 genus=0")
    pres = pi1_presentation(seifert_data(g))
    assert pres.generators == ("h",)
    assert pres.relations == ((("h", 2),),)
    assert "h^2 = 1" in pres.display()


def test_presentation_e8(e8):
    pres = pi1_presentation(seifert_data(e8))
    assert pres.generators == ("h", "g1", "g2", "g3")
    text = pres.display()
    assert "g1^2 = h" in text
    assert "g2^3 = h" in text
    assert "g3^5 = h" in text
    # The omega exponents (1, 2, 4) appear in the product relation.
    assert "h^2 = g1 g2^2 g3^4" in text


def test_presentation_sigma237(sigma237):
    pres = pi1_presentation(seifert_data(sigma237))
    text = pres.display()
    assert "h^1 = g1 g2 g3" in text or "h = g1 g2 g3" in text


def test_presentation_with_genus_and_arrows():
    g = parse_plumbing(
        "vertex c euler=-3 genus=2\nvertex x euler=-2 genus=0\nedge c x\narrow c"
    )
    sd = seifert_data(g)
    pres = pi1_presentation(sd)
    assert set(pres.generators) == {"h", "g1", "f1", "a1", "b1", "a2", "b2"}
    # every relation only uses declared generators (validated on build)
    assert isinstance(pres, Presentation)


def test_presentation_rejects_undeclared_generator():
    with pytest.raises(ValueError):
        Presentation(("h",), ((("g1", 2),),))


# -- finiteness ----------------------------------------------------------------


def test_finiteness_examples(e8, sigma237):
    assert has_finite_pi1(seifert_data(e8))  # (2,3,5)
    assert not has_finite_pi1(seifert_data(sigma237))  # (2,3,7)
    genus = parse_plumbing("vertex a euler=-3 genus=1")
    assert not has_finite_pi1(seifert_data(genus))


def test_finiteness_needs_closed_link():
    g = parse_plumbing("vertex a euler=-3 genus=0\narrow a")
    with pytest.raises(ValueError):
        has_finite_pi1(seifert_data(g))


def test_two_legs_always_finite():
    g = star_graph(-2, [[3], [4], [5]])
    sd = seifert_data(g)
    assert sd.n == 3 and not has_finite_pi1(sd)
    # removing legs: rebuild with two legs and a genus-0 center
    g2 = star_graph(-2, [[3], [4]])
    # a 2-leg genus-0 star is a chain, so go through a node: genus center
    from arclink.graph_core import classify_shape, Shape

    assert classify_shape(g2).kind is Shape.CHAIN


# -- component enumeration --------------------------------------------------------


def test_sigma237_components_count(sigma237):
    sd = seifert_data(sigma237)
    labels = seifert_labels(sd, 6)
    assert len(labels) == 19
    central = [lab for lab in labels if lab[0] == "curve_interior"]
    assert len(central) == 6
    orb = [lab for lab in labels if lab[0] == "orbifold_point"]
    assert all(m % alpha != 0 for *_, m, alpha in orb)


def test_minimal_bound_count(sigma237):
    sd = seifert_data(sigma237)
    labels = seifert_labels(sd, 1)
    assert len(labels) == 1 + sum(1 for leg in sd.legs if leg.alpha > 1)


def test_components_monotone_and_duplicate_free(sigma237):
    sd = seifert_data(sigma237)
    prev = set()
    for n in range(1, 6):
        labels = seifert_labels(sd, n)
        assert len(labels) == len(set(labels))
        assert prev < set(labels)
        prev = set(labels)


def test_enumeration_rejects_finite(e8):
    with pytest.raises(ValueError):
        seifert_labels(seifert_data(e8), 3)


def test_finite_case_matches_group_classes(e8):
    # (2,3,5) routes to the binary icosahedral group: 9 classes.
    sd = seifert_data(e8)
    assert has_finite_pi1(sd)
    assert sorted(leg.alpha for leg in sd.legs) == [2, 3, 5]
    group = group_closure(builtin_generators("2I"))
    assert conjugacy_classes(group).count == 9
