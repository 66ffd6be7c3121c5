from __future__ import annotations

import pytest

from arclink.checks import has_finite_pi1, seifert_data, seifert_labels
from arclink.graph_core import GraphError, parse_plumbing
from arclink.quotient import builtin_generators, conjugacy_classes, group_closure
from conftest import chain_graph, star_graph


def test_seifert_data_e8(e8):
    sd = seifert_data(e8)
    assert sd.b == 2 and sd.genus == 0
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


def test_data_graph_roundtrip(e8):
    sd = seifert_data(e8)
    rebuilt = star_graph(-sd.b, [list(leg.terms) for leg in sd.legs])
    sd2 = seifert_data(rebuilt)
    assert (sd2.b, sd2.genus, sorted(sd2.pairs())) == (sd.b, sd.genus, sorted(sd.pairs()))


# -- finiteness ----------------------------------------------------------------


def test_finiteness_examples(e8, sigma237):
    assert has_finite_pi1(seifert_data(e8))  # (2,3,5)
    assert not has_finite_pi1(seifert_data(sigma237))  # (2,3,7)
    genus = parse_plumbing("vertex a euler=-3 genus=1")
    assert not has_finite_pi1(seifert_data(genus))


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
