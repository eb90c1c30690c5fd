"""Tests for the right calculus of fractions: Ore checking with
witnesses, roof arithmetic, localization, and the universal property
verified by exhaustive functor enumeration (the independent oracle)."""
import pytest

from groundwork.fincat import (poset_category, terminal_category,
                               validate_category, walking_arrow)
from groundwork.frac import (OreFailure, Roof, RoofError, check_ore,
                             enumerate_roofs, hom_table, identity_roof,
                             is_isomorphism, localize, normalize_arrow_class,
                             roof_compose, roof_equal, roof_of_arrow,
                             universal_property_check)


def square_poset():
    leq = {("0", "0"), ("x", "x"), ("y", "y"), ("1", "1"), ("0", "x"),
           ("0", "y"), ("0", "1"), ("x", "1"), ("y", "1")}
    return poset_category(("0", "x", "y", "1"), lambda a, b: (a, b) in leq)


def span_category():
    return poset_category(
        ("l", "c", "r"),
        lambda x, y: x == y or (x == "c" and y in ("l", "r")))


def cospan_category():
    return poset_category(
        ("l", "c", "r"),
        lambda x, y: x == y or (y == "c" and x in ("l", "r")))


def coequalizer_like_category():
    """f, g: A -> B merged by s: B -> C, with no merging arrow into A."""
    return validate_category(
        ("A", "B", "C"), ("idA", "idB", "idC", "f", "g", "s", "h"),
        {"idA": "A", "idB": "B", "idC": "C", "f": "A", "g": "A",
         "s": "B", "h": "A"},
        {"idA": "A", "idB": "B", "idC": "C", "f": "B", "g": "B",
         "s": "C", "h": "C"},
        {"A": "idA", "B": "idB", "C": "idC"},
        {("idA", "idA"): "idA", ("idB", "idB"): "idB",
         ("idC", "idC"): "idC",
         ("f", "idA"): "f", ("idB", "f"): "f",
         ("g", "idA"): "g", ("idB", "g"): "g",
         ("s", "idB"): "s", ("idC", "s"): "s",
         ("h", "idA"): "h", ("idC", "h"): "h",
         ("s", "f"): "h", ("s", "g"): "h"})


def walking_isomorphism():
    return validate_category(
        ("0", "1"), ("id0", "id1", "u", "v"),
        {"id0": "0", "id1": "1", "u": "0", "v": "1"},
        {"id0": "0", "id1": "1", "u": "1", "v": "0"},
        {"0": "id0", "1": "id1"},
        {("id0", "id0"): "id0", ("id1", "id1"): "id1",
         ("u", "id0"): "u", ("id1", "u"): "u",
         ("v", "id1"): "v", ("id0", "v"): "v",
         ("v", "u"): "id0", ("u", "v"): "id1"})


# -- normalization and Ore checking ------------------------------------------


def test_normalization_adds_identities_and_composites():
    C = walking_arrow()
    sigma = normalize_arrow_class(C, {"a"})
    assert sigma.members == frozenset({"id0", "id1", "a"})
    sq = square_poset()
    sigma = normalize_arrow_class(sq, {"0<=x", "x<=1"})
    assert "0<=1" in sigma.members


def test_normalization_rejects_unknown_arrow():
    with pytest.raises(OreFailure):
        normalize_arrow_class(walking_arrow(), {"nope"})


def test_ore_walking_arrow_passes():
    v = check_ore(walking_arrow(), {"a"})
    assert v.ok and not v.failures


def test_ore_span_passes_cospan_fails():
    # with right fractions, the span (arrows out of the middle) has only
    # trivially completable cospans; the opposite orientation exhibits
    # the genuine failure with a cospan witness
    assert check_ore(span_category(), {"c<=l"}).ok
    v = check_ore(cospan_category(), {"l<=c"})
    assert not v.ok
    assert ("OreSquare", "r<=c", "l<=c") in v.failures


def test_ore_cancellation_witness():
    v = check_ore(coequalizer_like_category(), {"s"})
    assert not v.ok
    assert ("Cancellation", "f", "g", "s") in v.failures


# -- roofs -------------------------------------------------------------------


def test_roof_requires_shared_apex():
    C = square_poset()
    with pytest.raises(RoofError):
        Roof(C, "0<=x", "y<=1")


def test_roof_equal_reflexive_and_distinguishes():
    C = coequalizer_like_category()
    sigma = normalize_arrow_class(C, set())
    rf = roof_of_arrow(C, "f")
    rg = roof_of_arrow(C, "g")
    assert roof_equal(rf, rf, sigma)
    assert not roof_equal(rf, rg, sigma)


def test_roof_equal_precomposition_with_sigma_arrow():
    C = square_poset()
    sigma = normalize_arrow_class(C, {"0<=x", "x<=1"})
    r1 = Roof(C, "x<=1", "x<=1")
    r2 = Roof(C, "0<=1", "0<=1")     # precomposed with 0<=x ∈ Σ
    assert roof_equal(r1, r2, sigma)
    assert roof_equal(r2, r1, sigma)


def test_roof_equal_is_equivalence_on_square_poset():
    C = square_poset()
    sigma = normalize_arrow_class(C, {"0<=x"})
    for a in C.objects:
        for b in C.objects:
            roofs = enumerate_roofs(C, sigma, a, b)
            for r in roofs:
                assert roof_equal(r, r, sigma)
            for r1 in roofs:
                for r2 in roofs:
                    assert roof_equal(r1, r2, sigma) == \
                        roof_equal(r2, r1, sigma)
            for r1 in roofs:
                for r2 in roofs:
                    for r3 in roofs:
                        if roof_equal(r1, r2, sigma) and \
                                roof_equal(r2, r3, sigma):
                            assert roof_equal(r1, r3, sigma)


def test_roof_compose_identity_and_direct_square():
    C = square_poset()
    sigma = normalize_arrow_class(C, {"0<=x"})
    r = Roof(C, "0<=x", "0<=y")                      # x => y
    left = roof_compose(identity_roof(C, "x"), r, sigma)
    right = roof_compose(r, identity_roof(C, "y"), sigma)
    assert roof_equal(left, r, sigma) and roof_equal(right, r, sigma)
    # <s, f> then <id, g>  ==  <s, g∘f>
    comp = roof_compose(r, roof_of_arrow(C, "y<=1"), sigma)
    assert roof_equal(comp, Roof(C, "0<=x", "0<=1"), sigma)


def test_roof_compose_associative_on_localized_reps():
    C = square_poset()
    L = localize(C, {"0<=x"})
    sigma = L.sigma
    reps = list(L.reps.values())
    for r1 in reps:
        for r2 in reps:
            if r1.target != r2.source:
                continue
            for r3 in reps:
                if r2.target != r3.source:
                    continue
                a = roof_compose(roof_compose(r1, r2, sigma), r3, sigma)
                b = roof_compose(r1, roof_compose(r2, r3, sigma), sigma)
                assert roof_equal(a, b, sigma)


# -- localization ------------------------------------------------------------


def test_localize_walking_arrow_all_singletons():
    L = localize(walking_arrow(), {"a"})
    for a in L.category.objects:
        for b in L.category.objects:
            assert len(L.category.hom(a, b)) == 1
    assert is_isomorphism(L.category, L.q.on_arrow("a"))
    assert hom_table(L) == [
        "0 => 0 : {<id0|id0>}", "0 => 1 : {<id0|a>}",
        "1 => 0 : {<a|id0>}", "1 => 1 : {<a|a>}"]


def test_localize_identities_only_is_isomorphic_to_base():
    C = square_poset()
    L = localize(C, set())
    assert len(L.category.arrows) == len(C.arrows)
    for a in C.objects:
        for b in C.objects:
            assert len(L.category.hom(a, b)) == len(C.hom(a, b))
    # Q is bijective on arrows
    assert len({L.q.on_arrow(f) for f in C.arrows}) == len(C.arrows)


def test_localize_square_poset_hom_sizes():
    L = localize(square_poset(), {"0<=x"})
    sizes = {(a, b): len(L.category.hom(a, b))
             for a in L.category.objects for b in L.category.objects}
    assert sizes == {
        ("0", "0"): 1, ("0", "x"): 1, ("0", "y"): 1, ("0", "1"): 1,
        ("x", "0"): 1, ("x", "x"): 1, ("x", "y"): 1, ("x", "1"): 1,
        ("y", "0"): 0, ("y", "x"): 0, ("y", "y"): 1, ("y", "1"): 1,
        ("1", "0"): 0, ("1", "x"): 0, ("1", "y"): 0, ("1", "1"): 1}


def test_localize_rejects_ore_failure():
    with pytest.raises(OreFailure):
        localize(cospan_category(), {"l<=c"})


def test_localize_deterministic():
    a = localize(square_poset(), {"0<=x"})
    b = localize(square_poset(), {"0<=x"})
    assert a.category == b.category
    assert a.q == b.q


# -- universal property ------------------------------------------------------


def test_universal_property_small_targets():
    C = walking_arrow()
    for T in [terminal_category(), walking_isomorphism(), walking_arrow()]:
        v = universal_property_check(C, {"a"}, T)
        assert v.ok, v.detail
    v = universal_property_check(C, {"a"}, terminal_category())
    assert (v.n_inverting, v.n_localized) == (1, 1)
    v = universal_property_check(C, {"a"}, walking_isomorphism())
    assert (v.n_inverting, v.n_localized) == (4, 4)
    v = universal_property_check(C, {"a"}, walking_arrow())
    assert (v.n_inverting, v.n_localized) == (2, 2)


def test_universal_property_square_poset():
    C = square_poset()
    for T in [terminal_category(), walking_arrow(), walking_isomorphism(),
              span_category()]:
        v = universal_property_check(C, {"0<=x"}, T)
        assert v.ok, v.detail
