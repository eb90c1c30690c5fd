import random

import pytest

from groundwork.fincat import (InvalidCategory, compose_functors,
                               discrete_category, enumerate_functors,
                               enumerate_nat_trans, functor_category,
                               horizontal_compose, identity_functor,
                               one_object_group, opposite, poset_category,
                               terminal_category, validate_category,
                               vertical_compose, walking_arrow, whisker_left,
                               whisker_right)


def z3_category():
    elems = ["e", "g", "g2"]
    table = {("e", "e"): "e", ("e", "g"): "g", ("e", "g2"): "g2",
             ("g", "e"): "g", ("g", "g"): "g2", ("g", "g2"): "e",
             ("g2", "e"): "g2", ("g2", "g"): "e", ("g2", "g2"): "g"}
    return one_object_group(elems, lambda a, b: table[(a, b)], "e")


def axioms_hold(objects, arrows, dom, cod, identity, compose):
    """Independent brute-force axiom oracle."""
    for f in arrows:
        if dom.get(f) not in objects or cod.get(f) not in objects:
            return False
    for g in arrows:
        for f in arrows:
            if dom[g] == cod[f]:
                h = compose.get((g, f))
                if h is None or h not in arrows:
                    return False
                if dom[h] != dom[f] or cod[h] != cod[g]:
                    return False
    for (g, f) in compose:
        if g not in arrows or f not in arrows or dom[g] != cod[f]:
            return False
    for o in objects:
        e = identity.get(o)
        if e not in arrows or dom[e] != o or cod[e] != o:
            return False
        if any(compose[(e, f)] != f for f in arrows if cod[f] == o):
            return False
        if any(compose[(f, e)] != f for f in arrows if dom[f] == o):
            return False
    for h in arrows:
        for g in arrows:
            for f in arrows:
                if dom[h] == cod[g] and dom[g] == cod[f]:
                    if compose[(compose[(h, g)], f)] != \
                            compose[(h, compose[(g, f)])]:
                        return False
    return True


def test_walking_arrow_valid():
    C = walking_arrow()
    assert C.hom("0", "1") == ("a",)
    assert C.compose("id1", "a") == "a"


def test_missing_composite():
    C = walking_arrow()
    compose = dict(C.compose_table)
    del compose[("a", "id0")]
    with pytest.raises(InvalidCategory) as exc:
        validate_category(C.objects, C.arrows, C.dom, C.cod, C.identity,
                          compose)
    assert ("MissingComposite", "a", "id0") in exc.value.errors


def test_non_associative_witness():
    C = z3_category()
    compose = dict(C.compose_table)
    compose[("g", "g")] = "e"  # breaks g·(g·g) = (g·g)·g
    with pytest.raises(InvalidCategory) as exc:
        validate_category(C.objects, C.arrows, C.dom, C.cod, C.identity,
                          compose)
    kinds = {e[0] for e in exc.value.errors}
    assert "NonAssociative" in kinds
    triple = next(e[1] for e in exc.value.errors if e[0] == "NonAssociative")
    assert len(triple) == 3


def test_bad_identity():
    C = walking_arrow()
    compose = dict(C.compose_table)
    compose[("a", "id0")] = "id1"  # wrong endpoints and identity law
    with pytest.raises(InvalidCategory):
        validate_category(C.objects, C.arrows, C.dom, C.cod, C.identity,
                          compose)


def test_validator_matches_oracle_under_mutations():
    rng = random.Random(5)
    for C in (walking_arrow(), z3_category()):
        keys = sorted(C.compose_table)
        for _ in range(60):
            compose = dict(C.compose_table)
            k = keys[rng.randrange(len(keys))]
            compose[k] = C.arrows[rng.randrange(len(C.arrows))]
            expect = axioms_hold(C.objects, C.arrows, C.dom, C.cod,
                                 C.identity, compose)
            try:
                validate_category(C.objects, C.arrows, C.dom, C.cod,
                                  C.identity, compose)
                got = True
            except InvalidCategory:
                got = False
            assert got == expect


def ref_missing_composites(arrows, dom, cod, compose):
    """MissingComposite entries by scanning every pair of arrows, as
    validate_category did before it paired each g only with the arrows
    into dom g."""
    return [("MissingComposite", g, f) for g in arrows for f in arrows
            if dom[g] == cod[f] and (g, f) not in compose]


def ref_non_associative(arrows, dom, cod, compose):
    """NonAssociative entries by scanning every triple of arrows; only
    meaningful once every composite is present with the right ends."""
    return [("NonAssociative", (h, g, f))
            for h in arrows for g in arrows for f in arrows
            if dom[h] == cod[g] and dom[g] == cod[f] and
            compose[(compose[(h, g)], f)] != compose[(h, compose[(g, f)])]]


def chain3():
    return poset_category(["a", "b", "c"], lambda x, y: x <= y)


def test_several_errors_listed_in_arrow_order():
    C = chain3()
    compose = dict(C.compose_table)
    for key in [("b<=c", "a<=b"), ("c<=c", "a<=c"), ("a<=b", "a<=a"),
                ("b<=c", "b<=b")]:
        del compose[key]
    with pytest.raises(InvalidCategory) as exc:
        validate_category(C.objects, C.arrows, C.dom, C.cod, C.identity,
                          compose)
    assert exc.value.errors == (
        ("MissingComposite", "a<=b", "a<=a"),
        ("MissingComposite", "b<=c", "a<=b"),
        ("MissingComposite", "b<=c", "b<=b"),
        ("MissingComposite", "c<=c", "a<=c"),
        ("BadIdentity", "a"), ("BadIdentity", "b"), ("BadIdentity", "c"))


def test_several_non_associative_triples_in_arrow_order():
    C = z3_category()
    compose = dict(C.compose_table)
    compose[("g", "g")] = "e"
    compose[("g2", "g2")] = "e"
    with pytest.raises(InvalidCategory) as exc:
        validate_category(C.objects, C.arrows, C.dom, C.cod, C.identity,
                          compose)
    assert len(exc.value.errors) > 2
    assert list(exc.value.errors) == ref_non_associative(
        C.arrows, C.dom, C.cod, compose)


def test_error_lists_match_the_pair_scan():
    rng = random.Random(11)
    for C in (walking_arrow(), z3_category(), chain3(),
              poset_category(range(1, 7), lambda x, y: y % x == 0)):
        keys = sorted(C.compose_table)
        for _ in range(40):
            compose = dict(C.compose_table)
            for k in rng.sample(keys, rng.randint(1, 3)):
                if rng.random() < 0.5:
                    del compose[k]
                else:
                    compose[k] = C.arrows[rng.randrange(len(C.arrows))]
            try:
                validate_category(C.objects, C.arrows, C.dom, C.cod,
                                  C.identity, compose)
                errors = []
            except InvalidCategory as exc:
                errors = list(exc.errors)
            assert [e for e in errors if e[0] == "MissingComposite"] == \
                ref_missing_composites(C.arrows, C.dom, C.cod, compose)
            if all(e[0] == "NonAssociative" for e in errors):
                assert errors == ref_non_associative(C.arrows, C.dom, C.cod,
                                                     compose)


def test_opposite_involution():
    for C in (walking_arrow(), z3_category(),
              poset_category(["a", "b", "c"], lambda x, y: x <= y)):
        assert opposite(opposite(C)) == C


def test_opposite_walking_arrow():
    D = opposite(walking_arrow())
    assert D.dom["a"] == "1" and D.cod["a"] == "0"


def test_opposite_monoid_reversed():
    C = z3_category()
    D = opposite(C)
    for g in C.arrows:
        for f in C.arrows:
            assert D.compose(g, f) == C.compose(f, g)


def test_functor_category_two_to_two():
    C = walking_arrow()
    cat, functors, trans = functor_category(C, C)
    assert len(cat.objects) == 3
    assert len(cat.arrows) == 6


def test_functor_category_from_terminal():
    C = walking_arrow()
    cat, functors, trans = functor_category(terminal_category(), C)
    assert len(cat.objects) == len(C.objects)
    assert len(cat.arrows) == len(C.arrows)


def test_functor_compose_identity():
    C, D = walking_arrow(), z3_category()
    for F in enumerate_functors(C, D):
        assert compose_functors(F, identity_functor(C)) == F
        assert compose_functors(identity_functor(D), F) == F


def test_object_map_derived():
    C = walking_arrow()
    F = identity_functor(C)
    assert F.object_map == {"0": "0", "1": "1"}


def test_vertical_composition_valid():
    C = walking_arrow()
    functors = enumerate_functors(C, C)
    for F in functors:
        for G in functors:
            for eta in enumerate_nat_trans(F, G):
                for H in functors:
                    for theta in enumerate_nat_trans(G, H):
                        comp = vertical_compose(theta, eta)
                        comp.check()


def test_whiskering_and_interchange():
    C = walking_arrow()
    functors = enumerate_functors(C, C)
    # interchange: (theta2 . theta1) * (eta2 . eta1) ==
    #              (theta2 * eta2) . (theta1 * eta1)
    cases = 0
    for F in functors:
        for G in functors:
            for eta1 in enumerate_nat_trans(F, G):
                for eta2 in enumerate_nat_trans(G, F):
                    for F2 in functors:
                        for G2 in functors:
                            for th1 in enumerate_nat_trans(F2, G2):
                                for th2 in enumerate_nat_trans(G2, F2):
                                    lhs = horizontal_compose(
                                        vertical_compose(th2, th1),
                                        vertical_compose(eta2, eta1))
                                    rhs = vertical_compose(
                                        horizontal_compose(th2, eta2),
                                        horizontal_compose(th1, eta1))
                                    assert lhs == rhs
                                    cases += 1
    assert cases > 0


def test_whisker_components():
    C = walking_arrow()
    functors = enumerate_functors(C, C)
    const0 = next(F for F in functors
                  if set(F.object_map.values()) == {"0"})
    const1 = next(F for F in functors
                  if set(F.object_map.values()) == {"1"})
    (eta,) = enumerate_nat_trans(const0, const1)
    assert eta.components == {"0": "a", "1": "a"}
    idF = identity_functor(C)
    left = whisker_left(idF, eta)
    assert left.components == eta.components
    right = whisker_right(eta, idF)
    assert right.components == eta.components


def test_empty_and_discrete():
    E = validate_category((), (), {}, {}, {}, {})
    assert E.objects == ()
    D = discrete_category(["x", "y"])
    assert len(D.arrows) == 2
