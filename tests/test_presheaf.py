import itertools

import pytest

from groundwork.fincat import (FinFunctor, one_object_group, poset_category,
                               terminal_category, walking_arrow)
from groundwork.presheaf import (InvalidPresheaf, PresheafMap,
                                 adjunction_check, category_of_elements,
                                 coequalizer, colimit_of_representables_check,
                                 coproduct, counit_shriek, counit_star,
                                 empty_presheaf, enumerate_presheaf_maps,
                                 generator_property_check, identity_map,
                                 product, representable,
                                 representable_on_arrow, terminal_presheaf,
                                 u_lower_star, u_shriek, u_star, unit_shriek,
                                 unit_star, validate_presheaf,
                                 yoneda_bijection, yoneda_to_element)


def z3_category():
    table = {("e", "e"): "e", ("e", "g"): "g", ("e", "g2"): "g2",
             ("g", "e"): "g", ("g", "g"): "g2", ("g", "g2"): "e",
             ("g2", "e"): "g2", ("g2", "g"): "e", ("g2", "g2"): "g"}
    return one_object_group(["e", "g", "g2"], lambda a, b: table[(a, b)],
                            "e")


def square_poset():
    elems = ["00", "01", "10", "11"]
    return poset_category(
        elems, lambda x, y: x[0] <= y[0] and x[1] <= y[1])


def collapse_presheaf():
    """F(1) = {x, y}, F(0) = {u} on the walking arrow, both collapse to u."""
    C = walking_arrow()
    fibers = {"0": ("u",), "1": ("x", "y")}
    action = {("u", "id0"): "u", ("x", "id1"): "x", ("y", "id1"): "y",
              ("x", "a"): "u", ("y", "a"): "u"}
    return validate_presheaf(C, fibers, action)


def all_presheaves(cat, max_fiber=2):
    """All presheaves over cat with fiber sizes <= max_fiber (small cats)."""
    out = []
    names = {o: ["%s_%d" % (o, i) for i in range(max_fiber)]
             for o in cat.objects}
    for sizes in itertools.product(range(max_fiber + 1),
                                   repeat=len(cat.objects)):
        fibers = {o: tuple(names[o][:k])
                  for o, k in zip(cat.objects, sizes)}
        pairs = [(s, f) for f in cat.arrows
                 for s in fibers[cat.cod[f]]]
        choices = [fibers[cat.dom[f]] for (s, f) in pairs]
        if any(not c for c in choices):
            continue
        for picks in itertools.product(*choices):
            action = dict(zip(pairs, picks))
            try:
                out.append(validate_presheaf(cat, fibers, action))
            except InvalidPresheaf:
                pass
    return out


# -- validation ---------------------------------------------------------------


def test_validate_collapse_ok():
    F = collapse_presheaf()
    assert F.act("x", "a") == "u"


def test_action_out_of_fiber():
    C = walking_arrow()
    fibers = {"0": ("u",), "1": ("x",)}
    action = {("u", "id0"): "u", ("x", "id1"): "x", ("x", "a"): "x"}
    with pytest.raises(InvalidPresheaf) as exc:
        validate_presheaf(C, fibers, action)
    assert any(e[0] == "ActionOutOfFiber" for e in exc.value.errors)


def test_identity_clause_violation():
    C = walking_arrow()
    fibers = {"0": ("u",), "1": ("x", "y")}
    action = {("u", "id0"): "u", ("x", "id1"): "y", ("y", "id1"): "x",
              ("x", "a"): "u", ("y", "a"): "u"}
    with pytest.raises(InvalidPresheaf) as exc:
        validate_presheaf(C, fibers, action)
    assert any(e[0] == "NonFunctorial" for e in exc.value.errors)


def test_missing_action_entry():
    C = walking_arrow()
    fibers = {"0": ("u",), "1": ("x",)}
    action = {("u", "id0"): "u", ("x", "id1"): "x"}
    with pytest.raises(InvalidPresheaf) as exc:
        validate_presheaf(C, fibers, action)
    assert ("MissingActionEntry", "x", "a") in exc.value.errors


def test_composition_clause_violation():
    C = z3_category()
    # a free orbit of size 3 with one transposition inserted
    fibers = {"*": ("p", "q", "r")}
    base = {"p": {"e": "p", "g": "q", "g2": "r"},
            "q": {"e": "q", "g": "r", "g2": "p"},
            "r": {"e": "r", "g": "p", "g2": "q"}}
    action = {(s, f): base[s][f] for s in base for f in base[s]}
    validate_presheaf(C, fibers, action)
    action[("p", "g")] = "r"
    action[("r", "g")] = "q"
    with pytest.raises(InvalidPresheaf):
        validate_presheaf(C, fibers, action)


# -- colimits -----------------------------------------------------------------


def test_coequalizer_equal_pair():
    F = collapse_presheaf()
    ident = identity_map(F)
    Q, proj = coequalizer(ident, ident)
    assert {o: len(Q.fibers[o]) for o in Q.cat.objects} == \
        {o: len(F.fibers[o]) for o in F.cat.objects}


def test_coequalizer_collapses_constants():
    C = walking_arrow()
    # G: two-element constant presheaf; F: terminal
    G = validate_presheaf(
        C, {"0": ("c0", "d0"), "1": ("c1", "d1")},
        {("c0", "id0"): "c0", ("d0", "id0"): "d0",
         ("c1", "id1"): "c1", ("d1", "id1"): "d1",
         ("c1", "a"): "c0", ("d1", "a"): "d0"})
    T = terminal_presheaf(C)
    eta = PresheafMap(T, G, {"*0": "c0", "*1": "c1"}).check()
    iota = PresheafMap(T, G, {"*0": "d0", "*1": "d1"}).check()
    Q, proj = coequalizer(eta, iota)
    assert all(len(Q.fibers[o]) == 1 for o in C.objects)
    assert proj.compose(eta) == proj.compose(iota)


def test_coequalizer_fold_of_coproduct():
    C = walking_arrow()
    R0 = representable(C, "0")
    P, (i1, i2) = coproduct([R0, R0])[0], coproduct([R0, R0])[1]
    Q, proj = coequalizer(i1, i2)
    assert {o: len(Q.fibers[o]) for o in C.objects} == \
        {o: len(R0.fibers[o]) for o in C.objects}


def test_coequalizer_universal_property():
    C = walking_arrow()
    G = collapse_presheaf()
    T = terminal_presheaf(C)
    maps = enumerate_presheaf_maps(T, G)
    eta, iota = maps[0], maps[1]
    Q, proj = coequalizer(eta, iota)
    for H in (terminal_presheaf(C), G):
        for m in enumerate_presheaf_maps(G, H):
            if m.compose(eta) == m.compose(iota):
                factors = [w for w in enumerate_presheaf_maps(Q, H)
                           if w.compose(proj) == m]
                assert len(factors) == 1


def test_coproduct_sizes_and_empty():
    C = walking_arrow()
    R0, R1 = representable(C, "0"), representable(C, "1")
    P, injections = coproduct([R0, R1])
    assert len(P.fibers["0"]) == len(R0.fibers["0"]) + len(R1.fibers["0"])
    assert [len(P.fibers[o]) for o in ("0", "1")] == [2, 1]
    for inj in injections:
        inj.check()
    E, _ = coproduct([], cat=C)
    assert E == empty_presheaf(C)


def test_product_pointwise():
    C = walking_arrow()
    F = collapse_presheaf()
    G = representable(C, "1")
    P, p1, p2 = product(F, G)
    for o in C.objects:
        assert len(P.fibers[o]) == len(F.fibers[o]) * len(G.fibers[o])
    p1.check()
    p2.check()


# -- representables and Yoneda ------------------------------------------------


def test_representable_walking_arrow():
    C = walking_arrow()
    R1 = representable(C, "1")
    assert R1.fibers == {"0": ("a",), "1": ("id1",)}
    R0 = representable(C, "0")
    assert R0.fibers == {"0": ("id0",), "1": ()}


def test_representable_terminal():
    T = terminal_category()
    R = representable(T, "*")
    assert R.fibers == {"*": ("id*",)}


def test_representable_on_arrow():
    C = walking_arrow()
    Ra = representable_on_arrow(C, "a")
    assert Ra.eta == {"id0": "a"}
    Rid = representable_on_arrow(C, "id1")
    assert Rid == identity_map(representable(C, "1"))


def test_representable_functoriality_chain():
    C = poset_category(["a", "b", "c"], lambda x, y: x <= y)
    f, g = "a<=b", "b<=c"
    Rg = representable_on_arrow(C, g)
    Rf = representable_on_arrow(C, f)
    Rgf = representable_on_arrow(C, C.compose(g, f))
    assert Rg.compose(Rf) == Rgf


def test_yoneda_counts():
    C = walking_arrow()
    F = collapse_presheaf()
    assert len(enumerate_presheaf_maps(representable(C, "1"), F)) == 2
    yoneda_bijection(F, "1")
    yoneda_bijection(F, "0")
    # F = R_B: identity transform corresponds to the identity arrow
    R1 = representable(C, "1")
    assert yoneda_to_element(identity_map(R1), "1") == "id1"
    # empty fiber: no transformations
    R0 = representable(C, "0")
    assert enumerate_presheaf_maps(R1, R0) == []


def test_yoneda_all_small_presheaves():
    for cat in (walking_arrow(), z3_category()):
        for F in all_presheaves(cat, max_fiber=2):
            for B in cat.objects:
                n = len(enumerate_presheaf_maps(representable(cat, B), F))
                assert n == len(F.fibers[B])
                yoneda_bijection(F, B)


def test_generator_property():
    C = walking_arrow()
    F = collapse_presheaf()
    G = representable(C, "1")
    assert generator_property_check(F, F)
    assert generator_property_check(G, F)


def test_category_of_elements_and_colimit():
    C = walking_arrow()
    F = collapse_presheaf()
    El, obj_label, _ = category_of_elements(F)
    assert len(El.objects) == 3
    for G in (F, representable(C, "1"), terminal_presheaf(C)):
        assert colimit_of_representables_check(F, G)


# -- Kan extensions -----------------------------------------------------------


def pick_functor(obj):
    """The functor from the terminal category into the walking arrow."""
    T, C = terminal_category(), walking_arrow()
    return FinFunctor(T, C, {"id*": C.identity[obj]}).check()


def singleton_terminal_presheaf(n=2):
    """A presheaf on the terminal category with an n-element fiber."""
    T = terminal_category()
    elems = tuple("d%d" % i for i in range(n))
    return validate_presheaf(T, {"*": elems},
                             {(e, "id*"): e for e in elems})


def test_u_star_restriction():
    C = walking_arrow()
    u = pick_functor("1")
    F = collapse_presheaf()
    R = u_star(u, F)
    assert len(R.fibers["*"]) == 2


def test_u_star_identity_functor():
    from groundwork.fincat import identity_functor
    C = walking_arrow()
    F = collapse_presheaf()
    R = u_star(identity_functor(C), F)
    assert {o: len(R.fibers[o]) for o in C.objects} == \
        {o: len(F.fibers[o]) for o in C.objects}


def test_u_lower_star_fiber_shapes():
    G = singleton_terminal_presheaf(2)
    # one object choice yields fibers (|D|, |D|), the other (|D|, 1)
    shapes = {}
    for obj in ("0", "1"):
        P, _ = u_lower_star(pick_functor(obj), G)
        shapes[obj] = (len(P.fibers["0"]), len(P.fibers["1"]))
    assert sorted(shapes.values()) == [(1, 2), (2, 2)]


def test_u_shriek_fiber_shapes():
    G = singleton_terminal_presheaf(2)
    shapes = {}
    for obj in ("0", "1"):
        P, _ = u_shriek(pick_functor(obj), G)
        shapes[obj] = (len(P.fibers["0"]), len(P.fibers["1"]))
    assert sorted(shapes.values()) == [(2, 0), (2, 2)]


def test_adjunctions():
    C = walking_arrow()
    F = collapse_presheaf()
    for obj in ("0", "1"):
        u = pick_functor(obj)
        G = singleton_terminal_presheaf(2)
        assert adjunction_check(u, F, G)


def test_triangle_identities():
    # (u^* eps) . (eta u^*) = id on u^*F ; (eps u_!) . (u_! eta) = id
    C = walking_arrow()
    F = collapse_presheaf()
    G = singleton_terminal_presheaf(2)
    for obj in ("0", "1"):
        u = pick_functor(obj)
        # triangle for u_! -| u^* at G: counit(u_!G) ∘ u_!(unit) = id
        P, class_of = u_shriek(u, G)
        eta = unit_shriek(u, G)
        eps = counit_shriek(u, P)
        # build u_!(eta): apply u_! functorially to eta by hand
        P2, class_of2 = u_shriek(u, eta.target)
        lifted = {}
        Cp = u.target
        for cp in Cp.objects:
            for c in u.source.objects:
                for a in Cp.hom(cp, u.on_object(c)):
                    for s in G.fibers[c]:
                        lifted[class_of(cp, c, a, s)] = \
                            class_of2(cp, c, a, eta.eta[s])
        u_eta = PresheafMap(P, P2, lifted).check()
        comp = eps.compose(u_eta)
        assert comp == identity_map(P)
        # triangle for u^* -| u_* at F: counit(u^*F...) — checked via
        # counit_star ∘ u^*(unit_star) = id on u^*F
        mu = unit_star(u, F)
        R = u_star(u, F)
        # u^*(mu): restrict mu along u
        P3, _ = u_lower_star(u, R)
        restricted = {}
        for c in u.source.objects:
            for e in F.fibers[u.on_object(c)]:
                restricted["%s|%s" % (c, e)] = "%s|%s" % (c, mu.eta[e])
        u_mu = PresheafMap(R, u_star(u, P3), restricted).check()
        delta = counit_star(u, R)
        assert delta.compose(u_mu) == identity_map(R)
