import pytest

from groundwork import InputError
from groundwork.fincat import (FinFunctor, discrete_category,
                               identity_functor, walking_arrow)
from groundwork.presheaf import product, representable, validate_presheaf
from groundwork.site import (HypothesisFailure, InvalidTopology,
                             ResourceExceeded, Sieve, comparison_check,
                             discrete_space,
                             indiscrete_space, is_isomorphism, is_sheaf,
                             is_sheaf_on_space, maximal_sieve, open_name,
                             open_poset_category, pseudo_circle,
                             pseudo_sphere_6, sheafify,
                             sheafify_universal_check, sieve_generate,
                             site_from_finite_space, trivial_topology,
                             validate_topology)


def constant_presheaf(C, values):
    """Constant presheaf on a poset-style category with identity action."""
    fibers = {o: tuple("%s@%s" % (v, o) for v in values) for o in C.objects}
    action = {("%s@%s" % (v, C.cod[f]), f): "%s@%s" % (v, C.dom[f])
              for f in C.arrows for v in values}
    return validate_presheaf(C, fibers, action)


def component_sheaf(X, values):
    """U -> values^{#components(U)}: the sheafified constant presheaf."""
    C = open_poset_category(X)
    set_of = {open_name(U): U for U in X.opens}
    comps = {A: X.connected_components(set_of[A]) for A in C.objects}
    fibers = {}
    elems = {}
    for A in C.objects:
        combos = [()]
        for comp in comps[A]:
            combos = [t + (v,) for t in combos for v in values]
        fibers[A] = tuple("s%s@%s" % ("".join(map(str, t)), A)
                          for t in combos)
        elems[A] = {e: t for e, t in zip(fibers[A], combos)}
    action = {}
    for f in C.arrows:
        B, A = C.dom[f], C.cod[f]
        for e, t in elems[A].items():
            # each component of B sits inside a unique component of A
            vals = []
            for compB in comps[B]:
                idx = next(i for i, compA in enumerate(comps[A])
                           if compB <= compA)
                vals.append(t[idx])
            action[(e, f)] = "s%s@%s" % ("".join(map(str, vals)), B)
    return validate_presheaf(C, fibers, action)


# -- sieves -------------------------------------------------------------------


def test_sieve_generate():
    C = walking_arrow()
    S = sieve_generate(C, "1", ["a"])
    assert S.arrows == frozenset({"a"})
    assert sieve_generate(C, "1", ["id1"]) == maximal_sieve(C, "1")
    assert sieve_generate(C, "1", []).arrows == frozenset()


def test_sieve_pullback():
    C = walking_arrow()
    S = sieve_generate(C, "1", ["a"])
    assert S.pullback("a") == maximal_sieve(C, "0")


# -- topologies ---------------------------------------------------------------


def test_trivial_topology_valid():
    for C in (walking_arrow(), discrete_category(["x", "y"])):
        J = trivial_topology(C)
        validate_topology(C, J.covers)


def test_open_cover_topology_pseudo_circle_valid():
    C, J = site_from_finite_space(pseudo_circle())
    assert len(C.objects) == 7
    validate_topology(C, J.covers)


def test_no_maximal_sieve():
    C = walking_arrow()
    covers = {"0": [maximal_sieve(C, "0")], "1": []}
    with pytest.raises(InvalidTopology) as exc:
        validate_topology(C, covers)
    assert ("NoMaximalSieve", "1") in exc.value.errors


def test_unstable_pullback_witness():
    C = walking_arrow()
    empty1 = Sieve(C, "1", frozenset())
    covers = {"0": [maximal_sieve(C, "0")],
              "1": [maximal_sieve(C, "1"), empty1]}
    with pytest.raises(InvalidTopology) as exc:
        validate_topology(C, covers)
    assert any(e[0] == "UnstablePullback" for e in exc.value.errors)


def test_dropped_pullback_detected():
    C, J = site_from_finite_space(discrete_space(["p", "q", "r"]))
    # find a cover whose pullback along some arrow is not maximal; drop it
    dropped = None
    for A in C.objects:
        for S in J.covers[A]:
            for h in C.arrows:
                if C.cod[h] == A and not C.is_identity(h):
                    P = S.pullback(h)
                    if not P.is_maximal():
                        dropped = (C.dom[h], P)
                        break
            if dropped:
                break
        if dropped:
            break
    assert dropped is not None
    obj, sieve = dropped
    covers = {A: set(J.covers[A]) for A in C.objects}
    covers[obj].discard(sieve)
    with pytest.raises(InvalidTopology) as exc:
        validate_topology(C, covers)
    kinds = {e[0] for e in exc.value.errors}
    assert "UnstablePullback" in kinds or "TransitivityFailure" in kinds


def test_transitivity_failure():
    # discrete 3-point space: drop the all-proper-subsets cover of X while
    # keeping the singleton cover; the singleton cover's arrows all lie in
    # the dropped sieve, so every pullback is maximal and transitivity
    # forces the dropped sieve to be a cover.
    C, J = site_from_finite_space(discrete_space(["p", "q", "r"]))
    X = open_name({"p", "q", "r"})
    big = Sieve(C, X, frozenset(
        f for f in C.arrows if C.cod[f] == X and not C.is_identity(f)))
    assert big in J.covers[X]
    covers = {A: set(J.covers[A]) for A in C.objects}
    covers[X].discard(big)
    with pytest.raises(InvalidTopology) as exc:
        validate_topology(C, covers)
    kinds = {e[0] for e in exc.value.errors}
    assert "TransitivityFailure" in kinds


# -- sheaf condition ------------------------------------------------------------


def test_constant_presheaf_fails_at_empty_cover():
    X = discrete_space(["p", "q"])
    C, J = site_from_finite_space(X)
    F = constant_presheaf(C, [0, 1])
    ok, witness = is_sheaf(F, J)
    assert not ok
    assert witness[0] == open_name(set())


def test_component_sheaf_is_sheaf():
    for X in (discrete_space(["p", "q"]), pseudo_circle()):
        C, J = site_from_finite_space(X)
        F = component_sheaf(X, [0, 1])
        ok, witness = is_sheaf(F, J)
        assert ok, witness


def test_everything_is_sheaf_for_trivial_topology():
    C = walking_arrow()
    J = trivial_topology(C)
    F = constant_presheaf(C, [0, 1])
    assert is_sheaf(F, J) == (True, None)
    assert is_sheaf(representable(C, "1"), J) == (True, None)


def test_dual_sheaf_checks_agree():
    X = discrete_space(["p", "q"])
    C, J = site_from_finite_space(X)
    candidates = [constant_presheaf(C, [0, 1]),
                  component_sheaf(X, [0, 1]),
                  representable(C, open_name({"p"}))]
    for F in candidates:
        assert is_sheaf(F, J)[0] == is_sheaf_on_space(F, X)[0]
    Xc = pseudo_circle()
    Cc, Jc = site_from_finite_space(Xc)
    for F in (component_sheaf(Xc, [0, 1]), constant_presheaf(Cc, [0, 1])):
        assert is_sheaf(F, Jc)[0] == is_sheaf_on_space(F, Xc)[0]


# -- sheafification --------------------------------------------------------------


def test_sheafify_already_sheaf():
    X = discrete_space(["p", "q"])
    C, J = site_from_finite_space(X)
    F = component_sheaf(X, [0, 1])
    aF, i = sheafify(F, J)
    assert is_isomorphism(i)


def test_sheafify_constant_discrete_two():
    X = discrete_space(["p", "q"])
    C, J = site_from_finite_space(X)
    F = constant_presheaf(C, [0, 1])
    aF, i = sheafify(F, J)
    assert is_sheaf(aF, J)[0]
    assert len(aF.fiber(open_name({"p", "q"}))) == 4
    assert len(aF.fiber(open_name(set()))) == 1


def test_sheafify_idempotent_and_iso_iff_sheaf():
    X = discrete_space(["p", "q"])
    C, J = site_from_finite_space(X)
    for F in (constant_presheaf(C, [0, 1]), component_sheaf(X, [0, 1]),
              representable(C, open_name({"p"}))):
        aF, i = sheafify(F, J)
        a2F, i2 = sheafify(aF, J)
        assert is_isomorphism(i2)
        assert is_isomorphism(i) == is_sheaf(F, J)[0]


def test_sheafify_preserves_products():
    X = discrete_space(["p", "q"])
    C, J = site_from_finite_space(X)
    F = constant_presheaf(C, [0, 1])
    G = representable(C, open_name({"p"}))
    P, _, _ = product(F, G)
    aP, _ = sheafify(P, J)
    aF, _ = sheafify(F, J)
    aG, _ = sheafify(G, J)
    PaFaG, _, _ = product(aF, aG)
    for o in C.objects:
        assert len(aP.fiber(o)) == len(PaFaG.fiber(o))


def test_sheafify_universal_property():
    X = discrete_space(["p", "q"])
    C, J = site_from_finite_space(X)
    F = constant_presheaf(C, [0, 1])
    S = component_sheaf(X, [0, 1])
    assert sheafify_universal_check(F, J, S)


def test_sheafify_universal_check_into_a_non_sheaf_is_an_input_error():
    X = discrete_space(["p", "q"])
    C, J = site_from_finite_space(X)
    F = constant_presheaf(C, [0, 1])
    with pytest.raises(InputError, match="test target is not a sheaf"):
        sheafify_universal_check(F, J, F)


# -- finite spaces ----------------------------------------------------------------


def test_sieve_enumeration_cap():
    # the top open of the discrete 5-point space has 32 opens below it,
    # so 2^32 subsets of arrows into it, past the 2^16 cap
    with pytest.raises(ResourceExceeded) as exc:
        site_from_finite_space(discrete_space("abcde"))
    assert str(exc.value) == \
        "too many arrows into '{a,b,c,d,e}' to enumerate sieves"


def test_pseudo_circle_opens():
    X = pseudo_circle()
    assert len(X.opens) == 7


def test_discrete_and_indiscrete():
    assert len(discrete_space(["p", "q"]).opens) == 4
    Xi = indiscrete_space(["p", "q"])
    assert len(Xi.opens) == 2
    C = open_poset_category(Xi)
    assert len(C.arrows) == 3  # a chain


def test_pseudo_sphere_opens():
    X = pseudo_sphere_6()
    assert len(X.opens) == 10


def test_connected_components():
    X = pseudo_circle()
    assert len(X.connected_components()) == 1
    assert len(X.connected_components(frozenset({"a", "b"}))) == 2
    D = discrete_space(["p", "q"])
    assert len(D.connected_components()) == 2


# -- comparison lemma ---------------------------------------------------------------


def test_comparison_identity():
    X = discrete_space(["p", "q"])
    C, J = site_from_finite_space(X)
    u = identity_functor(C)
    G = component_sheaf(X, [0, 1])
    J_ind, report = comparison_check(u, J, [G])
    assert J_ind.covers == J.covers
    assert all(r["unit_iso"] and r["counit_iso"] and
               r["restriction_is_sheaf"] for r in report)


def test_comparison_basis_of_minimal_opens():
    X = pseudo_circle()
    C, J = site_from_finite_space(X)
    basis = [open_name(X.minimal_open(p)) for p in X.points]
    basis = sorted(set(basis))
    from groundwork.fincat import poset_category
    set_of = {open_name(U): U for U in X.opens}
    B = poset_category(basis, lambda a, b: set_of[a] <= set_of[b])
    arrow_map = {}
    for f in B.arrows:
        arrow_map[f] = "%s<=%s" % (B.dom[f], B.cod[f])
    u = FinFunctor(B, C, arrow_map).check()
    G = component_sheaf(X, [0, 1])
    J_ind, report = comparison_check(u, J, [G])
    assert all(r["unit_iso"] and r["counit_iso"] and
               r["restriction_is_sheaf"] for r in report)


def test_comparison_fullness_failure():
    X = pseudo_circle()
    C, J = site_from_finite_space(X)
    names = [open_name(set()), open_name({"a"})]
    B = discrete_category(names)
    arrow_map = {B.identity[o]: C.identity[o] for o in names}
    u = FinFunctor(B, C, arrow_map).check()
    with pytest.raises(HypothesisFailure) as exc:
        comparison_check(u, J, [])
    assert exc.value.clause == "fullness"


def test_comparison_covering_failure():
    X = discrete_space(["p", "q"])
    C, J = site_from_finite_space(X)
    names = [open_name(set()), open_name({"p"})]
    from groundwork.fincat import poset_category
    set_of = {open_name(U): U for U in X.opens}
    B = poset_category(names, lambda a, b: set_of[a] <= set_of[b])
    arrow_map = {f: "%s<=%s" % (B.dom[f], B.cod[f]) for f in B.arrows}
    u = FinFunctor(B, C, arrow_map).check()
    with pytest.raises(HypothesisFailure) as exc:
        comparison_check(u, J, [])
    assert exc.value.clause == "covering"


def test_comparison_check_of_a_non_sheaf_is_an_input_error():
    C, J = site_from_finite_space(discrete_space(["p", "q"]))
    F = constant_presheaf(C, [0, 1])
    with pytest.raises(InputError, match="test presheaf is not a J'-sheaf"):
        comparison_check(identity_functor(C), J, [F])
