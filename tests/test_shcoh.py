"""Tests for sheaves on finite spaces: sections, Čech and derived-functor
cohomology, and the long exact sequence.

The cohomology oracle is independent of the library's resolution
machinery: the order complex of the specialization poset is a simplicial
complex weak-homotopy-equivalent to the finite space, so simplicial
cohomology with Z/n coefficients — computed here from integer coboundary
matrices with sympy's Smith normal form plus universal coefficients —
must agree with the derived-functor answer.
"""
import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

import groundwork.shcoh as shcoh
from groundwork.fpgroup import (FpMorphism, fp_direct_sum, fp_from_factors,
                                fp_identity, fp_trivial, fp_zero_morphism)
from groundwork.intmat import IntMatrix
from groundwork.latpair import latpair_quotient_type
from groundwork.shcoh import (AbelianSheaf, NotACover, SheafError, SheafMap,
                              cech_cohomology, check_ses, constant_sheaf,
                              gamma_map, global_sections, godement_embedding,
                              long_exact_sequence, pair_global_sections,
                              section_restriction, sections, sheaf_cohomology,
                              sheaf_direct_sum, skyscraper_sheaf,
                              validate_sheaf, zero_sheaf)
from groundwork.site import (FiniteSpace, discrete_space, pseudo_circle,
                             pseudo_sphere_6, space_from_minimal_opens)


# -- independent simplicial oracle -------------------------------------------


def order_complex_chains(X: FiniteSpace, k_max: int):
    """chains[k] = strictly increasing (k+1)-tuples in the specialization
    order; these are the k-simplices of the order complex."""
    pts = sorted(X.points)
    chains = {0: [(p,) for p in pts]}
    for k in range(1, k_max + 1):
        chains[k] = [c + (q,) for c in chains[k - 1] for q in pts
                     if q != c[-1] and X.specialization_leq(c[-1], q)]
    return chains


def coboundary(ch_k, ch_k1):
    M = [[0] * len(ch_k) for _ in ch_k1]
    pos = {c: i for i, c in enumerate(ch_k)}
    for t, T in enumerate(ch_k1):
        for j in range(len(T)):
            M[t][pos[T[:j] + T[j + 1:]]] += (-1) ** j
    return sympy.Matrix(len(ch_k1), len(ch_k), [x for r in M for x in r])


def simplicial_mod_n_factors(X: FiniteSpace, n: int, k_max: int):
    """Cyclic factors of H^k(order complex; Z/n) for k = 0..k_max.

    Integer cohomology is read off ranks and Smith divisors of the
    coboundary matrices; coefficients Z/n enter through universal
    coefficients: H^k(-;Z/n) = H^k ⊗ Z/n  ⊕  Tor(H^{k+1}, Z/n).
    """
    chains = order_complex_chains(X, k_max + 2)
    deltas = [coboundary(chains[k], chains[k + 1]) for k in range(k_max + 2)]

    def rank(k):
        if k < 0:
            return 0
        return deltas[k].rank()

    def divisors(k):          # torsion coefficients of H^k, from δ^{k-1}
        if k <= 0:
            return []
        D = deltas[k - 1]
        if D.rows == 0 or D.cols == 0:
            return []
        S = smith_normal_form(D)
        out = [abs(S[i, i]) for i in range(min(S.rows, S.cols))]
        return [d for d in out if d > 1]

    result = []
    for k in range(k_max + 1):
        betti = len(chains[k]) - rank(k) - rank(k - 1)
        factors = [n] * betti
        factors += [sympy.gcd(d, n) for d in divisors(k)]
        factors += [sympy.gcd(d, n) for d in divisors(k + 1)]
        result.append([int(d) for d in factors if d > 1])
    return result


def prime_power_multiset(factors):
    out = []
    for d in factors:
        for p, e in sympy.factorint(int(d)).items():
            out.append(int(p) ** int(e))
    return sorted(out)


def report_multisets(report):
    return [prime_power_multiset(d for d in G.invariant_factors if d)
            for G in report.degrees]


def interval3() -> FiniteSpace:
    return space_from_minimal_opens(
        ("a", "b", "c"), {"a": {"a"}, "b": {"b"}, "c": {"a", "b", "c"}})


# -- basic sheaf structure ---------------------------------------------------


def chain3() -> FiniteSpace:
    return space_from_minimal_opens(
        ("a", "b", "c"), {"a": {"a"}, "b": {"a", "b"}, "c": {"a", "b", "c"}})


def test_validate_sheaf_rejects_non_identity_comap():
    X = interval3()
    G = fp_from_factors([4])
    stalks = {p: G for p in X.points}
    comaps = {(p, q): fp_identity(G)
              for p in X.points for q in X.minimal_open(p)}
    comaps[("a", "a")] = FpMorphism(G, G, IntMatrix.from_rows([[3]]))
    with pytest.raises(SheafError):
        validate_sheaf(X, stalks, comaps)


def test_validate_sheaf_rejects_noncommuting_comaps():
    X = chain3()
    G = fp_from_factors([4])
    stalks = {p: G for p in X.points}
    comaps = {(p, q): fp_identity(G)
              for p in X.points for q in X.minimal_open(p)}
    comaps[("c", "a")] = FpMorphism(G, G, IntMatrix.from_rows([[3]]))
    with pytest.raises(SheafError):
        validate_sheaf(X, stalks, comaps)


def test_global_sections_pinned():
    circle = pseudo_circle()
    assert global_sections(constant_sheaf(circle, [3])).iso_type() == "Z/3"
    assert global_sections(zero_sheaf(circle)).order() == 1
    # two components: one copy of the stalk per component
    two = discrete_space(["x", "y"])
    assert global_sections(constant_sheaf(two, [5])).order() == 25
    assert global_sections(skyscraper_sheaf(circle, "c", [4])).iso_type() \
        == "Z/4"


def test_section_restriction_and_gamma_map():
    X = pseudo_circle()
    F = constant_sheaf(X, [3])
    sx = sections(F, X.points)
    su = sections(F, X.minimal_open("c"))
    r = section_restriction(F, sx, su)
    assert r.is_monic() and r.is_epic()
    phi = SheafMap(F, F, {p: FpMorphism(F.stalks[p], F.stalks[p],
                                        IntMatrix.from_rows([[2]]))
                          for p in X.points}).check()
    g = gamma_map(phi, sx, sx)
    assert g.is_monic()     # multiplication by 2 is invertible mod 3


def test_direct_sum_sections():
    X = pseudo_circle()
    S, incs, projs = sheaf_direct_sum(constant_sheaf(X, [2]),
                                      skyscraper_sheaf(X, "d", [3]))
    assert global_sections(S).order() == 6
    assert incs[0].components["c"].is_monic()
    assert projs[1].components["d"].is_epic()


# -- Godement embedding ------------------------------------------------------


def test_godement_embedding_types():
    X = pseudo_circle()
    G, _ = godement_embedding(constant_sheaf(X, [2]))
    assert {p: G.stalks[p].ambient for p in X.points} == \
        {"a": 1, "b": 1, "c": 3, "d": 3}
    pair, _, _ = pair_global_sections(G)
    assert str(latpair_quotient_type(pair)) == "(Q/Z)^4"
    Gs, _ = godement_embedding(skyscraper_sheaf(X, "c", [4]))
    ps, _, _ = pair_global_sections(Gs)
    assert str(latpair_quotient_type(ps)) == "Q/Z"


def test_pair_global_sections_match_finite_sections():
    # comaps between Z/2 and Z/6 stalks carry the denominator 6
    for X in [pseudo_circle(), pseudo_sphere_6()]:
        first, last = sorted(X.points)[0], sorted(X.points)[-1]
        for F in [constant_sheaf(X, [2, 6]),
                  skyscraper_sheaf(X, last, [3, 9]),
                  sheaf_direct_sum(constant_sheaf(X, [2]),
                                   skyscraper_sheaf(X, first, [3]))[0]]:
            pair, _, _ = pair_global_sections(shcoh.as_pair_sheaf(F))
            assert latpair_quotient_type(pair).finite_factors == \
                global_sections(F).invariant_factors


# -- derived-functor cohomology ----------------------------------------------


def test_cohomology_circle_pinned_lines():
    r = sheaf_cohomology(constant_sheaf(pseudo_circle(), [3]), 2)
    assert r.lines() == ["H^0 = Z/3", "H^1 = Z/3", "H^2 = 0"]


def test_cohomology_sphere_pinned_lines():
    r = sheaf_cohomology(constant_sheaf(pseudo_sphere_6(), [2]), 2)
    assert r.lines() == ["H^0 = Z/2", "H^1 = 0", "H^2 = Z/2"]


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_cohomology_circle_matches_simplicial_oracle(n):
    X = pseudo_circle()
    got = report_multisets(sheaf_cohomology(constant_sheaf(X, [n]), 2))
    want = [prime_power_multiset(f)
            for f in simplicial_mod_n_factors(X, n, 2)]
    assert got == want


@pytest.mark.parametrize("n", [2, 3])
def test_cohomology_sphere_matches_simplicial_oracle(n):
    X = pseudo_sphere_6()
    got = report_multisets(sheaf_cohomology(constant_sheaf(X, [n]), 2))
    want = [prime_power_multiset(f)
            for f in simplicial_mod_n_factors(X, n, 2)]
    assert got == want


def test_cohomology_contractible_and_discrete():
    r = sheaf_cohomology(constant_sheaf(interval3(), [4]), 2)
    assert r.lines() == ["H^0 = Z/4", "H^1 = 0", "H^2 = 0"]
    two = discrete_space(["x", "y"])
    r = sheaf_cohomology(constant_sheaf(two, [3]), 1)
    assert r.lines() == ["H^0 = Z/3 ⊕ Z/3", "H^1 = 0"]


def test_cohomology_flasque_vanishes():
    """Skyscrapers and discrete Godement sheaves are flasque, so all
    higher derived functors vanish."""
    X = pseudo_circle()
    r = sheaf_cohomology(skyscraper_sheaf(X, "c", [4]), 2)
    assert r.lines() == ["H^0 = Z/4", "H^1 = 0", "H^2 = 0"]
    F = constant_sheaf(X, [4])
    G, _, _ = shcoh._godement_finite(F)
    r = sheaf_cohomology(G, 2)
    assert [str(g.order()) for g in r.degrees[1:]] == ["1", "1"]
    assert r.degrees[0].order() == global_sections(G).order()
    # the discrete Godement identity Γ(God F) = ∏_p F_p
    prod, _, _ = fp_direct_sum([F.stalks[p] for p in sorted(X.points)])
    assert global_sections(G).invariant_factors == prod.invariant_factors


def test_h0_is_global_sections():
    X = pseudo_circle()
    for F in [constant_sheaf(X, [2, 4]), skyscraper_sheaf(X, "a", [6]),
              sheaf_direct_sum(constant_sheaf(X, [2]),
                               skyscraper_sheaf(X, "d", [3]))[0]]:
        r = sheaf_cohomology(F, 0)
        assert prime_power_multiset(
            d for d in r.degrees[0].invariant_factors if d) == \
            prime_power_multiset(
                d for d in global_sections(F).invariant_factors if d)


def flasque_cohomology(F: AbelianSheaf, n_max: int):
    """Cohomology via the discrete (flasque) Godement resolution — an
    independently constructed resolution to compare against the
    divisible one used by sheaf_cohomology."""
    pts = F.space.points
    terms, sheaf_diffs, prev_proj = [], [], None
    cur = F
    for _ in range(n_max + 2):
        G, e, proj = shcoh._godement_finite(cur)
        if prev_proj is not None:
            sheaf_diffs.append(e.compose(prev_proj))
        terms.append(G)
        cur, prev_proj = proj.target, proj
    secs = [sections(G, pts) for G in terms]
    ds = [gamma_map(sheaf_diffs[k], secs[k], secs[k + 1])
          for k in range(n_max + 1)]
    out = []
    for n in range(n_max + 1):
        H, _, _ = shcoh.fp_cohomology_at(ds[n - 1] if n else None, ds[n])
        out.append(H)
    return out


def test_two_resolutions_agree():
    X = pseudo_circle()
    for F in [constant_sheaf(X, [4]), constant_sheaf(X, [6]),
              skyscraper_sheaf(X, "c", [2]),
              sheaf_direct_sum(constant_sheaf(X, [2]),
                               constant_sheaf(X, [3]))[0]]:
        derived = report_multisets(sheaf_cohomology(F, 2))
        flasque = [prime_power_multiset(d for d in H.invariant_factors if d)
                   for H in flasque_cohomology(F, 2)]
        assert derived == flasque


# -- Čech cohomology ---------------------------------------------------------


def two_arc_cover(X):
    return [X.minimal_open("c"), X.minimal_open("d")]


def test_cech_two_arc_pinned():
    X = pseudo_circle()
    r = cech_cohomology(constant_sheaf(X, [3]), two_arc_cover(X), 1)
    assert r.lines() == ["H^0 = Z/3", "H^1 = Z/3"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cech_agrees_with_derived(n):
    X = pseudo_circle()
    F = constant_sheaf(X, [n])
    cech = report_multisets(cech_cohomology(F, two_arc_cover(X), 1))
    derived = report_multisets(sheaf_cohomology(F, 1))
    assert cech == derived


def test_free_coefficients():
    X = pseudo_circle()
    r = cech_cohomology(constant_sheaf(X, [0]), two_arc_cover(X), 1)
    assert r.lines() == ["H^0 = Z", "H^1 = Z"]
    with pytest.raises(SheafError, match="stalk at 'a' has a free summand"):
        sheaf_cohomology(constant_sheaf(X, [2, 0]), 1)
    first = min(p for p in X.points if "c" in X.minimal_open(p))
    with pytest.raises(SheafError, match="stalk at %r" % (first,)):
        sheaf_cohomology(skyscraper_sheaf(X, "c", [0]), 1)


def test_cech_trivial_cover():
    X = pseudo_circle()
    F = constant_sheaf(X, [5])
    r = cech_cohomology(F, [frozenset(X.points)], 2)
    assert r.lines() == ["H^0 = Z/5", "H^1 = 0", "H^2 = 0"]


def test_cech_rejects_noncovers():
    X = pseudo_circle()
    F = constant_sheaf(X, [2])
    with pytest.raises(NotACover):
        cech_cohomology(F, [X.minimal_open("c")], 1)
    with pytest.raises(NotACover):
        cech_cohomology(F, [frozenset({"a", "c"}), frozenset(X.points)], 1)


# -- short and long exact sequences ------------------------------------------


def mult_ses_constant(X, d, e):
    """0 -> Z/d --e--> Z/(de) -> Z/e -> 0 as constant sheaves."""
    F1, F, F2 = (constant_sheaf(X, [d]), constant_sheaf(X, [d * e]),
                 constant_sheaf(X, [e]))
    a = SheafMap(F1, F, {p: FpMorphism(F1.stalks[p], F.stalks[p],
                                       IntMatrix.from_rows([[e]]))
                         for p in X.points}).check()
    b = SheafMap(F, F2, {p: FpMorphism(F.stalks[p], F2.stalks[p],
                                       IntMatrix.from_rows([[1]]))
                         for p in X.points}).check()
    return a, b


def mult_ses_skyscraper(X, point, d, e):
    F1, F, F2 = (skyscraper_sheaf(X, point, [d]),
                 skyscraper_sheaf(X, point, [d * e]),
                 skyscraper_sheaf(X, point, [e]))

    def comp(s, t, m):
        if s.gens and t.gens:
            return FpMorphism(s, t, IntMatrix.from_rows([[m]]))
        return fp_zero_morphism(s, t)

    a = SheafMap(F1, F, {p: comp(F1.stalks[p], F.stalks[p], e)
                         for p in X.points}).check()
    b = SheafMap(F, F2, {p: comp(F.stalks[p], F2.stalks[p], 1)
                         for p in X.points}).check()
    return a, b


def split_ses(X, d, point, e):
    Fsub = constant_sheaf(X, [d])
    Fq = skyscraper_sheaf(X, point, [e])
    _, incs, projs = sheaf_direct_sum(Fsub, Fq)
    return incs[0], projs[1]


def sheaf_map_add(f: SheafMap, g: SheafMap) -> SheafMap:
    comps = {p: FpMorphism(f.components[p].source, f.components[p].target,
                           f.components[p].matrix.add(g.components[p].matrix))
             for p in f.source.space.points}
    return SheafMap(f.source, f.target, comps)


def ses_direct_sum(s1, s2):
    a1, b1 = s1
    a2, b2 = s2
    _, incsP, projsP = sheaf_direct_sum(a1.source, a2.source)
    _, incsM, projsM = sheaf_direct_sum(a1.target, a2.target)
    _, incsQ, projsQ = sheaf_direct_sum(b1.target, b2.target)
    alpha = sheaf_map_add(incsM[0].compose(a1).compose(projsP[0]),
                          incsM[1].compose(a2).compose(projsP[1]))
    beta = sheaf_map_add(incsQ[0].compose(b1).compose(projsM[0]),
                         incsQ[1].compose(b2).compose(projsM[1]))
    return alpha.check(), beta.check()


def is_zero_map(f: FpMorphism) -> bool:
    z = f.target.zero()
    return all(f.target.normal_form(f.matrix.col(j)) == z
               for j in range(f.matrix.cols))


def test_check_ses_rejects_non_exact():
    X = interval3()
    F = constant_sheaf(X, [4])
    ident = SheafMap(F, F, {p: fp_identity(F.stalks[p])
                            for p in X.points}).check()
    with pytest.raises(SheafError):
        check_ses(ident, ident)


def test_les_z2_z4_z2_on_circle():
    X = pseudo_circle()
    a, b = mult_ses_constant(X, 2, 2)
    les = long_exact_sequence(a, b, 2).verify()
    assert [g.iso_type() for g in les.groups] == \
        ["Z/2", "Z/4", "Z/2", "Z/2", "Z/4", "Z/2", "0", "0", "0"]
    assert les.labels[3] == "H^1(F')"


def test_les_split_has_zero_connecting_maps():
    X = pseudo_circle()
    a, b = split_ses(X, 3, "c", 2)
    les = long_exact_sequence(a, b, 1).verify()
    # maps come in (alpha, beta, delta) triples; delta sits at index 2
    assert is_zero_map(les.maps[2])


def test_les_nonzero_connecting_map():
    # 0 -> j_!Z/2 -> Z/2 -> sky_c Z/2 + sky_d Z/2 -> 0 on the pseudo-circle,
    # with j the inclusion of the open {a, b}
    X = pseudo_circle()
    A, Z = fp_from_factors([2]), fp_trivial()
    stalks = {p: A if p in ("a", "b") else Z for p in X.points}
    F1 = validate_sheaf(X, stalks, {
        (p, q): fp_identity(stalks[p]) if p == q
        else fp_zero_morphism(stalks[p], stalks[q])
        for p in X.points for q in X.minimal_open(p)})
    F = constant_sheaf(X, [2])
    F2, _, _ = sheaf_direct_sum(skyscraper_sheaf(X, "c", [2]),
                                skyscraper_sheaf(X, "d", [2]))

    def comp(s, t, on):
        if on:
            return FpMorphism(s, t, IntMatrix.identity(1))
        return fp_zero_morphism(s, t)

    a = SheafMap(F1, F, {p: comp(F1.stalks[p], F.stalks[p], p in ("a", "b"))
                         for p in X.points}).check()
    b = SheafMap(F, F2, {p: comp(F.stalks[p], F2.stalks[p], p in ("c", "d"))
                         for p in X.points}).check()
    les = long_exact_sequence(a, b, 1).verify()
    assert [g.iso_type() for g in les.groups] == \
        ["0", "Z/2", "Z/2 + Z/2", "Z/2 + Z/2", "Z/2", "0"]
    assert not is_zero_map(les.maps[2])


def test_random_ses_long_exact():
    spaces = {"interval": interval3(), "circle": pseudo_circle()}
    params = [(2, 2), (3, 2), (2, 3)]
    for seed in range(20):
        rng = random.Random(seed)
        name = rng.choice(["interval", "interval", "circle"])
        X = spaces[name]

        def one():
            kind = rng.choice(["const", "sky", "split"])
            d, e = rng.choice(params)
            point = rng.choice(sorted(X.points))
            if kind == "const":
                return mult_ses_constant(X, d, e)
            if kind == "sky":
                return mult_ses_skyscraper(X, point, d, e)
            return split_ses(X, d, point, e)

        ses = one()
        if name == "interval" and rng.random() < 0.5:
            ses = ses_direct_sum(ses, one())
        a, b = ses
        les = long_exact_sequence(a, b, 2).verify()
        assert les.groups[0].order() == global_sections(a.source).order(), \
            "seed %d" % seed
        assert all(g.order() for g in les.groups)
        # every group agrees with the divisible route in every degree
        derived = [report_multisets(sheaf_cohomology(F, 2))
                   for F in (a.source, a.target, b.target)]
        assert [prime_power_multiset(d for d in g.invariant_factors if d)
                for g in les.groups] == \
            [derived[i][n] for n in range(3) for i in range(3)], \
            "seed %d" % seed
