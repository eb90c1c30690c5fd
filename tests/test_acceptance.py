"""Acceptance gate: one test (one pass/fail line under `pytest -v`) per
release criterion.  Each test re-verifies its property from scratch,
reusing the independent oracles defined in the per-module test files."""
import itertools
import random
import time

import test_frac
import test_intmat
import test_mttchk
import test_shcoh
from test_modres import ext_cyclic_oracle, module_menu

from groundwork import catalog
from groundwork.fincat import terminal_category, walking_arrow
from groundwork.fpgroup import fp_from_presentation
from groundwork.frac import localize, universal_property_check
from groundwork.intmat import IntMatrix
from groundwork.modres import (baer_check, injective_resolution, ring_f2x,
                               ring_zmod, zmod_module, ext)
from groundwork.mttchk import is_delta0, is_set_theoretic, parse_formula, \
    parse_term, separation_instance
from groundwork.presheaf import (InvalidPresheaf, coproduct,
                                 enumerate_presheaf_maps, product,
                                 representable, terminal_presheaf,
                                 validate_presheaf, yoneda_bijection)
from groundwork.shcoh import (cech_cohomology, constant_sheaf,
                              sheaf_cohomology)
from groundwork.site import (is_isomorphism, is_sheaf, pseudo_circle,
                             pseudo_sphere_6, sheafify,
                             site_from_finite_space)


def _report(n, message):
    print("criterion %d: PASS — %s" % (n, message))


def presheaves_with_fibers_up_to(cat, max_fiber):
    """All presheaves over cat with fiber sizes <= max_fiber (identity
    actions fixed; invalid action tables filtered by the validator)."""
    out = []
    names = {o: ["%s_%d" % (o, i) for i in range(max_fiber)]
             for o in cat.objects}
    non_id = [f for f in cat.arrows if not cat.is_identity(f)]
    for sizes in itertools.product(range(max_fiber + 1),
                                   repeat=len(cat.objects)):
        fibers = {o: tuple(names[o][:k])
                  for o, k in zip(cat.objects, sizes)}
        pairs = [(s, f) for f in non_id for s in fibers[cat.cod[f]]]
        choices = [fibers[cat.dom[f]] for (s, f) in pairs]
        if any(not c for c in choices):
            continue
        for picks in itertools.product(*choices):
            action = {(s, cat.identity[o]): s
                      for o in cat.objects for s in fibers[o]}
            action.update(dict(zip(pairs, picks)))
            try:
                out.append(validate_presheaf(cat, fibers, action))
            except InvalidPresheaf:
                pass
    return out


def test_criterion_01_yoneda_suite():
    start = time.monotonic()
    total = 0
    for name in ["terminal", "walking-arrow", "span"]:
        cat = catalog.load(name).value
        for F in presheaves_with_fibers_up_to(cat, 3):
            total += 1
            for B in cat.objects:
                n = len(enumerate_presheaf_maps(representable(cat, B), F))
                assert n == len(F.fibers[B])
                yoneda_bijection(F, B)      # raises unless round trips
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(1, "|Nat(R_B, F)| = |F(B)| and identity round trips for "
            "%d presheaves over 3 categories in %.1fs" % (total, elapsed))


def test_criterion_02_sheafification_suite():
    start = time.monotonic()
    checked = 0
    for space_name in ["pseudo-circle", "discrete-2"]:
        X = catalog.load(space_name).value
        C, J = site_from_finite_space(X)
        reps = [representable(C, o) for o in C.objects]
        tests = reps + [terminal_presheaf(C),
                        coproduct([reps[0], reps[-1]], C)[0],
                        product(reps[0], reps[-1])[0]]
        sheafified = []
        for F in tests:
            aF, i = sheafify(F, J)
            assert is_sheaf(aF, J)[0]
            # idempotence: the unit of an already-sheafified presheaf
            # is an isomorphism
            assert is_isomorphism(sheafify(aF, J)[1])
            assert is_isomorphism(i) == is_sheaf(F, J)[0]
            sheafified.append(aF)
            checked += 1
        # finite-limit preservation, fiberwise: a(F x G) = aF x aG
        for (F, aF), (G, aG) in itertools.combinations(
                zip(tests[:4], sheafified[:4]), 2):
            aFG, _ = sheafify(product(F, G)[0], J)
            for o in C.objects:
                assert len(aFG.fiber(o)) == \
                    len(aF.fiber(o)) * len(aG.fiber(o))
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(2, "a idempotent, unit iso iff sheaf, products preserved "
            "(%d presheaves, %.1fs)" % (checked, elapsed))


def test_criterion_03_resolution_suite():
    start = time.monotonic()
    done = []
    for R in [ring_zmod(4), ring_zmod(6), ring_f2x()]:
        menu, skipped = module_menu(R)
        assert menu, "no legal module over %s" % R.name
        for label, M in menu:
            res = injective_resolution(M, 2)
            res.verify()    # monic embedding, d∘d = 0, exactness
            for term in res.terms:
                ok, witness = baer_check(term)
                assert ok, witness
            done.append("%s/%s" % (label, R.name))
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _report(3, "resolutions exact and Baer-injective for %s (skips are "
            "non-modules) in %.1fs" % (", ".join(done), elapsed))


def test_criterion_04_ext_cross_check():
    R = ring_zmod(4)
    M = zmod_module(R, 2)
    groups = ext(M, M, 3)
    orders = [g.order() for g in groups]
    oracle = [ext_cyclic_oracle(4, 2, 2, k) for k in range(4)]
    assert orders == oracle == [2, 2, 2, 2]
    _report(4, "Ext^0..3 over Z/4 of (Z/2, Z/2) all have order 2, "
            "matching the free-resolution oracle")


def test_criterion_05_cohomology_of_finite_models():
    circle, sphere = pseudo_circle(), pseudo_sphere_6()
    for n in (2, 3, 4):
        rep = sheaf_cohomology(constant_sheaf(circle, [n]), 2)
        assert rep.lines() == ["H^0 = Z/%d" % n, "H^1 = Z/%d" % n,
                               "H^2 = 0"]
        oracle = test_shcoh.simplicial_mod_n_factors(circle, n, 2)
        assert test_shcoh.report_multisets(rep) == \
            [test_shcoh.prime_power_multiset(f) for f in oracle]
    rep = sheaf_cohomology(constant_sheaf(sphere, [2]), 2)
    assert rep.lines() == ["H^0 = Z/2", "H^1 = 0", "H^2 = Z/2"]
    oracle = test_shcoh.simplicial_mod_n_factors(sphere, 2, 2)
    assert test_shcoh.report_multisets(rep) == \
        [test_shcoh.prime_power_multiset(f) for f in oracle]
    rep = sheaf_cohomology(constant_sheaf(sphere, [2]), 3)
    assert rep.lines() == ["H^0 = Z/2", "H^1 = 0", "H^2 = Z/2", "H^3 = 0"]
    oracle = test_shcoh.simplicial_mod_n_factors(sphere, 2, 3)
    assert test_shcoh.report_multisets(rep) == \
        [test_shcoh.prime_power_multiset(f) for f in oracle]
    _report(5, "pseudo-circle Z/n (n=2,3,4) to degree 2 and pseudo-sphere "
            "Z/2 to degree 3 match the simplicial SNF oracle exactly")


def test_criterion_06_cech_derived_agreement():
    X = pseudo_circle()
    cover = test_shcoh.two_arc_cover(X)
    for n in (2, 3, 4):
        F = constant_sheaf(X, [n])
        cech = cech_cohomology(F, cover, 1)
        derived = sheaf_cohomology(F, 1)
        assert cech.lines() == derived.lines()
    _report(6, "two-arc Čech H^0, H^1 equal derived H^0, H^1 for "
            "Z/2, Z/3, Z/4")


def test_criterion_07_delta_functor_suite():
    start = time.monotonic()
    test_shcoh.test_random_ses_long_exact()     # 20 seeded random SESs
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _report(7, "long exact sequence exact through degree 2 for 20 "
            "seeded random short exact sequences in %.1fs" % elapsed)


def test_criterion_08_localization_suite():
    start = time.monotonic()
    L = localize(walking_arrow(), {"a"})
    for a in L.category.objects:
        for b in L.category.objects:
            assert len(L.category.hom(a, b)) == 1
    sigma_entries = [n for n in catalog.list()
                     if catalog.load(n).kind == "sigma"]
    targets = [terminal_category(), walking_arrow(),
               test_frac.walking_isomorphism(),
               catalog.load("span").value, catalog.load("cospan").value]
    assert all(len(T.objects) <= 3 and len(T.arrows) <= 9
               for T in targets)
    pairs = 0
    for name in sigma_entries:
        C, sigma = catalog.load(name).value
        for T in targets:
            v = universal_property_check(C, sigma.members, T)
            assert v.ok, (name, v.detail)
            pairs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _report(8, "walking-arrow localization is all singletons; universal "
            "property holds for %d (C, sigma, T) cases in %.1fs"
            % (pairs, elapsed))


def test_criterion_09_logic_suite():
    assert is_delta0(parse_formula(test_mttchk.R_N_FORMULA))
    refused = separation_instance(
        parse_term("N"), parse_formula(test_mttchk.ITERATED_POWERSET))
    assert not refused.licensed
    assert not is_set_theoretic(
        parse_formula("forall X:Class. (X in2 A2 -> X in2 B2)"))
    test_mttchk.test_thousand_random_formulas_match_oracle()
    _report(9, "R^n formula Delta0, iterated powerset refused, collection "
            "inclusion non-set-theoretic, 1000 random formulas match the "
            "oracle")


def test_criterion_10_exact_linear_algebra_suite():
    rng = random.Random(20260823)
    for _ in range(500):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        A = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        test_intmat.check_snf(A)
    base = IntMatrix.from_rows([[2, 0, 4], [0, 6, 2], [0, 0, 0]])
    G = fp_from_presentation(3, base)
    rows = [list(r) for r in base.entries]
    for _ in range(100):
        op = rng.choice(["row", "col", "swap_row", "swap_col", "neg_col"])
        i, j = rng.sample(range(3), 2)
        q = rng.randint(-2, 2)
        if op == "row":
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        elif op == "col":
            for r in rows:
                r[i] += q * r[j]
        elif op == "swap_row":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "swap_col":
            for r in rows:
                r[i], r[j] = r[j], r[i]
        else:
            for r in rows:
                r[i] = -r[i]
        H = fp_from_presentation(3, IntMatrix.from_rows(rows))
        assert H.invariant_factors == G.invariant_factors
    _report(10, "500 random SNF postconditions bit-exact; presentation "
            "invariant under 100 random row/column operations")
