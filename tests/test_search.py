"""The Hom-set search `fincat.assignments` and the arrows-by-codomain
index, against the product-and-filter loops and full scans they replaced.

The `ref_*` functions are those loops as they stood before the search:
each enumerator must return the same list, in the same order, on seeded
small categories, functors, presheaves, sieves and spaces.
"""
import itertools
import random

import pytest
from test_site import component_sheaf, constant_presheaf

from groundwork import catalog
from groundwork.fincat import (FinCategory, FinFunctor, FinNatTrans,
                               InvalidFunctor, InvalidNatTrans, assignments,
                               discrete_category, enumerate_functors,
                               enumerate_nat_trans, one_object_group,
                               opposite, poset_category, terminal_category,
                               walking_arrow)
from groundwork.presheaf import (InvalidPresheafMap, Presheaf, PresheafMap,
                                 colimit_of_representables_check, coproduct,
                                 enumerate_presheaf_maps, product,
                                 representable, terminal_presheaf,
                                 u_lower_star, u_shriek, validate_presheaf)
from groundwork.site import (FiniteSpace, all_sieves, discrete_space,
                             indiscrete_space, is_sheaf_on_space,
                             matching_families, open_name,
                             open_poset_category, pseudo_circle,
                             space_from_minimal_opens)


# -- the search ----------------------------------------------------------------


def test_no_positions_give_one_empty_tuple():
    assert list(assignments([])) == [()]
    assert list(assignments([], [])) == [()]


def test_an_empty_choice_gives_nothing():
    assert list(assignments([(0, 1), (), (2,)])) == []
    assert list(assignments([()])) == []

    def unread():
        raise AssertionError("checks read although a choice is empty")
        yield
    assert list(assignments([(0, 1), ()], unread())) == []


def test_without_checks_it_is_the_product():
    choices = [("a", "b"), (0, 1, 2), ("x",), (5, 6)]
    assert list(assignments(choices)) == list(itertools.product(*choices))


def test_check_at_the_last_position_it_reads():
    # the only check sits on the last position: it must still run
    choices = [range(3)] * 3
    got = list(assignments(choices, [(2, lambda x: x[0] + x[2] == 2)]))
    assert got == [x for x in itertools.product(*choices)
                   if x[0] + x[2] == 2]
    assert list(assignments([(0, 1), (0, 1)],
                            [(1, lambda x: x[1] == x[0])])) == \
        [(0, 0), (1, 1)]


def test_a_check_runs_once_its_position_is_chosen():
    seen = []

    def record(x):
        seen.append(tuple(x[:2]))
        return x[1] != 1
    got = list(assignments([(0, 1), (0, 1, 2), (7, 8)], [(1, record)]))
    assert got == [(a, b, c) for a in (0, 1) for b in (0, 2) for c in (7, 8)]
    # once per prefix x[0..1], never before x[1] is chosen
    assert seen == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_a_failing_prefix_is_never_extended():
    calls = {"first": 0, "late": 0}

    def first(x):
        calls["first"] += 1
        return x[0] == 1

    def late(x):
        calls["late"] += 1
        return True
    got = list(assignments([(0, 1)] + [range(4)] * 3,
                           [(0, first), (3, late)]))
    assert len(got) == 64 and all(x[0] == 1 for x in got)
    assert calls == {"first": 2, "late": 64}


def test_depth_is_not_bounded_by_the_recursion_limit():
    n = 5000
    assert list(assignments([(1,)] * n)) == [(1,) * n]
    got = list(assignments([(0, 1)] * n, [(n - 1, lambda x: sum(x) == 0)]
                           + [(i, lambda x, i=i: x[i] == 0)
                              for i in range(n - 1)]))
    assert got == [(0,) * n]


def test_random_checks_match_the_filtered_product():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(0, 5)
        choices = [tuple(rng.sample(range(5), rng.randint(0, 3)))
                   for _ in range(n)]
        checks = []
        for _ in range(rng.randint(0, 4)):
            if not n:
                break
            i, j = sorted(rng.randrange(n) for _ in range(2))
            k = rng.randint(0, 3)
            checks.append((j, lambda x, i=i, j=j, k=k:
                           (x[i] + x[j]) % 4 != k))
        want = [x for x in itertools.product(*choices)
                if all(test(x) for _, test in checks)]
        assert list(assignments(choices, checks)) == want


# -- seeded inputs -------------------------------------------------------------


def z3_category():
    table = {("e", "e"): "e", ("e", "g"): "g", ("e", "g2"): "g2",
             ("g", "e"): "g", ("g", "g"): "g2", ("g", "g2"): "e",
             ("g2", "e"): "g2", ("g2", "g"): "e", ("g2", "g2"): "g"}
    return one_object_group(["e", "g", "g2"], lambda a, b: table[(a, b)],
                            "e")


def idempotent_monoid():
    """{e, z} with z∘z = z: a one-object category that is not a group."""
    return one_object_group(["e", "z"], lambda a, b: "z" if "z" in (a, b)
                            else "e", "e", name="m")


def random_order(rng, points):
    """p <= q iff the random set of p lies inside that of q."""
    sets = dict(zip(points, rng.sample(
        [frozenset(c) for r in range(4) for c in
         itertools.combinations(range(3), r)], len(points))))
    return lambda p, q: sets[p] <= sets[q]


def random_poset(rng, n):
    elems = ["p%d" % i for i in range(n)]
    return poset_category(elems, random_order(rng, elems))


def small_categories():
    rng = random.Random(5)
    cats = [terminal_category(), walking_arrow(), discrete_category("xy"),
            z3_category(), idempotent_monoid(),
            catalog.load("span").value, catalog.load("cospan").value]
    cats += [random_poset(rng, rng.randint(2, 3)) for _ in range(3)]
    return cats + [opposite(C) for C in cats[1:4]]


def random_presheaf(rng, C):
    """The subpresheaf of R_A + R_B + 1 generated by a few elements."""
    family = [representable(C, rng.choice(C.objects)) for _ in range(2)]
    P, _ = coproduct(family + [terminal_presheaf(C)])
    index = P.index_map()
    gens = rng.sample(P.elements(), rng.randint(1, 3))
    keep = {P.action[(s, f)] for s in gens
            for f in C.arrows_into[index[s]]}
    return validate_presheaf(
        C, {o: tuple(e for e in P.fibers[o] if e in keep)
            for o in C.objects},
        {k: v for k, v in P.action.items() if k[0] in keep})


def presheaves(rng, C, n):
    out = [random_presheaf(rng, C) for _ in range(n)]
    return out + [product(out[0], out[1])[0], terminal_presheaf(C)]


def small_spaces():
    rng = random.Random(3)
    spaces = [pseudo_circle(), discrete_space("pq"), indiscrete_space("pq"),
              catalog.load("interval-3").value]
    for _ in range(3):
        pts = "abc"
        leq = random_order(rng, pts)
        spaces.append(space_from_minimal_opens(
            pts, {p: {q for q in pts if leq(q, p)} for p in pts}))
    return spaces


def constant_off_empty(C):
    """Two values on every non-empty open, one on the empty one: it fails
    to glue across disjoint opens."""
    empty = open_name(())
    fibers = {o: ("*",) if o == empty else ("0@" + o, "1@" + o)
              for o in C.objects}
    action = {(s, f): fibers[C.dom[f]][fibers[C.cod[f]].index(s)]
              if C.dom[f] != empty else "*"
              for f in C.arrows for s in fibers[C.cod[f]]}
    return validate_presheaf(C, fibers, action)


# -- the loops the search replaced -----------------------------------------------


def _valid(x, error):
    try:
        x.check()
        return True
    except error:
        return False


def ref_enumerate_functors(C, D):
    out = []
    for obj_images in itertools.product(D.objects, repeat=len(C.objects)):
        obj = dict(zip(C.objects, obj_images))
        non_id = [f for f in C.arrows if not C.is_identity(f)]
        choices = []
        ok = True
        for f in non_id:
            cands = D.hom(obj[C.dom[f]], obj[C.cod[f]])
            if not cands:
                ok = False
                break
            choices.append(cands)
        if not ok:
            continue
        for picks in itertools.product(*choices):
            m = {C.identity[o]: D.identity[obj[o]] for o in C.objects}
            m.update(dict(zip(non_id, picks)))
            F = FinFunctor(C, D, m)
            if _valid(F, InvalidFunctor):
                out.append(F)
    return out


def ref_enumerate_nat_trans(F, G):
    C, D = F.source, F.target
    per_object = []
    for o in C.objects:
        cands = D.hom(F.on_object(o), G.on_object(o))
        if not cands:
            return []
        per_object.append(cands)
    out = []
    for picks in itertools.product(*per_object):
        eta = FinNatTrans(F, G, dict(zip(C.objects, picks)))
        if _valid(eta, InvalidNatTrans):
            out.append(eta)
    return out


def ref_enumerate_presheaf_maps(F, G):
    elems = F.elements()
    idx_F = F.index_map()
    choices = []
    for s in elems:
        cands = G.fiber(idx_F[s])
        if not cands:
            return []
        choices.append(cands)
    out = []
    for picks in itertools.product(*choices):
        m = PresheafMap(F, G, dict(zip(elems, picks)))
        if _valid(m, InvalidPresheafMap):
            out.append(m)
    return out


def ref_colimit_of_representables_check(F, G):
    cat = F.cat
    objs = [(B, s) for B in cat.objects for s in F.fibers[B]]
    choices = [G.fiber(B) for (B, s) in objs]
    homs = ref_enumerate_presheaf_maps(F, G)
    if any(not c for c in choices):
        return len(homs) == 0
    n_cocones = 0
    for picks in itertools.product(*choices):
        t = dict(zip(objs, picks))
        ok = True
        for (B, s) in objs:
            for f in cat.arrows:
                if cat.cod[f] == B:
                    A, u = cat.dom[f], F.action[(s, f)]
                    if G.action[(t[(B, s)], f)] != t[(A, u)]:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            n_cocones += 1
            factors = [eta for eta in homs
                       if all(eta.eta[s] == t[(B, s)] for (B, s) in objs)]
            if len(factors) != 1:
                return False
    return n_cocones == len(homs)


def ref_u_lower_star_tables(u, G):
    C, Cp = u.source, u.target
    tables = {}
    for cp in Cp.objects:
        keys = [(c, a) for c in C.objects
                for a in Cp.hom(u.on_object(c), cp)]
        choices = [G.fibers[c] for (c, a) in keys]
        found = []
        if all(choices) or not keys:
            for picks in itertools.product(*choices):
                t = dict(zip(keys, picks))
                ok = True
                for f in C.arrows:
                    c1, c2 = C.dom[f], C.cod[f]
                    uf = u.on_arrow(f)
                    for a in Cp.hom(u.on_object(c2), cp):
                        if G.action[(t[(c2, a)], f)] != \
                                t[(c1, Cp.compose(a, uf))]:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    found.append(t)
        tables[cp] = found
    return tables


def ref_u_shriek_names(u, G):
    """cp -> sorted class names of (u_!G)(cp), each class named by its
    least triple."""
    C, Cp = u.source, u.target
    keys = [(cp, c, a, s) for cp in Cp.objects for c in C.objects
            for a in Cp.hom(cp, u.on_object(c)) for s in G.fibers[c]]
    cls = {k: {k} for k in keys}
    for h in C.arrows:
        c1, c2 = C.dom[h], C.cod[h]
        for cp in Cp.objects:
            for b in Cp.hom(cp, u.on_object(c1)):
                for s in G.fibers[c2]:
                    x = (cp, c1, b, G.action[(s, h)])
                    y = (cp, c2, Cp.compose(u.on_arrow(h), b), s)
                    if cls[x] is not cls[y]:
                        merged = cls[x] | cls[y]
                        for k in merged:
                            cls[k] = merged
    return {cp: sorted({"[%s;%s;%s;%s]" % min(cls[k]) for k in keys
                        if k[0] == cp}) for cp in Cp.objects}


def ref_matching_families(F, S):
    C = F.cat
    arrows = sorted(S.arrows)
    choices = [F.fiber(C.dom[f]) for f in arrows]
    out = []
    for picks in itertools.product(*choices):
        x = dict(zip(arrows, picks))
        ok = True
        for f in arrows:
            for g in C.arrows:
                if C.cod[g] == C.dom[f]:
                    if x[C.compose(f, g)] != F.act(x[f], g):
                        ok = False
                        break
            if not ok:
                break
        if ok:
            out.append(x)
    return out


def ref_is_sheaf_on_space(F, X):
    C = F.cat
    set_of = {open_name(U): U for U in X.opens}
    incl = {}
    for f in C.arrows:
        incl[(C.dom[f], C.cod[f])] = f
    for A in C.objects:
        U = set_of[A]
        below = [V for V in sorted(set_of) if set_of[V] <= U]
        for r in range(len(below) + 1):
            for combo in itertools.combinations(below, r):
                union = frozenset().union(*(set_of[V] for V in combo)) \
                    if combo else frozenset()
                if union != U:
                    continue
                choices = [F.fiber(V) for V in combo]
                compat = []
                for picks in itertools.product(*choices):
                    x = dict(zip(combo, picks))
                    good = True
                    for V in combo:
                        for W in combo:
                            inter = open_name(set_of[V] & set_of[W])
                            rv = F.act(x[V], incl[(inter, V)])
                            rw = F.act(x[W], incl[(inter, W)])
                            if rv != rw:
                                good = False
                                break
                        if not good:
                            break
                    if good:
                        compat.append(tuple(sorted(x.items())))
                seen = {}
                for s in F.fiber(A):
                    key = tuple(sorted(
                        (V, F.act(s, incl[(V, A)])) for V in combo))
                    if key in seen:
                        return False, (A, combo, "non-unique",
                                       (seen[key], s))
                    seen[key] = s
                for x in compat:
                    if x not in seen:
                        return False, (A, combo, "no-amalgamation", x)
    return True, None


# -- each enumerator against its loop ---------------------------------------------


def test_functors_and_transformations_match_the_loops():
    cats = small_categories()
    pairs = 0
    for C in cats:
        for D in cats:
            if len(D.objects) ** len(C.objects) * \
                    len(D.arrows) ** len(C.arrows) > 10 ** 6:
                continue
            got = enumerate_functors(C, D)
            assert got == ref_enumerate_functors(C, D)
            for F in got[:4]:
                for G in got[:4]:
                    assert enumerate_nat_trans(F, G) == \
                        ref_enumerate_nat_trans(F, G)
            pairs += bool(got)
    assert pairs > 40


def test_presheaf_maps_and_cocones_match_the_loops():
    rng = random.Random(17)
    counts = set()
    for C in small_categories():
        ps = presheaves(rng, C, 3)
        for F in ps:
            for G in ps:
                if max(len(G.elements()), 1) ** len(F.elements()) > 10 ** 4:
                    continue
                got = enumerate_presheaf_maps(F, G)
                assert got == ref_enumerate_presheaf_maps(F, G)
                counts.add(len(got))
                assert colimit_of_representables_check(F, G) == \
                    ref_colimit_of_representables_check(F, G)
    assert 0 in counts and len(counts) > 4


def test_u_lower_star_and_u_shriek_match_the_loops():
    rng = random.Random(23)
    checked = 0
    for C in small_categories()[:6]:
        for Cp in small_categories()[:6]:
            for u in enumerate_functors(C, Cp)[:3]:
                G = random_presheaf(rng, C)
                P, trans_of = u_lower_star(u, G)
                tables = ref_u_lower_star_tables(u, G)
                assert [[trans_of(e) for e in P.fibers[cp]]
                        for cp in Cp.objects] == \
                    [tables[cp] for cp in Cp.objects]
                Q, _ = u_shriek(u, G)
                assert {cp: list(Q.fibers[cp]) for cp in Cp.objects} == \
                    ref_u_shriek_names(u, G)
                checked += 1
    assert checked > 50


def test_matching_families_match_the_loop():
    rng = random.Random(29)
    seen = 0
    for C in small_categories():
        for F in presheaves(rng, C, 2):
            for A in C.objects:
                for S in all_sieves(C, A):
                    got = matching_families(F, S)
                    assert got == ref_matching_families(F, S)
                    assert [list(x) for x in got] == \
                        [list(x) for x in ref_matching_families(F, S)]
                    seen += len(got)
    assert seen > 100


def test_is_sheaf_on_space_matches_the_loop():
    rng = random.Random(31)
    verdicts = []
    for X in small_spaces():
        C = open_poset_category(X)
        for F in [constant_presheaf(C, [0, 1]), component_sheaf(X, [0, 1]),
                  constant_off_empty(C), random_presheaf(rng, C),
                  random_presheaf(rng, C)]:
            got = is_sheaf_on_space(F, X)
            assert got == ref_is_sheaf_on_space(F, X)
            verdicts.append(got[1] and got[1][2])
    assert {None, "non-unique", "no-amalgamation"} <= set(verdicts)


# -- the codomain index ----------------------------------------------------------


def catalog_categories():
    for name in catalog.list():
        value = catalog.load(name).value
        found = value if isinstance(value, tuple) else (value,)
        for v in found:
            if isinstance(v, FinCategory):
                yield name, v
            elif isinstance(v, Presheaf):
                yield name, v.cat
            elif isinstance(v, FiniteSpace):
                yield name, open_poset_category(v)


CATALOG_CATEGORIES = list(catalog_categories())


@pytest.mark.parametrize("name,C", CATALOG_CATEGORIES,
                         ids=[n for n, _ in CATALOG_CATEGORIES])
def test_index_matches_the_full_scan(name, C):
    for D in (C, opposite(C)):
        assert dict(D.arrows_into) == {
            A: tuple(f for f in D.arrows if D.cod[f] == A)
            for A in D.objects}
        for a in D.objects:
            for b in D.objects:
                assert D.hom(a, b) == tuple(
                    f for f in D.arrows if D.dom[f] == a and D.cod[f] == b)


def test_index_is_read_only():
    C = walking_arrow()
    with pytest.raises(TypeError):
        C.arrows_into["1"] = ()
    assert C.arrows_into is C.arrows_into
