"""Presheaves on finite categories as indexed sets with an explicit action.

A presheaf F on C is a finite set of elements indexed over the objects of C
(the fibers) together with an action table: for s in F(cod f) the action
gives s·f in F(dom f), contravariantly functorial.  Everything — maps,
(co)limits, Yoneda data, Kan extensions — is computed by finite enumeration
with deterministic output ordering.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import ErrorList, Failure
from .fincat import FinCategory, FinFunctor, assignments, validate_category


class InvalidPresheaf(ErrorList):
    pass


class InvalidPresheafMap(Failure):
    pass


@dataclass(frozen=True, eq=False)
class Presheaf:
    cat: FinCategory
    fibers: dict    # object -> tuple of element ids (disjoint across objects)
    action: dict    # (element, arrow) -> element, for index(elem) == cod(f)

    def _key(self):
        return (self.cat,
                tuple((o, tuple(self.fibers[o])) for o in self.cat.objects),
                tuple(sorted(self.action.items())))

    def __eq__(self, other):
        return isinstance(other, Presheaf) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def index(self, elem):
        for o, es in self.fibers.items():
            if elem in es:
                return o
        raise KeyError(elem)

    def index_map(self) -> dict:
        return {e: o for o in self.cat.objects for e in self.fibers[o]}

    def elements(self):
        return [e for o in self.cat.objects for e in self.fibers[o]]

    def act(self, elem, arrow):
        return self.action[(elem, arrow)]

    def fiber(self, obj):
        return tuple(self.fibers.get(obj, ()))


def validate_presheaf(cat: FinCategory, fibers, action) -> Presheaf:
    """Check the three presheaf clauses on every (element, arrow) pair.

    Error records: ("MissingActionEntry", s, f), ("ActionOutOfFiber", s, f),
    ("NonFunctorial", witness...).
    """
    fibers = {o: tuple(fibers.get(o, ())) for o in cat.objects}
    index = {}
    errors = []
    for o, es in fibers.items():
        for e in es:
            if e in index:
                errors.append(("ActionOutOfFiber", e, None))
            index[e] = o
    for s in index:
        for f in cat.arrows_into[index[s]]:
            if (s, f) not in action:
                errors.append(("MissingActionEntry", s, f))
            elif index.get(action[(s, f)]) != cat.dom[f]:
                errors.append(("ActionOutOfFiber", s, f))
    for (s, f) in action:
        if s not in index or f not in cat.dom or index[s] != cat.cod[f]:
            errors.append(("ActionOutOfFiber", s, f))
    if errors:
        raise InvalidPresheaf(errors)
    for s, o in index.items():
        if action[(s, cat.identity[o])] != s:
            errors.append(("NonFunctorial", s, cat.identity[o]))
    for g in cat.arrows:
        for h in cat.arrows_into[cat.dom[g]]:
            gh = cat.compose(g, h)
            for s in fibers[cat.cod[g]]:
                if action[(s, gh)] != action[(action[(s, g)], h)]:
                    errors.append(("NonFunctorial", s, g, h))
    if errors:
        raise InvalidPresheaf(errors)
    return Presheaf(cat, fibers, dict(action))


def empty_presheaf(cat: FinCategory) -> Presheaf:
    return Presheaf(cat, {o: () for o in cat.objects}, {})


def terminal_presheaf(cat: FinCategory) -> Presheaf:
    fibers = {o: ("*%s" % o,) for o in cat.objects}
    action = {("*%s" % cat.cod[f], f): "*%s" % cat.dom[f]
              for f in cat.arrows}
    return Presheaf(cat, fibers, action)


# -- presheaf maps ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PresheafMap:
    source: Presheaf
    target: Presheaf
    eta: dict       # element of source -> element of target

    def _key(self):
        return (self.source, self.target, tuple(sorted(self.eta.items())))

    def __eq__(self, other):
        return isinstance(other, PresheafMap) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def check(self) -> "PresheafMap":
        F, G = self.source, self.target
        if F.cat != G.cat:
            raise InvalidPresheafMap("presheaves over different categories")
        idx_F, idx_G = F.index_map(), G.index_map()
        for s in F.elements():
            t = self.eta.get(s)
            if t is None or idx_G.get(t) != idx_F[s]:
                raise InvalidPresheafMap("not over C0 at %r" % s)
        for (s, f), sf in F.action.items():
            if self.eta[sf] != G.action[(self.eta[s], f)]:
                raise InvalidPresheafMap(
                    "does not commute with action at (%r, %r)" % (s, f))
        return self

    def apply(self, elem):
        return self.eta[elem]

    def compose(self, other: "PresheafMap") -> "PresheafMap":
        if other.target != self.source:
            raise InvalidPresheafMap("maps not composable")
        return PresheafMap(other.source, self.target,
                           {s: self.eta[t] for s, t in other.eta.items()})


def identity_map(F: Presheaf) -> PresheafMap:
    return PresheafMap(F, F, {s: s for s in F.elements()})


def _equations(triples, action):
    """Search checks x[j] == action[(x[i], f)], one per (i, f, j) in
    triples, grouped at the later of the two positions they read."""
    at = {}
    for i, f, j in triples:
        at.setdefault(max(i, j), []).append((i, f, j))

    def check(eqs):
        def test(x):
            for i, f, j in eqs:
                if x[j] != action[(x[i], f)]:
                    return False
            return True
        return test
    return [(p, check(eqs)) for p, eqs in at.items()]


def enumerate_presheaf_maps(F: Presheaf, G: Presheaf):
    """All presheaf maps F -> G, in deterministic order.

    One search position per element s of F, ranging over G at the index
    of s; each action entry of F checks x[s·f] = x[s]·f.
    """
    elems = F.elements()
    idx_F = F.index_map()
    at = {s: i for i, s in enumerate(elems)}
    checks = _equations([(at[s], f, at[sf])
                         for (s, f), sf in F.action.items()], G.action)
    return [PresheafMap(F, G, dict(zip(elems, x)))
            for x in assignments([G.fiber(idx_F[s]) for s in elems],
                                 checks)]


# -- colimits and limits ----------------------------------------------------


def _union_find(elements):
    """(find, union) over the elements; each class is rooted at its least
    member."""
    parent = {e: e for e in elements}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if rb < ra:
            ra, rb = rb, ra
        parent[rb] = ra
    return find, union


def coequalizer(eta: PresheafMap, iota: PresheafMap):
    """Coequalizer of a parallel pair F ⇉ G.

    Quotient classes are named by their least element id.  Returns
    (Q, proj).
    """
    if eta.source != iota.source or eta.target != iota.target:
        raise InvalidPresheafMap("not a parallel pair")
    G = eta.target
    idx = G.index_map()
    find, union = _union_find(G.elements())
    for s in eta.source.elements():
        union(eta.eta[s], iota.eta[s])
    # close under the action: x ~ y forces x·f ~ y·f
    changed = True
    while changed:
        changed = False
        classes = {}
        for e in G.elements():
            classes.setdefault(find(e), []).append(e)
        for members in classes.values():
            rep = members[0]
            for e in members[1:]:
                for f in G.cat.arrows_into[idx[rep]]:
                    sf, ef = G.action[(rep, f)], G.action[(e, f)]
                    if find(sf) != find(ef):
                        union(sf, ef)
                        changed = True
    class_name = {}
    classes = {}
    for e in G.elements():
        classes.setdefault(find(e), []).append(e)
    for members in classes.values():
        name = min(members)
        for e in members:
            class_name[e] = name
    fibers = {o: tuple(sorted({class_name[e] for e in G.fibers[o]}))
              for o in G.cat.objects}
    action = {}
    for (s, f), sf in G.action.items():
        action[(class_name[s], f)] = class_name[sf]
    Q = validate_presheaf(G.cat, fibers, action)
    proj = PresheafMap(G, Q, dict(class_name)).check()
    return Q, proj


def coproduct(family, cat=None):
    """Disjoint union of a list of presheaves over the same category.

    Element ids are "i:elem".  Returns (P, injections).  An empty family
    (with the category supplied) gives the empty presheaf.
    """
    if not family:
        if cat is None:
            raise ValueError("empty family needs an explicit category")
        return empty_presheaf(cat), []
    cat = family[0].cat
    fibers = {o: tuple("%d:%s" % (i, e)
                       for i, F in enumerate(family) for e in F.fibers[o])
              for o in cat.objects}
    action = {}
    for i, F in enumerate(family):
        for (s, f), sf in F.action.items():
            action[("%d:%s" % (i, s), f)] = "%d:%s" % (i, sf)
    P = Presheaf(cat, fibers, action)
    injections = [PresheafMap(F, P, {e: "%d:%s" % (i, e)
                                     for e in F.elements()})
                  for i, F in enumerate(family)]
    return P, injections


def product(F: Presheaf, G: Presheaf):
    """Binary product, computed pointwise.  Returns (P, proj1, proj2)."""
    cat = F.cat
    fibers = {o: tuple("(%s,%s)" % (a, b)
                       for a in F.fibers[o] for b in G.fibers[o])
              for o in cat.objects}
    action = {}
    for f in cat.arrows:
        for a in F.fibers[cat.cod[f]]:
            for b in G.fibers[cat.cod[f]]:
                action[("(%s,%s)" % (a, b), f)] = \
                    "(%s,%s)" % (F.action[(a, f)], G.action[(b, f)])
    P = Presheaf(cat, fibers, action)
    pairs = [(a, b) for o in cat.objects
             for a in F.fibers[o] for b in G.fibers[o]]
    p1 = PresheafMap(P, F, {"(%s,%s)" % (a, b): a for a, b in pairs})
    p2 = PresheafMap(P, G, {"(%s,%s)" % (a, b): b for a, b in pairs})
    return P, p1, p2


# -- representables and Yoneda ----------------------------------------------


def representable(cat: FinCategory, B) -> Presheaf:
    """R_B with R_B(A) = Hom(A, B) and action by precomposition."""
    if B not in cat.objects:
        raise KeyError(B)
    fibers = {A: cat.hom(A, B) for A in cat.objects}
    action = {}
    for g in cat.arrows_into[B]:
        for f in cat.arrows_into[cat.dom[g]]:
            action[(g, f)] = cat.compose(g, f)
    return Presheaf(cat, fibers, action)


def representable_on_arrow(cat: FinCategory, h) -> PresheafMap:
    """R_h : R_{dom h} -> R_{cod h}, post-composition with h."""
    B, D = cat.dom[h], cat.cod[h]
    RB, RD = representable(cat, B), representable(cat, D)
    return PresheafMap(RB, RD, {g: cat.compose(h, g)
                                for g in RB.elements()})


def yoneda_to_element(eta: PresheafMap, B):
    """Nat(R_B, F) -> F(B): evaluate at the identity."""
    return eta.eta[eta.source.cat.identity[B]]


def yoneda_from_element(F: Presheaf, B, s) -> PresheafMap:
    """F(B) -> Nat(R_B, F): s goes to (g -> s·g)."""
    RB = representable(F.cat, B)
    return PresheafMap(RB, F, {g: F.action[(s, g)] for g in RB.elements()})


def yoneda_bijection(F: Presheaf, B):
    """Both directions of Nat(R_B, F) ≅ F(B), verified to round-trip."""
    transforms = enumerate_presheaf_maps(representable(F.cat, B), F)
    for eta in transforms:
        s = yoneda_to_element(eta, B)
        if yoneda_from_element(F, B, s) != eta:
            raise AssertionError("Yoneda round-trip failed")
    for s in F.fiber(B):
        if yoneda_to_element(yoneda_from_element(F, B, s), B) != s:
            raise AssertionError("Yoneda round-trip failed")
    return yoneda_to_element, yoneda_from_element


# -- category of elements and the colimit decomposition ---------------------


def category_of_elements(F: Presheaf):
    """El(F): objects are (B, s) pairs; arrow f:(A,t)->(B,s) iff s·f = t.

    Returns (category, object_label, arrow_label) with
    object_label: id -> (B, s) and arrow_label: id -> (f, (A,t), (B,s)).
    """
    cat = F.cat
    objs = [(B, s) for B in cat.objects for s in F.fibers[B]]
    obj_id = {p: "el(%s,%s)" % p for p in objs}
    arrows, dom, cod, label = [], {}, {}, {}
    for (B, s) in objs:
        for f in cat.arrows_into[B]:
            t = F.action[(s, f)]
            aid = "ar(%s,%s,%s)" % (f, s, B)
            arrows.append(aid)
            dom[aid] = obj_id[(cat.dom[f], t)]
            cod[aid] = obj_id[(B, s)]
            label[aid] = (f, (cat.dom[f], t), (B, s))
    identity = {obj_id[(B, s)]: "ar(%s,%s,%s)" % (cat.identity[B], s, B)
                for (B, s) in objs}
    compose = {}
    for g in arrows:
        for f in arrows:
            if dom[g] == cod[f]:
                gf_arrow = cat.compose(label[g][0], label[f][0])
                (B, s) = label[g][2]
                compose[(g, f)] = "ar(%s,%s,%s)" % (gf_arrow, s, B)
    C_el = validate_category(tuple(obj_id[p] for p in objs), tuple(arrows),
                             dom, cod, identity, compose)
    return C_el, {v: k for k, v in obj_id.items()}, label


def colimit_of_representables_check(F: Presheaf, G: Presheaf) -> bool:
    """Check the canonical cocone on El(F) is colimiting, tested against G.

    A cocone on the diagram (B,s) -> R_B with vertex G is a family
    t_(B,s) in G(B) with t·f compatibility; each must factor uniquely
    through F via the canonical cocone (which is s -> s itself).
    """
    cat = F.cat
    objs = [(B, s) for B in cat.objects for s in F.fibers[B]]
    at = {p: i for i, p in enumerate(objs)}
    # every cocone with vertex G: t_(B,s)·f = t_(A, s·f) for f: A -> B
    checks = _equations([(at[(B, s)], f, at[(cat.dom[f], F.action[(s, f)])])
                         for (B, s) in objs for f in cat.arrows_into[B]],
                        G.action)
    homs = enumerate_presheaf_maps(F, G)
    n_cocones = 0
    for t in assignments([G.fiber(B) for (B, s) in objs], checks):
        n_cocones += 1
        # unique factorization: exactly one eta with eta(s) = t_(B,s)
        factors = [eta for eta in homs
                   if all(eta.eta[s] == t[i] for i, (B, s) in enumerate(objs))]
        if len(factors) != 1:
            return False
    return n_cocones == len(homs)


def generator_property_check(F: Presheaf, G: Presheaf) -> bool:
    """Representables separate maps: eta != theta admits a distinguishing
    nu: R_B -> F with eta∘nu != theta∘nu."""
    maps = enumerate_presheaf_maps(F, G)
    for eta in maps:
        for theta in maps:
            if eta == theta:
                continue
            found = False
            for B in F.cat.objects:
                for s in F.fiber(B):
                    nu = yoneda_from_element(F, B, s)
                    if eta.compose(nu) != theta.compose(nu):
                        found = True
                        break
                if found:
                    break
            if not found:
                return False
    return True


# -- Kan extensions along a functor u : C -> C' ------------------------------


def _restricted_id(c, e) -> str:
    """Id of e ∈ F(u(c)) as an element of (u^*F)(c); keeps fibers
    disjoint."""
    return "%s|%s" % (c, e)


def _restricted_elem(elem_id: str) -> str:
    """The element of F(u(c)) that a (u^*F)(c) id names."""
    return elem_id.split("|", 1)[1]


def _transformation_id(cp, t) -> str:
    """Id of the element of (u_*G)(c') with assignment table t."""
    return "{%s;%s}" % (cp, ",".join(
        "%s|%s>%s" % (c, a, v) for (c, a), v in sorted(t.items())))


def u_star(u: FinFunctor, F: Presheaf) -> Presheaf:
    """Restriction u^*F on C of a presheaf F on C': (u^*F)(c) = F(u(c)).

    Element ids are _restricted_id(c, elem).
    """
    C = u.source
    fibers = {c: tuple(_restricted_id(c, e)
                       for e in F.fibers[u.on_object(c)])
              for c in C.objects}
    action = {}
    for f in C.arrows:
        uf = u.on_arrow(f)
        for e in F.fibers[u.on_object(C.cod[f])]:
            action[(_restricted_id(C.cod[f], e), f)] = \
                _restricted_id(C.dom[f], F.action[(e, uf)])
    return Presheaf(C, fibers, action)


def u_shriek(u: FinFunctor, G: Presheaf):
    """Left Kan extension u_!G on C' (left adjoint to u^*).

    (u_!G)(c') = classes of triples (c, a: c' -> u(c), s in G(c)) under the
    coend relation; classes are named by their least member.
    Returns (presheaf, class_of) where class_of(c', c, a, s) gives the id.
    """
    C, Cp = u.source, u.target
    raw = {cp: [(c, a, s) for c in C.objects
                for a in Cp.hom(cp, u.on_object(c))
                for s in G.fibers[c]]
           for cp in Cp.objects}
    find, union = _union_find((cp,) + t for cp, triples in raw.items()
                              for t in triples)
    for h in C.arrows:
        c1, c2 = C.dom[h], C.cod[h]
        uh = u.on_arrow(h)
        for cp in Cp.objects:
            for b in Cp.hom(cp, u.on_object(c1)):
                for s in G.fibers[c2]:
                    union((cp, c1, b, G.action[(s, h)]),
                          (cp, c2, Cp.compose(uh, b), s))

    def name(key):
        r = find(key)
        return "[%s;%s;%s;%s]" % r

    fibers = {cp: tuple(sorted({name((cp,) + t) for t in raw[cp]}))
              for cp in Cp.objects}
    rep_of_name = {}
    for cp in Cp.objects:
        for t in raw[cp]:
            rep_of_name[name((cp,) + t)] = (cp,) + t
    action = {}
    for f in Cp.arrows:
        cp_from, cp_to = Cp.dom[f], Cp.cod[f]
        for nm in fibers[cp_to]:
            (_, c, a, s) = rep_of_name[nm]
            action[(nm, f)] = name((cp_from, c, Cp.compose(a, f), s))
    P = Presheaf(Cp, fibers, action)

    def class_of(cp, c, a, s):
        return name((cp, c, a, s))

    return P, class_of


def u_lower_star(u: FinFunctor, G: Presheaf):
    """Right Kan extension u_*G on C' (right adjoint to u^*).

    (u_*G)(c') = Nat(u^*(R_{c'}), G); elements are named by
    _transformation_id.  Returns (presheaf, trans_of) where
    trans_of(elem_id) recovers the assignment {(c, arrow): elem of G}.
    """
    C, Cp = u.source, u.target
    tables = {}     # cp -> list of assignment dicts {(c, a): g_elem}
    for cp in Cp.objects:
        keys = [(c, a) for c in C.objects
                for a in Cp.hom(u.on_object(c), cp)]
        at = {k: i for i, k in enumerate(keys)}
        checks = _equations([(at[(C.cod[f], a)], f,
                              at[(C.dom[f], Cp.compose(a, u.on_arrow(f)))])
                             for f in C.arrows
                             for a in Cp.hom(u.on_object(C.cod[f]), cp)],
                            G.action)
        tables[cp] = [dict(zip(keys, x)) for x in assignments(
            [G.fibers[c] for (c, a) in keys], checks)]

    fibers = {cp: tuple(_transformation_id(cp, t) for t in tables[cp])
              for cp in Cp.objects}
    trans = {_transformation_id(cp, t): t
             for cp in Cp.objects for t in tables[cp]}
    action = {}
    for g in Cp.arrows:
        cpp, cp = Cp.dom[g], Cp.cod[g]
        for t in tables[cp]:
            t2 = {(c, b): t[(c, Cp.compose(g, b))]
                  for c in C.objects
                  for b in Cp.hom(u.on_object(c), cpp)}
            action[(_transformation_id(cp, t), g)] = \
                _transformation_id(cpp, t2)
    P = Presheaf(Cp, fibers, action)

    def trans_of(elem_id):
        return trans[elem_id]

    return P, trans_of


# adjunction structure maps


def unit_shriek(u: FinFunctor, G: Presheaf) -> PresheafMap:
    """G -> u^*(u_!G)."""
    P, class_of = u_shriek(u, G)
    R = u_star(u, P)
    C, Cp = u.source, u.target
    eta = {}
    for c in C.objects:
        for s in G.fibers[c]:
            uc = u.on_object(c)
            eta[s] = _restricted_id(c, class_of(uc, c, Cp.identity[uc], s))
    return PresheafMap(G, R, eta).check()


def counit_shriek(u: FinFunctor, F: Presheaf) -> PresheafMap:
    """u_!(u^*F) -> F."""
    G = u_star(u, F)
    P, class_of = u_shriek(u, G)
    Cp = u.target
    eta = {}
    seen = {}
    for cp in Cp.objects:
        for c in u.source.objects:
            for a in Cp.hom(cp, u.on_object(c)):
                for s in G.fibers[c]:
                    nm = class_of(cp, c, a, s)
                    val = F.action[(_restricted_elem(s), a)]
                    if nm in seen and seen[nm] != val:
                        raise AssertionError("counit ill-defined")
                    seen[nm] = val
                    eta[nm] = val
    return PresheafMap(P, F, eta).check()


def unit_star(u: FinFunctor, F: Presheaf) -> PresheafMap:
    """F -> u_*(u^*F)."""
    G = u_star(u, F)
    P, _ = u_lower_star(u, G)
    C, Cp = u.source, u.target
    eta = {}
    for cp in Cp.objects:
        for s in F.fibers[cp]:
            t = {(c, a): _restricted_id(c, F.action[(s, a)])
                 for c in C.objects
                 for a in Cp.hom(u.on_object(c), cp)}
            eta[s] = _transformation_id(cp, t)
    return PresheafMap(F, P, eta).check()


def counit_star(u: FinFunctor, G: Presheaf) -> PresheafMap:
    """u^*(u_*G) -> G."""
    P, trans_of = u_lower_star(u, G)
    R = u_star(u, P)
    C, Cp = u.source, u.target
    eta = {}
    for c in C.objects:
        uc = u.on_object(c)
        for e in R.fibers[c]:
            t = trans_of(_restricted_elem(e))
            eta[e] = t[(c, Cp.identity[uc])]
    return PresheafMap(R, G, eta).check()


def adjunction_check(u: FinFunctor, F: Presheaf, G: Presheaf) -> bool:
    """Hom-set bijections |Hom(u_!G,F)|=|Hom(G,u^*F)| and
    |Hom(u^*F,G)|=|Hom(F,u_*G)| plus well-defined (co)units."""
    P_sh, _ = u_shriek(u, G)
    P_st, _ = u_lower_star(u, G)
    rF = u_star(u, F)
    left = len(enumerate_presheaf_maps(P_sh, F)) == \
        len(enumerate_presheaf_maps(G, rF))
    right = len(enumerate_presheaf_maps(rF, G)) == \
        len(enumerate_presheaf_maps(F, P_st))
    unit_shriek(u, G)
    counit_shriek(u, F)
    unit_star(u, F)
    counit_star(u, G)
    return left and right
