"""Finite categories, functors, and natural transformations.

Everything is an explicit finite table: objects and arrows are opaque
string ids, composition is a dictionary, and validation checks every axiom
instance exhaustively, reporting all violations at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from . import ErrorList, Failure


class InvalidCategory(ErrorList):
    """Raised by validate_category."""


@dataclass(frozen=True, eq=False)
class FinCategory:
    objects: tuple
    arrows: tuple
    dom: dict
    cod: dict
    identity: dict      # object -> identity arrow
    compose_table: dict  # (g, f) -> g∘f, defined iff dom(g) == cod(f)

    def _key(self):
        return (self.objects, self.arrows,
                tuple(sorted(self.dom.items())),
                tuple(sorted(self.cod.items())),
                tuple(sorted(self.identity.items())),
                tuple(sorted(self.compose_table.items())))

    def __eq__(self, other):
        return isinstance(other, FinCategory) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def compose(self, g, f):
        return self.compose_table[(g, f)]

    def id_arrow(self, obj):
        return self.identity[obj]

    def is_identity(self, arrow) -> bool:
        return self.identity.get(self.dom[arrow]) == arrow and \
            self.dom[arrow] == self.cod[arrow]

    @cached_property
    def arrows_into(self):
        """Object -> the arrows ending there, in `arrows` order."""
        return MappingProxyType(_arrows_into(self.objects, self.arrows,
                                             self.cod))

    def hom(self, a, b):
        return tuple(f for f in self.arrows_into.get(b, ())
                     if self.dom[f] == a)

    def composable(self, g, f) -> bool:
        return self.dom[g] == self.cod[f]


def _arrows_into(objects, arrows, cod):
    """Object -> the arrows ending there, in `arrows` order; a composable
    pair (g, f) is g with an f from the entry for dom g."""
    into = {o: [] for o in objects}
    for f in arrows:
        into[cod[f]].append(f)
    return {o: tuple(fs) for o, fs in into.items()}


def validate_category(objects, arrows, dom, cod, identity,
                      compose) -> FinCategory:
    """Build a FinCategory, checking every axiom instance.

    Raises InvalidCategory carrying the full list of violations:
    ("EndpointMismatch", ...), ("MissingComposite", g, f),
    ("NonAssociative", (h, g, f)), ("BadIdentity", obj).
    """
    objects = tuple(objects)
    arrows = tuple(arrows)
    errors = []
    for f in arrows:
        if dom.get(f) not in objects or cod.get(f) not in objects:
            errors.append(("EndpointMismatch", f, dom.get(f), cod.get(f)))
    if errors:
        raise InvalidCategory(errors)
    cat = FinCategory(objects, arrows, dict(dom), dict(cod),
                      dict(identity), dict(compose))
    into = cat.arrows_into
    for (g, f), gf in compose.items():
        if g not in dom or f not in dom:
            errors.append(("EndpointMismatch", g, f, gf))
        elif dom[g] != cod[f]:
            errors.append(("EndpointMismatch", g, f, gf))
        elif gf not in dom:
            errors.append(("EndpointMismatch", g, f, gf))
        elif dom[gf] != dom[f] or cod[gf] != cod[g]:
            errors.append(("EndpointMismatch", g, f, gf))
    for g in arrows:
        for f in into[dom[g]]:
            if (g, f) not in compose:
                errors.append(("MissingComposite", g, f))
    for obj in objects:
        e = identity.get(obj)
        if e is None or e not in dom or dom[e] != obj or cod[e] != obj:
            errors.append(("BadIdentity", obj))
            continue
        for f in arrows:
            if cod[f] == obj and compose.get((e, f)) != f:
                errors.append(("BadIdentity", obj))
                break
            if dom[f] == obj and compose.get((f, e)) != f:
                errors.append(("BadIdentity", obj))
                break
    if not errors:
        for h in arrows:
            for g in into[dom[h]]:
                hg = compose[(h, g)]
                for f in into[dom[g]]:
                    if compose[(hg, f)] != compose[(h, compose[(g, f)])]:
                        errors.append(("NonAssociative", (h, g, f)))
    if errors:
        raise InvalidCategory(errors)
    return cat


# -- builders --------------------------------------------------------------


def terminal_category() -> FinCategory:
    return validate_category(("*",), ("id*",), {"id*": "*"}, {"id*": "*"},
                             {"*": "id*"}, {("id*", "id*"): "id*"})


def walking_arrow() -> FinCategory:
    dom = {"id0": "0", "id1": "1", "a": "0"}
    cod = {"id0": "0", "id1": "1", "a": "1"}
    compose = {("id0", "id0"): "id0", ("id1", "id1"): "id1",
               ("a", "id0"): "a", ("id1", "a"): "a"}
    return validate_category(("0", "1"), ("id0", "id1", "a"), dom, cod,
                             {"0": "id0", "1": "id1"}, compose)


def discrete_category(objects) -> FinCategory:
    objects = tuple(objects)
    ids = {o: "id_%s" % o for o in objects}
    dom = {ids[o]: o for o in objects}
    return validate_category(objects, tuple(ids[o] for o in objects),
                             dict(dom), dict(dom), ids,
                             {(ids[o], ids[o]): ids[o] for o in objects})


def poset_category(elements, leq) -> FinCategory:
    """Category of a finite poset: one arrow a->b whenever leq(a, b)."""
    elements = tuple(elements)
    arrows, dom, cod = [], {}, {}
    for a in elements:
        for b in elements:
            if leq(a, b):
                f = "%s<=%s" % (a, b)
                arrows.append(f)
                dom[f] = a
                cod[f] = b
    identity = {a: "%s<=%s" % (a, a) for a in elements}
    into = _arrows_into(elements, arrows, cod)
    compose = {(g, f): "%s<=%s" % (dom[f], cod[g])
               for g in arrows for f in into[dom[g]]}
    return validate_category(elements, tuple(arrows), dom, cod, identity,
                             compose)


def one_object_group(elements, mul, unit, name="*") -> FinCategory:
    """One-object category from a finite group (or monoid) table."""
    elements = tuple(elements)
    dom = {e: name for e in elements}
    compose = {(g, f): mul(g, f) for g in elements for f in elements}
    return validate_category((name,), elements, dom, dict(dom),
                             {name: unit}, compose)


def opposite(C: FinCategory) -> FinCategory:
    return FinCategory(C.objects, C.arrows, dict(C.cod), dict(C.dom),
                       dict(C.identity),
                       {(f, g): h for (g, f), h in C.compose_table.items()})


# -- Hom-set search ----------------------------------------------------------


def assignments(choices, checks=()):
    """Every tuple x with x[i] in choices[i] that passes every check, in
    itertools.product order.

    A check is a pair (i, test): test(x) reads only x[0..i] and runs as
    soon as x[i] is chosen, so a prefix that fails it is never extended.
    No positions give one empty tuple; an empty choice gives none, and
    then `checks` (any iterable) is not read, so a generator of checks
    costs nothing there.  The search backtracks iteratively, so its depth
    is not bounded by the recursion limit.
    """
    choices = [tuple(c) for c in choices]
    if not all(choices):
        return
    n = len(choices)
    tests = [[] for _ in range(n)]
    for i, test in checks:
        tests[i].append(test)
    x = [None] * n
    nxt = [0] * n       # index of the next candidate at each position
    i = 0
    while i >= 0:
        if i == n:
            yield tuple(x)
            i -= 1
        elif nxt[i] == len(choices[i]):
            nxt[i] = 0
            i -= 1
        else:
            x[i] = choices[i][nxt[i]]
            nxt[i] += 1
            for test in tests[i]:
                if not test(x):
                    break
            else:
                i += 1


# -- functors --------------------------------------------------------------


class InvalidFunctor(Failure):
    pass


@dataclass(frozen=True, eq=False)
class FinFunctor:
    source: FinCategory
    target: FinCategory
    arrow_map: dict

    def _key(self):
        return (self.source, self.target,
                tuple(sorted(self.arrow_map.items())))

    def __eq__(self, other):
        return isinstance(other, FinFunctor) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def object_map(self) -> dict:
        # derived from where identity arrows go
        return {o: self.target.dom[self.arrow_map[self.source.identity[o]]]
                for o in self.source.objects}

    def on_object(self, obj):
        return self.target.dom[self.arrow_map[self.source.identity[obj]]]

    def on_arrow(self, f):
        return self.arrow_map[f]

    def check(self) -> "FinFunctor":
        C, D, m = self.source, self.target, self.arrow_map
        for f in C.arrows:
            if f not in m or m[f] not in D.dom:
                raise InvalidFunctor("missing or bad image for %r" % f)
        obj = self.object_map
        for o in C.objects:
            if m[C.identity[o]] != D.identity[obj[o]]:
                raise InvalidFunctor("identity not preserved at %r" % o)
        for f in C.arrows:
            if D.dom[m[f]] != obj[C.dom[f]] or D.cod[m[f]] != obj[C.cod[f]]:
                raise InvalidFunctor("endpoints not preserved for %r" % f)
        for g in C.arrows:
            for f in C.arrows_into[C.dom[g]]:
                if m[C.compose(g, f)] != D.compose(m[g], m[f]):
                    raise InvalidFunctor(
                        "composition not preserved at (%r, %r)" % (g, f))
        return self


def identity_functor(C: FinCategory) -> FinFunctor:
    return FinFunctor(C, C, {f: f for f in C.arrows})


def compose_functors(G: FinFunctor, F: FinFunctor) -> FinFunctor:
    if F.target != G.source:
        raise InvalidFunctor("functors not composable")
    return FinFunctor(F.source, G.target,
                      {f: G.arrow_map[F.arrow_map[f]] for f in F.arrow_map})


def enumerate_functors(C: FinCategory, D: FinCategory):
    """All functors C -> D, in a deterministic order.

    One search position per object of C and then one per non-identity
    arrow, each holding its image; identities go to identities.
    """
    n = len(C.objects)
    obj = {o: i for i, o in enumerate(C.objects)}
    non_id = [f for f in C.arrows if not C.is_identity(f)]
    at = {e: obj[o] for o, e in C.identity.items()}
    at.update((f, n + k) for k, f in enumerate(non_id))

    def image(x, f):
        i = at[f]
        return x[i] if i >= n else D.identity[x[i]]

    checks = [(at[f], lambda x, i=at[f], a=obj[C.dom[f]], b=obj[C.cod[f]]:
               D.dom[x[i]] == x[a] and D.cod[x[i]] == x[b])
              for f in non_id]
    # pairs with an identity factor hold by D's identity laws
    checks += [(max(at[g], at[f], at[h]), lambda x, g=g, f=f, h=h:
                image(x, h) == D.compose(image(x, g), image(x, f)))
               for (g, f), h in C.compose_table.items()
               if at[g] >= n and at[f] >= n]
    out = []
    for x in assignments([D.objects] * n + [D.arrows] * len(non_id),
                         checks):
        m = {C.identity[o]: D.identity[x[i]] for o, i in obj.items()}
        m.update(zip(non_id, x[n:]))
        out.append(FinFunctor(C, D, m))
    return out


# -- natural transformations ----------------------------------------------


class InvalidNatTrans(Failure):
    pass


@dataclass(frozen=True, eq=False)
class FinNatTrans:
    source: FinFunctor
    target: FinFunctor
    components: dict    # object of C -> arrow of D

    def _key(self):
        return (self.source, self.target,
                tuple(sorted(self.components.items())))

    def __eq__(self, other):
        return isinstance(other, FinNatTrans) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def check(self) -> "FinNatTrans":
        F, G = self.source, self.target
        if F.source != G.source or F.target != G.target:
            raise InvalidNatTrans("functors not parallel")
        C, D = F.source, F.target
        for o in C.objects:
            c = self.components.get(o)
            if c is None or D.dom[c] != F.on_object(o) or \
                    D.cod[c] != G.on_object(o):
                raise InvalidNatTrans("bad component at %r" % o)
        for f in C.arrows:
            a, b = C.dom[f], C.cod[f]
            left = D.compose(self.components[b], F.on_arrow(f))
            right = D.compose(G.on_arrow(f), self.components[a])
            if left != right:
                raise InvalidNatTrans("naturality fails at %r" % f)
        return self


def identity_nat_trans(F: FinFunctor) -> FinNatTrans:
    D = F.target
    return FinNatTrans(F, F, {o: D.identity[F.on_object(o)]
                              for o in F.source.objects})


def vertical_compose(eta2: FinNatTrans, eta1: FinNatTrans) -> FinNatTrans:
    if eta1.target != eta2.source:
        raise InvalidNatTrans("transformations not composable")
    D = eta1.source.target
    comp = {o: D.compose(eta2.components[o], eta1.components[o])
            for o in eta1.source.source.objects}
    return FinNatTrans(eta1.source, eta2.target, comp)


def whisker_left(H: FinFunctor, eta: FinNatTrans) -> FinNatTrans:
    """H ∘ eta : H∘F => H∘G for eta : F => G with target(F) = source(H)."""
    if eta.source.target != H.source:
        raise InvalidNatTrans("whiskering endpoints mismatch")
    return FinNatTrans(
        compose_functors(H, eta.source), compose_functors(H, eta.target),
        {o: H.on_arrow(c) for o, c in eta.components.items()})


def whisker_right(eta: FinNatTrans, H: FinFunctor) -> FinNatTrans:
    """eta ∘ H : F∘H => G∘H for eta : F => G with target(H) = source(F)."""
    if H.target != eta.source.source:
        raise InvalidNatTrans("whiskering endpoints mismatch")
    return FinNatTrans(
        compose_functors(eta.source, H), compose_functors(eta.target, H),
        {o: eta.components[H.on_object(o)] for o in H.source.objects})


def horizontal_compose(eta2: FinNatTrans, eta1: FinNatTrans) -> FinNatTrans:
    """Godement product eta2 * eta1 : F2∘F1 => G2∘G1."""
    return vertical_compose(whisker_right(eta2, eta1.target),
                            whisker_left(eta2.source, eta1))


def enumerate_nat_trans(F: FinFunctor, G: FinFunctor):
    """All natural transformations F => G, in a deterministic order."""
    C, D = F.source, F.target
    at = {o: i for i, o in enumerate(C.objects)}
    checks = [(max(at[C.dom[f]], at[C.cod[f]]),
               lambda x, a=at[C.dom[f]], b=at[C.cod[f]], Ff=F.on_arrow(f),
               Gf=G.on_arrow(f):
               D.compose(x[b], Ff) == D.compose(Gf, x[a]))
              for f in C.arrows]
    return [FinNatTrans(F, G, dict(zip(C.objects, x)))
            for x in assignments([D.hom(F.on_object(o), G.on_object(o))
                                  for o in C.objects], checks)]


def functor_category(C: FinCategory, D: FinCategory):
    """The category D^C of all functors C -> D.

    Returns (category, functor_of_id, nat_trans_of_id): objects are ids
    "F0", "F1", ... in enumeration order; arrows are ids "n0", "n1", ....
    """
    functors = enumerate_functors(C, D)
    obj_ids = ["F%d" % i for i in range(len(functors))]
    of_id = dict(zip(obj_ids, functors))
    id_of = {F: oid for oid, F in of_id.items()}
    arrows, dom, cod = [], {}, {}
    trans_of_id = {}
    id_of_trans = {}
    for F in functors:
        for G in functors:
            for eta in enumerate_nat_trans(F, G):
                aid = "n%d" % len(arrows)
                arrows.append(aid)
                dom[aid] = id_of[F]
                cod[aid] = id_of[G]
                trans_of_id[aid] = eta
                id_of_trans[eta] = aid
    identity = {id_of[F]: id_of_trans[identity_nat_trans(F)]
                for F in functors}
    into = _arrows_into(obj_ids, arrows, cod)
    compose = {(g, f): id_of_trans[vertical_compose(trans_of_id[g],
                                                    trans_of_id[f])]
               for g in arrows for f in into[dom[g]]}
    cat = validate_category(tuple(obj_ids), tuple(arrows), dom, cod,
                            identity, compose)
    return cat, of_id, trans_of_id
