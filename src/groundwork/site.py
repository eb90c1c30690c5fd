"""Grothendieck topologies on finite categories and sheaf machinery.

Covers are normalized to sieves (sets of arrows into an object closed under
precomposition).  On a finite site every object has a minimum covering
sieve (finite intersections of covers cover), which makes the plus
construction canonical: F+(A) is the set of matching families over that
minimum cover.  Sheafification is the plus construction applied twice.

Also provides finite topological spaces, their open-set sites, and the
comparison-lemma hypothesis checks for a functor between sites.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import ErrorList, Failure, InputError, ResourceCap
from .fincat import FinCategory, FinFunctor, assignments, poset_category
from .presheaf import (Presheaf, PresheafMap, _equations, counit_star,
                       enumerate_presheaf_maps, u_star, unit_star,
                       validate_presheaf)

# all_sieves refuses an object with more than 16 arrows into it
SIEVE_CAP = 1 << 16


class InvalidSieve(Failure):
    pass


class InvalidTopology(ErrorList):
    pass


class ResourceExceeded(ResourceCap):
    pass


@dataclass(frozen=True)
class Sieve:
    cat: FinCategory
    at: str
    arrows: frozenset

    def __post_init__(self):
        C = self.cat
        for f in self.arrows:
            if C.cod[f] != self.at:
                raise InvalidSieve("arrow %r does not end at %r"
                                   % (f, self.at))
            for g in C.arrows_into[C.dom[f]]:
                if C.compose(f, g) not in self.arrows:
                    raise InvalidSieve(
                        "not closed under precomposition at (%r, %r)"
                        % (f, g))

    def contains(self, f) -> bool:
        return f in self.arrows

    def pullback(self, h) -> "Sieve":
        """h*S = {g : h∘g in S} for h with cod h = self.at."""
        C = self.cat
        if C.cod[h] != self.at:
            raise InvalidSieve("pullback arrow must end at %r" % self.at)
        arrows = frozenset(g for g in C.arrows_into[C.dom[h]]
                           if C.compose(h, g) in self.arrows)
        return Sieve(C, C.dom[h], arrows)

    def is_maximal(self) -> bool:
        return self.arrows.issuperset(self.cat.arrows_into[self.at])


def maximal_sieve(cat: FinCategory, A) -> Sieve:
    return Sieve(cat, A, frozenset(cat.arrows_into[A]))


def sieve_generate(cat: FinCategory, A, family) -> Sieve:
    """Smallest sieve at A containing the given arrows into A."""
    family = list(family)
    for f in family:
        if cat.cod[f] != A:
            raise InvalidSieve("mixed codomains: %r does not end at %r"
                               % (f, A))
    arrows = set(family)
    for f in family:
        for g in cat.arrows_into[cat.dom[f]]:
            arrows.add(cat.compose(f, g))
    return Sieve(cat, A, frozenset(arrows))


def all_sieves(cat: FinCategory, A):
    """Every sieve at A, by filtering subsets of arrows into A."""
    into = sorted(cat.arrows_into[A])
    if 1 << len(into) > SIEVE_CAP:
        raise ResourceExceeded("too many arrows into %r to enumerate "
                               "sieves" % A)
    out = []
    for r in range(len(into) + 1):
        for subset in itertools.combinations(into, r):
            try:
                out.append(Sieve(cat, A, frozenset(subset)))
            except InvalidSieve:
                pass
    return out


@dataclass(frozen=True)
class GrothendieckTopology:
    cat: FinCategory
    covers: dict        # object -> frozenset of Sieves

    def __eq__(self, other):
        return isinstance(other, GrothendieckTopology) and \
            self.cat == other.cat and self.covers == other.covers

    def __hash__(self):
        return hash((self.cat,
                     tuple(sorted((o, len(s)) for o, s in
                                  self.covers.items()))))

    def covering(self, A):
        return self.covers[A]

    def is_cover(self, S: Sieve) -> bool:
        return S in self.covers[S.at]

    def minimum_cover(self, A) -> Sieve:
        """Intersection of all covering sieves at A (itself a cover)."""
        sieves = list(self.covers[A])
        arrows = frozenset.intersection(*(S.arrows for S in sieves))
        return Sieve(self.cat, A, arrows)


def validate_topology(cat: FinCategory, covers) -> GrothendieckTopology:
    """Exhaustive check of maximality, stability, transitivity.

    covers: map object -> iterable of Sieves.  Error records:
    ("NoMaximalSieve", obj), ("UnstablePullback", sieve, arrow),
    ("TransitivityFailure", obj, sieve).
    """
    covers = {A: frozenset(covers.get(A, ())) for A in cat.objects}
    errors = []
    for A in cat.objects:
        if maximal_sieve(cat, A) not in covers[A]:
            errors.append(("NoMaximalSieve", A))
    for A in cat.objects:
        for S in covers[A]:
            for h in cat.arrows_into[A]:
                if S.pullback(h) not in covers[cat.dom[h]]:
                    errors.append(("UnstablePullback", S, h))
    for A in cat.objects:
        for S in all_sieves(cat, A):
            if S in covers[A]:
                continue
            has_cover = False
            for T in covers[A]:
                if all(S.pullback(h) in covers[cat.dom[h]]
                       for h in T.arrows):
                    has_cover = True
                    break
            if has_cover:
                errors.append(("TransitivityFailure", A, S))
    if errors:
        raise InvalidTopology(errors)
    return GrothendieckTopology(cat, covers)


def trivial_topology(cat: FinCategory) -> GrothendieckTopology:
    return GrothendieckTopology(
        cat, {A: frozenset([maximal_sieve(cat, A)]) for A in cat.objects})


# -- sheaf condition ---------------------------------------------------------


def matching_families(F: Presheaf, S: Sieve):
    """All matching families for F over the sieve S, as sorted dicts.

    One search position per arrow f of S; each g into dom f checks
    x[f∘g] = x[f]·g.
    """
    C = F.cat
    arrows = sorted(S.arrows)
    at = {f: i for i, f in enumerate(arrows)}
    checks = _equations([(at[f], g, at[C.compose(f, g)]) for f in arrows
                         for g in C.arrows_into[C.dom[f]]], F.action)
    return [dict(zip(arrows, x)) for x in assignments(
        [F.fiber(C.dom[f]) for f in arrows], checks)]


def restriction_family(F: Presheaf, S: Sieve, s):
    """The family induced by a section s in F(S.at)."""
    return {f: F.act(s, f) for f in sorted(S.arrows)}


def is_sheaf(F: Presheaf, J: GrothendieckTopology):
    """(verdict, witness): the equalizer condition on every cover.

    witness is None on success, otherwise (object, sieve, kind, data) with
    kind "no-amalgamation" or "non-unique".
    """
    for A in F.cat.objects:
        for S in J.covering(A):
            fams = matching_families(F, S)
            seen = {}
            for s in F.fiber(A):
                key = tuple(sorted(restriction_family(F, S, s).items()))
                if key in seen:
                    return False, (A, S, "non-unique", (seen[key], s))
                seen[key] = s
            for x in fams:
                if tuple(sorted(x.items())) not in seen:
                    return False, (A, S, "no-amalgamation", x)
    return True, None


# -- sheafification ----------------------------------------------------------


def _family_id(A, x):
    return "<%s;%s>" % (A, ",".join("%s:%s" % kv for kv in
                                    sorted(x.items())))


def plus_construction(F: Presheaf, J: GrothendieckTopology):
    """One application of the plus construction.  Returns (F+, i)."""
    C = F.cat
    mins = {A: J.minimum_cover(A) for A in C.objects}
    fams = {A: matching_families(F, mins[A]) for A in C.objects}
    fibers = {A: tuple(_family_id(A, x) for x in fams[A])
              for A in C.objects}
    of_id = {_family_id(A, x): x for A in C.objects for x in fams[A]}
    action = {}
    for h in C.arrows:
        B, A = C.dom[h], C.cod[h]
        for x in fams[A]:
            y = {g: x[C.compose(h, g)] for g in sorted(mins[B].arrows)}
            action[(_family_id(A, x), h)] = _family_id(B, y)
    P = validate_presheaf(C, fibers, action)
    eta = {}
    for A in C.objects:
        for s in F.fiber(A):
            eta[s] = _family_id(A, restriction_family(F, mins[A], s))
    i = PresheafMap(F, P, eta).check()
    return P, i


def sheafify(F: Presheaf, J: GrothendieckTopology):
    """Associated sheaf via the plus construction applied twice.

    Returns (aF, i: F -> aF)."""
    P1, i1 = plus_construction(F, J)
    P2, i2 = plus_construction(P1, J)
    return P2, i2.compose(i1)


def is_isomorphism(m: PresheafMap) -> bool:
    F, G = m.source, m.target
    for o in F.cat.objects:
        img = [m.eta[s] for s in F.fiber(o)]
        if len(set(img)) != len(img) or set(img) != set(G.fiber(o)):
            return False
    return True


def sheafify_universal_check(F: Presheaf, J: GrothendieckTopology,
                             S: Presheaf) -> bool:
    """Every map F -> S (S a sheaf) factors uniquely through F -> aF."""
    ok, _ = is_sheaf(S, J)
    if not ok:
        raise InputError("test target is not a sheaf")
    aF, i = sheafify(F, J)
    for m in enumerate_presheaf_maps(F, S):
        factors = [w for w in enumerate_presheaf_maps(aF, S)
                   if w.compose(i) == m]
        if len(factors) != 1:
            return False
    return True


# -- finite topological spaces ----------------------------------------------


class InvalidSpace(Failure):
    pass


def open_name(points) -> str:
    return "{%s}" % ",".join(sorted(points))


@dataclass(frozen=True)
class FiniteSpace:
    points: tuple
    opens: frozenset    # of frozensets of points

    def __post_init__(self):
        pts = frozenset(self.points)
        if frozenset() not in self.opens or pts not in self.opens:
            raise InvalidSpace("opens must contain the empty set and X")
        for U in self.opens:
            if not U <= pts:
                raise InvalidSpace("open set %r not within the points" % U)
            for V in self.opens:
                if U | V not in self.opens:
                    raise InvalidSpace("not closed under union")
                if U & V not in self.opens:
                    raise InvalidSpace("not closed under intersection")

    def minimal_open(self, p) -> frozenset:
        return frozenset.intersection(
            *(U for U in self.opens if p in U))

    def specialization_leq(self, p, q) -> bool:
        """p ≤ q iff p lies in every open containing q (q specializes)."""
        return p in self.minimal_open(q)

    def connected_components(self, U=None):
        """Partition of U (default X) into connected open pieces."""
        if U is None:
            U = frozenset(self.points)
        remaining = set(U)
        comps = []
        while remaining:
            p = min(remaining)
            comp = set(self.minimal_open(p))
            changed = True
            while changed:
                changed = False
                for q in list(remaining):
                    if q not in comp and (self.minimal_open(q) & comp):
                        comp |= self.minimal_open(q)
                        changed = True
            comp &= set(U)
            comps.append(frozenset(comp))
            remaining -= comp
        return sorted(comps, key=lambda c: sorted(c))


def space_from_minimal_opens(points, minimal_opens) -> FiniteSpace:
    """Generate the topology from a basis of minimal opens (one per point)."""
    basis = [frozenset(minimal_opens[p]) for p in points]
    opens = {frozenset(), frozenset(points)}
    for r in range(1, len(basis) + 1):
        for combo in itertools.combinations(range(len(basis)), r):
            opens.add(frozenset().union(*(basis[i] for i in combo)))
    return FiniteSpace(tuple(points), frozenset(opens))


def pseudo_circle() -> FiniteSpace:
    return space_from_minimal_opens(
        ("a", "b", "c", "d"),
        {"a": {"a"}, "b": {"b"}, "c": {"a", "b", "c"},
         "d": {"a", "b", "d"}})


def pseudo_sphere_6() -> FiniteSpace:
    return space_from_minimal_opens(
        ("a", "b", "c", "d", "e", "f"),
        {"a": {"a"}, "b": {"b"}, "c": {"a", "b", "c"},
         "d": {"a", "b", "d"},
         "e": {"a", "b", "c", "d", "e"},
         "f": {"a", "b", "c", "d", "f"}})


def discrete_space(points) -> FiniteSpace:
    pts = tuple(points)
    opens = frozenset(frozenset(c) for r in range(len(pts) + 1)
                      for c in itertools.combinations(pts, r))
    return FiniteSpace(pts, opens)


def indiscrete_space(points) -> FiniteSpace:
    pts = tuple(points)
    return FiniteSpace(pts, frozenset([frozenset(), frozenset(pts)]))


def open_poset_category(X: FiniteSpace) -> FinCategory:
    names = {open_name(U): U for U in X.opens}
    order = sorted(names)
    return poset_category(order, lambda a, b: names[a] <= names[b])


def site_from_finite_space(X: FiniteSpace):
    """(O(X), J) with J the open-cover topology (sieves with full union)."""
    C = open_poset_category(X)
    set_of = {open_name(U): U for U in X.opens}
    covers = {}
    for A in C.objects:
        target = set_of[A]
        sieves = []
        for S in all_sieves(C, A):
            union = frozenset().union(
                *(set_of[C.dom[f]] for f in S.arrows)) if S.arrows \
                else frozenset()
            if union == target:
                sieves.append(S)
        covers[A] = frozenset(sieves)
    return C, GrothendieckTopology(C, covers)


def is_sheaf_on_space(F: Presheaf, X: FiniteSpace):
    """Classical covering-family form of the sheaf condition on O(X).

    For every open U and every family of opens with union U, F(U) must be
    the equalizer of prod F(U_i) over prod F(U_i ∩ U_j).
    Returns (verdict, witness).
    """
    C = F.cat
    set_of = {open_name(U): U for U in X.opens}
    incl = {(C.dom[f], C.cod[f]): f for f in C.arrows}
    # (V, W) -> the inclusions of V ∩ W into V and into W
    meet = {(V, W): (incl[(I, V)], incl[(I, W)])
            for V in set_of for W in set_of
            for I in [open_name(set_of[V] & set_of[W])]}

    def agrees(combo, j):
        """Search check: x_j agrees with each earlier x_i on V_i ∩ V_j."""
        pairs = [(i, meet[(V, combo[j])]) for i, V in enumerate(combo[:j])]
        return lambda x: all(F.action[(x[i], v)] == F.action[(x[j], w)]
                             for i, (v, w) in pairs)

    for A in C.objects:
        U = set_of[A]
        below = [V for V in sorted(set_of) if set_of[V] <= U]
        for r in range(len(below) + 1):
            for combo in itertools.combinations(below, r):
                union = frozenset().union(*(set_of[V] for V in combo)) \
                    if combo else frozenset()
                if union != U:
                    continue
                compat = [tuple(sorted(zip(combo, x))) for x in assignments(
                    [F.fiber(V) for V in combo],
                    ((j, agrees(combo, j)) for j in range(1, len(combo))))]
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


# -- comparison lemma hypothesis checks ---------------------------------------


class HypothesisFailure(Failure):
    def __init__(self, clause, detail=None):
        self.clause = clause
        self.detail = detail
        super().__init__("%s: %r" % (clause, detail))


def induced_topology(u: FinFunctor,
                     Jp: GrothendieckTopology) -> GrothendieckTopology:
    """J on C: S covers A iff the sieve generated by u(S) is a J'-cover."""
    C, Cp = u.source, u.target
    covers = {}
    for A in C.objects:
        good = []
        for S in all_sieves(C, A):
            gen = sieve_generate(Cp, u.on_object(A),
                                 [u.on_arrow(f) for f in S.arrows])
            if Jp.is_cover(gen):
                good.append(S)
        covers[A] = frozenset(good)
    return GrothendieckTopology(C, covers)


def comparison_check(u: FinFunctor, Jp: GrothendieckTopology,
                     test_sheaves=()):
    """Verify the comparison-lemma hypotheses and test the equivalence.

    Checks that u is full and faithful and that every object of the target
    has a cover by objects in the image; raises HypothesisFailure naming
    the violated clause.  Returns (J, report) with J the induced topology;
    for each test sheaf G on the target site the unit G -> u_*(u^*G) and
    the counit u^*(u_* -) are verified to be isomorphisms and u^*G is
    verified to be a J-sheaf.
    """
    C, Cp = u.source, u.target
    for A in C.objects:
        for B in C.objects:
            image = [u.on_arrow(f) for f in C.hom(A, B)]
            target_hom = Cp.hom(u.on_object(A), u.on_object(B))
            if len(set(image)) != len(image):
                raise HypothesisFailure("faithfulness", (A, B))
            if set(image) != set(target_hom):
                raise HypothesisFailure("fullness", (A, B))
    image_objects = {u.on_object(A) for A in C.objects}
    for cp in Cp.objects:
        family = [f for f in Cp.arrows_into[cp]
                  if Cp.dom[f] in image_objects]
        if not Jp.is_cover(sieve_generate(Cp, cp, family)):
            raise HypothesisFailure("covering", cp)
    J = induced_topology(u, Jp)
    report = []
    for G in test_sheaves:
        ok, _ = is_sheaf(G, Jp)
        if not ok:
            raise InputError("test presheaf is not a J'-sheaf")
        restricted = u_star(u, G)
        ok_r, _ = is_sheaf(restricted, J)
        unit = unit_star(u, G)
        counit = counit_star(u, restricted)
        report.append({
            "restriction_is_sheaf": ok_r,
            "unit_iso": is_isomorphism(unit),
            "counit_iso": is_isomorphism(counit),
        })
    return J, report
