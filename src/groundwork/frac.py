"""Categories of fractions on finite categories.

A class Σ of arrows is normalized to contain identities and be closed
under composition, then checked against the right calculus of fractions:
every cospan f: X -> Z <- Y :s with s ∈ Σ completes to a commutative
square with a Σ-leg on the other side, and equalities merged by a Σ-arrow
on the left can be merged by one on the right.  Fraction arrows A => B
are roofs A <-s- W -f-> B with s ∈ Σ, up to common refinement; the
localized category carries canonical (lexicographically least)
representatives so hom tables are deterministic.
"""
from dataclasses import dataclass

from . import Failure
from .fincat import (FinCategory, FinFunctor, compose_functors,
                     enumerate_functors, validate_category)


class OreFailure(Failure):
    pass


class RoofError(Failure):
    pass


@dataclass(frozen=True)
class ArrowClass:
    base: FinCategory
    members: frozenset

    def __contains__(self, arrow):
        return arrow in self.members


def normalize_arrow_class(C: FinCategory, arrows) -> ArrowClass:
    """Close the given arrows under identities and composition."""
    members = set(arrows)
    for f in members:
        if f not in C.arrows:
            raise OreFailure("unknown arrow %r" % (f,))
    members.update(C.identity.values())
    changed = True
    while changed:
        changed = False
        for g in tuple(members):
            for f in tuple(members):
                if C.composable(g, f):
                    h = C.compose(g, f)
                    if h not in members:
                        members.add(h)
                        changed = True
    return ArrowClass(C, frozenset(members))


@dataclass(frozen=True)
class OreVerdict:
    ok: bool
    sigma: ArrowClass
    failures: tuple     # ("OreSquare", f, s) / ("Cancellation", f, g, s)

    def __bool__(self):
        return self.ok


def check_ore(C: FinCategory, sigma) -> OreVerdict:
    """Exhaustive right-calculus check; failures carry witnesses."""
    if not isinstance(sigma, ArrowClass):
        sigma = normalize_arrow_class(C, sigma)
    failures = []
    members = sorted(sigma.members)
    sigma_into = {A: sorted(sigma.members.intersection(C.arrows_into[A]))
                  for A in C.objects}
    # Ore squares: f: X -> Z, s: Y -> Z completes to g: W -> Y, t: W -> X
    # with t ∈ Σ and s∘g = f∘t
    for f in C.arrows:
        for s in sigma_into[C.cod[f]]:
            if _ore_completions(C, sigma, f, s):
                continue
            failures.append(("OreSquare", f, s))
    # cancellation: s∘f = s∘g with s ∈ Σ forces f∘t = g∘t for some t ∈ Σ
    for f in C.arrows:
        for g in C.hom(C.dom[f], C.cod[f]):
            if f >= g:
                continue
            for s in members:
                if C.dom[s] != C.cod[f]:
                    continue
                if C.compose(s, f) != C.compose(s, g):
                    continue
                if not any(C.compose(f, t) == C.compose(g, t)
                           for t in sigma_into[C.dom[f]]):
                    failures.append(("Cancellation", f, g, s))
    return OreVerdict(not failures, sigma, tuple(failures))


def _ore_completions(C: FinCategory, sigma: ArrowClass, f, s):
    """All (g, t) with t ∈ Σ, s∘g = f∘t, sorted for determinism."""
    out = []
    for t in C.arrows_into[C.dom[f]]:
        if t in sigma.members:
            ft = C.compose(f, t)
            out += [(g, t) for g in C.arrows_into[C.dom[s]]
                    if C.dom[g] == C.dom[t] and C.compose(s, g) == ft]
    return sorted(out)


@dataclass(frozen=True)
class Roof:
    """Fraction arrow source => target, drawn source <-s- apex -f-> target."""
    base: FinCategory
    left: object        # s ∈ Σ
    right: object       # f

    def __post_init__(self):
        if self.base.dom[self.left] != self.base.dom[self.right]:
            raise RoofError("legs do not share an apex")

    @property
    def apex(self):
        return self.base.dom[self.left]

    @property
    def source(self):
        return self.base.cod[self.left]

    @property
    def target(self):
        return self.base.cod[self.right]


def identity_roof(C: FinCategory, obj) -> Roof:
    e = C.id_arrow(obj)
    return Roof(C, e, e)


def roof_of_arrow(C: FinCategory, f) -> Roof:
    return Roof(C, C.id_arrow(C.dom[f]), f)


def roof_equal(r1: Roof, r2: Roof, sigma: ArrowClass) -> bool:
    """True iff a common refinement dominates both roofs: u, v with
    s1∘u = s2∘v ∈ Σ and f1∘u = f2∘v."""
    C = sigma.base
    if (r1.source, r1.target) != (r2.source, r2.target):
        raise RoofError("roofs do not share endpoints")
    for u in C.arrows_into[r1.apex]:
        su = C.compose(r1.left, u)
        if su not in sigma:
            continue
        fu = C.compose(r1.right, u)
        for v in C.hom(C.dom[u], r2.apex):
            if C.compose(r2.left, v) == su and \
                    C.compose(r2.right, v) == fu:
                return True
    return False


def roof_compose(r1: Roof, r2: Roof, sigma: ArrowClass) -> Roof:
    """Composite A => D of r1: A => B and r2: B => D via an Ore square."""
    C = sigma.base
    if r1.target != r2.source:
        raise RoofError("roofs not composable")
    completions = _ore_completions(C, sigma, r1.right, r2.left)
    if not completions:
        raise OreFailure("no Ore completion for (%r, %r)"
                         % (r1.right, r2.left))
    g, t = completions[0]
    return Roof(C, C.compose(r1.left, t), C.compose(r2.right, g))


def enumerate_roofs(C: FinCategory, sigma: ArrowClass, a, b):
    return [Roof(C, s, f)
            for s in sorted(sigma.members.intersection(C.arrows_into[a]))
            for f in sorted(C.arrows_into[b]) if C.dom[f] == C.dom[s]]


@dataclass(frozen=True, eq=False)
class LocalizedCategory:
    base: FinCategory
    sigma: ArrowClass
    category: FinCategory   # arrows are canonical roof class names
    q: FinFunctor           # base -> category
    reps: dict              # class name -> canonical Roof
    class_of: dict          # (left, right) -> class name


def _class_name(rep: Roof) -> str:
    return "<%s|%s>" % (rep.left, rep.right)


def localize(C: FinCategory, sigma) -> LocalizedCategory:
    verdict = check_ore(C, sigma)
    if not verdict.ok:
        raise OreFailure("right Ore conditions fail: %r"
                         % (verdict.failures[:3],))
    sigma = verdict.sigma
    reps, class_of = {}, {}
    arrows, dom, cod = [], {}, {}
    for a in C.objects:
        for b in C.objects:
            classes = []
            for r in enumerate_roofs(C, sigma, a, b):
                for rep in classes:
                    if roof_equal(r, rep, sigma):
                        class_of[(r.left, r.right)] = _class_name(rep)
                        break
                else:
                    classes.append(r)
                    name = _class_name(r)
                    class_of[(r.left, r.right)] = name
                    reps[name] = r
                    arrows.append(name)
                    dom[name] = a
                    cod[name] = b
    identity = {o: class_of[(C.id_arrow(o), C.id_arrow(o))]
                for o in C.objects}
    compose = {}
    for gname in arrows:
        for fname in arrows:
            if dom[gname] != cod[fname]:
                continue
            comp = roof_compose(reps[fname], reps[gname], sigma)
            compose[(gname, fname)] = class_of[(comp.left, comp.right)]
    L = validate_category(C.objects, tuple(arrows), dom, cod, identity,
                          compose)
    q = FinFunctor(C, L, {f: class_of[(C.id_arrow(C.dom[f]), f)]
                          for f in C.arrows}).check()
    for s in sigma.members:
        if not is_isomorphism(L, q.on_arrow(s)):
            raise OreFailure("canonical functor fails to invert %r" % (s,))
    return LocalizedCategory(C, sigma, L, q, reps, class_of)


def is_isomorphism(C: FinCategory, f) -> bool:
    return any(C.compose(g, f) == C.id_arrow(C.dom[f]) and
               C.compose(f, g) == C.id_arrow(C.cod[f])
               for g in C.hom(C.cod[f], C.dom[f]))


def hom_table(L: LocalizedCategory):
    """Lines `A => B : {classIds}` for the CLI and reports."""
    lines = []
    for a in L.category.objects:
        for b in L.category.objects:
            names = sorted(L.category.hom(a, b))
            lines.append("%s => %s : {%s}" % (a, b, ", ".join(names)))
    return lines


@dataclass(frozen=True)
class UniversalPropertyVerdict:
    ok: bool
    n_inverting: int        # functors base -> T sending Σ to isos
    n_localized: int        # functors localized -> T
    detail: str


def universal_property_check(C: FinCategory, sigma,
                             T: FinCategory) -> UniversalPropertyVerdict:
    """Composition with Q must biject functors C[Σ⁻¹] -> T with functors
    C -> T inverting Σ; verified by exhaustive enumeration."""
    L = localize(C, sigma)
    inverting = [F for F in enumerate_functors(C, T)
                 if all(is_isomorphism(T, F.on_arrow(s))
                        for s in L.sigma.members)]
    through = enumerate_functors(L.category, T)
    images = [compose_functors(F, L.q) for F in through]
    n_inv, n_loc = len(inverting), len(through)
    if len(set(images)) != n_loc:
        return UniversalPropertyVerdict(
            False, n_inv, n_loc, "composition with Q is not injective")
    if set(images) != set(inverting):
        return UniversalPropertyVerdict(
            False, n_inv, n_loc,
            "image of composition with Q is not the Σ-inverting functors")
    return UniversalPropertyVerdict(True, n_inv, n_loc, "bijection verified")
