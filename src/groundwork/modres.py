"""Finite rings and modules; injective resolutions and Ext.

A module is its additive group with one additive endomorphism A_i for each
additive (Smith) generator g_i of R, of order d_i; r = Σ r_i·g_i acts as
Σ r_i·A_i.  The laws are checked on generators, which is equivalent to
checking them on all elements: once every A_i is well defined with
d_i·A_i = 0, the action is additive in r, so both sides of the unit and
associativity laws are additive in each argument.  Each law is one matrix
identity between endomorphisms of the additive group, tested in its Smith
coordinates (fpgroup): d_i·A_i = 0, Σ one_i·A_i = id and
Σ (g_i·g_j)_t·A_t = A_i∘A_j.  A ring's table is checked on elements: it
must add over every generator on either side, and then associativity is
checked on generator triples.

Injective objects are produced by the two-step embedding: embed the
additive group in a divisible group D = Q^n/K (free group on the elements,
tensored with Q, modulo the relation lattice K, of full rank), then
coinduce: Hom_Z(R, D) with the action (r·f)(x) = f(r·x).  Coinduced
modules of divisible groups are injective, which Baer's criterion verifies
independently.

Coinduction is integer arithmetic.  Let g_i be R's Smith generators, of
orders d_i.  f is fixed by the f(g_i), which lie in the d_i-torsion
(1/d_i)K/K of D; y -> (1/d_i)·K·y identifies that with (Z/d_i)^n.  So
Hom_Z(R, D) = ⊕_i (Z/d_i)^n, and r acts by the block matrix whose (j, i)
block is (c_ij·d_j/d_i)·I, where c_ij is the g_i-coordinate of r·g_j.

Hom_R(M, N) is a kernel.  h is stored as its values on M's presentation
generators, so Hom_R(M, N) is the subgroup of N^k cut out by M's relations
and by commuting with each additive generator of R.  Ext^n is the
cohomology of Hom_R(M, -) applied to an injective resolution of N, with
ker/im taken by fpgroup's complex helpers.  Baer's criterion asks, for each
left ideal J, that restriction Hom_R(R, I) = I -> Hom_R(J, I) be onto,
which is an exactness test on two lattices.  None of the three lists the
elements of a group.

The element cap bounds the order of each coinduced module, although no
element of one is listed: it bounds the size of what a resolution builds,
and a resolution with a term past it raises ResourceCap.

Stage zero of a resolution uses the hull on all module elements; later
stages use the hull on a minimal generating set — the element-based hull
re-applied at every stage grows doubly exponentially and is unusable even
for |M| = 4, while any divisible embedding yields an injective resolution.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

from . import Failure, ResourceCap
from .fpgroup import (FpAbGroup, FpMorphism, fp_cohomology_at, fp_cokernel,
                      fp_direct_sum, fp_exact_at, fp_factor_through, fp_free,
                      fp_from_factors, fp_from_presentation, fp_hom_group,
                      fp_identity, fp_kernel, fp_preimages)
from .intmat import IntMatrix, det, hnf, solve_many


class InvalidRing(Failure):
    pass


class InvalidModule(Failure):
    pass


DEFAULT_ELEMENT_CAP = 10 ** 6


@dataclass(frozen=True, eq=False)
class FiniteRing:
    name: str
    additive: FpAbGroup
    mul: dict       # (elem, elem) -> elem on canonical elements
    one: tuple

    def elements(self):
        return self.additive.elements()

    def generators(self):
        """The additive (Smith) generators g_i; r = Σ r_i·g_i."""
        return self.additive.generators()

    def times(self, a, b):
        return self.mul[(a, b)]

    def zero(self):
        return self.additive.zero()


def _finite(additive: FpAbGroup, invalid) -> FpAbGroup:
    """`additive`, checked finite before any of its elements is listed."""
    if not additive.is_finite():
        raise invalid("additive group must be finite")
    return additive


def validate_ring(name, additive: FpAbGroup, mul, one) -> FiniteRing:
    elems = _finite(additive, InvalidRing).elements()
    eset = set(elems)
    for a in elems:
        for b in elems:
            if (a, b) not in mul or mul[(a, b)] not in eset:
                raise InvalidRing("multiplication table incomplete at %r"
                                  % ((a, b),))
    gens, add = additive.generators(), additive.add
    for a in elems:
        if mul[(one, a)] != a or mul[(a, one)] != a:
            raise InvalidRing("unit law fails at %r" % (a,))
        # a map that adds over every generator is additive
        for b in elems:
            for g in gens:
                if mul[(a, add(b, g))] != add(mul[(a, b)], mul[(a, g)]):
                    raise InvalidRing("left distributivity fails at %r"
                                      % ((a, b, g),))
                if mul[(add(b, g), a)] != add(mul[(b, a)], mul[(g, a)]):
                    raise InvalidRing("right distributivity fails at %r"
                                      % ((b, g, a),))
    # both sides are trilinear, so generator triples suffice
    for a, b, c in itertools.product(gens, repeat=3):
        if mul[(mul[(a, b)], c)] != mul[(a, mul[(b, c)])]:
            raise InvalidRing("associativity fails at %r" % ((a, b, c),))
    return FiniteRing(name, additive, dict(mul), one)


def ring_zmod(n: int) -> FiniteRing:
    G = fp_from_factors([n])
    mul = {((a,), (b,)): ((a * b) % n,) for a in range(n) for b in range(n)}
    return validate_ring("Z%d" % n, G, mul, (1 % n,))


def ring_f2x() -> FiniteRing:
    """F2[x]/(x^2): elements a + b·x with canonical coordinates (a, b)."""
    G = fp_from_factors([2, 2])
    mul = {}
    for a1, b1 in itertools.product(range(2), repeat=2):
        for a2, b2 in itertools.product(range(2), repeat=2):
            mul[((a1, b1), (a2, b2))] = ((a1 * a2) % 2,
                                         (a1 * b2 + a2 * b1) % 2)
    return validate_ring("F2x", G, mul, (1, 0))


def _combination(G: FpAbGroup, coeffs, elems) -> tuple:
    """Σ c_i·e_i in G."""
    acc = G.zero()
    for c, e in zip(coeffs, elems):
        acc = G.add(acc, G.smul(c, e))
    return acc


def _endo_sum(G: FpAbGroup, coeffs, maps) -> FpMorphism:
    """Σ c_i·f_i for endomorphisms f_i of G, entry by entry."""
    n = G.gens
    mats = [f.matrix.entries for f in maps]
    rows = tuple(tuple(sum(map(mul, coeffs, cells)) for cells in zip(*rs))
                 for rs in zip(*mats)) if mats else ((0,) * n,) * n
    return FpMorphism(G, G, IntMatrix(n, n, rows))


def _endo(G: FpAbGroup, f) -> FpMorphism:
    """The endomorphism of G that agrees with f on G's presentation
    generators."""
    cols = [G.lift(f(G.normal_form(e)))
            for e in IntMatrix.identity(G.gens).columns()]
    return FpMorphism(G, G, IntMatrix.from_cols(cols, rows=G.gens)).check()


@dataclass(frozen=True, eq=False)
class FiniteModule:
    ring: FiniteRing
    additive: FpAbGroup
    action: tuple   # A_i: additive endomorphism for ring generator g_i

    def action_of(self, r) -> FpMorphism:
        """The endomorphism Σ r_i·A_i by which r acts."""
        return _endo_sum(self.additive, r, self.action)

    def act(self, r, m):
        """r·m = Σ r_i·A_i(m)."""
        return self.action_of(r).apply(m)

    def elements(self):
        return self.additive.elements()

    def order(self):
        return self.additive.order()


def validate_module(ring: FiniteRing, additive: FpAbGroup,
                    action) -> FiniteModule:
    """Check the module laws on generators; each is bilinear once every A_i
    is well defined and killed by the order d_i of g_i, for then r -> Σ
    r_i·A_i is additive.  Each law is a matrix identity of endomorphisms
    of the additive group, in this order: A_i is well defined, d_i·A_i is
    zero, Σ one_i·A_i agrees with the identity, and Σ (rs)_i·A_i agrees
    with A_r∘A_s for generators r, s."""
    M = FiniteModule(ring, _finite(additive, InvalidModule), tuple(action))
    rgens = ring.generators()
    if len(M.action) != len(rgens):
        raise InvalidModule("need one action per additive generator of %s"
                            % ring.name)
    for g, d, A in zip(rgens, ring.additive.invariant_factors, M.action):
        if not A.is_well_defined():
            raise InvalidModule("action of %r is not additive" % (g,))
        if not _endo_sum(additive, (d,), (A,)).is_zero():
            raise InvalidModule("%d·%r does not act as zero" % (d, g))
    if not M.action_of(ring.one).agrees_with(fp_identity(additive)):
        raise InvalidModule("unit does not act as identity")
    for (r, A), (s, B) in itertools.product(zip(rgens, M.action), repeat=2):
        if not M.action_of(ring.times(r, s)).agrees_with(A.compose(B)):
            raise InvalidModule(
                "scalar associativity fails at %r" % ((r, s),))
    return M


def module_from_action_table(ring: FiniteRing, additive: FpAbGroup,
                             table) -> FiniteModule:
    """Build a module from a full (ring element, element) -> element table,
    checking the table agrees with its additive-closure everywhere."""
    for key in itertools.product(ring.elements(), additive.elements()):
        if key not in table:
            raise InvalidModule("action table incomplete at %r" % (key,))
    gens = additive.generators()
    M = validate_module(ring, additive, [
        _endo(additive, lambda x, r=r: _combination(
            additive, x, [table[(r, g)] for g in gens]))
        for r in ring.generators()])
    for (r, m), v in table.items():
        if M.act(r, m) != v:
            raise InvalidModule("action table is not additive at %r"
                                % ((r, m),))
    return M


def module_from_integer_action(ring: FiniteRing, additive: FpAbGroup,
                               scalar_of) -> FiniteModule:
    """Module where each generator g_i of R acts as multiplication by
    scalar_of(g_i), and so r as multiplication by Σ r_i·scalar_of(g_i)."""
    return validate_module(ring, additive, [
        FpMorphism(additive, additive, IntMatrix.identity(
            additive.gens).scale(scalar_of(g))).check()
        for g in ring.generators()])


def zmod_module(ring: FiniteRing, k: int) -> FiniteModule:
    """Z/k as a module where r acts through the ring homomorphism R -> Z/k,
    which must exist and be unique."""
    G = fp_from_factors([k])
    H, decode = fp_hom_group(ring.additive, G)

    def value(x):
        return G.lift(x)[0]

    # phi(ab) = phi(a)·phi(b) is biadditive, so generators suffice
    gens = ring.generators()
    homs = [phi for phi in map(decode, H.elements())
            if phi.apply(ring.one) == G.normal_form((1,)) and all(
                G.normal_form((value(phi.apply(a)) * value(phi.apply(b)),))
                == phi.apply(ring.times(a, b)) for a in gens for b in gens)]
    if len(homs) != 1:
        raise InvalidModule("Z/%d: %d ring homomorphisms %s -> Z/%d, "
                            "need exactly one" % (k, len(homs), ring.name, k))
    return module_from_integer_action(
        ring, G, lambda r: value(homs[0].apply(r)))


def regular_module(R: FiniteRing) -> FiniteModule:
    """R as a left module over itself."""
    G = R.additive
    return validate_module(R, G, [_endo(G, lambda x, g=g: R.times(g, x))
                                  for g in R.generators()])


def module_direct_sum(modules):
    """Direct sum of modules over the same ring; returns (M, incls, projs)."""
    ring = modules[0].ring
    total, incs, projs = fp_direct_sum([m.additive for m in modules])
    action = [FpMorphism(total, total, IntMatrix.block_diagonal(
        A.matrix for A in As)).check() for As in zip(*(m.action
                                                      for m in modules))]
    M = validate_module(ring, total, action)
    return M, incs, projs


def is_r_linear(h: FpMorphism, source: FiniteModule,
                target: FiniteModule) -> bool:
    # the actions of R's generators suffice: both sides are additive in r
    return all(h.compose(A).agrees_with(B.compose(h))
               for A, B in zip(source.action, target.action))


# -- Hom_R as a kernel ------------------------------------------------------


def _hom_constraints(M: FiniteModule, N: FiniteModule) -> FpMorphism:
    """The map N^k -> N^(rels + k·gens(R)), k = M.additive.gens, whose
    kernel is Hom_R(M, N).

    h is stored as its values n_j on M's presentation generators e_j.  It
    must kill each relation column l of M (Σ_j R_jl·n_j = 0) and commute
    with each additive generator g of R acting as A_g on M and B_g on N
    (Σ_j (A_g)_ji·n_j − B_g·n_i = 0 for each i).
    """
    k, n = M.additive.gens, N.additive.gens
    rels = M.additive.relations
    blocks = [(rels.col(l), None) for l in range(rels.cols)]
    blocks += [(A.matrix.col(i), (i, B.matrix))
               for A, B in zip(M.action, N.action) for i in range(k)]
    rows = []
    for coeffs, twist in blocks:
        for a in range(n):
            row = [c if a == b else 0 for c in coeffs for b in range(n)]
            if twist:
                i, B = twist
                for b in range(n):
                    row[i * n + b] -= B[a, b]
            rows.append(tuple(row))
    return FpMorphism(fp_direct_sum([N.additive] * k)[0],
                      fp_direct_sum([N.additive] * len(blocks))[0],
                      IntMatrix(len(rows), k * n, tuple(rows))).check()


def hom_r(M: FiniteModule, N: FiniteModule):
    """Hom_R(M, N) as (H, incl), where incl: H -> N^k sends h to its values
    on M's k presentation generators."""
    return fp_kernel(_hom_constraints(M, N))


# -- divisible hulls ---------------------------------------------------------


@dataclass(frozen=True)
class DivisibleGroup:
    """Q^dim modulo the column lattice K (a divisible abelian group)."""
    dim: int
    lattice: IntMatrix      # K in canonical HNF, dim × dim of full rank

    def __post_init__(self):
        K = self.lattice
        if K.rows != self.dim or K.cols != self.dim or det(K) == 0:
            raise ValueError("hull lattice must be %d × %d of full rank"
                             % (self.dim, self.dim))


def divisible_hull(M: FpAbGroup):
    """Hull on all elements: free group on |M| elements over Q, modulo the
    relation lattice.  Returns (D, iota) with iota: element -> basis index.
    """
    if not M.is_finite():
        raise InvalidModule("hull requires a finite group")
    elems = M.elements()
    cols = [list(M.lift(e)) for e in elems]
    A = IntMatrix.from_cols(cols, rows=M.gens) if elems else \
        IntMatrix.zeros(M.gens, 0)
    f = FpMorphism(fp_free(len(elems)), M, A)
    K = f.kernel_lattice()
    D = DivisibleGroup(len(elems), hnf(K))
    index = {e: i for i, e in enumerate(elems)}

    def iota(e):
        v = [0] * len(elems)
        v[index[e]] = 1
        return tuple(v)

    return D, iota


def divisible_hull_generators(M: FpAbGroup):
    """Hull on a minimal generating set: Q^k modulo diag(d_1..d_k)."""
    if not M.is_finite():
        raise InvalidModule("hull requires a finite group")
    factors = list(M.invariant_factors)
    D = DivisibleGroup(len(factors), hnf(IntMatrix.diagonal(factors)))

    def iota(e):
        return tuple(e)   # canonical coordinates are the hull coordinates

    return D, iota


# -- coinduced modules -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoinducedModule:
    """Hom_Z(R, D) with (r·f)(x) = f(r·x), as a FiniteModule.

    Block i of an element holds the coordinates y of f(g_i) = (1/d_i)·K·y,
    y in (Z/d_i)^dim, for R's Smith generators g_i of order d_i.
    """
    module: FiniteModule
    hull: DivisibleGroup


def coinduced(R: FiniteRing, D: DivisibleGroup,
              cap=DEFAULT_ELEMENT_CAP) -> CoinducedModule:
    factors = list(R.additive.invariant_factors)
    size = 1
    for d in factors:
        size *= d ** D.dim
        if size > cap:
            raise ResourceCap("coinduced module would exceed %d elements"
                              % cap)
    n, k = D.dim, len(factors)
    H = fp_from_factors([d for d in factors for _ in range(n)])
    gens = R.generators()
    action = []
    for r in gens:
        # (r·f)(g_j) = Σ_i c_ij·f(g_i), c_ij the g_i-coordinate of r·g_j;
        # d_i divides c_ij·d_j because d_j kills r·g_j
        rows = [[0] * (k * n) for _ in range(k * n)]
        for j, g in enumerate(gens):
            c = R.times(r, g)
            for i in range(k):
                scale = c[i] * factors[j] // factors[i]
                for a in range(n):
                    rows[j * n + a][i * n + a] = scale
        action.append(FpMorphism(H, H, IntMatrix.from_rows(rows)).check())
    return CoinducedModule(validate_module(R, H, action), D)


def unit_embedding(M: FiniteModule, D: DivisibleGroup, iota,
                   C: CoinducedModule) -> FpMorphism:
    """m -> (r -> iota(r·m)), the unit M -> Hom_Z(R, M_d); monic, R-linear.

    iota(g_i·m) is d_i-torsion in D, so its block holds K⁻¹(d_i·iota(g_i·m))
    mod d_i; every block of every generator is solved against one
    factorization of K.
    """
    R = M.ring
    factors = list(R.additive.invariant_factors)
    H = C.module.additive
    gens = [M.additive.normal_form(e)
            for e in IntMatrix.identity(M.additive.gens).columns()]
    targets = [[d * x for x in iota(A.apply(m))]
               for m in gens for A, d in zip(M.action, factors)]
    sols = solve_many(D.lattice, targets)
    if None in sols:
        raise RuntimeError("hull vector is not torsion of the ring's order")
    cols = []
    for j in range(len(gens)):
        blocks = sols[j * len(factors):(j + 1) * len(factors)]
        cols.append([y % d for d, ys in zip(factors, blocks) for y in ys])
    f = FpMorphism(M.additive, H,
                   IntMatrix.from_cols(cols, rows=H.gens)).check()
    if not f.is_monic():
        raise InvalidModule("unit embedding is not monic")
    if not is_r_linear(f, M, C.module):
        raise InvalidModule("unit embedding is not R-linear")
    return f


def module_cokernel(f: FpMorphism, target_module: FiniteModule):
    """Cokernel of an R-linear map landing in target_module.

    Returns (Q: FiniteModule, proj: FpMorphism)."""
    coker, proj = fp_cokernel(f)
    Q = validate_module(target_module.ring, coker, [
        FpMorphism(coker, coker, A.matrix).check()
        for A in target_module.action])
    return Q, proj


# -- injective resolutions ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class ResolutionComplex:
    base: FiniteModule
    terms: tuple        # FiniteModules I_0 .. I_L
    maps: tuple         # M -> I_0, I_0 -> I_1, ...

    def verify(self):
        if not self.maps[0].is_monic():
            raise InvalidModule("first map is not monic")
        for k in range(len(self.maps) - 1):
            comp = self.maps[k + 1].compose(self.maps[k])
            if not comp.is_zero():
                raise InvalidModule("d∘d != 0 at position %d" % k)
            if not fp_exact_at(self.maps[k], self.maps[k + 1]):
                raise InvalidModule("complex not exact at I_%d" % k)
        return self


def injective_resolution(M: FiniteModule, L: int,
                         cap=DEFAULT_ELEMENT_CAP) -> ResolutionComplex:
    """Truncated injective resolution 0 -> M -> I_0 -> ... -> I_L."""
    R = M.ring
    D0, iota0 = divisible_hull(M.additive)
    C0 = coinduced(R, D0, cap=cap)
    e = unit_embedding(M, D0, iota0, C0)
    terms = [C0]
    maps = [e]
    prev_map = e
    for _ in range(L):
        Q, proj = module_cokernel(prev_map, terms[-1].module)
        Dk, iotak = divisible_hull_generators(Q.additive)
        Ck = coinduced(R, Dk, cap=cap)
        unit_q = unit_embedding(Q, Dk, iotak, Ck)
        d = unit_q.compose(proj)
        terms.append(Ck)
        maps.append(d)
        prev_map = d
    return ResolutionComplex(M, tuple(t.module for t in terms),
                             tuple(maps)).verify()


# -- ideals and Baer's criterion ----------------------------------------------


def fp_subgroup(G: FpAbGroup, elements):
    """Subgroup generated by the given canonical elements.

    Returns (S, incl) with incl: S -> G."""
    cols = [list(G.lift(e)) for e in elements]
    cols.extend(G.relations.columns())
    L = hnf(IntMatrix.from_cols(cols, rows=G.gens) if cols else
            IntMatrix.zeros(G.gens, 0))
    rel_cols = solve_many(L, G.relations.columns())
    if None in rel_cols:
        raise RuntimeError("relations not inside subgroup lattice")
    S = fp_from_presentation(
        L.cols, IntMatrix.from_cols(rel_cols, rows=L.cols)
        if rel_cols else IntMatrix.zeros(L.cols, 0))
    incl = FpMorphism(S, G, L).check()
    return S, incl


def left_ideals(R: FiniteRing):
    """All left ideals, each as a sorted tuple of canonical elements.

    Every left ideal is the sum of the principal ideals Rx of its elements,
    so the principal ideals, closed under adding one more, are all of them.
    """
    elems = R.elements()
    principal = {frozenset(R.times(r, x) for r in elems) for x in elems}
    found, frontier = set(principal), list(principal)
    while frontier:
        I = frontier.pop()
        for P in principal:
            J = frozenset(R.additive.add(a, b) for a in I for b in P)
            if J not in found:
                found.add(J)
                frontier.append(J)
    return sorted(tuple(sorted(J)) for J in found)


def ideal_module(R: FiniteRing, ideal_elements):
    """A left ideal as a FiniteModule, with its inclusion into R."""
    S, incl = fp_subgroup(R.additive, list(ideal_elements))
    xs = [R.additive.normal_form(c) for c in incl.matrix.columns()]
    gens = R.generators()
    # g·x in generator coordinates of S, for every ring generator g and
    # generator x of S
    sols = solve_many(incl.matrix.hstack(R.additive.relations),
                      [R.additive.lift(R.times(g, x))
                       for g in gens for x in xs])
    action = []
    for k in range(len(gens)):
        cols = sols[k * S.gens:(k + 1) * S.gens]
        if None in cols:
            raise InvalidModule("not a left ideal")
        action.append(FpMorphism(S, S, IntMatrix.from_cols(
            [c[:S.gens] for c in cols], rows=S.gens)).check())
    J = validate_module(R, S, action)
    return J, incl


def baer_check(I: FiniteModule):
    """(verdict, witness): does every hom from a left ideal into I extend?

    For each left ideal J on generators x_j, the restriction
    I = Hom_R(R, I) -> Hom_R(J, I), m -> (x_j·m)_j, must be onto, that is
    exact against the constraints that cut Hom_R(J, I) out of I^k.
    witness is None on success, else (ideal elements, an R-linear map
    J -> I that no element of I restricts to).
    """
    R = I.ring
    all_elems = tuple(sorted(R.elements()))
    zero_only = (R.zero(),)
    n = I.additive.gens
    for ideal in left_ideals(R):
        # zero ideal and the whole ring extend trivially
        if ideal == zero_only or ideal == all_elems:
            continue
        J, incl = ideal_module(R, ideal)
        constraints = _hom_constraints(J, I)
        # row block j: x_j = Σ_i x_ji·g_i acts on I as Σ_i x_ji·A_i
        xs = [R.additive.normal_form(c) for c in incl.matrix.columns()]
        rows = tuple(tuple(sum(c * A.matrix[a, b]
                               for c, A in zip(x, I.action))
                           for b in range(n)) for x in xs for a in range(n))
        restrict = FpMorphism(I.additive, constraints.source,
                              IntMatrix(len(rows), n, rows))
        if fp_exact_at(restrict, constraints):
            continue
        # a generator of Hom_R(J, I) that is not a restriction
        homs = constraints.kernel_lattice().columns()
        found = fp_preimages(restrict, [constraints.source.normal_form(h)
                                        for h in homs])
        h = next(h for h, m in zip(homs, found) if m is None)
        witness = FpMorphism(J.additive, I.additive, IntMatrix.from_cols(
            [h[j * n:(j + 1) * n] for j in range(len(xs))], rows=n)).check()
        return False, (ideal, witness)
    return True, None


# -- Ext ----------------------------------------------------------------------


def ext(M: FiniteModule, N: FiniteModule, n_max: int,
        cap=DEFAULT_ELEMENT_CAP):
    """Ext^0 .. Ext^n_max over the shared ring, as the cohomology of
    Hom_R(M, -) applied to an injective resolution of N.  Returns a list
    of FpAbGroups."""
    if M.ring is not N.ring and M.ring.name != N.ring.name:
        raise InvalidModule("modules over different rings")
    res = injective_resolution(N, n_max + 1, cap=cap)
    incls = [hom_r(M, I)[1] for I in res.terms]
    diffs = []
    for incl, nxt, d in zip(incls, incls[1:], res.maps[1:]):
        # post-composition with d acts on each of h's k values
        post = FpMorphism(incl.target, nxt.target, IntMatrix.block_diagonal(
            [d.matrix] * M.additive.gens))
        diffs.append(fp_factor_through(nxt, post.compose(incl)))
    return [fp_cohomology_at(diffs[n - 1] if n else None, diffs[n])[0]
            for n in range(n_max + 1)]
