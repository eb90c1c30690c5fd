"""Sheaves of finite abelian groups on finite spaces and their cohomology.

A sheaf on a finite (Alexandrov) space is stored as its stalk diagram: one
group per point and one homomorphism stalk_p -> stalk_q whenever q lies in
the minimal open U_p (this category is equivalent to sheaves on the space;
sections over U are the compatible families over the points of U).

Derived-functor cohomology follows the Godement route: the Godement sheaf
God(S) has stalk ⊕_{q∈U_p} S_q at p, S embeds in it by the tuple of comaps,
and the resolution iterates on cokernels.  Both routes read their cochain
groups off the identity Γ(God S) = ∏_p S_p, under which every differential
copies the U_p-indexed coordinate blocks of a family into the block of p.
`sheaf_cohomology` resolves by divisible hulls (injective sheaves), carried
by the span+lattice machinery, so reports are always finite.
`long_exact_sequence` uses the discrete (flasque) variant, which is
functorial and exact and keeps every group finite, so connecting maps are
built by explicit zig-zag.  Section spaces (`sections`, `gamma_map`,
`pair_global_sections`) are solved for only where no such identity
applies: Čech cohomology over arbitrary opens, global sections of an
arbitrary sheaf, and the maps a sheaf map induces between them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm

from . import Failure
from .fpgroup import (FpAbGroup, FpMorphism, fp_direct_sum, fp_from_factors,
                      fp_cokernel, fp_cohomology_at, fp_factor_through,
                      fp_kernel, fp_preimages, fp_zero_morphism, fp_exact_at,
                      fp_identity, fp_trivial)
from .intmat import IntMatrix
from .latpair import (LatticePairGroup, SpanLattice, latpair_kernel_image,
                      quotient_type)
from .site import FiniteSpace


class SheafError(Failure):
    pass


class NotACover(Failure):
    pass


# -- small fpgroup helpers ---------------------------------------------------


def _fp_add(f: FpMorphism, g: FpMorphism) -> FpMorphism:
    return FpMorphism(f.source, f.target, f.matrix.add(g.matrix))

def _fp_sub(f: FpMorphism, g: FpMorphism) -> FpMorphism:
    return FpMorphism(f.source, f.target, f.matrix.add(g.matrix.neg()))


# -- finite sheaves as stalk diagrams ---------------------------------------


@dataclass(frozen=True, eq=False)
class AbelianSheaf:
    """Stalk diagram: stalks[p] an FpAbGroup; comaps[(p, q)] : stalk_p ->
    stalk_q for every q in the minimal open U_p (including q = p)."""
    space: FiniteSpace
    stalks: dict
    comaps: dict

    def stalk(self, p) -> FpAbGroup:
        return self.stalks[p]


def validate_sheaf(X: FiniteSpace, stalks, comaps) -> AbelianSheaf:
    for p in X.points:
        if p not in stalks:
            raise SheafError("missing stalk at %r" % (p,))
        for q in X.minimal_open(p):
            f = comaps.get((p, q))
            if f is None:
                raise SheafError("missing comap %r" % ((p, q),))
            if f.source is not stalks[p] or f.target is not stalks[q]:
                raise SheafError("comap %r has wrong endpoints" % ((p, q),))
            f.check()
        if not comaps[(p, p)].agrees_with(fp_identity(stalks[p])):
            raise SheafError("comap at %r is not the identity" % (p,))
    for p in X.points:
        for q in X.minimal_open(p):
            for r in X.minimal_open(q):
                left = comaps[(q, r)].compose(comaps[(p, q)])
                if not left.agrees_with(comaps[(p, r)]):
                    raise SheafError("comaps do not compose at %r"
                                     % ((p, q, r),))
    return AbelianSheaf(X, dict(stalks), dict(comaps))


def constant_sheaf(X: FiniteSpace, factors) -> AbelianSheaf:
    G = fp_from_factors(factors)
    stalks = {p: G for p in X.points}
    comaps = {(p, q): fp_identity(G)
              for p in X.points for q in X.minimal_open(p)}
    return validate_sheaf(X, stalks, comaps)


def zero_sheaf(X: FiniteSpace) -> AbelianSheaf:
    return constant_sheaf(X, [])


def skyscraper_sheaf(X: FiniteSpace, point, factors) -> AbelianSheaf:
    """Pushforward of the group from the point: F(U) = A iff point ∈ U."""
    if point not in X.points:
        raise SheafError("unknown point %r" % (point,))
    A = fp_from_factors(factors)
    Z = fp_trivial()
    stalks = {p: (A if point in X.minimal_open(p) else Z) for p in X.points}
    comaps = {}
    for p in X.points:
        for q in X.minimal_open(p):
            s, t = stalks[p], stalks[q]
            if s is A and t is A:
                comaps[(p, q)] = fp_identity(A)
            else:
                comaps[(p, q)] = fp_zero_morphism(s, t)
    return validate_sheaf(X, stalks, comaps)


@dataclass(frozen=True, eq=False)
class SheafMap:
    source: AbelianSheaf
    target: AbelianSheaf
    components: dict    # point -> FpMorphism

    def check(self) -> "SheafMap":
        for p in self.source.space.points:
            f = self.components[p]
            if f.source is not self.source.stalks[p] or \
                    f.target is not self.target.stalks[p]:
                raise SheafError("component at %r has wrong endpoints" % (p,))
            f.check()
            for q in self.source.space.minimal_open(p):
                left = self.components[q].compose(self.source.comaps[(p, q)])
                right = self.target.comaps[(p, q)].compose(f)
                if not left.agrees_with(right):
                    raise SheafError(
                        "map does not commute with comaps at %r" % ((p, q),))
        return self

    def compose(self, other: "SheafMap") -> "SheafMap":
        return SheafMap(other.source, self.target,
                        {p: self.components[p].compose(other.components[p])
                         for p in self.source.space.points})


def sheaf_direct_sum(F: AbelianSheaf, G: AbelianSheaf):
    """Pointwise direct sum; returns (S, inclusions, projections)."""
    X = F.space
    stalks, incs, projs = {}, ({}, {}), ({}, {})
    for p in X.points:
        total, i_list, p_list = fp_direct_sum([F.stalks[p], G.stalks[p]])
        stalks[p] = total
        incs[0][p], incs[1][p] = i_list
        projs[0][p], projs[1][p] = p_list
    comaps = {}
    for p in X.points:
        for q in X.minimal_open(p):
            comaps[(p, q)] = _fp_add(
                incs[0][q].compose(F.comaps[(p, q)]).compose(projs[0][p]),
                incs[1][q].compose(G.comaps[(p, q)]).compose(projs[1][p]))
    S = validate_sheaf(X, stalks, comaps)
    return (S,
            (SheafMap(F, S, incs[0]).check(), SheafMap(G, S, incs[1]).check()),
            (SheafMap(S, F, projs[0]).check(),
             SheafMap(S, G, projs[1]).check()))


# -- sections ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SectionSpace:
    """F(U) as the kernel of the compatibility map out of ∏_{p∈U} stalk_p."""
    group: FpAbGroup
    incl: FpMorphism        # group -> prod
    prod: FpAbGroup
    points: tuple
    incs: tuple             # stalk -> prod per point
    projs: tuple            # prod -> stalk per point


def sections(F: AbelianSheaf, U) -> SectionSpace:
    pts = sorted(U)
    prod, incs, projs = fp_direct_sum([F.stalks[p] for p in pts])
    index = {p: i for i, p in enumerate(pts)}
    edges = [(p, q) for p in pts
             for q in sorted(F.space.minimal_open(p)) if q != p]
    targets = [F.stalks[q] for (_, q) in edges]
    T, tincs, _ = fp_direct_sum(targets)
    delta = fp_zero_morphism(prod, T)
    for (p, q), tinc in zip(edges, tincs):
        c = _fp_sub(projs[index[q]],
                    F.comaps[(p, q)].compose(projs[index[p]]))
        delta = _fp_add(delta, tinc.compose(c))
    K, incl = fp_kernel(delta)
    return SectionSpace(K, incl, prod, tuple(pts), tuple(incs), tuple(projs))


def global_sections(F: AbelianSheaf) -> FpAbGroup:
    return sections(F, F.space.points).group


def section_restriction(F: AbelianSheaf, su: SectionSpace,
                        sv: SectionSpace) -> FpMorphism:
    """Restriction F(U) -> F(V) for V ⊆ U (coordinate projection)."""
    pick = fp_zero_morphism(su.prod, sv.prod)
    for i, q in enumerate(sv.points):
        j = su.points.index(q)
        pick = _fp_add(pick, sv.incs[i].compose(su.projs[j]))
    return fp_factor_through(sv.incl, pick.compose(su.incl))


def gamma_map(phi: SheafMap, su: SectionSpace,
              sv: SectionSpace) -> FpMorphism:
    """Induced map on section spaces over the same open."""
    big = fp_zero_morphism(su.prod, sv.prod)
    for i, p in enumerate(su.points):
        big = _fp_add(big, sv.incs[i].compose(
            phi.components[p]).compose(su.projs[i]))
    return fp_factor_through(sv.incl, big.compose(su.incl))


# -- cohomology reports ------------------------------------------------------


def _iso_line(factors) -> str:
    """Invariant factors as a report line; a free factor 0 prints as Z."""
    if not factors:
        return "0"
    return " ⊕ ".join("Z/%d" % d if d else "Z" for d in factors)


@dataclass(frozen=True)
class CohomologyReport:
    degrees: tuple      # of FpAbGroup

    def lines(self):
        return ["H^%d = %s" % (n, _iso_line(G.invariant_factors))
                for n, G in enumerate(self.degrees)]

    def __str__(self):
        return "\n".join(self.lines())


# -- Čech cohomology ---------------------------------------------------------


def cech_cohomology(F: AbelianSheaf, cover, n_max: int) -> CohomologyReport:
    """Alternating Čech complex over the ordered cover (list of open sets)."""
    X = F.space
    cover = [frozenset(U) for U in cover]
    for U in cover:
        if U not in X.opens:
            raise NotACover("%r is not open" % (sorted(U),))
    if frozenset().union(*cover) != frozenset(X.points):
        raise NotACover("the given opens do not cover the space")
    m = len(cover)

    def inter(combo):
        s = frozenset(X.points)
        for i in combo:
            s = s & cover[i]
        return s

    levels = []     # per degree: (chain group, combos, per-combo data)
    for k in range(n_max + 2):
        combos = list(itertools.combinations(range(m), k + 1))
        secs = [sections(F, inter(c)) for c in combos]
        total, incs, projs = fp_direct_sum([s.group for s in secs])
        levels.append((total, combos, secs, incs, projs))
    diffs = []
    for k in range(n_max + 1):
        src_total, src_combos, src_secs, _, src_projs = levels[k]
        dst_total, dst_combos, dst_secs, dst_incs, _ = levels[k + 1]
        pos = {c: i for i, c in enumerate(src_combos)}
        d = fp_zero_morphism(src_total, dst_total)
        for t, T in enumerate(dst_combos):
            for j in range(len(T)):
                S = T[:j] + T[j + 1:]
                i = pos[S]
                r = section_restriction(F, src_secs[i], dst_secs[t])
                term = dst_incs[t].compose(r).compose(src_projs[i])
                if j % 2 == 1:
                    term = FpMorphism(term.source, term.target,
                                      term.matrix.neg())
                d = _fp_add(d, term)
        diffs.append(d)
    out = []
    for n in range(n_max + 1):
        H, _, _ = fp_cohomology_at(diffs[n - 1] if n else None, diffs[n])
        out.append(fp_from_factors(H.invariant_factors))
    return CohomologyReport(tuple(out))


# -- Godement block layout ---------------------------------------------------


def _blocks(points, size):
    """Offsets of the coordinate blocks of the points, stacked in sorted
    order with size[q] coordinates for q; returns (offsets, total), the
    dict in that order.  Every Godement stalk ⊕_{q∈U_p} S_q and every
    product ∏_p S_p is laid out this way."""
    offsets, total = {}, 0
    for q in sorted(points):
        offsets[q] = total
        total += size[q]
    return offsets, total


def _godement_layout(X: FiniteSpace, size):
    """(offsets, comap_moves) of the Godement sheaf of S, where size[q]
    counts the coordinates of S_q: offsets[p] lays out the stalk at p and
    comap_moves[(p, p2)] lists the block copies (dst, src, length) of its
    comap, the projection onto the U_{p2} blocks."""
    offsets = {p: _blocks(X.minimal_open(p), size)[0] for p in X.points}
    moves = {(p, p2): [(off, offsets[p][q], size[q])
                       for q, off in offsets[p2].items()]
             for p in X.points for p2 in X.minimal_open(p)}
    return offsets, moves


def _godement_moves(X: FiniteSpace, size):
    """Block copies (dst, src, length) of the cochain differential
    ∏_q S_q -> ∏_p ⊕_{q∈U_p} S_q of Γ(God S) = ∏_p S_p: the block of q
    goes to the q-block of every p with q ∈ U_p."""
    src, _ = _blocks(X.points, size)
    moves, base = [], 0
    for p in src:
        local, total = _blocks(X.minimal_open(p), size)
        moves += [(base + off, src[q], size[q]) for q, off in local.items()]
        base += total
    return moves


def _copy_rows(moves, rows: int, cols: int):
    """Rows of the 0/1 matrix that performs the given block copies."""
    out = [[0] * cols for _ in range(rows)]
    for dst, src, length in moves:
        for i in range(length):
            out[dst + i][src + i] = 1
    return tuple(tuple(r) for r in out)


def _copy_map(source: FpAbGroup, target: FpAbGroup, moves) -> FpMorphism:
    return FpMorphism(source, target, IntMatrix(
        target.gens, source.gens, _copy_rows(moves, target.gens, source.gens)))


# -- divisible-valued sheaves (span+lattice stalks) --------------------------
#
# A rational map between pair coordinates is (rows, den): integer rows
# acting as rows/den.


def _rows_of_fp(f: FpMorphism):
    """The induced linear map on pair coordinates, where Z/d is embedded
    as (1/d)Z / Z: a smith-matrix entry M_rc becomes M_rc * d_c / d_r.
    Returns (rows, den) with den the lcm of the target's factors."""
    ds = f.source.invariant_factors
    dt = f.target.invariant_factors
    cols = [f.apply(f.source.generator(i)) for i in range(len(ds))]
    den = lcm(*dt)
    return tuple(tuple(cols[c][r] * ds[c] * (den // dt[r])
                       for c in range(len(ds)))
                 for r in range(len(dt))), den


def pair_of_group(G: FpAbGroup) -> LatticePairGroup:
    """A finite group Z/d1 + ... as the pair ((1/d_i)Z^k) / Z^k."""
    ds = G.invariant_factors
    k = len(ds)
    den = lcm(*ds)
    eye = IntMatrix.identity(k).entries
    num = SpanLattice.of_integers(
        k, lattice_cols=[[den // d * x for x in e] for d, e in zip(ds, eye)],
        den=den)
    return LatticePairGroup(num, SpanLattice.of_integers(k, lattice_cols=eye))


def hull_pair(P: LatticePairGroup) -> LatticePairGroup:
    """Divisible hull: replace the numerator by the subspace it spans."""
    if not P.numerator.lattice.cols:
        return P
    num = SpanLattice.of_integers(
        P.ambient, P.numerator.span + tuple(P.numerator.lattice_columns()))
    return LatticePairGroup(num, P.denominator)


def pair_product(pairs):
    """Product of LatticePairGroups; returns (pair, offsets).  The
    canonical data of the product are the blocks of the factors', so
    nothing is reduced again; the product is still validated."""
    offsets, total = [], 0
    for P in pairs:
        offsets.append(total)
        total += P.ambient
    return LatticePairGroup(
        SpanLattice.direct_sum(P.numerator for P in pairs),
        SpanLattice.direct_sum(P.denominator for P in pairs)), offsets


@dataclass(frozen=True, eq=False)
class PairSheaf:
    """Sheaf with span+lattice-quotient stalks; comaps are (rows, den)."""
    space: FiniteSpace
    stalks: dict        # point -> LatticePairGroup
    comaps: dict        # (p, q) -> (rows, den)


@dataclass(frozen=True, eq=False)
class PairSheafMap:
    source: PairSheaf
    target: PairSheaf
    components: dict    # point -> (rows, den)


def as_pair_sheaf(F: AbelianSheaf) -> PairSheaf:
    """F with each stalk as a lattice pair; the divisible route needs
    finite stalks, so a free summand raises SheafError."""
    for p in sorted(F.space.points):
        if 0 in F.stalks[p].invariant_factors:
            raise SheafError("the stalk at %r has a free summand Z; the "
                             "divisible route needs finite stalks" % (p,))
    stalks = {p: pair_of_group(F.stalks[p]) for p in F.space.points}
    comaps = {key: _rows_of_fp(f) for key, f in F.comaps.items()}
    return PairSheaf(F.space, stalks, comaps)


def _stacked(maps):
    """The (rows, den) maps stacked over one common denominator."""
    den = lcm(*(d for _, d in maps))
    return tuple(tuple(x * (den // d) for x in r)
                 for rows, d in maps for r in rows), den


def godement_embedding(F):
    """(G⁰, embedding): G⁰ stalk at p is ∏_{q∈U_p} (divisible hull of the
    stalk at q); the embedding is the tuple of comaps.  Accepts finite
    sheaves or PairSheaves; the result is always a PairSheaf."""
    if isinstance(F, AbelianSheaf):
        F = as_pair_sheaf(F)
    X = F.space
    hulls = {q: hull_pair(F.stalks[q]) for q in X.points}
    offsets, comap_moves = _godement_layout(
        X, {q: hulls[q].ambient for q in X.points})
    stalks = {p: pair_product([hulls[q] for q in offsets[p]])[0]
              for p in X.points}
    comaps = {(p, p2): (_copy_rows(moves, stalks[p2].ambient,
                                   stalks[p].ambient), 1)
              for (p, p2), moves in comap_moves.items()}
    components = {p: _stacked([F.comaps[(p, q)] for q in offsets[p]])
                  for p in X.points}
    G = PairSheaf(X, stalks, comaps)
    return G, PairSheafMap(F, G, components)


def pair_sheaf_cokernel(e: PairSheafMap):
    """Stalkwise cokernel of a pair-sheaf map; returns (Q, proj)."""
    X = e.target.space
    stalks = {}
    for p in X.points:
        t = e.target.stalks[p]
        img = e.source.stalks[p].numerator.image(*e.components[p])
        stalks[p] = LatticePairGroup(t.numerator, t.denominator.add(img))
    Q = PairSheaf(X, stalks, dict(e.target.comaps))
    proj = PairSheafMap(e.target, Q, {
        p: (IntMatrix.identity(e.target.stalks[p].ambient).entries, 1)
        for p in X.points})
    return Q, proj


def pair_global_sections(F: PairSheaf):
    """Γ(F) as a LatticePairGroup inside the product over all points.

    Returns (pair, points, offsets)."""
    X = F.space
    pts = sorted(X.points)
    prod, offs = pair_product([F.stalks[p] for p in pts])
    index = {p: i for i, p in enumerate(pts)}
    edges = [(p, q) for p in pts
             for q in sorted(X.minimal_open(p)) if q != p]
    if not edges:
        return prod, tuple(pts), tuple(offs)
    epairs = [F.stalks[q] for (_, q) in edges]
    E, eoffs = pair_product(epairs)
    if E.ambient == 0:
        return prod, tuple(pts), tuple(offs)
    den = lcm(*(F.comaps[e][1] for e in edges))
    rows = [[0] * prod.ambient for _ in range(E.ambient)]
    for (p, q), eoff in zip(edges, eoffs):
        amb_q = F.stalks[q].ambient
        off_p = offs[index[p]]
        off_q = offs[index[q]]
        comap, d = F.comaps[(p, q)]
        for i in range(amb_q):
            rows[eoff + i][off_q + i] += den
            for j in range(F.stalks[p].ambient):
                rows[eoff + i][off_p + j] -= comap[i][j] * (den // d)
    rows = tuple(tuple(r) for r in rows)
    kernel, _ = latpair_kernel_image(rows, prod, E, den)
    return kernel, tuple(pts), tuple(offs)


def sheaf_cohomology(F, n_max: int) -> CohomologyReport:
    """Derived-functor H^0..H^n_max via the divisible Godement resolution.

    The cochain group Γ(G^k) is computed through the Godement identity
    Γ(God(S)) = ∏_p S_p, which avoids solving the compatibility system:
    with Q^{-1} = F and Q^k the stalkwise cokernel of the embedding into
    G^k = God(hull(Q^{k-1})), the k-th cochain group is
    ∏_p hull(stalk_p Q^{k-1}) and the differential copies the U_p-indexed
    coordinate blocks of a family into the block of each point p."""
    cur = as_pair_sheaf(F) if isinstance(F, AbelianSheaf) else F
    X = cur.space
    gammas = []         # Γ(G^k) = ∏_p hull(stalk_p Q^{k-1}) per level
    sizes = []          # point -> coordinates of that hull
    for k in range(n_max + 2):
        hulls = {p: hull_pair(cur.stalks[p]) for p in X.points}
        sizes.append({p: P.ambient for p, P in hulls.items()})
        gammas.append(pair_product([hulls[p] for p in sorted(X.points)])[0])
        if k <= n_max:      # the top level needs only the hulls
            _, e = godement_embedding(cur)
            cur, _ = pair_sheaf_cokernel(e)
    out = []
    prev_image = None
    for n in range(n_max + 1):
        src_pair, dst_pair = gammas[n], gammas[n + 1]
        rows = _copy_rows(_godement_moves(X, sizes[n]), dst_pair.ambient,
                          src_pair.ambient)
        kernel, image = latpair_kernel_image(rows, src_pair, dst_pair)
        base = prev_image.numerator if prev_image is not None \
            else src_pair.denominator
        t = quotient_type(kernel.numerator, base)
        if not t.is_finite():
            raise SheafError("cohomology in degree %d is not finite: %s"
                             % (n, t))
        out.append(fp_from_factors(t.finite_factors))
        prev_image = image
    return CohomologyReport(tuple(out))


# -- long exact sequence via the discrete Godement resolution ----------------


def check_ses(alpha: SheafMap, beta: SheafMap):
    """Stalkwise exactness of 0 -> F' -> F -> F'' -> 0."""
    alpha.check()
    beta.check()
    for p in alpha.source.space.points:
        a, b = alpha.components[p], beta.components[p]
        if not a.is_monic():
            raise SheafError("first map not monic at %r" % (p,))
        if not b.is_epic():
            raise SheafError("second map not epic at %r" % (p,))
        if not fp_exact_at(a, b):
            raise SheafError("sequence not exact at %r" % (p,))


def _godement_finite(F: AbelianSheaf):
    """One discrete Godement step: (G, embed, proj).

    G_p = ⊕_{q∈U_p} F_q (flasque), its comaps project onto U_p blocks, the
    embedding F -> G stacks the comaps of F, and proj: G -> Q is the
    stalkwise cokernel, whose matrix is the identity."""
    X = F.space
    offsets, comap_moves = _godement_layout(
        X, {q: F.stalks[q].gens for q in X.points})
    stalks = {p: fp_direct_sum([F.stalks[q] for q in offsets[p]])[0]
              for p in X.points}
    comaps = {key: _copy_map(stalks[key[0]], stalks[key[1]], moves)
              for key, moves in comap_moves.items()}
    G = AbelianSheaf(X, stalks, comaps)
    embed = SheafMap(F, G, {p: FpMorphism(F.stalks[p], stalks[p], IntMatrix(
        stalks[p].gens, F.stalks[p].gens,
        tuple(r for q in offsets[p] for r in F.comaps[(p, q)].matrix.entries)))
        for p in X.points})
    Qs, projs = {}, {}
    for p in X.points:
        Qs[p], projs[p] = fp_cokernel(embed.components[p])
    Q = AbelianSheaf(X, Qs, {(p, q): FpMorphism(Qs[p], Qs[q], f.matrix).check()
                             for (p, q), f in comaps.items()})
    return G, embed, SheafMap(G, Q, projs)


def _product_map(points, maps, source: FpAbGroup,
                 target: FpAbGroup) -> FpMorphism:
    """The block-diagonal map of products over the points (laid out by
    _blocks) acting by maps[q] on the block of q."""
    offsets, _ = _blocks(points, {q: maps[q].source.gens for q in points})
    rows = []
    for q, off in offsets.items():
        m = maps[q].matrix
        pad = (0,) * (source.gens - off - m.cols)
        rows += [(0,) * off + r + pad for r in m.entries]
    return FpMorphism(source, target,
                      IntMatrix(target.gens, source.gens, tuple(rows))).check()


@dataclass(frozen=True, eq=False)
class LongExactSequence:
    """H^0(F') -> H^0(F) -> H^0(F'') -δ-> H^1(F') -> ... with maps."""
    groups: tuple       # flattened groups along the sequence
    maps: tuple         # morphisms between consecutive groups
    labels: tuple

    def verify(self):
        if not self.maps[0].is_monic():
            raise SheafError("H^0(F') -> H^0(F) is not monic")
        for i in range(len(self.maps) - 1):
            if not fp_exact_at(self.maps[i], self.maps[i + 1]):
                raise SheafError("long sequence not exact at %s"
                                 % self.labels[i + 1])
        return self


def long_exact_sequence(alpha: SheafMap, beta: SheafMap,
                        n_max: int) -> LongExactSequence:
    """Cohomology LES of 0 -> F' -> F -> F'' -> 0 with connecting maps.

    Built from the discrete Godement resolution (flasque, functorial,
    exact).  With Q^{-1} the sheaf and Q^k the cokernel of its Godement
    step on Q^{k-1}, the identity Γ(God S) = ∏_p S_p gives the cochains
    C^k = ∏_p Q^{k-1}_p: the differentials copy U_p blocks and the chain
    maps are block-diagonal in the induced stalk maps, so no section space
    is solved for.  Connecting maps by explicit zig-zag with deterministic
    preimage choice."""
    check_ses(alpha, beta)
    X = alpha.source.space
    pts = sorted(X.points)
    # Q^{-1}..Q^{n_max} per sheaf, and the stalk maps that alpha and beta
    # induce on Q^{-1}..Q^{n_max-1}
    towers = [[alpha.source], [alpha.target], [beta.target]]
    induced = [[alpha.components], [beta.components]]
    for k in range(n_max + 1):
        for tower in towers:
            tower.append(_godement_finite(tower[-1])[2].target)
        if k < n_max:
            for i, maps in enumerate(induced):
                A, B = towers[i][-1], towers[i + 1][-1]
                maps.append({p: _product_map(X.minimal_open(p), maps[-1],
                                             A.stalks[p], B.stalks[p])
                             for p in pts})
    # cochains C^k = Γ(G^k) = ∏_p Q^{k-1}_p for k = 0..n_max+1
    C = [[fp_direct_sum([Q.stalks[p] for p in pts])[0] for Q in tower]
         for tower in towers]
    C_diffs = [[_copy_map(C[i][k], C[i][k + 1], _godement_moves(
        X, {q: towers[i][k].stalks[q].gens for q in pts})).check()
        for k in range(n_max + 1)] for i in range(3)]
    C_alpha, C_beta = ([_product_map(pts, induced[i][k], C[i][k], C[i + 1][k])
                        for k in range(n_max + 1)] for i in range(2))
    # cohomology in degrees 0..n_max (degree n uses d^n : C^n -> C^{n+1})
    H = [[], [], []]
    Kdata = [[], [], []]
    for i in range(3):
        for n in range(n_max + 1):
            d_prev = C_diffs[i][n - 1] if n else None
            d = C_diffs[i][n]
            Hn, K, incl = fp_cohomology_at(d_prev, d)
            H[i].append(Hn)
            Kdata[i].append((K, incl))

    def h_map(chain_map, i_src, i_dst, n):
        K_s, incl_s = Kdata[i_src][n]
        K_d, incl_d = Kdata[i_dst][n]
        f = fp_factor_through(incl_d, chain_map.compose(incl_s))
        return FpMorphism(H[i_src][n], H[i_dst][n], f.matrix).check()

    def connecting(n):
        Ks, incl_s = Kdata[2][n]
        Kd, incl_d = Kdata[0][n + 1]
        v = [incl_s.apply(Ks.normal_form(e)) for e in
             IntMatrix.identity(Ks.gens).entries]
        u = fp_preimages(C_beta[n], v)
        if None in u:
            raise SheafError("flasque surjectivity failed")
        z = fp_preimages(C_alpha[n + 1], [C_diffs[1][n].apply(x) for x in u])
        if None in z:
            raise SheafError("zig-zag preimage failed")
        zk = fp_preimages(incl_d, z)
        if None in zk:
            raise SheafError("connecting image not a cocycle")
        mat = IntMatrix.from_cols([Kd.lift(x) for x in zk], rows=Kd.gens)
        return FpMorphism(H[2][n], H[0][n + 1], mat).check()

    groups, maps, labels = [], [], []
    for n in range(n_max + 1):
        groups += [H[0][n], H[1][n], H[2][n]]
        labels += ["H^%d(F')" % n, "H^%d(F)" % n, "H^%d(F'')" % n]
        maps.append(h_map(C_alpha[n], 0, 1, n))
        maps.append(h_map(C_beta[n], 1, 2, n))
        if n < n_max:
            maps.append(connecting(n))
    return LongExactSequence(tuple(groups), tuple(maps), tuple(labels))
