"""Subgroups of Q^m of the form (subspace + finitely generated lattice).

This class of subgroups is closed under sum, intersection, image and
preimage along rational linear maps, which is exactly what cochain
complexes of divisible-valued groups need.  Canonical form: the subspace is
kept as an RREF basis; lattice generators are reduced modulo the subspace
and Hermite-reduced on the complementary coordinates, so two subgroups are
equal iff their canonical data are identical.

A LatticePairGroup is a pair numerator/denominator of such subgroups and
stands for their quotient; quotient_type classifies it as
Q^a + (Q/Z)^b + Z^c + finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import ratmat
from .fpgroup import FpAbGroup, fp_from_presentation
from .intmat import IntMatrix, hnf
from .intmat import kernel as int_kernel
from .intmat import solve_many
from .ratmat import combine, fr, mat_vec, reduce_mod_span, rref, vec, vis_zero


class ContainmentError(ValueError):
    """Denominator not contained in numerator (or map not well defined)."""


def _common_denominator(vectors) -> int:
    d = 1
    for v in vectors:
        for x in v:
            d = math.lcm(d, fr(x).denominator)
    return d


def _integral(v, den):
    """den·v as a list of ints, or None when it is not integral."""
    out = []
    for x in map(fr, v):
        q, r = divmod(den, x.denominator)
        if r:
            return None
        out.append(x.numerator * q)
    return out


def _scaled(cols, ambient):
    """(IntMatrix with columns den·c, den) for rational columns c, den
    their common denominator."""
    den = _common_denominator(cols)
    return IntMatrix.from_cols([_integral(c, den) for c in cols],
                               rows=ambient), den


def _columns(H: IntMatrix, den: int) -> tuple:
    """The columns of H/den as rational vectors."""
    return tuple(tuple(Fraction(x, den) for x in c) for c in zip(*H.entries))


@dataclass(frozen=True)
class SpanLattice:
    ambient: int
    span: tuple        # RREF basis rows
    span_pivots: tuple
    lattice: tuple     # canonical generator columns, reduced mod span

    # -- constructors ------------------------------------------------------

    @staticmethod
    def make(ambient, span_vectors=(), lattice_vectors=()) -> "SpanLattice":
        basis, pivots = rref([vec(v) for v in span_vectors])
        reduced = [w for w in (reduce_mod_span(basis, pivots, v)
                               for v in lattice_vectors) if not vis_zero(w)]
        lat = ()
        if reduced:
            H, den = _scaled(reduced, ambient)
            lat = _columns(hnf(H), den)
        return SpanLattice(ambient, tuple(basis), tuple(pivots), lat)

    @staticmethod
    def zero(ambient) -> "SpanLattice":
        return SpanLattice.make(ambient)

    @staticmethod
    def full(ambient) -> "SpanLattice":
        eye = [[1 if i == j else 0 for j in range(ambient)]
               for i in range(ambient)]
        return SpanLattice.make(ambient, span_vectors=eye)

    # -- basic structure ---------------------------------------------------

    def span_dim(self) -> int:
        return len(self.span)

    def lattice_rank(self) -> int:
        return len(self.lattice)

    def is_zero(self) -> bool:
        return not self.span and not self.lattice

    def reduce(self, v) -> tuple:
        """Reduce v modulo the span part."""
        return reduce_mod_span(self.span, self.span_pivots, v)

    def contains(self, v) -> bool:
        return self._contains_all([v])

    def contains_group(self, other: "SpanLattice") -> bool:
        if any(not vis_zero(self.reduce(row)) for row in other.span):
            return False
        return self._contains_all(other.lattice)

    def _contains_all(self, vectors) -> bool:
        """Are all vectors in self?  They are reduced modulo the span, and
        the nonzero rests solved against one factorization of the
        lattice."""
        rests = [w for w in map(self.reduce, vectors) if not vis_zero(w)]
        if not rests:
            return True
        if not self.lattice:
            return False
        L, den = _scaled(self.lattice, self.ambient)
        targets = [_integral(w, den) for w in rests]
        return None not in targets and None not in solve_many(L, targets)

    # -- subgroup algebra --------------------------------------------------

    def add(self, other: "SpanLattice") -> "SpanLattice":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return SpanLattice.make(self.ambient,
                                list(self.span) + list(other.span),
                                list(self.lattice) + list(other.lattice))

    def image(self, rows) -> "SpanLattice":
        """Image under the linear map given by matrix rows."""
        new_ambient = len(rows)
        return SpanLattice.make(
            new_ambient,
            [mat_vec(rows, v) for v in self.span],
            [mat_vec(rows, c) for c in self.lattice])

    def intersect_subspace(self, k_basis_vectors) -> "SpanLattice":
        """Intersection with the subspace spanned by k_basis_vectors."""
        K, _ = rref(k_basis_vectors)
        S = self.span
        # T = K + S
        T, Tpiv = rref(list(K) + list(S))
        # integer combinations of lattice generators landing in T
        gens = []
        if self.lattice:
            U, _ = _scaled([reduce_mod_span(T, Tpiv, c)
                            for c in self.lattice], self.ambient)
            for coeffs in int_kernel(U).columns():
                x = combine(coeffs, self.lattice, self.ambient)
                # decompose x = k + s with k in K, s in S; keep k
                gens.append(ratmat.vsub(x, self._project_onto(S, K, x)))
        # K ∩ S
        ks = _subspace_intersection(K, S, self.ambient)
        return SpanLattice.make(self.ambient, ks, gens)

    @staticmethod
    def _project_onto(S, K, x):
        """Write x in K + S as k + s; return the s component."""
        rows = ratmat.cols_to_rows(list(K) + list(S), len(x))
        coeffs = ratmat.solve(rows, x)
        if coeffs is None:
            raise ContainmentError("vector outside K + S")
        return combine(coeffs[len(K):], S, len(x))

    def is_full(self) -> bool:
        return self.span_dim() == self.ambient

    def intersect(self, other: "SpanLattice") -> "SpanLattice":
        """Intersection of two span+lattice subgroups."""
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        if self.is_full():
            return other
        if other.is_full():
            return self
        m = self.ambient
        # model the pair (x, y) in Q^{2m}; intersect with {x = y}; project
        def emb(v, side):
            v = vec(v)
            zero = tuple(Fraction(0) for _ in range(m))
            return v + zero if side == 0 else zero + v
        prod = SpanLattice.make(
            2 * m,
            [emb(v, 0) for v in self.span] + [emb(v, 1) for v in other.span],
            [emb(c, 0) for c in self.lattice] +
            [emb(c, 1) for c in other.lattice])
        diag = [tuple((1 if (i == j or i == j + m) else 0)
                      for i in range(2 * m)) for j in range(m)]
        inter = prod.intersect_subspace(diag)
        proj_rows = [tuple(Fraction(1) if i == j else Fraction(0)
                           for i in range(2 * m)) for j in range(m)]
        return inter.image(proj_rows)

    def preimage(self, rows, src_ambient: int) -> "SpanLattice":
        """{x in Q^src : rows · x ∈ self}."""
        # M maps x to reduce(A x); column j of M is reduce(A e_j)
        M_cols = [self.reduce([row[j] for row in rows])
                  for j in range(src_ambient)]
        M_rows = ratmat.cols_to_rows(M_cols, self.ambient)
        S0 = ratmat.kernel_basis(M_rows, src_ambient)
        # image of M as a subspace
        im_basis, im_piv = rref(M_cols)
        gens = []
        if self.lattice:
            # integer combos of lattice generators inside im(M)
            V, _ = _scaled([reduce_mod_span(im_basis, im_piv, c)
                            for c in self.lattice], self.ambient)
            for coeffs in int_kernel(V).columns():
                x = ratmat.solve(
                    M_rows, combine(coeffs, self.lattice, self.ambient))
                if x is None:
                    raise ContainmentError(
                        "lattice generator not in the image")
                gens.append(x)
        return SpanLattice.make(src_ambient, S0, gens)


def _subspace_intersection(A, B, ambient):
    """Basis of span(A) ∩ span(B) from bases A, B (lists of rows)."""
    if not A or not B:
        return []
    cols = list(A) + [[-x for x in b] for b in B]
    rows = ratmat.cols_to_rows(cols, ambient)
    return [combine(k[:len(A)], A, ambient)
            for k in ratmat.kernel_basis(rows, len(cols))]


@dataclass(frozen=True)
class GroupType:
    """Isomorphism type Q^a + (Q/Z)^b + Z^c + finite."""
    q_rank: int
    qz_rank: int
    z_rank: int
    finite_factors: tuple

    def is_finite(self) -> bool:
        return self.q_rank == self.qz_rank == self.z_rank == 0

    def is_trivial(self) -> bool:
        return self.is_finite() and not self.finite_factors

    def order(self):
        if not self.is_finite():
            return None
        n = 1
        for d in self.finite_factors:
            n *= d
        return n

    def __str__(self):
        parts = []
        if self.q_rank == 1:
            parts.append("Q")
        elif self.q_rank > 1:
            parts.append("Q^%d" % self.q_rank)
        if self.qz_rank == 1:
            parts.append("Q/Z")
        elif self.qz_rank > 1:
            parts.append("(Q/Z)^%d" % self.qz_rank)
        if self.z_rank == 1:
            parts.append("Z")
        elif self.z_rank > 1:
            parts.append("Z^%d" % self.z_rank)
        parts.extend("Z/%d" % d for d in self.finite_factors)
        return " + ".join(parts) if parts else "0"


def quotient_type(num: SpanLattice, den: SpanLattice) -> GroupType:
    """Isomorphism type of num/den; raises if den is not inside num."""
    if not num.contains_group(den):
        raise ContainmentError("denominator subgroup not inside numerator")
    # divisible part: span(num) / (span(num) ∩ den)
    X = den.intersect_subspace([list(r) for r in num.span])
    q_dim = num.span_dim() - X.span_dim()
    s = X.lattice_rank()
    if not num.lattice:
        return GroupType(q_dim - s, s, 0, ())
    G = _discrete_part(num, den)
    return GroupType(q_dim - s, s, G.free_rank(),
                     tuple(d for d in G.invariant_factors if d != 0))


def _discrete_part(num: SpanLattice, den: SpanLattice) -> FpAbGroup:
    """The lattice of num modulo span(num) + den, presented on num's
    lattice generators.

    num's lattice is already reduced modulo its span and Hermite-reduced,
    so its scaled integer matrix is a basis as it stands.
    """
    B, den_n = _scaled(num.lattice, num.ambient)
    targets = [_integral(num.reduce(c), den_n) for c in den.lattice]
    rel_cols = [None] if None in targets else solve_many(B, targets)
    if None in rel_cols:
        raise ContainmentError("denominator lattice outside numerator")
    t = B.cols
    rels = IntMatrix.from_cols(rel_cols, rows=t) if t \
        else IntMatrix.zeros(0, 0)
    return fp_from_presentation(t, rels)


# -- the spec-level value type --------------------------------------------


@dataclass(frozen=True)
class LatticePairGroup:
    """The quotient group numerator/denominator of span+lattice subgroups."""
    numerator: SpanLattice
    denominator: SpanLattice

    def __post_init__(self):
        if not self.numerator.contains_group(self.denominator):
            raise ContainmentError(
                "denominator subgroup not inside numerator")

    @property
    def ambient(self) -> int:
        return self.numerator.ambient

    def group_type(self) -> GroupType:
        return quotient_type(self.numerator, self.denominator)


def latpair_quotient_type(G: LatticePairGroup) -> GroupType:
    return G.group_type()


def latpair_kernel_image(rows, src: LatticePairGroup,
                         dst: LatticePairGroup):
    """Kernel and image of the induced map src -> dst.

    rows is a rational matrix from src's ambient to dst's ambient; it must
    map numerator into numerator and denominator into denominator.
    Returns (kernel, image) as LatticePairGroups (kernel in src's ambient,
    image in dst's).
    """
    num_img = src.numerator.image(rows)
    if not dst.numerator.contains_group(num_img):
        raise ContainmentError("map does not send numerator into numerator")
    den_img = src.denominator.image(rows)
    if not dst.denominator.contains_group(den_img):
        raise ContainmentError(
            "map does not send denominator into denominator")
    ker_num = dst.denominator.preimage(rows, src.ambient).intersect(
        src.numerator)
    kernel = LatticePairGroup(ker_num, src.denominator)
    image = LatticePairGroup(num_img.add(dst.denominator), dst.denominator)
    return kernel, image
