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
from .fpgroup import FpAbGroup, FpMorphism, fp_from_presentation
from .intmat import IntMatrix, hnf
from .intmat import kernel as int_kernel
from .intmat import solve as int_solve
from .intmat import solve_many
from .ratmat import fr, mat_vec, reduce_mod_span, rref, vec, vis_zero


class ContainmentError(ValueError):
    """Denominator not contained in numerator (or map not well defined)."""


def _common_denominator(vectors) -> int:
    d = 1
    for v in vectors:
        for x in v:
            d = math.lcm(d, fr(x).denominator)
    return d


def _canonical_lattice(cols, ambient):
    """Canonical generators for the lattice spanned by rational columns.

    Returns (canonical_cols, denominator): columns are (1/den)·HNF of the
    scaled integer lattice; zero columns dropped.
    """
    cols = [vec(c) for c in cols if not vis_zero(vec(c))]
    if not cols:
        return (), 1
    den = _common_denominator(cols)
    int_cols = [[int(x * den) for x in c] for c in cols]
    H = hnf(IntMatrix.from_cols(int_cols, rows=ambient))
    out = tuple(tuple(Fraction(H[i, j], den) for i in range(ambient))
                for j in range(H.cols))
    return out, den


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
        reduced = [reduce_mod_span(basis, pivots, vec(v))
                   for v in lattice_vectors]
        lat, _ = _canonical_lattice(reduced, ambient)
        return SpanLattice(ambient, tuple(basis), tuple(pivots), lat)

    @staticmethod
    def zero(ambient) -> "SpanLattice":
        return SpanLattice.make(ambient)

    @staticmethod
    def full(ambient) -> "SpanLattice":
        eye = [[1 if i == j else 0 for j in range(ambient)]
               for i in range(ambient)]
        return SpanLattice.make(ambient, span_vectors=eye)

    @staticmethod
    def from_int_lattice(L: IntMatrix) -> "SpanLattice":
        return SpanLattice.make(L.rows, lattice_vectors=L.columns())

    # -- basic structure ---------------------------------------------------

    def span_dim(self) -> int:
        return len(self.span)

    def lattice_rank(self) -> int:
        return len(self.lattice)

    def is_zero(self) -> bool:
        return not self.span and not self.lattice

    def reduce(self, v) -> tuple:
        """Reduce v modulo the span part."""
        return reduce_mod_span(self.span, self.span_pivots, vec(v))

    def contains(self, v) -> bool:
        w = self.reduce(v)
        if vis_zero(w):
            return True
        if not self.lattice:
            return False
        den = _common_denominator(self.lattice)
        L = IntMatrix.from_cols(
            [[int(x * den) for x in c] for c in self.lattice],
            rows=self.ambient)
        target = [fr(x) * den for x in w]
        if any(x.denominator != 1 for x in target):
            return False
        return int_solve(L, [int(x) for x in target]) is not None

    def contains_group(self, other: "SpanLattice") -> bool:
        for row in other.span:
            if not vis_zero(self.reduce(row)):
                return False
        return all(self.contains(c) for c in other.lattice)

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
        K, Kpiv = rref([vec(v) for v in k_basis_vectors])
        S, Spiv = self.span, self.span_pivots
        # T = K + S
        T, Tpiv = rref(list(K) + list(S))
        # integer combinations of lattice generators landing in T
        lat = list(self.lattice)
        if lat:
            U_cols = [reduce_mod_span(T, Tpiv, c) for c in lat]
            den = _common_denominator(U_cols)
            U = IntMatrix.from_cols(
                [[int(x * den) for x in c] for c in U_cols],
                rows=self.ambient)
            C = int_kernel(U)
            gens = []
            for j in range(C.cols):
                coeffs = C.col(j)
                x = tuple(sum((fr(coeffs[t]) * lat[t][i]
                               for t in range(len(lat))), Fraction(0))
                          for i in range(self.ambient))
                # decompose x = k + s with k in K, s in S; keep k
                s_part = self._project_onto(S, Spiv, K, Kpiv, x)
                gens.append(ratmat.vsub(x, s_part))
        else:
            gens = []
        # K ∩ S
        ks = _subspace_intersection(K, S, self.ambient)
        return SpanLattice.make(self.ambient, ks, gens)

    @staticmethod
    def _project_onto(S, Spiv, K, Kpiv, x):
        """Write x in K + S as k + s; return the s component."""
        # solve for coefficients over the combined basis
        basis = list(K) + list(S)
        if not basis:
            if not vis_zero(x):
                raise ContainmentError("vector outside K + S")
            return x
        rows = ratmat.cols_to_rows([list(b) for b in basis], len(x))
        coeffs = ratmat.solve(rows, x)
        if coeffs is None:
            raise ContainmentError("vector outside K + S")
        s = [Fraction(0)] * len(x)
        for c, b in zip(coeffs[len(K):], S):
            s = [si + c * bi for si, bi in zip(s, b)]
        return tuple(s)

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
        # reduce the map modulo the span part of the target
        M_rows = [self.reduce(row_of_map)
                  for row_of_map in _map_columns_as_images(rows, src_ambient)]
        # M maps x to reduce(A x); compute as reduced columns
        # M_cols[j] = reduce(A e_j)
        M_cols = M_rows  # each entry is the image of a basis vector
        ambient_t = self.ambient
        M_matrix_rows = ratmat.cols_to_rows([list(c) for c in M_cols],
                                            ambient_t)
        S0 = ratmat.kernel_basis(M_matrix_rows, src_ambient)
        # image of M as a subspace
        im_basis, im_piv = rref(M_cols)
        gens = []
        lat = list(self.lattice)
        if lat:
            # integer combos of lattice generators inside im(M)
            V_cols = [reduce_mod_span(im_basis, im_piv, c) for c in lat]
            den = _common_denominator(V_cols)
            V = IntMatrix.from_cols(
                [[int(x * den) for x in c] for c in V_cols],
                rows=ambient_t)
            C = int_kernel(V)
            for j in range(C.cols):
                coeffs = C.col(j)
                d = tuple(sum((fr(coeffs[t]) * lat[t][i]
                               for t in range(len(lat))), Fraction(0))
                          for i in range(ambient_t))
                x = ratmat.solve(M_matrix_rows, d)
                if x is None:
                    raise ContainmentError(
                        "lattice generator not in the image")
                gens.append(x)
        return SpanLattice.make(src_ambient, S0, gens)


def _map_columns_as_images(rows, src_ambient):
    """Columns of the matrix given by rows (images of basis vectors)."""
    cols = []
    for j in range(src_ambient):
        cols.append(tuple(fr(row[j]) for row in rows))
    return cols


def _subspace_intersection(A, B, ambient):
    """Basis of span(A) ∩ span(B) from bases A, B (lists of rows)."""
    if not A or not B:
        return []
    cols = [list(a) for a in A] + [[-x for x in b] for b in B]
    rows = ratmat.cols_to_rows(cols, ambient)
    ker = ratmat.kernel_basis(rows, len(cols))
    out = []
    for k in ker:
        v = [Fraction(0)] * ambient
        for c, a in zip(k[:len(A)], A):
            v = [vi + c * ai for vi, ai in zip(v, a)]
        out.append(tuple(v))
    return out


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
    q_rank = q_dim - s
    qz_rank = s
    # discrete part: lattice of num modulo (span(num) + den)
    lam_n = [num.reduce(c) for c in num.lattice]
    lam_d = [num.reduce(c) for c in den.lattice]
    lam_n_canon, den_n = _canonical_lattice(lam_n, num.ambient)
    if not lam_n_canon:
        return GroupType(q_rank, qz_rank, 0, ())
    B = IntMatrix.from_cols(
        [[int(x * den_n) for x in c] for c in lam_n_canon], rows=num.ambient)
    targets = [[fr(x) * den_n for x in c] for c in lam_d]
    if any(x.denominator != 1 for t in targets for x in t):
        raise ContainmentError("denominator lattice outside numerator")
    rel_cols = solve_many(B, [[int(x) for x in t] for t in targets])
    if None in rel_cols:
        raise ContainmentError("denominator lattice outside numerator")
    t = B.cols
    G = fp_from_presentation(
        t, IntMatrix.from_cols(rel_cols, rows=t)
        if rel_cols else IntMatrix.zeros(t, 0))
    return GroupType(q_rank, qz_rank, G.free_rank(),
                     tuple(d for d in G.invariant_factors if d != 0))


@dataclass(frozen=True)
class Subquotient:
    """A discrete (no divisible part) subquotient num/den with coordinates.

    group: the abstract FpAbGroup; generators: rational vectors in num
    projecting to the group generators; log: see element_of.
    """
    num: SpanLattice
    den: SpanLattice
    group: FpAbGroup
    generators: tuple   # rational vectors
    _basis_int: IntMatrix
    _den_scale: int

    def element_of(self, v) -> tuple:
        """Canonical group element represented by vector v ∈ num."""
        w = self.num.reduce(vec(v))
        if self._basis_int.cols == 0:
            if not vis_zero(w):
                raise ContainmentError("vector not in the numerator")
            return self.group.zero()
        target = [fr(x) * self._den_scale for x in w]
        if any(x.denominator != 1 for x in target):
            raise ContainmentError("vector not in the numerator")
        sol = int_solve(self._basis_int, [int(x) for x in target])
        if sol is None:
            raise ContainmentError("vector not in the numerator")
        return self.group.normal_form(sol)

    def vector_of(self, elem: tuple) -> tuple:
        """A representative vector for a canonical group element."""
        coeffs = self.group.lift(elem)
        v = [Fraction(0)] * self.num.ambient
        for c, g in zip(coeffs, self.generators):
            v = [vi + c * gi for vi, gi in zip(v, g)]
        return tuple(v)


def subquotient(num: SpanLattice, den: SpanLattice) -> Subquotient:
    """Present num/den as an FpAbGroup (requires trivial divisible part)."""
    if not num.contains_group(den):
        raise ContainmentError("denominator subgroup not inside numerator")
    for row in num.span:
        if not vis_zero(den.reduce(row)):
            raise ContainmentError(
                "quotient has a divisible part; not discrete")
    lam_n = [num.reduce(c) for c in num.lattice]
    lam_n_canon, den_n = _canonical_lattice(lam_n, num.ambient)
    B = IntMatrix.from_cols(
        [[int(x * den_n) for x in c] for c in lam_n_canon],
        rows=num.ambient) if lam_n_canon else IntMatrix.zeros(num.ambient, 0)
    targets = [[fr(x) * den_n for x in num.reduce(c)] for c in den.lattice]
    if any(x.denominator != 1 for t in targets for x in t):
        raise ContainmentError("denominator lattice outside numerator")
    rel_cols = solve_many(B, [[int(x) for x in t] for t in targets])
    if None in rel_cols:
        raise ContainmentError("denominator lattice outside numerator")
    t = B.cols
    G = fp_from_presentation(
        t, IntMatrix.from_cols(rel_cols, rows=t)
        if rel_cols and t else IntMatrix.zeros(t, 0))
    gens = tuple(tuple(Fraction(B[i, j], den_n) for i in range(num.ambient))
                 for j in range(t))
    return Subquotient(num, den, G, gens, B, den_n)


def induced_morphism(rows, src: Subquotient, dst: Subquotient) -> FpMorphism:
    """Morphism of subquotients induced by the matrix with the given rows.

    The matrix must map src.num into dst.num and src.den into dst.den;
    ContainmentError otherwise.
    """
    cols = []
    for g in src.generators:
        img = mat_vec(rows, g)
        e = dst.element_of(img)
        cols.append(list(dst.group.lift(e)))
    for c in src.den.lattice:
        img = mat_vec(rows, c)
        if not dst.den.contains(img):
            raise ContainmentError("map does not preserve denominators")
    for r in src.den.span:
        img = mat_vec(rows, r)
        if not dst.den.contains(img):
            raise ContainmentError("map does not preserve denominators")
    mat = IntMatrix.from_cols(cols, rows=dst.group.gens) if cols \
        else IntMatrix.zeros(dst.group.gens, 0)
    return FpMorphism(src.group, dst.group, mat).check()


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
