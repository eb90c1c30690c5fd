"""Subgroups of Q^m of the form (subspace + finitely generated lattice).

This class of subgroups is closed under sum, intersection, image and
preimage along rational linear maps, which is exactly what cochain
complexes of divisible-valued groups need.  Everything is stored and
computed on integers.  A rational map is an integer matrix and a
denominator d (it acts as rows/d).  Canonical form:

- the subspace is kept as its `ratmat.rref` basis, primitive integer
  rows with positive pivots;
- the lattice is reduced modulo the subspace, scaled by the least
  positive den that makes it integral, and kept as the column Hermite
  normal form of that integer lattice (so gcd(den, entries) = 1).

Two subgroups are equal iff their canonical data are identical.

A LatticePairGroup is a pair numerator/denominator of such subgroups and
stands for their quotient; quotient_type classifies it as
Q^a + (Q/Z)^b + Z^c + finite.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from . import Failure
from .fpgroup import FpAbGroup, fp_from_presentation
from .intmat import IntMatrix, hnf
from .intmat import kernel as int_kernel
from .intmat import solve_hnf
from .ratmat import (combine, kernel_basis, mat_vec, reduce_mod_span, rref,
                     solve)


class ContainmentError(Failure):
    """Denominator not contained in numerator (or map not well defined)."""


def _check_map(rows, source: int, target=None):
    """Raise unless rows has target rows (any number when None), each of
    source entries."""
    if target is not None and len(rows) != target or \
            any(len(row) != source for row in rows):
        raise ValueError("ambient mismatch")


@dataclass(frozen=True)
class SpanLattice:
    ambient: int
    span: tuple         # canonical integer rows (ratmat.rref)
    span_pivots: tuple
    lattice: IntMatrix  # column HNF of den · (lattice reduced mod span)
    den: int

    # -- constructors ------------------------------------------------------

    @staticmethod
    def make(ambient, span_vectors=(), lattice_vectors=()) -> "SpanLattice":
        """The subgroup spanned and generated by rational vectors (ints or
        Fractions, read through .numerator and .denominator)."""
        vectors = [list(v) for v in span_vectors]
        lats = [list(v) for v in lattice_vectors]
        if any(len(v) != ambient for v in vectors + lats):
            raise ValueError("ambient mismatch")
        rows = []
        for v in vectors:
            d = lcm(*(x.denominator for x in v))
            rows.append([x.numerator * (d // x.denominator) for x in v])
        den = lcm(*(x.denominator for v in lats for x in v))
        cols = [[x.numerator * (den // x.denominator) for x in v]
                for v in lats]
        return SpanLattice.of_integers(ambient, rows, cols, den)

    @staticmethod
    def of_integers(ambient, span_rows=(), lattice_cols=(),
                    den=1) -> "SpanLattice":
        """The span of the integer rows plus the lattice generated by the
        integer columns divided by den."""
        basis, pivots = rref(span_rows)
        if basis:
            reduced = [reduce_mod_span(basis, pivots, c)
                       for c in lattice_cols]
            reduced = [(w, s) for w, s in reduced if any(w)]
            m = lcm(*(s for _, s in reduced))
            lattice_cols = [[x * (m // s) for x in w] for w, s in reduced]
            den *= m
        else:
            lattice_cols = [c for c in lattice_cols if any(c)]
        if not lattice_cols:
            return SpanLattice(ambient, tuple(basis), tuple(pivots),
                               IntMatrix.zeros(ambient, 0), 1)
        H = hnf(IntMatrix.from_cols(lattice_cols, rows=ambient))
        g = gcd(den, *(x for row in H.entries for x in row))
        if g > 1:
            H = IntMatrix(H.rows, H.cols, tuple(tuple(x // g for x in row)
                                                for row in H.entries))
            den //= g
        return SpanLattice(ambient, tuple(basis), tuple(pivots), H, den)

    @staticmethod
    def direct_sum(parts) -> "SpanLattice":
        """The product of subgroups in the stacked coordinates.  Each
        block of canonical data is canonical in the product, so the
        blocks are placed, not re-reduced."""
        parts = list(parts)
        ambient = sum(A.ambient for A in parts)
        den = lcm(*(A.den for A in parts))
        span, pivots, cols, off = [], [], [], 0
        for A in parts:
            tail = (0,) * (ambient - off - A.ambient)
            span += [(0,) * off + row + tail for row in A.span]
            pivots += [off + p for p in A.span_pivots]
            k = den // A.den
            cols += [(0,) * off + tuple(k * x for x in c) + tail
                     for c in zip(*A.lattice.entries)]
            off += A.ambient
        return SpanLattice(ambient, tuple(span), tuple(pivots),
                           IntMatrix.from_cols(cols, rows=ambient), den)

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
        return self.lattice.cols

    def lattice_columns(self):
        """The integer columns of the lattice; divide by den for the
        generators."""
        return list(zip(*self.lattice.entries))

    def is_full(self) -> bool:
        return self.span_dim() == self.ambient

    def contains(self, v) -> bool:
        return self.contains_group(SpanLattice.make(
            self.ambient, lattice_vectors=[v]))

    def contains_group(self, other: "SpanLattice") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        if self.is_full():
            return True
        if any(any(reduce_mod_span(self.span, self.span_pivots, row)[0])
               for row in other.span):
            return False
        return all(self._coordinates(c, other.den) is not None
                   for c in other.lattice_columns())

    def _coordinates(self, col, den):
        """The integer coordinates on the lattice basis of col/den reduced
        modulo the span, or None when that rest is not in the lattice.
        The lattice is in Hermite form, so they come by substitution."""
        w, s = reduce_mod_span(self.span, self.span_pivots, col)
        q = s * den
        t = [self.den * x for x in w]
        if any(x % q for x in t):
            return None
        return solve_hnf(self.lattice, [x // q for x in t])

    # -- subgroup algebra --------------------------------------------------

    def add(self, other: "SpanLattice") -> "SpanLattice":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        den = lcm(self.den, other.den)
        cols = [[x * (den // A.den) for x in c]
                for A in (self, other) for c in A.lattice_columns()]
        return SpanLattice.of_integers(self.ambient, self.span + other.span,
                                       cols, den)

    def image(self, rows, den=1) -> "SpanLattice":
        """Image under the linear map rows/den."""
        _check_map(rows, self.ambient)
        return SpanLattice.of_integers(
            len(rows), [mat_vec(rows, v) for v in self.span],
            [mat_vec(rows, c) for c in self.lattice_columns()],
            self.den * den)

    def preimage(self, rows, src_ambient: int, den=1) -> "SpanLattice":
        """{x in Q^src : (rows/den) · x ∈ self}, from one elimination.

        Reducing rows·x modulo the span is x ↦ M·x/s with M integer.  With
        L the lattice matrix, x lies in the preimage iff M·x = (s·den /
        self.den)·L·k for an integer k.  One `rref` of the rows of [M | L]
        gives the kernel of M (its rows with pivots in M), the k with L·k
        in the image of M (the integer kernel of its other rows), and the
        reduced system that M·x0 = L·k is solved on for each such k."""
        _check_map(rows, src_ambient, self.ambient)
        m = src_ambient
        reduced = [reduce_mod_span(self.span, self.span_pivots, col)
                   for col in zip(*rows)] if rows else [((), 1)] * m
        s = lcm(*(t for _, t in reduced))
        M_cols = [[x * (s // t) for x in w] for w, t in reduced]
        M = list(zip(*M_cols)) if m else [()] * self.ambient
        red, pivots = rref([m_row + l_row for m_row, l_row in zip(
            M, self.lattice.entries)])
        k = sum(1 for p in pivots if p < m)
        M_red = [r[:m] for r in red[:k]]
        spans = kernel_basis(M_red, m)
        C = IntMatrix(len(red) - k, self.lattice.cols,
                      tuple(r[m:] for r in red[k:]))
        L_red = list(zip(*(r[m:] for r in red[:k])))
        sols = [solve(M_red, combine(c, L_red, k))
                for c in int_kernel(C).columns()]
        D = lcm(*(d for _, d in sols))
        return SpanLattice.of_integers(
            m, spans, [[v * (D // d) * s * den for v in x] for x, d in sols],
            self.den * D)

    def intersect(self, other: "SpanLattice") -> "SpanLattice":
        """Intersection of two span+lattice subgroups: the preimage of
        self × other under the diagonal x ↦ (x, x)."""
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        if self.is_full():
            return other
        if other.is_full():
            return self
        eye = IntMatrix.identity(self.ambient).entries
        return SpanLattice.direct_sum([self, other]).preimage(
            eye + eye, self.ambient)


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
    # divisible part: span(num) / (span(num) ∩ den), where span(num) ∩ den
    # is the preimage of den along the injective map of num's span basis
    basis = list(zip(*num.span)) if num.span else [()] * num.ambient
    X = den.preimage(basis, num.span_dim())
    q_dim = num.span_dim() - X.span_dim()
    s = X.lattice_rank()
    if not num.lattice.cols:
        return GroupType(q_dim - s, s, 0, ())
    G = _discrete_part(num, den)
    return GroupType(q_dim - s, s, G.free_rank(),
                     tuple(d for d in G.invariant_factors if d != 0))


def _discrete_part(num: SpanLattice, den: SpanLattice) -> FpAbGroup:
    """The lattice of num modulo span(num) + den, presented on num's
    lattice generators: each of den's lattice generators, reduced modulo
    span(num), gives the relation of its coordinates."""
    rel_cols = [num._coordinates(c, den.den) for c in den.lattice_columns()]
    if None in rel_cols:
        raise ContainmentError("denominator lattice outside numerator")
    t = num.lattice.cols
    return fp_from_presentation(t, IntMatrix.from_cols(rel_cols, rows=t))


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
                         dst: LatticePairGroup, den=1):
    """Kernel and image of the induced map src -> dst.

    rows/den is a rational matrix from src's ambient to dst's ambient; it
    must map numerator into numerator and denominator into denominator.
    Returns (kernel, image) as LatticePairGroups (kernel in src's ambient,
    image in dst's).
    """
    _check_map(rows, src.ambient, dst.ambient)
    num_img = src.numerator.image(rows, den)
    if not dst.numerator.contains_group(num_img):
        raise ContainmentError("map does not send numerator into numerator")
    den_img = src.denominator.image(rows, den)
    if not dst.denominator.contains_group(den_img):
        raise ContainmentError(
            "map does not send denominator into denominator")
    ker_num = dst.denominator.preimage(rows, src.ambient, den).intersect(
        src.numerator)
    kernel = LatticePairGroup(ker_num, src.denominator)
    image = LatticePairGroup(num_img.add(dst.denominator), dst.denominator)
    return kernel, image
