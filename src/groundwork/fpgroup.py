"""Finitely presented abelian groups and their morphisms.

A group is a free abelian group on `gens` generators modulo the column
lattice of `relations`.  The Smith normal form of the relation matrix gives
the canonical invariant factors (unit factors dropped, 0 encoding a free
summand) and a working coordinate system for element arithmetic.
A matrix M of generator coordinates is zero in a group exactly when each
row i of U·M is 0 modulo the i-th Smith modulus m_i (U the change to Smith
coordinates), so well-definedness and vanishing of a morphism are each
one such test on a whole matrix, and two morphisms agree when their
matrices reduce to the same rows; none takes one normal form per column.

Every other query about a morphism f: A -> B is answered in the groups'
Smith coordinates, on the system [S | diag(B's invariant factors)] with
S = U_B·M·U_A⁻¹ restricted to the invariant factors of A and B, so its
size follows the groups and not their presentations: kernels, images,
monic/epic and exactness tests compare Hermite forms there, preimages
and factorizations solve against it, and `fp_kernel` presents the kernel
on at most len(A.invariant_factors) generators.  `fp_cohomology_at`,
`fp_factor_through` and `fp_preimages` are the one home for complexes of
groups: cohomology as ker/im, maps into a kernel, and chosen preimages.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import mul

from . import Failure
from .intmat import IntMatrix, hnf, kernel, snf, solve_hnf
from .intmat import solve_many as int_solve


class IllDefinedMorphism(Failure):
    pass


@dataclass(frozen=True)
class FpAbGroup:
    gens: int
    relations: IntMatrix  # gens rows, one relation per column
    # derived, filled by fp_from_presentation:
    invariant_factors: tuple = field(default=())
    _moduli: tuple = field(default=())      # modulus per smith coordinate
    _to_smith: IntMatrix = field(default=None)    # U: gen coords -> smith
    _from_smith: IntMatrix = field(default=None)  # U^{-1}

    # -- structure ---------------------------------------------------------

    def order(self):
        """Group order, or None if infinite."""
        n = 1
        for d in self.invariant_factors:
            if d == 0:
                return None
            n *= d
        return n

    def is_finite(self) -> bool:
        return self.order() is not None

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def free_rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d == 0)

    # -- element arithmetic (canonical tuples in smith coordinates) --------

    def normal_form(self, x) -> tuple:
        """Canonical form of the element given by generator coordinates x."""
        if len(x) != self.gens:
            raise ValueError("coordinate length mismatch")
        y = self._to_smith.mul_vec(tuple(x))
        out = []
        for yi, m in zip(y, self._moduli):
            if m == 1:
                continue
            out.append(yi % m if m else yi)
        return tuple(out)

    def lift(self, elem: tuple) -> tuple:
        """Generator coordinates of a canonical element."""
        if len(elem) != len(self.invariant_factors):
            raise ValueError("element length mismatch")
        it = iter(elem)
        y = [0 if m == 1 else next(it) for m in self._moduli]
        return self._from_smith.mul_vec(tuple(y))

    def zero(self) -> tuple:
        return tuple(0 for _ in self.invariant_factors)

    def generator(self, i: int) -> tuple:
        """The canonical element with 1 in invariant-factor slot i."""
        return tuple(1 if j == i else 0
                     for j in range(len(self.invariant_factors)))

    def generators(self) -> list:
        """The canonical generators, one per invariant factor."""
        return [self.generator(i) for i in range(len(self.invariant_factors))]

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % m if m else x + y
                     for x, y, m in zip(a, b, self.invariant_factors))

    def neg(self, a: tuple) -> tuple:
        return tuple((-x) % m if m else -x
                     for x, m in zip(a, self.invariant_factors))

    def smul(self, c: int, a: tuple) -> tuple:
        return tuple((c * x) % m if m else c * x
                     for x, m in zip(a, self.invariant_factors))

    def elements(self):
        """All elements (finite groups only), in lexicographic order."""
        if not self.is_finite():
            raise ValueError("infinite group")
        return [tuple(e) for e in
                itertools.product(*(range(d) for d in self.invariant_factors))]

    def element_order(self, a: tuple) -> int:
        n = 1
        for x, m in zip(a, self.invariant_factors):
            if m == 0:
                if x != 0:
                    raise ValueError("element of infinite order")
                continue
            if x:
                n = math.lcm(n, m // math.gcd(m, x))
        return n

    # -- presentation ------------------------------------------------------

    def iso_type(self) -> str:
        if not self.invariant_factors:
            return "0"
        parts = []
        free = sum(1 for d in self.invariant_factors if d == 0)
        for d in self.invariant_factors:
            if d:
                parts.append("Z/%d" % d)
        if free == 1:
            parts.append("Z")
        elif free > 1:
            parts.append("Z^%d" % free)
        return " + ".join(parts)


def fp_from_presentation(gens: int, rels: IntMatrix) -> FpAbGroup:
    """Group on `gens` generators with the columns of rels as relations."""
    if rels.rows != gens:
        raise ValueError("relation matrix must have one row per generator")
    D, U, _V, U_inv = snf(rels)
    moduli = []
    for i in range(gens):
        d = D[i, i] if i < min(D.rows, D.cols) else 0
        moduli.append(d)
    factors = tuple(d for d in moduli if d != 1)
    # invariant factors: finite parts keep SNF divisibility order, zeros last
    return FpAbGroup(gens=gens, relations=rels,
                     invariant_factors=factors,
                     _moduli=tuple(moduli),
                     _to_smith=U,
                     _from_smith=U_inv)


def fp_from_factors(factors) -> FpAbGroup:
    """Group presented directly as a direct sum of cyclic factors."""
    factors = [int(d) for d in factors]
    return fp_from_presentation(len(factors), IntMatrix.diagonal(factors))


def fp_trivial() -> FpAbGroup:
    return fp_from_presentation(0, IntMatrix.zeros(0, 0))


def fp_cyclic(n: int) -> FpAbGroup:
    return fp_from_factors([n])


def fp_free(rank: int) -> FpAbGroup:
    return fp_from_presentation(rank, IntMatrix.zeros(rank, 0))


def fp_direct_sum(groups):
    """Direct sum with inclusion and projection morphisms."""
    groups = list(groups)
    gens = sum(g.gens for g in groups)
    total = fp_from_presentation(
        gens, IntMatrix.block_diagonal(g.relations for g in groups))
    inclusions, projections = [], []
    row_off = 0
    for g in groups:
        pad = gens - row_off - g.gens
        proj = IntMatrix(g.gens, gens, tuple(
            (0,) * row_off + row + (0,) * pad
            for row in IntMatrix.identity(g.gens).entries))
        inclusions.append(FpMorphism(g, total, proj.transpose()))
        projections.append(FpMorphism(total, g, proj))
        row_off += g.gens
    return total, inclusions, projections


@dataclass(frozen=True)
class FpMorphism:
    source: FpAbGroup
    target: FpAbGroup
    matrix: IntMatrix  # target.gens x source.gens, acting on generator coords

    def __post_init__(self):
        if self.matrix.rows != self.target.gens or \
                self.matrix.cols != self.source.gens:
            raise IllDefinedMorphism("matrix shape does not match groups")

    def is_well_defined(self) -> bool:
        """Is M·Rel(source) zero in the target?  Each row of U·M, reduced
        mod its m_i, is multiplied by the relations and reduced again."""
        rels = list(zip(*self.source.relations.entries))
        for row, m in _smith_rows(self.target, zip(*self.matrix.entries)):
            for r in rels:
                y = sum(map(mul, row, r))
                if y % m if m else y:
                    return False
        return True

    def check(self) -> "FpMorphism":
        if not self.is_well_defined():
            raise IllDefinedMorphism(
                "matrix does not map relations into relations")
        return self

    def apply(self, elem: tuple) -> tuple:
        """Apply to a canonical element of the source."""
        x = self.source.lift(elem)
        return self.target.normal_form(self.matrix.mul_vec(x))

    def compose(self, other: "FpMorphism") -> "FpMorphism":
        """self ∘ other."""
        if other.target is not self.source and \
                other.target.relations.entries != self.source.relations.entries:
            raise IllDefinedMorphism("composition endpoint mismatch")
        return FpMorphism(other.source, self.target,
                          self.matrix.mul(other.matrix))

    def agrees_with(self, other: "FpMorphism") -> bool:
        """Do both maps send every source generator to the same element?
        Each map's columns are taken to its target's Smith rows, whose
        columns are their normal forms, and the two are compared."""
        mine, theirs = (list(zip(*(row for row, _ in _smith_rows(
            f.target, zip(*f.matrix.entries))))) for f in (self, other))
        return mine == theirs

    def is_zero(self) -> bool:
        return not any(any(row) for row, _ in _smith_rows(
            self.target, zip(*self.matrix.entries)))

    def image_lattice(self) -> IntMatrix:
        """Preimage in Z^{target.gens} of the image subgroup (canonical)."""
        return _generator_lattice(self.target,
                                  _smith_system(self).columns())

    def kernel_lattice(self) -> IntMatrix:
        """Lattice {x in Z^{source.gens} : f(x) = 0}, canonical HNF."""
        return _generator_lattice(self.source, _smith_kernel(self))

    def is_monic(self) -> bool:
        """The kernel lattice contains diag(source invariant factors), so f
        is monic when each of its generators lies in that diagonal."""
        mods = self.source.invariant_factors
        return not any(x % m if m else x for c in _smith_kernel(self)
                       for x, m in zip(c, mods))

    def is_epic(self) -> bool:
        return hnf(_smith_system(self)).entries == \
            IntMatrix.identity(len(self.target.invariant_factors)).entries


def _smith_rows(G: FpAbGroup, cols):
    """(row i of U·M reduced mod m_i, m_i) for each Smith coordinate i of
    G with m_i != 1, where M is given by its columns in G's generator
    coordinates and m_i = 0 leaves the row exact.  Column j of the rows is
    the normal form of column j of M, so M is zero in G when every row
    is."""
    cols = list(cols)
    for u, m in zip(G._to_smith.entries, G._moduli):
        if m != 1:
            row = [sum(map(mul, u, c)) for c in cols]
            yield ([y % m for y in row] if m else row), m


def _smith_system(f: FpMorphism) -> IntMatrix:
    """[S | diag(m)] for f: A -> B, the system that kernels, images,
    preimages and factorizations through f are read from.

    S = U_B·M·U_A⁻¹ restricted to the Smith coordinates with modulus != 1
    of A (columns) and B (rows), row i reduced mod B's m_i; one column
    m_i·e_i follows for each nonzero m_i.  Its columns span the image of f
    in B's canonical coordinates, and a canonical vector y of A maps to
    zero exactly when (y, z) is in its kernel for some z."""
    A, B = f.source, f.target
    finite = len(B.invariant_factors) - B.free_rank()   # zeros come last
    # f applied to A's canonical generators: the columns of U_A⁻¹ at m != 1
    cols = [f.matrix.mul_vec(c) for c, m in
            zip(zip(*A._from_smith.entries), A._moduli) if m != 1]
    rows = []
    for i, (row, m) in enumerate(_smith_rows(B, cols)):
        tail = [0] * finite
        if m:
            tail[i] = m
        rows.append(tuple(row + tail))
    return IntMatrix(len(rows), len(cols) + finite, tuple(rows))


def _smith_kernel(f: FpMorphism) -> list:
    """Generators of the lattice of canonical vectors of f.source that f
    (well defined) sends to zero; it contains diag(invariant factors)."""
    k = len(f.source.invariant_factors)
    return [c[:k] for c in kernel(_smith_system(f)).columns()]


def _generator_lattice(G: FpAbGroup, cols) -> IntMatrix:
    """Canonical HNF of the generator coordinates x of G whose canonical
    coordinates lie in the lattice spanned by cols: the lifts of cols plus
    the columns of U⁻¹ at the Smith coordinates with m_i = 1."""
    units = [c for c, m in zip(G._from_smith.columns(), G._moduli) if m == 1]
    return hnf(IntMatrix.from_cols(
        [G.lift(c) for c in cols] + units, rows=G.gens))


def fp_identity(G: FpAbGroup) -> FpMorphism:
    return FpMorphism(G, G, IntMatrix.identity(G.gens))


def fp_zero_morphism(A: FpAbGroup, B: FpAbGroup) -> FpMorphism:
    return FpMorphism(A, B, IntMatrix.zeros(B.gens, A.gens))


def fp_kernel(f: FpMorphism):
    """Kernel of f with its inclusion: returns (ker, incl), where
    incl: ker -> f.source is the witness morphism.  ker is presented on the
    HNF basis of its canonical-coordinate lattice, so it has at most
    len(f.source.invariant_factors) generators."""
    f.check()
    A = f.source
    K = hnf(IntMatrix.from_cols(_smith_kernel(f),
                                rows=len(A.invariant_factors)))
    rel_cols = [solve_hnf(K, [m if j == i else 0 for j in range(K.rows)])
                for i, m in enumerate(A.invariant_factors) if m]
    if None in rel_cols:
        raise RuntimeError("relation lattice not inside kernel lattice")
    ker = fp_from_presentation(
        K.cols, IntMatrix.from_cols(rel_cols, rows=K.cols))
    return ker, FpMorphism(ker, A, IntMatrix.from_cols(
        [A.lift(h) for h in K.columns()], rows=A.gens))


def fp_cokernel(f: FpMorphism):
    """Cokernel of f with its projection: returns (coker, proj), where
    proj: f.target -> coker is the witness morphism."""
    f.check()
    coker = fp_from_presentation(
        f.target.gens, f.target.relations.hstack(f.matrix))
    return coker, FpMorphism(f.target, coker,
                             IntMatrix.identity(f.target.gens))


def fp_exact_at(f: FpMorphism, g: FpMorphism) -> bool:
    """Is im(f) = ker(g) inside f.target (= g.source)?"""
    return hnf(_smith_system(f)).entries == hnf(IntMatrix.from_cols(
        _smith_kernel(g), rows=len(g.source.invariant_factors))).entries


def fp_preimages(f: FpMorphism, ys):
    """One x with f(x) = y (deterministic), or None, for each y in ys."""
    mods = f.source.invariant_factors
    return [None if sol is None else
            tuple(x % m if m else x for x, m in zip(sol, mods))
            for sol in int_solve(_smith_system(f), ys)]


def fp_factor_through(incl: FpMorphism, g: FpMorphism) -> FpMorphism:
    """h with incl ∘ h = g; every caller guarantees im(g) ⊆ im(incl)."""
    K = incl.source
    k = len(K.invariant_factors)
    sols = int_solve(_smith_system(incl), [incl.target.normal_form(c)
                                           for c in g.matrix.columns()])
    if None in sols:
        raise RuntimeError("map does not factor through the subgroup")
    return FpMorphism(g.source, K, IntMatrix.from_cols(
        [K.lift(sol[:k]) for sol in sols], rows=K.gens)).check()


def fp_cohomology_at(d_prev, d: FpMorphism):
    """Cohomology ker(d)/im(d_prev) of a complex of groups; d_prev None
    stands for the zero map.

    Returns (H, K, incl): H shares its generators with the kernel group K,
    so K-coordinates project to H classes by normal_form."""
    K, incl = fp_kernel(d)
    rels = K.relations if d_prev is None else \
        K.relations.hstack(fp_factor_through(incl, d_prev).matrix)
    return fp_from_presentation(K.gens, rels), K, incl


def fp_hom_group(A: FpAbGroup, B: FpAbGroup):
    """The group H ≅ Hom(A, B) together with element decoding.

    Returns (H, decode) where decode maps a canonical element of H to the
    corresponding FpMorphism A -> B.  H has one generator per pair of
    invariant factors, but its canonical coordinates are Smith
    coordinates, so decode reads the generator coordinates `H.lift` gives.
    """
    a_factors = A.invariant_factors
    b_factors = B.invariant_factors
    pairs = []     # (i, j, factor, generator multiplier)
    hom_factors = []
    for i, a in enumerate(a_factors):
        for j, b in enumerate(b_factors):
            if a == 0:
                c = b  # Hom(Z, Z/b) = Z/b; Hom(Z, Z) = Z
                mult = 1
            elif b == 0:
                continue  # Hom(Z/a, Z) = 0
            else:
                g = math.gcd(a, b)
                if g == 1:
                    continue
                c = g
                mult = b // g
            pairs.append((i, j, c, mult))
            hom_factors.append(c)
    H = fp_from_factors(hom_factors)

    # Smith coordinates of A's generators
    smith = [A.normal_form(tuple(int(t == g) for t in range(A.gens)))
             for g in range(A.gens)]

    def decode(elem: tuple) -> FpMorphism:
        coeffs = H.lift(elem)
        cols = []
        for sa in smith:
            # pair (i, j) sends Smith slot i of A to mult·slot j of B
            sb = [0] * len(b_factors)
            for x, (i, j, _c, mult) in zip(coeffs, pairs):
                sb[j] += x * mult * sa[i]
            cols.append(list(B.lift(tuple(
                y % m if m else y for y, m in zip(sb, b_factors)))))
        mat = IntMatrix.from_cols(cols, rows=B.gens) if A.gens \
            else IntMatrix.zeros(B.gens, 0)
        return FpMorphism(A, B, mat)

    return H, decode
