import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundwork.intmat import IntMatrix, hnf, kernel, solve_many
from groundwork.fpgroup import (FpMorphism, IllDefinedMorphism, fp_cyclic,
                                fp_direct_sum, fp_exact_at, fp_factor_through,
                                fp_free, fp_from_factors,
                                fp_from_presentation, fp_cokernel,
                                fp_hom_group, fp_identity, fp_kernel,
                                fp_preimages, fp_trivial, fp_zero_morphism)


def brute_hom_count(A, B):
    """Independent oracle: count tuples of generator images that kill all
    relations of A (finite B only)."""
    elems = B.elements()
    count = 0
    for images in itertools.product(elems, repeat=A.gens):
        ok = True
        for j in range(A.relations.cols):
            rel = A.relations.col(j)
            acc = B.zero()
            for c, img in zip(rel, images):
                acc = B.add(acc, B.smul(c, img))
            if acc != B.zero():
                ok = False
                break
        if ok:
            count += 1
    return count


def test_presentation_z6():
    G = fp_from_presentation(2, IntMatrix.diagonal([2, 3]))
    assert G.invariant_factors == (6,)
    assert G.order() == 6


def test_presentation_free():
    G = fp_from_presentation(1, IntMatrix.zeros(1, 0))
    assert G.invariant_factors == (0,)
    assert G.order() is None


def test_presentation_trivial():
    G = fp_from_presentation(1, IntMatrix.from_rows([[1]]))
    assert G.invariant_factors == ()
    assert G.is_trivial()


def test_presentation_invariance_under_random_ops():
    rng = random.Random(3)
    base = IntMatrix.from_rows([[2, 0, 4], [0, 6, 2], [0, 0, 0]])
    G = fp_from_presentation(3, base)
    rows = [list(r) for r in base.entries]
    for _ in range(100):
        op = rng.choice(["row", "col", "swap_row", "swap_col", "neg_col"])
        if op == "row":
            i, j = rng.sample(range(3), 2)
            q = rng.randint(-2, 2)
            # row op on relations = change of generating set: apply to rows
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        elif op == "col":
            i, j = rng.sample(range(3), 2)
            q = rng.randint(-2, 2)
            for r in rows:
                r[i] += q * r[j]
        elif op == "swap_row":
            i, j = rng.sample(range(3), 2)
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "swap_col":
            i, j = rng.sample(range(3), 2)
            for r in rows:
                r[i], r[j] = r[j], r[i]
        else:
            i = rng.randrange(3)
            for r in rows:
                r[i] = -r[i]
        H = fp_from_presentation(3, IntMatrix.from_rows(rows))
        assert H.invariant_factors == G.invariant_factors


def test_element_arithmetic_z4():
    G = fp_cyclic(4)
    a = G.normal_form((3,))
    b = G.normal_form((2,))
    assert G.add(a, b) == (1,)
    assert G.neg(a) == (1,)
    assert G.element_order(a) == 4
    assert G.element_order(b) == 2


def test_hom_z2_z4():
    H, decode = fp_hom_group(fp_cyclic(2), fp_cyclic(4))
    assert H.order() == 2
    for e in H.elements():
        f = decode(e)
        assert f.is_well_defined()


def test_hom_z_b():
    B = fp_from_factors([2, 3])
    H, _ = fp_hom_group(fp_free(1), B)
    assert H.invariant_factors == B.invariant_factors


def test_hom_z2_z3_trivial():
    H, _ = fp_hom_group(fp_cyclic(2), fp_cyclic(3))
    assert H.is_trivial()


def test_hom_count_matches_brute_force():
    cases = [fp_cyclic(2), fp_cyclic(4), fp_from_factors([2, 2]),
             fp_from_factors([2, 6]), fp_trivial()]
    for A in cases:
        for B in cases:
            H, decode = fp_hom_group(A, B)
            assert H.order() == brute_hom_count(A, B)
            # decoded morphisms are distinct and well-defined
            seen = set()
            for e in H.elements():
                f = decode(e)
                assert f.is_well_defined()
                seen.add(f.matrix.entries)
            assert len(seen) == H.order()


def decoded_maps(A, B):
    """Each element of Hom(A, B), decoded and checked well-defined, as its
    values on A's canonical generators (one key per map)."""
    H, decode = fp_hom_group(A, B)
    maps = set()
    for e in H.elements():
        f = decode(e)
        assert f.is_well_defined()
        maps.add(tuple(f.apply(g) for g in A.generators()))
    return H, decode, maps


# A's and B's invariant factors pair off to gcds that are no divisibility
# chain, so H's canonical coordinates are not one per pair; |H| is the
# product of the gcds
@pytest.mark.parametrize("a,b,order", [([2, 0], [3, 6], 36),
                                       ([4, 0], [2, 8], 128),
                                       ([2, 4, 8], [2, 4, 8], 2 ** 14)],
                         ids=["Z2+Z to Z3+Z6", "Z4+Z to Z2+Z8",
                              "Z2+Z4+Z8 to itself"])
def test_hom_decodes_non_chain_pairs(a, b, order):
    A, B = fp_from_factors(a), fp_from_factors(b)
    H, decode, maps = decoded_maps(A, B)
    assert decode(H.zero()).is_zero()
    assert H.order() == len(maps) == order


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from([0, 2, 3, 4, 6, 8]), min_size=1,
                max_size=2),
       st.lists(st.sampled_from([2, 3, 4, 6, 8]), min_size=1,
                max_size=3).filter(lambda b: math.prod(b) <= 48))
def test_hom_decodes_each_element_to_its_own_map(a, b):
    """Every element of H decodes to a well-defined map of its own, and
    there are as many as a brute-force count finds."""
    A, B = fp_from_factors(a), fp_from_factors(b)
    H, _, maps = decoded_maps(A, B)
    assert H.order() == len(maps) == brute_hom_count(A, B)


def test_hom_multiplicativity():
    A = fp_cyclic(4)
    B = fp_cyclic(6)
    C = fp_from_factors([2, 4])
    AB, _, _ = fp_direct_sum([A, B])
    HA, _ = fp_hom_group(A, C)
    HB, _ = fp_hom_group(B, C)
    HAB, _ = fp_hom_group(AB, C)
    assert HAB.order() == HA.order() * HB.order()


def test_kernel_cokernel_times_two_on_z4():
    G = fp_cyclic(4)
    f = FpMorphism(G, G, IntMatrix.from_rows([[2]]))
    ker, incl = fp_kernel(f)
    coker, proj = fp_cokernel(f)
    assert ker.invariant_factors == (2,)
    assert coker.invariant_factors == (2,)
    assert incl.is_well_defined() and incl.is_monic()
    assert proj.is_well_defined() and proj.is_epic()
    # exactness of ker -> G -> coker at G fails here (im(f) != ker(proj)?)
    # but f ∘ incl = 0 must hold:
    assert f.compose(incl).is_zero()
    assert proj.compose(f).is_zero()


def test_kernel_cokernel_identity_and_zero():
    G = fp_from_factors([2, 4])
    ker, _ = fp_kernel(fp_identity(G))
    coker, _ = fp_cokernel(fp_identity(G))
    assert ker.is_trivial()
    assert coker.is_trivial()
    B = fp_cyclic(3)
    ker, incl = fp_kernel(fp_zero_morphism(G, B))
    coker, _ = fp_cokernel(fp_zero_morphism(G, B))
    assert ker.invariant_factors == G.invariant_factors
    assert coker.invariant_factors == B.invariant_factors


def test_rank_nullity_free():
    A = fp_free(3)
    B = fp_free(2)
    f = FpMorphism(A, B, IntMatrix.from_rows([[1, 0, 2], [0, 2, 4]]))
    ker, _ = fp_kernel(f)
    coker, _ = fp_cokernel(f)
    rank_im = 3 - ker.free_rank()
    assert ker.free_rank() + rank_im == 3
    assert rank_im == 2


def test_ill_defined_rejected():
    f = FpMorphism(fp_cyclic(4), fp_cyclic(3), IntMatrix.from_rows([[1]]))
    assert not f.is_well_defined()
    with pytest.raises(IllDefinedMorphism):
        f.check()


def test_exactness_helper():
    # Z/2 --x2--> Z/4 --proj--> Z/2 is exact at Z/4
    Z2, Z4 = fp_cyclic(2), fp_cyclic(4)
    f = FpMorphism(Z2, Z4, IntMatrix.from_rows([[2]])).check()
    g = FpMorphism(Z4, Z2, IntMatrix.from_rows([[1]])).check()
    assert fp_exact_at(f, g)
    h = fp_zero_morphism(Z4, Z2)
    assert not fp_exact_at(f, h)


# -- kernels, cokernels and well-definedness against independent oracles -----


def random_finite_group(rng):
    """A finite group on 0-3 generators from a random square relation
    matrix of small nonzero determinant, sometimes with extra relations."""
    gens = rng.randint(0, 3)
    while True:
        rels = [[rng.randint(-3, 3) for _ in range(gens)]
                for _ in range(gens)]
        if gens and rng.random() < 0.3:
            for row in rels:
                row.append(rng.randint(-4, 4))
        R = IntMatrix.from_rows(rels) if gens else IntMatrix.zeros(0, 0)
        G = fp_from_presentation(gens, R)
        if G.is_finite() and G.order() <= 24:
            return G


def lattice_well_defined(M, A, B):
    """M maps A's relations into B's iff adding the columns M·R_A to R_B
    leaves the lattice of R_B unchanged."""
    image = M.mul(A.relations)
    return hnf(B.relations).entries == \
        hnf(B.relations.hstack(image)).entries


def random_well_defined_matrix(rng, A, B):
    """A random element of Hom(A, B), moved by random relations of B."""
    H, decode = fp_hom_group(A, B)
    M = decode(tuple(rng.randrange(d) if d else rng.randint(-3, 3)
                     for d in H.invariant_factors)).matrix
    cols = M.columns()
    for col in cols:
        for j in range(B.relations.cols):
            c = rng.randint(-2, 2)
            for i in range(B.gens):
                col[i] += c * B.relations[i, j]
    return IntMatrix.from_cols(cols, rows=B.gens) if A.gens \
        else IntMatrix.zeros(B.gens, 0)


def test_kernel_and_cokernel_orders_and_exactness():
    rng = random.Random(29)
    for _ in range(80):
        A, B = random_finite_group(rng), random_finite_group(rng)
        f = FpMorphism(A, B, random_well_defined_matrix(rng, A, B))
        ker, incl = fp_kernel(f)
        coker, proj = fp_cokernel(f)
        assert incl.source is ker and incl.target is f.source
        assert proj.source is f.target and proj.target is coker
        zeros = sum(1 for x in A.elements() if f.apply(x) == B.zero())
        assert ker.order() == zeros
        assert coker.order() * A.order() == B.order() * ker.order()
        assert fp_exact_at(incl, f)
        assert fp_exact_at(f, proj)


def test_kernel_and_cokernel_reject_ill_defined_maps():
    rng = random.Random(31)
    rejected = 0
    while rejected < 40:
        A, B = random_finite_group(rng), random_finite_group(rng)
        M = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(A.gens)]
             for _ in range(B.gens)]) if B.gens else IntMatrix.zeros(0, A.gens)
        if lattice_well_defined(M, A, B):
            continue
        f = FpMorphism(A, B, M)
        with pytest.raises(IllDefinedMorphism):
            fp_kernel(f)
        with pytest.raises(IllDefinedMorphism):
            fp_cokernel(f)
        rejected += 1


def test_is_well_defined_matches_lattice_oracle():
    rng = random.Random(37)
    seen = set()
    for _ in range(150):
        A, B = random_finite_group(rng), random_finite_group(rng)
        if rng.random() < 0.3:    # free summands in source or target
            A = fp_from_factors([rng.choice([2, 3]), 0])
            B = fp_free(rng.randint(0, 2)) if rng.random() < 0.5 else B
        M = random_well_defined_matrix(rng, A, B)
        if A.gens and B.gens and rng.random() < 0.7:
            # perturb one entry
            rows = [list(r) for r in M.entries]
            rows[rng.randrange(B.gens)][rng.randrange(A.gens)] += \
                rng.choice([-1, 1])
            M = IntMatrix.from_rows(rows)
        expected = lattice_well_defined(M, A, B)
        assert FpMorphism(A, B, M).is_well_defined() == expected
        seen.add(expected)
    assert seen == {True, False}


def test_direct_sum_matches_block_formulas():
    rng = random.Random(47)
    # a group on no generators that still carries relation columns
    empty = fp_from_presentation(0, IntMatrix(0, 2, ()))
    for _ in range(40):
        groups = [rng.choice([empty, fp_trivial(), fp_free(1)])
                  if rng.random() < 0.3 else random_finite_group(rng)
                  for _ in range(rng.randint(0, 4))]
        total, incs, projs = fp_direct_sum(groups)
        gens = sum(g.gens for g in groups)
        ncols = sum(g.relations.cols for g in groups)
        rels = [[0] * ncols for _ in range(gens)]
        r0 = c0 = 0
        for g in groups:
            for i in range(g.gens):
                for j in range(g.relations.cols):
                    rels[r0 + i][c0 + j] = g.relations[i, j]
            r0 += g.gens
            c0 += g.relations.cols
        if gens:
            assert (total.relations.rows, total.relations.cols) == \
                (gens, ncols)
            assert total.relations.entries == tuple(map(tuple, rels))
        else:
            assert total.relations.entries == ()
        r0 = 0
        for g, inc, proj in zip(groups, incs, projs):
            assert (inc.matrix.rows, inc.matrix.cols) == (gens, g.gens)
            assert (proj.matrix.rows, proj.matrix.cols) == (g.gens, gens)
            assert inc.matrix.entries == tuple(
                tuple(int(i == r0 + j) for j in range(g.gens))
                for i in range(gens))
            assert proj.matrix.entries == tuple(
                tuple(int(j == r0 + i) for j in range(gens))
                for i in range(g.gens))
            assert inc.is_well_defined() and proj.is_well_defined()
            r0 += g.gens


# -- the whole-matrix checks against the column-by-column references -------


def ref_is_well_defined(f):
    """One normal form per relation column of the source."""
    for r in f.source.relations.columns():
        if any(f.target.normal_form(f.matrix.mul_vec(r))):
            return False
    return True


def ref_agrees_with(f, g):
    """One pair of normal forms per source generator."""
    for j in range(f.matrix.cols):
        if f.target.normal_form(f.matrix.col(j)) != \
                g.target.normal_form(g.matrix.col(j)):
            return False
    return True


def ref_is_zero(f):
    """One normal form per source generator."""
    for j in range(f.matrix.cols):
        if any(x != 0 for x in f.target.normal_form(f.matrix.col(j))):
            return False
    return True


CHECKS = settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)


def matrices(rows, cols, lo=-6, hi=6):
    return st.lists(st.lists(st.integers(lo, hi), min_size=cols,
                             max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda data: IntMatrix(rows, cols, tuple(map(tuple, data))))


@st.composite
def groups(draw):
    """Groups on 0-3 generators: random relations (free summands where
    they have too few columns or lose rank), unit relations (trivial
    groups), and sometimes no relations at all."""
    gens = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["random", "trivial", "free"]))
    if kind == "trivial":
        rels = IntMatrix.identity(gens)
    elif kind == "free":
        rels = IntMatrix.zeros(gens, 0)
    else:
        rels = draw(matrices(gens, draw(st.integers(0, 4))))
    return fp_from_presentation(gens, rels)


@st.composite
def morphisms(draw):
    """A morphism with a random matrix, scaled by the target's exponent
    (well defined when the target is finite), or zero."""
    A, B = draw(groups()), draw(groups())
    M = draw(matrices(B.gens, A.gens))
    kind = draw(st.sampled_from(["random", "exponent", "zero"]))
    if kind == "exponent":
        e = 1
        for d in B.invariant_factors:
            e = math.lcm(e, d) if d else 0
        M = M.scale(e)
    elif kind == "zero":
        M = IntMatrix.zeros(B.gens, A.gens)
    return FpMorphism(A, B, M)


def relabelled(draw, B):
    """A target parallel to B: B itself, a distinct object with B's
    relation matrix, or B's relations with one extra relation column
    (often the same group, always a different matrix)."""
    kind = draw(st.sampled_from(["same", "copy", "extra"]))
    if kind == "same":
        return B
    if kind == "copy":
        return fp_from_presentation(B.gens, B.relations)
    extra = draw(matrices(B.gens, 1, -2, 2))
    return fp_from_presentation(B.gens, B.relations.hstack(extra))


@CHECKS
@given(morphisms())
def test_is_well_defined_matches_reference(f):
    assert f.is_well_defined() == ref_is_well_defined(f)


@CHECKS
@given(morphisms())
def test_is_zero_matches_reference(f):
    assert f.is_zero() == ref_is_zero(f)


@CHECKS
@given(st.data())
def test_agrees_with_matches_reference(data):
    f = data.draw(morphisms())
    B = relabelled(data.draw, f.target)
    if data.draw(st.booleans()):
        # differs from f by a combination of B's relations: f + Rel·X
        X = data.draw(matrices(B.relations.cols, f.source.gens, -3, 3))
        M = f.matrix.add(B.relations.mul(X))
    else:
        M = data.draw(matrices(B.gens, f.source.gens, -2, 2)) \
            if data.draw(st.booleans()) else f.matrix
    g = FpMorphism(f.source, B, M)
    assert f.agrees_with(g) == ref_agrees_with(f, g)
    assert g.agrees_with(f) == ref_agrees_with(g, f)


def test_reference_cases_cover_both_answers():
    """The strategies above reach True and False for every check."""
    seen = set()

    @CHECKS
    @given(morphisms())
    def record(f):
        seen.add(("well", ref_is_well_defined(f)))
        seen.add(("zero", ref_is_zero(f)))
        copy = fp_from_presentation(f.target.gens, f.target.relations)
        seen.add(("agree", ref_agrees_with(
            f, fp_zero_morphism(f.source, copy))))

    record()
    assert seen == {(k, v) for k in ("well", "zero", "agree")
                    for v in (True, False)}


# -- queries in Smith coordinates against the [M | R_target] references -----


SMITH = settings(max_examples=200, deadline=None, derandomize=True,
                 database=None)


def ref_image_lattice(f):
    return hnf(f.matrix.hstack(f.target.relations))


def ref_kernel_lattice(f):
    big = kernel(f.matrix.hstack(f.target.relations))
    cols = [c[:f.source.gens] for c in big.columns()]
    cols.extend(f.source.relations.columns())
    return hnf(IntMatrix.from_cols(cols, rows=f.source.gens))


def ref_is_monic(f):
    return ref_kernel_lattice(f).entries == hnf(f.source.relations).entries


def ref_is_epic(f):
    return ref_image_lattice(f).entries == \
        IntMatrix.identity(f.target.gens).entries


def ref_exact_at(f, g):
    return ref_image_lattice(f).entries == ref_kernel_lattice(g).entries


def ref_preimages(f, ys):
    sols = solve_many(f.matrix.hstack(f.target.relations),
                      [f.target.lift(y) for y in ys])
    return [None if sol is None else
            f.source.normal_form(sol[:f.source.gens]) for sol in sols]


def ref_factor_through(incl, g):
    sols = solve_many(incl.matrix.hstack(incl.target.relations),
                      g.matrix.columns())
    if None in sols:
        raise RuntimeError("map does not factor through the subgroup")
    return FpMorphism(g.source, incl.source, IntMatrix.from_cols(
        [sol[:incl.source.gens] for sol in sols],
        rows=incl.source.gens)).check()


@st.composite
def wide_groups(draw):
    """Cokernels of maps Z^r -> Z^n, n <= 5, r in n-1..n+1: presentations
    wider than their groups, whose Smith moduli are mostly 1."""
    gens = draw(st.integers(2, 5))
    return fp_from_presentation(
        gens, draw(matrices(gens, draw(st.integers(gens - 1, gens + 1)),
                            -3, 3)))


def any_groups():
    return st.one_of(groups(), wide_groups())


def elements(draw, G):
    return tuple(draw(st.integers(0, d - 1)) if d else
                 draw(st.integers(-4, 4)) for d in G.invariant_factors)


@st.composite
def well_defined(draw, A=None, B=None):
    """A well-defined map A -> B with a random matrix M.  Without B, B is
    a random group whose relations gain the columns of M·Rel(A).  Given
    B, A's relations are random combinations of the vectors that M sends
    into B's relations."""
    if B is None:
        A = draw(any_groups()) if A is None else A
        T = draw(any_groups())
        M = draw(matrices(T.gens, A.gens))
        B = fp_from_presentation(
            T.gens, T.relations.hstack(M.mul(A.relations)))
        return FpMorphism(A, B, M)
    gens = draw(st.integers(0, 3))
    M = draw(matrices(B.gens, gens))
    dying = [c[:gens] for c in
             kernel(M.hstack(B.relations)).columns()]
    X = draw(matrices(len(dying), draw(st.integers(0, 3)), -2, 2))
    rels = IntMatrix.from_cols(dying, rows=gens).mul(X)
    return FpMorphism(fp_from_presentation(gens, rels), B, M)


@st.composite
def composable(draw):
    """(f, g) with f.target = g.source: independent maps, or one of them
    the kernel inclusion or cokernel projection of the other."""
    f = draw(well_defined())
    kind = draw(st.sampled_from(["free", "kernel", "cokernel"]))
    if kind == "kernel":
        return fp_kernel(f)[1], f
    if kind == "cokernel":
        return f, fp_cokernel(f)[1]
    return f, draw(well_defined(A=f.target))


@SMITH
@given(well_defined())
def test_lattices_and_monic_epic_match_reference(f):
    assert f.kernel_lattice() == ref_kernel_lattice(f)
    assert f.image_lattice() == ref_image_lattice(f)
    assert f.is_monic() == ref_is_monic(f)
    assert f.is_epic() == ref_is_epic(f)


@SMITH
@given(composable())
def test_exact_at_matches_reference(fg):
    f, g = fg
    assert fp_exact_at(f, g) == ref_exact_at(f, g)


@SMITH
@given(well_defined())
def test_kernel_is_presented_on_at_most_the_invariant_factor_count(f):
    ker, incl = fp_kernel(f)
    assert ker.gens <= len(f.source.invariant_factors)
    assert incl.source is ker and incl.target is f.source
    assert incl.is_well_defined() and ref_is_monic(incl)
    assert ref_image_lattice(incl) == ref_kernel_lattice(f)


@SMITH
@given(st.data())
def test_preimages_match_reference(data):
    f = data.draw(well_defined())
    ys = [f.apply(elements(data.draw, f.source))
          if data.draw(st.booleans()) else elements(data.draw, f.target)
          for _ in range(data.draw(st.integers(0, 6)))]
    got = fp_preimages(f, ys)
    assert [x is None for x in got] == \
        [x is None for x in ref_preimages(f, ys)]
    for x, y in zip(got, ys):
        assert x is None or (f.apply(x) == y and
                             x == f.source.normal_form(f.source.lift(x)))


@SMITH
@given(st.data())
def test_factor_through_matches_reference(data):
    incl = fp_kernel(data.draw(well_defined()))[1]
    h = data.draw(well_defined(B=incl.source))
    g = incl.compose(h)
    got = fp_factor_through(incl, g)
    assert got.source is g.source and got.target is incl.source
    assert got.agrees_with(h)
    assert got.agrees_with(ref_factor_through(incl, g))


def test_smith_references_cover_both_answers():
    """The strategies above reach True and False for every query, wide
    presentations with unit moduli, and unreachable preimages."""
    seen = set()

    @SMITH
    @given(composable(), st.data())
    def record(fg, data):
        f, g = fg
        seen.add(("monic", ref_is_monic(f)))
        seen.add(("epic", ref_is_epic(f)))
        seen.add(("exact", ref_exact_at(f, g)))
        seen.add(("unit moduli", 1 in f.source._moduli))
        seen.add(("preimage", ref_preimages(
            f, [elements(data.draw, f.target)])[0] is None))

    record()
    assert seen == {(k, v) for k in ("monic", "epic", "exact",
                                     "unit moduli", "preimage")
                    for v in (True, False)}
