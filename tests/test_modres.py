"""Tests for finite rings/modules, injective resolutions, Baer, and Ext.

The Ext oracle is independent of the library's injective machinery: for
cyclic modules over Z/n it applies Hom(-, N) to the standard periodic free
resolution ... -> Z/n --n/d--> Z/n --d--> Z/n -> Z/d -> 0 and reads the
cohomology orders off gcd arithmetic.

The torsion oracle is independent of the closed-form coinduction: it
presents the d-torsion (1/d)K/K of a hull as a lattice pair and reads its
type off latpair.quotient_type.
"""
import math
from fractions import Fraction

import pytest

from groundwork.fpgroup import fp_from_factors, fp_hom_group
from groundwork.intmat import IntMatrix
from groundwork.latpair import SpanLattice, quotient_type
from groundwork.modres import (DivisibleGroup, InvalidModule, InvalidRing,
                               ResourceCap, abelian_invariants_by_counting,
                               baer_check, coinduced, divisible_hull,
                               divisible_hull_generators, ext, hom_r_group,
                               ideal_module, injective_resolution,
                               is_r_linear, left_ideals, module_direct_sum,
                               module_from_action_table,
                               module_from_integer_action, r_linear_homs,
                               regular_module, ring_f2x, ring_zmod,
                               unit_embedding, validate_ring, zmod_module)


def ext_cyclic_oracle(n, d, e, k):
    """|Ext^k_{Z/n}(Z/d, Z/e)| from the periodic free resolution."""
    assert n % d == 0 and n % e == 0
    def diff(i):          # multiplier of the i-th cochain differential
        return d if i % 2 == 0 else n // d
    def ker_order(m):
        return math.gcd(m, e)
    def im_order(m):
        return e // math.gcd(m, e)
    if k == 0:
        return ker_order(diff(0))
    return ker_order(diff(k)) // im_order(diff(k - 1))


def torsion_lattices(D, d):
    """((1/d)K, K) as span+lattice subgroups of Q^dim."""
    K = D.lattice.columns()
    return (SpanLattice.make(D.dim, lattice_vectors=[
                [Fraction(x, d) for x in c] for c in K]),
            SpanLattice.make(D.dim, lattice_vectors=K))


def torsion_group(D, d):
    """The d-torsion (1/d)K/K of D as an abstract finite group."""
    return fp_from_factors(quotient_type(
        *torsion_lattices(D, d)).finite_factors)


@pytest.fixture(scope="module")
def rings():
    return {"Z2": ring_zmod(2), "Z4": ring_zmod(4),
            "Z6": ring_zmod(6), "F2x": ring_f2x()}


def test_ring_builders(rings):
    assert rings["Z4"].additive.order() == 4
    assert rings["F2x"].additive.order() == 4
    x = (0, 1)
    assert rings["F2x"].times(x, x) == (0, 0)          # x^2 = 0
    assert rings["F2x"].times((1, 1), (1, 1)) == (1, 0)  # (1+x)^2 = 1


def test_ring_validation_rejects_bad_table():
    G = fp_from_factors([4])
    mul = {((a,), (b,)): ((a * b) % 4,) for a in range(4) for b in range(4)}
    mul[((3,), (3,))] = (2,)      # breaks associativity/unit structure
    with pytest.raises(InvalidRing):
        validate_ring("bad", G, mul, (1,))


def test_module_axioms_reject_illegal_scalar_action(rings):
    # Z/4 admits no Z/6-module structure: 6·1 must act as zero but doesn't
    with pytest.raises(InvalidModule):
        module_from_integer_action(rings["Z6"], fp_from_factors([4]),
                                   lambda r: r[0])


def test_module_from_action_table_round_trip(rings):
    R = rings["Z4"]
    G = fp_from_factors([2])
    table = {}
    for r in R.elements():
        for m in G.elements():
            table[(r, m)] = G.smul(r[0], m)
    M = module_from_action_table(R, G, table)
    assert M.act((3,), (1,)) == (1,)
    bad = dict(table)
    bad[((1,), (1,))] = (0,)
    with pytest.raises(InvalidModule):
        module_from_action_table(R, G, bad)


def test_divisible_hull_type_and_injectivity():
    M = fp_from_factors([2])
    D, iota = divisible_hull(M)
    # hull of Z/2 on its two elements is (Q/Z)^2 up to isomorphism
    num, K = torsion_lattices(D, 2)
    t = quotient_type(SpanLattice.full(D.dim), K)
    assert str(t) == "(Q/Z)^2"
    # iota lands in the 2-torsion and is injective modulo K
    assert all(num.contains(iota(e)) for e in M.elements())
    a, b = (iota(e) for e in M.elements())
    assert not K.contains([x - y for x, y in zip(a, b)])


def test_generator_hull_matches_invariant_factors():
    M = fp_from_factors([2, 4])
    D, iota = divisible_hull_generators(M)
    assert D.dim == 2
    assert D.lattice == IntMatrix.diagonal([2, 4])
    assert iota((1, 3)) == (1, 3)


def test_coinduced_sizes(rings):
    M = zmod_module(rings["Z4"], 2)
    D, _ = divisible_hull(M.additive)
    C = coinduced(rings["Z4"], D)
    assert C.module.order() == 16
    # Hom_Z(Z/4, Q/Z) is Z/4
    QZ = DivisibleGroup(1, IntMatrix.identity(1))
    C2 = coinduced(rings["Z4"], QZ)
    assert C2.module.additive.iso_type() == "Z/4"


def test_hom_into_divisible_pinned_counts():
    QZ = DivisibleGroup(1, IntMatrix.identity(1))
    QZ2 = DivisibleGroup(2, IntMatrix.identity(2))
    h1, _ = fp_hom_group(fp_from_factors([2]), torsion_group(QZ, 2))
    assert h1.order() == 2
    h2, _ = fp_hom_group(fp_from_factors([4]), torsion_group(QZ2, 4))
    assert h2.order() == 16


def test_coinduction_adjunction_counts(rings):
    """|Hom_R(M, Hom_Z(R, D))| = |Hom_Z(M, D)| for divisible D."""
    cases = [
        (rings["Z4"], zmod_module(rings["Z4"], 2)),
        (rings["Z6"], zmod_module(rings["Z6"], 3)),
        (rings["F2x"], module_from_integer_action(
            rings["F2x"], fp_from_factors([2]), lambda r: r[0])),
    ]
    for R, M in cases:
        D, _ = divisible_hull(M.additive)
        C = coinduced(R, D)
        lhs = len(r_linear_homs(M, C.module))
        exponent = math.lcm(*M.additive.invariant_factors)
        rhs = fp_hom_group(M.additive,
                           torsion_group(D, exponent))[0].order()
        assert lhs == rhs


def ring_z4_x():
    """Z[x]/(4, 2x, x^2): elements b·x + a with canonical coordinates
    (b mod 2, a mod 4), so x·1 = x links factors of unequal order."""
    G = fp_from_factors([2, 4])
    mul = {((b1, a1), (b2, a2)): ((a1 * b2 + a2 * b1) % 2, (a1 * a2) % 4)
           for b1, a1 in G.elements() for b2, a2 in G.elements()}
    return validate_ring("Z4x", G, mul, (0, 1))


def test_coinduced_closed_form_matches_torsion_oracle(rings):
    """Hom_Z(R, D) is ⊕_i of the d_i-torsion of D, for both hull kinds."""
    cases = [(ring_z4_x(), zmod_module(ring_z4_x(), 2)),
             (rings["Z4"], zmod_module(rings["Z4"], 2)),
             (rings["Z4"], regular_module(rings["Z4"])),
             (rings["Z6"], zmod_module(rings["Z6"], 3)),
             (rings["F2x"], zmod_module(rings["F2x"], 2)),
             (rings["F2x"], regular_module(rings["F2x"]))]
    for R, M in cases:
        for hull in (divisible_hull, divisible_hull_generators):
            D, iota = hull(M.additive)
            C = coinduced(R, D)
            expected = fp_from_factors(
                [f for d in R.additive.invariant_factors
                 for f in torsion_group(D, d).invariant_factors])
            assert C.module.additive.invariant_factors == \
                expected.invariant_factors, (R.name, hull.__name__)
            e = unit_embedding(M, D, iota, C)
            assert e.is_monic() and is_r_linear(e, M, C.module)


def test_divisible_group_requires_full_rank_square_lattice():
    with pytest.raises(ValueError):
        DivisibleGroup(2, IntMatrix.diagonal([2, 0]))
    with pytest.raises(ValueError):
        DivisibleGroup(2, IntMatrix.identity(1))


def test_zmod_module_acts_through_the_ring_homomorphism(rings):
    # no ring homomorphism Z/4 -> Z/3
    with pytest.raises(InvalidModule, match="0 ring homomorphisms"):
        zmod_module(ring_zmod(4), 3)
    # x -> 0 and x -> 2 are both ring homomorphisms Z[x]/(4, 2x, x^2) -> Z/4
    with pytest.raises(InvalidModule, match="2 ring homomorphisms"):
        zmod_module(ring_z4_x(), 4)
    # over F2[x]/(x^2), Z/2 is the augmentation module: x acts as 0
    M = zmod_module(rings["F2x"], 2)
    assert all(M.act((0, 1), m) == M.additive.zero() for m in M.elements())
    assert all(M.act((1, 1), m) == m for m in M.elements())
    # over Z/n with k | n, r acts as r mod k
    M = zmod_module(rings["Z6"], 3)
    assert all(M.act((r,), (1,)) == ((r % 3),) for r in range(6))


def test_unit_embedding_monic_r_linear(rings):
    M = zmod_module(rings["Z6"], 6)
    D, iota = divisible_hull(M.additive)
    C = coinduced(rings["Z6"], D)
    e = unit_embedding(M, D, iota, C)    # raises if not monic/R-linear
    assert e.is_monic()


def all_catalog_modules(rings):
    Z2, Z4, Z6, F2x = (rings[k] for k in ("Z2", "Z4", "Z6", "F2x"))
    m22, _, _ = module_direct_sum([zmod_module(Z6, 2), zmod_module(Z6, 2)])
    return [
        regular_module(Z2),
        zmod_module(Z4, 2), regular_module(Z4),
        zmod_module(Z6, 2), zmod_module(Z6, 3), regular_module(Z6), m22,
        regular_module(F2x),
        module_from_integer_action(F2x, fp_from_factors([2]),
                                   lambda r: r[0]),
    ]


def test_resolutions_exact_for_all_catalog_modules(rings):
    for M in all_catalog_modules(rings):
        res = injective_resolution(M, 2)   # verify() runs in the builder
        assert len(res.terms) == 3
        assert res.maps[0].is_monic()
        assert all(t.order() is not None for t in res.terms)


def test_resolution_first_term_pinned(rings):
    res = injective_resolution(zmod_module(rings["Z4"], 2), 1)
    assert res.terms[0].order() == 16


def test_resource_cap(rings):
    with pytest.raises(ResourceCap):
        injective_resolution(regular_module(rings["Z6"]), 1, cap=100)


def test_left_ideals(rings):
    assert len(left_ideals(rings["Z4"])) == 3
    assert len(left_ideals(rings["Z6"])) == 4
    ideals = left_ideals(rings["F2x"])
    assert len(ideals) == 3
    assert ((0, 0), (0, 1)) in ideals      # the ideal (x)


def test_ideal_module_structure(rings):
    R = rings["Z6"]
    two = tuple(sorted({(0,), (2,), (4,)}))
    J, incl = ideal_module(R, two)
    assert J.order() == 3
    assert incl.is_monic()


def test_baer_verdicts(rings):
    ok, wit = baer_check(regular_module(rings["Z4"]))
    assert ok and wit is None
    ok, wit = baer_check(zmod_module(rings["Z4"], 2))
    assert not ok
    ideal, h = wit
    assert ideal == ((0,), (2,))
    # verify the witness honestly: no element of M restricts to h
    M = zmod_module(rings["Z4"], 2)
    J, incl = ideal_module(rings["Z4"], ideal)
    gens = [tuple(1 if t == j else 0 for t in range(J.additive.gens))
            for j in range(J.additive.gens)]
    ideal_of_gen = [rings["Z4"].additive.normal_form(incl.matrix.mul_vec(g))
                    for g in gens]
    key = tuple(h.apply(J.additive.normal_form(g)) for g in gens)
    for m in M.elements():
        assert tuple(M.act(x, m) for x in ideal_of_gen) != key


def test_baer_accepts_resolution_terms(rings):
    for M in [zmod_module(rings["Z4"], 2),
              regular_module(rings["F2x"]),
              zmod_module(rings["Z6"], 2)]:
        res = injective_resolution(M, 0)
        ok, wit = baer_check(res.terms[0])
        assert ok, wit


def test_baer_rejects_nonregular_over_f2x(rings):
    M = module_from_integer_action(rings["F2x"], fp_from_factors([2]),
                                   lambda r: r[0])
    ok, wit = baer_check(M)
    assert not ok
    assert wit[0] == ((0, 0), (0, 1))


def test_ext_pinned_z4(rings):
    M = zmod_module(rings["Z4"], 2)
    es = ext(M, M, 3)
    for k, g in enumerate(es):
        assert g.order() == ext_cyclic_oracle(4, 2, 2, k) == 2
        assert g.iso_type() == "Z/2"


def test_ext_vanishes_on_projectives(rings):
    R = regular_module(rings["Z4"])
    es = ext(R, zmod_module(rings["Z4"], 2), 2)
    assert [g.order() for g in es] == [2, 1, 1]


def test_ext_semisimple_directions_z6(rings):
    Z6 = rings["Z6"]
    M2, M3 = zmod_module(Z6, 2), zmod_module(Z6, 3)
    assert [g.order() for g in ext(M2, M3, 2)] == \
        [ext_cyclic_oracle(6, 2, 3, k) for k in range(3)] == [1, 1, 1]
    assert [g.order() for g in ext(M2, M2, 2)] == \
        [ext_cyclic_oracle(6, 2, 2, k) for k in range(3)] == [2, 1, 1]


def test_ext_f2x(rings):
    M = module_from_integer_action(rings["F2x"], fp_from_factors([2]),
                                   lambda r: r[0])
    es = ext(M, M, 2)
    assert [g.iso_type() for g in es] == ["Z/2", "Z/2", "Z/2"]


def test_hom_r_group(rings):
    M2 = zmod_module(rings["Z4"], 2)
    M4 = regular_module(rings["Z4"])
    assert hom_r_group(M2, M4).iso_type() == "Z/2"
    assert hom_r_group(M4, M2).iso_type() == "Z/2"
    assert hom_r_group(M4, M4).iso_type() == "Z/4"


def test_invariants_by_counting_oracle():
    for factors in [(2,), (2, 4), (3, 3), (2, 2, 2), (6,), (2, 6)]:
        G = fp_from_factors(factors)
        got = abelian_invariants_by_counting(G.elements(), G.add, G.zero())
        assert got == G.invariant_factors
    assert abelian_invariants_by_counting([()], lambda a, b: (), ()) == ()
