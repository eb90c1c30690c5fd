"""Tests for finite rings/modules, injective resolutions, Baer, and Ext.

The Ext oracle is independent of the library's injective machinery: for
cyclic modules over Z/n it applies Hom(-, N) to the standard periodic free
resolution ... -> Z/n --n/d--> Z/n --d--> Z/n -> Z/d -> 0 and reads the
cohomology orders off gcd arithmetic.

The torsion oracle is independent of the closed-form coinduction: it
presents the d-torsion (1/d)K/K of a hull as a lattice pair and reads its
type off latpair.quotient_type.

The ring, module and left-ideal references check element by element what
the library checks on R's additive generators: the ring laws on every
triple of elements, the module laws on every pair of scalars of a
per-element action, and the ideals as closures of every subset of R.

The Hom_R and Baer references enumerate what the library solves for:
every additive map M -> N, kept when R-linear, and every element of I,
restricted to each left ideal.  Invariant factors of an enumerated group
are read off by counting its p^k-torsion.
"""
import functools
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from groundwork.fpgroup import FpMorphism, fp_from_factors, fp_hom_group
from groundwork.intmat import IntMatrix
from groundwork.latpair import SpanLattice, quotient_type
from groundwork.modres import (DivisibleGroup, InvalidModule, InvalidRing,
                               ResourceCap, baer_check, coinduced,
                               divisible_hull, divisible_hull_generators, ext,
                               hom_r, ideal_module, injective_resolution,
                               is_r_linear, left_ideals, module_cokernel,
                               module_direct_sum, module_from_action_table,
                               module_from_integer_action, regular_module,
                               ring_f2x, ring_zmod, unit_embedding,
                               validate_module, validate_ring, zmod_module)


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


def endo(G, rows):
    return FpMorphism(G, G, IntMatrix.from_rows(rows))


@pytest.mark.parametrize("ring,gens,action,message", [
    # e1 has order 2 and its image e2 order 4: not a map of groups
    ("Z4", [2, 4], [[[1, 0], [1, 1]]], "action of (1,) is not additive"),
    # the identity of Z/4 is well defined but 6·id is not zero
    ("Z6", [4], [[[1]]], "6·(1,) does not act as zero"),
    # zero is well defined and killed by 2, and 0∘0 = 0, but 1 acts as 0
    ("Z2", [2], [[[0]]], "unit does not act as identity"),
    # 1 acts as id and x as id on Z/2: additive, killed by 2 and unital,
    # but x·x = 0 acts as 0 while id∘id = id
    ("F2x", [2], [[[1]], [[1]]],
     "scalar associativity fails at ((0, 1), (0, 1))"),
])
def test_validate_module_pins_each_law(rings, ring, gens, action, message):
    G = fp_from_factors(gens)
    with pytest.raises(InvalidModule, match="^%s$" % re.escape(message)):
        validate_module(rings[ring], G, [endo(G, rows) for rows in action])


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
        lhs = hom_r(M, C.module)[0].order()
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
    assert hom_r(M2, M4)[0].iso_type() == "Z/2"
    assert hom_r(M4, M2)[0].iso_type() == "Z/2"
    assert hom_r(M4, M4)[0].iso_type() == "Z/4"


def test_invariants_by_counting_oracle():
    for factors in [(2,), (2, 4), (3, 3), (2, 2, 2), (6,), (2, 6)]:
        G = fp_from_factors(factors)
        got = abelian_invariants_by_counting(G.elements(), G.add, G.zero())
        assert got == G.invariant_factors
    assert abelian_invariants_by_counting([()], lambda a, b: (), ()) == ()


# -- the element-wise checks that generator checks replaced, as references --


def reference_ring_accepts(G, mul, one):
    """Ring laws over every element triple: unit, associativity and both
    distributive laws."""
    elems = G.elements()
    if any((a, b) not in mul or mul[(a, b)] not in elems
           for a in elems for b in elems):
        return False
    for a in elems:
        if mul[(one, a)] != a or mul[(a, one)] != a:
            return False
        for b in elems:
            for c in elems:
                if mul[(mul[(a, b)], c)] != mul[(a, mul[(b, c)])] or \
                        mul[(a, G.add(b, c))] != \
                        G.add(mul[(a, b)], mul[(a, c)]) or \
                        mul[(G.add(a, b), c)] != \
                        G.add(mul[(a, c)], mul[(b, c)]):
                    return False
    return True


def reference_module_accepts(R, G, table):
    """One additive map per ring element, read off the table on G's
    generators; then the unit, scalar associativity and distributivity over
    all pairs of ring elements, and the whole table against the maps."""
    gens = [G.generator(i) for i in range(len(G.invariant_factors))]
    action = {}
    for r in R.elements():
        cols = []
        for e in IntMatrix.identity(G.gens).columns():
            acc = G.zero()
            for c, g in zip(G.normal_form(e), gens):
                acc = G.add(acc, G.smul(c, table[(r, g)]))
            cols.append(G.lift(acc))
        action[r] = FpMorphism(G, G, IntMatrix.from_cols(cols, rows=G.gens))
        if not action[r].is_well_defined():
            return False
    if any(action[R.one].apply(g) != g for g in gens):
        return False
    for r in R.elements():
        for s in R.elements():
            for g in gens:
                if action[R.times(r, s)].apply(g) != \
                        action[r].apply(action[s].apply(g)) or \
                        action[R.additive.add(r, s)].apply(g) != \
                        G.add(action[r].apply(g), action[s].apply(g)):
                    return False
    return all(action[r].apply(m) == v for (r, m), v in table.items())


def reference_left_ideals(R):
    """Close every subset of R under addition and the ring action."""
    elems = R.elements()
    found = set()
    for seed_size in range(len(elems) + 1):
        for seed in itertools.combinations(elems, seed_size):
            J = {R.zero()}
            frontier = set(seed)
            while frontier:
                x = frontier.pop()
                if x in J:
                    continue
                J.add(x)
                frontier.update(R.additive.add(x, y) for y in J)
                frontier.update(R.times(r, x) for r in elems)
            found.add(tuple(sorted(J)))
    return sorted(found)


def random_automorphism(G, rng):
    """A random automorphism of G as a dict on elements."""
    H, decode = fp_hom_group(G, G)
    elems = G.elements()
    while True:
        h = decode(rng.choice(H.elements()))
        phi = {m: h.apply(m) for m in elems}
        if len(set(phi.values())) == len(elems):
            return phi


def perturbed(table, rng, values):
    """table with one entry changed to another of the given values."""
    key = rng.choice(sorted(table))
    out = dict(table)
    out[key] = rng.choice([v for v in values if v != table[key]])
    return out


def mul_table(G, f):
    return {(a, b): f(a, b) for a in G.elements() for b in G.elements()}


def combination(G, coeffs, elems):
    """Σ c_i·e_i in G."""
    return functools.reduce(G.add, [G.smul(c, e)
                                    for c, e in zip(coeffs, elems)], G.zero())


def one_sided_table(G, one, rng):
    """A table with unit `one` whose left multiplications a·- are random
    additive maps: it adds over its right argument by construction, and
    over its left one only by chance."""
    H, decode = fp_hom_group(G, G)
    homs = [decode(e) for e in H.elements()]
    table = {}
    for a in G.elements():
        f = rng.choice([h for h in homs if h.apply(one) == a])
        for b in G.elements():
            table[(a, b)] = b if a == one else f.apply(b)
    return table


def test_validate_ring_matches_elementwise_reference():
    """Seeded tables over Z/4, Z/2², Z/6, Z/2 ⊕ Z/4 and Z/2³: known rings
    moved by random additive automorphisms, the same with one entry or the
    unit changed, tables that add over one argument only, and bilinear
    tables with the last generator as unit (on Z/2³ these need not be
    associative; on the smaller groups every unital bilinear table is)."""
    Z22, Z24 = fp_from_factors([2, 2]), fp_from_factors([2, 4])
    Z222 = fp_from_factors([2, 2, 2])
    known = [
        (ring_zmod(4).additive, ring_zmod(4).mul, (1,)),
        (ring_zmod(6).additive, ring_zmod(6).mul, (1,)),
        (Z22, ring_f2x().mul, (1, 0)),
        (Z22, mul_table(Z22, lambda a, b: (a[0] * b[0], a[1] * b[1])),
         (1, 1)),
        (Z22, mul_table(Z22, lambda a, b: (
            (a[0] * b[0] + a[1] * b[1]) % 2,
            (a[0] * b[1] + a[1] * b[0] + a[1] * b[1]) % 2)), (1, 0)),
        (Z24, ring_z4_x().mul, (0, 1)),
        (Z24, mul_table(Z24, lambda a, b: (a[0] * b[0] % 2,
                                            a[1] * b[1] % 4)), (1, 1)),
        (Z222, mul_table(Z222, lambda a, b: tuple(
            x * y for x, y in zip(a, b))), (1, 1, 1)),
    ]
    rng = random.Random(6)
    verdicts = []
    for G, mul, one in known:
        elems = G.elements()
        gens = [G.generator(i) for i in range(len(G.invariant_factors))]
        u = gens[-1]
        cases = []
        for _ in range(4):
            phi = random_automorphism(G, rng)
            moved = {(phi[a], phi[b]): phi[c] for (a, b), c in mul.items()}
            left = one_sided_table(G, phi[one], rng)
            consts = {(g, h): h if g == u else g if h == u else
                      rng.choice(elems) for g in gens for h in gens}
            bilinear = mul_table(G, lambda a, b: combination(
                G, [x * y for x in a for y in b],
                [consts[(g, h)] for g in gens for h in gens]))
            cases += [(moved, phi[one]),
                      (perturbed(moved, rng, elems), phi[one]),
                      (moved, rng.choice([e for e in elems
                                          if e != phi[one]])),
                      (left, phi[one]),
                      ({(b, a): c for (a, b), c in left.items()}, phi[one]),
                      (bilinear, u)]
        for table, unit in cases:
            expected = reference_ring_accepts(G, table, unit)
            try:
                validate_ring("R", G, table, unit)
                verdicts.append(True)
            except InvalidRing:
                verdicts.append(False)
            assert verdicts[-1] == expected, (G.invariant_factors, unit)
    # every moved table is a ring, and a moved table with another unit is not
    assert verdicts.count(True) >= 32 and verdicts.count(False) >= 32


def endomorphism_table(R, G, rng):
    """r·m = Σ r_i·B_i(m) for random endomorphisms B_i of G."""
    H, decode = fp_hom_group(G, G)
    endos = [decode(rng.choice(H.elements())) for _ in R.generators()]
    return {(r, m): combination(G, r, [B.apply(m) for B in endos])
            for r in R.elements() for m in G.elements()}


def test_module_from_action_table_matches_elementwise_reference():
    """Seeded tables over Z/4, Z/6, F2x and Z[x]/(4, 2x, x²): known modules
    moved by random additive automorphisms, the same with one (r, m)
    changed, and tables from random endomorphisms of the generators' actions,
    also on groups whose exponent R's additive orders do not kill."""
    Z4, Z6, F2x, Z4x = ring_zmod(4), ring_zmod(6), ring_f2x(), ring_z4_x()

    def summed(*ms):
        return module_direct_sum(list(ms))[0]

    known = [
        zmod_module(Z4, 2), regular_module(Z4),
        summed(zmod_module(Z4, 2), regular_module(Z4)),
        zmod_module(Z6, 3), regular_module(Z6),
        summed(zmod_module(Z6, 2), zmod_module(Z6, 2)),
        zmod_module(F2x, 2), regular_module(F2x),
        summed(zmod_module(F2x, 2), zmod_module(F2x, 2)),
        zmod_module(Z4x, 2), regular_module(Z4x),
        module_from_integer_action(Z4x, fp_from_factors([4]),
                                   lambda r: 2 * r[0] + r[1]),
    ]
    rng = random.Random(6)
    cases = []
    for M in known:
        R, G = M.ring, M.additive
        for _ in range(3):
            phi = random_automorphism(G, rng)
            moved = {(r, phi[m]): phi[M.act(r, m)]
                     for r in R.elements() for m in G.elements()}
            cases += [(R, G, moved), (R, G, perturbed(moved, rng,
                                                      G.elements())),
                      (R, G, endomorphism_table(R, G, rng))]
    for R, factors in [(Z4, [8]), (Z6, [4]), (F2x, [2, 4]), (Z4x, [8])]:
        G = fp_from_factors(factors)
        cases += [(R, G, endomorphism_table(R, G, rng)) for _ in range(8)]
    verdicts = []
    for R, G, table in cases:
        expected = reference_module_accepts(R, G, table)
        try:
            N = module_from_action_table(R, G, table)
            verdicts.append(True)
        except ValueError:
            verdicts.append(False)
        else:
            assert len(N.action) == len(R.additive.invariant_factors)
        assert verdicts[-1] == expected, (R.name, G.invariant_factors)
    # every moved table is a module; changing one entry of it never gives one
    assert verdicts.count(True) >= 36 and verdicts.count(False) >= 36


def test_left_ideals_match_subset_closure_reference():
    for R in [ring_zmod(n) for n in range(2, 13)] + [ring_f2x(),
                                                     ring_z4_x()]:
        assert left_ideals(R) == reference_left_ideals(R), R.name


# -- the enumerators that hom_r, ext and baer_check replaced, as references --


def abelian_invariants_by_counting(elems, add, zero):
    """Invariant factors of a finite abelian group given by its elements.

    Independent of any presentation: counts p^k-torsion per prime and
    reassembles the primary decomposition."""
    n = len(elems)
    if n == 1:
        return ()

    def smul(c, x):
        acc = zero
        for _ in range(c):
            acc = add(acc, x)
        return acc

    primes = []
    m, p = n, 2
    while m > 1:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    primary = {}
    for p in primes:
        # ge[k-1] = number of cyclic p-factors with order >= p^k
        ge = []
        prev = 1
        k = 1
        while True:
            t = sum(1 for e in elems if smul(p ** k, e) == zero)
            if t == prev:
                break
            q, r = t // prev, 0
            while q > 1:
                q //= p
                r += 1
            ge.append(r)
            prev = t
            k += 1
        count = ge[0] if ge else 0
        primary[p] = [sum(1 for r in ge if r > i)
                      for i in range(count)]   # exponents, descending
    width = max(len(v) for v in primary.values())
    inv = []
    for i in range(width):
        d = 1
        for p, exps in primary.items():
            if i < len(exps):
                d *= p ** exps[i]
        inv.append(d)
    return tuple(reversed(inv))    # ascending divisibility order


def reference_r_linear_homs(source, target):
    """All R-linear maps source -> target as FpMorphisms (enumerated)."""
    H, decode = fp_hom_group(source.additive, target.additive)
    return [h for h in map(decode, H.elements())
            if is_r_linear(h, source, target)]


def hom_key(h):
    """A hom's values on its source's presentation generators."""
    return tuple(h.target.normal_form(h.matrix.col(j))
                 for j in range(h.matrix.cols))


def reference_baer_check(I):
    """Baer's criterion by enumeration: every R-linear map from a non-trivial
    left ideal J into I must be the restriction of r -> r·m for some m."""
    R = I.ring
    for ideal in left_ideals(R):
        if ideal in ((R.zero(),), tuple(sorted(R.elements()))):
            continue
        J, incl = ideal_module(R, ideal)
        xs = [R.additive.normal_form(c) for c in incl.matrix.columns()]
        restrictions = {tuple(I.act(x, m) for x in xs)
                        for m in I.elements()}
        for h in reference_r_linear_homs(J, I):
            if hom_key(h) not in restrictions:
                return False, (ideal, h)
    return True, None


def hom_r_images(M, N):
    """The hom keys of Hom_R(M, N), read off hom_r's inclusion."""
    H, incl = hom_r(M, N)
    n = N.additive.gens
    keys = set()
    for e in H.elements():
        v = incl.matrix.mul_vec(H.lift(e))
        keys.add(tuple(N.additive.normal_form(v[j * n:(j + 1) * n])
                       for j in range(M.additive.gens)))
    return H, keys


def module_menu(R):
    """The (label, module) pairs of the acceptance criteria that R admits."""
    def z2():
        if R.name in ("Z4", "Z6"):
            return zmod_module(R, 2)
        return module_from_integer_action(R, fp_from_factors([2]),
                                          lambda r: r[0])
    builders = [("Z2", z2),
                ("Z4", lambda: zmod_module(R, 4)),
                ("Z2+Z2", lambda: module_direct_sum([z2(), z2()])[0])]
    out, skipped = [], []
    for label, make in builders:
        try:
            out.append((label, make()))
        except InvalidModule:
            skipped.append(label)
    return out, skipped


def hom_menu(R):
    """Modules over R, several with presentations that are not diagonal:
    the regular module, each Z/d that R admits, a left ideal, the first
    resolution term and cokernel of the smallest of these, and direct
    sums."""
    mods = [regular_module(R)]
    for d in range(2, R.additive.order() + 1):
        try:
            mods.append(zmod_module(R, d))
        except InvalidModule:
            pass
    ideals = [J for J in left_ideals(R) if 1 < len(J) < R.additive.order()]
    if ideals:
        mods.append(ideal_module(R, max(ideals, key=len))[0])
    small = min(mods, key=lambda M: M.order())
    res = injective_resolution(small, 1, cap=10 ** 15)
    mods += [res.terms[0], module_cokernel(res.maps[0], res.terms[0])[0]]
    mods.append(module_direct_sum([small, mods[-1]])[0])
    mods.append(module_direct_sum([small, regular_module(R)])[0])
    return mods


def test_hom_r_matches_enumerated_homs():
    """Seeded pairs over Z/n (n <= 12), F2x and Z[x]/(4, 2x, x^2): hom_r's
    image in N^k is the set of enumerated R-linear maps, and its invariant
    factors are the counted ones."""
    rng = random.Random(8)
    checked = 0
    for R in [ring_zmod(n) for n in range(2, 13)] + [ring_f2x(),
                                                     ring_z4_x()]:
        mods = hom_menu(R)
        pairs = [(M, N) for M in mods for N in mods
                 if fp_hom_group(M.additive, N.additive)[0].order() <= 512]
        for M, N in rng.sample(pairs, min(8, len(pairs))):
            homs = reference_r_linear_homs(M, N)
            H, keys = hom_r_images(M, N)
            assert keys == {hom_key(h) for h in homs}, R.name
            G = N.additive
            expected = abelian_invariants_by_counting(
                sorted(keys), lambda a, b: tuple(map(G.add, a, b)),
                tuple(G.zero() for _ in range(M.additive.gens)))
            assert H.order() == len(homs)
            assert H.invariant_factors == expected, R.name
            checked += 1
    assert checked >= 100


def test_ext_matches_cyclic_oracle():
    """Every divisor pair of n in {4, 6, 8, 9, 12} up to degree 2.  Z/e
    for large e resolves into terms past the default element cap, so the
    cap is raised here."""
    for n in (4, 6, 8, 9, 12):
        R = ring_zmod(n)
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for d, e in itertools.product(divisors, repeat=2):
            groups = ext(zmod_module(R, d), zmod_module(R, e), 2,
                         cap=10 ** 15)
            for k, G in enumerate(groups):
                order = ext_cyclic_oracle(n, d, e, k)
                assert G.order() == order, (n, d, e, k)
                assert G.invariant_factors == ((order,) if order > 1
                                               else ()), (n, d, e, k)


def ext_f2x_oracle(free, N, k):
    """|Ext^k(M, N)| over F2[x]/(x^2) for M = R (free) or M = R/(x), from
    the periodic free resolution ... -> R --x--> R --x--> R -> R/(x) -> 0:
    Hom(-, N) gives N --x--> N --x--> N ..., so Ext^0 = ker(x) and
    Ext^k = ker(x)/im(x) on N."""
    if free:
        return N.order() if k == 0 else 1
    x = (0, 1)
    kernel = sum(1 for m in N.elements() if N.act(x, m) == N.additive.zero())
    image = len({N.act(x, m) for m in N.elements()})
    return kernel if k == 0 else kernel // image


def test_ext_matches_periodic_oracle_on_f2x():
    R = ring_f2x()
    k, reg = zmod_module(R, 2), regular_module(R)
    kk = module_direct_sum([k, k])[0]
    for free, M in [(False, k), (True, reg)]:
        for N in [k, reg, kk, module_direct_sum([reg, k])[0]]:
            groups = ext(M, N, 2, cap=10 ** 15)
            assert [G.order() for G in groups] == \
                [ext_f2x_oracle(free, N, j) for j in range(3)]
            # 2 = 0 in R, so every Ext group is an F2-vector space
            assert all(set(G.invariant_factors) <= {2} for G in groups)
    assert [G.order() for G in ext(kk, kk, 2, cap=10 ** 15)] == \
        [16, 16, 16]


def baer_cases():
    cases = []
    for R in [ring_zmod(4), ring_zmod(6), ring_zmod(8), ring_zmod(12),
              ring_f2x(), ring_z4_x()]:
        menu, _ = module_menu(R)
        mods = [M for _, M in menu] + [regular_module(R)]
        cases += mods
        for M in mods[:2]:
            res = injective_resolution(M, 1, cap=10 ** 15)
            cases += [I for I in res.terms if I.order() <= 4096]
    return cases


def test_baer_matches_enumerating_reference():
    """Verdict and witness ideal as the enumerating reference has them; a
    witness map is R-linear on every pair of elements and no element of I
    restricts to it."""
    verdicts = []
    for I in baer_cases():
        R = I.ring
        ok, wit = baer_check(I)
        expected_ok, expected_wit = reference_baer_check(I)
        assert ok == expected_ok, (R.name, I.additive.invariant_factors)
        verdicts.append(ok)
        if ok:
            assert wit is None
            continue
        ideal, h = wit
        assert ideal == expected_wit[0]
        J, incl = ideal_module(R, ideal)
        assert h.source == J.additive and h.is_well_defined()
        assert all(h.apply(J.act(r, m)) == I.act(r, h.apply(m))
                   for r in R.elements() for m in J.elements())
        # J's elements, as ring elements, with h's values on them
        pairs = [(R.additive.normal_form(incl.matrix.mul_vec(J.additive.lift(
            m))), h.apply(m)) for m in J.elements()]
        assert not any(all(I.act(x, m) == y for x, y in pairs)
                       for m in I.elements())
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 8
