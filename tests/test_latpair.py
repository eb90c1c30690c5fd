import math
import random
from fractions import Fraction

import pytest

from groundwork.latpair import (ContainmentError, GroupType, LatticePairGroup,
                                SpanLattice, latpair_kernel_image,
                                latpair_quotient_type, quotient_type)
from groundwork.shcoh import pair_product

F = Fraction


def generators(A):
    """A's lattice generators as rational vectors."""
    return [tuple(F(x, A.den) for x in c) for c in A.lattice_columns()]


def lat(*cols):
    amb = len(cols[0])
    return SpanLattice.make(amb, lattice_vectors=cols)


def test_canonical_equality():
    # {x + y in Z} two ways: span (1,-1) + Z(1,0)  vs  span (-2,2) + Z(0,1)
    A = SpanLattice.make(2, [(1, -1)], [(1, 0)])
    B = SpanLattice.make(2, [(-2, 2)], [(0, 1)])
    assert A == B
    # scaled generators of the same lattice
    assert lat((2, 0), (0, 3), (2, 3)) == lat((2, 0), (0, 3))
    assert lat((F(1, 2), 0)) == lat((F(1, 2), 0), (F(3, 2), 0))


def test_contains():
    G = SpanLattice.make(2, [(1, -1)], [(1, 0)])
    assert G.contains((F(1, 2), F(1, 2)))
    assert G.contains((3, -2))
    assert not G.contains((F(1, 2), 0))
    assert SpanLattice.full(1).contains([F(22, 7)])
    assert not SpanLattice.zero(1).contains([1])


def test_quotient_q2_mod_z2_is_qz_squared():
    t = quotient_type(SpanLattice.full(2), lat((1, 0), (0, 1)))
    assert t == GroupType(0, 2, 0, ())
    assert str(t) == "(Q/Z)^2"


def test_quotient_z2_mod_2z_3z():
    t = quotient_type(lat((1, 0), (0, 1)), lat((2, 0), (0, 3)))
    assert t == GroupType(0, 0, 0, (6,))
    assert t.order() == 6


def test_quotient_self_trivial():
    G = SpanLattice.make(3, [(1, 0, 2)], [(0, 1, 0), (0, 0, F(1, 5))])
    assert quotient_type(G, G).is_trivial()


def test_quotient_with_free_part():
    t = quotient_type(lat((1, 0), (0, 1)), lat((2, 0)))
    assert t == GroupType(0, 0, 1, (2,))
    assert str(t) == "Z + Z/2"


def test_quotient_mixed_divisible():
    num = SpanLattice.full(2)
    den = SpanLattice.make(2, [(1, 0)], [(0, 1)])
    assert quotient_type(num, den) == GroupType(0, 1, 0, ())


def test_quotient_q_rank():
    assert quotient_type(SpanLattice.full(2),
                         SpanLattice.zero(2)) == GroupType(2, 0, 0, ())


def test_containment_enforced():
    with pytest.raises(ContainmentError):
        quotient_type(lat((2, 0), (0, 2)), lat((1, 0), (0, 1)))
    with pytest.raises(ContainmentError):
        LatticePairGroup(lat((2,)), lat((1,)))


def test_intersect():
    A = SpanLattice.make(2, [(1, 0)])          # Q + 0
    B = lat((1, 0), (0, 1))                    # Z^2
    assert A.intersect(B) == lat((1, 0))
    C = lat((F(1, 2), F(1, 2)), (0, 1))
    assert C.intersect(B) == B
    assert lat((2, 0)).intersect(lat((3, 0))) == lat((6, 0))


def test_preimage():
    Z = lat((1,))
    P = Z.preimage([(1, 1)], 2)
    assert P == SpanLattice.make(2, [(1, -1)], [(1, 0)])
    # preimage of 0 under projection = kernel line
    P0 = SpanLattice.zero(1).preimage([(1, 0)], 2)
    assert P0 == SpanLattice.make(2, [(0, 1)])


def test_sum_and_image():
    A = lat((2, 0))
    B = lat((0, 3))
    assert A.add(B) == lat((2, 0), (0, 3))
    assert A.image([(1, 0)]) == lat((2,))
    assert SpanLattice.full(2).image([(1, 1)]) == SpanLattice.full(1)


def test_kernel_image_times_two_on_q_mod_z():
    QZ = LatticePairGroup(SpanLattice.full(1), lat((1,)))
    ker, img = latpair_kernel_image([(2,)], QZ, QZ)
    assert latpair_quotient_type(ker) == GroupType(0, 0, 0, (2,))
    assert latpair_quotient_type(img) == GroupType(0, 1, 0, ())
    # zero map: kernel is everything, image trivial
    ker0, img0 = latpair_kernel_image([(0,)], QZ, QZ)
    assert latpair_quotient_type(ker0) == GroupType(0, 1, 0, ())
    assert latpair_quotient_type(img0).is_trivial()
    # identity
    ker1, img1 = latpair_kernel_image([(1,)], QZ, QZ)
    assert latpair_quotient_type(ker1).is_trivial()
    assert latpair_quotient_type(img1) == GroupType(0, 1, 0, ())


def test_kernel_image_checks_well_definedness():
    QZ = LatticePairGroup(SpanLattice.full(1), lat((1,)))
    Zgrp = LatticePairGroup(lat((1,)), SpanLattice.zero(1))
    with pytest.raises(ContainmentError):
        latpair_kernel_image([(1,)], QZ, Zgrp)


def _random_vector(rng, n):
    return [rng.choice([0, 0, 1, -1, 2, 3, F(1, 2), F(-2, 3), F(3, 4)])
            for _ in range(n)]


def _random_group(rng, n):
    kind = rng.randrange(4)
    if kind == 0:
        return SpanLattice.zero(n)
    spans = [_random_vector(rng, n) for _ in range(rng.randint(0, 2))]
    if kind == 1:
        return SpanLattice.make(n, span_vectors=spans)
    lats = [_random_vector(rng, n) for _ in range(rng.randint(1, 3))]
    return SpanLattice.make(n, spans if kind == 3 else (), lats)


def _random_subgroup(rng, A):
    """A subgroup of A: some of its span rows, and integer multiples of
    its lattice generators shifted by a span row."""
    shift = A.span[0] if A.span else [0] * A.ambient
    spans = [r for r in A.span if rng.random() < 0.5]
    lats = []
    for c in generators(A):
        k = rng.randint(-2, 2)      # one multiplier per generator
        lats.append([k * x + y for x, y in zip(c, shift)])
    return SpanLattice.make(A.ambient, spans, lats)


def test_membership_matches_canonical_form_oracle():
    rng = random.Random(2024)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        A = _random_group(rng, n)
        B = _random_subgroup(rng, A) if rng.random() < 0.4 \
            else _random_group(rng, n)
        want = A.add(B) == A
        assert A.contains_group(B) == want
        seen.add(want)
        for _ in range(3):
            v = _random_vector(rng, n)
            if generators(A) and rng.random() < 0.3:
                k = rng.randint(-2, 2)
                v = [k * x for x in generators(A)[0]]
            got = A.contains(v)
            assert got == A.contains_group(
                SpanLattice.make(n, lattice_vectors=[v]))
            assert got == (A.add(SpanLattice.make(
                n, lattice_vectors=[v])) == A)
            seen.add(("v", got))
    assert seen == {True, False, ("v", True), ("v", False)}


def test_membership_edge_cases():
    Z = lat((1, 0), (0, 1))
    # non-integral target against an integral lattice
    assert not Z.contains((F(1, 2), 0))
    assert not Z.contains_group(lat((F(1, 3), 1)))
    # empty lattice: only the span counts
    line = SpanLattice.make(2, span_vectors=[(1, 1)])
    assert line.contains((F(5, 7), F(5, 7)))
    assert not line.contains((1, 0))
    assert line.contains_group(SpanLattice.make(2, [(2, 2)], [(3, 3)]))
    assert not line.contains_group(Z)
    # span-only groups inside a lattice: a line is never inside Z^2
    assert not Z.contains_group(SpanLattice.make(2, span_vectors=[(1, 0)]))
    assert Z.contains_group(SpanLattice.zero(2))
    assert SpanLattice.zero(2).contains((0, 0))


def _element(rng, A):
    """A random element of A: an integer combination of its lattice
    generators plus a rational combination of its span rows."""
    v = [F(0)] * A.ambient
    for g in generators(A):
        c = rng.randint(-2, 2)
        v = [x + c * y for x, y in zip(v, g)]
    for row in A.span:
        c = rng.choice([0, 1, F(1, 2), F(-5, 3)])
        v = [x + c * y for x, y in zip(v, row)]
    return v


def test_canonical_data_are_integers():
    rng = random.Random(31)
    for _ in range(200):
        A = _random_group(rng, rng.randint(0, 4))
        assert all(type(x) is int for row in A.span for x in row)
        for row, p in zip(A.span, A.span_pivots):
            assert row[p] > 0 and math.gcd(*row) == 1
        assert all(type(x) is int for row in A.lattice.entries for x in row)
        assert type(A.den) is int and A.den > 0
        assert math.gcd(A.den, *(x for row in A.lattice.entries
                                 for x in row)) == 1
        # the lattice is reduced modulo the span
        assert all(c[p] == 0 for c in A.lattice_columns()
                   for p in A.span_pivots)


def test_preimage_and_intersect_match_membership():
    rng = random.Random(99)
    seen = set()
    for _ in range(150):
        n, m = rng.randint(1, 3), rng.randint(0, 3)
        A = _random_group(rng, n)
        rows = [[rng.choice([0, 0, 1, -1, 2]) for _ in range(m)]
                for _ in range(n)]
        den = rng.choice([1, 1, 2, 3])
        P = A.preimage(rows, m, den)
        assert A.contains_group(P.image(rows, den))
        for _ in range(4):
            x = _element(rng, P) if rng.random() < 0.5 else \
                _random_vector(rng, m)
            y = [sum((F(a) * b for a, b in zip(row, x)), F(0)) / den
                 for row in rows]
            got = P.contains(x)
            assert got == A.contains(y)
            seen.add(("pre", got))
        B = _random_group(rng, n)
        meet = A.intersect(B)
        assert A.contains_group(meet) and B.contains_group(meet)
        for _ in range(4):
            v = _element(rng, A)
            got = meet.contains(v)
            assert got == B.contains(v)
            seen.add(("meet", got))
    assert seen == {("pre", True), ("pre", False),
                    ("meet", True), ("meet", False)}


def test_pair_product_matches_generic_make():
    """Blockwise products against SpanLattice.make over the generators
    embedded in the stacked coordinates."""
    rng = random.Random(17)
    for _ in range(120):
        pairs = []
        for _ in range(rng.randint(0, 4)):
            A = _random_group(rng, rng.randint(0, 3))
            coeffs = [rng.randint(-2, 2) for _ in generators(A)]
            sub = SpanLattice.make(
                A.ambient, [r for r in A.span if rng.random() < 0.5],
                [[c * x for x in g] for c, g in zip(coeffs, generators(A))])
            pairs.append(LatticePairGroup(A, sub))
        got, offsets = pair_product(pairs)
        total = sum(P.ambient for P in pairs)
        assert got.ambient == total
        for side in ("numerator", "denominator"):
            spans, lats, off = [], [], 0
            for P in pairs:
                G = getattr(P, side)
                pad = ([0] * off, [0] * (total - off - G.ambient))
                spans += [pad[0] + list(r) + pad[1] for r in G.span]
                lats += [pad[0] + list(g) + pad[1] for g in generators(G)]
                off += G.ambient
            want = SpanLattice.make(total, spans, lats)
            have = getattr(got, side)
            assert (have.span, have.span_pivots, have.lattice, have.den) == \
                (want.span, want.span_pivots, want.lattice, want.den)
            assert have == want
        assert offsets == [sum(P.ambient for P in pairs[:i])
                           for i in range(len(pairs))]


def test_shapes_are_checked():
    A = SpanLattice.make(2, [(1, 0)], [(0, F(1, 2))])
    QZ = LatticePairGroup(SpanLattice.full(2), lat((1, 0), (0, 1)))
    bad = [
        lambda: SpanLattice.make(2, lattice_vectors=[[1, 0, 0]]),
        lambda: SpanLattice.make(2, span_vectors=[[1]]),
        lambda: A.image([[1]]),
        lambda: A.image([[1, 0], [0]]),
        lambda: A.preimage([[1]], 2),
        lambda: A.preimage([[1, 0], [0, 1]], 3),
        lambda: A.add(SpanLattice.zero(3)),
        lambda: A.contains_group(SpanLattice.zero(1)),
        lambda: latpair_kernel_image([[1, 0]], QZ, QZ),
        lambda: latpair_kernel_image([[1], [0]], QZ, QZ),
    ]
    for call in bad:
        with pytest.raises(ValueError, match="ambient mismatch"):
            call()
