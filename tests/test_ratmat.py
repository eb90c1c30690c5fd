"""ratmat's integer kernels against dense rational reference formulas on
sparse inputs.

The random matrices mix int and Fraction entries, are mostly zeros, and
include 0/1 selection rows, all-zero rows and non-unit pivots, which are
the cases the zero-skipping kernels treat specially.  The kernels take
integer rows: each rational row (or vector) is passed scaled by the least
common denominator of its entries, and the references run on the
rationals themselves.
"""
import random
from fractions import Fraction
from math import gcd, lcm

from groundwork import ratmat

F = Fraction


def ref_rref(rows):
    """Dense Gauss-Jordan elimination: every cell is updated."""
    M = [[F(x) for x in row] for row in rows]
    ncols = len(M[0]) if M else 0
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        pv = M[r][c]
        M[r] = [x / pv for x in M[r]]
        for i in range(len(M)):
            if i != r:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in M[:r]], pivots


def ref_mat_vec(rows, v):
    return tuple(sum((F(a) * F(x) for a, x in zip(row, v)), F(0))
                 for row in rows)


def ref_combine(coeffs, vectors, n):
    out = [F(0)] * n
    for c, v in zip(coeffs, vectors):
        out = [o + F(c) * F(x) for o, x in zip(out, v)]
    return tuple(out)


def integral(xs):
    """(ints, d): the rationals xs times their least common denominator d."""
    d = lcm(*(F(x).denominator for x in xs))
    return [int(F(x) * d) for x in xs], d


def int_rows(rows):
    """Each row scaled by its own least common denominator."""
    return [integral(row)[0] for row in rows]


def entry(rng):
    if rng.random() < 0.6:
        return rng.choice([0, F(0)])
    return rng.choice([1, -1, 2, -3, F(1, 2), F(-2, 3), F(5, 4), F(3)])


def random_rows(rng, m, n):
    rows = []
    for _ in range(m):
        kind = rng.random()
        if kind < 0.15:
            rows.append([0] * n)
        elif kind < 0.4 and n:
            j = rng.randrange(n)
            rows.append([1 if i == j else 0 for i in range(n)])
        else:
            rows.append([entry(rng) for _ in range(n)])
    return rows


def all_ints(xs):
    return all(type(x) is int for x in xs)


def is_canonical(red, piv):
    """Integer rows, each primitive with a positive pivot at its first
    nonzero entry and zero in the other pivot columns."""
    if list(piv) != sorted(set(piv)) or len(red) != len(piv):
        return False
    for i, (row, p) in enumerate(zip(red, piv)):
        if not all_ints(row) or gcd(*row) != 1 or row[p] <= 0:
            return False
        if any(row[:p]) or any(row[q] for j, q in enumerate(piv) if j != i):
            return False
    return True


def first_pivots(M):
    """The first nonzero entry of each column, or None."""
    return [next((row[c] for row in M if row[c] != 0), None)
            for c in range(len(M[0]))]


def cases(seed=11, count=150):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        out.append((random_rows(rng, m, n),
                    [entry(rng) for _ in range(n)],
                    [entry(rng) for _ in range(m)]))
    return out


def test_random_cases_are_sparse_with_non_unit_pivots():
    cells = [x for rows, _, _ in cases() for row in rows for x in row]
    assert sum(1 for x in cells if x == 0) * 2 >= len(cells)
    assert any(type(x) is int and x not in (0, 1) for x in cells)
    assert any(type(x) is Fraction and x != 0 for x in cells)
    non_unit = int_non_unit = 0
    for rows, _, _ in cases():
        non_unit += sum(p is not None and p != 1 for p in
                        first_pivots([[F(x) for x in row] for row in rows]))
        int_non_unit += sum(p is not None and abs(p) != 1
                            for p in first_pivots(int_rows(rows)))
    assert non_unit > 0
    assert int_non_unit > 0


def test_mat_vec_matches_dense_product():
    for rows, v, _ in cases():
        flat, a = integral([x for row in rows for x in row])
        n = len(v)
        A = [flat[i:i + n] for i in range(0, len(flat), n)]
        w, d = integral(v)
        got = ratmat.mat_vec(A, w)
        assert tuple(F(x, a * d) for x in got) == ref_mat_vec(rows, v)
        assert all_ints(got)
    # a 0/1 block copy
    sel = [[0, 1, 0], [0, 0, 0], [1, 0, 0]]
    got = ratmat.mat_vec(sel, [7, 8, 9])
    assert got == (8, 0, 7) and all_ints(got)


def test_rref_matches_dense_elimination():
    for rows, _, _ in cases():
        red, piv = ratmat.rref(int_rows(rows))
        ref_red, ref_piv = ref_rref(rows)
        assert piv == ref_piv
        # the canonical rows are the reduced rows, each scaled
        assert [tuple(F(x, row[p]) for x in row)
                for row, p in zip(red, piv)] == ref_red
        assert is_canonical(red, piv)
    assert ratmat.rref([[2, 4], [3, 1]]) == ([(1, 0), (0, 1)], [0, 1])
    assert ratmat.rref([[2, 3], [4, 6]]) == ([(2, 3)], [0])
    assert ratmat.rref([[0, -4, 6], [0, 0, 0]]) == ([(0, 2, -3)], [1])
    assert ratmat.rref([[0, 0], [0, 0]]) == ([], [])


def test_reduce_mod_span_matches_dense_formula():
    for rows, v, _ in cases():
        basis, piv = ratmat.rref(int_rows(rows))
        ref_basis, _ = ref_rref(rows)
        want = [F(x) for x in v]
        for row, p in zip(ref_basis, piv):
            c = want[p]
            want = [x - c * y for x, y in zip(want, row)]
        u, d = integral(v)
        w, s = ratmat.reduce_mod_span(basis, piv, u)
        assert tuple(F(x, s * d) for x in w) == tuple(want)
        assert all_ints(w) and type(s) is int and s > 0
        assert all(w[p] == 0 for p in piv)


def test_kernel_basis_is_a_kernel_basis():
    for rows, _, _ in cases():
        n = len(rows[0])
        ker = ratmat.kernel_basis(int_rows(rows), n)
        _, piv = ref_rref(rows)
        assert len(ker) == n - len(piv)
        if ker:
            assert len(ref_rref(ker)[0]) == len(ker)
        for k in ker:
            assert all_ints(k) and gcd(*k) == 1
            assert ref_mat_vec(rows, k) == (F(0),) * len(rows)


def test_solve_matches_consistency():
    solved = unsolvable = 0
    for rows, _, b in cases():
        # scale each equation, its right-hand side included, to integers
        eqs = [integral(list(r) + [bv])[0] for r, bv in zip(rows, b)]
        got = ratmat.solve([e[:-1] for e in eqs], [e[-1] for e in eqs])
        _, piv = ref_rref(rows)
        _, piv_aug = ref_rref([list(r) + [bv] for r, bv in zip(rows, b)])
        if got is None:
            unsolvable += 1
            assert len(piv_aug) > len(piv)
        else:
            solved += 1
            x, den = got
            assert all_ints(x) and type(den) is int and den > 0
            assert len(x) == len(rows[0])
            assert ref_mat_vec(rows, [F(xi, den) for xi in x]) == \
                tuple(F(bv) for bv in b)
    assert solved and unsolvable


def test_combine_matches_dense_sum():
    rng = random.Random(5)
    for _ in range(100):
        n, k = rng.randint(0, 5), rng.randint(0, 4)
        vectors = random_rows(rng, k, n)
        coeffs = [entry(rng) for _ in range(k)]
        flat, a = integral([x for v in vectors for x in v])
        V = [flat[i:i + n] for i in range(0, len(flat), n)] if n \
            else [[] for _ in vectors]
        c, d = integral(coeffs)
        got = ratmat.combine(c, V, n)
        assert tuple(F(x, a * d) for x in got) == \
            ref_combine(coeffs, vectors, n)
        assert all_ints(got)
    got = ratmat.combine([0, 1], [[5, 6], [0, 3]], 2)
    assert got == (0, 3) and all_ints(got)


def test_empty_inputs():
    assert ratmat.mat_vec([], [1, 2]) == ()
    got = ratmat.mat_vec([[], []], [])
    assert got == (0, 0) and all_ints(got)
    assert ratmat.rref([]) == ([], [])
    assert ratmat.kernel_basis([], 2) == [(1, 0), (0, 1)]
    assert ratmat.solve([], []) is None
    got = ratmat.combine([], [], 3)
    assert got == (0,) * 3 and all_ints(got)
    assert ratmat.reduce_mod_span([], [], [1, 0]) == ((1, 0), 1)
