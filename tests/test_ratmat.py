"""ratmat kernels against dense reference formulas on sparse inputs.

The random matrices mix int and Fraction entries, are mostly zeros, and
include 0/1 selection rows, all-zero rows and non-unit pivots, which are
the cases the zero-skipping kernels treat specially.
"""
import random
from fractions import Fraction

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


def all_fractions(xs):
    return all(type(x) is Fraction for x in xs)


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
    non_unit = 0
    for rows, _, _ in cases():
        M = [[F(x) for x in row] for row in rows]
        for c in range(len(M[0])):
            p = next((row[c] for row in M if row[c] != 0), None)
            non_unit += p is not None and p != 1
    assert non_unit > 0


def test_mat_vec_matches_dense_product():
    for rows, v, _ in cases():
        got = ratmat.mat_vec(rows, v)
        assert got == ref_mat_vec(rows, v)
        assert all_fractions(got)
    # a 0/1 block copy with plain int input
    sel = [[0, 1, 0], [0, 0, 0], [1, 0, 0]]
    got = ratmat.mat_vec(sel, [7, 8, 9])
    assert got == (8, 0, 7) and all_fractions(got)


def test_rref_matches_dense_elimination():
    for rows, _, _ in cases():
        red, piv = ratmat.rref(rows)
        assert (red, piv) == ref_rref(rows)
        assert all(all_fractions(row) for row in red)
    assert ratmat.rref([[2, 4], [3, 1]]) == ([(1, 0), (0, 1)], [0, 1])
    assert ratmat.rref([[0, 0], [0, 0]]) == ([], [])


def test_reduce_mod_span_matches_dense_formula():
    for rows, v, _ in cases():
        basis, piv = ref_rref(rows)
        want = [F(x) for x in v]
        for row, p in zip(basis, piv):
            c = want[p]
            want = [x - c * y for x, y in zip(want, row)]
        got = ratmat.reduce_mod_span(basis, piv, v)
        assert got == tuple(want) and all_fractions(got)
        assert all(got[p] == 0 for p in piv)


def test_kernel_basis_is_a_kernel_basis():
    for rows, _, _ in cases():
        n = len(rows[0])
        ker = ratmat.kernel_basis(rows, n)
        _, piv = ref_rref(rows)
        assert len(ker) == n - len(piv)
        if ker:
            assert len(ref_rref(ker)[0]) == len(ker)
        for k in ker:
            assert all_fractions(k)
            assert ref_mat_vec(rows, k) == (F(0),) * len(rows)


def test_solve_matches_consistency():
    solved = unsolvable = 0
    for rows, _, b in cases():
        x = ratmat.solve(rows, b)
        _, piv = ref_rref(rows)
        _, piv_aug = ref_rref([list(r) + [bv] for r, bv in zip(rows, b)])
        if x is None:
            unsolvable += 1
            assert len(piv_aug) > len(piv)
        else:
            solved += 1
            assert all_fractions(x) and len(x) == len(rows[0])
            assert ref_mat_vec(rows, x) == tuple(F(bv) for bv in b)
    assert solved and unsolvable


def test_combine_matches_dense_sum():
    rng = random.Random(5)
    for _ in range(100):
        n, k = rng.randint(0, 5), rng.randint(0, 4)
        vectors = random_rows(rng, k, n)
        coeffs = [entry(rng) for _ in range(k)]
        got = ratmat.combine(coeffs, vectors, n)
        assert got == ref_combine(coeffs, vectors, n)
        assert all_fractions(got)
    got = ratmat.combine([0, 1], [[5, 6], [0, 3]], 2)
    assert got == (0, 3) and all_fractions(got)


def test_empty_inputs():
    assert ratmat.mat_vec([], [1, 2]) == ()
    got = ratmat.mat_vec([[], []], [])
    assert got == (F(0), F(0)) and all_fractions(got)
    assert ratmat.rref([]) == ([], [])
    assert ratmat.kernel_basis([], 2) == [(F(1), F(0)), (F(0), F(1))]
    assert ratmat.solve([], []) is None
    got = ratmat.combine([], [], 3)
    assert got == (F(0),) * 3 and all_fractions(got)
    assert ratmat.reduce_mod_span([], [], [1, 0]) == (F(1), F(0))
