import random
from fractions import Fraction

import pytest

from groundwork.intmat import (IntMatrix, det, hnf, kernel, snf, solve,
                               solve_hnf, solve_many)


def check_snf(A):
    D, U, V, U_inv = snf(A)
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1
    assert U.mul(A).mul(V).entries == D.entries
    eye = IntMatrix.identity(A.rows).entries
    assert U.mul(U_inv).entries == eye
    assert U_inv.mul(U).entries == eye
    diag = [D[i, i] for i in range(min(A.rows, A.cols))]
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert D[i, j] == 0
    for d in diag:
        assert d >= 0
    nonzero = [d for d in diag if d != 0]
    # zeros only at the end, divisibility along the chain
    assert diag[:len(nonzero)] == nonzero
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return diag


def test_snf_diag_2_3():
    A = IntMatrix.diagonal([2, 3])
    diag = check_snf(A)
    assert diag == [1, 6]


def test_snf_identity():
    A = IntMatrix.identity(4)
    assert check_snf(A) == [1, 1, 1, 1]


def test_snf_zero():
    A = IntMatrix.zeros(1, 1)
    assert check_snf(A) == [0]


def test_snf_random_small():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        check_snf(A)


def test_hnf_canonical_under_column_ops():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        cols = A.columns()
        # random unimodular column ops preserve the lattice
        for _ in range(10):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                q = rng.randint(-3, 3)
                cols[i] = [x + q * y for x, y in zip(cols[i], cols[j])]
        B = IntMatrix.from_cols(cols, rows=m)
        assert hnf(A).entries == hnf(B).entries


def test_kernel():
    A = IntMatrix.from_rows([[2, 4], [1, 2]])
    K = kernel(A)
    assert K.cols == 1
    v = K.col(0)
    assert A.mul_vec(v) == (0, 0)
    assert v in ((2, -1), (-2, 1))


def test_solve():
    A = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve(A, (4, 9)) == (2, 3)
    assert solve(A, (1, 0)) is None


def test_solve_many_matches_solve():
    rng = random.Random(17)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(0, 5)
        A = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        # right-hand sides in the column lattice, and arbitrary ones
        bs = [A.mul_vec([rng.randint(-4, 4) for _ in range(n)])
              for _ in range(3)]
        bs += [[rng.randint(-9, 9) for _ in range(m)] for _ in range(3)]
        sols = solve_many(A, bs)
        assert sols == [solve(A, b) for b in bs]
        for b, x in zip(bs[:3], sols):
            assert x is not None and A.mul_vec(x) == tuple(b)
        assert solve_many(A, []) == []
    assert solve_many(IntMatrix.from_rows([[2, 0], [0, 3]]),
                      [(4, 9), (1, 0)]) == [(2, 3), None]
    empty = IntMatrix.zeros(2, 0)
    assert solve_many(empty, [(0, 0), (0, 1)]) == [(), None]


def test_solve_hnf_matches_solve_many():
    rng = random.Random(23)
    seen = set()
    for _ in range(80):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        H = hnf(IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]))
        xs = [[rng.randint(-4, 4) for _ in range(H.cols)] for _ in range(3)]
        bs = [H.mul_vec(x) for x in xs]
        bs += [[rng.randint(-9, 9) for _ in range(H.rows)] for _ in range(3)]
        for b, want in zip(bs, solve_many(H, bs)):
            got = solve_hnf(H, b)
            assert (got is None) == (want is None)
            # H has independent columns, so the solution is unique
            assert got is None or H.mul_vec(got) == tuple(b)
            seen.add(got is None)
        for x, b in zip(xs, bs):
            assert solve_hnf(H, b) == x
    assert seen == {True, False}
    assert solve_hnf(IntMatrix.zeros(2, 0), (0, 0)) == []
    assert solve_hnf(IntMatrix.zeros(2, 0), (0, 1)) is None


def test_det_and_inverse():
    A = IntMatrix.from_rows([[2, 1], [1, 1]])
    assert det(A) == 1


# -- oracles for the matrix kernels -------------------------------------------


def random_shapes(rng, count):
    """Seeded integer matrices: empty shapes first, then random ones with
    negative entries and the occasional large one."""
    shapes = [(0, 0), (0, 3), (3, 0), (0, 1), (1, 0)]
    shapes += [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(count)]
    for m, n in shapes:
        bound = rng.choice([1, 9, 10 ** 12])
        yield m, n, [[rng.randint(-bound, bound) for _ in range(n)]
                     for _ in range(m)]


def test_products_and_columns_match_index_loops():
    rng = random.Random(41)
    for m, n, rows in random_shapes(rng, 80):
        A = IntMatrix.from_rows(rows) if m else IntMatrix.zeros(0, n)
        assert (A.rows, A.cols) == (m, n)
        v = [rng.randint(-9, 9) for _ in range(n)]
        assert A.mul_vec(v) == tuple(
            sum(rows[i][j] * v[j] for j in range(n)) for i in range(m))
        assert A.mul_vec(tuple(v)) == A.mul_vec(v)
        for j in range(n):
            assert A.col(j) == tuple(rows[i][j] for i in range(m))
        columns = A.columns()
        assert columns == [[rows[i][j] for i in range(m)] for j in range(n)]
        assert all(type(c) is list for c in columns)
        assert IntMatrix.from_cols(columns, rows=m).entries == A.entries
        T = A.transpose()
        assert (T.rows, T.cols) == (n, m)
        assert T.entries == tuple(tuple(rows[i][j] for i in range(m))
                                  for j in range(n))
        for p in (0, rng.randint(1, 4)):
            B = [[rng.randint(-9, 9) for _ in range(p)] for _ in range(n)]
            Bm = IntMatrix(n, p, tuple(map(tuple, B)))
            C = A.mul(Bm)
            assert (C.rows, C.cols) == (m, p)
            assert C.entries == tuple(
                tuple(sum(rows[i][k] * B[k][j] for k in range(n))
                      for j in range(p)) for i in range(m))
    with pytest.raises(ValueError):
        IntMatrix.zeros(2, 3).mul_vec((1, 2))
    with pytest.raises(ValueError):
        IntMatrix.zeros(2, 3).mul(IntMatrix.zeros(2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_cols([[1, 2], [3]])


def test_identity_and_from_rows_match_index_loops():
    for n in range(6):
        eye = IntMatrix.identity(n)
        assert (eye.rows, eye.cols) == (n, n)
        assert eye.entries == tuple(tuple(1 if i == j else 0
                                          for j in range(n))
                                    for i in range(n))
        assert all(type(x) is int for row in eye.entries for x in row)
    rows = [[True, False, Fraction(4, 2)], [Fraction(7, 2), Fraction(-7, 2), -3],
            [10 ** 20, 0, Fraction(-1, 3)]]
    A = IntMatrix.from_rows(rows)
    assert A.entries == ((1, 0, 2), (3, -3, -3), (10 ** 20, 0, 0))
    assert A.entries == tuple(tuple(int(x) for x in row) for row in rows)
    assert all(type(x) is int for row in A.entries for x in row)
    assert IntMatrix.from_rows(iter([(1, 2), [3, 4]])).entries == \
        ((1, 2), (3, 4))
    assert (IntMatrix.from_rows([]).rows, IntMatrix.from_rows([]).cols) == \
        (0, 0)
    E = IntMatrix.from_rows([[], []])
    assert (E.rows, E.cols, E.entries) == (2, 0, ((), ()))


def reference_snf(A):
    """An independent copy of the Smith elimination, pivot order and
    operations included.  `snf` must return exactly its D, U, V and U_inv
    entries, so that every Smith coordinate stays fixed."""
    m, n = A.rows, A.cols
    M = [list(row) for row in A.entries]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    W = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op_sub(i, q, t):  # row_i -= q * row_t; col_t += q * col_i
        Mi, Mt = M[i], M[t]
        M[i] = [x - q * y for x, y in zip(Mi, Mt)]
        Ui, Ut = U[i], U[t]
        U[i] = [x - q * y for x, y in zip(Ui, Ut)]
        W[t] = [x + q * y for x, y in zip(W[t], W[i])]

    def col_op_sub(j, q, t):  # col_j -= q * col_t
        for row in M:
            row[j] -= q * row[t]
        for row in V:
            row[j] -= q * row[t]

    def row_swap(i, t):
        M[i], M[t] = M[t], M[i]
        U[i], U[t] = U[t], U[i]
        W[i], W[t] = W[t], W[i]

    def col_swap(j, t):
        for row in M:
            row[j], row[t] = row[t], row[j]
        for row in V:
            row[j], row[t] = row[t], row[j]

    def move_min_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = M[i][j]
                if v != 0 and (best is None or abs(v) < abs(best[2])):
                    best = (i, j, v)
        if best is None:
            return False
        i0, j0, _ = best
        if i0 != t:
            row_swap(i0, t)
        if j0 != t:
            col_swap(j0, t)
        return True

    def diagonalize_from(t0):
        t = t0
        while t < min(m, n):
            if not move_min_pivot(t):
                break
            while True:
                for i in range(t + 1, m):
                    if M[i][t] != 0:
                        row_op_sub(i, M[i][t] // M[t][t], t)
                for j in range(t + 1, n):
                    if M[t][j] != 0:
                        col_op_sub(j, M[t][j] // M[t][t], t)
                if all(M[i][t] == 0 for i in range(t + 1, m)) and \
                        all(M[t][j] == 0 for j in range(t + 1, n)):
                    break
                move_min_pivot(t)
            if M[t][t] < 0:
                M[t] = [-x for x in M[t]]
                U[t] = [-x for x in U[t]]
                W[t] = [-x for x in W[t]]
            t += 1
        return t

    t_end = diagonalize_from(0)
    changed = True
    while changed:
        changed = False
        for i in range(t_end - 1):
            a, b = M[i][i], M[i + 1][i + 1]
            if a != 0 and b % a != 0:
                for row in M:
                    row[i] += row[i + 1]
                for row in V:
                    row[i] += row[i + 1]
                diagonalize_from(i)
                changed = True
                break
            if a == 0 and b != 0:
                col_swap(i, i + 1)
                row_swap(i, i + 1)
                changed = True
                break
    return (tuple(map(tuple, M)), tuple(map(tuple, U)),
            tuple(map(tuple, V)), tuple(zip(*W)))


def test_snf_matches_reference_elimination():
    rng = random.Random(43)
    cases = list(random_shapes(rng, 120))
    # divisibility repairs and zero reordering: diag(2, 3), diag(0, 4)
    cases += [(2, 2, [[2, 0], [0, 3]]), (2, 2, [[0, 0], [0, 4]]),
              (3, 3, [[4, 6, 0], [6, 9, 0], [0, 0, 10]])]
    for m, n, rows in cases:
        A = IntMatrix.from_rows(rows) if m else IntMatrix.zeros(0, n)
        D, U, V, U_inv = snf(A)
        assert (D.rows, D.cols) == (m, n)
        assert (D.entries, U.entries, V.entries, U_inv.entries) == \
            reference_snf(A)
        assert all(type(x) is int for X in (D, U, V, U_inv)
                   for row in X.entries for x in row)
