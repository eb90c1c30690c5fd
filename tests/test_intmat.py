import random

import pytest

from groundwork.intmat import (IntMatrix, det, hnf, hnf_with_transform,
                               inverse_unimodular, is_unimodular, kernel,
                               lattice_contains, lattices_equal, snf, solve,
                               solve_many)


def check_snf(A):
    D, U, V, U_inv = snf(A)
    assert is_unimodular(U)
    assert is_unimodular(V)
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
        assert lattices_equal(A, B)


def test_hnf_with_transform():
    rng = random.Random(13)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        A = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        H, V, rank = hnf_with_transform(A)
        assert is_unimodular(V)
        AV = A.mul(V)
        assert [AV.col(j) for j in range(rank)] == \
            [H.col(j) for j in range(H.cols)]
        assert all(x == 0 for j in range(rank, n) for x in AV.col(j))
        assert H.entries == hnf(A).entries


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


def test_lattice_contains():
    L = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert lattice_contains(L, (4, 3))
    assert not lattice_contains(L, (1, 3))


def test_det_and_inverse():
    A = IntMatrix.from_rows([[2, 1], [1, 1]])
    assert det(A) == 1
    Ainv = inverse_unimodular(A)
    assert A.mul(Ainv).entries == IntMatrix.identity(2).entries
    with pytest.raises(ValueError):
        inverse_unimodular(IntMatrix.from_rows([[2]]))


def test_json_round_trip():
    A = IntMatrix.from_rows([[12345678901234567890, -2], [0, 7]])
    assert IntMatrix.from_json(A.to_json()).entries == A.entries
