"""Exact rational linear algebra over Fraction.

Vectors are tuples of Fraction; a subspace is handled through its canonical
reduced-row-echelon basis, which doubles as the equality test.
"""
from __future__ import annotations

from fractions import Fraction

Vec = tuple


def fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs) -> Vec:
    return tuple(fr(x) for x in xs)


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vis_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def mat_vec(rows, v: Vec) -> Vec:
    return tuple(sum((fr(a) * x for a, x in zip(row, v)), Fraction(0))
                 for row in rows)


def rref(rows):
    """Reduced row echelon form.  Returns (reduced_rows, pivot_cols)."""
    M = [[fr(x) for x in row] for row in rows]
    if not M:
        return [], []
    ncols = len(M[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        pv = M[r][c]
        M[r] = [x / pv for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    return [tuple(row) for row in M[:r]], pivots


def reduce_mod_span(basis, pivots, v: Vec) -> Vec:
    """Subtract the unique span combination matching v's pivot coordinates.

    basis must be in RREF with the given pivot columns; the result has zeros
    at every pivot coordinate and vanishes exactly on the span.
    """
    w = list(v)
    for row, p in zip(basis, pivots):
        c = w[p]
        if c != 0:
            w = [x - c * y for x, y in zip(w, row)]
    return tuple(w)


def kernel_basis(rows, ncols: int):
    """Basis of {x : rows · x = 0} as a list of vectors."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def solve(rows, b: Vec):
    """One solution x of rows · x = b, or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(map(fr, row)) + [fr(bv)] for row, bv in zip(rows, b)]
    red, pivots = rref(aug)
    x = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        if p == ncols:
            return None  # pivot in the augmented column: inconsistent
        x[p] = row[ncols]
    return tuple(x)


def transpose(rows):
    if not rows:
        return []
    return [tuple(row[j] for row in rows) for j in range(len(rows[0]))]


def cols_to_rows(cols, nrows: int):
    if not cols:
        return [tuple() for _ in range(nrows)] if nrows else []
    return [tuple(col[i] for col in cols) for i in range(nrows)]
