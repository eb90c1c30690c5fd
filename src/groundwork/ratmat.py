"""Exact rational linear algebra over Fraction.

Vectors are tuples of Fraction; a subspace is handled through its canonical
reduced-row-echelon basis, which doubles as the equality test.

Zero-skip contract: the kernels below touch only nonzero entries.  A zero
term is never multiplied or added, a coefficient of 1 copies its vector
entry instead of multiplying it, and a pivot of 1 is not divided by.  The
arithmetic is exact, so this changes no value, only the work: a 0/1
block-copy matrix costs one addition per row.  Inputs may mix int and
Fraction; every entry returned is a Fraction, and a sum of no terms is
Fraction(0).
"""
from __future__ import annotations

from fractions import Fraction

Vec = tuple
ZERO = Fraction(0)


def fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs) -> Vec:
    return tuple(fr(x) for x in xs)


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vis_zero(a: Vec) -> bool:
    return not any(a)


def mat_vec(rows, v: Vec) -> Vec:
    v = vec(v)
    out = []
    for row in rows:
        acc = None
        for a, x in zip(row, v):
            if a and x:
                t = x if a == 1 else a * x
                acc = t if acc is None else acc + t
        out.append(ZERO if acc is None else acc)
    return tuple(out)


def combine(coeffs, vectors, n: int) -> Vec:
    """The linear combination sum of c·v over zip(coeffs, vectors) in Q^n."""
    out = [ZERO] * n
    for c, v in zip(coeffs, vectors):
        if c:
            for j, x in enumerate(v):
                if x:
                    out[j] += x if c == 1 else c * x
    return tuple(out)


def rref(rows):
    """Reduced row echelon form.  Returns (reduced_rows, pivot_cols)."""
    M = [[fr(x) for x in row] for row in rows]
    if not M:
        return [], []
    ncols = len(M[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        pv = M[r][c]
        if pv != 1:
            M[r] = [x / pv if x else x for x in M[r]]
        prow = M[r]
        nz = [(j, y) for j, y in enumerate(prow) if y]
        for i in range(len(M)):
            f = M[i][c]
            if f and i != r:
                row = M[i]
                for j, y in nz:
                    row[j] -= f * y
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
    w = list(vec(v))
    for row, p in zip(basis, pivots):
        c = w[p]
        if c:
            for j, y in enumerate(row):
                if y:
                    w[j] -= c * y
    return tuple(w)


def kernel_basis(rows, ncols: int):
    """Basis of {x : rows · x = 0} as a list of vectors."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            if row[f]:
                v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def solve(rows, b: Vec):
    """One solution x of rows · x = b, or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(row) + [bv] for row, bv in zip(rows, b)]
    red, pivots = rref(aug)
    x = [ZERO] * ncols
    for row, p in zip(red, pivots):
        if p == ncols:
            return None  # pivot in the augmented column: inconsistent
        x[p] = row[ncols]
    return tuple(x)


def cols_to_rows(cols, nrows: int):
    if not cols:
        return [tuple() for _ in range(nrows)] if nrows else []
    return [tuple(col[i] for col in cols) for i in range(nrows)]
