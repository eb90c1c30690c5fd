"""Exact rational linear algebra on integer rows.

A rational vector is carried as an integer vector and one positive
denominator.  Scaling a row by a nonzero rational changes neither the
space it spans nor the kernel it cuts out, so the elimination here is
fraction-free, as in Bareiss (Math. Comp. 22, 1968), but keeps each row
primitive instead of dividing by the previous pivot: `rref` returns the
reduced row echelon rows of a subspace, each scaled to a primitive
integer row with a positive pivot.  Every such row is zero in the other pivot
columns; the form is canonical and doubles as the equality test.

Zero-skip contract: a zero coefficient is never applied.  A row whose
entry in the pivot column is zero is left alone, only the nonzero entries
of a pivot row are subtracted, and only the nonzero coefficients of a
combination or entries of a vector are multiplied.

`latpair` is the only caller.  The module stays a layer of its own
because the benchmark's layer list (`bench/layertrace.py`, `LAYERS`)
imports `groundwork.ratmat`.
"""
from __future__ import annotations

from math import gcd, lcm


def _primitive(row: list) -> list:
    """row divided by the gcd of its entries, signed so that its first
    nonzero entry is positive."""
    g = gcd(*row)
    if next(x for x in row if x) < 0:
        g = -g
    return row if g == 1 else [x // g for x in row]


def mat_vec(rows, v) -> tuple:
    """rows · v for an integer matrix and an integer vector."""
    nz = [(j, x) for j, x in enumerate(v) if x]
    return tuple(sum(row[j] * x for j, x in nz) for row in rows)


def combine(coeffs, vectors, n: int) -> tuple:
    """The integer combination sum of c·v over zip(coeffs, vectors) in Z^n."""
    out = [0] * n
    for c, v in zip(coeffs, vectors):
        if c:
            for j, x in enumerate(v):
                if x:
                    out[j] += c * x
    return tuple(out)


def rref(rows):
    """Canonical basis of the row space of integer rows.

    Returns (basis, pivot_cols): the reduced row echelon rows, each scaled
    to a primitive integer tuple with a positive pivot.  Gauss–Jordan
    elimination in which a row is cleared by an integer combination with
    the pivot row and, when that scaled it, divided by the gcd of its
    entries, which keeps the entries small.
    """
    M = [list(row) for row in rows if any(row)]
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
        prow = M[r] = _primitive(M[r])
        a = prow[c]
        nz = [(j, y) for j, y in enumerate(prow) if y]
        for i, row in enumerate(M):
            f = row[c]
            if f and i != r:
                g = gcd(a, f)
                s, t = a // g, f // g
                if s != 1:
                    row = [s * x for x in row]
                for j, y in nz:
                    row[j] -= t * y
                M[i] = _primitive(row) if s != 1 and any(row) else row
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    return [tuple(_primitive(row)) for row in M[:r]], pivots


def reduce_mod_span(basis, pivots, v):
    """Subtract the unique span combination matching v's pivot coordinates.

    basis is canonical (`rref`) with the given pivot columns, v an integer
    vector.  Returns (w, s) with s > 0 and w/s = v − (span combination):
    w is zero at every pivot coordinate and vanishes exactly when v lies
    in the span.
    """
    w = list(v)
    s = 1
    for row, p in zip(basis, pivots):
        c = w[p]
        if c:
            a = row[p]
            g = gcd(a, c)
            a, c = a // g, c // g
            if a != 1:
                w = [a * x for x in w]
                s *= a
            for j, y in enumerate(row):
                if y:
                    w[j] -= c * y
    return tuple(w), s


def kernel_basis(rows, ncols: int):
    """Basis of {x : rows · x = 0} as primitive integer vectors."""
    red, pivots = rref(rows)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        used = [(row, p) for row, p in zip(red, pivots) if row[f]]
        m = lcm(*(row[p] for row, p in used))
        v = [0] * ncols
        v[f] = m
        for row, p in used:
            v[p] = -row[f] * (m // row[p])
        basis.append(tuple(_primitive(v)))
    return basis


def solve(rows, b):
    """One solution of rows · x = b as (x, den) with x integer and
    x/den the rational solution, or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    red, pivots = rref([list(row) + [bv] for row, bv in zip(rows, b)])
    if pivots and pivots[-1] == ncols:
        return None     # pivot in the augmented column: inconsistent
    den = lcm(*(row[p] for row, p in zip(red, pivots)))
    x = [0] * ncols
    for row, p in zip(red, pivots):
        x[p] = row[ncols] * (den // row[p])
    return tuple(x), den
