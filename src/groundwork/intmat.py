"""Exact integer matrices: Hermite and Smith normal forms, kernels, solving.

All arithmetic is arbitrary-precision; no floats anywhere.  Matrices are
immutable and row-major.  The column-style Hermite normal form (nonnegative
pivots, entries left of a pivot reduced modulo it) is canonical: two column
lattices are equal exactly when their `hnf` results are.  `snf` is the one
elimination: it returns D = U·A·V together with U⁻¹, tracked during
elimination, and `solve_many` is the factor-once path that solves every
right-hand side against one SNF of A.  `solve_hnf` solves against a matrix
already in Hermite form by substitution.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter, mul


def xgcd(a: int, b: int):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _identity_rows(n: int) -> list:
    """The n×n identity as a list of fresh int lists."""
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple  # row-major tuple of int tuples

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")

    @staticmethod
    def from_rows(rows_data) -> "IntMatrix":
        data = tuple(tuple(map(int, row)) for row in rows_data)
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        return IntMatrix(nrows, ncols, data)

    @staticmethod
    def from_cols(cols_data, rows: int | None = None) -> "IntMatrix":
        cols_data = list(cols_data)
        if not cols_data:
            return IntMatrix(rows or 0, 0, tuple(() for _ in range(rows or 0)))
        m = len(cols_data[0])
        if m == 0:
            return IntMatrix(0, len(cols_data), ())
        return IntMatrix.from_rows(zip(*cols_data, strict=True))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(map(tuple, _identity_rows(n))))

    @staticmethod
    def zeros(m: int, n: int) -> "IntMatrix":
        return IntMatrix(m, n, tuple(tuple(0 for _ in range(n)) for _ in range(m)))

    @staticmethod
    def diagonal(diag) -> "IntMatrix":
        diag = list(diag)
        n = len(diag)
        return IntMatrix.from_rows(
            [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def block_diagonal(blocks) -> "IntMatrix":
        blocks = list(blocks)
        cols = sum(B.cols for B in blocks)
        rows, off = [], 0
        for B in blocks:
            rows.extend((0,) * off + row + (0,) * (cols - off - B.cols)
                        for row in B.entries)
            off += B.cols
        return IntMatrix(len(rows), cols, tuple(rows))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(map(itemgetter(j), self.entries))

    def columns(self):
        return [list(c) for c in self.transpose().entries]

    def transpose(self) -> "IntMatrix":
        # zip(*entries) loses the column count when there are no rows
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.entries))
                         if self.rows else ((),) * self.cols)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in multiplication")
        ot = other.transpose().entries
        return IntMatrix(
            self.rows, other.cols,
            tuple(tuple(sum(map(mul, row, ocol)) for ocol in ot)
                  for row in self.entries))

    def mul_vec(self, v):
        if self.cols != len(v):
            raise ValueError("shape mismatch in matrix-vector product")
        return tuple(sum(map(mul, row, v)) for row in self.entries)

    def add(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return IntMatrix(
            self.rows, self.cols,
            tuple(tuple(a + b for a, b in zip(r1, r2))
                  for r1, r2 in zip(self.entries, other.entries)))

    def neg(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(-a for a in row) for row in self.entries))

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(c * a for a in row)
                               for row in self.entries))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return IntMatrix(
            self.rows, self.cols + other.cols,
            tuple(tuple(r1) + tuple(r2)
                  for r1, r2 in zip(self.entries, other.entries)))

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in row) for row in self.entries)

    def __str__(self):
        return "\n".join(" ".join(str(a) for a in row) for row in self.entries)


def _hnf_cols(cols, m, companion=None):
    """In-place column HNF.  Returns (pivot_rows, rank).

    cols: list of length-m integer columns; companion (if given) receives the
    same column operations.
    """
    n = len(cols)
    c = 0
    pivot_rows = []
    for r in range(m):
        if c >= n:
            break
        j0 = None
        for j in range(c, n):
            if cols[j][r] != 0:
                j0 = j
                break
        if j0 is None:
            continue
        cols[c], cols[j0] = cols[j0], cols[c]
        if companion is not None:
            companion[c], companion[j0] = companion[j0], companion[c]
        for j in range(c + 1, n):
            if cols[j][r] != 0:
                a, b = cols[c][r], cols[j][r]
                g, s, t = xgcd(a, b)
                u, v = a // g, b // g
                ci, cj = cols[c], cols[j]
                cols[c] = [s * x + t * y for x, y in zip(ci, cj)]
                cols[j] = [-v * x + u * y for x, y in zip(ci, cj)]
                if companion is not None:
                    ci, cj = companion[c], companion[j]
                    companion[c] = [s * x + t * y for x, y in zip(ci, cj)]
                    companion[j] = [-v * x + u * y for x, y in zip(ci, cj)]
        if cols[c][r] < 0:
            cols[c] = [-x for x in cols[c]]
            if companion is not None:
                companion[c] = [-x for x in companion[c]]
        p = cols[c][r]
        for j in range(c):
            q = cols[j][r] // p
            if q:
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[c])]
                if companion is not None:
                    companion[j] = [x - q * y
                                    for x, y in zip(companion[j], companion[c])]
        pivot_rows.append(r)
        c += 1
    return pivot_rows, c


def hnf(A: IntMatrix) -> IntMatrix:
    """Canonical column-style Hermite normal form; zero columns dropped.

    Two integer column lattices are equal iff their hnf() results are
    bit-identical.
    """
    cols = A.columns()
    _, rank = _hnf_cols(cols, A.rows)
    return IntMatrix.from_cols(cols[:rank], rows=A.rows)


def kernel(A: IntMatrix) -> IntMatrix:
    """Basis (columns, HNF-canonical) of the integer kernel of A."""
    cols = A.columns()
    companion = _identity_rows(A.cols)
    _, rank = _hnf_cols(cols, A.rows, companion)
    ker_cols = companion[rank:]
    _hnf_cols(ker_cols, A.cols)
    ker_cols = [c for c in ker_cols if any(x != 0 for x in c)]
    return IntMatrix.from_cols(ker_cols, rows=A.cols)


def snf(A: IntMatrix):
    """Smith normal form: returns (D, U, V, U_inv) with D = U·A·V.

    U, V unimodular; D diagonal with nonnegative entries d_i | d_{i+1};
    U_inv = U⁻¹, kept by mirroring every row operation on U as the
    inverse column operation on U_inv (stored transposed as W).
    """
    m, n = A.rows, A.cols
    M = [list(row) for row in A.entries]
    U = _identity_rows(m)
    W = _identity_rows(m)
    V = _identity_rows(n)

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
        """Move a minimal-magnitude nonzero of M[t:, t:] to (t, t)."""
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
                # reduce the pivot column and row; any nonzero remainder
                # is strictly smaller than the pivot, so re-selecting the
                # minimal pivot keeps every quotient small and terminates
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
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(t_end - 1):
            a, b = M[i][i], M[i + 1][i + 1]
            if a != 0 and b % a != 0:
                # merge the two diagonal entries and re-diagonalize
                for row in M:
                    row[i] += row[i + 1]
                for row in V:
                    row[i] += row[i + 1]
                diagonalize_from(i)
                changed = True
                break
            if a == 0 and b != 0:
                # zeros must come last
                col_swap(i, i + 1)
                row_swap(i, i + 1)
                changed = True
                break
    return (IntMatrix(m, n, tuple(map(tuple, M))),
            IntMatrix(m, m, tuple(map(tuple, U))),
            IntMatrix(n, n, tuple(map(tuple, V))),
            IntMatrix(m, m, tuple(zip(*W))))


def solve_many(A: IntMatrix, bs):
    """One integer solution x of A·x = b per b in bs (None where there is
    none), all from a single factorization of A."""
    bs = list(bs)
    if not bs:
        return []
    D, U, V, _ = snf(A)
    diag = [D[i, i] if i < A.cols else 0 for i in range(A.rows)]
    out = []
    for b in bs:
        c = U.mul_vec(tuple(b))
        if any(ci % d if d else ci for ci, d in zip(c, diag)):
            out.append(None)
        else:
            y = [ci // d if d else 0 for ci, d in zip(c, diag)]
            out.append(V.mul_vec(tuple((y + [0] * A.cols)[:A.cols])))
    return out


def solve(A: IntMatrix, b):
    """One integer solution x of A·x = b, or None."""
    return solve_many(A, [b])[0]


def solve_hnf(H: IntMatrix, b):
    """The integer x with H·x = b for H in column Hermite form (as `hnf`
    returns it), or None.  Each column is zero above its pivot row, so x
    comes by substitution down the pivot rows, with no factorization."""
    rest = list(b)
    x = []
    for col in zip(*H.entries):
        r = next(i for i, v in enumerate(col) if v)
        q, m = divmod(rest[r], col[r])
        if m:
            return None
        if q:
            rest = [y - q * v for y, v in zip(rest, col)]
        x.append(q)
    return None if any(rest) else x


def det(A: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    M = [list(row) for row in A.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if pivot is None:
                return 0
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]
