"""Exact elimination shared by the lattice, code and group layers.

Three kernels, each written once: echelon form over Z (with a Bareiss
determinant and a Fraction inverse beside it), echelon form over F_p, and
rank over F_2 on rows packed as integer bitmasks.  Each routine returns the
same rows in the same order for the same input; the lattice basis reduction
downstream depends on that.
"""

from __future__ import annotations

from fractions import Fraction


def integer_row_basis(rows):
    """Echelon basis (over Z) of the row span of integer rows."""
    mat = [list(map(int, r)) for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                if piv is None or abs(mat[i][col]) < abs(mat[piv][col]):
                    piv = i
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        while True:
            if mat[rank][col] < 0:
                mat[rank] = [-a for a in mat[rank]]
            dirty = False
            for i in range(rank + 1, len(mat)):
                if mat[i][col]:
                    q = mat[i][col] // mat[rank][col]
                    if q:
                        mat[i] = [a - q * b
                                  for a, b in zip(mat[i], mat[rank])]
                    if mat[i][col]:
                        mat[rank], mat[i] = mat[i], mat[rank]
                        dirty = True
            if not dirty:
                break
        rank += 1
    return mat[:rank]


def bareiss_det(gram):
    """Exact determinant of an integer matrix."""
    a = [list(map(int, r)) for r in gram]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def fraction_inverse(mat):
    """Inverse of a square matrix, exactly, as Fractions."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                       for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def row_reduce_mod_p(rows, p):
    """Row echelon form mod p; returns (pivot rows, pivot column list).

    The number of pivot rows is the rank over F_p.
    """
    rows = [list(r) for r in rows]
    pivots = []
    basis = []
    col = 0
    n = len(rows[0]) if rows else 0
    while rows and col < n:
        src = next((i for i, r in enumerate(rows) if r[col] % p != 0), None)
        if src is None:
            col += 1
            continue
        row = rows.pop(src)
        inv = pow(row[col], -1, p)
        row = [(inv * x) % p for x in row]
        for r in rows:
            f = r[col] % p
            if f:
                for j in range(n):
                    r[j] = (r[j] - f * row[j]) % p
        basis.append(tuple(row))
        pivots.append(col)
        col += 1
    return basis, pivots


def rank_f2(rows):
    """Rank over F_2 of rows given as integer bitmasks."""
    rows = [r for r in rows if r]
    rank = 0
    for bit in range(max(rows).bit_length() if rows else 0):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i] >> bit & 1:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] >> bit & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank
